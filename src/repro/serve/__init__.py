"""`repro.serve` — dependency-free HTTP/JSONL serving over the batch engine.

* :mod:`~repro.serve.server` — the asyncio HTTP/1.1 front end
  (``GET /algos``, ``GET /healthz``, ``POST /solve``, ``POST /batch``)
  over one shared runner + result cache: one event loop multiplexes
  thousands of keep-alive connections, each ``/batch`` streams behind a
  bounded backpressure buffer, and a deadlined ``/solve`` leases a worker
  at urgent priority (an undeadlined one is solved in the server
  process).
* :mod:`~repro.serve.client` — a persistent-connection http.client
  speaking the same wire format, for sweeps that target a remote
  server.

Start a server with ``repro serve`` or :func:`create_server`.
"""

from .client import ServeClient, ServeClientError, task_request
from .server import (
    DEFAULT_PORT,
    ReproAsyncServer,
    RequestError,
    ServeApp,
    create_server,
    parse_task_request,
)

__all__ = [
    "DEFAULT_PORT",
    "ReproAsyncServer",
    "RequestError",
    "ServeApp",
    "ServeClient",
    "ServeClientError",
    "create_server",
    "parse_task_request",
    "task_request",
]
