"""Thin HTTP client for a ``repro serve`` endpoint.

Lets sweeps and scripts target a remote server with the same
vocabulary the in-process engine uses: requests are built from
:class:`~repro.core.jobs.Instance` objects, responses come back as
:class:`~repro.engine.workers.TaskResult` records.  Standard library
only, mirroring the server.

Transport notes:

* **Keep-alive.**  Each client keeps one persistent
  :class:`http.client.HTTPConnection` *per calling thread* (the
  distributed dispatcher drives one client from several window threads)
  and reuses it across requests, reconnecting transparently when a
  stale socket surfaces (a keep-alive connection the server closed
  while idle).  Compared to the old one-urllib-request-per-call
  transport this removes a TCP handshake from every task the fabric
  dispatches — and measurably cuts per-request latency for plain
  single-host use too.
* **Retry with backoff.**  Idempotent GETs (``/algos``, ``/healthz``,
  ``/stats``, ``/metrics``) retry transport failures and 5xx answers a
  bounded number of times with exponential backoff plus jitter, so a
  health probe racing a restarting server does not flap the fabric's
  host-up view.  POSTs never auto-retry beyond the single stale-socket
  reconnect — retry policy for solves belongs to the caller (the
  dispatcher), which knows whether re-dispatch is safe.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Mapping
from urllib.parse import urlsplit

from ..core.jobs import Instance
from ..engine.workers import TaskResult
from ..io import instance_to_payload

__all__ = ["ServeClientError", "ServeClient", "task_request"]


class ServeClientError(RuntimeError):
    """An error talking to the server.

    ``status`` carries the HTTP status for error *answers*; transport
    failures that never produced an HTTP response (connection refused,
    DNS, socket timeout) use ``status=0``.
    """

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status

    @property
    def transient(self) -> bool:
        """Whether a retry could plausibly succeed (transport or 5xx)."""
        return self.status == 0 or self.status >= 500


def task_request(
    instance: Instance,
    problem: str,
    g: int,
    *,
    algorithm: str | None = None,
    params: Mapping[str, Any] | None = None,
    backend: str | None = None,
    timeout: float | None = None,
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """One wire-format task object for ``POST /solve`` or ``POST /batch``."""
    payload: dict[str, Any] = {
        "instance": instance_to_payload(instance),
        "problem": problem,
        "g": g,
    }
    if algorithm is not None:
        payload["algorithm"] = algorithm
    if params:
        payload["params"] = dict(params)
    if backend is not None:
        payload["backend"] = backend
    if timeout is not None:
        payload["timeout"] = timeout
    if meta:
        payload["meta"] = dict(meta)
    return payload


#: Exceptions that mean "this keep-alive socket is no longer usable" —
#: reconnect once and resend before declaring the host unreachable.
_STALE_SOCKET_ERRORS = (
    http.client.HTTPException,
    ConnectionError,
    BrokenPipeError,
    TimeoutError,
    OSError,
)

#: Exponential-backoff schedule for GET retries: attempt ``k`` sleeps
#: ``min(_BACKOFF_BASE * 2**k, _BACKOFF_CAP)`` seconds scaled by a random
#: jitter in [0.5, 1.0] (jitter keeps a fleet of probes from re-hammering
#: a recovering server in lockstep).
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


class ServeClient:
    """Talk to one ``repro serve`` endpoint.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8977"`` (trailing slash tolerated).
    http_timeout:
        Socket timeout per request, in seconds.  Batches stream, so
        this bounds silence between lines rather than total runtime.
    get_retries:
        Extra attempts for idempotent GETs after a transport failure or
        5xx answer (``0`` disables retry), on the :data:`_BACKOFF_BASE`
        schedule.  POST bodies are never auto-retried.
    """

    def __init__(
        self,
        base_url: str,
        *,
        http_timeout: float = 300.0,
        get_retries: int = 3,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(
                f"unsupported URL scheme {parts.scheme!r} in {base_url!r}; "
                "use http:// or https://"
            )
        if not parts.hostname:
            raise ValueError(f"no host in server URL {base_url!r}")
        self._scheme = parts.scheme
        self._host = parts.hostname
        self._port = parts.port
        self.http_timeout = http_timeout
        self.get_retries = max(0, int(get_retries))
        # One persistent connection per thread: http.client connections
        # are strictly serial (one request/response in flight), and the
        # fabric dispatcher shares one client between a host's window
        # threads.
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Connection lifecycle (per thread)
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            cls = (
                http.client.HTTPSConnection
                if self._scheme == "https"
                else http.client.HTTPConnection
            )
            conn = cls(self._host, self._port, timeout=self.http_timeout)
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Close the calling thread's persistent connection (if any).

        Other threads' connections stay open until those threads call
        :meth:`close` themselves; a thread that ends without it leaves
        its socket to the garbage collector, unclosed.  The client
        remains usable after — the next request simply reconnects.
        """
        self._drop_connection()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _send(
        self, method: str, path: str, body: bytes | None
    ) -> http.client.HTTPResponse:
        """One request/response on the thread's persistent connection.

        A stale keep-alive socket (the server closed it while this
        client was idle) gets exactly one transparent reconnect-and-
        resend; a failure on the fresh connection is a real transport
        error.  Resending is safe even for POSTs here because the
        server's content-addressed cache makes ``/solve``/``/batch``
        idempotent — and the stale socket means the previous *response*
        channel died, not that this request ran twice.
        """
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                return conn.getresponse()
            except _STALE_SOCKET_ERRORS as exc:
                self._drop_connection()
                if attempt == 0 and self._is_stale(exc):
                    continue  # reconnect once, then resend
                raise ServeClientError(
                    f"cannot reach {self.base_url + path}: "
                    f"{type(exc).__name__}: {exc}",
                    status=0,
                ) from None
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _is_stale(exc: BaseException) -> bool:
        """Whether ``exc`` smells like a dead keep-alive socket.

        Connection *refused* (nobody listening) and timeouts are real
        failures worth surfacing immediately — retrying them just doubles
        the latency of every probe against a down host.
        """
        if isinstance(exc, (ConnectionRefusedError, TimeoutError)):
            return False
        return isinstance(
            exc,
            (
                http.client.RemoteDisconnected,
                http.client.CannotSendRequest,
                ConnectionResetError,
                BrokenPipeError,
            ),
        )

    def _open(self, method: str, path: str, body: bytes | None = None):
        """Issue one request; error answers raise :class:`ServeClientError`.

        The response body of an error answer is drained before raising
        so the keep-alive connection stays usable for the next request.
        """
        response = self._send(method, path, body)
        if response.status >= 400:
            try:
                detail = response.read().decode("utf-8", errors="replace")
            except _STALE_SOCKET_ERRORS:
                detail = ""
                self._drop_connection()
            try:
                message = json.loads(detail)["error"]
            except (json.JSONDecodeError, KeyError, TypeError):
                message = detail.strip() or response.reason
            raise ServeClientError(message, response.status)
        return response

    @contextmanager
    def _reading(self, path: str, response) -> Iterator[None]:
        """Wrap response-body reads so mid-stream transport failures
        (socket timeout between chunks, dropped connection, truncated
        chunked encoding) surface as :class:`ServeClientError` too —
        callers handle one exception type end to end.  A body abandoned
        before EOF (an early-closed ``batch`` iterator) poisons the
        keep-alive connection, so it is dropped rather than reused."""
        try:
            yield
        except (TimeoutError, OSError, http.client.HTTPException) as exc:
            self._drop_connection()
            raise ServeClientError(
                f"connection to {self.base_url + path} failed mid-read: "
                f"{type(exc).__name__}: {exc}",
                status=0,
            ) from None
        finally:
            if not response.isclosed():
                # Unread bytes would bleed into the next request on this
                # connection; start fresh instead.
                self._drop_connection()

    def _get(self, path: str) -> bytes:
        """GET with bounded exponential-backoff retry (idempotent paths).

        Retries transport failures (``status == 0``) and 5xx answers up
        to ``get_retries`` times; 4xx answers are deterministic and
        surface immediately.
        """
        attempt = 0
        while True:
            try:
                response = self._open("GET", path)
                with self._reading(path, response):
                    return response.read()
            except ServeClientError as exc:
                if not exc.transient or attempt >= self.get_retries:
                    raise
                delay = min(_BACKOFF_BASE * (2 ** attempt), _BACKOFF_CAP)
                time.sleep(delay * (0.5 + 0.5 * random.random()))
                attempt += 1

    def _get_json(self, path: str) -> dict[str, Any]:
        return json.loads(self._get(path))

    # ------------------------------------------------------------------
    def algos(self) -> dict[str, Any]:
        """The server's solver and backend registries (``GET /algos``)."""
        return self._get_json("/algos")

    def health(self) -> dict[str, Any]:
        """Liveness, capacity and cache statistics (``GET /healthz``).

        The answer's ``jobs`` / ``queue_depth`` / ``streams_in_flight``
        fields are what the fabric dispatcher sizes per-host windows
        from.
        """
        return self._get_json("/healthz")

    def stats(self) -> dict[str, Any]:
        """The server's metrics digest as JSON (``GET /stats``)."""
        return self._get_json("/stats")

    def metrics(self) -> str:
        """The raw Prometheus exposition text (``GET /metrics``)."""
        return self._get("/metrics").decode("utf-8")

    def solve(
        self,
        instance: Instance,
        problem: str,
        g: int,
        *,
        algorithm: str | None = None,
        params: Mapping[str, Any] | None = None,
        backend: str | None = None,
        timeout: float | None = None,
        meta: Mapping[str, Any] | None = None,
    ) -> TaskResult:
        """Solve one instance remotely (``POST /solve``)."""
        return self.solve_payload(
            task_request(
                instance,
                problem,
                g,
                algorithm=algorithm,
                params=params,
                backend=backend,
                timeout=timeout,
                meta=meta,
            )
        )

    def solve_payload(self, payload: Mapping[str, Any]) -> TaskResult:
        """``POST /solve`` an already-built wire-format task object.

        The fabric dispatcher ships :class:`~repro.engine.workers.Task`
        objects it serialized once; this entry point skips re-encoding
        the instance per attempt.
        """
        body = json.dumps(dict(payload)).encode("utf-8")
        response = self._open("POST", "/solve", body)
        with self._reading("/solve", response):
            return TaskResult.from_record(json.loads(response.read()))

    def batch(
        self, requests: Iterable[Mapping[str, Any]]
    ) -> Iterator[TaskResult]:
        """Stream a batch (``POST /batch``), yielding results in task order.

        ``requests`` are wire-format task objects (see
        :func:`task_request`); results are yielded as lines arrive, so
        early waves can be consumed while the server is still solving.
        """
        body = "".join(
            json.dumps(dict(request)) + "\n" for request in requests
        ).encode("utf-8")
        response = self._open("POST", "/batch", body)
        with self._reading("/batch", response):
            for line in response:
                line = line.strip()
                if line:
                    yield TaskResult.from_record(json.loads(line))
