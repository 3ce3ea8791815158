"""Asyncio HTTP/JSONL serving front end over the batch engine.

The ROADMAP's async-serving item, made concrete: a stdlib
``asyncio.start_server`` HTTP/1.1 loop exposing the solver registry,
backed by one shared :class:`~repro.engine.runner.BatchRunner` and
:class:`~repro.engine.cache.ResultCache` so repeated and duplicate
requests are deduped server-side.  One event loop multiplexes thousands
of keep-alive connections; the blocking engine never runs on it — GET
payloads are cheap in-memory reads, ``/solve`` parses and solves on a
request executor thread, and each ``/batch`` pulls its result stream on
a dedicated producer thread through a bounded bridge.

Endpoints (wire contract unchanged from the threading tier)
-----------------------------------------------------------
``GET /algos``
    Registry listing: every solver spec plus every LP/MILP backend with
    its capabilities and availability (the same rows ``repro algos``
    prints).
``GET /healthz``
    Liveness plus cache statistics and a capacity report — including
    ``connections``, the number of currently open HTTP connections, so
    the fabric can see serving-tier saturation, not just pool depth.
``GET /metrics``
    The process metrics registry in Prometheus text-exposition format
    (task latency and queue-wait histograms, cache counters, connection
    gauge — see the README's metrics catalog).
``GET /stats``
    The same registry digested to JSON for humans and dashboards that
    do not speak Prometheus: queue depth, in-flight streams, per-backend
    latency quantiles, cache and serving statistics.
``POST /solve``
    One task as a JSON object (``instance``/``problem``/``algorithm``/
    ``g``/``params``/``backend``/``timeout``/``meta``); answers the
    :class:`~repro.engine.workers.TaskResult` record as JSON.  An
    undeadlined task is one pending task, so it is solved in the server
    process; a deadlined one (a request ``timeout`` or ``--timeout``)
    leases a pool worker at :data:`~repro.engine.runner.PRIORITY_URGENT`,
    ahead of any large ``/batch``.
``POST /batch``
    A JSONL stream of task objects (one per line); answers chunked
    JSONL, one result record per line **in task order**.  Results are
    streamed incrementally through
    :meth:`~repro.engine.runner.BatchRunner.run_stream`; each line is
    written the moment its result (and every earlier one) is done, so
    one slow task never holds back finished predecessors.

Backpressure
------------
Each ``/batch`` connection owns a bounded result buffer
(``batch_buffer`` results): the producer thread pulling the engine
stream blocks once the buffer is full, and the event-loop side awaits
``writer.drain()`` after every line — so a stalled reader suspends *its
own* stream at the cap instead of pinning unbounded result memory, and
a reader that accepts no bytes for ``write_stall_timeout`` seconds is
treated as disconnected (the stream closes, which kills the leased
workers and frees their capacity).

Validation goes through the same error-menu helpers the CLI uses
(:func:`repro.engine.registry.backend_task_params`, ``REGISTRY.get``),
so a typo'd algorithm or backend name answers 400 with the full menu
instead of a bare error.

Everything here is standard library only — no framework to install on
the serving host.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS
from typing import Any, Deque, Iterator, Sequence
from urllib.parse import urlsplit

from ..engine import BatchRunner, ResultCache, backend_task_params, make_task
from ..engine.registry import PROBLEMS, REGISTRY
from ..engine.runner import PRIORITY_URGENT
from ..engine.workers import Task, TaskResult
from ..io import instance_from_payload
from ..obs import REGISTRY as OBS
from ..obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE, render_prometheus
from ..solvers import backend_names, backend_status, resolve_backend

__all__ = [
    "DEFAULT_PORT",
    "RequestError",
    "ServeApp",
    "ReproAsyncServer",
    "create_server",
    "parse_task_request",
]

#: Default TCP port for ``repro serve`` (unregistered, above ephemeral floor).
DEFAULT_PORT = 8977

#: Fields a task request may carry; anything else is a typo worth a 400.
_TASK_FIELDS = frozenset(
    {"instance", "problem", "algorithm", "g", "params", "backend",
     "timeout", "meta"}
)

#: Per-problem algorithm used when a request names none (CLI parity).
_DEFAULT_ALGORITHM = {"active": "rounding", "busy": "greedy_tracking"}

#: Refuse request bodies beyond this size (64 MiB) instead of buffering.
_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default for ``write_stall_timeout``: give up on a ``/batch`` client
#: that accepts no bytes for this long.  The result stream is
#: pull-driven, so a stalled reader would suspend watchdog deadline
#: enforcement for its in-flight tasks indefinitely; treating a long
#: write stall as a disconnect closes the stream, which kills the
#: leased workers and frees their capacity.
DEFAULT_WRITE_STALL_SECONDS = 300.0

#: Default for ``batch_buffer``: results a ``/batch`` producer may pull
#: ahead of what its client has consumed before it blocks.
DEFAULT_BATCH_BUFFER = 64

#: Drop a keep-alive connection idle (no request line) past this long.
_KEEPALIVE_SECONDS = 600.0

#: Read deadline for the remainder of a request head once its first
#: byte arrived, and for a declared body — a peer trickling bytes must
#: not hold a handler open forever.
_HEADER_SECONDS = 30.0
_BODY_SECONDS = 120.0

#: StreamReader buffer limit: bounds a single request/header line.
_STREAM_LIMIT = 256 * 1024

_SERVER_NAME = "repro-serve"

_CONNECTIONS = OBS.gauge(
    "repro_serve_connections",
    "HTTP connections currently open on the serving tier",
)
_BP_STALLS = OBS.counter(
    "repro_serve_backpressure_stalls_total",
    "Times a /batch producer blocked on its connection's full "
    "result buffer (a slow or stalled reader)",
)


class RequestError(ValueError):
    """A client error with the HTTP status it should answer with.

    ``close`` marks errors raised before the request body was drained
    (411/413): on keep-alive the unread bytes would be parsed as the
    next request line, so the connection must be dropped after the
    error response.
    """

    def __init__(
        self, message: str, status: int = 400, *, close: bool = False
    ) -> None:
        super().__init__(message)
        self.status = status
        self.close = close


def _label(index: int | None) -> str:
    return "" if index is None else f"task {index}: "


def parse_task_request(
    payload: Any,
    index: int | None = None,
    *,
    default_backend: str | None = None,
    default_timeout: float | None = None,
) -> Task:
    """Translate one wire-format task object into an engine ``Task``.

    Raises :class:`RequestError` (status 400) with the same menu-style
    messages the CLI prints: unknown algorithms list the registered
    names, unknown backends list the backend menu.

    ``index`` labels multi-task (batch) errors with the task's position;
    it also becomes the task's result-ordering index.
    """
    at = _label(index)
    if not isinstance(payload, dict):
        raise RequestError(
            f"{at}request must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _TASK_FIELDS)
    if unknown:
        raise RequestError(
            f"{at}unknown field(s) {unknown}; "
            f"allowed fields: {sorted(_TASK_FIELDS)}"
        )

    problem = payload.get("problem", "active")
    if problem not in PROBLEMS:
        raise RequestError(
            f"{at}unknown problem {problem!r}; choose from {list(PROBLEMS)}"
        )
    algorithm = payload.get("algorithm") or _DEFAULT_ALGORITHM[problem]
    try:
        REGISTRY.get(problem, algorithm)
    except KeyError as exc:
        raise RequestError(f"{at}{exc.args[0]}") from None

    g = payload.get("g")
    if isinstance(g, bool) or not isinstance(g, int) or g < 1:
        raise RequestError(
            f"{at}'g' must be a positive integer, got {g!r}"
        )

    params = payload.get("params")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise RequestError(f"{at}'params' must be an object, got {params!r}")
    meta = payload.get("meta")
    meta = {} if meta is None else meta
    if not isinstance(meta, dict):
        raise RequestError(f"{at}'meta' must be an object, got {meta!r}")

    # Backend routing matches the CLI: an explicit request is strict
    # (naming a backend for a combinatorial algorithm is an error), a
    # server-wide default is advisory (combinatorial tasks ignore it).
    explicit = payload.get("backend")
    if explicit is not None and not isinstance(explicit, str):
        raise RequestError(
            f"{at}'backend' must be a string, got {explicit!r}"
        )
    try:
        backend_params = backend_task_params(
            problem,
            algorithm,
            explicit if explicit is not None else default_backend,
            strict=explicit is not None,
        )
    except ValueError as exc:
        raise RequestError(f"{at}{exc}") from None

    if "instance" not in payload:
        raise RequestError(
            f"{at}missing 'instance' "
            "(an object with a 'jobs' array of "
            "{release, deadline, length[, id]})"
        )
    try:
        instance = instance_from_payload(payload["instance"])
    except (ValueError, TypeError) as exc:
        # TypeError guards against payload shapes the io-level validation
        # missed: a malformed instance must answer 400, never tear down
        # the connection handler.
        raise RequestError(f"{at}{exc}") from None

    # An explicit ``"timeout": null`` must NOT bypass the server-wide
    # default: that would let a client disable the protective deadline
    # and wedge a worker on an unbounded exact solve.  Null means "use
    # the server default", exactly like omitting the field.
    timeout = payload.get("timeout")
    if timeout is None:
        timeout = default_timeout
    if timeout is not None and (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        or timeout <= 0
    ):
        raise RequestError(
            f"{at}'timeout' must be a positive number of seconds, "
            f"got {timeout!r}"
        )

    return make_task(
        index=index or 0,
        problem=problem,
        algorithm=algorithm,
        g=g,
        instance=instance,
        params={**params, **backend_params},
        meta=meta,
        timeout=float(timeout) if timeout is not None else None,
    )


def _histogram_summaries(
    name: str, key_labels: Sequence[str]
) -> dict[str, dict[str, float]]:
    """Quantile digests per labeled series of one histogram family.

    Series are keyed ``label1/label2`` (``"all"`` for an unlabeled
    histogram); a family not registered yet answers ``{}``.
    """
    family = OBS.get(name)
    if family is None:
        return {}
    return {
        "/".join(labels[k] for k in key_labels) or "all": child.summary()
        for labels, child in family.children()
    }


def _fabric_digest() -> dict[str, dict[str, Any]]:
    """Per-host fabric counters, keyed by host, for ``GET /stats``.

    Populated only in processes that have run a
    :class:`~repro.fabric.RemoteDispatcher` (the families register on
    first use); everywhere else this answers ``{}`` and the ``fabric``
    key reads as "no distributed activity here".
    """
    hosts: dict[str, dict[str, Any]] = {}
    for metric, key in (
        ("repro_fabric_dispatched_total", "dispatched"),
        ("repro_fabric_completed_total", "completed"),
        ("repro_fabric_retried_total", "retried"),
        ("repro_fabric_in_flight", "in_flight"),
        ("repro_fabric_host_up", "up"),
    ):
        family = OBS.get(metric)
        if family is None:
            continue
        for labels, child in family.children():
            hosts.setdefault(labels["host"], {})[key] = child.value
    latency = OBS.get("repro_fabric_task_seconds")
    if latency is not None:
        for labels, child in latency.children():
            hosts.setdefault(labels["host"], {})["task_seconds"] = (
                child.summary()
            )
    return hosts


def _json_safe(value: Any) -> Any:
    """Replace NaN/inf floats with ``None`` so the JSON is standard."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and (
        value != value or value in (float("inf"), float("-inf"))
    ):
        return None
    return value


class ServeApp:
    """Server-side state shared by every request: runner + cache + defaults.

    One *streaming* :class:`BatchRunner` over one :class:`ResultCache`.
    There is no whole-batch lock: every request path submits through
    :meth:`BatchRunner.run_stream`, which shares the runner's persistent
    worker pool safely, so a long ``/batch`` never head-of-line blocks
    concurrent ``/solve`` requests — and a deadlined ``/solve`` leases
    at urgent priority on top.  A cache is always present, even memory-only:
    it is what dedupes repeated requests server-side (and it is
    internally locked, so concurrent handlers share it).

    Serving knobs owned here (the connection layer reads them):

    ``write_stall_timeout``
        Seconds a response write may wait on ``drain()`` before the
        client is treated as disconnected (``None`` disables the
        budget).
    ``batch_buffer``
        Per-``/batch`` bounded result-buffer size: how far the engine
        stream may run ahead of a slow reader before it blocks.
    ``warm_pool`` / ``idle_ttl``
        Forwarded to the runner: pre-spawn the watchdog worker pool at
        startup, and reap workers idle past the TTL.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: ResultCache | None = None,
        default_backend: str | None = None,
        default_timeout: float | None = None,
        write_stall_timeout: float | None = DEFAULT_WRITE_STALL_SECONDS,
        batch_buffer: int = DEFAULT_BATCH_BUFFER,
        warm_pool: bool = False,
        idle_ttl: float | None = None,
    ) -> None:
        if default_backend is not None:
            resolve_backend(default_backend)  # typo -> menu, at startup
        if write_stall_timeout is not None and write_stall_timeout <= 0:
            raise ValueError(
                "write_stall_timeout must be > 0 seconds (or None), "
                f"got {write_stall_timeout}"
            )
        if batch_buffer < 1:
            raise ValueError(
                f"batch_buffer must be >= 1, got {batch_buffer}"
            )
        self.cache = cache if cache is not None else ResultCache()
        self.runner = BatchRunner(jobs=jobs, cache=self.cache,
                                  idle_ttl=idle_ttl)
        self.default_backend = default_backend
        self.default_timeout = default_timeout
        self.write_stall_timeout = (
            float(write_stall_timeout)
            if write_stall_timeout is not None
            else None
        )
        self.batch_buffer = int(batch_buffer)
        self._counter_lock = threading.Lock()
        self.batches_served = 0
        self.tasks_served = 0
        self._connections = 0
        if warm_pool:
            self.runner.warm_up()

    def close(self) -> None:
        """Release the runner's persistent worker pool."""
        self.runner.close()

    # ------------------------------------------------------------------
    # Connection accounting (event-loop thread; lock shared with the
    # producer-thread counters)
    # ------------------------------------------------------------------
    @property
    def connections(self) -> int:
        """HTTP connections currently open."""
        with self._counter_lock:
            return self._connections

    def connection_opened(self) -> None:
        with self._counter_lock:
            self._connections += 1
            _CONNECTIONS.set(self._connections)

    def connection_closed(self) -> None:
        with self._counter_lock:
            self._connections -= 1
            _CONNECTIONS.set(self._connections)

    # ------------------------------------------------------------------
    def algos_payload(self) -> dict[str, Any]:
        """The ``GET /algos`` body: solver registry + backend registry."""
        return {
            "problems": {p: list(REGISTRY.names(p)) for p in PROBLEMS},
            "solvers": [
                {
                    "problem": spec.problem,
                    "name": spec.name,
                    "exact": spec.exact,
                    "guarantee": spec.guarantee,
                    "complexity": spec.complexity,
                    "description": spec.description,
                    "capabilities": sorted(spec.capabilities),
                    "backend_capability": spec.backend_capability,
                }
                for spec in REGISTRY.specs()
            ],
            "backends": [backend_status(name) for name in backend_names()],
            "defaults": {
                "algorithm": dict(_DEFAULT_ALGORITHM),
                "backend": self.default_backend,
                "timeout": self.default_timeout,
                "jobs": self.runner.jobs,
            },
        }

    def health_payload(self) -> dict[str, Any]:
        """The ``GET /healthz`` body: liveness plus a capacity report.

        ``jobs`` (worker processes), ``queue_depth`` (tasks enqueued and
        not yet dispatched), ``streams_in_flight`` (open result streams)
        and ``connections`` (open HTTP connections) are what the fabric
        dispatcher sizes a host's in-flight window from — a loaded host
        advertises its backlog and serving-tier saturation instead of
        silently queueing everything thrown at it.
        """
        with self._counter_lock:
            batches_served = self.batches_served
            tasks_served = self.tasks_served
        return {
            "ok": True,
            "jobs": self.runner.jobs,
            "queue_depth": OBS.value("repro_queue_depth"),
            "streams_in_flight": OBS.value("repro_streams_in_flight"),
            "connections": self.connections,
            "batches_served": batches_served,
            "tasks_served": tasks_served,
            "cache": self.cache.stats,
        }

    def stats_payload(self) -> dict[str, Any]:
        """The ``GET /stats`` body: the metrics registry digested to JSON.

        Everything here is also on ``/metrics`` in Prometheus form; this
        is the human/dashboard view — current queue depth, in-flight
        streams and connections, per-status task counts, latency
        quantiles per backend, cache and pool statistics.
        """
        tasks: dict[str, float] = {}
        family = OBS.get("repro_tasks_total")
        if family is not None:
            tasks = {
                labels["status"]: child.value
                for labels, child in family.children()
            }
        with self._counter_lock:
            batches_served = self.batches_served
            tasks_served = self.tasks_served
        payload = {
            "ok": True,
            "jobs": self.runner.jobs,
            "batches_served": batches_served,
            "tasks_served": tasks_served,
            "queue_depth": OBS.value("repro_queue_depth"),
            "streams_in_flight": OBS.value("repro_streams_in_flight"),
            "connections": self.connections,
            "backpressure_stalls": OBS.value(
                "repro_serve_backpressure_stalls_total"
            ),
            "pool": {
                "leases": OBS.value("repro_pool_leases_total"),
                "warmups": OBS.value("repro_pool_warmups_total"),
                "reaped": OBS.value("repro_pool_reaped_total"),
            },
            "tasks": tasks,
            "queue_wait_seconds": _histogram_summaries(
                "repro_queue_wait_seconds", ()
            ),
            "task_seconds": _histogram_summaries(
                "repro_task_seconds", ("backend", "algorithm")
            ),
            "backend_solve_seconds": _histogram_summaries(
                "repro_backend_solve_seconds", ("backend", "kind")
            ),
            "cache": self.cache.stats,
            "fabric": _fabric_digest(),
        }
        return _json_safe(payload)

    # ------------------------------------------------------------------
    def solve_one(self, task: Task) -> TaskResult:
        """Run one task through the shared runner/cache, urgently.

        ``/solve`` is a latency request.  Without a deadline it is one
        pending task, which the runner solves in this process.  With
        one it needs a worker the watchdog can kill, and it leases at
        :data:`~repro.engine.runner.PRIORITY_URGENT`, so a concurrent
        bulk ``/batch`` sheds it a worker at its next task completion
        instead of making it wait for the whole batch queue to drain.
        """
        result = self.runner.run([task], priority=PRIORITY_URGENT)[0]
        with self._counter_lock:
            self.tasks_served += 1
        return result

    def run_batch(self, tasks: Sequence[Task]) -> Iterator[TaskResult]:
        """Yield results for ``tasks`` in task order, incrementally.

        Streams through :meth:`BatchRunner.run_stream`: each result is
        yielded the moment it (and all its predecessors) is done, in-run
        duplicates are solved once, and every result lands in the shared
        cache — which also dedupes across repeated batches.  The batch
        counter is committed in ``finally`` so an abandoned stream (a
        disconnected client closing this generator) still counts and the
        served-task tally stays consistent with what actually ran.
        """
        stream = self.runner.run_stream(tasks)
        try:
            for result in stream:
                with self._counter_lock:
                    self.tasks_served += 1
                yield result
        finally:
            # Deterministic teardown on abandonment: closing the stream
            # cancels undispatched tasks and settles its gauges.
            stream.close()
            with self._counter_lock:
                self.batches_served += 1

    # ------------------------------------------------------------------
    # Blocking request work, run on the server's request executor —
    # never on the event loop.
    # ------------------------------------------------------------------
    def solve_record(self, body: bytes) -> dict[str, Any]:
        """Parse one ``/solve`` body and solve it; answers the record."""
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RequestError(
                f"request body is not valid JSON: {exc}"
            ) from None
        task = parse_task_request(
            payload,
            default_backend=self.default_backend,
            default_timeout=self.default_timeout,
        )
        return self.solve_one(task).to_record()

    def parse_batch(self, body: bytes) -> list[Task]:
        """Validate a whole ``/batch`` JSONL body into engine tasks.

        The entire stream is validated before anything solves: a typo on
        line 40 must not waste 39 solves.
        """
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RequestError(f"batch body is not UTF-8: {exc}") from None
        tasks: list[Task] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RequestError(
                    f"line {lineno}: malformed JSON ({exc.msg}); "
                    "batch bodies are JSONL, one task object per line"
                ) from None
            try:
                tasks.append(
                    parse_task_request(
                        payload,
                        index=len(tasks),
                        default_backend=self.default_backend,
                        default_timeout=self.default_timeout,
                    )
                )
            except RequestError as exc:
                raise RequestError(f"line {lineno}: {exc}") from None
        return tasks


class _BatchBridge:
    """Bounded producer(thread) → consumer(event loop) result bridge.

    One per active ``/batch`` response.  The producer thread pulls the
    engine's ordered result stream and blocks once ``maxsize`` results
    sit unconsumed — the per-connection backpressure cap that keeps a
    stalled reader from pinning unbounded result memory.  The event-loop
    consumer takes results as they land (woken through
    ``call_soon_threadsafe``) and writes them behind ``drain()``.
    """

    def __init__(
        self, loop: asyncio.AbstractEventLoop, maxsize: int
    ) -> None:
        self._loop = loop
        self._maxsize = max(1, maxsize)
        self._cond = threading.Condition()
        self._items: Deque[TaskResult] = deque()
        self._done = False
        self._error: BaseException | None = None
        self._cancelled = False
        self._ready = asyncio.Event()

    # -- producer thread -----------------------------------------------
    def put(self, item: TaskResult) -> bool:
        """Buffer one result; block at the cap.  False once cancelled."""
        with self._cond:
            if len(self._items) >= self._maxsize and not self._cancelled:
                _BP_STALLS.inc()
                while (
                    len(self._items) >= self._maxsize
                    and not self._cancelled
                ):
                    self._cond.wait()
            if self._cancelled:
                return False
            self._items.append(item)
        self._wake()
        return True

    def finish(self) -> None:
        with self._cond:
            self._done = True
        self._wake()

    def fail(self, exc: BaseException) -> None:
        with self._cond:
            self._error = exc
            self._done = True
        self._wake()

    def _wake(self) -> None:
        try:
            self._loop.call_soon_threadsafe(self._ready.set)
        except RuntimeError:
            pass  # loop already closed; the consumer is gone anyway

    # -- consumer (event loop) -----------------------------------------
    async def get(self) -> TaskResult | None:
        """Next result, or ``None`` once the stream ended cleanly."""
        while True:
            with self._cond:
                if self._items:
                    item = self._items.popleft()
                    self._cond.notify_all()
                    return item
                if self._done:
                    if self._error is not None:
                        raise RuntimeError(
                            "batch producer failed"
                        ) from self._error
                    return None
                self._ready.clear()
            await self._ready.wait()

    def cancel(self) -> None:
        """Unblock and stop the producer (client gone / stream done)."""
        with self._cond:
            self._cancelled = True
            self._items.clear()
            self._cond.notify_all()


def _produce_batch(
    app: ServeApp, tasks: list[Task], bridge: _BatchBridge
) -> None:
    """Producer-thread body: drive the engine stream into the bridge."""
    results = app.run_batch(tasks)
    try:
        for result in results:
            if not bridge.put(result):
                return
        bridge.finish()
    except BaseException as exc:
        bridge.fail(exc)
        if not isinstance(exc, Exception):
            # KeyboardInterrupt / SystemExit: surface on the thread too,
            # don't convert interpreter shutdown into a quiet batch error.
            raise
    finally:
        results.close()


#: Exceptions that mean "the peer went away", never a server bug.
_CONNECTION_GONE = (
    ConnectionError,
    TimeoutError,
    asyncio.IncompleteReadError,
    OSError,
)


class ReproAsyncServer:
    """Asyncio HTTP/1.1 server carrying the shared :class:`ServeApp`.

    The listening socket is bound (and listening) at construction, so
    ``server_address`` / ``url`` are final immediately — ``port=0``
    callers can read their ephemeral port before serving starts, and
    early clients queue in the accept backlog until the loop runs.

    The ``socketserver`` driving contract is preserved so the CLI,
    tests and smoke scripts keep working unchanged:
    :meth:`serve_forever` blocks the calling thread (running a private
    event loop), :meth:`shutdown` stops it from any thread, and
    :meth:`server_close` releases the socket, the request executor and
    the app's worker pool.
    """

    def __init__(
        self,
        address: tuple[str, int],
        app: ServeApp,
        *,
        verbose: bool = False,
        max_connections: int | None = None,
        keepalive_timeout: float = _KEEPALIVE_SECONDS,
    ) -> None:
        if max_connections is not None and max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        self.app = app
        self.verbose = verbose
        self.max_connections = max_connections
        self.keepalive_timeout = keepalive_timeout
        self._sock = socket.create_server(address, backlog=512)
        self.server_address = self._sock.getsockname()[:2]
        # Request executor for blocking work (body parse + /solve).
        # Sized past the worker pool so queued requests park here, off
        # the event loop, while the engine applies the real concurrency
        # limit.
        self._executor = ThreadPoolExecutor(
            max_workers=max(8, app.runner.jobs + 4),
            thread_name_prefix="repro-serve",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._stopped.set()  # not running yet
        self._closed = False

    @property
    def url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Lifecycle (socketserver-compatible driving surface)
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the accept/serve event loop in the calling thread."""
        if self._closed:
            raise RuntimeError("serve_forever() on a closed server")
        self._stopped.clear()
        try:
            asyncio.run(self._serve())
        finally:
            self._loop = None
            self._shutdown_event = None
            self._started.clear()
            self._stopped.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        server = await asyncio.start_server(
            self._accept_connection,
            sock=self._sock,
            limit=_STREAM_LIMIT,
        )
        self._started.set()
        try:
            await self._shutdown_event.wait()
        finally:
            # Stop accepting; live connection-handler tasks are
            # cancelled (finally blocks run) by asyncio.run's teardown.
            server.close()

    def request_shutdown(self) -> bool:
        """Ask the serve loop to stop, without blocking.

        Safe from any thread *and* from a signal handler running on the
        loop's own thread (``call_soon_threadsafe`` only writes to the
        loop's wake-up pipe).  Answers whether a running loop accepted
        the request; ``False`` means the loop is not up (never started,
        or already gone).
        """
        loop, event = self._loop, self._shutdown_event
        if loop is None or event is None:
            return False
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            return False
        return True

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from another thread; blocks."""
        if self._stopped.is_set():
            return
        self._started.wait(timeout=5.0)
        self.request_shutdown()
        self._stopped.wait(timeout=30.0)

    def server_close(self) -> None:
        """Release sockets, the request executor and the worker pool."""
        self.shutdown()
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.app.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Sync accept callback: spawn and track the handler task.

        Handing ``start_server`` the coroutine directly would make the
        streams protocol wrap it in a task whose completion callback
        calls ``task.exception()`` — which *raises* on a cancelled task
        (3.11 ``asyncio.streams``) and spams the loop's exception
        handler at teardown, now that handlers re-raise
        ``CancelledError`` as the asyncio contract requires.  Owning the
        task here keeps cancellation propagation and quiet teardown;
        the strong reference also keeps the task alive (the loop holds
        only weak ones).
        """
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        app = self.app
        if (
            self.max_connections is not None
            and app.connections >= self.max_connections
        ):
            await self._reject_overloaded(writer)
            return
        app.connection_opened()
        try:
            await self._connection_loop(reader, writer)
        except _CONNECTION_GONE:
            pass  # peer vanished; nothing useful left to say to it
        except asyncio.CancelledError:
            # Server teardown cancelled this connection's task.  Run the
            # cleanup below, then let the cancellation propagate: a task
            # that swallows CancelledError reports "finished normally"
            # and wedges whoever is awaiting its cancellation.
            raise
        except Exception as exc:
            self._log(f"connection handler error: "
                      f"{type(exc).__name__}: {exc}")
        finally:
            app.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):  # lint: waive[REP002] best-effort close of a dead socket; a CancelledError raised above keeps propagating
                pass

    async def _reject_overloaded(
        self, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._write_json(
                writer,
                503,
                {
                    "error": (
                        "connection limit reached "
                        f"({self.max_connections}); retry later"
                    ),
                    "status": 503,
                },
                keep_alive=False,
            )
        except _CONNECTION_GONE:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):  # lint: waive[REP002] best-effort close while rejecting an overloaded peer; nothing left to tell it
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            head = await self._read_head(reader)
            if head is None:
                return
            method, target, version, headers = head
            keep_alive = version != "HTTP/1.0"
            conn_header = headers.get("connection", "").lower()
            if "close" in conn_header:
                keep_alive = False
            elif version == "HTTP/1.0" and "keep-alive" in conn_header:
                keep_alive = True
            keep_alive = await self._dispatch(
                method, target, headers, reader, writer, keep_alive
            )
            if not keep_alive:
                return

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict[str, str]] | None:
        """One request line + headers; ``None`` means drop the connection.

        The request-line read doubles as the keep-alive idle deadline;
        later header lines run on the tighter header deadline.  All
        malformed heads answer by closing (there is no reliably
        parseable request to answer *to*).
        """
        try:
            line = await asyncio.wait_for(
                reader.readline(), timeout=self.keepalive_timeout
            )
        except (asyncio.TimeoutError, ValueError):
            return None
        if not line:
            return None  # clean EOF between requests
        try:
            method, target, version = (
                line.decode("ascii").strip().split(None, 2)
            )
        except (UnicodeDecodeError, ValueError):
            return None
        headers: dict[str, str] = {}
        while True:
            try:
                hline = await asyncio.wait_for(
                    reader.readline(), timeout=_HEADER_SECONDS
                )
            except (asyncio.TimeoutError, ValueError):
                return None
            if hline in (b"\r\n", b"\n"):
                break
            if not hline or len(headers) > 256:
                return None
            name, sep, value = hline.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return method, target, version, headers

    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        """Route one request; answers whether the connection stays open."""
        path = urlsplit(target).path
        try:
            if method == "GET":
                status, live = await self._handle_get(
                    path, headers, writer, keep_alive
                )
            elif method == "POST":
                status, live = await self._handle_post(
                    path, headers, reader, writer, keep_alive
                )
            else:
                await self._write_json(
                    writer,
                    501,
                    {
                        "error": f"unsupported method {method}",
                        "status": 501,
                    },
                    keep_alive=False,
                )
                status, live = 501, False
        except RequestError as exc:
            live = keep_alive and not exc.close
            await self._write_json(
                writer,
                exc.status,
                {"error": str(exc), "status": exc.status},
                keep_alive=live,
            )
            status = exc.status
        self._log_request(method, path, status)
        return live

    async def _handle_get(
        self,
        path: str,
        headers: dict[str, str],
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> tuple[int, bool]:
        # A GET carrying a body is not served here; draining it would
        # stall the loop, so the connection closes after the response
        # rather than desync on the unread bytes.
        if headers.get("content-length", "0").strip() not in ("", "0"):
            keep_alive = False
        app = self.app
        if path == "/algos":
            payload, status = app.algos_payload(), 200
        elif path in ("/healthz", "/health"):
            payload, status = app.health_payload(), 200
        elif path == "/metrics":
            body = render_prometheus(OBS).encode("utf-8")
            await self._write_raw(
                writer, 200, PROM_CONTENT_TYPE, body, keep_alive
            )
            return 200, keep_alive
        elif path == "/stats":
            payload, status = app.stats_payload(), 200
        else:
            payload = {
                "error": self._unknown_path(path),
                "status": 404,
            }
            status = 404
        await self._write_json(writer, status, payload, keep_alive)
        return status, keep_alive

    async def _handle_post(
        self,
        path: str,
        headers: dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> tuple[int, bool]:
        if path == "/solve":
            body = await self._read_body(headers, reader)
            record = await asyncio.get_running_loop().run_in_executor(
                self._executor, self.app.solve_record, body
            )
            await self._write_json(writer, 200, record, keep_alive)
            return 200, keep_alive
        if path == "/batch":
            live = await self._handle_batch(
                headers, reader, writer, keep_alive
            )
            return 200, live
        # Unknown POST path: the body was not read, so the connection
        # must close after the error (keep-alive would parse the unread
        # body as the next request line).
        await self._write_json(
            writer,
            404,
            {"error": self._unknown_path(path), "status": 404},
            keep_alive=False,
        )
        return 404, False

    @staticmethod
    def _unknown_path(path: str) -> str:
        return (
            f"unknown path {path!r}; endpoints: GET /algos, GET /healthz, "
            "GET /metrics, GET /stats, POST /solve, POST /batch"
        )

    # ------------------------------------------------------------------
    async def _handle_batch(
        self,
        headers: dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        app = self.app
        body = await self._read_body(headers, reader)
        loop = asyncio.get_running_loop()
        # Validation (possibly a 64 MiB JSONL parse) runs off-loop; a
        # RequestError propagates through the future to _dispatch.
        tasks = await loop.run_in_executor(
            self._executor, app.parse_batch, body
        )
        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Server: {_SERVER_NAME}\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            + ("" if keep_alive else "Connection: close\r\n")
            + "\r\n"
        )
        writer.write(head.encode("ascii"))
        bridge = _BatchBridge(loop, app.batch_buffer)
        producer = threading.Thread(
            target=_produce_batch,
            args=(app, tasks, bridge),
            daemon=True,
            name="repro-batch-producer",
        )
        producer.start()
        stall = app.write_stall_timeout
        try:
            while True:
                result = await bridge.get()
                if result is None:
                    break
                data = (
                    json.dumps(result.to_record(), sort_keys=True) + "\n"
                ).encode("utf-8")
                writer.write(
                    f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"
                )
                # The whole point of streaming: deliver now — and let a
                # full transport buffer (slow reader) suspend us here,
                # bounded by the write-stall budget.
                await self._drain(writer, stall)
            writer.write(b"0\r\n\r\n")
            await self._drain(writer, stall)
            return keep_alive
        except _CONNECTION_GONE:
            # The client went away mid-stream (or stalled past the write
            # budget).  Not a server error: cancelling the bridge stops
            # the producer, whose stream close cancels undispatched
            # tasks, kills leased workers and commits the batch
            # counters.  Drop the connection quietly.
            return False
        finally:
            bridge.cancel()

    # ------------------------------------------------------------------
    # Body / response plumbing
    # ------------------------------------------------------------------
    async def _read_body(
        self, headers: dict[str, str], reader: asyncio.StreamReader
    ) -> bytes:
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            raise RequestError(
                "missing or malformed Content-Length header",
                status=411,
                close=True,
            ) from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise RequestError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit",
                status=413,
                close=True,
            )
        try:
            return await asyncio.wait_for(
                reader.readexactly(length), timeout=_BODY_SECONDS
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            raise RequestError(
                "request body ended early", status=400, close=True
            ) from None

    @staticmethod
    async def _drain(
        writer: asyncio.StreamWriter, timeout: float | None
    ) -> None:
        if timeout is None:
            await writer.drain()
        else:
            await asyncio.wait_for(writer.drain(), timeout=timeout)

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        await self._write_raw(
            writer, status, "application/json", body, keep_alive
        )

    async def _write_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
        keep_alive: bool,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Server: {_SERVER_NAME}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if not keep_alive:
            head += "Connection: close\r\n"
        head += "\r\n"
        writer.write(head.encode("ascii") + body)
        await self._drain(writer, self.app.write_stall_timeout)

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[{_SERVER_NAME}] {message}", flush=True)

    def _log_request(self, method: str, path: str, status: int) -> None:
        if self.verbose:
            print(f'[{_SERVER_NAME}] "{method} {path}" {status}',
                  flush=True)


def create_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    default_backend: str | None = None,
    default_timeout: float | None = None,
    verbose: bool = False,
    write_stall_timeout: float | None = DEFAULT_WRITE_STALL_SECONDS,
    batch_buffer: int = DEFAULT_BATCH_BUFFER,
    max_connections: int | None = None,
    warm_pool: bool = False,
    idle_ttl: float | None = None,
    keepalive_timeout: float = _KEEPALIVE_SECONDS,
) -> ReproAsyncServer:
    """Build a ready-to-run server (``port=0`` picks an ephemeral port)."""
    app = ServeApp(
        jobs=jobs,
        cache=cache,
        default_backend=default_backend,
        default_timeout=default_timeout,
        write_stall_timeout=write_stall_timeout,
        batch_buffer=batch_buffer,
        warm_pool=warm_pool,
        idle_ttl=idle_ttl,
    )
    return ReproAsyncServer(
        (host, port),
        app,
        verbose=verbose,
        max_connections=max_connections,
        keepalive_timeout=keepalive_timeout,
    )
