"""Work-stealing remote dispatcher over many ``repro serve`` hosts.

:class:`RemoteDispatcher` turns N serving hosts into one sweep engine:
tasks go into a single global pending deque, every host runs a bounded
window of dispatch threads (the window sized from the capacity report
in ``GET /healthz``), and an idle host steals the next queued task the
moment a slot frees up — fast hosts naturally do more of the work, no
static sharding to mis-balance.  Results stream back merged **in task
order**, mirroring :meth:`repro.engine.runner.BatchRunner.run_stream`.

Failure semantics
-----------------
* A transport failure or 5xx answer (``ServeClientError`` with
  ``status == 0`` or ``>= 500``) re-queues the task for surviving hosts
  and marks the host *down*; one of its threads becomes the prober and
  re-checks ``/healthz`` on an exponential backoff (capped), so a
  bounced server rejoins the fabric automatically.
* A task that keeps failing in transport gives up after
  :data:`_MAX_TASK_ATTEMPTS` tries with an ``ok=False`` result — a
  sweep never hangs on a permanently dead fabric.  If *every* host
  stays down longer than :data:`_ALL_DOWN_GRACE` seconds, all
  still-queued tasks are failed the same way.
* 4xx answers are deterministic validation errors: they become
  ``ok=False`` results immediately, never retries.

Dedupe and the ordered merge are the engine's own scheduling core
(:mod:`repro.engine.dispatch`), so a task list gets the same records
here as from the local runner.  Duplicate tasks within one run are
dispatched once and their results fanned out locally (``cached=True``,
without the original's trace; the copy still names the host that solved
the original), and a task re-dispatched after a host loss is served
from the surviving host's cache if any host solved it before — the
digest is the same everywhere.  Every window thread takes the head of
the queue, as the local pool's workers do, and a re-queued task joins
the back.  This module keeps only windows, probes, retries and the
blackout rule.

Instrumented with :mod:`repro.obs`: per-host dispatched / completed /
retried counters, in-flight and host-up gauges, and a per-host task
latency histogram (all labeled ``host``), visible on any ``/metrics``
endpoint rendered from this process and digested under ``"fabric"`` in
``GET /stats``.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Sequence

from ..engine.dispatch import DedupePlan, ResultStream, reanchor
from ..engine.workers import Task, TaskResult, failure_result
from ..obs import REGISTRY as OBS
from ..serve.client import ServeClient, ServeClientError, task_request

__all__ = [
    "FabricStats",
    "HostStats",
    "RemoteDispatcher",
    "normalize_hosts",
    "task_payload",
]

_DISPATCHED = OBS.counter(
    "repro_fabric_dispatched_total",
    "Tasks dispatched to a remote host (including re-dispatches)",
    ("host",),
)
_COMPLETED = OBS.counter(
    "repro_fabric_completed_total",
    "Task results received from a remote host",
    ("host",),
)
_RETRIED = OBS.counter(
    "repro_fabric_retried_total",
    "Tasks re-queued after a transport failure or 5xx on a host",
    ("host",),
)
_IN_FLIGHT = OBS.gauge(
    "repro_fabric_in_flight",
    "Requests currently in flight to a remote host",
    ("host",),
)
_HOST_UP = OBS.gauge(
    "repro_fabric_host_up",
    "1 while the dispatcher considers the host healthy, else 0",
    ("host",),
)
_TASK_SECONDS = OBS.histogram(
    "repro_fabric_task_seconds",
    "Round-trip latency of one remote solve (dispatch to result)",
    ("host",),
)
_PROBES = OBS.counter(
    "repro_fabric_probes_total",
    "Health re-probes of a down host, by outcome",
    ("host", "outcome"),
)

#: Largest per-host window a ``/healthz`` capacity report can size.
_MAX_WINDOW = 8
#: Transport-failure budget per task before it is failed locally.
_MAX_TASK_ATTEMPTS = 6
#: Exponential backoff schedule (seconds) for re-probing a down host's
#: ``/healthz``: the first delay, and the cap it doubles up to.
_PROBE_BASE = 0.25
_PROBE_CAP = 5.0
#: Once *every* host has been down for this many consecutive seconds,
#: still-queued tasks are failed instead of waiting for a fabric that
#: may never return.
_ALL_DOWN_GRACE = 300.0


def normalize_hosts(spec: str | Sequence[str]) -> list[str]:
    """``"host1:8977,host2:9000"`` (or a sequence) → base URLs.

    Bare ``host:port`` entries get ``http://``; a bare hostname gets the
    default serve port.  Duplicates are rejected — two windows onto one
    host would silently double its intended load.
    """
    from ..serve.server import DEFAULT_PORT

    if isinstance(spec, str):
        entries = [part.strip() for part in spec.split(",")]
    else:
        entries = [str(part).strip() for part in spec]
    urls: list[str] = []
    for entry in entries:
        if not entry:
            continue
        if "://" not in entry:
            entry = "http://" + entry
        if entry.count(":") == 1:  # scheme only, no port
            entry = f"{entry}:{DEFAULT_PORT}"
        url = entry.rstrip("/")
        if url in urls:
            raise ValueError(f"duplicate fabric host {url!r}")
        urls.append(url)
    if not urls:
        raise ValueError("no fabric hosts given")
    return urls


def task_payload(task: Task) -> dict[str, Any]:
    """The wire-format object for one engine :class:`Task`.

    The ``backend`` pin inside ``task.params`` moves to the wire-level
    ``backend`` field: the server folds an *explicit* request back into
    the solver params verbatim, so the server-side digest equals
    ``task.digest`` and cross-host cache dedupe actually keys on the
    same content address the local engine uses.  (Left inside
    ``params``, the server's own default-backend resolution would
    override it.)
    """
    params = dict(task.params)
    backend = params.pop("backend", None)
    return task_request(
        task.instance,
        task.problem,
        task.g,
        algorithm=task.algorithm,
        params=params,
        backend=backend,
        timeout=task.timeout,
        meta=task.meta,
    )


@dataclass
class HostStats:
    """One host's view of a fabric run (mirrors the labeled metrics)."""

    url: str
    window: int = 1
    dispatched: int = 0
    completed: int = 0
    retried: int = 0
    probes: int = 0
    up: bool = True


class FabricStats:
    """Counters owned by one dispatcher run (all under the run's lock)."""

    def __init__(self, total: int) -> None:
        self.total = total
        #: Results fanned out locally from an identical task's result.
        self.dedup_hits = 0
        #: Results received from hosts (including failures the server
        #: reported as ``ok=False`` records).
        self.completed = 0
        #: Re-queues after transport failures / 5xx, fabric-wide.
        self.retried = 0
        #: Tasks failed locally (attempts exhausted or fabric down).
        self.gave_up = 0
        self.hosts: dict[str, HostStats] = {}


class _Host:
    """Runtime state for one remote host within a run."""

    def __init__(self, url: str, client: Any, window: int) -> None:
        self.url = url
        #: Metric label: host:port without the scheme noise.
        self.label = url.split("://", 1)[-1]
        self.client = client
        self.window = window
        self.down = False
        self.probing = False


def _reuse(result: TaskResult, task: Task) -> TaskResult:
    """A dedupe copy: the engine's, still naming the solving host."""
    copy = reanchor(result, task)
    return replace(
        copy, meta=dict(copy.meta, fabric_host=result.meta["fabric_host"])
    )


class _Run:
    """Shared mutable state of one dispatch run (guarded by ``cond``)."""

    def __init__(self, tasks: Sequence[Task]) -> None:
        self.tasks = list(tasks)
        self.payloads = [task_payload(t) for t in self.tasks]
        self.plan = DedupePlan(self.tasks, reuse=_reuse)
        self.queue: deque[tuple[int, int]] = deque(  # (pos, attempt)
            (pos, 0) for pos in self.plan.admit()
        )
        self.cond = threading.Condition()
        self.closed = threading.Event()
        self.stats = FabricStats(total=len(self.tasks))
        #: Wall-clock instant every host went down (None while any is up).
        self.all_down_since: float | None = None

    @property
    def finished(self) -> bool:
        return self.plan.done or self.closed.is_set()

    def close(self) -> None:
        """Stop the window threads (undispatched work is dropped)."""
        self.closed.set()
        with self.cond:
            self.cond.notify_all()


class RemoteDispatcher:
    """Shard task batches across many ``repro serve`` hosts.

    Parameters
    ----------
    hosts:
        Host list — a ``"host:port,host:port"`` string or a sequence of
        base URLs (see :func:`normalize_hosts`).
    window:
        Fixed per-host in-flight window; ``None`` (default) sizes each
        host's window from the ``jobs`` capacity field of its
        ``/healthz`` answer, clamped to :data:`_MAX_WINDOW`.
    http_timeout:
        Per-request socket timeout handed to each host's client.
    client_factory:
        ``(base_url, *, http_timeout, get_retries) -> client`` hook so
        tests can inject fakes; defaults to :class:`ServeClient`.
    """

    def __init__(
        self,
        hosts: str | Sequence[str],
        *,
        window: int | None = None,
        http_timeout: float = 300.0,
        client_factory: Callable[..., Any] = ServeClient,
    ) -> None:
        self.urls = normalize_hosts(hosts)
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.http_timeout = http_timeout
        # Keep-alive probes must not mask a down host behind long
        # client-internal retry loops — the dispatcher owns retry policy.
        self._clients = [
            client_factory(url, http_timeout=http_timeout, get_retries=1)
            for url in self.urls
        ]
        #: Stats of the most recent :meth:`run_stream` call — still
        #: readable after the stream is consumed (the CLI's per-host
        #: report uses this).
        self.last_stats: FabricStats | None = None

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task]) -> list[TaskResult]:
        """Execute ``tasks`` across the fabric; results in task order."""
        return list(self.run_stream(tasks))

    def run_stream(self, tasks: Sequence[Task]) -> ResultStream:
        """Yield results for ``tasks`` in task order, incrementally.

        Mirrors :meth:`BatchRunner.run_stream`: each result is yielded
        the moment it and every predecessor is known; duplicate digests
        are dispatched once per run; closing the stream abandons
        undispatched work.
        """
        run = _Run(tasks)
        self.last_stats = run.stats
        hosts = self._plan_hosts(run)
        threads: list[threading.Thread] = []
        if run.queue:
            for host in hosts:
                for slot in range(host.window):
                    thread = threading.Thread(
                        target=self._worker,
                        args=(run, host),
                        name=f"fabric-{host.label}-{slot}",
                        daemon=True,
                    )
                    thread.start()
                    threads.append(thread)
        return ResultStream(self._merge(run, threads), run.stats, run.close)

    # ------------------------------------------------------------------
    def _plan_hosts(self, run: _Run) -> list[_Host]:
        """Probe every host's capacity and build runtime host state.

        A host whose first probe fails still joins the fabric — down,
        window 1 — and the re-probe loop brings it in once it answers.
        """
        hosts: list[_Host] = []
        for url, client in zip(self.urls, self._clients):
            window = self.window
            down = False
            if window is None:
                try:
                    health = client.health()
                    capacity = int(health.get("jobs") or 1)
                    window = max(1, min(_MAX_WINDOW, capacity))
                except (ServeClientError, ValueError, TypeError):
                    window, down = 1, True
                finally:
                    # Window threads open their own connections.
                    client.close()
            host = _Host(url, client, window)
            host.down = down
            hosts.append(host)
            run.stats.hosts[host.label] = HostStats(
                url=url, window=window, up=not down
            )
            _HOST_UP.labels(host=host.label).set(0.0 if down else 1.0)
        if all(h.down for h in hosts):
            run.all_down_since = time.monotonic()
        return hosts

    # ------------------------------------------------------------------
    # Worker threads (window slots)
    # ------------------------------------------------------------------
    def _worker(self, run: _Run, host: _Host) -> None:
        try:
            while True:
                item: tuple[int, int] | None = None
                probe = False
                with run.cond:
                    while True:
                        if run.finished:
                            return
                        if host.down:
                            if not host.probing:
                                host.probing = True
                                probe = True
                                break
                            run.cond.wait(0.2)
                            continue
                        if not run.queue:
                            run.cond.wait(0.2)
                            continue
                        item = run.queue.popleft()
                        break
                if probe:
                    try:
                        self._probe(run, host)
                    finally:
                        with run.cond:
                            host.probing = False
                            run.cond.notify_all()
                elif item is not None:
                    self._dispatch(run, host, *item)
        finally:
            host.client.close()  # this thread's keep-alive connection

    def _dispatch(
        self, run: _Run, host: _Host, pos: int, attempt: int
    ) -> None:
        """One remote solve attempt; classify the outcome under the lock."""
        task = run.tasks[pos]
        label = host.label
        _DISPATCHED.labels(host=label).inc()
        _IN_FLIGHT.labels(host=label).inc()
        with run.cond:
            run.stats.hosts[label].dispatched += 1
        start = time.perf_counter()
        try:
            result = host.client.solve_payload(run.payloads[pos])
        except ServeClientError as exc:
            elapsed = time.perf_counter() - start
            if exc.transient:
                self._host_failure(run, host, pos, attempt, exc)
            else:
                # Deterministic rejection (4xx): retrying cannot help.
                self._deliver(
                    run,
                    pos,
                    failure_result(
                        task,
                        f"rejected by {host.url} "
                        f"(HTTP {exc.status}): {exc}",
                        elapsed,
                    ),
                )
        except KeyboardInterrupt:
            # Worker thread: an interrupt must kill the dispatch loop,
            # not masquerade as one task's remote failure.
            raise
        except Exception as exc:  # client bug / unexpected payload shape
            self._deliver(
                run,
                pos,
                failure_result(
                    task,
                    f"fabric client error talking to {host.url}: "
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - start,
                ),
            )
        else:
            elapsed = time.perf_counter() - start
            _COMPLETED.labels(host=label).inc()
            _TASK_SECONDS.labels(host=label).observe(elapsed)
            with run.cond:
                run.stats.hosts[label].completed += 1
                run.stats.completed += 1
            self._deliver(run, pos, self._localize(result, task, host))
        finally:
            _IN_FLIGHT.labels(host=label).dec()

    def _host_failure(
        self,
        run: _Run,
        host: _Host,
        pos: int,
        attempt: int,
        exc: ServeClientError,
    ) -> None:
        """Transport failure / 5xx: mark the host down, re-queue the task."""
        label = host.label
        _RETRIED.labels(host=label).inc()
        with run.cond:
            if not host.down:
                host.down = True
                run.stats.hosts[label].up = False
                _HOST_UP.labels(host=label).set(0.0)
                # Fabric-wide blackout clock: starts when the *last*
                # host goes dark, cleared by any successful probe.
                if run.all_down_since is None and all(
                    h.up is False for h in run.stats.hosts.values()
                ):
                    run.all_down_since = time.monotonic()
            run.stats.retried += 1
            run.stats.hosts[label].retried += 1
            attempts = attempt + 1
            if attempts >= _MAX_TASK_ATTEMPTS:
                run.stats.gave_up += 1
                self._deliver_locked(
                    run,
                    pos,
                    failure_result(
                        run.tasks[pos],
                        f"gave up after {attempts} transport failures "
                        f"(last: {host.url}: {exc})",
                        0.0,
                    ),
                )
            else:
                run.queue.append((pos, attempts))
            run.cond.notify_all()

    def _probe(self, run: _Run, host: _Host) -> None:
        """Re-probe a down host with exponential backoff until it answers.

        Runs outside the lock on one of the host's own window threads;
        returns when the host is back up, the run finished, or the
        stream was closed.
        """
        delay = _PROBE_BASE
        while True:
            wait = delay * (0.5 + 0.5 * random.random())
            if run.closed.wait(timeout=wait):
                return
            with run.cond:
                if run.finished:
                    return
                run.stats.hosts[host.label].probes += 1
            try:
                host.client.health()
            except ServeClientError:
                _PROBES.labels(host=host.label, outcome="down").inc()
                delay = min(delay * 2, _PROBE_CAP)
                continue
            _PROBES.labels(host=host.label, outcome="up").inc()
            with run.cond:
                host.down = False
                run.stats.hosts[host.label].up = True
                _HOST_UP.labels(host=host.label).set(1.0)
                run.all_down_since = None
                run.cond.notify_all()
            return

    # ------------------------------------------------------------------
    # Result delivery + ordered merge
    # ------------------------------------------------------------------
    @staticmethod
    def _localize(result: TaskResult, task: Task, host: _Host) -> TaskResult:
        """A remote result re-anchored to the local task's slot.

        The server answered with its own ``index`` (0 for ``/solve``);
        position and provenance belong to this run.  The serving host
        rides along in ``meta`` for post-hoc placement analysis.
        """
        meta = dict(task.meta or result.meta)
        meta["fabric_host"] = host.label
        return replace(result, index=task.index, meta=meta)

    def _deliver(self, run: _Run, pos: int, result: TaskResult) -> None:
        with run.cond:
            self._deliver_locked(run, pos, result)
            run.cond.notify_all()

    @staticmethod
    def _deliver_locked(run: _Run, pos: int, result: TaskResult) -> None:
        """Store one result in the plan, re-queueing the duplicates of a
        failure (lock held).

        A position is always queued, held by one window thread, or
        resolved, so no path delivers it twice.
        """
        copies, retry = run.plan.store(pos, result)
        run.stats.dedup_hits += copies
        for dup in retry:
            run.queue.append((dup, 0))

    def _merge(
        self, run: _Run, threads: list[threading.Thread]
    ) -> Iterator[TaskResult]:
        """Emit results in task order as each prefix completes."""
        try:
            while run.plan.emitted < len(run.tasks):
                with run.cond:
                    ready = run.plan.ready()
                    while not ready:
                        self._check_blackout(run)
                        run.cond.wait(0.25)
                        ready = run.plan.ready()
                yield from ready
        finally:
            run.close()
            for thread in threads:
                thread.join(timeout=0.5)

    def _check_blackout(self, run: _Run) -> None:
        """Fail queued work once every host has been down past the grace.

        Called with the lock held from the consumer's wait loop.  Tasks
        still in flight on a dying connection re-queue themselves via
        :meth:`_host_failure` and are swept up on a later check.
        """
        if run.all_down_since is None:
            return
        if time.monotonic() - run.all_down_since < _ALL_DOWN_GRACE:
            return
        while run.queue:
            pos, attempts = run.queue.popleft()
            run.stats.gave_up += 1
            self._deliver_locked(
                run,
                pos,
                failure_result(
                    run.tasks[pos],
                    f"every fabric host unreachable for "
                    f">{_ALL_DOWN_GRACE:g}s "
                    f"(task had {attempts} failed attempts)",
                    0.0,
                ),
            )
