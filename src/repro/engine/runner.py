"""`BatchRunner` — shard a stream of solve tasks across a worker pool.

Design points:

* **Deterministic ordering** — results come back in task order no
  matter which worker finished first, so parallel and serial runs of
  the same task list produce identical records (modulo timings).
* **Incremental delivery** — :meth:`BatchRunner.run_stream` yields each
  result the moment it *and all its predecessors* are done, instead of
  holding finished work hostage to the slowest task in a batch.
  :meth:`BatchRunner.run` is simply the fully-collected stream.
* **One worker pool** — every parallel stream runs on the runner's
  pool of dedicated worker processes, each served over its own pipe and
  leased to one stream at a time.  The workers belong to the runner,
  not to a single call: successive ``run`` / ``run_stream`` calls reuse
  warm workers instead of re-spawning interpreters per wave.  Use the
  runner as a context manager (or call :meth:`close`) to release them
  deterministically.
* **Cache first** — tasks whose content digest is already in the
  :class:`~repro.engine.cache.ResultCache` never reach the pool.
* **Graceful failure** — a solver error becomes a ``TaskResult`` with
  ``ok=False`` (annotated with digest and seed by the worker); it never
  kills the batch.  A worker killed out-of-band (OOM killer, segfault)
  costs only the task it held: that task gets a positioned failure
  result, a fresh worker replaces the dead one, and every other task
  runs as usual.
* **Hard timeouts** — the parent knows which task each worker holds
  and since when, and terminates and replaces any worker that overruns
  its task's budget (``SIGALRM`` cannot interrupt a solver stuck inside
  HiGHS C code; killing the process can).  The task gets a ``timeout``
  result and the batch continues on a fresh worker.
* **One scheduling core** — digest dedupe, the ordered merge and
  sticky structure affinity (a ``structure_group`` chain stays on one
  worker process) are :mod:`repro.engine.dispatch`, shared with the
  multi-host fabric; this module keeps worker leases, the watchdog,
  cache I/O and trace folding.
* **Clean interrupt** — Ctrl-C while a stream waits on its workers
  kills every worker still holding one of its tasks before the
  ``KeyboardInterrupt`` propagates, so no worker grinds on behind it;
  idle workers go back to the pool, and :meth:`close` stops them.

Thread safety: concurrent ``run_stream`` calls from different threads
(the serving front end does this) share the pool safely — workers are
leased from a shared idle list under a condition variable, so a worker
serves one stream at a time.  Every stream carries its own
:class:`StreamStats` (exposed as ``ResultStream.stats``), so concurrent
streams never trample each other's counters.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as connection_wait
from typing import Iterator, Sequence

from ..obs import REGISTRY as OBS
from .cache import ResultCache
from .dispatch import AffinityQueue, DedupePlan, ResultStream, reanchor
from .workers import Task, TaskResult, execute_task, failure_result, worker_loop

__all__ = ["BatchRunner", "PRIORITY_URGENT", "StreamStats"]

_TASKS = OBS.counter(
    "repro_tasks_total",
    "Tasks completed, by terminal status",
    ("status",),
)
_TASK_SECONDS = OBS.histogram(
    "repro_task_seconds",
    "End-to-end task latency (worker solve, excluding queue wait)",
    ("backend", "algorithm"),
)
_QUEUE_WAIT = OBS.histogram(
    "repro_queue_wait_seconds",
    "Time tasks spent queued before dispatch to a worker",
)
_QUEUE_DEPTH = OBS.gauge(
    "repro_queue_depth",
    "Tasks queued and not yet dispatched, across all live streams",
)
_STREAMS = OBS.gauge(
    "repro_streams_in_flight",
    "run_stream calls currently active",
)
_STREAM_HITS = OBS.counter(
    "repro_stream_cache_hits_total",
    "Task results served from the result cache or in-run dedupe",
)
_LEASES = OBS.counter(
    "repro_pool_leases_total",
    "Watchdog workers leased to streams",
)
_STEALS = OBS.counter(
    "repro_pool_steals_total",
    "Structure-affine tasks stolen by a worker outside their group",
)
_KILLS = OBS.counter(
    "repro_watchdog_kills_total",
    "Worker processes terminated by the deadline watchdog",
)
_WARMUPS = OBS.counter(
    "repro_pool_warmups_total",
    "Watchdog workers pre-spawned by warm-up (before any request)",
)
_REAPED = OBS.counter(
    "repro_pool_reaped_total",
    "Idle watchdog workers reaped by the idle-TTL reaper",
)

#: ``run_stream(..., priority=PRIORITY_URGENT)`` marks a stream as
#: latency-sensitive: urgent acquirers take freed workers ahead of bulk
#: streams, and a bulk stream sheds one worker to a waiting urgent
#: stream at its next task completion.  The serving layer uses this for
#: ``/solve`` so a one-task request never queues behind a large
#: ``/batch`` for a worker lease.
PRIORITY_URGENT = 1


class StreamStats:
    """Counters and timing state owned by one ``run_stream`` call.

    Each stream gets its own instance, so two streams running
    concurrently (the serving front end) cannot trample each other's
    counts.  All methods are called from the single thread consuming
    the stream; only the process-wide gauges they update are shared.
    """

    def __init__(self, total: int) -> None:
        #: Total number of tasks this stream was asked to produce.
        self.total = total
        #: Results served from the cache or by in-run digest dedupe.
        self.cache_hits = 0
        #: Workers the deadline watchdog killed on this stream's behalf.
        self.watchdog_kills = 0
        #: Results that came back ``ok=False``.
        self.failures = 0
        #: Results that went through a worker (not cache) and finished.
        self.completed = 0
        self._lookup: dict[int, float] = {}   # pos -> cache-lookup secs
        self._enqueued: dict[int, float] = {}  # pos -> enqueue perf time
        self._waits: dict[int, float] = {}     # pos -> queue-wait secs
        self._killed: set[int] = set()
        self._open = False
        self._finished = False

    # -- planning/runtime hooks (single consumer thread) ----------------
    def record_lookup(self, pos: int, dur: float) -> None:
        self._lookup[pos] = dur

    def record_hit(self) -> None:
        self.cache_hits += 1
        _STREAM_HITS.inc()
        _TASKS.labels(status="cached").inc()

    def enqueue(self, pos: int) -> None:
        self._enqueued[pos] = time.perf_counter()
        _QUEUE_DEPTH.inc()

    def dispatch(self, pos: int) -> None:
        start = self._enqueued.pop(pos, None)
        if start is None:
            return
        self._waits[pos] = wait = time.perf_counter() - start
        _QUEUE_WAIT.observe(wait)
        _QUEUE_DEPTH.dec()

    def record_kill(self, pos: int) -> None:
        self.watchdog_kills += 1
        self._killed.add(pos)
        _KILLS.inc()

    def was_killed(self, pos: int) -> bool:
        return pos in self._killed

    def take_wait(self, pos: int) -> float | None:
        return self._waits.pop(pos, None)

    def take_lookup(self, pos: int) -> float | None:
        return self._lookup.pop(pos, None)

    # -- lifecycle -------------------------------------------------------
    def open(self) -> None:
        if not self._open:
            self._open = True
            _STREAMS.inc()

    def finish(self) -> None:
        """Settle the process-wide gauges; idempotent."""
        if self._finished:
            return
        self._finished = True
        for _ in self._enqueued:
            _QUEUE_DEPTH.dec()
        self._enqueued.clear()
        if self._open:
            _STREAMS.dec()

    def as_dict(self) -> dict[str, int]:
        return {
            "total": self.total,
            "cache_hits": self.cache_hits,
            "completed": self.completed,
            "failures": self.failures,
            "watchdog_kills": self.watchdog_kills,
        }


@dataclass
class _WatchdogWorker:
    """One dedicated worker process plus its in-flight task bookkeeping."""

    proc: mp.process.BaseProcess
    conn: object  # parent end of the pipe
    pos: int = -1
    task: Task | None = None
    started: float = field(default=0.0)
    deadline: float | None = None
    #: Monotonic time this worker was returned to the idle pool; the
    #: idle-TTL reaper compares against it.
    idle_since: float = field(default=0.0)

    @classmethod
    def spawn(cls, ctx) -> "_WatchdogWorker":
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=worker_loop, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return cls(proc=proc, conn=parent_conn)

    def dispatch(self, pos: int, task: Task, grace: float) -> None:
        self.conn.send(task)
        self.pos = pos
        self.task = task
        self.started = time.monotonic()
        self.deadline = (
            self.started + task.timeout + grace
            if task.timeout is not None
            else None
        )

    def collect(self) -> TaskResult | None:
        """The worker's answer, or ``None`` when the process died."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def clear(self) -> None:
        self.pos, self.task, self.deadline = -1, None, None

    def replace(self, ctx) -> "_WatchdogWorker":
        """Kill this worker and hand back a fresh one."""
        self.kill()
        return _WatchdogWorker.spawn(ctx)

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=1.0)

    def shutdown(self) -> None:
        """Polite stop for idle workers; force-kill anything still busy."""
        if self.task is None and self.proc.is_alive():
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        self.kill()


class BatchRunner:
    """Run many solve tasks, optionally in parallel, with caching.

    Parameters
    ----------
    jobs:
        Worker-process count; ``1`` runs everything in-process (useful
        for debugging and required for solvers registered only in the
        current process).
    cache:
        Optional result cache consulted before dispatch and updated
        with every successful result.
    watchdog_grace:
        Extra seconds the parent allows past a task's ``timeout`` before
        terminating the worker — headroom for the in-worker ``SIGALRM``
        to fire first (it produces a cheaper, stack-annotated failure).
    idle_ttl:
        Reap watchdog workers that sit idle in the shared pool for this
        many seconds, so a quiet long-lived runner (a serving host)
        releases its worker processes instead of holding them forever.
        ``None`` (the default) keeps idle workers warm indefinitely —
        the historical behavior.  Reaped capacity is rebuilt lazily on
        the next lease (or explicitly via :meth:`warm_up`).

    Worker processes persist across calls; use the runner as a context
    manager (``with BatchRunner(jobs=4) as runner: ...``) or call
    :meth:`close` to release them.  A closed runner may be reused — the
    pool is rebuilt lazily on the next call.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        *,
        watchdog_grace: float = 1.0,
        idle_ttl: float | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if watchdog_grace < 0:
            raise ValueError(
                f"watchdog_grace must be >= 0, got {watchdog_grace}"
            )
        if idle_ttl is not None and idle_ttl <= 0:
            raise ValueError(f"idle_ttl must be > 0, got {idle_ttl}")
        self.jobs = jobs
        self.cache = cache
        self.watchdog_grace = watchdog_grace
        self.idle_ttl = idle_ttl
        # Persistent watchdog workers, leased to streams: ``_wd_idle``
        # holds workers not currently owned by any stream, ``_wd_total``
        # counts every live worker (idle + leased) against ``jobs``,
        # ``_wd_waiters`` counts streams blocked for a worker (holders
        # shed one to them per completion — fairness), ``_wd_open``
        # flips off in :meth:`close` so late releases from in-flight
        # streams shut workers down instead of re-pooling them.
        # ``_wd_urgent_waiters`` is the second level of the lease queue:
        # while an urgent stream waits, bulk acquirers leave idle
        # workers alone and bulk holders shed one at their next task
        # completion, so a ``/solve``-sized stream gets a worker within
        # roughly one task duration of a busy ``/batch``.
        self._wd_cond = threading.Condition()
        self._wd_idle: list[_WatchdogWorker] = []
        self._wd_total = 0
        self._wd_waiters = 0
        self._wd_urgent_waiters = 0
        self._wd_open = True
        self._reaper: threading.Thread | None = None
        self._reaper_stop: threading.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the persistent worker pool.

        Safe to call repeatedly; the runner remains usable afterwards
        (the pool is rebuilt lazily).  Workers leased to a stream that is
        still being consumed are released by that stream's own cleanup,
        not here.
        """
        with self._wd_cond:
            reaper_stop, self._reaper_stop = self._reaper_stop, None
            self._reaper = None
            idle, self._wd_idle = self._wd_idle, []
            self._wd_total -= len(idle)
            # Workers still leased to a draining stream are not in the
            # idle list; the closed flag makes their eventual release
            # shut them down rather than re-pool them on a closed
            # runner.  The next acquire reopens the pool.
            self._wd_open = False
            self._wd_cond.notify_all()
        if reaper_stop is not None:
            reaper_stop.set()
        for worker in idle:
            worker.shutdown()

    # ------------------------------------------------------------------
    # Pool warm-up and idle-TTL reaping
    # ------------------------------------------------------------------
    def warm_up(self, count: int | None = None) -> int:
        """Pre-spawn watchdog workers so the first request pays no spawn cost.

        Spawns up to ``count`` (default ``jobs``) workers into the
        shared idle pool, counting existing workers against the target;
        answers the number actually spawned.  ``jobs=1`` runners solve
        in-process and never use the pool, so warm-up is a no-op there.
        """
        if self.jobs <= 1:
            return 0
        want = self.jobs if count is None else min(count, self.jobs)
        ctx = mp.get_context()
        with self._wd_cond:
            self._wd_open = True
            reserve = max(0, want - self._wd_total)
            self._wd_total += reserve
        spawned: list[_WatchdogWorker] = []
        try:
            for _ in range(reserve):
                spawned.append(_WatchdogWorker.spawn(ctx))
        except BaseException:
            with self._wd_cond:
                self._wd_total -= reserve - len(spawned)
                self._wd_cond.notify_all()
            self._wd_release(spawned)
            raise
        self._wd_release(spawned)
        if spawned:
            _WARMUPS.inc(len(spawned))
        return len(spawned)

    def _ensure_reaper(self) -> None:
        """Start the idle-TTL reaper thread if configured and not running."""
        if self.idle_ttl is None:
            return
        with self._wd_cond:
            if not self._wd_open:
                return
            if self._reaper is not None and self._reaper.is_alive():
                return
            stop = threading.Event()
            self._reaper_stop = stop
            self._reaper = threading.Thread(
                target=self._reap_loop,
                args=(stop,),
                daemon=True,
                name="repro-pool-reaper",
            )
            self._reaper.start()

    def _reap_loop(self, stop: threading.Event) -> None:
        """Shut down idle watchdog workers whose TTL has lapsed."""
        ttl = self.idle_ttl
        interval = max(0.05, min(ttl / 2.0, 1.0))
        while not stop.wait(interval):
            now = time.monotonic()
            with self._wd_cond:
                if not self._wd_open:
                    continue
                keep = [
                    w for w in self._wd_idle
                    if now - w.idle_since < ttl
                ]
                reap = [
                    w for w in self._wd_idle
                    if now - w.idle_since >= ttl
                ]
                if reap:
                    self._wd_idle = keep
                    self._wd_total -= len(reap)
                    self._wd_cond.notify_all()
            for worker in reap:
                worker.shutdown()
            if reap:
                _REAPED.inc(len(reap))

    # ------------------------------------------------------------------
    def run(
        self, tasks: Sequence[Task], *, priority: int = 0
    ) -> list[TaskResult]:
        """Execute ``tasks`` and return results in task order.

        Tasks sharing a content digest are solved once per run: the
        first occurrence executes, later ones reuse its result (marked
        ``cached``) even when no :class:`ResultCache` is configured.
        """
        return list(self.run_stream(tasks, priority=priority))

    def run_stream(
        self, tasks: Sequence[Task], *, priority: int = 0
    ) -> ResultStream:
        """Yield results for ``tasks`` in task order, incrementally.

        Each result is yielded the moment it and every earlier task's
        result is known — one slow task delays its successors' *yield*
        but never their execution, and everything before it streams out
        immediately.  Shares all of :meth:`run`'s semantics: cache-first
        lookup, one solve per digest per run with ``cached`` reuse,
        failure retry for duplicates, watchdog timeouts, and exactly one
        result per task.

        Planning (cache lookups, dedupe) happens eagerly at call time;
        execution starts when iteration does.  Closing the iterator
        early cancels tasks that have not been dispatched and discards
        in-flight work.

        The stream is pull-driven: watchdog deadline kills for in-flight
        tasks are processed while the consumer iterates, so a consumer
        that stops pulling defers them until it resumes or closes the
        stream (the serving layer bounds this with a write-stall timeout
        that closes the stream).

        The returned :class:`ResultStream` exposes per-stream counters
        as ``.stats``.

        ``priority`` shapes watchdog-pool lease arbitration only:
        streams at :data:`PRIORITY_URGENT` (or above) take freed workers
        ahead of bulk (priority ``0``) streams, and a bulk stream
        holding workers sheds one to a waiting urgent stream at its next
        task completion.  It never reorders results within a stream.
        """
        tasks = list(tasks)
        stats = StreamStats(total=len(tasks))
        plan = DedupePlan(tasks)
        work = AffinityQueue(tasks, on_steal=_STEALS.inc)
        for pos in plan.admit(
            lambda pos, task: self._planned_hit(pos, task, stats)
        ):
            work.push(pos, tasks[pos])
            stats.enqueue(pos)
        stats.open()
        return ResultStream(
            self._stream(plan, work, stats, priority), stats, stats.finish
        )

    # ------------------------------------------------------------------
    def _stream(
        self,
        plan: DedupePlan,
        work: AffinityQueue,
        stats: StreamStats,
        priority: int = 0,
    ) -> Iterator[TaskResult]:
        """Drive a strategy's completion events through the ordered merge.

        The strategy generator yields ``(pos, result)`` events in
        completion order; each is folded, cached and stored in ``plan``,
        whose duplicates of a failure join ``work`` for a retry, and the
        finished prefix is yielded in task order.
        """
        events = self._pick_strategy(plan.tasks, work)(work, stats, priority)
        try:
            # Cache hits at the head of the list stream out immediately,
            # before the first solve completes.
            yield from plan.ready()
            for pos, result in events:
                result = self._finish_result(pos, result, stats)
                copies, retry = plan.store(pos, result)
                self._cache_store(result)
                for _ in range(copies):
                    stats.record_hit()
                for dup in retry:
                    work.push(dup, plan.tasks[dup])
                    stats.enqueue(dup)
                yield from plan.ready()
        finally:
            events.close()
            stats.finish()
        # A strategy lost track of a task (worker died in a way no
        # handler caught): positioned failures, never dropped slots.
        yield from plan.seal()

    def _planned_hit(
        self, pos: int, task: Task, stats: StreamStats
    ) -> TaskResult | None:
        """The cache's answer for ``task`` at planning time, or ``None``.

        The lookup is timed either way: a hit carries it as its only
        trace span, a miss keeps it for the span list of its solve.
        """
        started = time.perf_counter()
        record = None if self.cache is None else self.cache.get(task.digest)
        hit = None if record is None else reanchor(
            TaskResult.from_record(record), task
        )
        lookup = time.perf_counter() - started
        if hit is None:
            stats.record_lookup(pos, lookup)
            return None
        stats.record_hit()
        hit.metrics["trace"] = {
            "labels": {"algorithm": hit.algorithm, "cached": True},
            "spans": [{"name": "cache_lookup", "dur": round(lookup, 6)}],
        }
        return hit

    @staticmethod
    def _finish_result(
        pos: int, result: TaskResult, stats: StreamStats
    ) -> TaskResult:
        """Account one completed solve and fold parent-side trace spans.

        The worker only knows about the ``solving`` span; the parent
        owns the queue, so ``cache_lookup`` / ``queued`` / ``total``
        (and the ``watchdog_kill`` label) are merged here, where the
        result comes home.
        """
        wait = stats.take_wait(pos)
        lookup = stats.take_lookup(pos)
        killed = stats.was_killed(pos)
        stats.completed += 1
        if not result.ok:
            stats.failures += 1

        metrics = dict(result.metrics)
        payload = metrics.get("trace") or {}
        labels = dict(payload.get("labels") or {})
        labels.setdefault("algorithm", result.algorithm)
        labels["watchdog_kill"] = killed
        spans: list[dict] = []
        if lookup is not None:
            spans.append({"name": "cache_lookup", "dur": round(lookup, 6)})
        if wait is not None:
            spans.append({"name": "queued", "dur": round(wait, 6)})
        spans.extend(payload.get("spans") or ())
        spans.append({
            "name": "total",
            "dur": round(result.elapsed + (wait or 0.0) + (lookup or 0.0), 6),
        })
        metrics["trace"] = {"labels": labels, "spans": spans}

        if killed:
            status = "killed"
        elif result.ok:
            status = "ok"
        elif result.error and "timed out" in result.error:
            status = "timeout"
        else:
            status = "error"
        _TASKS.labels(status=status).inc()
        _TASK_SECONDS.labels(
            backend=metrics.get("backend", "none"),
            algorithm=result.algorithm,
        ).observe(result.elapsed)
        return replace(result, metrics=metrics)

    def _pick_strategy(
        self, tasks: Sequence[Task], work: AffinityQueue
    ):
        """Choose the execution strategy for one stream.

        jobs=1 stays in-process by contract (solvers registered only in
        this process), so its timeouts remain soft.  Otherwise a stream
        runs on the worker pool when it has more than one pending task
        — or any deadline at all: the serial path's SIGALRM cannot
        interrupt a solver stuck in native code, so even one deadlined
        task needs a worker the parent can kill.  The deadline scan
        covers the *full* task list, not just the initial work queue: a
        duplicate position carries its own ``timeout`` (the digest
        excludes it), and its failure retry joins the queue mid-stream
        — it must find the pool already in charge, or its hard deadline
        would silently degrade to a soft one.  A single pending task
        without any deadline runs in-process: leasing a worker for it
        would cost more than the solve.
        """
        if self.jobs > 1 and (
            len(work) > 1 or any(t.timeout is not None for t in tasks)
        ):
            return self._stream_watchdog
        return self._stream_serial

    # ------------------------------------------------------------------
    # Serial strategy (jobs=1, or a single pending task)
    # ------------------------------------------------------------------
    def _stream_serial(
        self,
        work: AffinityQueue,
        stats: StreamStats,
        priority: int = 0,
    ) -> Iterator[tuple[int, TaskResult]]:
        while work:
            pos, task = work.popleft()
            stats.dispatch(pos)
            yield pos, execute_task(task)

    # ------------------------------------------------------------------
    # Worker pool (jobs > 1: several pending tasks, or any deadline)
    # ------------------------------------------------------------------
    def _stream_watchdog(
        self,
        work: AffinityQueue,
        stats: StreamStats,
        priority: int = 0,
    ) -> Iterator[tuple[int, TaskResult]]:
        """Run tasks on leased dedicated workers, killing any that overrun.

        Each worker owns one pipe and one task at a time, so the parent
        always knows which task a worker holds and since when.  On
        overrun (or worker death) the task gets a failure result, the
        process is terminated, and a replacement worker is spawned.

        Workers are leased from the runner-wide pool (capacity
        ``jobs``), so concurrent streams share capacity instead of
        over-spawning; idle workers are returned as soon as this stream
        has no queued work left for them.

        Dispatch is sticky for structure-grouped tasks
        (:meth:`AffinityQueue.take`): a group prefers the worker it
        last ran on while this stream still holds that worker, and an
        idle worker steals rather than waits.
        """
        ctx = mp.get_context()
        held: list[_WatchdogWorker] = []

        def live(owner: _WatchdogWorker) -> bool:
            return any(owner is w for w in held)

        try:
            while True:
                busy = [w for w in held if w.task is not None]
                if not work and not busy:
                    break
                urgent_waiting = (
                    priority < PRIORITY_URGENT
                    and self._wd_urgent_waiters > 0
                )
                if (len(held) > 1 and self._wd_waiters > 0) or (
                    urgent_waiting and held
                ):
                    # Fairness: another stream is blocked for a worker
                    # while this one holds several — shed one idle
                    # worker per round so a concurrent deadlined /solve
                    # is not pinned behind this whole batch.  An urgent
                    # waiter (a /solve behind a large /batch) is owed a
                    # worker even by a single-worker bulk holder: the
                    # urgent stream's task is short and priority-tagged
                    # acquisition hands the worker straight back.
                    idle = next(
                        (w for w in held if w.task is None), None
                    )
                    if idle is not None:
                        held.remove(idle)
                        self._wd_release([idle])
                if work:
                    need = min(self.jobs, len(busy) + len(work)) - len(held)
                    # Never grow while other streams at this stream's
                    # level (or above) are starved — we would snatch
                    # back the worker just shed to them.  Urgent streams
                    # only defer to other urgent waiters; an
                    # empty-handed stream still block-acquires its one
                    # guaranteed worker.
                    blocking_waiters = (
                        self._wd_waiters
                        if priority < PRIORITY_URGENT
                        else self._wd_urgent_waiters
                    )
                    if need > 0 and (not held or blocking_waiters == 0):
                        held.extend(
                            self._wd_acquire(
                                need, block=not held, priority=priority
                            )
                        )
                    for i, worker in enumerate(held):
                        if worker.task is not None or not work:
                            continue
                        pos, task = work.take(worker, live)
                        stats.dispatch(pos)
                        try:
                            worker.dispatch(pos, task, self.watchdog_grace)
                        except (BrokenPipeError, OSError):
                            # Worker died while idle: one fresh worker
                            # gets one retry, then the task is failed.
                            held[i] = worker = worker.replace(ctx)
                            try:
                                worker.dispatch(
                                    pos, task, self.watchdog_grace
                                )
                            except (BrokenPipeError, OSError):
                                yield pos, failure_result(
                                    task, "could not dispatch to worker", 0.0
                                )
                    busy = [w for w in held if w.task is not None]
                if not work:
                    # Tail of the stream: hand surplus idle workers back
                    # so a concurrent stream is not starved while we
                    # wait on our last in-flight tasks.
                    idle = [w for w in held if w.task is None]
                    if idle:
                        held = [w for w in held if w.task is not None]
                        self._wd_release(idle)
                if not busy:
                    continue  # nothing in flight; re-check work
                now = time.monotonic()
                wait_for = min(
                    (w.deadline - now for w in busy if w.deadline is not None),
                    default=None,
                )
                ready = connection_wait(
                    [w.conn for w in busy],
                    timeout=None if wait_for is None else max(wait_for, 0.0),
                )
                now = time.monotonic()
                for worker in busy:
                    if worker.conn in ready:
                        result = worker.collect()
                        pos = worker.pos
                        if result is None:  # worker died mid-task
                            result = failure_result(
                                worker.task,
                                "worker process died (killed or crashed)",
                                now - worker.started,
                            )
                            held[held.index(worker)] = worker.replace(ctx)
                        else:
                            worker.clear()
                        yield pos, result
                    elif (
                        worker.deadline is not None and now > worker.deadline
                    ):
                        pos, task = worker.pos, worker.task
                        elapsed = now - worker.started
                        stats.record_kill(pos)
                        held[held.index(worker)] = worker.replace(ctx)
                        yield pos, failure_result(
                            task,
                            f"timed out after {task.timeout:g}s "
                            "(worker terminated by watchdog)",
                            elapsed,
                        )
        finally:
            # Busy workers hold tasks whose results nobody will collect
            # (abandoned stream / interrupt): kill them rather than
            # return a mid-solve worker to the shared pool.
            for worker in held:
                if worker.task is not None:
                    self._wd_discard(worker)
            self._wd_release([w for w in held if w.task is None])

    def _wd_acquire(
        self, want: int, *, block: bool, priority: int = 0
    ) -> list[_WatchdogWorker]:
        """Lease up to ``want`` workers from the shared watchdog pool.

        Reuses idle workers first, spawns new ones while the runner-wide
        count stays under ``jobs``.  With ``block=True`` (a stream that
        holds no worker yet) waits until at least one is available so
        every stream is guaranteed forward progress.

        The lease queue is two-level: while any urgent stream waits,
        bulk (``priority=0``) acquirers pass over the idle list — the
        freed worker goes to the urgent waiter, not back to the bulk
        stream that just shed it.  Bulk streams may still *spawn* under
        capacity (an urgent stream only waits once capacity is full, so
        the two never compete for a spawn slot).
        """
        ctx = mp.get_context()
        acquired: list[_WatchdogWorker] = []
        while True:
            with self._wd_cond:
                self._wd_open = True
                while (
                    self._wd_idle
                    and len(acquired) < want
                    and (
                        priority >= PRIORITY_URGENT
                        or self._wd_urgent_waiters == 0
                    )
                ):
                    acquired.append(self._wd_idle.pop())
                reserve = max(
                    0, min(want - len(acquired), self.jobs - self._wd_total)
                )
                self._wd_total += reserve
            # Spawn outside the lock (process startup is slow) against a
            # reserved slot count; a failed spawn must roll its unspawned
            # reservations back or the capacity slot would leak forever —
            # enough leaks and every acquire(block=True) deadlocks.
            spawned = 0
            try:
                while spawned < reserve:
                    acquired.append(_WatchdogWorker.spawn(ctx))
                    spawned += 1
            except BaseException:
                with self._wd_cond:
                    self._wd_total -= reserve - spawned
                    self._wd_cond.notify_all()
                self._wd_release(acquired)
                raise
            if acquired or not block:
                if acquired:
                    _LEASES.inc(len(acquired))
                return acquired
            with self._wd_cond:
                # Advertise that this stream is starved so current
                # holders shed a worker at their next completion; urgent
                # waiters are advertised separately so bulk streams both
                # shed to them and stand aside at the idle list.  The
                # registration stays held across wake-ups *and* the
                # re-check — deregistering between a wake-up and the
                # idle-list look would open a window for a bulk acquirer
                # to slip past a woken urgent waiter.
                self._wd_waiters += 1
                if priority >= PRIORITY_URGENT:
                    self._wd_urgent_waiters += 1
                try:
                    while True:
                        if self._wd_idle and (
                            priority >= PRIORITY_URGENT
                            or self._wd_urgent_waiters == 0
                        ):
                            acquired.append(self._wd_idle.pop())
                            break
                        if self._wd_total < self.jobs:
                            break  # capacity freed: spawn via the top
                        self._wd_cond.wait(timeout=0.05)
                finally:
                    self._wd_waiters -= 1
                    if priority >= PRIORITY_URGENT:
                        self._wd_urgent_waiters -= 1
            if acquired:
                _LEASES.inc(len(acquired))
                return acquired

    def _wd_release(self, workers: list[_WatchdogWorker]) -> None:
        """Return leased workers to the idle pool.

        Dead workers are dropped, and on a closed runner the workers are
        shut down instead of re-pooled — a stream that was still
        draining when :meth:`close` ran must not resurrect the pool.
        """
        if not workers:
            return
        shutdown: list[_WatchdogWorker] = []
        pooled = False
        now = time.monotonic()
        with self._wd_cond:
            for worker in workers:
                if not self._wd_open or not worker.proc.is_alive():
                    self._wd_total -= 1
                    shutdown.append(worker)
                else:
                    worker.idle_since = now
                    self._wd_idle.append(worker)
                    pooled = True
            self._wd_cond.notify_all()
        for worker in shutdown:
            worker.shutdown()
        if pooled:
            self._ensure_reaper()

    def _wd_discard(self, worker: _WatchdogWorker) -> None:
        """Kill a leased worker and free its capacity slot."""
        worker.kill()
        with self._wd_cond:
            self._wd_total -= 1
            self._wd_cond.notify_all()

    # ------------------------------------------------------------------
    def _cache_store(self, result: TaskResult) -> None:
        # Failures are not cached: a timeout or transient error should be
        # retried on the next run rather than pinned forever.
        if self.cache is not None and result.ok:
            record = result.to_record()
            # The trace describes one specific execution (queue waits,
            # this process's pool) — replaying it on a future cache hit
            # would be a lie, so cached records carry no trace.
            metrics = dict(record.get("metrics") or {})
            metrics.pop("trace", None)
            record["metrics"] = metrics
            self.cache.put(result.digest, record)
