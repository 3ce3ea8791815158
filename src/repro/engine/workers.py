"""Worker-side task execution for the batch engine.

Tasks carry names, not callables: the worker process re-resolves the
solver through :data:`repro.engine.registry.REGISTRY`, so nothing
unpicklable crosses the process boundary and spawned interpreters work
exactly like forked ones.

Per-task timeouts have two enforcement layers:

* ``SIGALRM`` (POSIX) inside the worker — cheap, but a signal only
  interrupts Python bytecode, so a solver deep inside a native call
  (e.g. the scipy/HiGHS MILP backend) overruns its budget until the
  interpreter regains control;
* the **parent-side watchdog** in :class:`~repro.engine.runner.BatchRunner`
  — workers run :func:`worker_loop` over a pipe, the parent tracks each
  task's deadline, and a worker that overruns (stuck in native code, or
  dead) is terminated and replaced, with a ``timeout`` result recorded
  for its task.

Every error is captured into the result record — annotated with the
task's content digest and seed so a failing instance can be regenerated
— instead of tearing down the pool.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..core.jobs import Instance
from ..obs import TaskTrace
from ..solvers.registry import capture_solves
from .cache import task_digest
from .registry import REGISTRY

__all__ = [
    "Task",
    "TaskResult",
    "TaskTimeout",
    "execute_task",
    "failure_result",
    "make_task",
    "worker_loop",
]


class TaskTimeout(Exception):
    """Raised inside a worker when a task exceeds its time budget."""


@dataclass(frozen=True)
class Task:
    """One solve request: an instance plus the solver coordinates.

    ``meta`` is free-form provenance (generator name, seed, source file)
    that is carried into the result record; it does not affect the
    content digest.
    """

    index: int
    problem: str
    algorithm: str
    g: int
    instance: Instance
    digest: str
    params: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    timeout: float | None = None

    @property
    def seed(self) -> Any:
        """The generator seed, if the task records one (for error context)."""
        return self.meta.get("seed", self.params.get("seed"))

    @property
    def structure_group(self) -> str | None:
        """Label of this task's model-structure family, if assigned.

        Sweep expansion tags tasks whose solves build (near-)identical
        LP/MILP structures (same generator family, size and algorithm);
        the runner keeps a group sticky to one worker process.  No
        backend keeps model state between solves, so this shapes
        placement only.  ``None`` means no affinity preference.
        """
        group = self.meta.get("structure_group")
        return group if isinstance(group, str) else None


def make_task(
    index: int,
    problem: str,
    algorithm: str,
    g: int,
    instance: Instance,
    *,
    params: dict[str, Any] | None = None,
    meta: dict[str, Any] | None = None,
    timeout: float | None = None,
) -> Task:
    """Build a :class:`Task`, computing its content digest."""
    params = dict(params or {})
    return Task(
        index=index,
        problem=problem,
        algorithm=algorithm,
        g=g,
        instance=instance,
        digest=task_digest(instance, problem, algorithm, g, params),
        params=params,
        meta=dict(meta or {}),
        timeout=timeout,
    )


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task: metrics on success, an error string otherwise."""

    index: int
    digest: str
    problem: str
    algorithm: str
    g: int
    n: int
    ok: bool
    objective: float | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    elapsed: float = 0.0
    cached: bool = False
    meta: dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> dict[str, Any]:
        """JSON-serializable form (for JSONL files and the cache)."""
        return {
            "index": self.index,
            "digest": self.digest,
            "problem": self.problem,
            "algorithm": self.algorithm,
            "g": self.g,
            "n": self.n,
            "ok": self.ok,
            "objective": self.objective,
            "metrics": self.metrics,
            "error": self.error,
            "elapsed": round(self.elapsed, 6),
            "cached": self.cached,
            "meta": self.meta,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "TaskResult":
        """Inverse of :meth:`to_record` (unknown keys are ignored)."""
        return cls(
            index=record["index"],
            digest=record["digest"],
            problem=record["problem"],
            algorithm=record["algorithm"],
            g=record["g"],
            n=record.get("n", 0),
            ok=record["ok"],
            objective=record.get("objective"),
            metrics=dict(record.get("metrics") or {}),
            error=record.get("error"),
            elapsed=float(record.get("elapsed", 0.0)),
            cached=bool(record.get("cached", False)),
            meta=dict(record.get("meta") or {}),
        )


@contextmanager
def _alarm(seconds: float | None) -> Iterator[None]:
    """Arm ``SIGALRM`` for ``seconds`` (no-op without support or budget)."""
    if not seconds or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _raise(signum, frame):  # pragma: no cover - exercised via timeout
        raise TaskTimeout(f"timed out after {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _error_context(task: Task) -> str:
    """Identify the failing task well enough to reproduce it."""
    seed = task.seed
    seed_part = f" seed={seed}" if seed is not None else ""
    return (
        f"task {task.digest[:12]} "
        f"({task.problem}/{task.algorithm}, g={task.g}, "
        f"n={task.instance.n}{seed_part})"
    )


def failure_result(
    task: Task,
    error: str,
    elapsed: float,
    *,
    trace: TaskTrace | None = None,
) -> TaskResult:
    """A failed :class:`TaskResult` for ``task`` with full error context.

    Used by the worker for in-process failures and by the parent-side
    watchdog for tasks whose worker had to be killed.  ``trace`` — when
    the caller has one — rides home in ``metrics["trace"]`` so failed
    tasks explain where their time went too.
    """
    metrics: dict[str, Any] = {}
    if trace is not None:
        metrics["trace"] = trace.to_payload()
    return TaskResult(
        index=task.index,
        digest=task.digest,
        problem=task.problem,
        algorithm=task.algorithm,
        g=task.g,
        n=task.instance.n,
        ok=False,
        metrics=metrics,
        error=f"{_error_context(task)}: {error}",
        elapsed=elapsed,
        meta=task.meta,
    )


def worker_loop(conn) -> None:
    """Child-process main for the watchdog pool: serve tasks over a pipe.

    Receives :class:`Task` objects, answers each with a
    :class:`TaskResult`; a ``None`` message (or a closed pipe) shuts the
    worker down.  Must stay importable at module top level so spawned
    interpreters can resolve it.

    Workers are long-lived (the runner keeps them across batches), so a
    parent that dies without running its close path must not strand
    them: sibling processes forked later inherit this pipe's write end,
    which keeps ``recv`` from ever seeing EOF — hence the explicit
    orphan check (``getppid`` flips to the reaper once the parent is
    gone) on every poll interval.
    """
    parent = os.getppid()
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != parent:
                    return  # orphaned: parent died without cleanup
                continue
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            conn.send(execute_task(task))
        except (BrokenPipeError, OSError):  # parent went away
            return


def execute_task(task: Task) -> TaskResult:
    """Run one task, capturing any failure into the result.

    This is the function shipped to worker processes; it must stay
    importable at module top level so it pickles by reference.
    ``KeyboardInterrupt`` is deliberately *not* captured — it must
    propagate so pool shutdown works.
    """
    trace = TaskTrace(
        algorithm=task.algorithm,
        problem=task.problem,
        structure_group=task.structure_group,
    )
    start = time.perf_counter()
    try:
        with _alarm(task.timeout), capture_solves() as solves:
            with trace.span("solving"):
                outcome = REGISTRY.solve(
                    task.problem,
                    task.algorithm,
                    task.instance,
                    task.g,
                    **task.params,
                )
    except KeyboardInterrupt:
        raise
    except TaskTimeout as exc:
        trace.label(status="timeout")
        return failure_result(
            task, str(exc), time.perf_counter() - start, trace=trace
        )
    except Exception as exc:
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        trace.label(status="error")
        return failure_result(
            task, detail, time.perf_counter() - start, trace=trace
        )
    metrics = dict(outcome.metrics)
    if solves:
        # A task may issue several backend solves (an LP relaxation,
        # then a MILP); it is labelled with the last backend used.
        metrics["backend"] = solves[-1]["backend"]
    trace.label(status="ok", backend=metrics.get("backend"))
    metrics["trace"] = trace.to_payload()
    return TaskResult(
        index=task.index,
        digest=task.digest,
        problem=task.problem,
        algorithm=task.algorithm,
        g=task.g,
        n=task.instance.n,
        ok=True,
        objective=outcome.objective,
        metrics=metrics,
        elapsed=time.perf_counter() - start,
        meta=task.meta,
    )

