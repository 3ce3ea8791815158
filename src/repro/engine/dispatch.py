"""One run's scheduling state, shared by both executors.

:class:`~repro.engine.runner.BatchRunner` and
:class:`~repro.fabric.RemoteDispatcher` schedule a run the same way,
and this module is the only implementation of it:
:class:`DedupePlan` (digest dedupe, duplicate fan-out or retry, the
ordered merge and sealing of lost slots) and :class:`ResultStream`
(the iterator both hand back).  Both queue the positions to solve in a
plain deque and always take its head, so tasks are dispatched in task
order (a re-queued task joins the back).  The executors keep only
what is theirs: the runner its worker leases, watchdog, cache I/O and
trace folding; the fabric its windows, probes, retries and blackout
rule.  Nothing here locks: the runner drives it from its one consumer
thread, the fabric under its run lock.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterator, Sequence

from .workers import Task, TaskResult, failure_result

__all__ = ["DedupePlan", "ResultStream", "reanchor"]


def reanchor(result: TaskResult, task: Task) -> TaskResult:
    """A reused result re-anchored to this task's position/provenance.

    ``metrics`` is copied (and the original's trace dropped) so the
    reused record never aliases the original's dict — a consumer
    mutating one must not corrupt the other, and the original's
    queue/solve spans describe *its* execution, not this reuse.
    """
    metrics = dict(result.metrics)
    metrics.pop("trace", None)
    return replace(
        result, index=task.index, metrics=metrics, cached=True,
        meta=task.meta or result.meta,
    )


class DedupePlan:
    """One run's results by task position: dedupe, fan-out, ordered merge.

    ``reuse(result, task)`` builds a duplicate's copy of a successful
    result (default :func:`reanchor`).
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        reuse: Callable[[TaskResult, Task], TaskResult] = reanchor,
    ) -> None:
        self.tasks = tasks
        self._results: list[TaskResult | None] = [None] * len(tasks)
        #: Positions already handed out by :meth:`ready` or :meth:`seal`.
        self.emitted = 0
        self._reuse = reuse
        self._unresolved = len(tasks)
        self._dups: dict[int, list[int]] = {}  # first position -> later ones

    @property
    def done(self) -> bool:
        """Whether every position holds a result."""
        return self._unresolved == 0

    def admit(
        self, lookup: Callable[[int, Task], TaskResult | None] | None = None
    ) -> Iterator[int]:
        """Yield, in task order, the positions that must be solved.

        ``lookup(pos, task)`` may answer a position up front (a cache
        hit).  Of the rest only the first position of each digest is
        yielded; the later ones wait for its result.  Exhaust the
        iterator before storing any solved result.
        """
        first_by_digest: dict[str, int] = {}
        for pos, task in enumerate(self.tasks):
            hit = lookup(pos, task) if lookup is not None else None
            if hit is not None:
                self._fill(pos, hit)
                continue
            first = first_by_digest.setdefault(task.digest, pos)
            if first == pos:
                yield pos
            else:
                self._dups.setdefault(first, []).append(pos)

    def store(self, pos: int, result: TaskResult) -> tuple[int, list[int]]:
        """Take the solved result for ``pos`` and settle its duplicates.

        Answers ``(copies, retry)``: a success fills every duplicate
        with a copy; a failure fills none and lists them in ``retry``
        for the caller to queue.
        """
        self._fill(pos, result)
        dups = self._dups.pop(pos, [])
        if not result.ok:
            return 0, dups
        for dup in dups:
            self._fill(dup, self._reuse(result, self.tasks[dup]))
        return len(dups), []

    def ready(self) -> list[TaskResult]:
        """Pop the finished prefix: every result up to the first gap."""
        start = end = self.emitted
        while end < len(self._results) and self._results[end] is not None:
            end += 1
        self.emitted = end
        return self._results[start:end]

    def seal(self) -> list[TaskResult]:
        """Pop every remaining slot, an empty one as a positioned failure.

        A slot can only be empty here if the executor lost track of its
        task (e.g. a worker died in a way no handler caught); the task
        gets a visible ``ok=False`` record at its own position rather
        than being dropped and shifting its neighbours.
        """
        sealed = [
            result if result is not None else failure_result(
                self.tasks[pos],
                "runner produced no result for this task "
                "(worker lost without a recorded failure)",
                0.0,
            )
            for pos, result in enumerate(
                self._results[self.emitted:], self.emitted
            )
        ]
        self.emitted = len(self._results)
        return sealed

    def _fill(self, pos: int, result: TaskResult) -> None:
        if self._results[pos] is not None:
            raise RuntimeError(
                f"execution strategy produced a second result for task "
                f"position {pos}; results would be misaligned"
            )
        self._results[pos] = result
        self._unresolved -= 1


class ResultStream:
    """Iterator over one run's task-ordered results, carrying its stats.

    ``stream.stats`` is safe to read while the run is live and
    authoritative once it ends.  :meth:`close` abandons the run and then
    calls ``on_close`` — even for a stream that never started.
    """

    def __init__(
        self,
        gen: Iterator[TaskResult],
        stats: Any,
        on_close: Callable[[], None],
    ) -> None:
        self._gen = gen
        self.stats = stats
        self._on_close = on_close

    def __iter__(self) -> "ResultStream":
        return self

    def __next__(self) -> TaskResult:
        return next(self._gen)

    def close(self) -> None:
        try:
            self._gen.close()
        finally:
            self._on_close()

    def __del__(self) -> None:  # abandoned without close(): settle state
        try:
            self.close()
        except Exception:
            pass
