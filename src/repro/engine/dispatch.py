"""One run's scheduling state, shared by both executors.

:class:`~repro.engine.runner.BatchRunner` and
:class:`~repro.fabric.RemoteDispatcher` schedule a run the same way,
and this module is the only implementation of it:
:class:`DedupePlan` (digest dedupe, duplicate fan-out or retry, the
ordered merge and sealing of lost slots), :class:`AffinityQueue`
(sticky structure-group picks, O(1) while no group is bound) and
:class:`ResultStream` (the iterator both hand back).  The executors
keep only what is theirs: the runner its worker leases, watchdog,
cache I/O and trace folding; the fabric its windows, probes, retries
and blackout rule.  Nothing here locks: the runner drives it from its
one consumer thread, the fabric under its run lock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Callable, Deque, Iterator, Sequence

from .workers import Task, TaskResult, failure_result

__all__ = ["AffinityQueue", "DedupePlan", "ResultStream", "reanchor"]


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


class AffinityQueue:
    """Pending positions in task order, picked sticky by structure group.

    Entries are ``(pos, tag)``, the tag being the executor's own (the
    runner's task, the fabric's attempt count).  Taking a task of group
    ``tasks[pos].structure_group`` binds the group to the taker — a
    worker process or a host, compared by identity — so the rest of the
    chain prefers the owner whose resident-model cache holds it.
    ``on_steal`` is called when a pick takes another live owner's group.
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        on_steal: Callable[[], None] | None = None,
    ) -> None:
        self._tasks = tasks
        self._on_steal = on_steal
        self._pending: Deque[tuple[int, Any]] = deque()
        #: structure group -> the owner that last took one of its tasks.
        self.bound: dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, pos: int, tag: Any) -> None:
        self._pending.append((pos, tag))

    def popleft(self) -> tuple[int, Any]:
        """The head, in plain FIFO order (binds nothing)."""
        return self._pending.popleft()

    def take(
        self, owner: Any, live: Callable[[Any], bool]
    ) -> tuple[int, Any]:
        """Pop the best pending entry for ``owner`` and bind its group.

        Preference order: (1) a task whose group is bound to ``owner``
        — the warm-chain continuation; (2) the first task that has no
        group, or whose group is unbound or bound to an owner that is
        not ``live`` (a worker no longer held, a host that is down);
        (3) the head, stolen from its group's live owner.  (3) keeps
        placement work-conserving: affinity never idles an owner while
        work is queued.  The queue must be non-empty.

        While no group is bound nothing can match (1) and the head
        always qualifies for (2), so the head is popped without walking
        the queue — a pick stays O(1) for ungrouped runs.
        """
        pending = self._pending
        if not self.bound:
            pos, tag = pending.popleft()
        else:
            own: int | None = None
            fallback: int | None = None
            for i, (pos, _) in enumerate(pending):
                group = self._tasks[pos].structure_group
                if group is None:
                    if fallback is None:
                        fallback = i
                    continue
                bound = self.bound.get(group)
                if bound is owner:
                    own = i
                    break
                if fallback is None and (bound is None or not live(bound)):
                    fallback = i
            if own is None and fallback is None and self._on_steal is not None:
                self._on_steal()
            index = own if own is not None else (
                fallback if fallback is not None else 0
            )
            pos, tag = pending[index]
            del pending[index]
        group = self._tasks[pos].structure_group
        if group is not None:
            self.bound[group] = owner
        return pos, tag


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
