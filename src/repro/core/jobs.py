"""Job and instance model for active-time and busy-time scheduling.

The paper (Chang, Khuller, Mukherjee; SPAA 2014) works with jobs that have a
release time ``r_j``, a deadline ``d_j`` and a processing length ``p_j``.

Two regimes share this model:

* **Active time** (Section 2/3 of the paper): time is slotted, all parameters
  are integral, and slot ``t`` denotes the unit of time ``[t-1, t)``.  Job
  ``j`` may be scheduled in slots ``{r_j + 1, ..., d_j}``.
* **Busy time** (Section 4): time is continuous, parameters may be real
  numbers, and jobs are scheduled non-preemptively at a start time
  ``s_j in [r_j, d_j - p_j]``.

A job with ``d_j - r_j == p_j`` is an *interval job* (Definition 8): its start
time is forced, so it occupies exactly ``[r_j, d_j)``.  All other jobs are
*flexible*.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

__all__ = ["Job", "Instance", "TIME_EPS"]

#: Tolerance used for all comparisons of real-valued times.  Gadgets in the
#: paper use arbitrarily small ``eps`` separations; callers should keep their
#: own epsilons a few orders of magnitude above this resolution.
TIME_EPS = 1e-9


@dataclass(frozen=True, order=True, slots=True)
class Job:
    """A single job with a release time, deadline and processing length.

    Parameters
    ----------
    release:
        Earliest time at which the job may start (``r_j``).
    deadline:
        Time by which the job must complete (``d_j``).
    length:
        Required processing time (``p_j``); must be positive and fit inside
        the window ``[release, deadline)``.
    id:
        Numeric identifier, unique within an :class:`Instance`.
    label:
        Optional human-readable tag (used by the paper-gadget generators to
        mark job roles such as ``"rigid"`` or ``"flexible"``).
    """

    release: float
    deadline: float
    length: float
    id: int = 0
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"job {self.id}: length must be positive, got {self.length}")
        if self.deadline - self.release < self.length - TIME_EPS:
            raise ValueError(
                f"job {self.id}: window [{self.release}, {self.deadline}) "
                f"cannot fit length {self.length}"
            )

    def __reduce__(self):
        # Pickle as a constructor call: without it a slotted dataclass
        # pickles through dataclasses' Python-level ``__getstate__``, which
        # is slower and larger.
        return (
            type(self),
            (self.release, self.deadline, self.length, self.id, self.label),
        )

    # ------------------------------------------------------------------
    # Window geometry
    # ------------------------------------------------------------------
    @property
    def window(self) -> tuple[float, float]:
        """The half-open availability window ``[r_j, d_j)``."""
        return (self.release, self.deadline)

    @property
    def window_length(self) -> float:
        """Length of the availability window, ``d_j - r_j``."""
        return self.deadline - self.release

    @property
    def slack(self) -> float:
        """Scheduling freedom ``(d_j - r_j) - p_j`` (zero for interval jobs)."""
        return self.window_length - self.length

    @property
    def is_interval(self) -> bool:
        """True when the window is exactly as long as the job (Definition 8)."""
        return abs(self.slack) <= TIME_EPS

    @property
    def is_unit(self) -> bool:
        """True when the processing length is one time unit."""
        return abs(self.length - 1.0) <= TIME_EPS

    # ------------------------------------------------------------------
    # Slotted (active-time) view.  Slot ``t`` is the interval [t-1, t).
    # ------------------------------------------------------------------
    def feasible_slots(self) -> range:
        """Slots in which a unit of this job may run: ``{r_j+1, ..., d_j}``.

        Only meaningful for integral instances (active-time model).
        """
        r, d = self.integral_window()
        return range(r + 1, d + 1)

    def integral_window(self) -> tuple[int, int]:
        """Return ``(r_j, d_j)`` as integers, raising if they are not integral."""
        r, d = self.release, self.deadline
        if abs(r - round(r)) > TIME_EPS or abs(d - round(d)) > TIME_EPS:
            raise ValueError(f"job {self.id}: window [{r}, {d}) is not integral")
        return int(round(r)), int(round(d))

    def integral_length(self) -> int:
        """Return ``p_j`` as an integer, raising if it is not integral."""
        if abs(self.length - round(self.length)) > TIME_EPS:
            raise ValueError(f"job {self.id}: length {self.length} is not integral")
        return int(round(self.length))

    def is_live_in_slot(self, t: int) -> bool:
        """Definition 1: job ``j`` is live at slot ``t`` iff ``t in [r_j+1, d_j]``."""
        r, d = self.integral_window()
        return r + 1 <= t <= d

    # ------------------------------------------------------------------
    # Continuous (busy-time) view
    # ------------------------------------------------------------------
    def is_live_at(self, t: float) -> bool:
        """True when ``t`` lies in the window ``[r_j, d_j)``."""
        return self.release - TIME_EPS <= t < self.deadline - TIME_EPS

    def can_start_at(self, s: float) -> bool:
        """True when starting at ``s`` respects both release time and deadline."""
        return (
            s >= self.release - TIME_EPS
            and s + self.length <= self.deadline + TIME_EPS
        )

    def as_interval_job(self, start: float) -> "Job":
        """Pin this job to start at ``start``, producing an interval job.

        This realizes the paper's conversion of a flexible instance into an
        interval instance after the unbounded-capacity placement step
        (Section 4.3): the release time and deadline are tightened so that the
        job must occupy exactly ``[start, start + p_j)``.
        """
        if not self.can_start_at(start):
            raise ValueError(
                f"job {self.id}: cannot start at {start} within window "
                f"[{self.release}, {self.deadline})"
            )
        return replace(self, release=start, deadline=start + self.length)

    def shifted(self, delta: float) -> "Job":
        """Return a copy with the whole window translated by ``delta``."""
        return replace(
            self, release=self.release + delta, deadline=self.deadline + delta
        )


@dataclass(frozen=True)
class Instance:
    """An immutable collection of jobs, the input to every algorithm here.

    Job ids are required to be unique; most constructors assign them
    automatically.  The instance exposes both the continuous-time quantities
    used by busy-time algorithms and the slotted quantities used by the
    active-time algorithms.  Neither it nor its jobs can change, so
    ``horizon`` and ``is_integral`` are computed once, on first use.
    """

    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        ids = [j.id for j in self.jobs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate job ids: {dupes}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls, triples: Iterable[tuple[float, float, float]]
    ) -> "Instance":
        """Build an instance from ``(release, deadline, length)`` triples.

        Ids are assigned in iteration order starting from zero.
        """
        return cls(
            tuple(
                Job(release=r, deadline=d, length=p, id=i)
                for i, (r, d, p) in enumerate(triples)
            )
        )

    @classmethod
    def from_intervals(
        cls, intervals: Iterable[tuple[float, float]]
    ) -> "Instance":
        """Build an instance of interval jobs from ``(start, end)`` pairs."""
        return cls(
            tuple(
                Job(release=a, deadline=b, length=b - a, id=i)
                for i, (a, b) in enumerate(intervals)
            )
        )

    # ------------------------------------------------------------------
    # Basic aggregates
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, idx: int) -> Job:
        return self.jobs[idx]

    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.jobs)

    @property
    def total_length(self) -> float:
        """Total processing mass ``P = sum_j p_j`` (written ``ℓ(J)`` in §4)."""
        return sum(j.length for j in self.jobs)

    @property
    def earliest_release(self) -> float:
        """``min_j r_j`` (paper WLOG normalizes this to 0)."""
        if not self.jobs:
            return 0.0
        return min(j.release for j in self.jobs)

    @property
    def latest_deadline(self) -> float:
        """``T = max_j d_j``, the latest relevant time."""
        if not self.jobs:
            return 0.0
        return max(j.deadline for j in self.jobs)

    @functools.cached_property
    def horizon(self) -> int:
        """Number of relevant slots ``T`` for an integral instance."""
        if not self.jobs:
            return 0
        t = self.latest_deadline
        if abs(t - round(t)) > TIME_EPS:
            raise ValueError("horizon requested on a non-integral instance")
        return int(round(t))

    # ------------------------------------------------------------------
    # Structure predicates
    # ------------------------------------------------------------------
    @property
    def all_interval(self) -> bool:
        """True when every job is an interval job (rigid start times)."""
        return all(j.is_interval for j in self.jobs)

    @property
    def all_unit(self) -> bool:
        """True when every job has unit length."""
        return all(j.is_unit for j in self.jobs)

    @functools.cached_property
    def is_integral(self) -> bool:
        """True when all releases, deadlines and lengths are integers."""

        def ok(x: float) -> bool:
            return abs(x - round(x)) <= TIME_EPS

        return all(
            ok(j.release) and ok(j.deadline) and ok(j.length) for j in self.jobs
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def job_by_id(self, job_id: int) -> Job:
        """Look up a job by id (raises ``KeyError`` when absent)."""
        for j in self.jobs:
            if j.id == job_id:
                return j
        raise KeyError(f"no job with id {job_id}")

    def without(self, ids: Iterable[int]) -> "Instance":
        """Drop the given job ids."""
        unwanted = set(ids)
        return Instance(tuple(j for j in self.jobs if j.id not in unwanted))

    def event_points(self) -> list[float]:
        """Sorted, de-duplicated list of all releases and deadlines."""
        pts = sorted({j.release for j in self.jobs} | {j.deadline for j in self.jobs})
        return pts

    def describe(self) -> str:
        """One-line human-readable summary (used by examples and reports)."""
        kinds = []
        if self.all_interval:
            kinds.append("interval")
        if self.all_unit:
            kinds.append("unit")
        if self.is_integral:
            kinds.append("integral")
        kind = ",".join(kinds) if kinds else "flexible"
        return (
            f"Instance(n={self.n}, P={self.total_length:g}, "
            f"span=[{self.earliest_release:g},{self.latest_deadline:g}), {kind})"
        )

