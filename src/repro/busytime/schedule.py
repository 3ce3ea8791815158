"""Busy-time schedules: bundles of interval jobs, one machine per bundle.

Section 4: a feasible busy-time solution partitions the jobs into *bundles*
(groups); each bundle runs on its own machine, at most ``g`` of its jobs may
overlap at any instant, and the machine's busy time is the span of the union
of its jobs' intervals.  The objective is the cumulative busy time
``sum_k Sp(B_k)``.

For flexible jobs the schedule additionally records each job's chosen start
time; the bundle then holds the *pinned* interval jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.intervals import coverage_counts, merge_intervals, span
from ..core.jobs import TIME_EPS, Instance, Job

__all__ = ["Bundle", "BusyTimeSchedule", "BusyVerificationError"]


class BusyVerificationError(AssertionError):
    """Raised when a busy-time schedule violates a model constraint."""


@dataclass(frozen=True)
class Bundle:
    """A group of pinned (interval) jobs sharing one machine."""

    jobs: tuple[Job, ...]

    @property
    def busy_intervals(self) -> list[tuple[float, float]]:
        """The machine's busy periods: union of the jobs' intervals."""
        return merge_intervals(j.window for j in self.jobs)

    @property
    def busy_time(self) -> float:
        """``busy(M) = Sp(bundle)`` — the machine's contribution to the objective."""
        return span(j.window for j in self.jobs)

    @property
    def mass(self) -> float:
        """Total processing length ``ℓ(B)`` of the bundle."""
        return sum(j.length for j in self.jobs)

    def max_overlap(self) -> int:
        """Largest number of jobs simultaneously active on this machine."""
        cov = coverage_counts([j.window for j in self.jobs])
        return max((c for _, c in cov), default=0)

    def job_ids(self) -> list[int]:
        """Sorted ids of the member jobs."""
        return sorted(j.id for j in self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class BusyTimeSchedule:
    """A complete busy-time solution.

    Attributes
    ----------
    instance:
        The *original* instance (possibly flexible).
    g:
        Per-machine parallelism bound.
    bundles:
        One bundle per machine; bundle jobs are pinned interval jobs whose
        ids refer back to ``instance``.
    starts:
        Chosen start time per job id (for interval jobs this equals the
        release time).
    """

    instance: Instance
    g: int
    bundles: tuple[Bundle, ...]
    starts: Mapping[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def total_busy_time(self) -> float:
        """The objective: cumulative busy time over all machines."""
        return sum(b.busy_time for b in self.bundles)

    @property
    def num_machines(self) -> int:
        """Number of (used) machines."""
        return len(self.bundles)

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check all busy-time constraints; raises :class:`BusyVerificationError`.

        * every job of the instance appears in exactly one bundle;
        * each pinned copy has the original length and lies inside the
          original window (release/deadline respected, non-preemptive);
        * at most ``g`` jobs overlap at any instant within a bundle.
        """
        # reversed: the first job with an id wins, as in Instance.job_by_id
        originals = {j.id: j for j in reversed(self.instance.jobs)}
        seen: dict[int, int] = {}
        for k, bundle in enumerate(self.bundles):
            for pinned in bundle.jobs:
                if pinned.id in seen:
                    raise BusyVerificationError(
                        f"job {pinned.id} appears in bundles "
                        f"{seen[pinned.id]} and {k}"
                    )
                seen[pinned.id] = k
                original = originals.get(pinned.id)
                if original is None:
                    raise KeyError(f"no job with id {pinned.id}")
                if abs(pinned.length - original.length) > TIME_EPS:
                    raise BusyVerificationError(
                        f"job {pinned.id}: pinned length {pinned.length} != "
                        f"original {original.length}"
                    )
                if not pinned.is_interval:
                    raise BusyVerificationError(
                        f"job {pinned.id} in bundle {k} is not pinned to an "
                        "interval"
                    )
                if pinned.release < original.release - TIME_EPS or (
                    pinned.deadline > original.deadline + TIME_EPS
                ):
                    raise BusyVerificationError(
                        f"job {pinned.id}: interval [{pinned.release}, "
                        f"{pinned.deadline}) outside window "
                        f"[{original.release}, {original.deadline})"
                    )
            if bundle.max_overlap() > self.g:
                raise BusyVerificationError(
                    f"bundle {k} has {bundle.max_overlap()} simultaneous "
                    f"jobs, capacity is {self.g}"
                )
        missing = originals.keys() - seen.keys()
        if missing:
            raise BusyVerificationError(
                f"jobs never scheduled: {sorted(missing)}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_bundle_jobs(
        cls,
        instance: Instance,
        g: int,
        groups: Sequence[Sequence[Job]],
    ) -> "BusyTimeSchedule":
        """Build a schedule from groups of already-pinned jobs, each
        starting at its release."""
        bundles = tuple(Bundle(tuple(group)) for group in groups if group)
        starts = {j.id: j.release for b in bundles for j in b.jobs}
        return cls(instance=instance, g=g, bundles=bundles, starts=starts)
