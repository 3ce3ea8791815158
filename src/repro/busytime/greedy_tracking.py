"""GREEDYTRACKING — the paper's 3-approximation (Algorithm 1, Theorem 5).

The algorithm iteratively extracts a maximum-length *track* (pairwise-disjoint
jobs, found exactly by weighted interval scheduling) from the remaining jobs
and assigns track ``i`` to bundle ``ceil(i / g)``: every bundle is the union
of ``g`` consecutive tracks, so at most ``g`` of its jobs overlap anywhere.

Analysis (Theorem 5): ``Sp(B_1) <= OPT_inf`` and, for ``i > 1``,
``Sp(B_i) <= 2 ℓ(B_{i-1}) / g`` via the *proper witness set* ``Q_i`` — a
subset of ``B_i`` with the same span in which at most two jobs are live at
any time.  That extraction is pure analysis, so it lives with the tests,
which check the structural lemma on random instances.
"""

from __future__ import annotations

from ..core.jobs import Instance, Job
from ..core.validation import require_capacity, require_interval_jobs
from .schedule import BusyTimeSchedule
from .tracks import longest_track

__all__ = ["greedy_tracking", "extract_tracks"]


def extract_tracks(instance: Instance) -> list[list[Job]]:
    """Peel maximum-length tracks until no jobs remain (Algorithm 1's loop)."""
    require_interval_jobs(instance, "GREEDYTRACKING")
    remaining: list[Job] = list(instance.jobs)
    tracks: list[list[Job]] = []
    while remaining:
        track = longest_track(remaining)
        if not track:  # pragma: no cover - defensive; every job is a track
            raise RuntimeError("no track found although jobs remain")
        tracks.append(track)
        chosen = {j.id for j in track}
        remaining = [j for j in remaining if j.id not in chosen]
    return tracks


def greedy_tracking(instance: Instance, g: int) -> BusyTimeSchedule:
    """Run GREEDYTRACKING on an interval instance (3-approximate overall).

    Returns a verified-shape :class:`BusyTimeSchedule`; bundle ``p`` holds
    tracks ``(p-1)g + 1 .. pg`` in extraction order.
    """
    require_interval_jobs(instance, "GREEDYTRACKING")
    require_capacity(g)
    tracks = extract_tracks(instance)
    groups: list[list[Job]] = []
    for i, track in enumerate(tracks):
        p = i // g
        if p == len(groups):
            groups.append([])
        groups[p].extend(track)
    return BusyTimeSchedule.from_bundle_jobs(instance, g, groups)

