"""The paper's explicit constructions, parametric in ``g`` and ``eps``.

Every worked figure and tightness example in the paper is regenerated here:

======================  =====================================================
:func:`figure1`         the 7-job, ``g=3`` packing example (Figure 1)
:func:`figure3`         minimal-feasible-vs-OPT gadget, ratio → 3 (Figure 3)
:func:`lp_gap`          the Section-3.5 LP integrality-gap family, gap → 2
:func:`figure6`         GREEDYTRACKING pipeline gadget, ratio → 3 (Fig. 6/7)
:func:`figure8`         interval 2-approx tightness, ratio → 2 (Figure 8)
:func:`figure9`         DP demand-profile gadget, profile ratio → 2 (Fig. 9)
:func:`figure10`        flexible 4-approx tightness family (Figures 10–12)
======================  =====================================================

Each returns a :class:`Gadget` carrying the instance, the capacity, closed
forms of the quantities the paper derives, and (where the figure involves an
adversarial dynamic-program placement or an adversarial minimal solution)
the explicit witness.  The test-suite checks every closed form against the
library's own solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.jobs import Instance, Job

__all__ = [
    "Gadget",
    "figure1",
    "figure3",
    "lp_gap",
    "figure6",
    "figure8",
    "figure9",
    "figure10",
]


@dataclass(frozen=True)
class Gadget:
    """A paper construction plus its analytical facts.

    Attributes
    ----------
    name:
        Which figure/section this reproduces.
    instance, g:
        The constructed input.
    facts:
        Closed-form quantities claimed by the paper (e.g. ``opt``,
        ``adversarial_cost``) — every entry is asserted by a test.
    witness:
        Optional adversarial artifacts: start-time placements
        (``starts``), adversarial slot sets (``slots``) etc.
    """

    name: str
    instance: Instance
    g: int
    facts: dict[str, float] = field(default_factory=dict)
    witness: dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Figure 1: the introductory packing example
# ----------------------------------------------------------------------
def figure1() -> Gadget:
    """Seven interval jobs, ``g = 3``, optimally packed on two machines.

    Coordinates are a faithful reconstruction of the figure's structure (the
    paper draws the jobs without numeric axes): the peak raw demand is 5, so
    with ``g = 3`` at least two machines must be busy over the middle of the
    horizon; the optimal busy time is 8, achieved by the two bundles drawn in
    Figure 1(B).
    """
    jobs = [
        Job(0, 4, 4, id=1),
        Job(0, 2, 2, id=2),
        Job(2, 4, 2, id=3),
        Job(0, 3, 3, id=4),
        Job(1, 4, 3, id=5),
        Job(0, 2, 2, id=6),
        Job(2, 4, 2, id=7),
    ]
    return Gadget(
        name="figure1",
        instance=Instance(tuple(jobs)),
        g=3,
        facts={"opt_busy_time": 8.0, "min_machines": 2},
        witness={"bundles": [[1, 2, 3], [4, 5, 6, 7]]},
    )


# ----------------------------------------------------------------------
# Figure 3: minimal feasible solutions can cost (almost) 3 OPT
# ----------------------------------------------------------------------
def figure3(g: int) -> Gadget:
    """The Theorem-1 tightness gadget (requires ``g >= 3``).

    * two jobs of length ``g`` with windows ``[0, 2g)`` and ``[g, 3g)``;
    * ``g - 2`` rigid jobs of length ``g - 2`` with window ``[g+1, 2g-1)``;
    * ``g - 2`` unit jobs with window ``[g+1, 2g)`` and ``g - 2`` with
      window ``[g, 2g-1)``.

    OPT opens the ``g`` slots of ``[g, 2g)``.  The adversarial minimal
    solution opens time ``[0, g) ∪ [g+1, 2g-1) ∪ [2g, 3g)`` (slots
    ``1..g``, ``g+2..2g-1`` and ``2g+1..3g``) for a cost of ``3g - 2``:
    the first long job at the start of its window, then the rigid block,
    then the second long job at the end of its window.  Closing any one
    of its slots leaves it infeasible (Definition 4).
    """
    if g < 3:
        raise ValueError("figure3 gadget needs g >= 3")
    jobs: list[Job] = [
        Job(0, 2 * g, g, id=0, label="long"),
        Job(g, 3 * g, g, id=1, label="long"),
    ]
    next_id = 2
    for _ in range(g - 2):
        jobs.append(Job(g + 1, 2 * g - 1, g - 2, id=next_id, label="rigid"))
        next_id += 1
    for _ in range(g - 2):
        jobs.append(Job(g + 1, 2 * g, 1, id=next_id, label="unitA"))
        next_id += 1
    for _ in range(g - 2):
        jobs.append(Job(g, 2 * g - 1, 1, id=next_id, label="unitB"))
        next_id += 1

    adversarial_slots = (
        list(range(1, g + 1))                # long job 1 over [0, g)
        + list(range(g + 2, 2 * g))          # rigid + unit block [g+1, 2g-1)
        + list(range(2 * g + 1, 3 * g + 1))  # long job 2 over [2g, 3g)
    )
    return Gadget(
        name="figure3",
        instance=Instance(tuple(jobs)),
        g=g,
        facts={
            "opt_active_time": float(g),
            "adversarial_cost": float(3 * g - 2),
            "ratio_limit": 3.0,
        },
        witness={"adversarial_slots": adversarial_slots},
    )


# ----------------------------------------------------------------------
# Section 3.5: LP integrality gap
# ----------------------------------------------------------------------
def lp_gap(g: int) -> Gadget:
    """The integrality-gap family: ``g`` slot pairs, ``g+1`` unit jobs each.

    Integral OPT opens all ``2g`` slots; the fractional optimum opens each
    pair to ``1 + 1/g``, for LP value ``g + 1``.  The gap ``2g / (g+1)``
    tends to 2.
    """
    if g < 1:
        raise ValueError("lp_gap gadget needs g >= 1")
    jobs: list[Job] = []
    next_id = 0
    for pair in range(g):
        a = 2 * pair
        for _ in range(g + 1):
            jobs.append(Job(a, a + 2, 1, id=next_id))
            next_id += 1
    return Gadget(
        name="lp_gap",
        instance=Instance(tuple(jobs)),
        g=g,
        facts={
            "ip_opt": float(2 * g),
            "lp_opt": float(g + 1),
            "gap_limit": 2.0,
        },
    )


# ----------------------------------------------------------------------
# Figures 6/7: GREEDYTRACKING tightness for the flexible pipeline
# ----------------------------------------------------------------------
def figure6(g: int, eps: float = 0.1) -> Gadget:
    """The factor-3 family for GREEDYTRACKING after the DP conversion.

    ``g`` disjoint blocks, each holding ``g`` unit interval jobs overlapping
    (by ``eps``) another ``g`` unit interval jobs, plus ``2g`` flexible jobs
    of length ``1 - eps/2`` whose windows span all blocks.

    * optimal busy time: ``2g + 2 - eps``;
    * adversarial DP placement (Figure 7): the flexible jobs sit two per
      block, straddling the block's overlap region, driving GREEDYTRACKING
      toward ``(6 - o(eps)) g``.
    """
    if g < 1:
        raise ValueError("figure6 gadget needs g >= 1")
    if not 0 < eps < 0.5:
        raise ValueError("figure6 needs 0 < eps < 0.5")
    spacing = 3.0
    jobs: list[Job] = []
    next_id = 0
    for k in range(g):
        o = k * spacing
        for _ in range(g):
            jobs.append(Job(o, o + 1.0, 1.0, id=next_id, label=f"A{k}"))
            next_id += 1
        for _ in range(g):
            jobs.append(
                Job(o + 1.0 - eps, o + 2.0 - eps, 1.0, id=next_id, label=f"B{k}")
            )
            next_id += 1
    horizon = (g - 1) * spacing + 2.0
    flex_len = 1.0 - eps / 2.0
    flex_ids = []
    for _ in range(2 * g):
        jobs.append(Job(0.0, horizon, flex_len, id=next_id, label="flex"))
        flex_ids.append(next_id)
        next_id += 1

    # Adversarial DP placement: two flexible jobs per block straddling the
    # overlap region [o + 1 - eps, o + 1).
    adversarial_starts = {}
    instance = Instance(tuple(jobs))
    for j in instance.jobs:
        if j.label != "flex":
            adversarial_starts[j.id] = j.release
    for idx, fid in enumerate(flex_ids):
        block = idx // 2
        adversarial_starts[fid] = block * spacing + 0.5

    # The paper's optimal packing: A-sets and B-sets each on one machine,
    # flexible jobs stacked at time 0 on two machines.
    optimal_starts = dict(adversarial_starts)
    for fid in flex_ids:
        optimal_starts[fid] = 0.0

    return Gadget(
        name="figure6",
        instance=instance,
        g=g,
        facts={
            "opt_busy_time": 2.0 * g + 2.0 - eps,
            "adversarial_limit": 6.0 * g,
            "ratio_limit": 3.0,
        },
        witness={
            "adversarial_starts": adversarial_starts,
            "optimal_starts": optimal_starts,
            "flex_ids": flex_ids,
        },
    )


# ----------------------------------------------------------------------
# Figure 8: tightness of the interval 2-approximations
# ----------------------------------------------------------------------
def figure8(eps: float = 0.2, eps_prime: float = 0.1) -> Gadget:
    """The ``g = 2`` family where KR/AB-style runs can pay ``2 + eps``.

    Jobs: two unit intervals ``[0, 1)``; one job of length ``eps`` at
    ``[1, 1+eps)``; one of length ``eps'`` at ``[1, 1+eps')``; one of length
    ``eps - eps'`` at ``[1+eps', 1+eps)``.  The optimum is ``1 + eps``; the
    adversarial bundling (splitting the unit jobs) pays ``2 + eps``.
    """
    if not 0 < eps_prime < eps < 1:
        raise ValueError("figure8 needs 0 < eps' < eps < 1")
    jobs = [
        Job(0.0, 1.0, 1.0, id=0),
        Job(0.0, 1.0, 1.0, id=1),
        Job(1.0, 1.0 + eps, eps, id=2),
        Job(1.0, 1.0 + eps_prime, eps_prime, id=3),
        Job(1.0 + eps_prime, 1.0 + eps, eps - eps_prime, id=4),
    ]
    return Gadget(
        name="figure8",
        instance=Instance(tuple(jobs)),
        g=2,
        facts={
            "opt_busy_time": 1.0 + eps,
            "adversarial_cost": 2.0 + eps,
            "ratio_limit": 2.0,
        },
        witness={"adversarial_bundles": [[0, 2], [1, 3, 4]]},
    )


# ----------------------------------------------------------------------
# Figure 9: the DP's demand profile can double the optimal profile
# ----------------------------------------------------------------------
def figure9(g: int, eps: float = 0.01) -> Gadget:
    """Lemma-7 tightness: DP placement vs optimal placement profiles.

    One unit interval job; ``g - 1`` disjoint sets of ``g`` identical
    interval jobs (set ``i`` has length ``1 + i*eps``); ``g - 1`` flexible
    jobs, the ``i``-th of length ``1 + i*eps`` with a window spanning sets
    ``0..i``.

    * optimal placement: flexible jobs start at 0 → profile
      ``g + O(eps)``;
    * adversarial DP placement: flexible job ``i`` aligned with set ``i`` →
      profile ``2g - 1 + O(eps)``.  Ratio → 2.
    """
    if g < 2:
        raise ValueError("figure9 gadget needs g >= 2")
    if not 0 < eps < 0.2:
        raise ValueError("figure9 needs 0 < eps < 0.2")
    spacing = 4.0
    jobs: list[Job] = [Job(0.0, 1.0, 1.0, id=0, label="unit")]
    next_id = 1
    set_offsets = {}
    for i in range(1, g):
        o = i * spacing
        set_offsets[i] = o
        for _ in range(g):
            jobs.append(
                Job(o, o + 1.0 + i * eps, 1.0 + i * eps, id=next_id, label=f"set{i}")
            )
            next_id += 1
    flex_ids = {}
    for i in range(1, g):
        end = set_offsets[i] + 1.0 + i * eps
        jobs.append(
            Job(0.0, end, 1.0 + i * eps, id=next_id, label=f"flex{i}")
        )
        flex_ids[i] = next_id
        next_id += 1

    instance = Instance(tuple(jobs))
    adversarial_starts = {
        j.id: j.release for j in instance.jobs if not j.label.startswith("flex")
    }
    optimal_starts = dict(adversarial_starts)
    for i in range(1, g):
        adversarial_starts[flex_ids[i]] = set_offsets[i]
        optimal_starts[flex_ids[i]] = 0.0

    eps_terms = sum(i * eps for i in range(1, g))
    return Gadget(
        name="figure9",
        instance=instance,
        g=g,
        facts={
            # profile of the optimal placement:
            #   [0, 1 + (g-1)eps) at demand <= g  +  each set at demand g
            "optimal_profile": (1.0 + (g - 1) * eps)
            + sum(1.0 + i * eps for i in range(1, g)),
            # profile of the DP placement: unit job alone + each set at
            # demand g+1 -> two machines
            "dp_profile": 1.0 + 2.0 * sum(1.0 + i * eps for i in range(1, g)),
            "ratio_limit": 2.0,
        },
        witness={
            "adversarial_starts": adversarial_starts,
            "optimal_starts": optimal_starts,
            "flex_ids": flex_ids,
        },
    )


# ----------------------------------------------------------------------
# Figures 10–12: the flexible 4-approximation tightness family
# ----------------------------------------------------------------------
def figure10(g: int, eps: float = 0.05, eps_prime: float = 0.02) -> Gadget:
    """Theorem-10 family: extending the interval 2-approx to flexible jobs.

    One unit interval job, then ``g - 1`` copies of the Figure-10 gadget
    (``g`` unit intervals + a Figure-8-like cluster of ``2g - 2`` jobs of
    length ``eps``, two of length ``eps'`` and two of length ``eps - eps'``),
    plus ``g - 1`` unit flexible jobs spanning everything.

    * optimal busy time: ``g + O(eps)`` — flexible jobs stack on the first
      unit job;
    * adversarial DP placement puts flexible job ``k`` on gadget ``k``; the
      paper exhibits runs of the extended 2-approximation paying
      ``1 + 4(g-1) + O(eps)``.  Ratio → 4.
    """
    if g < 2:
        raise ValueError("figure10 gadget needs g >= 2")
    if not 0 < eps_prime < eps < 0.5:
        raise ValueError("figure10 needs 0 < eps' < eps < 0.5")
    spacing = 3.0
    jobs: list[Job] = [Job(0.0, 1.0, 1.0, id=0, label="unit0")]
    next_id = 1
    gadget_offsets = {}
    for k in range(1, g):
        o = k * spacing
        gadget_offsets[k] = o
        for _ in range(g):
            jobs.append(Job(o, o + 1.0, 1.0, id=next_id, label=f"block{k}"))
            next_id += 1
        for _ in range(2 * g - 2):
            jobs.append(
                Job(o + 1.0, o + 1.0 + eps, eps, id=next_id, label=f"eps{k}")
            )
            next_id += 1
        for _ in range(2):
            jobs.append(
                Job(
                    o + 1.0,
                    o + 1.0 + eps_prime,
                    eps_prime,
                    id=next_id,
                    label=f"epsp{k}",
                )
            )
            next_id += 1
        for _ in range(2):
            jobs.append(
                Job(
                    o + 1.0 + eps_prime,
                    o + 1.0 + eps,
                    eps - eps_prime,
                    id=next_id,
                    label=f"epsd{k}",
                )
            )
            next_id += 1
    horizon = (g - 1) * spacing + 2.0
    flex_ids = {}
    for k in range(1, g):
        jobs.append(Job(0.0, horizon, 1.0, id=next_id, label=f"flex{k}"))
        flex_ids[k] = next_id
        next_id += 1

    instance = Instance(tuple(jobs))
    adversarial_starts = {
        j.id: j.release for j in instance.jobs if not j.label.startswith("flex")
    }
    optimal_starts = dict(adversarial_starts)
    for k in range(1, g):
        adversarial_starts[flex_ids[k]] = gadget_offsets[k]
        optimal_starts[flex_ids[k]] = 0.0

    return Gadget(
        name="figure10",
        instance=instance,
        g=g,
        facts={
            "opt_busy_time": 1.0 + (g - 1) * (1.0 + 2.0 * eps),
            "adversarial_cost": 1.0 + 4.0 * (g - 1),
            "ratio_limit": 4.0,
        },
        witness={
            "adversarial_starts": adversarial_starts,
            "optimal_starts": optimal_starts,
            "flex_ids": flex_ids,
        },
    )
