"""The contract every interval busy-time algorithm keeps.

Each check runs against every algorithm of
:data:`repro.busytime.INTERVAL_ALGORITHMS`, so a new algorithm, or a
regression in one, is caught on the same footing: the optimum and the
demand profile bound every schedule from below, on random instances and
on the structured families of footnote 1, capacity one forces tracks,
jobs that never overlap cost exactly their length however they are
bundled, and an exact shift or doubling of every time value, or new job
ids, leave the bundles unchanged.  Each registered packer also stays
within its proven ratio of the optimum.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.busytime import (
    INTERVAL_ALGORITHMS,
    compute_demand_profile,
    exact_busy_time_interval,
)
from repro.core import Instance, Job
from repro.instances import (
    figure8,
    random_clique_instance,
    random_interval_instance,
    random_proper_instance,
)

from oracles import (
    is_track,
    random_integral_interval_instance,
    random_laminar_instance,
)

#: Each registered packer's proven worst case on interval jobs, as a
#: multiple of the optimum.
GUARANTEES = {
    "greedy_tracking": 3,  # Theorem 5
    "first_fit": 4,  # Flammini et al.
    "chain_peeling": 2,  # Theorem 3: at most twice the demand profile
    "kumar_rudra": 2,  # Appendix A.1, certified against 2 * profile
}

#: The structured interval families of footnote 1: no window strictly
#: inside another, every window through one point, and every two windows
#: nested or disjoint.
FAMILIES = {
    "proper": lambda rng: random_proper_instance(8, 15.0, rng=rng),
    "clique": lambda rng: random_clique_instance(8, 15.0, rng=rng),
    "laminar": lambda rng: random_laminar_instance(2, 2, rng=rng),
}


def _moved(inst, scale=1, shift=0):
    """``inst`` with every time value mapped ``t -> scale * t + shift``.

    Lengths are scaled as stored, not recomputed from the new windows, so
    for exact maps (a power-of-two scale, an integral shift of integral
    times) every comparison an algorithm makes keeps its outcome.
    """
    return Instance(
        tuple(
            Job(
                scale * j.release + shift,
                scale * j.deadline + shift,
                scale * j.length,
                id=j.id,
            )
            for j in inst.jobs
        )
    )


@pytest.fixture(params=sorted(INTERVAL_ALGORITHMS))
def algorithm(request):
    return INTERVAL_ALGORITHMS[request.param]


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_cases(request):
    """Three instances of one family, each with a capacity and its optimum.

    Module-scoped, so every algorithm is measured against the same exact
    optima and each MILP is solved once.
    """
    rng = np.random.default_rng(20140623)
    cases = []
    for _ in range(3):
        inst = FAMILIES[request.param](rng)
        g = int(rng.integers(1, 4))
        opt = exact_busy_time_interval(inst, g).total_busy_time
        cases.append((inst, g, opt))
    return cases


def test_empty_instance(algorithm):
    s = algorithm(Instance(tuple()), 2)
    s.verify()
    assert s.num_machines == 0
    assert s.total_busy_time == 0.0


def test_single_job_costs_its_length(algorithm):
    inst = Instance.from_intervals([(2.0, 5.5)])
    for g in (1, 2, 3):
        s = algorithm(inst, g)
        s.verify()
        assert s.num_machines == 1
        assert s.total_busy_time == pytest.approx(3.5)


def test_job_ids_need_not_be_positions(algorithm, rng):
    """Ids are labels, not indices: sparse, shuffled ids are all placed."""
    inst = random_interval_instance(10, 16.0, rng=rng)
    ids = [int(k) for k in rng.choice(1000, size=inst.n, replace=False)]
    relabelled = Instance(
        tuple(replace(j, id=k) for j, k in zip(inst.jobs, ids))
    )
    s = algorithm(relabelled, 2)
    s.verify()
    assert sorted(s.starts) == sorted(ids)
    for k in ids:
        assert any(k in bundle.job_ids() for bundle in s.bundles)


def test_relabelling_keeps_the_bundles(algorithm, rng):
    """With no two times equal, ids only name jobs: relabelled jobs land
    in the same bundles, in the same order."""
    for _ in range(5):
        inst = random_interval_instance(10, 16.0, rng=rng)
        g = int(rng.integers(1, 4))
        new = rng.choice(1000, size=inst.n, replace=False)
        label = {j.id: int(k) for j, k in zip(inst.jobs, new)}
        relabelled = Instance(
            tuple(replace(j, id=label[j.id]) for j in inst.jobs)
        )
        assert [b.job_ids() for b in algorithm(relabelled, g).bundles] == [
            sorted(label[k] for k in b.job_ids())
            for b in algorithm(inst, g).bundles
        ]


def test_never_below_exact_optimum(algorithm, rng):
    for _ in range(5):
        inst = random_interval_instance(7, 12.0, rng=rng)
        g = int(rng.integers(1, 4))
        opt = exact_busy_time_interval(inst, g).total_busy_time
        s = algorithm(inst, g)
        s.verify()
        assert s.total_busy_time >= opt - 1e-6


def test_never_below_optimum_on_structured_families(algorithm, family_cases):
    for inst, g, opt in family_cases:
        s = algorithm(inst, g)
        s.verify()
        assert s.total_busy_time >= opt - 1e-6


def test_every_registered_packer_declares_its_guarantee():
    assert set(GUARANTEES) == set(INTERVAL_ALGORITHMS)


@pytest.mark.parametrize("name", sorted(GUARANTEES))
def test_within_proven_ratio_on_structured_families(name, family_cases):
    for inst, g, opt in family_cases:
        cost = INTERVAL_ALGORITHMS[name](inst, g).total_busy_time
        assert cost <= GUARANTEES[name] * opt + 1e-6


def test_shifting_time_keeps_the_bundles(algorithm, rng):
    for _ in range(5):
        inst = random_integral_interval_instance(10, 16.0, rng=rng)
        g = int(rng.integers(1, 4))
        a, b = algorithm(inst, g), algorithm(_moved(inst, shift=7), g)
        assert [x.job_ids() for x in b.bundles] == [
            y.job_ids() for y in a.bundles
        ]
        assert b.total_busy_time == pytest.approx(a.total_busy_time)


def test_doubling_time_doubles_the_cost(algorithm, rng):
    for _ in range(5):
        inst = random_interval_instance(10, 16.0, rng=rng)
        g = int(rng.integers(1, 4))
        a, b = algorithm(inst, g), algorithm(_moved(inst, scale=2), g)
        assert [x.job_ids() for x in b.bundles] == [
            y.job_ids() for y in a.bundles
        ]
        assert b.total_busy_time == 2 * a.total_busy_time


def test_busy_time_at_least_mass_over_g(algorithm, rng):
    for _ in range(8):
        inst = random_interval_instance(10, 16.0, rng=rng)
        g = int(rng.integers(1, 4))
        s = algorithm(inst, g)
        for bundle in s.bundles:
            assert bundle.mass <= g * bundle.busy_time + 1e-9
        assert inst.total_length <= g * s.total_busy_time + 1e-9


def test_machines_at_least_peak_over_g(algorithm, rng):
    for _ in range(8):
        inst = random_interval_instance(12, 18.0, rng=rng)
        g = int(rng.integers(1, 4))
        peak = max(compute_demand_profile(inst, g).raw)
        assert algorithm(inst, g).num_machines >= math.ceil(peak / g)


def test_capacity_one_bundles_are_tracks(algorithm, rng):
    for _ in range(5):
        inst = random_interval_instance(12, 18.0, rng=rng)
        s = algorithm(inst, 1)
        s.verify()
        for bundle in s.bundles:
            assert is_track(bundle.jobs)
        assert s.total_busy_time == pytest.approx(inst.total_length)


def test_disjoint_jobs_cost_their_total_length(algorithm):
    inst = Instance.from_intervals([(0, 1), (3, 4), (6, 8)])
    for g in (1, 2, 3):
        s = algorithm(inst, g)
        s.verify()
        assert s.total_busy_time == pytest.approx(4.0)


def test_interval_jobs_start_at_release(algorithm, interval_instance):
    s = algorithm(interval_instance, 2)
    for job in interval_instance.jobs:
        assert s.starts[job.id] == job.release
        (copy,) = [j for b in s.bundles for j in b.jobs if j.id == job.id]
        assert copy.window == job.window


def test_figure8_never_below_optimum(algorithm):
    gad = figure8(eps=0.2, eps_prime=0.1)
    s = algorithm(gad.instance, gad.g)
    s.verify()
    assert s.total_busy_time >= gad.facts["opt_busy_time"] - 1e-6


def test_deterministic(algorithm, rng):
    inst = random_interval_instance(12, 18.0, rng=rng)
    a, b = algorithm(inst, 2), algorithm(inst, 2)
    assert [x.job_ids() for x in a.bundles] == [y.job_ids() for y in b.bundles]
