"""The contract every interval busy-time algorithm keeps.

Each check runs against every offline algorithm of
:data:`repro.busytime.INTERVAL_ALGORITHMS` and both online policies, so a
new algorithm, or a regression in one, is caught on the same footing:
the optimum and the demand profile bound every schedule from below,
capacity one forces tracks, jobs that never overlap cost exactly their
length however they are bundled, and an exact shift or doubling of every
time value leaves the bundles unchanged.
"""

import math

import pytest

from repro.busytime import (
    INTERVAL_ALGORITHMS,
    compute_demand_profile,
    exact_busy_time_interval,
    is_track,
    online_best_fit,
    online_first_fit,
)
from repro.core import Instance, Job
from repro.instances import figure8, random_interval_instance

ALGORITHMS = {
    **INTERVAL_ALGORITHMS,
    "online_first_fit": online_first_fit,
    "online_best_fit": online_best_fit,
}


def _moved(inst, scale=1, shift=0):
    """``inst`` with every time value mapped ``t -> scale * t + shift``.

    Lengths are scaled as stored, not recomputed from the new windows, so
    for exact maps (a power-of-two scale, an integral shift of integral
    times) every comparison an algorithm makes keeps its outcome.
    """
    return Instance.from_jobs(
        [
            Job(
                scale * j.release + shift,
                scale * j.deadline + shift,
                scale * j.length,
                id=j.id,
            )
            for j in inst.jobs
        ]
    )


@pytest.fixture(params=sorted(ALGORITHMS))
def algorithm(request):
    return ALGORITHMS[request.param]


def test_empty_instance(algorithm):
    s = algorithm(Instance(tuple()), 2)
    s.verify()
    assert s.num_machines == 0
    assert s.total_busy_time == 0.0


def test_never_below_exact_optimum(algorithm, rng):
    for _ in range(5):
        inst = random_interval_instance(7, 12.0, rng=rng)
        g = int(rng.integers(1, 4))
        opt = exact_busy_time_interval(inst, g).total_busy_time
        s = algorithm(inst, g)
        s.verify()
        assert s.total_busy_time >= opt - 1e-6


def test_shifting_time_keeps_the_bundles(algorithm, rng):
    for _ in range(5):
        inst = random_interval_instance(10, 16.0, integral=True, rng=rng)
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
        peak = compute_demand_profile(inst, g).max_raw
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
        pinned = s.bundles[s.machine_of(job.id)].jobs
        (copy,) = [j for j in pinned if j.id == job.id]
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
