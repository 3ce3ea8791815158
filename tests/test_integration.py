"""End-to-end integration tests crossing module boundaries."""

import pytest

from repro import (
    Instance,
    best_lower_bound,
    chain_peeling_two_approx,
    compute_demand_profile,
    exact_active_time,
    exact_busy_time_interval,
    first_fit,
    greedy_tracking,
    greedy_unbounded_preemptive,
    kumar_rudra,
    minimal_feasible_schedule,
    opt_infinity,
    preemptive_bounded,
    round_active_time,
    schedule_flexible,
)
from repro.instances import (
    random_active_time_instance,
    random_flexible_instance,
    random_interval_instance,
)


class TestActiveTimePipeline:
    """LP -> right-shift -> round -> verify, against exact and Theorem 1."""

    def test_full_chain_on_random_instances(self, rng):
        checked = 0
        for _ in range(10):
            inst = random_active_time_instance(8, 12, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                exact = exact_active_time(inst, g)
            except RuntimeError:
                continue
            rounded = round_active_time(inst, g, strict=True)
            lp = rounded.lp
            minimal = minimal_feasible_schedule(inst, g)
            rounded.schedule.verify()
            minimal.verify()
            # the full hierarchy of bounds:
            assert lp.objective <= exact.cost + 1e-6
            assert exact.cost <= rounded.cost
            assert rounded.cost <= 2 * lp.objective + 1e-6
            assert exact.cost <= minimal.cost <= 3 * exact.cost
            checked += 1
        assert checked >= 4

    def test_rounding_never_below_exact(self, rng):
        for _ in range(6):
            inst = random_active_time_instance(6, 9, rng=rng)
            try:
                exact = exact_active_time(inst, 2)
            except RuntimeError:
                continue
            rounded = round_active_time(inst, 2)
            assert rounded.cost >= exact.cost


class TestBusyTimeAlgorithmHierarchy:
    """All interval algorithms vs all lower bounds vs exact."""

    def test_hierarchy_on_random_instances(self, rng):
        for _ in range(6):
            inst = random_interval_instance(7, 12.0, rng=rng)
            g = int(rng.integers(1, 4))
            lb = best_lower_bound(inst, g)
            opt = exact_busy_time_interval(inst, g).total_busy_time
            assert lb <= opt + 1e-6
            results = {
                "first_fit": first_fit(inst, g),
                "greedy_tracking": greedy_tracking(inst, g),
                "chain_peeling": chain_peeling_two_approx(inst, g),
                "kumar_rudra": kumar_rudra(inst, g),
            }
            factors = {
                "first_fit": 4,
                "greedy_tracking": 3,
                "chain_peeling": 2,
                "kumar_rudra": 2,
            }
            for name, schedule in results.items():
                schedule.verify()
                assert opt - 1e-6 <= schedule.total_busy_time
                assert schedule.total_busy_time <= factors[name] * opt + 1e-6


class TestFlexiblePipelineEndToEnd:
    def test_pipeline_consistency(self, rng):
        for _ in range(4):
            inst = random_flexible_instance(7, 11, rng=rng)
            g = int(rng.integers(1, 4))
            placement = opt_infinity(inst)
            s = schedule_flexible(inst, g, algorithm="greedy_tracking")
            s.verify()
            # bundle intervals realize the recorded starts
            for b in s.bundles:
                for pinned in b.jobs:
                    assert pinned.release == pytest.approx(
                        s.starts[pinned.id]
                    )
            # OPT_inf lower-bounds the bounded-capacity outcome
            assert s.total_busy_time >= placement.busy_time - 1e-6

    def test_preemption_hierarchy(self, rng):
        """preemptive g=inf <= nonpreemptive g=inf <= bounded outcomes."""
        for _ in range(5):
            inst = random_flexible_instance(6, 10, rng=rng)
            g = int(rng.integers(1, 4))
            pre_inf = greedy_unbounded_preemptive(inst).total_busy_time
            non_inf = opt_infinity(inst).busy_time
            pre_g = preemptive_bounded(inst, g).total_busy_time
            non_g = schedule_flexible(inst, g).total_busy_time
            assert pre_inf <= non_inf + 1e-6
            assert pre_inf <= pre_g + 1e-6
            # preemptive bounded-g relaxes non-preemptive bounded-g is not
            # guaranteed by these algorithms (both are approximations), but
            # both respect the unbounded preemptive lower bound:
            assert non_g >= pre_inf - 1e-6


class TestProfileConsistency:
    def test_profile_vs_verifier_view(self, rng):
        """The profile's peak raw demand matches coverage counting."""
        from repro.core import coverage_counts

        for _ in range(6):
            inst = random_interval_instance(8, 14.0, rng=rng)
            profile = compute_demand_profile(inst, 2)
            cov = coverage_counts([j.window for j in inst.jobs])
            assert max(profile.raw) == max(c for _, c in cov)

    def test_one_machine_per_demand_unit_suffices(self, rng):
        """Scheduling each demand level's worth on enough machines is enough:
        the exact optimum never exceeds profile * 2 on these sizes (sanity
        for the tightness direction of Observation 4)."""
        for _ in range(4):
            inst = random_interval_instance(6, 10.0, rng=rng)
            g = int(rng.integers(1, 3))
            profile = compute_demand_profile(inst, g).cost
            opt = exact_busy_time_interval(inst, g).total_busy_time
            assert profile <= opt + 1e-6 <= 2 * profile + 1e-5


class TestPublicApi:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_quickstart_snippet(self):
        """The README/The __init__ docstring example runs as documented."""
        inst = Instance.from_tuples([(0, 4, 2), (1, 5, 3), (0, 6, 1)])
        solution = round_active_time(inst, g=2)
        assert solution.cost <= 2 * solution.lp_objective + 1e-9
        jobs = Instance.from_intervals([(0, 2), (1, 3), (2.5, 4)])
        schedule = greedy_tracking(jobs, g=2)
        assert schedule.total_busy_time > 0
