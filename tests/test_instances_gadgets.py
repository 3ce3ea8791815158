"""Tests asserting every paper-gadget closed form against the solvers."""

import pytest

from repro.activetime import exact_active_time, round_active_time
from repro.busytime import (
    BusyTimeSchedule,
    compute_demand_profile,
    exact_busy_time_interval,
    pin_instance,
    schedule_flexible,
)
from repro.instances import (
    figure1,
    figure3,
    figure6,
    figure8,
    figure9,
    figure10,
    lp_gap,
)
from repro.lp import solve_active_time_lp


class TestFigure1:
    def test_instance_shape(self):
        gad = figure1()
        assert gad.instance.n == 7
        assert gad.instance.all_interval
        assert gad.g == 3

    def test_optimal_value(self):
        gad = figure1()
        s = exact_busy_time_interval(gad.instance, gad.g)
        assert s.total_busy_time == pytest.approx(gad.facts["opt_busy_time"])

    def test_witness_bundles_feasible_and_optimal(self):
        gad = figure1()
        groups = [
            [gad.instance.job_by_id(j) for j in b]
            for b in gad.witness["bundles"]
        ]
        s = BusyTimeSchedule.from_bundle_jobs(gad.instance, gad.g, groups)
        s.verify()
        assert s.total_busy_time == pytest.approx(gad.facts["opt_busy_time"])
        assert s.num_machines == gad.facts["min_machines"]


class TestFigure3:
    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_job_census(self, g):
        gad = figure3(g)
        labels = [j.label for j in gad.instance.jobs]
        assert labels.count("long") == 2
        assert labels.count("rigid") == g - 2
        assert labels.count("unitA") == g - 2
        assert labels.count("unitB") == g - 2

    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_opt_equals_g(self, g):
        gad = figure3(g)
        assert exact_active_time(gad.instance, g).cost == g

    @pytest.mark.parametrize("g", range(3, 13))
    def test_adversarial_slots(self, g):
        from repro.flow import ActiveTimeFeasibility

        gad = figure3(g)
        slots = gad.witness["adversarial_slots"]
        assert len(slots) == 3 * g - 2
        oracle = ActiveTimeFeasibility(gad.instance, g)
        assert oracle.is_feasible(slots)
        # minimal (Definition 4): closing any one slot breaks feasibility
        for t in slots:
            assert not oracle.is_feasible(set(slots) - {t}), t

    def test_requires_g_at_least_3(self):
        with pytest.raises(ValueError):
            figure3(2)

    def test_rounding_still_within_2(self):
        gad = figure3(4)
        sol = round_active_time(gad.instance, 4, strict=True)
        assert sol.cost <= 2 * gad.facts["opt_active_time"]


class TestLpGap:
    @pytest.mark.parametrize("g", [1, 2, 3, 5])
    def test_closed_forms(self, g):
        gad = lp_gap(g)
        lp = solve_active_time_lp(gad.instance, g)
        assert lp.objective == pytest.approx(gad.facts["lp_opt"], abs=1e-6)
        assert exact_active_time(gad.instance, g).cost == gad.facts["ip_opt"]

    def test_gap_monotone_to_2(self):
        gaps = [lp_gap(g).facts["ip_opt"] / lp_gap(g).facts["lp_opt"]
                for g in (1, 2, 4, 8, 16)]
        assert gaps == sorted(gaps)
        assert gaps[-1] > 1.8

    def test_rejects_bad_g(self):
        with pytest.raises(ValueError):
            lp_gap(0)


class TestFigure6:
    def test_shape(self):
        g = 3
        gad = figure6(g, eps=0.1)
        assert gad.instance.n == 2 * g * g + 2 * g
        flex = [j for j in gad.instance.jobs if j.label == "flex"]
        assert len(flex) == 2 * g
        assert all(not j.is_interval for j in flex)

    def test_adversarial_starts_valid(self):
        gad = figure6(3, eps=0.1)
        pinned = pin_instance(gad.instance, gad.witness["adversarial_starts"])
        assert pinned.all_interval

    def test_adversarial_flex_overlaps_whole_block(self):
        g, eps = 3, 0.1
        gad = figure6(g, eps=eps)
        pinned = pin_instance(gad.instance, gad.witness["adversarial_starts"])
        for idx, fid in enumerate(gad.witness["flex_ids"]):
            block = idx // 2
            flex = pinned.job_by_id(fid)
            for j in pinned.jobs:
                if j.label in (f"A{block}", f"B{block}"):
                    lo = max(flex.release, j.release)
                    hi = min(flex.deadline, j.deadline)
                    assert hi - lo > 1e-9  # genuinely overlaps

    def test_optimal_placement_cost(self):
        g, eps = 3, 0.1
        gad = figure6(g, eps=eps)
        s = schedule_flexible(
            gad.instance, g, starts=gad.witness["optimal_starts"]
        )
        s.verify()
        # with the paper's placement, GREEDYTRACKING recovers the optimum
        assert s.total_busy_time == pytest.approx(
            gad.facts["opt_busy_time"], abs=1e-6
        )

    def test_adversarial_at_least_optimal(self):
        g = 3
        gad = figure6(g, eps=0.1)
        adv = schedule_flexible(
            gad.instance, g, starts=gad.witness["adversarial_starts"]
        )
        adv.verify()
        assert adv.total_busy_time >= gad.facts["opt_busy_time"] - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            figure6(0)
        with pytest.raises(ValueError):
            figure6(3, eps=0.9)


class TestFigure8:
    def test_closed_forms(self):
        gad = figure8(eps=0.2, eps_prime=0.1)
        opt = exact_busy_time_interval(gad.instance, gad.g)
        assert opt.total_busy_time == pytest.approx(gad.facts["opt_busy_time"])

    def test_profile_equals_opt_here(self):
        gad = figure8(eps=0.2, eps_prime=0.1)
        profile = compute_demand_profile(gad.instance, gad.g)
        assert profile.cost == pytest.approx(gad.facts["opt_busy_time"])

    def test_adversarial_bundles_feasible(self):
        gad = figure8(eps=0.2, eps_prime=0.1)
        groups = [
            [gad.instance.job_by_id(j) for j in b]
            for b in gad.witness["adversarial_bundles"]
        ]
        s = BusyTimeSchedule.from_bundle_jobs(gad.instance, gad.g, groups)
        s.verify()

    def test_validation(self):
        with pytest.raises(ValueError):
            figure8(eps=0.1, eps_prime=0.2)


class TestFigure9:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_profile_closed_forms(self, g):
        gad = figure9(g, eps=0.01)
        adv = pin_instance(gad.instance, gad.witness["adversarial_starts"])
        opt = pin_instance(gad.instance, gad.witness["optimal_starts"])
        assert compute_demand_profile(adv, g).cost == pytest.approx(
            gad.facts["dp_profile"], abs=1e-6
        )
        assert compute_demand_profile(opt, g).cost == pytest.approx(
            gad.facts["optimal_profile"], abs=1e-6
        )

    def test_ratio_grows_toward_2(self):
        ratios = []
        for g in (2, 4, 8):
            gad = figure9(g, eps=0.001)
            ratios.append(gad.facts["dp_profile"] / gad.facts["optimal_profile"])
        assert ratios == sorted(ratios)
        assert ratios[-1] > 1.85

    def test_lemma7_bound(self):
        """DP profile <= 2 x optimal-placement profile (Lemma 7)."""
        for g in (2, 3, 5):
            gad = figure9(g)
            assert gad.facts["dp_profile"] <= 2 * gad.facts["optimal_profile"]

    def test_validation(self):
        with pytest.raises(ValueError):
            figure9(1)


class TestFigure10:
    def test_shape(self):
        g = 3
        gad = figure10(g)
        flex = [j for j in gad.instance.jobs if j.label.startswith("flex")]
        assert len(flex) == g - 1

    def test_optimal_placement_cost(self):
        g, eps = 3, 0.05
        gad = figure10(g, eps=eps)
        s = schedule_flexible(
            gad.instance, g, starts=gad.witness["optimal_starts"],
            algorithm="greedy_tracking",
        )
        s.verify()
        assert s.total_busy_time <= gad.facts["opt_busy_time"] + 1e-6

    def test_adversarial_within_4x(self):
        g = 3
        gad = figure10(g)
        for name in ("chain_peeling", "kumar_rudra"):
            s = schedule_flexible(
                gad.instance, g,
                starts=gad.witness["adversarial_starts"], algorithm=name,
            )
            s.verify()
            assert s.total_busy_time <= 4 * gad.facts["opt_busy_time"] + 1e-6

    def test_adversarial_claim_dominates_opt(self):
        for g in (2, 3, 5):
            gad = figure10(g)
            assert gad.facts["adversarial_cost"] > gad.facts["opt_busy_time"]

    def test_validation(self):
        with pytest.raises(ValueError):
            figure10(1)
        with pytest.raises(ValueError):
            figure10(3, eps=0.1, eps_prime=0.2)
