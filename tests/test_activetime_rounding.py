"""Tests for the Theorem-2 LP-rounding 2-approximation."""

import pytest

from repro.activetime import exact_active_time, round_active_time
from repro.core import Instance
from repro.instances import (
    SWEEP_GENERATORS,
    figure3,
    lp_gap,
    random_active_time_instance,
    tight_window_instance,
)

#: The two causes of the Lemma-5 breaks below.
RULE_A = (
    "Lemma 5 breaks: a proxy entering a block whose own LP remainder is 0 "
    "takes the closed slot b - whole, which holds no LP mass, so its "
    "pointer leaves the slot that holds it"
)
PROXY_MERGE = (
    "Lemma 5 breaks: a carried proxy merges into a block that has its own "
    "positive remainder; the block's slot opens, but the deadline prefix "
    "needs the proxy's pointer slot"
)
#: ``(g, seed)`` of ``SWEEP_GENERATORS["active"](300, 120, g, seed)`` on
#: which rounding needs repair (from 1 to 12 slots) and breaks Lemma 5,
#: with the cause.
LEMMA5_VIOLATIONS = {
    (12, 3656233805): RULE_A,
    (12, 744399): RULE_A,
    (8, 26): RULE_A,
    (8, 38): RULE_A,
    (8, 74): RULE_A,
    (8, 142): RULE_A,
    (8, 20): PROXY_MERGE,
    (8, 48): PROXY_MERGE,
    (8, 102): PROXY_MERGE,
    (8, 147): PROXY_MERGE,
}


class TestBasics:
    def test_output_verifies(self, tiny_instance):
        sol = round_active_time(tiny_instance, 2, strict=True)
        sol.schedule.verify()

    def test_empty_instance(self):
        sol = round_active_time(Instance(tuple()), 1)
        assert sol.cost == 0

    def test_single_job(self):
        inst = Instance.from_tuples([(0, 5, 3)])
        sol = round_active_time(inst, 1, strict=True)
        assert sol.cost == 3

    def test_infeasible_instance_raises(self):
        inst = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        with pytest.raises(RuntimeError):
            round_active_time(inst, 1)


class TestGuarantee:
    def test_within_2x_lp_random(self, rng):
        checked = 0
        for _ in range(25):
            n = int(rng.integers(2, 10))
            T = int(rng.integers(3, 12))
            g = int(rng.integers(1, 4))
            inst = random_active_time_instance(n, T, rng=rng)
            try:
                sol = round_active_time(inst, g, strict=True)
            except RuntimeError as e:
                if "could not be solved" in str(e):
                    continue
                raise
            assert sol.guarantee_holds, (sol.cost, sol.lp_objective)
            assert sol.repair_slots == []
            assert sol.charging_failures == []
            checked += 1
        assert checked >= 10

    def test_within_2x_opt(self, rng):
        for _ in range(12):
            inst = random_active_time_instance(6, 9, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                exact = exact_active_time(inst, g)
            except RuntimeError:
                continue
            sol = round_active_time(inst, g, strict=True)
            assert sol.cost <= 2 * exact.cost

    def test_gap_gadget_ratio_approaches_2(self):
        ratios = []
        for g in (2, 4, 8):
            gad = lp_gap(g)
            sol = round_active_time(gad.instance, g, strict=True)
            assert sol.cost == gad.facts["ip_opt"]  # rounding is optimal here
            ratios.append(sol.ratio_vs_lp)
        assert ratios == sorted(ratios)
        assert ratios[-1] > 1.7

    def test_barely_open_stress_family(self, rng):
        for g in (2, 3):
            inst = tight_window_instance(12, g, rng=rng)
            sol = round_active_time(inst, g, strict=True)
            sol.schedule.verify()
            assert sol.guarantee_holds

    def test_figure3_gadget(self):
        for g in (3, 4):
            gad = figure3(g)
            sol = round_active_time(gad.instance, g, strict=True)
            sol.schedule.verify()
            assert sol.cost <= 2 * gad.facts["opt_active_time"]


class TestLemma5KnownViolations:
    @pytest.mark.parametrize(
        ("g", "seed"),
        [
            pytest.param(
                g, seed, marks=pytest.mark.xfail(strict=True, reason=cause)
            )
            for (g, seed), cause in LEMMA5_VIOLATIONS.items()
        ],
    )
    def test_no_repair_and_no_charging_failure(self, g, seed):
        inst = SWEEP_GENERATORS["active"](300, 120, g, seed)
        sol = round_active_time(inst, g)
        assert sol.repair_slots == []
        assert sol.charging_failures == []

    @pytest.mark.parametrize(("g", "seed"), list(LEMMA5_VIOLATIONS))
    def test_theorem2_bound_still_holds(self, g, seed):
        inst = SWEEP_GENERATORS["active"](300, 120, g, seed)
        sol = round_active_time(inst, g)
        assert sol.cost <= 2 * sol.lp_objective


class TestTrace:
    def test_iterations_cover_all_deadlines(self, tiny_instance):
        sol = round_active_time(tiny_instance, 2, strict=True)
        lp = sol.lp
        assert len(sol.iterations) == len(lp.deadline_blocks())

    def test_actions_are_known(self, rng):
        for _ in range(8):
            inst = random_active_time_instance(6, 9, rng=rng)
            try:
                sol = round_active_time(inst, 2, strict=True)
            except RuntimeError:
                continue
            for it in sol.iterations:
                assert it.action in ("none", "half", "carry", "charged")
                if it.action == "carry":
                    assert it.proxy_out is not None
                    assert it.proxy_out[1] < 0.5
                if it.action == "charged":
                    assert it.charge is not None

    def test_opened_full_slots_are_open(self, tiny_instance):
        sol = round_active_time(tiny_instance, 2, strict=True)
        active = set(sol.schedule.active_slots)
        for it in sol.iterations:
            assert set(it.opened_full) <= active

    def test_at_most_one_proxy_at_a_time(self, rng):
        for _ in range(8):
            inst = random_active_time_instance(7, 10, rng=rng)
            try:
                sol = round_active_time(inst, 2, strict=True)
            except RuntimeError:
                continue
            for it in sol.iterations:
                if it.proxy_out is not None:
                    assert isinstance(it.proxy_out[0], int)


class TestLedgerCertificate:
    def test_certificate_at_most_2(self, rng):
        for _ in range(15):
            inst = random_active_time_instance(7, 10, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                sol = round_active_time(inst, g, strict=True)
            except RuntimeError:
                continue
            sol.ledger.verify()
            assert sol.ledger.certificate_ratio() <= 2.0 + 1e-6

    def test_opened_count_matches_cost(self, rng):
        """Every active slot is accounted by the ledger (no silent slots)."""
        for _ in range(10):
            inst = random_active_time_instance(6, 9, rng=rng)
            try:
                sol = round_active_time(inst, 2, strict=True)
            except RuntimeError:
                continue
            assert sol.ledger.opened_count() == sol.cost
