"""E7 — Theorem 3 / Figure 8: 2-approximations for interval jobs.

Paper claims: the Kumar–Rudra and Alicherry–Bhatia techniques give
2-approximations charging the demand profile, and Figure 8 exhibits a run
paying 2 + eps against OPT = 1 + eps (ratio -> 2 as eps -> 0).  We verify
the profile certificate on random instances, evaluate the gadget, and show
the paper's adversarial bundling is feasible at the claimed cost.
"""

import pytest

from repro.busytime import (
    BusyTimeSchedule,
    chain_peeling_two_approx,
    demand_profile_lower_bound,
    exact_busy_time_interval,
    kumar_rudra,
)
from repro.instances import figure8, random_interval_instance


def test_fig8_gadget(emit):
    rows = []
    for eps in (0.4, 0.2, 0.1):
        epsp = eps / 2
        gad = figure8(eps=eps, eps_prime=epsp)
        opt = exact_busy_time_interval(gad.instance, gad.g).total_busy_time
        assert opt == pytest.approx(1 + eps, abs=1e-9)

        # the paper's adversarial bundling
        groups = [
            [gad.instance.job_by_id(j) for j in b]
            for b in gad.witness["adversarial_bundles"]
        ]
        adv = BusyTimeSchedule.from_bundle_jobs(gad.instance, gad.g, groups)
        adv.verify()

        cp = chain_peeling_two_approx(gad.instance, gad.g)
        kr = kumar_rudra(gad.instance, gad.g)
        rows.append(
            [eps, opt, adv.total_busy_time, adv.total_busy_time / opt,
             cp.total_busy_time, kr.total_busy_time]
        )
        assert adv.total_busy_time / opt <= 2.0 + 1e-9
        assert cp.total_busy_time <= 2 * opt + 1e-9
        assert kr.total_busy_time <= 2 * opt + 1e-9
    emit(
        "E7 / Figure 8 — interval 2-approx tightness (paper: ratio -> 2)",
        ["eps", "OPT (1+eps)", "adversarial bundling", "adv ratio",
         "chain peeling", "kumar_rudra"],
        rows,
    )
    # the adversarial ratio grows toward 2 as eps shrinks
    ratios = [r[3] for r in rows]
    assert ratios == sorted(ratios)


def test_profile_certificate_random(rng, emit):
    rows = []
    for (n, g) in [(10, 2), (20, 3), (30, 4)]:
        worst_cp = worst_kr = 0.0
        for _ in range(10):
            inst = random_interval_instance(n, 2.0 * n, rng=rng)
            profile = demand_profile_lower_bound(inst, g)
            cp = chain_peeling_two_approx(inst, g)
            kr = kumar_rudra(inst, g)
            cp.verify()
            kr.verify()
            worst_cp = max(worst_cp, cp.total_busy_time / profile)
            worst_kr = max(worst_kr, kr.total_busy_time / profile)
        rows.append([f"n={n}, g={g}", worst_cp, worst_kr, 2.0])
        assert worst_cp <= 2.0 + 1e-9
        assert worst_kr <= 2.0 + 1e-9
    emit(
        "E7 — cost / demand-profile lower bound on random interval jobs",
        ["family", "chain peeling (max)", "kumar_rudra (max)", "paper bound"],
        rows,
    )


@pytest.mark.parametrize("n", [20, 50])
def test_chain_peeling_runtime(benchmark, rng, n):
    inst = random_interval_instance(n, 2.0 * n, rng=rng)
    s = benchmark(chain_peeling_two_approx, inst, 3)
    s.verify()


@pytest.mark.parametrize("n", [20, 50])
def test_kumar_rudra_runtime(benchmark, rng, n):
    inst = random_interval_instance(n, 2.0 * n, rng=rng)
    s = benchmark(kumar_rudra, inst, 3)
    s.verify()
