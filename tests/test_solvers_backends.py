"""The backend-neutral solver layer: IR, backends, registry, parity.

The parity classes run every registered backend against the same
instances and require objectives within 1e-6 of each other plus
schedules that pass ``core/validation`` — the acceptance bar for
swapping backends freely.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.activetime import exact_active_time, round_active_time
from repro.busytime import exact_busy_time_interval
from repro.core import Instance
from repro.instances import random_active_time_instance
from repro.lp import solve_active_time_lp
from repro.obs import REGISTRY as OBS
from repro.solvers import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    LinearProgram,
    ReferenceBackend,
    SolverError,
    SolverResult,
    available_backend_names,
    backend_menu,
    backend_names,
    backend_status,
    get_backend,
    register_backend,
    resolve_backend,
    solve_ir,
)
from repro.solvers.reference import MAX_DENSE_VARS
from repro.solvers.registry import capture_solves


@pytest.fixture(params=backend_names())
def backend_name(request) -> str:
    return request.param


class _LpOnly:
    """A stub backend that declares only the ``lp`` capability."""

    def __init__(self, name: str = "lp-only-test") -> None:
        self.name = name

    def capabilities(self):
        return frozenset({"lp"})

    def available(self):
        return True

    def solve(self, lp, *, time_limit=None, options=None):
        raise NotImplementedError


def _chain_lp(rhs: float) -> LinearProgram:
    """max x + 2y over x + y <= rhs, x <= 3, y <= 2; only rhs varies."""
    return LinearProgram.build(
        [-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[rhs],
        lb=[0.0, 0.0], ub=[3.0, 2.0],
    )


def _knapsack(rhs: float, integral: bool = True) -> LinearProgram:
    """max x + y over 2x + 3y <= rhs, x, y in [0, 2] (integer)."""
    return LinearProgram.build(
        [-1.0, -1.0], a_ub=[[2.0, 3.0]], b_ub=[rhs],
        lb=[0.0, 0.0], ub=[2.0, 2.0],
        integrality=[1, 1] if integral else None,
    )


# ----------------------------------------------------------------------
# IR construction
# ----------------------------------------------------------------------
class TestLinearProgram:
    def test_build_validates_shapes(self):
        with pytest.raises(ValueError, match="columns"):
            LinearProgram.build([1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
        with pytest.raises(ValueError, match="together"):
            LinearProgram.build([1.0], a_ub=[[1.0]])
        with pytest.raises(ValueError, match="entry per column"):
            LinearProgram.build([1.0], lb=[0.0, 0.0])

    def test_milp_detection_and_relaxation(self):
        lp = LinearProgram.build([1.0, 1.0], integrality=[1, 0])
        assert lp.is_milp
        assert lp.required_capability == "milp"
        relaxed = lp.relaxed()
        assert not relaxed.is_milp
        assert relaxed.required_capability == "lp"

    def test_from_two_sided_splits_rows(self):
        # row 0: equality; row 1: two-sided -> two <= rows; row 2: one-sided
        lp = LinearProgram.from_two_sided(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, -1.0], [2.0, 0.0]],
            [3.0, -1.0, -np.inf],
            [3.0, 1.0, 5.0],
        )
        assert lp.a_eq.shape[0] == 1
        assert lp.b_eq.tolist() == [3.0]
        assert lp.a_ub.shape[0] == 3  # ub side of rows 1,2 + lb side of row 1
        assert sorted(lp.b_ub.tolist()) == [1.0, 1.0, 5.0]

    def test_as_feasibility_and_with_bounds(self):
        lp = LinearProgram.build([1.0, -1.0], lb=[0, 0], ub=[2, 2])
        assert lp.as_feasibility().c.tolist() == [0.0, 0.0]
        pinned = lp.with_bounds([1, 0], [1, 2])
        assert pinned.lb.tolist() == [1.0, 0.0]
        with pytest.raises(ValueError):
            lp.with_bounds([0.0], [1.0])


# ----------------------------------------------------------------------
# Backend contract (every backend, same expectations)
# ----------------------------------------------------------------------
class TestBackendContract:
    def test_lp_optimum(self, backend_name):
        # max x + 2y over x+y<=4, x<=3, y<=2  ->  (2, 2), value -6
        lp = LinearProgram.build(
            [-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[4.0],
            lb=[0.0, 0.0], ub=[3.0, 2.0],
        )
        result = solve_ir(lp, backend=backend_name)
        assert result.ok and result.backend == backend_name
        assert result.objective == pytest.approx(-6.0, abs=1e-6)
        assert result.x == pytest.approx([2.0, 2.0], abs=1e-6)

    def test_milp_optimum(self, backend_name):
        # knapsack-ish: max x + y over 2x+3y<=7, x,y integer in [0,2]
        lp = LinearProgram.build(
            [-1.0, -1.0], a_ub=[[2.0, 3.0]], b_ub=[7.0],
            lb=[0.0, 0.0], ub=[2.0, 2.0], integrality=[1, 1],
        )
        result = solve_ir(lp, backend=backend_name)
        assert result.ok
        assert result.objective == pytest.approx(-3.0, abs=1e-6)

    def test_equality_rows(self, backend_name):
        lp = LinearProgram.build(
            [1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
            lb=[0.0, 0.0], ub=[1.0, 1.0],
        )
        result = solve_ir(lp, backend=backend_name)
        assert result.ok
        assert result.objective == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_detected(self, backend_name):
        lp = LinearProgram.build(
            [1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0],
            lb=[0.0], ub=[5.0],
        )
        result = solve_ir(lp, backend=backend_name)
        assert result.status == "infeasible"
        assert result.x is None
        with pytest.raises(RuntimeError, match="infeasible"):
            result.require_optimal("probe")

    def test_empty_program(self, backend_name):
        result = solve_ir(LinearProgram.build([]), backend=backend_name)
        assert result.ok and result.objective == 0.0

    def test_unbounded_detected(self, backend_name):
        lp = LinearProgram.build([-1.0], lb=[0.0])
        result = solve_ir(lp, backend=backend_name)
        assert result.status == "unbounded"

    def test_repeated_solves_are_independent(self, backend_name):
        # Backends keep no state between solves: the shared registry
        # instance re-solving one structure with new values answers as
        # a fresh instance does, whatever came before.
        shared = get_backend(backend_name)
        for rhs in (4.0, 3.0, 5.0, 2.5, 4.0):
            y = min(2.0, rhs)
            x = min(3.0, rhs - y)
            got = shared.solve(_chain_lp(rhs))
            fresh = type(shared)().solve(_chain_lp(rhs))
            assert got.status == fresh.status == "optimal"
            assert got.objective == pytest.approx(-(x + 2 * y), abs=1e-6)
            assert got.objective == pytest.approx(fresh.objective, abs=1e-9)
            assert got.x == pytest.approx([x, y], abs=1e-6)

    def test_milp_optimum_is_integral_and_feasible(self, backend_name):
        for rhs, best in ((7.0, 3.0), (6.0, 2.0), (5.0, 2.0), (1.0, 0.0)):
            lp = _knapsack(rhs)
            result = solve_ir(lp, backend=backend_name)
            assert result.ok
            assert result.objective == pytest.approx(-best, abs=1e-6)
            assert result.objective == pytest.approx(lp.c @ result.x)
            assert np.allclose(result.x, np.round(result.x), atol=1e-6)
            assert 2 * result.x[0] + 3 * result.x[1] <= rhs + 1e-6
            assert np.all(result.x >= -1e-9) and np.all(result.x <= 2 + 1e-9)

    def test_relaxation_bounds_milp_from_below(self, backend_name):
        relaxed = solve_ir(_knapsack(6.0, integral=False), backend=backend_name)
        exact = solve_ir(_knapsack(6.0), backend=backend_name)
        # the relaxation takes x = 2, y = 2/3; the integer optimum is 2
        assert relaxed.objective == pytest.approx(-8.0 / 3.0, abs=1e-6)
        assert exact.objective == pytest.approx(-2.0, abs=1e-6)

    def test_optimum_satisfies_rows_and_bounds(self, backend_name):
        # min 2a + 3b + c over a + b + c = 4, a - b <= 1, b + c <= 3,
        # a in [0, 2], b in [0.5, 3], c in [0, 1]: unique optimum (2, 1, 1)
        lp = LinearProgram.build(
            [2.0, 3.0, 1.0],
            a_ub=[[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]], b_ub=[1.0, 3.0],
            a_eq=[[1.0, 1.0, 1.0]], b_eq=[4.0],
            lb=[0.0, 0.5, 0.0], ub=[2.0, 3.0, 1.0],
        )
        result = solve_ir(lp, backend=backend_name)
        assert result.ok
        assert result.x == pytest.approx([2.0, 1.0, 1.0], abs=1e-6)
        assert result.objective == pytest.approx(8.0, abs=1e-6)
        assert result.objective == pytest.approx(lp.c @ result.x)
        assert np.all(lp.a_ub @ result.x <= lp.b_ub + 1e-6)
        assert lp.a_eq @ result.x == pytest.approx(lp.b_eq, abs=1e-6)

    def test_negative_lower_bounds(self, backend_name):
        # min x - 2y over y - x <= 4, x in [-2, 1], y in [1, 4]:
        # unique optimum (0, 4), value -8
        lp = LinearProgram.build(
            [1.0, -2.0], a_ub=[[-1.0, 1.0]], b_ub=[4.0],
            lb=[-2.0, 1.0], ub=[1.0, 4.0],
        )
        result = solve_ir(lp, backend=backend_name)
        assert result.ok
        assert result.objective == pytest.approx(-8.0, abs=1e-6)
        assert result.x == pytest.approx([0.0, 4.0], abs=1e-6)

    def test_infeasible_milp_detected(self, backend_name):
        # 2x = 3 has only the fractional solution x = 1.5
        lp = LinearProgram.build(
            [1.0], a_eq=[[2.0]], b_eq=[3.0], lb=[0.0], ub=[3.0],
            integrality=[1],
        )
        assert solve_ir(lp.relaxed(), backend=backend_name).ok
        result = solve_ir(lp, backend=backend_name)
        assert result.status == "infeasible"
        assert result.x is None and result.objective is None


# ----------------------------------------------------------------------
# Algorithm-level parity across backends
# ----------------------------------------------------------------------
#: Small instances where every algorithm is feasible at the paired g.
PARITY_CASES = [
    (Instance.from_tuples([(0, 4, 2), (1, 5, 3), (0, 6, 1)]), 2),
    (Instance.from_tuples([(0, 4, 2), (1, 5, 3), (0, 6, 1), (2, 6, 2)]), 2),
    (Instance.from_tuples([(0, 2, 2), (0, 3, 1), (1, 4, 2), (2, 5, 3)]), 3),
]


class TestBackendParity:
    def test_lp_relaxation_matches_default(self, backend_name):
        for instance, g in PARITY_CASES:
            expected = solve_active_time_lp(instance, g)
            got = solve_active_time_lp(instance, g, backend=backend_name)
            assert got.objective == pytest.approx(
                expected.objective, abs=1e-6
            )

    def test_exact_active_time_matches_and_validates(self, backend_name):
        for instance, g in PARITY_CASES:
            expected = exact_active_time(instance, g)
            got = exact_active_time(instance, g, backend=backend_name)
            got.verify()  # core/validation via schedule assignment checks
            assert got.cost == expected.cost

    def test_rounding_validates_and_keeps_guarantee(self, backend_name):
        for instance, g in PARITY_CASES:
            sol = round_active_time(
                instance, g, strict=True, backend=backend_name
            )
            sol.schedule.verify()
            assert sol.guarantee_holds

    def test_busy_exact_matches_and_validates(self, backend_name):
        instance = Instance.from_tuples(
            [(0, 3, 3), (1, 4, 3), (2, 6, 4), (5, 8, 3)]
        )
        expected = exact_busy_time_interval(instance, 2)
        got = exact_busy_time_interval(instance, 2, backend=backend_name)
        got.verify()
        assert got.total_busy_time == pytest.approx(
            expected.total_busy_time, abs=1e-6
        )

    def test_random_instances_agree(self, backend_name, rng):
        checked = 0
        for _ in range(6):
            instance = random_active_time_instance(5, 7, rng=rng)
            g = int(rng.integers(2, 4))
            try:
                expected = solve_active_time_lp(instance, g)
            except RuntimeError:
                continue
            got = solve_active_time_lp(instance, g, backend=backend_name)
            assert got.objective == pytest.approx(
                expected.objective, abs=1e-6
            )
            checked += 1
        assert checked >= 2

    def test_infeasible_instance_raises(self, backend_name):
        bad = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        with pytest.raises(RuntimeError):
            solve_active_time_lp(bad, 1, backend=backend_name)


# ----------------------------------------------------------------------
# Registry selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_default_is_scipy(self):
        assert resolve_backend(None).name == "scipy-highs"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert resolve_backend(None).name == "reference"

    def test_env_var_typo_errors_with_menu(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "refrence")
        with pytest.raises(ValueError, match="available backends"):
            resolve_backend(None)

    def test_unknown_name_lists_menu(self):
        with pytest.raises(ValueError) as exc:
            resolve_backend("highs-scipy")
        for name in backend_names():
            assert name in str(exc.value)

    def test_explicit_backend_lacking_capability_errors(self):
        with pytest.raises(ValueError, match="milp"):
            resolve_backend(_LpOnly(), require={"milp"})

    def test_explicit_name_lacking_capability_errors_with_menu(
        self, monkeypatch
    ):
        from repro.solvers import registry

        monkeypatch.setitem(
            registry._BACKENDS, "lp-only-test", _LpOnly()
        )
        assert resolve_backend("lp-only-test", require={"lp"}).name == (
            "lp-only-test"
        )
        with pytest.raises(ValueError) as exc:
            resolve_backend("lp-only-test", require={"milp"})
        message = str(exc.value)
        assert "lacks required capabilities ['milp']" in message
        assert backend_menu() in message

    def test_default_falls_back_to_first_capable_backend(self, monkeypatch):
        from repro.solvers import registry

        stub = _LpOnly(DEFAULT_BACKEND)
        monkeypatch.setitem(registry._BACKENDS, DEFAULT_BACKEND, stub)
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None, require={"lp"}) is stub
        assert resolve_backend(None, require={"milp"}).name == "reference"

    def test_no_backend_with_capability_errors(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.raises(ValueError) as exc:
            resolve_backend(None, require={"quantum"})
        message = str(exc.value)
        assert "no available backend provides ['quantum']" in message
        assert backend_menu() in message

    def test_backend_menu_lists_every_backend_with_capabilities(self):
        assert backend_menu() == (
            "reference (dependency-free,lp,milp,tiny); "
            "scipy-highs (lp,milp,sparse)"
        )

    def test_backend_status_marks_only_the_default(self):
        assert [backend_status(name) for name in backend_names()] == [
            {
                "name": "reference",
                "capabilities": ["dependency-free", "lp", "milp", "tiny"],
                "status": "available",
            },
            {
                "name": "scipy-highs",
                "capabilities": ["lp", "milp", "sparse"],
                "status": "default",
            },
        ]

    def test_unknown_name_lookups_error_with_menu(self):
        for lookup in (get_backend, backend_status):
            with pytest.raises(ValueError) as exc:
                lookup("glpk")
            assert str(exc.value) == (
                f"unknown backend 'glpk'; available backends: "
                f"{backend_menu()}"
            )

    def test_register_backend_rejects_duplicate_name(self):
        before = get_backend("reference")
        with pytest.raises(ValueError, match="already registered"):
            register_backend(ReferenceBackend())
        assert get_backend("reference") is before
        assert backend_names() == ("reference", "scipy-highs")

    def test_available_names_subset(self):
        available = available_backend_names()
        assert set(available) <= set(backend_names())
        assert "scipy-highs" in available
        assert "reference" in available

    def test_builtin_backends_are_default_and_reference(self):
        assert backend_names() == ("reference", "scipy-highs")

    @pytest.mark.parametrize("name", ["highs", "mip"])
    def test_removed_backend_names_error_with_menu(self, name, monkeypatch):
        with pytest.raises(ValueError) as explicit:
            resolve_backend(name)
        monkeypatch.setenv(BACKEND_ENV_VAR, name)
        with pytest.raises(ValueError) as from_env:
            resolve_backend(None)
        for exc in (explicit, from_env):
            message = str(exc.value)
            assert f"unknown backend {name!r}" in message
            assert "reference (" in message and "scipy-highs (" in message

    def test_result_status_vocabulary_enforced(self):
        with pytest.raises(ValueError, match="unknown status"):
            SolverResult(status="solved", backend="x")

    def test_require_optimal_error_names_context_backend_and_status(self):
        result = SolverResult(
            status="timeout", backend="reference", message="time limit"
        )
        with pytest.raises(SolverError) as exc:
            result.require_optimal("LP1")
        assert str(exc.value) == (
            "LP1: backend 'reference' returned timeout (time limit)"
        )
        ok = SolverResult(
            status="optimal", backend="reference", objective=0.0,
            x=np.zeros(0),
        )
        assert ok.require_optimal("LP1") is ok

    def test_solve_ir_counts_solves_by_backend_and_status(self):
        lp = LinearProgram.build(
            [1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0],
            lb=[0.0], ub=[5.0],
        )
        labels = {"backend": "reference", "status": "infeasible"}
        before = OBS.value("repro_backend_solves_total", labels)
        result = solve_ir(lp, backend="reference")
        assert result.status == "infeasible" and result.elapsed > 0.0
        assert OBS.value("repro_backend_solves_total", labels) == before + 1

    def test_capture_solves_event_keeps_warm_keys(self):
        # perfbench/layers.py reads warm_start_used/structure_hit from
        # every captured event.
        lp = LinearProgram.build(
            [1.0], a_ub=[[1.0]], b_ub=[1.0], lb=[0.0], ub=[2.0]
        )
        with capture_solves() as events:
            solve_ir(lp, backend="reference")
        (event,) = events
        assert event["backend"] == "reference"
        assert event["kind"] == "lp" and event["status"] == "optimal"
        assert event["warm_start_used"] is False
        assert event["structure_hit"] is False

    def test_capture_solves_nested_scopes_see_only_their_own(self):
        lp = LinearProgram.build(
            [1.0], a_ub=[[1.0]], b_ub=[1.0], lb=[0.0], ub=[2.0]
        )
        with capture_solves() as outer:
            solve_ir(lp, backend="reference")
            with capture_solves() as inner:
                solve_ir(lp, backend="scipy-highs")
            solve_ir(lp.relaxed(), backend="scipy-highs")
        solve_ir(lp, backend="reference")  # outside every scope
        assert [e["backend"] for e in outer] == ["reference", "scipy-highs"]
        assert [e["backend"] for e in inner] == ["scipy-highs"]


# ----------------------------------------------------------------------
# The reference backend's own limits
# ----------------------------------------------------------------------
class TestReferenceBackend:
    def test_zero_time_limit_reports_timeout(self):
        for lp in (_chain_lp(4.0), _knapsack(6.0)):
            result = solve_ir(lp, backend="reference", time_limit=0.0)
            assert result.status == "timeout"
            assert result.x is None and result.objective is None
            with pytest.raises(SolverError, match="timeout"):
                result.require_optimal()

    def test_node_limit_reports_error(self):
        # the knapsack's root relaxation is fractional, so branch &
        # bound needs a second node
        result = solve_ir(
            _knapsack(6.0), backend="reference", options={"max_nodes": 1}
        )
        assert result.status == "error"
        assert "exceeded 1 nodes" in result.message
        assert solve_ir(_knapsack(6.0), backend="reference").ok

    def test_free_columns_rejected(self):
        # min x over x >= -3 with x free: scipy-highs solves it, the
        # dense tableau needs a finite lower bound to shift by
        lp = LinearProgram.build(
            [1.0], a_ub=[[-1.0]], b_ub=[3.0], lb=[-np.inf]
        )
        assert solve_ir(lp, backend="scipy-highs").x == pytest.approx(
            [-3.0]
        )
        with pytest.raises(ValueError, match="finite lower bounds"):
            solve_ir(lp, backend="reference")

    def test_oversized_program_rejected(self):
        lp = LinearProgram.build(np.ones(MAX_DENSE_VARS + 1))
        with pytest.raises(ValueError, match="dense limit"):
            solve_ir(lp, backend="reference")
        assert solve_ir(lp, backend="scipy-highs").objective == 0.0


class TestEngineRouting:
    def test_combinatorial_algorithm_rejects_backend(self, tiny_instance):
        from repro.engine import REGISTRY

        with pytest.raises(ValueError, match="combinatorial"):
            REGISTRY.solve(
                "active", "minimal", tiny_instance, 2, backend="reference"
            )

    def test_registry_routes_backend_param(self, tiny_instance):
        from repro.engine import REGISTRY

        default = REGISTRY.solve("active", "rounding", tiny_instance, 2)
        routed = REGISTRY.solve(
            "active", "rounding", tiny_instance, 2, backend="reference"
        )
        assert routed.objective == default.objective

    def test_task_result_records_backend_of_last_solve(
        self, tiny_instance, backend_name
    ):
        from repro.engine import execute_task, make_task

        task = make_task(
            index=0, problem="active", algorithm="rounding", g=2,
            instance=tiny_instance, params={"backend": backend_name},
        )
        result = execute_task(task)
        assert result.ok
        assert result.metrics["backend"] == backend_name
        assert result.metrics["trace"]["labels"]["backend"] == backend_name
        assert "warm_start_used" not in result.metrics
        assert "structure_hit" not in result.metrics

    def test_combinatorial_task_records_no_backend(self, tiny_instance):
        from repro.engine import execute_task, make_task

        task = make_task(
            index=0, problem="active", algorithm="minimal", g=2,
            instance=tiny_instance,
        )
        result = execute_task(task)
        assert result.ok
        assert "backend" not in result.metrics
        assert "backend" not in result.metrics["trace"]["labels"]

    def test_specs_declare_backend_capability(self):
        from repro.engine import REGISTRY

        by_name = {
            (s.problem, s.name): s.backend_capability for s in REGISTRY.specs()
        }
        assert by_name[("active", "rounding")] == "lp"
        assert by_name[("active", "exact")] == "milp"
        assert by_name[("active", "minimal")] is None
        assert by_name[("busy", "exact")] == "milp"

    def test_sweep_grid_attaches_backend_only_to_lp_solvers(self):
        from repro.engine import SweepGrid, build_sweep_tasks

        grid = SweepGrid(
            problem="active",
            generators=("active",),
            algorithms=("minimal", "rounding"),
            g_values=(3,),
            instances_per_cell=1,
            backend="reference",
        )
        tasks = build_sweep_tasks([grid])
        params = {t.algorithm: t.params for t in tasks}
        assert params["rounding"] == {"backend": "reference"}
        assert params["minimal"] == {}
        # backend feeds the digest of routed tasks only
        plain = build_sweep_tasks(
            [
                SweepGrid(
                    problem="active",
                    generators=("active",),
                    algorithms=("minimal", "rounding"),
                    g_values=(3,),
                    instances_per_cell=1,
                )
            ]
        )
        plain_digests = {t.algorithm: t.digest for t in plain}
        plain_params = {t.algorithm: t.params for t in plain}
        digests = {t.algorithm: t.digest for t in tasks}
        assert digests["minimal"] == plain_digests["minimal"]
        assert digests["rounding"] != plain_digests["rounding"]
        # with no explicit backend, the *effective* default is pinned so
        # cached results always record their producing backend
        assert plain_params["rounding"] == {"backend": "scipy-highs"}

    def test_env_backend_feeds_task_digest(self, monkeypatch):
        from repro.engine import SweepGrid

        grid = SweepGrid(
            problem="active",
            generators=("active",),
            algorithms=("rounding",),
            g_values=(3,),
            instances_per_cell=1,
        )
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert grid.task_params("rounding") == {"backend": "reference"}
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert grid.task_params("rounding") == {"backend": "scipy-highs"}

    def test_sweep_grid_unknown_backend_fails_validation(self):
        from repro.engine import SweepGrid

        grid = SweepGrid(
            problem="active",
            generators=("active",),
            algorithms=("rounding",),
            backend="refrence",
        )
        with pytest.raises(ValueError, match="available backends"):
            grid.validate()
