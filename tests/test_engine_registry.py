"""Tests for the solver registry (repro.engine.registry)."""

import json

import pytest

from repro.busytime import INTERVAL_ALGORITHMS
from repro.cli import _build_parser, main
from repro.engine import (
    REGISTRY,
    SolveOutcome,
    SolverRegistry,
    SolverSpec,
    solve,
)
from repro.engine.registry import (
    DEFAULT_ALGORITHM,
    PROBLEMS,
    backend_task_params,
)
from repro.io import save_instance
from repro.serve import task_request
from repro.serve.server import ServeApp, parse_task_request
from repro.solvers import BACKEND_ENV_VAR, DEFAULT_BACKEND


class TestCompleteness:
    def test_every_active_algorithm_registered(self):
        assert REGISTRY.names("active") == ("exact", "minimal", "rounding", "unit")

    def test_every_interval_algorithm_registered(self):
        expected = tuple(sorted(set(INTERVAL_ALGORITHMS) | {"exact"}))
        assert REGISTRY.names("busy") == expected

    def test_specs_have_metadata(self):
        for spec in REGISTRY.specs():
            assert spec.guarantee
            assert spec.complexity
            assert spec.description
            assert spec.problem in ("active", "busy")

    def test_exact_flags(self):
        assert REGISTRY.get("active", "exact").exact
        assert REGISTRY.get("busy", "exact").exact
        assert not REGISTRY.get("active", "rounding").exact
        assert not REGISTRY.get("busy", "greedy_tracking").exact


class TestDefaultAlgorithm:
    """Every caller that names no algorithm gets the registry's default."""

    def test_table_is_unchanged(self):
        assert DEFAULT_ALGORITHM == {
            "active": "rounding",
            "busy": "greedy_tracking",
        }

    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_every_entry_point_reads_the_table(
        self, problem, tiny_instance, tmp_path, monkeypatch
    ):
        expected = DEFAULT_ALGORITHM[problem]
        REGISTRY.get(problem, expected)  # raises unless registered

        args = _build_parser().parse_args([problem, "x.json", "--g", "2"])
        assert args.algorithm == expected

        monkeypatch.chdir(tmp_path)
        save_instance(tiny_instance, "inst.json")
        assert main(["batch", "inst.json", "--problem", problem, "--g", "2",
                     "--no-cache", "--out", "out.jsonl"]) == 0
        (line,) = (tmp_path / "out.jsonl").read_text().splitlines()
        assert json.loads(line)["algorithm"] == expected

        task = parse_task_request(task_request(tiny_instance, problem, 2))
        assert task.algorithm == expected

        app = ServeApp()
        try:
            defaults = app.algos_payload()["defaults"]["algorithm"]
        finally:
            app.close()
        assert defaults[problem] == expected


class TestBackendRouting:
    """``backend_task_params``: the one routing policy of CLI and sweeps."""

    def test_combinatorial_algorithm_pins_nothing(self):
        assert backend_task_params("active", "minimal", None) == {}

    def test_backend_named_for_a_combinatorial_algorithm_is_refused(self):
        with pytest.raises(ValueError, match="does not use an LP/MILP"):
            backend_task_params("active", "minimal", DEFAULT_BACKEND)

    def test_sweeps_ignore_a_backend_named_for_a_combinatorial_one(self):
        params = backend_task_params(
            "active", "unit", DEFAULT_BACKEND, strict=False
        )
        assert params == {}

    @pytest.mark.parametrize(
        "problem, name",
        [
            ("active", "rounding"),
            ("active", "exact"),
            ("busy", "greedy_tracking"),
            ("busy", "exact"),
        ],
    )
    def test_solver_algorithm_pins_the_resolved_backend(
        self, problem, name, monkeypatch
    ):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert backend_task_params(problem, name, None) == {
            "backend": DEFAULT_BACKEND
        }

    def test_unknown_backend_name_raises_with_the_menu(self):
        with pytest.raises(ValueError, match="available backends"):
            backend_task_params("active", "rounding", "no-such-backend")

    def test_describe_row_columns(self):
        rows = {spec.key: spec.describe_row() for spec in REGISTRY.specs()}
        assert rows[("busy", "exact")][2:4] == ["exact", "milp"]
        assert rows[("active", "minimal")][2:4] == ["3-approx (Thm 1)", "-"]
        assert rows[("active", "rounding")][2:4] == ["2-approx (Thm 2)", "lp"]


class TestDispatch:
    def test_active_matches_direct_call(self, tiny_instance):
        from repro.activetime import minimal_feasible_schedule

        outcome = solve("active", "minimal", tiny_instance, 2)
        direct = minimal_feasible_schedule(tiny_instance, 2)
        assert outcome.objective == pytest.approx(direct.cost)
        assert outcome.schedule is not None
        assert outcome.metrics["lower_bound"] > 0

    def test_busy_matches_direct_call(self, interval_instance):
        from repro.busytime import schedule_flexible

        outcome = solve("busy", "greedy_tracking", interval_instance, 2)
        direct = schedule_flexible(
            interval_instance, 2, algorithm="greedy_tracking"
        )
        assert outcome.objective == pytest.approx(direct.total_busy_time)
        assert outcome.metrics["num_machines"] == direct.num_machines

    def test_busy_flexible_instance_gets_mass_bound(self, tiny_instance):
        # Flexible jobs: the span/profile bounds would raise, so the
        # metric must fall back to the mass bound without erroring.
        outcome = solve("busy", "greedy_tracking", tiny_instance, 2)
        assert outcome.metrics["lower_bound"] == pytest.approx(
            tiny_instance.total_length / 2
        )

    def test_unknown_solver_raises_with_menu(self, tiny_instance):
        with pytest.raises(KeyError, match="registered"):
            REGISTRY.get("active", "does_not_exist")

    def test_unknown_problem_rejected_on_register(self):
        registry = SolverRegistry()
        spec = SolverSpec(
            problem="bogus",
            name="x",
            solve=lambda i, g: SolveOutcome(objective=0.0),
            exact=False,
            guarantee="-",
            complexity="-",
            description="-",
        )
        with pytest.raises(ValueError, match="unknown problem"):
            registry.register(spec)

    def test_duplicate_registration_rejected(self):
        registry = SolverRegistry()
        spec = SolverSpec(
            problem="active",
            name="x",
            solve=lambda i, g: SolveOutcome(objective=0.0),
            exact=False,
            guarantee="-",
            complexity="-",
            description="-",
        )
        registry.register(spec)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(spec)
