"""Unit tests for the active-time LP/IP builder (repro.lp.model)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from scipy import sparse

from repro.core import Instance, Job
from repro.instances import SWEEP_GENERATORS
from repro.lp import build_active_time_model


class TestModelShape:
    def test_variable_count(self, tiny_instance):
        model = build_active_time_model(tiny_instance, g=2)
        pairs = sum(len(j.feasible_slots()) for j in tiny_instance.jobs)
        assert model.num_vars == model.T + pairs
        assert model.T == tiny_instance.horizon

    def test_constraint_count(self, tiny_instance):
        model = build_active_time_model(tiny_instance, g=2)
        pairs = sum(len(j.feasible_slots()) for j in tiny_instance.jobs)
        # pairing constraints + per-slot capacity + per-job coverage
        assert model.a_ub.shape[0] == pairs + model.T + tiny_instance.n

    def test_objective_is_y_only(self, tiny_instance):
        model = build_active_time_model(tiny_instance, g=2)
        assert model.objective[: model.T].sum() == model.T
        assert model.objective[model.T :].sum() == 0

    def test_x_index_covers_windows_only(self, tiny_instance):
        model = build_active_time_model(tiny_instance, g=2)
        for (jid, t) in model.x_index:
            assert tiny_instance.job_by_id(jid).is_live_in_slot(t)


class TestModelSemantics:
    def test_integral_solution_satisfies_system(self, tiny_instance):
        """A hand-built feasible schedule must satisfy A_ub z <= b_ub."""
        model = build_active_time_model(tiny_instance, g=2)
        z = np.zeros(model.num_vars)
        # open all slots, schedule job 0 in {1,2}, job 1 in {2,3,4}, job 2 in {1}
        for t in range(1, model.T + 1):
            z[t - 1] = 1.0  # y_t is column t - 1
        for jid, slots in {0: [1, 2], 1: [2, 3, 4], 2: [1]}.items():
            for t in slots:
                z[model.x_index[(jid, t)]] = 1.0
        assert np.all(model.a_ub @ z <= model.b_ub + 1e-9)

    def test_overfull_slot_violates(self, tiny_instance):
        model = build_active_time_model(tiny_instance, g=1)
        z = np.zeros(model.num_vars)
        z[0] = 1.0  # y_1
        z[model.x_index[(0, 1)]] = 1.0
        z[model.x_index[(2, 1)]] = 1.0  # two jobs in slot 1 with g=1
        assert not np.all(model.a_ub @ z <= model.b_ub + 1e-9)

    def test_unopened_slot_violates(self, tiny_instance):
        model = build_active_time_model(tiny_instance, g=2)
        z = np.zeros(model.num_vars)
        z[model.x_index[(0, 1)]] = 1.0  # x > y = 0
        assert not np.all(model.a_ub @ z <= model.b_ub + 1e-9)

    def test_extract_roundtrip(self, tiny_instance):
        model = build_active_time_model(tiny_instance, g=2)
        z = np.zeros(model.num_vars)
        z[2] = 0.7  # y_3
        z[model.x_index[(1, 3)]] = 0.4
        y, x = model.extract(z)
        assert y[3] == pytest.approx(0.7)
        assert x[(1, 3)] == pytest.approx(0.4)
        assert (0, 1) not in x


class TestLinearProgram:
    """The backend-neutral program the model emits."""

    def test_integral_marks_only_the_y_columns(self, tiny_instance):
        model = build_active_time_model(tiny_instance, g=2)
        lp = model.to_linear_program()
        milp = model.to_linear_program(integral=True)
        for program in (lp, milp):
            assert program.num_vars == model.num_vars
            assert program.num_constraints == len(model.b_ub)
        assert lp.required_capability == "lp"
        assert not lp.integrality_array().any()
        assert milp.required_capability == "milp"
        mask = milp.integrality_array()
        assert mask[: model.T].all() and not mask[model.T :].any()

    def test_bounds_and_mask_are_fresh_copies(self, tiny_instance):
        model = build_active_time_model(tiny_instance, g=2)
        program = model.to_linear_program(integral=True)
        lb, ub = program.bounds_arrays()
        lb[:] = 7.0
        ub[:] = -7.0
        program.integrality_array()[:] = 0
        lb2, ub2 = program.bounds_arrays()
        assert (lb2 == 0.0).all() and (ub2 == 1.0).all()
        assert program.is_milp


class TestValidation:
    def test_rejects_non_integral(self):
        inst = Instance.from_intervals([(0.0, 1.5)])
        with pytest.raises(ValueError):
            build_active_time_model(inst, 1)

    def test_rejects_bad_g(self, tiny_instance):
        with pytest.raises(ValueError):
            build_active_time_model(tiny_instance, 0)


def reference_build(instance: Instance, g: int):
    """The one-triplet-at-a-time builder the vectorized one replaced:
    ``(a_ub, b_ub, objective, x_index)``."""
    T = instance.horizon
    x_index: dict[tuple[int, int], int] = {}
    col = T
    for job in instance.jobs:
        for t in job.feasible_slots():
            x_index[(job.id, t)] = col
            col += 1
    num_vars = col

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    b: list[float] = []
    row = 0
    for (job_id, t), xc in x_index.items():  # x_{t,j} - y_t <= 0
        rows += [row, row]
        cols += [xc, t - 1]
        vals += [1.0, -1.0]
        b.append(0.0)
        row += 1
    per_slot: dict[int, list[int]] = {}
    for (job_id, t), xc in x_index.items():
        per_slot.setdefault(t, []).append(xc)
    for t in range(1, T + 1):  # sum_j x_{t,j} - g y_t <= 0
        for xc in per_slot.get(t, []):
            rows.append(row)
            cols.append(xc)
            vals.append(1.0)
        rows.append(row)
        cols.append(t - 1)
        vals.append(-float(g))
        b.append(0.0)
        row += 1
    for job in instance.jobs:  # -sum_t x_{t,j} <= -p_j
        for t in job.feasible_slots():
            rows.append(row)
            cols.append(x_index[(job.id, t)])
            vals.append(-1.0)
        b.append(-float(job.integral_length()))
        row += 1
    a_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(row, num_vars)).tocsr()
    objective = np.zeros(num_vars)
    objective[:T] = 1.0
    return a_ub, np.asarray(b), objective, x_index


def assert_same_as_reference(instance: Instance, g: int) -> None:
    model = build_active_time_model(instance, g)
    a_ub, b_ub, objective, x_index = reference_build(instance, g)
    assert model.a_ub.shape == a_ub.shape
    for part in ("indptr", "indices", "data"):
        ours, theirs = getattr(model.a_ub, part), getattr(a_ub, part)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), part
    for ours, theirs in ((model.b_ub, b_ub), (model.objective, objective)):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    assert list(model.x_index.items()) == list(x_index.items())  # order too
    assert all(type(a) is int for key in model.x_index for a in key)


@st.composite
def integral_instances(draw):
    jobs = []
    for i in range(draw(st.integers(0, 10))):
        p = draw(st.integers(1, 4))
        r = draw(st.integers(0, 15))
        d = draw(st.integers(r + p, r + p + 6))
        jobs.append(Job(r, d, p, id=draw(st.integers(0, 50)) * 64 + i))
    return Instance(tuple(jobs))


class TestMatchesReferenceBuild:
    """The vectorized builder emits the reference's system entry for entry."""

    @given(integral_instances(), st.integers(1, 5))
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hypothesis_instances(self, inst, g):
        assert_same_as_reference(inst, g)

    @pytest.mark.parametrize("gen", ["active", "tight"])
    @pytest.mark.parametrize("g", [12, 16])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_benchmark_shaped_instances(self, gen, g, seed):
        assert_same_as_reference(SWEEP_GENERATORS[gen](300, 120, g, seed), g)
