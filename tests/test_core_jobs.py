"""Unit tests for the job/instance model (repro.core.jobs)."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.core import Instance, Job

from oracles import (
    active_jobs_at,
    is_clique,
    is_laminar,
    is_proper,
    raw_demand_at,
)


class TestJobConstruction:
    def test_basic_fields(self):
        j = Job(release=1, deadline=5, length=2, id=7, label="x")
        assert j.release == 1
        assert j.deadline == 5
        assert j.length == 2
        assert j.id == 7
        assert j.label == "x"

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="length"):
            Job(0, 4, 0)
        with pytest.raises(ValueError, match="length"):
            Job(0, 4, -1)

    def test_rejects_window_too_small(self):
        with pytest.raises(ValueError, match="cannot fit"):
            Job(0, 2, 3)

    def test_window_exactly_fits(self):
        j = Job(0, 3, 3)
        assert j.is_interval

    def test_real_valued_job(self):
        j = Job(0.5, 1.7, 0.4)
        assert not j.is_interval
        assert j.slack == pytest.approx(0.8)

    def test_slotted_and_frozen(self):
        j = Job(0, 4, 2, id=3)
        assert not hasattr(j, "__dict__")
        with pytest.raises(FrozenInstanceError):
            j.length = 1


class TestPickling:
    """Jobs cross every process boundary (pool workers, the cache, serve)."""

    def test_job_round_trip_keeps_equality_and_label(self):
        j = Job(0.5, 4.0, 2.5, id=9, label="rigid")
        for clone in (pickle.loads(pickle.dumps(j)), copy.deepcopy(j)):
            assert clone == j and clone.label == "rigid"
            assert (clone.release, clone.deadline, clone.length, clone.id) == (
                0.5, 4.0, 2.5, 9
            )

    def test_instance_round_trip_keeps_equality_and_labels(self, tiny_instance):
        inst = Instance(
            tuple(
                Job(j.release, j.deadline, j.length, id=j.id, label=f"j{j.id}")
                for j in tiny_instance
            )
        )
        inst.horizon  # a cached value travels with the instance
        clone = pickle.loads(pickle.dumps(inst))
        assert clone == inst and hash(clone) == hash(inst)
        assert [j.label for j in clone] == ["j0", "j1", "j2"]
        assert clone.horizon == 6 and clone.is_integral


class TestJobGeometry:
    def test_window(self):
        assert Job(1, 6, 2).window == (1, 6)

    def test_window_length(self):
        assert Job(1, 6, 2).window_length == 5

    def test_slack_zero_for_interval(self):
        assert Job(2, 5, 3).slack == 0

    def test_is_unit(self):
        assert Job(0, 3, 1).is_unit
        assert not Job(0, 3, 2).is_unit


class TestSlottedView:
    def test_feasible_slots(self):
        # window [1, 4) -> slots {2, 3, 4}
        assert list(Job(1, 4, 1).feasible_slots()) == [2, 3, 4]

    def test_paper_example_unit_release1_deadline2(self):
        # Paper: release 1, deadline 2 -> schedulable in slot 2, not slot 1.
        j = Job(1, 2, 1)
        assert list(j.feasible_slots()) == [2]
        assert not j.is_live_in_slot(1)
        assert j.is_live_in_slot(2)

    def test_integral_window_rejects_floats(self):
        with pytest.raises(ValueError, match="not integral"):
            Job(0.5, 3.5, 1).integral_window()

    def test_integral_length_rejects_floats(self):
        with pytest.raises(ValueError, match="not integral"):
            Job(0, 3, 1.5).integral_length()

    def test_live_slots_match_window(self):
        j = Job(2, 6, 2)
        assert [t for t in range(1, 9) if j.is_live_in_slot(t)] == [3, 4, 5, 6]


class TestContinuousView:
    def test_is_live_at(self):
        j = Job(1.0, 3.0, 2.0)
        assert j.is_live_at(1.0)
        assert j.is_live_at(2.5)
        assert not j.is_live_at(3.0)
        assert not j.is_live_at(0.5)

    def test_can_start_at(self):
        j = Job(1, 6, 2)
        assert j.can_start_at(1)
        assert j.can_start_at(4)
        assert not j.can_start_at(4.5)
        assert not j.can_start_at(0.5)

    def test_as_interval_job(self):
        j = Job(1, 6, 2, id=3)
        pinned = j.as_interval_job(2.5)
        assert pinned.is_interval
        assert pinned.release == 2.5
        assert pinned.deadline == 4.5
        assert pinned.id == 3

    def test_as_interval_job_rejects_bad_start(self):
        with pytest.raises(ValueError):
            Job(1, 6, 2).as_interval_job(5)

    def test_shifted(self):
        j = Job(1, 6, 2).shifted(10)
        assert j.window == (11, 16)


class TestInstanceConstruction:
    def test_from_tuples_assigns_ids(self):
        inst = Instance.from_tuples([(0, 2, 1), (1, 3, 2)])
        assert [j.id for j in inst.jobs] == [0, 1]

    def test_from_intervals(self):
        inst = Instance.from_intervals([(0.0, 1.5), (2.0, 3.0)])
        assert inst.all_interval
        assert inst.jobs[0].length == 1.5

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Instance((Job(0, 2, 1, id=1), Job(0, 3, 1, id=1)))

    def test_empty_instance(self):
        inst = Instance(tuple())
        assert inst.n == 0
        assert inst.total_length == 0
        assert inst.latest_deadline == 0.0


class TestInstanceAggregates:
    def test_total_length(self, tiny_instance):
        assert tiny_instance.total_length == 6

    def test_horizon(self, tiny_instance):
        assert tiny_instance.horizon == 6

    def test_horizon_rejects_non_integral(self):
        inst = Instance.from_intervals([(0.0, 1.5)])
        with pytest.raises(ValueError):
            inst.horizon
        with pytest.raises(ValueError):  # an error is not cached
            inst.horizon

    def test_horizon_and_integrality_are_computed_once(self):
        inst = Instance.from_tuples([(0, 4, 2), (1, 7, 3)])
        assert inst.horizon == 7 and inst.is_integral
        assert vars(inst) == {
            "jobs": inst.jobs, "horizon": 7, "is_integral": True
        }

    def test_earliest_release_latest_deadline(self, tiny_instance):
        assert tiny_instance.earliest_release == 0
        assert tiny_instance.latest_deadline == 6

    def test_len_iter_getitem(self, tiny_instance):
        assert len(tiny_instance) == 3
        assert [j.id for j in tiny_instance] == [0, 1, 2]
        assert tiny_instance[1].length == 3


class TestInstancePredicates:
    def test_all_interval(self, interval_instance, tiny_instance):
        assert interval_instance.all_interval
        assert not tiny_instance.all_interval

    def test_all_unit(self):
        assert Instance.from_tuples([(0, 2, 1), (1, 4, 1)]).all_unit
        assert not Instance.from_tuples([(0, 2, 2)]).all_unit

    def test_is_integral(self, tiny_instance):
        assert tiny_instance.is_integral
        assert not Instance.from_intervals([(0.0, 1.5)]).is_integral

    def test_is_clique(self, clique_instance, interval_instance):
        assert is_clique(clique_instance)
        assert not is_clique(interval_instance)

    def test_is_proper(self):
        proper = Instance.from_intervals([(0, 2), (1, 3), (2, 4)])
        assert is_proper(proper)
        improper = Instance.from_intervals([(0, 5), (1, 2)])
        assert not is_proper(improper)

    def test_is_laminar(self):
        laminar = Instance.from_intervals([(0, 10), (1, 4), (5, 9), (2, 3)])
        assert is_laminar(laminar)
        crossing = Instance.from_intervals([(0, 3), (2, 5)])
        assert not is_laminar(crossing)


class TestInstanceQueries:
    def test_active_jobs_at(self, interval_instance):
        assert {j.id for j in active_jobs_at(interval_instance, 1.2)} == {0, 1, 3}

    def test_raw_demand_at(self, interval_instance):
        assert raw_demand_at(interval_instance, 1.2) == 3

    def test_job_by_id(self, tiny_instance):
        assert tiny_instance.job_by_id(1).length == 3
        with pytest.raises(KeyError):
            tiny_instance.job_by_id(99)

    def test_without(self, tiny_instance):
        rest = tiny_instance.without([0, 2])
        assert {j.id for j in rest} == {1}

    def test_event_points(self, tiny_instance):
        assert tiny_instance.event_points() == [0, 1, 4, 5, 6]

    def test_describe_mentions_shape(self, tiny_instance):
        text = tiny_instance.describe()
        assert "n=3" in text and "integral" in text
