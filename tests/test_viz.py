"""Tests for the ASCII renderers (repro.viz)."""

import pytest

from repro import (
    Instance,
    compute_demand_profile,
    exact_active_time,
    greedy_tracking,
)
from repro.viz import (
    WIDTH,
    render_active_schedule,
    render_busy_schedule,
    render_demand_profile,
    render_instance,
)


class TestRenderInstance:
    def test_one_row_per_job(self, interval_instance):
        out = render_instance(interval_instance)
        for j in interval_instance.jobs:
            assert f"j{j.id}" in out

    def test_flexible_jobs_show_slack(self, tiny_instance):
        out = render_instance(tiny_instance)
        assert "." in out  # slack markers
        assert "=" in out  # mass markers

    def test_empty(self):
        assert "empty" in render_instance(Instance(tuple()))

    def test_width_respected(self, interval_instance):
        out = render_instance(interval_instance)
        for line in out.splitlines()[1:]:
            assert len(line.split("|")[1]) == WIDTH  # label |bars|


class TestRenderActive:
    def test_contains_cost_and_slots(self, tiny_instance):
        s = exact_active_time(tiny_instance, 2)
        out = render_active_schedule(s)
        assert f"cost: {s.cost}" in out
        assert "slot" in out

    def test_marks_match_assignment(self, tiny_instance):
        s = exact_active_time(tiny_instance, 2)
        grid = "\n".join(
            line
            for line in render_active_schedule(s).splitlines()
            if line.startswith("j")
        )
        # a unit mark appears once per scheduled unit
        assert grid.count("x") == int(tiny_instance.total_length)

    def test_empty(self):
        from repro.activetime import ActiveTimeSchedule

        out = render_active_schedule(
            ActiveTimeSchedule(Instance(tuple()), 1, tuple(), {})
        )
        assert "empty" in out


class TestRenderBusy:
    def test_machines_and_total(self, interval_instance):
        s = greedy_tracking(interval_instance, 2)
        out = render_busy_schedule(s)
        for k in range(s.num_machines):
            assert f"machine {k}" in out
        assert "total busy time" in out

    def test_busy_markers_present(self, interval_instance):
        s = greedy_tracking(interval_instance, 2)
        assert "^" in render_busy_schedule(s)

    def test_width_respected(self, interval_instance):
        s = greedy_tracking(interval_instance, 2)
        out = render_busy_schedule(s)
        bars = [line for line in out.splitlines() if "|" in line]
        # a row per job and a busy row per machine
        assert len(bars) == interval_instance.n + s.num_machines
        for line in bars:
            assert len(line.split("|")[1]) == WIDTH

    def test_empty(self):
        from repro.busytime import BusyTimeSchedule

        s = BusyTimeSchedule.from_bundle_jobs(Instance(tuple()), 1, [])
        assert "no machines" in render_busy_schedule(s)


class TestRenderProfile:
    def test_levels_stacked(self, interval_instance):
        profile = compute_demand_profile(interval_instance, 2)
        out = render_demand_profile(profile)
        for level in range(1, profile.max_demand + 1):
            assert f"D>={level}" in out

    def test_cost_shown(self, interval_instance):
        profile = compute_demand_profile(interval_instance, 2)
        assert f"cost={profile.cost:g}" in render_demand_profile(profile)

    def test_width_respected(self, interval_instance):
        profile = compute_demand_profile(interval_instance, 2)
        rows = render_demand_profile(profile).splitlines()[1:]
        assert len(rows) == profile.max_demand
        for line in rows:
            assert len(line.split("|")[1]) == WIDTH

    def test_empty(self):
        from repro.busytime import DemandProfile

        profile = DemandProfile(segments=tuple(), raw=tuple(), g=2)
        assert "empty" in render_demand_profile(profile)
