"""Unit tests for precondition helpers (repro.core.validation)."""

import pytest

from repro.core import (
    Instance,
    require_capacity,
    require_integral,
    require_interval_jobs,
    require_unit_jobs,
)


class TestRequireCapacity:
    def test_accepts_positive_int(self):
        assert require_capacity(3) == 3

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            require_capacity(0)
        with pytest.raises(ValueError):
            require_capacity(-2)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            require_capacity(2.0)
        with pytest.raises(TypeError):
            require_capacity(True)


class TestRequireIntegral:
    def test_accepts_integral(self, tiny_instance):
        assert require_integral(tiny_instance) is tiny_instance

    def test_rejects_real(self):
        inst = Instance.from_intervals([(0.0, 1.5)])
        with pytest.raises(ValueError, match="integral"):
            require_integral(inst, "test context")


class TestRequireIntervalJobs:
    def test_accepts_intervals(self, interval_instance):
        assert require_interval_jobs(interval_instance) is interval_instance

    def test_rejects_flexible_and_names_ids(self, tiny_instance):
        with pytest.raises(ValueError, match="flexible job ids"):
            require_interval_jobs(tiny_instance)


class TestRequireUnitJobs:
    def test_accepts_units(self):
        inst = Instance.from_tuples([(0, 3, 1), (1, 2, 1)])
        assert require_unit_jobs(inst) is inst

    def test_rejects_longer(self, tiny_instance):
        with pytest.raises(ValueError, match="unit"):
            require_unit_jobs(tiny_instance)

