"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.busytime.unbounded import _solved_placement
from repro.core import Instance, Job


@pytest.fixture(autouse=True)
def _fresh_opt_infinity_memo():
    """Every test, and every fixture set up between tests, starts with an
    empty OPT_inf memo, whatever ran before."""
    _solved_placement.cache_clear()
    yield
    _solved_placement.cache_clear()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG; tests that need variation draw from it."""
    return np.random.default_rng(20140623)  # SPAA 2014 conference date


@pytest.fixture
def tiny_instance() -> Instance:
    """Three small integral jobs used across active-time tests."""
    return Instance.from_tuples([(0, 4, 2), (1, 5, 3), (0, 6, 1)])


@pytest.fixture
def interval_instance() -> Instance:
    """Five interval jobs with a mix of overlaps."""
    return Instance.from_intervals(
        [(0.0, 2.0), (1.0, 3.0), (2.5, 4.0), (0.5, 1.5), (3.0, 5.0)]
    )


@pytest.fixture
def clique_instance() -> Instance:
    """Interval jobs all crossing t = 2."""
    return Instance.from_intervals(
        [(0.0, 3.0), (1.0, 4.0), (1.5, 2.5), (0.5, 3.5)]
    )
