"""Shared fixtures."""

import functools

import pytest

from repro.resilience.simulation import run_profile


@pytest.fixture(scope="session")
def profile_run():
    """``profile_run(name, seed)``: one simulation run per pair per session
    (a run is a pure function of them, and several files judge the same one)."""
    return functools.lru_cache(maxsize=None)(run_profile)
