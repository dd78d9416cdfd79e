"""Shared fixtures."""

from __future__ import annotations

import pytest

import wy_stability.cli as cli_module


@pytest.fixture(autouse=True)
def _fresh_grid_basis():
    """Start and end every test with no kept grid and basis.

    Tests that count or replace ``build_grid`` and ``build_basis`` see
    every build, whatever ran before, and a stand-in basis never
    outlives its test.
    """
    cli_module._grid_basis.cache_clear()
    yield
    cli_module._grid_basis.cache_clear()
