"""Shared fixtures: the expensive shipped-scenario runs happen once per
session and every test module picks at them."""

from __future__ import annotations

import numpy as np
import pytest

from angiosolve import GridSpec, PhaseField, load_shipped_scenario
from angiosolve.scenarios import realise


def small_grid(n=64, dim_x=1, dim_v=1, L=8.0):
    return GridSpec(dim_x=dim_x, dim_v=dim_v, n_x=n, n_v=n,
                    half_width_x=L, half_width_v=L)


def gaussian_phase(grid, center_x=-1.0, center_v=1.3, var_x=0.5, var_v=0.5,
                   mass=1.0):
    """Separable Gaussian bump, periodized over the nearest images."""
    def g1(coords, c, var, L):
        out = np.zeros_like(coords)
        for shift in (-2.0 * L, 0.0, 2.0 * L):
            out = out + np.exp(-(coords + shift - c) ** 2 / (2.0 * var))
        return out / np.sqrt(2.0 * np.pi * var)

    vals = np.multiply.outer(
        g1(grid.x_coords(), center_x, var_x, grid.half_width_x),
        g1(grid.v_coords(), center_v, var_v, grid.half_width_v),
    )
    return PhaseField(grid, mass * vals, nonnegative=True)


@pytest.fixture(scope="session")
def grid64():
    return small_grid(64)


@pytest.fixture(scope="session")
def zero_fix():
    sc = load_shipped_scenario("zero")
    made = realise(sc)
    traj, _, diag = made.drive()
    return {"scenario": sc, "p0": made.p0, "traj": traj, "diag": diag}


@pytest.fixture(scope="session")
def pure_fix():
    sc = load_shipped_scenario("pure-gaussian")
    made = realise(sc)
    traj, _, diag = made.drive()
    return {"scenario": sc, "p0": made.p0, "traj": traj, "diag": diag}


@pytest.fixture(scope="session")
def coupled_fix():
    sc = load_shipped_scenario("coupled-ramp")
    made = realise(sc)
    p_traj, c_traj, diag = made.drive()
    return {"scenario": sc, "p0": made.p0, "c0": made.c0,
            "p_traj": p_traj, "c_traj": c_traj, "diag": diag}


@pytest.fixture(scope="session")
def smoke_fix():
    sc = load_shipped_scenario("coupled-smoke-2d")
    made = realise(sc)
    p_traj, c_traj, diag = made.drive()
    return {"scenario": sc, "p0": made.p0, "c0": made.c0,
            "p_traj": p_traj, "c_traj": c_traj, "diag": diag}
