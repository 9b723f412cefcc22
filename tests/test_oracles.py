"""Reference solvers checked against closed forms and each other."""

import math

import numpy as np
import pytest

from angiosolve import (
    CoefficientTrack,
    ConfigurationError,
    GridSpec,
    HeatPlan,
    OracleError,
    ParameterError,
    PhaseField,
    Schedule,
    ShapeError,
    SignError,
    SpatialField,
    duhamel_reference,
    fd_reference,
    heat_step,
    load_shipped_scenario,
    solve_linear,
    uniqueness_probe,
    volterra_fundamental,
)

from conftest import gaussian_phase

SIGMA = 0.05


def _damping(grid):
    a = np.exp(-grid.x_coords()[:, None] ** 2 / 8.0) * np.ones(grid.n_v)[None, :]
    return PhaseField(grid, a)


# --------------------------------------------------------------------------
# finite-difference referee


def test_fd_reference_stability_guard(grid64):
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.1, dt=0.05, save_stride=1)
    track = CoefficientTrack(sched, grid64)
    # limit for this lattice: 0.9 / (2 sigma (1/h_x^2 + 1/h_v^2)) = 0.28125
    with pytest.raises(ParameterError):
        fd_reference(p0, track, SIGMA, 0.3)
    with pytest.raises(ParameterError):
        fd_reference(p0, track, SIGMA, -0.001)


def test_fd_reference_divisibility(grid64):
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.1, dt=0.05, save_stride=1)
    track = CoefficientTrack(sched, grid64)
    with pytest.raises(ConfigurationError):
        fd_reference(p0, track, SIGMA, 0.0003)  # misses t_end
    with pytest.raises(ConfigurationError):
        fd_reference(p0, track, SIGMA, 0.1 / 3.0)  # hits t_end, misses t=0.05
    other = GridSpec(dim_x=1, dim_v=1, n_x=16, n_v=16,
                     half_width_x=8.0, half_width_v=8.0)
    with pytest.raises(ShapeError):
        fd_reference(PhaseField(other, np.zeros(other.phase_shape)), track, SIGMA, 0.01)


def test_fd_reference_second_order_in_space():
    """The stencil referee converges at O(h^2) towards the spectral solve.

    fine_dt is tied to h^2, so the explicit-Euler O(fine_dt) part refines in
    lockstep and the observed ratio stays 4 per halving.
    """
    errs = {}
    for n in (32, 64, 128):
        g = GridSpec(dim_x=1, dim_v=1, n_x=n, n_v=n,
                     half_width_x=8.0, half_width_v=8.0)
        p0 = gaussian_phase(g, var_x=1.6, var_v=1.6)
        sched = Schedule(t_end=0.2, dt=0.1, save_stride=1)
        track = CoefficientTrack(sched, g, a=_damping(g))
        fd = fd_reference(p0, track, SIGMA, g.h_x ** 2 / 20.0)
        # near-exact spectral run: dt small enough that splitting error is
        # far below the stencil error under test
        sched_f = Schedule(t_end=0.2, dt=0.0025, save_stride=40)
        ref = solve_linear(p0, CoefficientTrack(sched_f, g, a=_damping(g)), SIGMA)
        scale = float(np.abs(ref.fields[-1].values).max())
        errs[n] = max(float(np.abs(a.values - b.values).max())
                      for a, b in zip(fd.fields[1:], ref.fields[1:])) / scale
    assert errs[32] < 1.5e-3
    assert 3.6 < errs[32] / errs[64] < 4.4
    assert 3.6 < errs[64] / errs[128] < 4.4


# --------------------------------------------------------------------------
# Duhamel (mild solution) referee


def test_duhamel_without_damping_is_exact_heat(grid64):
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.1, dt=0.01, save_stride=5)
    du = duhamel_reference(p0, CoefficientTrack(sched, grid64), SIGMA)
    plan = HeatPlan(grid64, SIGMA, "xv")
    for f in du.fields:
        oracle = heat_step(p0, f.time_tag, plan)
        np.testing.assert_allclose(f.values, oracle.values, rtol=0, atol=1e-14)


def test_duhamel_constant_damping_closed_form(grid64):
    # uniform a: p(t) = e^{-a t} G(t) p0; the trapezoid sweep agrees to its
    # own O(dt^2) quadrature error
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.1, dt=0.01, save_stride=5)
    track = CoefficientTrack(sched, grid64, a=1.0 + np.zeros(grid64.phase_shape))
    du = duhamel_reference(p0, track, SIGMA)
    plan = HeatPlan(grid64, SIGMA, "xv")
    worst = 0.0
    for f in du.fields:
        oracle = math.exp(-f.time_tag) * heat_step(p0, f.time_tag, plan).values
        worst = max(worst, float(np.abs(f.values - oracle).max()) / math.exp(-f.time_tag))
    assert worst < 1e-6


def test_solver_approaches_duhamel_at_second_order(grid64):
    """Splitting and trapezoid-Duhamel differ by O(dt^2) on a shared schedule.

    Both discretisations are second-order consistent with entirely different
    error terms, so their gap must itself shrink quadratically.
    """
    p0 = gaussian_phase(grid64)
    diffs = {}
    for dt in (0.04, 0.02, 0.01):
        sched = Schedule(t_end=0.2, dt=dt, save_stride=max(1, int(round(0.04 / dt))))
        track = CoefficientTrack(sched, grid64, a=_damping(grid64))
        du = duhamel_reference(p0, track, SIGMA)
        sol = solve_linear(p0, track, SIGMA)
        diffs[dt] = max(float(np.abs(a.values - b.values).max())
                        for a, b in zip(sol.fields[1:], du.fields[1:]))
    slope = np.polyfit([math.log(d) for d in diffs],
                       [math.log(e) for e in diffs.values()], 1)[0]
    assert 1.7 < slope < 2.3
    assert diffs[0.01] < 1e-6


def test_duhamel_raises_when_sweep_cannot_contract(grid64):
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.5, dt=0.05, save_stride=5)
    track = CoefficientTrack(sched, grid64, a=40.0 + np.zeros(grid64.phase_shape))
    with pytest.raises(OracleError):
        duhamel_reference(p0, track, SIGMA, max_sweeps=20)


# --------------------------------------------------------------------------
# Volterra fundamental-solution oracle


def _tiny_grid():
    return GridSpec(dim_x=1, dim_v=1, n_x=32, n_v=32,
                    half_width_x=2.0, half_width_v=2.0)


def _heat_kernel(grid, sigma, t):
    delta = np.zeros(grid.phase_shape)
    delta[tuple(s // 2 for s in grid.phase_shape)] = 1.0 / grid.cell_volume
    return HeatPlan(grid, sigma, "xv").apply(delta, t, "phase")


def test_volterra_constant_coefficient_closed_form():
    # uniform a: Gamma(t) = e^{-a t} G(t) delta, an exact identity the
    # collocation sweep must reproduce far below the 1e-8 certification bar
    g = _tiny_grid()
    res = volterra_fundamental(np.full(g.spatial_shape, 1.5), 0.2, g, 0.3)
    exact = math.exp(-1.5 * 0.3) * _heat_kernel(g, 0.2, 0.3)
    rel = float(np.abs(res.field.values - exact).max() / exact.max())
    assert rel < 1e-10
    assert res.sweeps > 0
    assert res.source_cell == (16, 16)


def test_volterra_without_coefficient_is_heat_kernel():
    # the oracle flows spectrally; the 32-point plan's apply flows through
    # per-axis matrices, within 1e-14 of the sup of the spectral flow
    g = _tiny_grid()
    res = volterra_fundamental(None, 0.2, g, 0.3)
    kernel = _heat_kernel(g, 0.2, 0.3)
    np.testing.assert_allclose(res.field.values, kernel, rtol=0.0,
                               atol=1e-14 * float(kernel.max()))
    assert res.sweeps == 0 and res.history == ()


def test_volterra_bump_coefficient_is_certified():
    """Spatially varying damping: 0 < Gamma <= G and the envelope fit holds."""
    g = _tiny_grid()
    sigma, t = 0.3, 0.4
    a = 1.5 * np.exp(-g.x_coords() ** 2 / 0.5)
    res = volterra_fundamental(a, sigma, g, t, keep_history=True)
    kernel = _heat_kernel(g, sigma, t)
    vals = res.field.values
    assert float(vals.min()) > 0.0
    assert float((kernel - vals).min()) >= -1e-14 * float(kernel.max())
    assert len(res.history) == res.sweeps
    # the recorded endpoint iterates have converged
    tail_gap = float(np.abs(res.history[-1].values - res.history[-2].values).max())
    assert tail_gap < 1e-10 * float(vals.max())

    # independent rebuild of the Gaussian envelope at the fitted (C, gamma)
    assert math.isfinite(res.fit_c) and res.fit_c > 0.0
    assert 0.0 < res.fit_gamma < 1.0 / (4.0 * sigma)
    coords = g.x_coords()
    d = np.abs(coords - coords[16])
    d = np.minimum(d, 4.0 - d)
    d2 = (d ** 2)[:, None] + (d ** 2)[None, :]
    envelope = (res.fit_c * math.exp(res.fit_c * t) / t
                * np.exp(-res.fit_gamma * d2 / t))
    assert float((envelope - vals).min()) >= -1e-10 * float(envelope.max())


def test_volterra_is_independent_of_the_global_seed():
    # the interpolation weights are fixed in closed form, so the numpy
    # global RNG (which scipy would draw a product order from) cannot move
    # the result, not even in the last bit
    g = _tiny_grid()
    a = 1.5 * np.exp(-g.x_coords() ** 2 / 0.5)
    state = np.random.get_state()
    try:
        fields = []
        for seed in (0, 1, 2):
            np.random.seed(seed)
            fields.append(volterra_fundamental(a, 0.3, g, 0.4).field.values)
    finally:
        np.random.set_state(state)
    np.testing.assert_array_equal(fields[0], fields[1])
    np.testing.assert_array_equal(fields[0], fields[2])


def test_volterra_validation():
    g = _tiny_grid()
    with pytest.raises(ParameterError):
        volterra_fundamental(None, 0.0, g, 0.3)
    with pytest.raises(ParameterError):
        volterra_fundamental(None, 0.2, g, -0.3)
    with pytest.raises(ParameterError):
        volterra_fundamental(None, 0.2, g, 0.3, n_nodes=4)
    with pytest.raises(ParameterError):
        volterra_fundamental(None, 0.2, g, 0.3, source_cell=(99, 0))
    with pytest.raises(SignError):
        volterra_fundamental(np.full(g.spatial_shape, -1.0), 0.2, g, 0.3)
    big = GridSpec(dim_x=1, dim_v=1, n_x=64, n_v=64, half_width_x=2.0, half_width_v=2.0)
    with pytest.raises(ConfigurationError):
        volterra_fundamental(None, 0.2, big, 0.3)
    other = GridSpec(dim_x=1, dim_v=1, n_x=16, n_v=16, half_width_x=2.0, half_width_v=2.0)
    with pytest.raises(ShapeError):
        volterra_fundamental(SpatialField(other, np.ones(other.spatial_shape)),
                             0.2, g, 0.3)


def test_volterra_sweep_stall_raises():
    g = _tiny_grid()
    with pytest.raises(OracleError):
        volterra_fundamental(np.full(g.spatial_shape, 50.0), 0.2, g, 1.0,
                             max_sweeps=3)


# --------------------------------------------------------------------------
# fixed-point uniqueness probe

_SHRINK = ("grid.n_x=64", "grid.n_v=64", "schedule.t_end=0.2", "schedule.dt=0.002",
           "schedule.save_stride=20", "initial_p.variance_x=0.5",
           "initial_p.variance_v=0.5", "params.epsilon=2.5")


def test_uniqueness_probe_pure_seeds_coincide():
    # the two seed iterations for the uncoupled driver are exact shifts of
    # one another, so the probe lands on zero rather than just below tol
    sc = load_shipped_scenario("pure-gaussian", overrides=_SHRINK)
    assert uniqueness_probe(sc, tol=1e-9) == 0.0


def test_uniqueness_probe_coupled_seeds_agree():
    sc = load_shipped_scenario("coupled-ramp",
                               overrides=_SHRINK + ("initial_c.width=1.6",))
    assert uniqueness_probe(sc, tol=1e-9) < 1e-9


def test_uniqueness_probe_requires_convergence():
    sc = load_shipped_scenario("pure-gaussian",
                               overrides=_SHRINK + ("picard.k_max=2",))
    with pytest.raises(OracleError):
        uniqueness_probe(sc, tol=1e-12)
