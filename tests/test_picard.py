"""Fixed-point drivers against closed-form nonlinear solutions."""

import itertools
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import cosh, exp, sqrt
from pathlib import Path

from angiosolve import picard, stepping
from angiosolve import (
    CoefficientTrack,
    ConfigurationError,
    GridSpec,
    HeatPlan,
    ModelParams,
    ParameterError,
    PhaseField,
    Schedule,
    ShapeError,
    SignError,
    SpatialField,
    accumulate_time_integral,
    alpha_of_c,
    heat_step,
    integrate_phase,
    picard_coupled,
    picard_pure,
    solve_linear,
)
from angiosolve.grid import Product
from angiosolve.moments import _reduce_raw
from angiosolve.scenarios import load_shipped_scenario, realise, run_scenario

from conftest import gaussian_phase

SIGMA = 0.05


def _params(**overrides):
    base = dict(sigma=SIGMA, d=0.05, gamma=1.0, eta=1.0, alpha1=0.5,
                c_R=1.0, epsilon=2.5, v0=(1.3,))
    base.update(overrides)
    return ModelParams(**base)


def _flat_in_x(grid, var_v=0.5, centre=1.3):
    """Density constant in x, periodized Gaussian in v with unit marginal."""
    v = grid.v_coords()
    gv = np.zeros_like(v)
    for k in (-1, 0, 1):
        gv += np.exp(-(v - centre - 16.0 * k) ** 2 / (2 * var_v)) \
            / np.sqrt(2 * np.pi * var_v)
    gv /= gv.sum() * grid.h_v
    return PhaseField(grid, np.broadcast_to(gv, grid.phase_shape).copy())


def _c_bump(grid):
    x = grid.x_coords()
    vals = np.zeros_like(x)
    for k in (-1, 0, 1):
        vals += np.exp(-(x - 2.0 - 16.0 * k) ** 2 / 4.0)
    return SpatialField(grid, 1.0 + 0.5 * vals, role="c")


# --------------------------------------------------------------------------
# model parameters and pointwise coupling terms


def test_model_params_validation():
    _params()  # baseline constructs
    for name in ("sigma", "d", "gamma", "eta", "c_R", "epsilon"):
        with pytest.raises(ParameterError):
            _params(**{name: 0.0})
        with pytest.raises(ParameterError):
            _params(**{name: -1.0})
    with pytest.raises(ParameterError):
        _params(alpha1=-0.1)
    _params(alpha1=0.0)  # switching the production off is legal
    with pytest.raises(ParameterError):
        _params(v0=(np.nan,))
    assert _params(v0=1.3).v0 == (1.3,)  # scalar is promoted to a tuple
    assert _params(v0=(1.0, 2.0)).v0 == (1.0, 2.0)


def test_alpha_of_c_values(grid64):
    c = SpatialField(grid64, np.full(grid64.spatial_shape, 1.0), role="c")
    a = alpha_of_c(c, 0.5, 1.0)
    np.testing.assert_allclose(a.values, 0.25, rtol=1e-15)  # c = c_R -> half
    assert a.role == "alpha_of_c"
    big = alpha_of_c(SpatialField(grid64, np.full(grid64.spatial_shape, 1e9)), 0.5, 1.0)
    assert float(big.values.max()) < 0.5  # saturates strictly below alpha1


def test_alpha_of_c_validation(grid64):
    c = SpatialField(grid64, np.ones(grid64.spatial_shape))
    with pytest.raises(ParameterError):
        alpha_of_c(c, 0.5, 0.0)
    with pytest.raises(ParameterError):
        alpha_of_c(c, -0.5, 1.0)
    dirty = np.ones(grid64.spatial_shape)
    dirty[3] = -1e-3
    with pytest.raises(SignError):
        alpha_of_c(SpatialField(grid64, dirty), 0.5, 1.0)


def test_production_rate_takes_its_concentration_under_the_sign_rule():
    # the coupled iterate's track and the energy source read the raw rate,
    # with no field check after it: a concentration below zero by round-off
    # gives a rate of exactly zero there, and one beyond the clamping
    # tolerance (1e-12 of sup c) is refused
    c = np.linspace(0.0, 2.0, 64)
    c[5] = -1e-14
    rate = picard._alpha_raw(c, 0.5, 1.0, "probe")
    assert rate[5] == 0.0 and rate.min() == 0.0
    c[5] = -3e-12
    with pytest.raises(SignError, match="probe concentration"):
        picard._alpha_raw(c, 0.5, 1.0, "probe")


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
def test_alpha_of_c_is_lipschitz(c1, c2):
    # |alpha(c1) - alpha(c2)| <= (alpha1 / c_R) |c1 - c2| for c >= 0
    alpha1, c_R = 0.7, 0.3
    a1 = alpha1 * c1 / (c_R + c1)
    a2 = alpha1 * c2 / (c_R + c2)
    assert abs(a1 - a2) <= (alpha1 / c_R) * abs(c1 - c2) + 1e-15


def _march_c(c, j, d, eta, dt):
    """The drive's concentration march over one step from no depletion:
    (c at node 1, depletion at node 1)."""
    plan = HeatPlan(c.grid, d, "x")
    c_inf = picard._c_inf_nodes(c.values, plan, 1, dt)
    j_nodes = np.stack([j.values, j.values])
    c_nodes, chat = picard._advance_c_nodes(np.zeros(c.grid.spatial_shape), c_inf,
                                           j_nodes, eta, dt, plan)
    return c_nodes[1], chat


def test_advance_c_without_consumption_is_heat(grid64):
    c = _c_bump(grid64)
    j = SpatialField(grid64, np.zeros(grid64.spatial_shape))
    out, chat = _march_c(c, j, 0.05, 1.0, 0.25)
    oracle = heat_step(c, 0.25, HeatPlan(grid64, 0.05, "x"))
    np.testing.assert_allclose(out, oracle.values, rtol=0, atol=1e-15)
    assert float(np.abs(chat).max()) <= 1e-15


def test_advance_c_constant_consumption_exact(grid64):
    # constant j commutes with the heat flow, so the splitting is exact:
    # c(t + dt) = exp(-eta J dt) * heat(c)
    c = _c_bump(grid64)
    j = SpatialField(grid64, np.full(grid64.spatial_shape, 2.0))
    out, chat = _march_c(c, j, 0.05, 0.7, 0.25)
    free = heat_step(c, 0.25, HeatPlan(grid64, 0.05, "x")).values
    np.testing.assert_allclose(out, np.exp(-0.7 * 2.0 * 0.25) * free, rtol=1e-14)
    # consumption only ever lowers the heat flow
    assert float((free - out).min()) >= 0.0
    np.testing.assert_array_equal(chat, out - free)


def test_advance_c_validation(grid64):
    # a negative speed moment would produce attractant: the march's
    # depletion guard stops it at the first node instead of clamping it
    c = _c_bump(grid64)
    j = SpatialField(grid64, np.full(grid64.spatial_shape, -1.0))
    with pytest.raises(SignError, match="depletion at node 1"):
        _march_c(c, j, 0.05, 1.0, 0.1)


def test_concentration_march_restarts_bit_for_bit(grid64, monkeypatch):
    # far from a moving consumption bump the depletion comes out of a step
    # positive by round-off and is clamped, and c is rebuilt from the clamped
    # depletion; the next step must march that c, so a march restarted from
    # node k's returned (c, chat) gives nodes k+1 onward bit for bit
    plan = HeatPlan(grid64, 0.05, "x")
    x = grid64.x_coords()
    n, dt, eta = 8, 0.01, 1.0
    c_inf = picard._c_inf_nodes(1.0 + np.exp(-x ** 2), plan, n, dt)
    j = np.stack([np.exp(-(x - 1.0 - 0.1 * i) ** 2) for i in range(n + 1)])
    clamped = []
    clean = picard.apply_sign

    def spy(values, sign, what, **kwargs):
        out = clean(values, sign, what, **kwargs)
        if sign < 0 and out is not values:
            clamped.append(int(what.rsplit(" ", 1)[1]))
        return out

    monkeypatch.setattr(picard, "apply_sign", spy)
    chat0 = np.zeros(grid64.spatial_shape)
    full, _ = picard._advance_c_nodes(chat0, c_inf, j, eta, dt, plan)
    assert clamped == list(range(1, n + 1))
    for k in (1, 4, n - 1):
        head, chat_k = picard._advance_c_nodes(chat0, c_inf[:k + 1], j[:k + 1],
                                               eta, dt, plan)
        assert head.tobytes() == full[:k + 1].tobytes()
        rest, _ = picard._advance_c_nodes(chat_k, c_inf[k:], j[k:], eta, dt, plan)
        assert rest[1:].tobytes() == full[k + 1:].tobytes()


def test_depletion_clamp_keeps_a_long_2d_run_below_its_far_field():
    # the march and the one-shot far field round apart a little every step;
    # the clamp written back into the march repairs that before it builds
    # up, and without it 150 steps of the 2+2 smoke run lift c above its
    # far field by 2e-12 of sup c0, beyond c_bounds' 1e-12
    sc = load_shipped_scenario("coupled-smoke-2d", overrides=(
        "schedule.t_end=0.3", "schedule.save_stride=50"))
    code, payload = run_scenario(sc)
    (c_bounds,) = [c for c in payload["checks"] if c["name"] == "c_bounds"]
    assert c_bounds["verdict"] == "pass", c_bounds
    assert code == 0


# --------------------------------------------------------------------------
# iteration windows


def test_windows_are_the_shorter_of_two_steps_and_the_contraction_bound():
    # no damping bound: windows of _WINDOW_STEPS, the last one shorter
    assert picard._windows(10, 0.1, 0.0) == [0, 2, 4, 6, 8, 10]
    assert picard._windows(9, 0.1, 0.0) == [0, 2, 4, 6, 8, 9]
    # a bound of 5 steps (0.5 / sqrt(1) / 0.1) or more leaves two
    assert picard._windows(9, 0.1, 1.0) == [0, 2, 4, 6, 8, 9]
    assert picard._windows(9, 0.01, 4.0) == [0, 2, 4, 6, 8, 9]
    # a bound of exactly one step (0.5 / sqrt(25) / 0.1 = 1), and absurdly
    # strong damping, still leave one step per window
    assert picard._windows(3, 0.1, 25.0) == [0, 1, 2, 3]
    assert picard._windows(3, 0.1, 1e9) == [0, 1, 2, 3]
    assert picard._windows(1, 0.1, 0.0) == [0, 1]


def test_shipped_runs_iterate_on_windows_of_two_steps(pure_fix, coupled_fix, smoke_fix):
    # every shipped bound allows two steps or more, so each run's time axis
    # is cut in twos
    for fix, n_windows in ((pure_fix, 500), (coupled_fix, 500), (smoke_fix, 25)):
        sched, diag = fix["scenario"].schedule, fix["diag"]
        assert len(diag.k_per_slab) == n_windows
        assert diag.slab_edges == [i * sched.dt for i in range(0, sched.n_steps + 1, 2)]


def test_seed_continues_a_quadratic_and_floors_at_zero():
    # the backward-difference continuation is exact for quadratics, starts
    # at the last converged node and never goes negative
    nodes = np.arange(5.0)
    series = np.stack([1.0 - 0.5 * nodes + 0.25 * nodes ** 2] * 2, axis=1)
    seed = picard._seed(series[:3], 2)
    assert seed.shape == (3, 2)
    np.testing.assert_array_equal(seed[0], series[2])
    np.testing.assert_allclose(seed, series[2:], rtol=0, atol=1e-15)
    falling = np.array([[3.0], [2.0], [1.0]])
    np.testing.assert_array_equal(picard._seed(falling, 2).ravel(), [1.0, 0.0, 0.0])


def test_summarise_iterates_counts_windows_per_iterate_count():
    assert picard.summarise_iterates([4] + [2] * 499) == "500 window(s): 499x2, 1x4"
    assert picard.summarise_iterates([3, 3]) == "2 window(s): 2x3"


# The discrete fixed point is defined node by node, so it cannot depend on
# where the windows are cut: any windows no longer than the paper's
# contraction slab, each seeded from the windows before it, must converge
# to the run iterated on the paper's slabs themselves.  The shared window
# loop and its seeds rely on this.
_PARTITION_TOL = 1e-9
_PAPER_MAX = 15  # longest drawn window; both paper slabs below are >= this


@pytest.fixture(scope="module")
def paper_partition_runs():
    g = GridSpec(dim_x=1, dim_v=1, n_x=64, n_v=64, half_width_x=8.0, half_width_v=8.0)
    p0, c0 = _flat_in_x(g), _c_bump(g)
    params = _params(gamma=9.0)
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    # with no step cap the windows are the paper's slabs themselves
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(picard, "_WINDOW_STEPS", sched.n_steps)
        pure, d_pure = picard_pure(p0, params, sched, tol=_PARTITION_TOL)
        p_c, c_c, d_c = picard_coupled(p0, c0, params, sched, tol=_PARTITION_TOL)
    for diag in (d_pure, d_c):
        assert diag.converged
        assert round(diag.slab_edges[1] / sched.dt) >= _PAPER_MAX
    return (p0, c0, params, sched), pure, (p_c, c_c)


def _max_relative_gap(a, b):
    np.testing.assert_allclose(a.times, b.times, rtol=0, atol=1e-12)
    scale = max(float(np.abs(f.values).max()) for f in b.fields)
    return max(float(np.abs(x.values - y.values).max())
               for x, y in zip(a.fields, b.fields)) / scale


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(1, _PAPER_MAX), min_size=1, max_size=6),
       st.sampled_from(["heat", "zero"]))
def test_fixed_point_does_not_depend_on_slab_partition(paper_partition_runs, lengths,
                                                       init):
    (p0, c0, params, sched), pure_ref, (p_ref, c_ref) = paper_partition_runs

    def windows(n_steps, dt, sup_m):
        out = [0]
        for length in itertools.cycle(lengths):
            if out[-1] == n_steps:
                return out
            out.append(min(n_steps, out[-1] + length))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(picard, "_windows", windows)
        pure, d_pure = picard_pure(p0, params, sched, tol=_PARTITION_TOL,
                                   init=init)
        p_c, c_c, d_c = picard_coupled(p0, c0, params, sched, tol=_PARTITION_TOL,
                                       init=init)
    assert d_pure.converged and d_c.converged
    assert len(d_pure.k_per_slab) == len(d_c.k_per_slab) == len(windows(50, 0.01, 0.0)) - 1
    assert _max_relative_gap(pure, pure_ref) <= 10 * _PARTITION_TOL
    assert _max_relative_gap(p_c, p_ref) <= 10 * _PARTITION_TOL
    assert _max_relative_gap(c_c, c_ref) <= 10 * _PARTITION_TOL


# --------------------------------------------------------------------------
# pure driver


def test_picard_pure_matches_sech_squared_solution(grid64):
    """x-constant data turns the nonlocal problem into a Riccati ODE.

    With p0(x, v) = g(v) of unit marginal the accumulated integral solves
    A' = m0 - gamma A^2 / 2, giving p(t) = heat(p0) * sech(b t)^2 with
    b = sqrt(gamma m0 / 2).  The converged iterate must match to the
    splitting accuracy O(dt^2).
    """
    p0 = _flat_in_x(grid64)
    params = _params()
    plan = HeatPlan(grid64, SIGMA, "xv")
    b = sqrt(params.gamma / 2.0)  # m0 = 1 by construction
    errs = {}
    for dt in (0.02, 0.01):
        sched = Schedule(t_end=0.5, dt=dt, save_stride=int(round(0.1 / dt)))
        traj, diag = picard_pure(p0, params, sched, tol=1e-10)
        assert diag.converged and diag.deltas_strictly_decreasing()
        worst = 0.0
        for f in traj.fields:
            exact = heat_step(p0, f.time_tag, plan).values / cosh(b * f.time_tag) ** 2
            worst = max(worst, float(np.abs(f.values - exact).max() / exact.max()))
        errs[dt] = worst
    assert errs[0.01] < 5e-6
    assert 3.4 < errs[0.02] / errs[0.01] < 4.6


def test_picard_pure_small_mass_deviation_scales_quadratically(grid64):
    # the nonlinear correction to the free flow is O(mass^2): halving the
    # initial mass must quarter the deviation
    params = _params()
    plan = HeatPlan(grid64, SIGMA, "xv")
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    devs = {}
    for mu in (1e-3, 5e-4):
        p0 = gaussian_phase(grid64, mass=mu)
        traj, _ = picard_pure(p0, params, sched, tol=1e-12)
        devs[mu] = max(float(np.abs(f.values - heat_step(p0, f.time_tag, plan).values).max())
                       for f in traj.fields)
    assert 3.6 < devs[1e-3] / devs[5e-4] < 4.4


def test_picard_pure_seeds_share_the_fixed_point(grid64):
    # the zero seed's iterate k equals the heat seed's iterate k-1 (the
    # first real solve sees the same coefficient), so the converged
    # trajectories agree exactly, not just to tolerance
    p0 = _flat_in_x(grid64)
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    t_heat, _ = picard_pure(p0, _params(), sched, tol=1e-10, init="heat")
    t_zero, _ = picard_pure(p0, _params(), sched, tol=1e-10, init="zero")
    dev = max(float(np.abs(a.values - b.values).max())
              for a, b in zip(t_heat.fields, t_zero.fields))
    assert dev == 0.0


def test_picard_pure_multi_slab_stitching(grid64):
    # strong damping forces paper slabs of 16 steps, iterated on windows of
    # two; the stitched trajectory must still report exactly the schedule's
    # saved times
    p0 = _flat_in_x(grid64)
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    traj, diag = picard_pure(p0, _params(gamma=9.0), sched, tol=1e-9)
    assert diag.slab_edges == [i * 0.01 for i in range(0, 51, 2)]
    assert len(diag.k_per_slab) == 25 and diag.converged
    np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-12)
    masses = [integrate_phase(f) for f in traj.fields]
    assert all(b > a for b, a in zip(masses, masses[1:]))  # damping only removes
    # accumulated integral at the saved times: zero at t=0, nondecreasing
    # columns
    a = traj.aux["a"]
    assert a.shape == (6,) + grid64.spatial_shape
    assert float(np.abs(a[0]).max()) == 0.0
    assert float(np.diff(a, axis=0).min()) >= 0.0


def test_reported_integral_is_that_of_the_saved_marginals(grid64):
    # at stride 1 every node is saved, so a driver's aux["a"], the integral
    # it damps with, is the running trapezoid of its saved fields' own
    # marginals, up to round-off, across every window restart
    p0, c0 = gaussian_phase(grid64), _c_bump(grid64)
    sched = Schedule(t_end=0.1, dt=0.01, save_stride=1)
    pure, _ = picard_pure(p0, _params(gamma=9.0), sched, tol=1e-10)
    coupled, _, _ = picard_coupled(p0, c0, _params(gamma=9.0), sched, tol=1e-10)
    for traj in (pure, coupled):
        marginals = np.stack([_reduce_raw(f.values, grid64) for f in traj.fields])
        ref = accumulate_time_integral(marginals, sched.dt)
        a = traj.aux["a"]
        assert a.shape == ref.shape == (11,) + grid64.spatial_shape
        assert float(np.abs(a - ref).max()) <= 1e-13 * float(ref.max())


def test_picard_pure_flags_non_convergence(grid64):
    p0 = _flat_in_x(grid64)
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    traj, diag = picard_pure(p0, _params(gamma=9.0), sched, k_max=2, tol=1e-12)
    assert not diag.converged
    assert diag.k_per_slab == [2] * 25
    assert len(traj) == 6  # the trajectory is still delivered


def test_picard_pure_validation(grid64):
    p0 = _flat_in_x(grid64)
    sched = Schedule(t_end=0.1, dt=0.01, save_stride=10)
    with pytest.raises(ParameterError):
        picard_pure(p0, _params(), sched, init="midpoint")
    with pytest.raises(ParameterError):
        picard_pure(p0, _params(), sched, k_max=1)
    with pytest.raises(ParameterError):
        picard_pure(p0, _params(), sched, tol=1.5)


@pytest.mark.parametrize("case", ["pure-product", "pure-phase", "coupled"])
def test_saved_times_count_from_p0s_own_tag(grid64, case):
    # every window restarts at p0's tag plus its node time, so the saved
    # times run on from p0's tag across the restarts and never fall back
    # to node * dt; a product p0 restarts from its factors, any other p0
    # and every coupled run from a phase field
    one = gaussian_phase(grid64).values
    vals = one if case != "pure-phase" else (
        one + gaussian_phase(grid64, center_x=1.5, center_v=-1.0).values)
    p0 = PhaseField(grid64, vals, time_tag=5.0)
    sched = Schedule(t_end=0.1, dt=0.01, save_stride=1)
    if case == "coupled":
        p_traj, c_traj, diag = picard_coupled(p0, _c_bump(grid64), _params(), sched)
        assert np.array_equal(c_traj.times, p_traj.times)
    else:
        p_traj, diag = picard_pure(p0, _params(gamma=9.0), sched)
        assert diag.factored_step_solves == (
            diag.phase_step_solves if case == "pure-product" else 0)
    assert diag.converged and len(diag.k_per_slab) == 5
    times = p_traj.times
    assert np.all(np.diff(times) > 0.0)
    expected = 5.0 + np.arange(11) * 0.01
    assert np.all(np.abs(times - expected) <= 4 * np.spacing(expected))
    assert [f.time_tag for f in p_traj.fields] == times.tolist()


@pytest.mark.parametrize("case", ["pure-product", "pure-phase", "coupled"])
@pytest.mark.parametrize("stride", [3, 7])
@pytest.mark.parametrize("init", ["heat", "zero"])
def test_drive_yields_each_saved_node_once_from_marches_that_hand_back_their_end(
        grid64, monkeypatch, case, stride, init):
    # node 0 is the data themselves, and each window's march is asked only
    # for the run's saved nodes after its start: every field it returns is
    # handed out, and the window restarts from the end state the march
    # hands back, which is the final field that march would have saved
    one = gaussian_phase(grid64).values
    vals = one if case != "pure-phase" else (
        one + gaussian_phase(grid64, center_x=1.5, center_v=-1.0).values)
    p0 = PhaseField(grid64, vals, time_tag=5.0)
    c0 = _c_bump(grid64) if case == "coupled" else None
    sched = Schedule(t_end=0.1, dt=0.01, save_stride=stride)
    solve, ends = picard.solve_linear, []

    def checking_solve(start, track, sigma, **kwargs):
        traj = solve(start, track, sigma, **kwargs)
        n = track.schedule.n_steps
        if n not in kwargs["saved_nodes"]:
            full = solve(start, track, sigma, **{**kwargs, "saved_nodes": [n]})
            end = traj.aux["end"]
            if isinstance(end, Product):
                assert np.array_equal(end.field().values, full.final.values)
            else:
                assert np.array_equal(end.values, full.final.values)
            assert end.time_tag == full.final.time_tag
            ends.append(type(end))
        return traj

    monkeypatch.setattr(picard, "solve_linear", checking_solve)
    params = _params() if c0 is not None else _params(gamma=9.0)
    items = list(picard.DriveStream(p0, c0, params, sched, 20, 1e-8, init))
    nodes = sched.saved_nodes()
    assert len(items) == len(nodes)
    expected = 5.0 + np.array(nodes) * 0.01
    times = np.array([item[0] for item in items])
    assert np.all(np.abs(times - expected) <= 4 * np.spacing(expected))
    t0, first, c_first, a_first = items[0]
    assert t0 == 5.0 and first is p0 and not a_first.any()
    for t, p_field, c_field, _ in items:
        assert p_field.time_tag == t
        assert c_field is None if c0 is None else c_field.time_tag == t
    if c0 is not None:
        assert c_first.role == "c" and np.array_equal(c_first.values, c0.values)
    # the windows of two steps end on an unsaved node somewhere at either stride
    march = Product if case == "pure-product" else PhaseField
    assert ends and set(ends) == {march}


def test_an_overflowing_production_bound_is_a_parameter_error(grid64):
    # exp(alpha1 * sup rho * t_end) beyond the largest float leaves no
    # window length; the drive says so before it hands out anything
    sup_rho = picard.velocity_profile(grid64, _params()).sup_norm
    sched = Schedule(t_end=0.1, dt=0.01)
    with pytest.raises(ParameterError, match="overflows"):
        picard_coupled(_flat_in_x(grid64), _c_bump(grid64),
                       _params(alpha1=720.0 / (sup_rho * 0.1)), sched)
    assert picard.production_growth(700.0 / 0.1, 0.1) == exp(700.0)


def _count_factor_xv(monkeypatch):
    # the drive factors p0 itself; solve_linear never tries to
    from angiosolve import grid, stepping
    assert not hasattr(stepping, "factor_xv")
    calls = []
    factor = grid.factor_xv

    def counting_factor(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    for module in (grid, picard):
        monkeypatch.setattr(module, "factor_xv", counting_factor)
    return calls


def test_pure_drive_carries_a_products_factors(monkeypatch):
    # a product p0 is factored once and every iterate marches the factors
    # the last window handed back, so the drive builds a phase field only
    # at a saved time after node 0, whose field is p0's own (no window with
    # a saved node marches more than its one seeded iterate)
    from angiosolve import grid
    made = realise(load_shipped_scenario("pure-gaussian"))
    calls = {"PhaseField": 0}
    init = grid.PhaseField.__init__

    def counting_init(self, *args, **kwargs):
        calls["PhaseField"] += 1
        init(self, *args, **kwargs)

    factor_calls = _count_factor_xv(monkeypatch)
    monkeypatch.setattr(grid.PhaseField, "__init__", counting_init)
    traj, _, diag = made.drive()
    assert len(factor_calls) == 1
    assert len(traj) == len(made.scenario.schedule.saved_nodes()) == 21
    assert traj.fields[0] is made.p0
    assert calls["PhaseField"] == len(traj) - 1
    assert diag.factored_step_solves == diag.phase_step_solves == 1004


def test_pure_drive_tries_to_factor_other_data_once(grid64, monkeypatch):
    # two bumps are no product: the drive's one attempt fails and every
    # iterate takes the phase march, with no further attempt
    p0 = PhaseField(grid64, gaussian_phase(grid64).values
                    + gaussian_phase(grid64, center_x=1.5, center_v=-1.0).values)
    calls = _count_factor_xv(monkeypatch)
    _, diag = picard_pure(p0, _params(gamma=9.0), Schedule(t_end=0.1, dt=0.01))
    assert len(calls) == 1 and calls[0][0] is p0
    assert len(diag.k_per_slab) == 5
    # init = heat marches every iterate, each over its window's two steps
    assert diag.phase_step_solves == 2 * sum(diag.k_per_slab)
    assert diag.factored_step_solves == 0


def test_pure_run_marches_each_iterate_once_on_its_factors(grid64, monkeypatch):
    # every pure iterate is one march that records the marginal alone; on
    # product data it marches the factors and takes the marginal from them,
    # so the stepper makes no reduction of a phase field
    from angiosolve import stepping
    counts = {"reductions": 0}
    records = []
    reduce_raw, solve = stepping._reduce_raw, picard.solve_linear

    def counting_reduce(*args, **kwargs):
        counts["reductions"] += 1
        return reduce_raw(*args, **kwargs)

    def counting_solve(p0, track, *args, **kwargs):
        records.append(kwargs.get("record"))
        return solve(p0, track, *args, **kwargs)

    monkeypatch.setattr(stepping, "_reduce_raw", counting_reduce)
    monkeypatch.setattr(picard, "solve_linear", counting_solve)
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    _, diag = picard_pure(_flat_in_x(grid64), _params(gamma=9.0), sched)
    assert diag.converged and len(diag.k_per_slab) == 25
    assert records == ["p_tilde"] * sum(diag.k_per_slab)
    assert counts["reductions"] == 0


def _marginal_march_drive(monkeypatch):
    """Make the pure iterate's record the marginal marched on the position
    lattice: the same Strang steps of the start's marginal in the "x" plan
    of the iterate's own plan, as the drive iterated it before each pure
    iterate became one march of the density.  The last iterate's fields,
    marched with the coefficient the marginals fixed, are then the density
    march that drive made once per window after its iterates."""
    solve = picard.solve_linear

    def marginal_solve(start, track, sigma, *, plan, record, saved_nodes):
        assert record == "p_tilde"
        traj = solve(start, track, sigma, plan=plan, saved_nodes=saved_nodes)
        grid = start.grid
        pt0 = (start.marginal() if isinstance(start, Product)
               else _reduce_raw(start.values, grid))
        march = stepping._march(pt0, stepping._halves(track, grid.spatial_shape),
                                plan.partial("x"), track.schedule.dt,
                                "marched marginal at step")
        traj.p_tilde_nodes = np.stack([pt0, *map(np.copy, march)])
        return traj

    monkeypatch.setattr(picard, "solve_linear", marginal_solve)


@pytest.mark.parametrize("case", ["pure-gaussian", "product", "phase"])
@pytest.mark.parametrize("init", ["heat", "zero"])
def test_pure_fields_are_the_marginal_iterations_density_march(grid64, monkeypatch,
                                                               case, init):
    # recording the marginal off each iterate's own march, instead of
    # marching it on the position lattice, moves the iterates by round-off:
    # every saved field stays within 1e-14 of the sup of the density march
    # the marginal iteration fixed, and the windows take the same iterates
    if case == "pure-gaussian":
        made = realise(load_shipped_scenario(
            "pure-gaussian", overrides=(f"picard.init={init}",)))

        def run():
            traj, _, diag = made.drive()
            return traj, diag
    else:
        one = gaussian_phase(grid64).values
        vals = one if case == "product" else (
            one + gaussian_phase(grid64, center_x=1.5, center_v=-1.0).values)
        p0 = PhaseField(grid64, vals)

        def run():
            return picard_pure(p0, _params(gamma=9.0),
                               Schedule(t_end=0.1, dt=0.01, save_stride=3), init=init)

    traj, diag = run()
    _marginal_march_drive(monkeypatch)
    ref, ref_diag = run()
    assert diag.k_per_slab == ref_diag.k_per_slab
    assert diag.phase_step_solves == ref_diag.phase_step_solves
    assert np.array_equal(traj.times, ref.times) and len(traj) > 2
    scale = max(float(np.abs(f.values).max()) for f in ref.fields)
    for field, ref_field in zip(traj.fields, ref.fields):
        assert np.abs(field.values - ref_field.values).max() <= 1e-14 * scale


def _relative_delta_per_node(fields_a, fields_b):
    # the per-node loop _relative_delta replaced, kept as its reference
    scale = 0.0
    for fa, fb in zip(fields_a, fields_b):
        scale = max(scale, float(np.abs(fa).max()), float(np.abs(fb).max()))
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for fa, fb in zip(fields_a, fields_b):
        worst = max(worst, float(np.abs(fa - fb).max()))
    return worst / scale


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.sampled_from([(8,), (4, 4)]),
       st.sampled_from(["random", "zero", "equal"]), st.integers(0, 2 ** 32 - 1))
def test_relative_delta_reads_stacks_as_the_per_node_loop(n_a, n_b, shape, kind, seed):
    # one pass per stack and one for the difference, bit for bit the loop
    # over the shared nodes; lists of arrays (the uniqueness probe's) too
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_a,) + shape) * 10.0 ** rng.integers(-300, 300)
    b = rng.standard_normal((n_b,) + shape)
    if kind == "zero":
        a, b = np.zeros_like(a), np.zeros_like(b)
    elif kind == "equal":
        b = a[:n_b].copy() if n_b <= n_a else np.concatenate([a, b[n_a:]])
    expected = _relative_delta_per_node(list(a), list(b))
    assert picard._relative_delta(a, b) == expected
    assert picard._relative_delta(list(a), list(b)) == expected
    assert picard._relative_delta(list(a), b) == expected


def test_drivers_count_their_step_solves_exactly(zero_fix, pure_fix, coupled_fix,
                                                 smoke_fix):
    # every marched iterate is one march of the density, a pure run's on
    # the factors of its product data, a coupled run's on the phase
    # lattice.  Seeded windows converge at iterate 2; only the unseeded
    # first one takes more
    def counts(fix):
        diag = fix["diag"]
        return diag.phase_step_solves, diag.factored_step_solves

    # at init = zero (pure-gaussian) a seeded window marches once, at
    # init = heat (zero) twice
    assert counts(pure_fix) == (1004, 1004)
    assert picard.summarise_iterates(pure_fix["diag"].k_per_slab) == (
        "500 window(s): 499x2, 1x4")
    assert counts(coupled_fix) == (1004, 0)
    assert counts(smoke_fix) == (54, 0)
    assert counts(zero_fix) == (100, 100)


def test_a_pure_run_at_init_heat_marches_each_window_twice():
    # the init = heat path, which only zero ships, on pure-gaussian: the
    # first marched iterate is iterate 1, so every window marches one more
    _, _, diag = realise(load_shipped_scenario(
        "pure-gaussian", overrides=("picard.init=heat",))).drive()
    assert (diag.phase_step_solves, diag.factored_step_solves) == (2002, 2002)
    assert picard.summarise_iterates(diag.k_per_slab) == "500 window(s): 499x2, 1x3"
    assert diag.converged and diag.deltas_strictly_decreasing()


_BENCH_COUNTER = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import angiosolve
from angiosolve import scenarios
from angiosolve.scenarios import load_shipped_scenario, realise
import tracing
from tracing import Tracer, install

# every call the benchmark wraps must still be there to wrap
for mod, name, _ in tracing.FUNCTIONS:
    getattr(getattr(angiosolve, mod), name)
for mod, cls, name, _ in tracing.METHODS:
    vars(getattr(getattr(angiosolve, mod), cls))[name]
print("resolved", len(tracing.FUNCTIONS) + len(tracing.METHODS))

# the benchmark's own call, untraced and then traced
short = load_shipped_scenario("coupled-ramp",
                              ("schedule.t_end=0.05", "schedule.save_stride=5"))
plain, _ = scenarios.run_scenario(short, out_dir={plain!r})
tracer = Tracer(record=True)
install(tracer)
traced, _ = scenarios.run_scenario(short, out_dir={traced!r})
print("run", plain, traced, tracer.step_solves,
      realise(short).drive()[2].phase_step_solves, len(tracer.spans) > 0)

for name in ("pure-gaussian", "coupled-ramp"):
    made = realise(load_shipped_scenario(
        name, ("schedule.t_end=0.05", "schedule.save_stride=5")))
    before = tracer.step_solves
    _, _, diag = made.drive()
    print(name, tracer.step_solves - before, diag.phase_step_solves)
"""


def test_benchmark_step_counter_is_the_drivers_phase_count(tmp_path):
    # the benchmark runs scenarios.run_scenario(..., out_dir) and counts a
    # step-solve per step of every solve_linear call it wraps; that must be
    # the drivers' own count of marched iterate steps, and tracing must not
    # change a byte of the report.  The tracer replaces package functions,
    # so it runs in a process of its own
    root = Path(__file__).resolve().parent.parent
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    script = _BENCH_COUNTER.format(src=str(root / "src"), bench=str(root / "perfbench"),
                                   plain=str(plain), traced=str(traced))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["resolved", "run", "pure-gaussian",
                                        "coupled-ramp"]
    _, plain_code, traced_code, counted, phase, spans = rows[1]
    assert plain_code == traced_code == "0"
    assert int(counted) == int(phase) > 0 and spans == "True"
    for name in ("report.json", "summary.txt"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
    for name, counted, phase in rows[2:]:
        assert int(counted) == int(phase) > 0, name


_BENCH_HOOKS = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from angiosolve import scenarios
import tracing

tracer = tracing.Tracer(record=True)
tracing.install(tracer)
for name, t_end, out in (("zero", "0.01", {zero!r}),
                         ("coupled-smoke-2d", "0.004", {smoke!r})):
    solves, spans = tracer.step_solves, len(tracer.spans)
    scenario = scenarios.load_shipped_scenario(name, ("schedule.t_end=" + t_end,))
    code, _ = scenarios.run_scenario(scenario, out_dir=out)
    print(name, code, tracer.step_solves - solves, len(tracer.spans) - spans)
"""


def test_benchmark_hooks_still_find_what_they_wrap(tmp_path):
    # the benchmark installs its tracer over package functions by name and
    # counts step-solves through solve_linear's positional parameters, as
    # perfbench/child.py does; a renamed function or a moved parameter must
    # fail here, not only in the benchmark.  perfbench/ is only read
    root = Path(__file__).resolve().parent.parent
    script = _BENCH_HOOKS.format(src=str(root / "src"), bench=str(root / "perfbench"),
                                 zero=str(tmp_path / "zero"),
                                 smoke=str(tmp_path / "smoke"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["zero", "coupled-smoke-2d"]
    for name, code, solves, spans in rows:
        assert code == "0" and int(solves) > 0 and int(spans) > 0, name


@pytest.mark.parametrize("coupled", [False, True], ids=["pure", "coupled"])
@pytest.mark.parametrize("init", ["heat", "zero"])
def test_iterate_bookkeeping_for_every_driver_and_init(grid64, coupled, init):
    # every iterate is one pass of the window loop: "zero" counts the seed
    # as iterate 1 and marches from iterate 2, "heat" marches iterate 1 and
    # takes no delta on it
    p0 = _flat_in_x(grid64)
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    if coupled:
        _, _, diag = picard_coupled(p0, _c_bump(grid64), _params(gamma=9.0), sched,
                                    init=init)
    else:
        _, diag = picard_pure(p0, _params(gamma=9.0), sched, init=init)
    assert diag.converged
    assert diag.iterations == sum(diag.k_per_slab)
    edges = [round(t / 0.01) for t in diag.slab_edges]
    steps = [i1 - i0 for i0, i1 in zip(edges, edges[1:])]
    for w, k in enumerate(diag.k_per_slab):
        assert len(diag.deltas_p[w]) == k - 1
        assert len(diag.deltas_c[w]) == (k - 1 if coupled else 0)
    marched = sum((k - (init == "zero")) * n for k, n in zip(diag.k_per_slab, steps))
    assert diag.phase_step_solves == marched


# --------------------------------------------------------------------------
# coupled driver


def test_picard_coupled_without_production_reduces_to_pure(grid64):
    # alpha1 = 0 silences the only feedback of c into p, so the coupled
    # p iterates are the pure ones; the coupled run marches the phase
    # lattice and the pure one this product's factors, so they agree to
    # round-off, not bit for bit
    p0 = _flat_in_x(grid64)
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    p_traj, c_traj, _ = picard_coupled(p0, _c_bump(grid64), _params(alpha1=0.0),
                                       sched, tol=1e-10)
    pure, diag = picard_pure(p0, _params(alpha1=0.0), sched, tol=1e-10, init="zero")
    assert diag.factored_step_solves == diag.phase_step_solves
    assert len(p_traj) == len(pure)
    for a, b in zip(p_traj.fields, pure.fields):
        assert np.abs(a.values - b.values).max() <= 1e-13 * np.abs(b.values).max()


def test_coupled_drive_holds_one_saved_trajectory():
    # the stopping rule reads one window's node series, and an iterate's
    # saved fields go before the next iterate is marched: at its peak the
    # collected run holds the saved trajectory, its integral rows (twice,
    # while they are stacked) and a few step arrays, and no series over
    # the run's nodes
    g = GridSpec(dim_x=1, dim_v=1, n_x=32, n_v=128, half_width_x=8.0, half_width_v=8.0)
    p0, c0 = _flat_in_x(g), _c_bump(g)
    sched = Schedule(t_end=0.32, dt=0.005, save_stride=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        p_traj, _, diag = picard_coupled(p0, c0, _params(gamma=9.0), sched, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert diag.converged and len(diag.k_per_slab) == 32
    traj_bytes = sum(f.values.nbytes for f in p_traj.fields)
    series_bytes = p_traj.aux["a"].nbytes
    assert peak <= traj_bytes + 4 * series_bytes + 8 * p0.values.nbytes


def test_picard_coupled_zero_density_leaves_c_on_heat_flow(grid64):
    # nothing consumes, so c is exactly its far field and the depletion is 0
    c0 = _c_bump(grid64)
    p0 = PhaseField(grid64, np.zeros(grid64.phase_shape))
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    p_traj, c_traj, diag = picard_coupled(p0, c0, _params(), sched, tol=1e-10)
    assert diag.k_per_slab == [2] * 25
    plan_x = HeatPlan(grid64, 0.05, "x")
    for cf in c_traj.fields:
        oracle = heat_step(c0, cf.time_tag, plan_x)
        np.testing.assert_allclose(cf.values, oracle.values, rtol=0, atol=1e-14)


def test_picard_coupled_seeds_agree(grid64):
    p0 = _flat_in_x(grid64)
    c0 = _c_bump(grid64)
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    pA, cA, dA = picard_coupled(p0, c0, _params(), sched, tol=1e-10, init="zero")
    pB, cB, dB = picard_coupled(p0, c0, _params(), sched, tol=1e-10, init="heat")
    assert dA.converged and dB.converged
    dev_p = max(float(np.abs(a.values - b.values).max())
                for a, b in zip(pA.fields, pB.fields))
    dev_c = max(float(np.abs(a.values - b.values).max())
                for a, b in zip(cA.fields, cB.fields))
    assert dev_p < 1e-10
    assert dev_c < 1e-10


def test_picard_coupled_decomposition_and_signs(grid64):
    # c = far field + depletion, with the far field the heat flow of c0,
    # depletion <= 0 (to round-off) and 0 <= c <= sup c0
    p0 = _flat_in_x(grid64)
    c0 = _c_bump(grid64)
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    p_traj, c_traj, diag = picard_coupled(p0, c0, _params(), sched, tol=1e-9)
    assert diag.converged and diag.deltas_strictly_decreasing()
    assert c_traj.aux == {}  # the drive keeps no depletion side series
    sup_c0 = float(c0.values.max())
    plan = HeatPlan(grid64, 0.05, "x")
    chats = [cf.values - plan.apply(c0.values, t, "spatial")
             for cf, t in zip(c_traj.fields, c_traj.times)]
    for cf, chat in zip(c_traj.fields, chats):
        assert float(chat.max()) <= 1e-14 * sup_c0
        assert float(cf.values.min()) >= 0.0
        assert float(cf.values.max()) <= sup_c0 * (1.0 + 1e-12)
    # the consumed attractant actually shows: depletion is strictly negative
    assert float(chats[-1].min()) < -1e-4


def test_coupled_stitching_reports_the_fields_own_time_tags(coupled_fix):
    # after a window restart window start + i*dt and node*dt can differ in
    # the last bit; the saved times and the p and c snapshots all carry the
    # one value the marched fields hold
    p_traj, c_traj = coupled_fix["p_traj"], coupled_fix["c_traj"]
    assert len(coupled_fix["diag"].k_per_slab) == 500
    for k, pf in enumerate(p_traj.fields):
        assert p_traj.times[k] == pf.time_tag
        assert c_traj.times[k] == c_traj.fields[k].time_tag == pf.time_tag
    # each window starts from its own node time, so no rounding builds up
    # over the restarts: every tag is within one ulp of its node's time
    nodes = coupled_fix["scenario"].schedule.times()
    nearest = nodes[np.searchsorted(nodes, p_traj.times - 1e-9)]
    assert np.all(np.abs(p_traj.times - nearest) <= np.spacing(nearest))


def test_picard_coupled_validation(grid64):
    p0 = _flat_in_x(grid64)
    c0 = _c_bump(grid64)
    sched = Schedule(t_end=0.1, dt=0.01, save_stride=10)
    other = GridSpec(dim_x=1, dim_v=1, n_x=16, n_v=16, half_width_x=8.0, half_width_v=8.0)
    with pytest.raises(ShapeError):
        picard_coupled(p0, SpatialField(other, np.ones(other.spatial_shape)),
                       _params(), sched)
    with pytest.raises(ConfigurationError):
        picard_coupled(p0, c0, _params(v0=(1.0, 2.0)), sched)
    with pytest.raises(ParameterError):
        picard_coupled(p0, c0, _params(), sched, init="fancy")
