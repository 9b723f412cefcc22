"""Velocity-moment reductions against closed-form and continuum oracles."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from hypothesis import given, settings
from hypothesis import strategies as st
from math import erf, exp, pi, sqrt

from angiosolve import (
    GridSpec,
    HeatPlan,
    ParameterError,
    PhaseField,
    ShapeError,
    SignError,
    accumulate_time_integral,
    heat_step,
    moments_of,
    second_moment,
    speed_moment,
    vector_speed_moment,
    velocity_marginal,
)

from conftest import gaussian_phase

SIGMA = 0.05


def test_single_cell_moments_are_exact():
    # an indicator of one cell reduces by hand: each moment is the weight of
    # that cell's centre times the quadrature weight h_v
    g = GridSpec(dim_x=1, dim_v=1, n_x=16, n_v=16, half_width_x=8.0, half_width_v=8.0)
    vals = np.zeros(g.phase_shape)
    ix0, iv0 = 4, 11
    vals[ix0, iv0] = 1.0
    p = PhaseField(g, vals, time_tag=0.25)
    v_c = g.v_coords()[iv0]
    assert v_c == 3.0

    ms = moments_of(p)
    expect = np.zeros(g.spatial_shape)
    expect[ix0] = g.h_v
    np.testing.assert_array_equal(ms.p_tilde.values, expect)
    np.testing.assert_array_equal(ms.j.values, 3.0 * expect)
    np.testing.assert_array_equal(ms.m.values, 9.0 * expect)
    assert ms.time_tag == 0.25
    assert (ms.p_tilde.role, ms.j.role, ms.m.role) == ("p_tilde", "j", "m")

    comps, mag = vector_speed_moment(p)
    np.testing.assert_array_equal(comps[0].values, 3.0 * expect)
    np.testing.assert_array_equal(mag.values, 3.0 * expect)


def test_constant_density_moments_closed_form():
    """p = 1: the lattice sums collapse to closed forms.

    On the node lattice -L + i h the speed sum telescopes to exactly L^2
    (|v| is piecewise linear with kinks on nodes, where the periodic
    trapezoid rule is exact), and the squared-speed sum is
    2 L^3 / 3 + L h^2 / 3.
    """
    g = GridSpec(dim_x=1, dim_v=1, n_x=64, n_v=64, half_width_x=8.0, half_width_v=8.0)
    p = PhaseField(g, np.ones(g.phase_shape))
    np.testing.assert_allclose(velocity_marginal(p).values, 16.0, rtol=1e-14)
    np.testing.assert_allclose(speed_moment(p).values, 64.0, rtol=1e-14)
    np.testing.assert_allclose(second_moment(p).values, 341.5, rtol=1e-14)


def test_gaussian_moments_match_folded_normal():
    # product density with v ~ N(1.3, 0.5): the marginal and the polynomial
    # moments are spectrally exact, the |v| moment converges at O(h^2)
    # because the weight has a kink where the density is not negligible
    mu, var = 1.3, 0.5
    sig = sqrt(var)
    e_abs = sig * sqrt(2.0 / pi) * exp(-mu * mu / (2.0 * var)) + mu * erf(mu / (sig * sqrt(2.0)))
    e_sq = mu * mu + var

    errs = {}
    for n in (64, 128, 256):
        g = GridSpec(dim_x=1, dim_v=1, n_x=n, n_v=n,
                     half_width_x=8.0, half_width_v=8.0)
        p = gaussian_phase(g, center_x=-1.0, center_v=mu, var_x=0.5, var_v=var)
        gx = p.values.sum(axis=1) * g.h_v  # marginal profile, mass already 1
        ms = moments_of(p)
        np.testing.assert_allclose(ms.p_tilde.values, gx, rtol=0, atol=1e-14)
        np.testing.assert_allclose(ms.m.values, e_sq * gx, rtol=1e-13)
        comps, _ = vector_speed_moment(p)
        np.testing.assert_allclose(comps[0].values, mu * gx, rtol=1e-13)
        errs[n] = float(np.abs(ms.j.values - e_abs * gx).max()) / e_abs
    assert errs[64] < 5e-4
    assert 3.5 < errs[64] / errs[128] < 4.5
    assert 3.5 < errs[128] / errs[256] < 4.5


def test_marginal_commutes_with_heat_flow():
    # velocity diffusion leaves the zero v-mode alone, so reducing after a
    # full phase-space heat step equals stepping the reduced field in x only
    g = GridSpec(dim_x=1, dim_v=1, n_x=64, n_v=64, half_width_x=8.0, half_width_v=8.0)
    p = gaussian_phase(g)
    lhs = velocity_marginal(heat_step(p, 0.7, HeatPlan(g, SIGMA, "xv")))
    rhs = heat_step(velocity_marginal(p), 0.7, HeatPlan(g, SIGMA, "x"))
    np.testing.assert_allclose(lhs.values, rhs.values, rtol=0, atol=1e-13)
    assert lhs.time_tag == rhs.time_tag == 0.7


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_cauchy_schwarz_slack_nonnegative(seed):
    # (sum |v| p)^2 <= (sum p)(sum v^2 p) holds for the lattice sums of any
    # nonnegative p, so the normalised slack can only go negative by round-off
    g = GridSpec(dim_x=1, dim_v=1, n_x=16, n_v=16, half_width_x=8.0, half_width_v=8.0)
    rng = np.random.default_rng(seed)
    p = PhaseField(g, rng.random(g.phase_shape))
    ms = moments_of(p)
    assert ms.cauchy_schwarz_slack() >= -1e-12

    comps, mag = vector_speed_moment(p)
    assert float((speed_moment(p).values - mag.values).min()) >= -1e-12


def test_cauchy_schwarz_slack_zero_field():
    g = GridSpec(dim_x=1, dim_v=1, n_x=16, n_v=16, half_width_x=8.0, half_width_v=8.0)
    ms = moments_of(PhaseField(g, np.zeros(g.phase_shape)))
    assert ms.cauchy_schwarz_slack() == 0.0


def test_accumulate_time_integral_trapezoid_exact():
    # trapezoid is exact for series that are constant or linear in time
    g = GridSpec(dim_x=1, dim_v=1, n_x=16, n_v=16, half_width_x=8.0, half_width_v=8.0)
    base = 1.0 + np.linspace(0.0, 1.0, 16)
    dt = 0.125
    nodes = np.arange(7)

    const = np.broadcast_to(base, (7, 16))
    out = accumulate_time_integral(const, dt)
    np.testing.assert_allclose(out, nodes[:, None] * dt * base[None, :], rtol=1e-14)

    ramp = nodes[:, None] * dt * base[None, :]
    out = accumulate_time_integral(ramp, dt)
    np.testing.assert_allclose(out, 0.5 * (nodes[:, None] * dt) ** 2 * base[None, :],
                               rtol=1e-14)

    # the arithmetic of scipy's cumulative trapezoid, bit for bit, down to
    # the few nodes of one iteration window
    rng = np.random.default_rng(5)
    for n_nodes in (1, 2, 3, 9):
        series = rng.random((n_nodes, 16))
        np.testing.assert_array_equal(
            accumulate_time_integral(series, dt),
            cumulative_trapezoid(series, dx=dt, axis=0, initial=0.0))


def test_accumulate_time_integral_validation():
    with pytest.raises(ParameterError):
        accumulate_time_integral(np.ones((3, 4)), 0.0)
    with pytest.raises(ParameterError):
        accumulate_time_integral(np.ones((3, 4)), -0.1)
    with pytest.raises(ShapeError):
        accumulate_time_integral(np.ones(5), 0.1)

    bad = np.ones((3, 4))
    bad[2, 1] = -1e-3
    with pytest.raises(SignError, match=r"\(2, 1\)"):
        accumulate_time_integral(bad, 0.1)

    # round-off negatives (relative to the series scale) are clamped,
    # keeping every column nondecreasing
    noisy = np.ones((4, 4))
    noisy[1, 2] = -1e-16
    out = accumulate_time_integral(noisy, 0.1)
    assert out.min() >= 0.0
    assert (np.diff(out, axis=0) >= 0.0).all()
