import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from angiosolve import (DataError, GridSpec, ParameterError, PhaseField, ShapeError,
                        SignError, SpatialField, integrate_phase, lq_norm,
                        speed_grid, speed_squared_grid)
from angiosolve.grid import FACTOR_REL, Product, apply_sign, factor_xv
from angiosolve.scenarios import build_initial_p

from conftest import gaussian_phase, small_grid


def test_gridspec_validation():
    with pytest.raises(ParameterError):
        GridSpec(dim_x=3, dim_v=1, n_x=64, n_v=64, half_width_x=8, half_width_v=8)
    with pytest.raises(ParameterError):
        GridSpec(dim_x=1, dim_v=1, n_x=48, n_v=64, half_width_x=8, half_width_v=8)
    with pytest.raises(ParameterError):
        GridSpec(dim_x=1, dim_v=1, n_x=4, n_v=64, half_width_x=8, half_width_v=8)
    with pytest.raises(ParameterError):
        GridSpec(dim_x=1, dim_v=1, n_x=64, n_v=64, half_width_x=0.0, half_width_v=8)


def test_grid_geometry():
    g = GridSpec(dim_x=2, dim_v=1, n_x=32, n_v=16, half_width_x=4.0,
                 half_width_v=2.0)
    assert g.h_x == 0.25 and g.h_v == 0.25
    assert g.phase_shape == (32, 32, 16)
    assert g.spatial_shape == (32, 32)
    assert g.x_axes == (0, 1) and g.v_axes == (2,)
    x = g.x_coords()
    assert x[0] == -4.0 and x[-1] == pytest.approx(4.0 - 0.25)
    assert g.cell_volume == pytest.approx(0.25 ** 3)
    assert [g.shape_of(k) for k in ("phase", "spatial", "velocity")] \
        == [(32, 32, 16), (32, 32), (16,)]
    assert [g.cell_volume_of(k) for k in ("phase", "spatial", "velocity")] \
        == [g.cell_volume, g.x_cell_volume, g.v_cell_volume]


def test_field_shape_and_immutability(grid64):
    with pytest.raises(ShapeError):
        PhaseField(grid64, np.zeros((64,)))
    f = PhaseField(grid64, np.ones(grid64.phase_shape))
    with pytest.raises(AttributeError):
        f.values = np.zeros(grid64.phase_shape)
    with pytest.raises(ValueError):
        f.values[0, 0] = 7.0  # read-only buffer


def test_nonnegative_clamp_and_sign_error(grid64):
    vals = np.ones(grid64.phase_shape)
    vals[3, 5] = -1e-14  # within clamp: 1e-12 * max
    f = PhaseField(grid64, vals, nonnegative=True)
    assert f.values[3, 5] == 0.0
    vals[3, 5] = -1e-9
    with pytest.raises(SignError) as err:
        PhaseField(grid64, vals, nonnegative=True)
    assert "(3, 5)" in str(err.value)


@pytest.mark.parametrize("sign, bad", [(+1, np.nan), (-1, np.nan),
                                       (+1, -np.inf), (-1, np.inf)])
def test_sign_rule_reports_non_finite_entries(sign, bad):
    # a NaN slips past every comparison and an infinity on the wrong side
    # widens the clamping tolerance to infinity: neither may be repaired
    vals = sign * np.array([1.0, 2.0, 0.0, 0.5])
    vals[2] = bad
    with pytest.raises(DataError, match=r"marched density has non-finite "
                                        r"entry .* at cell \(2,\)"):
        apply_sign(vals, sign, "marched density")
    # finite data on either side of the rule keep their bits
    vals[2] = -sign * 1e-13
    assert apply_sign(vals, sign, "marched density")[2] == 0.0
    vals[2] = sign * 3.0
    assert apply_sign(vals, sign, "marched density") is vals


def test_integrate_phase_zero_and_constant(grid64):
    assert integrate_phase(PhaseField(grid64, np.zeros(grid64.phase_shape))) == 0.0
    # field == 1 integrates to the box volume (2L_x)^dx * (2L_v)^dv
    one = PhaseField(grid64, np.ones(grid64.phase_shape))
    assert integrate_phase(one) == pytest.approx(16.0 * 16.0, rel=1e-14)


def test_integrate_phase_gaussian_mass_oracle(grid64):
    # oracle: error-function expression for the truncated-Gaussian mass;
    # the periodized images fold the tails back in, so the lattice sum
    # reproduces the full-line mass to far below the quadrature scale.
    p = gaussian_phase(grid64, mass=1.0)
    L, cx, cv = 8.0, -1.0, 1.3
    sx, sv = math.sqrt(0.5), math.sqrt(0.5)

    def truncated(c, s):
        lo, hi = (-L - c) / (s * math.sqrt(2)), (L - c) / (s * math.sqrt(2))
        return 0.5 * (erf(hi) - erf(lo))

    box_mass = truncated(cx, sx) * truncated(cv, sv)
    assert box_mass == pytest.approx(1.0, abs=1e-12)  # tails are tiny here
    assert integrate_phase(p) == pytest.approx(1.0, rel=1e-10)


def test_lq_norm_closed_forms(grid64):
    z = SpatialField(grid64, np.zeros(grid64.spatial_shape))
    for q in (1, 2, np.inf):
        assert lq_norm(z, q) == 0.0
    vals = np.zeros(grid64.spatial_shape)
    vals[10] = 3.0
    assert lq_norm(SpatialField(grid64, vals), np.inf) == 3.0
    one = SpatialField(grid64, np.ones(grid64.spatial_shape))
    # ||1||_2 = sqrt(box volume) over the x-box only
    assert lq_norm(one, 2) == pytest.approx(math.sqrt(16.0), rel=1e-14)
    assert lq_norm(one, 1) == pytest.approx(16.0, rel=1e-14)
    # non-integer q falls back to the generic power sum
    assert lq_norm(one, 3) == pytest.approx(16.0 ** (1 / 3), rel=1e-12)
    with pytest.raises(ParameterError):
        lq_norm(one, 0.5)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=63), st.floats(0.1, 50.0))
def test_lq_norm_scaling_homogeneity(cell, scale):
    g = small_grid(64)
    vals = np.zeros(g.spatial_shape)
    vals[cell] = 1.0
    base = SpatialField(g, vals)
    scaled = SpatialField(g, scale * vals)
    for q in (1, 2, np.inf):
        assert lq_norm(scaled, q) == pytest.approx(scale * lq_norm(base, q),
                                                   rel=1e-12)


def test_speed_grids(grid64):
    sp = speed_grid(grid64)
    sq = speed_squared_grid(grid64)
    assert sp.shape == grid64.velocity_shape
    np.testing.assert_allclose(sp ** 2, sq, rtol=1e-15)
    v = grid64.v_coords()
    np.testing.assert_allclose(sp, np.abs(v), rtol=0, atol=0)
    g2 = small_grid(16, dim_x=1, dim_v=2)
    sp2 = speed_grid(g2)
    v2 = g2.v_coords()
    expect = np.sqrt(v2[:, None] ** 2 + v2[None, :] ** 2)
    np.testing.assert_allclose(sp2, expect, rtol=0, atol=0)


def test_role_sign_conventions(grid64):
    neg = -np.ones(grid64.spatial_shape)
    # c_hat must be <= 0: negative values pass, positive beyond clamp fail
    SpatialField(grid64, neg, role="c_hat")
    with pytest.raises(SignError):
        SpatialField(grid64, -neg, role="c_hat")
    with pytest.raises(SignError):
        SpatialField(grid64, neg, role="c")
    tiny = np.full(grid64.spatial_shape, 1e-30)
    tiny[0] = 2e-18  # sub-clamp positives get zeroed for c_hat
    f = SpatialField(grid64, -tiny * 0 + (-1e-30), role="c_hat")
    assert float(f.values.max()) <= 0.0


@pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_factor_xv_recognises_random_products(dims, seed):
    g = small_grid(64 if dims == (1, 1) else 16, *dims)
    rng = np.random.default_rng(seed)
    a, b = rng.random(g.spatial_shape), rng.random(g.velocity_shape)
    p = PhaseField(g, np.multiply.outer(a, b))
    x_part, h = factor_xv(p)
    assert x_part.shape == g.spatial_shape and h.shape == g.velocity_shape
    assert float(h.sum()) == pytest.approx(1.0, rel=1e-14)
    gap = np.abs(np.multiply.outer(x_part, h) - p.values).max()
    assert gap <= FACTOR_REL * p.values.max()


def test_factor_xv_takes_a_product_up_to_factor_rel_of_its_sup():
    # the edge of the acceptance test: one cell off by half of FACTOR_REL of
    # the sup is still taken for the product, twice that is not, and so
    # neither is 1e-11 of the sup, the size of a loosened tolerance's
    # errors.  The cell sits in the tails, where the factors hardly absorb
    # the change, so the gap is the perturbation itself
    g = small_grid(64)
    p = gaussian_phase(g).values
    sup = float(p.max())
    x_part, h = factor_xv(PhaseField(g, p))
    assert np.abs(np.multiply.outer(x_part, h) - p).max() <= 1e-15 * sup

    def nudged(rel):
        vals = p.copy()
        vals[3, 60] += rel * sup
        return factor_xv(PhaseField(g, vals))

    assert nudged(0.5 * FACTOR_REL) is not None
    assert nudged(2.0 * FACTOR_REL) is None
    assert nudged(1e-11) is None


def test_product_validates_its_factors_and_builds_the_outer_product():
    g = small_grid(16)
    x_part = np.linspace(0.0, 1.0, 16)
    h = np.full(16, 0.25)
    prod = Product(g, x_part, h, time_tag=2)
    assert prod.time_tag == 2.0 and isinstance(prod.time_tag, float)
    # the writeable inputs were copied, and the stored factors are read-only
    x_part[0] = 9.0
    assert prod.g[0] == 0.0 and not prod.g.flags.writeable
    field = prod.field()
    assert field.time_tag == 2.0
    np.testing.assert_array_equal(field.values, np.multiply.outer(prod.g, h))
    np.testing.assert_array_equal(prod.marginal(),
                                  field.values.sum(axis=1) * g.v_cell_volume)
    # round-off below zero is clamped, anything worse is refused
    nearly = prod.g.copy()
    nearly[0] = -1e-14
    assert Product(g, nearly, h).g[0] == 0.0
    with pytest.raises(SignError, match="velocity factor"):
        Product(g, prod.g, -h)
    with pytest.raises(ShapeError):
        Product(g, np.ones(8), h)
    with pytest.raises(ShapeError):
        Product(g, prod.g, np.ones((16, 16)))
    bad = h.copy()
    bad[3] = np.nan
    with pytest.raises(DataError):
        Product(g, prod.g, bad)


def test_a_retagged_product_shares_its_read_only_factors(monkeypatch):
    # Product.at restarts a window from checked factors without scanning
    # them again: the arrays are the same objects, still read-only, and
    # only the tag differs
    from angiosolve import grid as grid_module
    g = small_grid(16)
    prod = Product(g, np.linspace(0.0, 1.0, 16), np.full(16, 0.25), time_tag=2)
    scans = []
    monkeypatch.setattr(grid_module, "apply_sign",
                        lambda *args, **kwargs: scans.append(args))
    monkeypatch.setattr(grid_module, "_check_finite",
                        lambda *args, **kwargs: scans.append(args))
    later = prod.at(np.float64(3.5))
    monkeypatch.undo()
    assert scans == []
    assert type(later) is Product and later.grid is g
    assert later.time_tag == 3.5 and type(later.time_tag) is float
    assert prod.time_tag == 2.0
    assert later.g is prod.g and later.h is prod.h
    assert not later.g.flags.writeable and not later.h.flags.writeable
    with pytest.raises(ValueError):
        later.g[0] = 1.0
    np.testing.assert_array_equal(later.field().values, prod.field().values)
    assert later.marginal().tobytes() == prod.marginal().tobytes()


@pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
def test_factor_xv_refuses_two_bumps_and_zeros_a_zero_field(dims):
    g = small_grid(16, *dims)

    def bump(cx, cv):
        return build_initial_p(g, {"recipe": "gaussian_bump", "center_x": cx,
                                   "center_v": cv, "variance_x": 7.0,
                                   "variance_v": 7.0}).values

    # the v-centre moves with the x-centre: a sum of two products, rank 2
    one, two = bump(-2.0, -1.0), bump(2.0, 1.5)
    assert factor_xv(PhaseField(g, one)) is not None
    assert factor_xv(PhaseField(g, one + two)) is None
    x_part, h = factor_xv(PhaseField(g, np.zeros(g.phase_shape)))
    assert x_part.shape == g.spatial_shape and h.shape == g.velocity_shape
    assert not x_part.any() and not h.any()
