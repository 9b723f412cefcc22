import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angiosolve import (GridSpec, HeatPlan, ParameterError, PhaseField,
                        ResolutionError, ShapeError, SpatialField, gaussian_rho,
                        heat_step, integrate_phase, lq_norm)
from angiosolve import heat
from angiosolve.grid import factor_xv
from angiosolve.heat import _BLOCK

from conftest import gaussian_phase, small_grid

SIGMA = 0.05


def _spectral_flow(plan, vals, tau, kind):
    """forward, multiplier, inverse: the flow every plan's FFT path takes."""
    return plan.inverse(plan.forward(vals, kind) * plan.multiplier(tau, kind), kind)


def _assert_flow_matches(plan, got, ref):
    """Bit for bit on a plan that keeps the FFT; within 1e-14 of the sup of
    the spectral flow on a short-axis plan, whose flow is per-axis matrices."""
    if plan._steps is None:
        np.testing.assert_array_equal(got, ref)
    else:
        np.testing.assert_allclose(got, ref, rtol=0.0,
                                   atol=1e-14 * float(np.abs(ref).max()))


def _long_grid(dims, subspace):
    """A lattice on which a ``subspace`` plan has a 128-point axis and so
    keeps the FFT (the other block stays at 8 points)."""
    long_x = subspace != "v"
    return GridSpec(dim_x=dims[0], dim_v=dims[1], n_x=128 if long_x else 8,
                    n_v=8 if long_x else 128, half_width_x=8.0, half_width_v=8.0)


def periodized_gaussian(coords, centre, variance, L, images=3):
    """Closed-form heat solution sampled with the image sum truncated at
    ``images`` periods each side -- the independent oracle for heat_step."""
    out = np.zeros_like(coords)
    for m in range(-images, images + 1):
        out += np.exp(-(coords + 2.0 * L * m - centre) ** 2 / (2.0 * variance))
    return out / math.sqrt(2.0 * math.pi * variance)


def test_constant_field_is_invariant(grid64):
    f = PhaseField(grid64, np.full(grid64.phase_shape, 2.5))
    out = heat_step(f, 0.37, HeatPlan(grid64, SIGMA, "xv"))
    np.testing.assert_allclose(out.values, 2.5, rtol=1e-14)
    assert out.time_tag == pytest.approx(0.37)


def test_tau_zero_is_identity(grid64):
    f = gaussian_phase(grid64)
    out = heat_step(f, 0.0, HeatPlan(grid64, SIGMA, "xv"))
    np.testing.assert_array_equal(out.values, f.values)


def test_gaussian_evolves_to_wider_gaussian(grid64):
    # oracle: variance s^2 -> s^2 + 2 sigma tau, then periodized by images
    tau = 0.8
    var_x, var_v = 0.5, 0.45
    p = gaussian_phase(grid64, var_x=var_x, var_v=var_v)
    out = heat_step(p, tau, HeatPlan(grid64, SIGMA, "xv"))
    gx = periodized_gaussian(grid64.x_coords(), -1.0, var_x + 2 * SIGMA * tau, 8.0)
    gv = periodized_gaussian(grid64.v_coords(), 1.3, var_v + 2 * SIGMA * tau, 8.0)
    expect = np.multiply.outer(gx, gv)
    assert np.max(np.abs(out.values - expect)) < 1e-8 * expect.max()


def test_mass_conservation_and_semigroup_law(grid64):
    p = gaussian_phase(grid64)
    plan = HeatPlan(grid64, SIGMA, "xv")
    m0 = integrate_phase(p)
    one = heat_step(p, 0.9, plan)
    assert integrate_phase(one) == pytest.approx(m0, rel=1e-13)
    # G(t) G(s) = G(t+s)
    two = heat_step(heat_step(p, 0.4, plan), 0.5, plan)
    assert np.max(np.abs(two.values - one.values)) < 1e-10 * one.values.max()


def test_lq_contraction(grid64):
    p = gaussian_phase(grid64)
    out = heat_step(p, 0.3, HeatPlan(grid64, SIGMA, "xv"))
    for q in (1, 2, np.inf):
        assert lq_norm(out, q) <= lq_norm(p, q) * (1 + 1e-13)


def test_subspace_plans_commute_with_structure(grid64):
    # an x-only flow must act on the x factor of a separable field alone
    p = gaussian_phase(grid64, var_x=0.5, var_v=0.45)
    out = heat_step(p, 0.5, HeatPlan(grid64, SIGMA, "x"))
    gx = periodized_gaussian(grid64.x_coords(), -1.0, 0.5 + 2 * SIGMA * 0.5, 8.0)
    gv = periodized_gaussian(grid64.v_coords(), 1.3, 0.45, 8.0)
    expect = np.multiply.outer(gx, gv)
    assert np.max(np.abs(out.values - expect)) < 1e-9 * expect.max()
    # and the xv plan is the composition of the x and v plans
    both = heat_step(heat_step(p, 0.5, HeatPlan(grid64, SIGMA, "x")),
                     0.5, HeatPlan(grid64, SIGMA, "v"))
    full = heat_step(p, 0.5, HeatPlan(grid64, SIGMA, "xv"))
    np.testing.assert_allclose(both.values, full.values, rtol=0,
                               atol=1e-13 * full.values.max())


def test_spatial_fields_use_x_plan(grid64):
    c = SpatialField(grid64, periodized_gaussian(grid64.x_coords(), 0.0, 1.0, 8.0))
    out = heat_step(c, 1.0, HeatPlan(grid64, 0.05, "x"))
    expect = periodized_gaussian(grid64.x_coords(), 0.0, 1.1, 8.0)
    assert np.max(np.abs(out.values - expect)) < 1e-10 * expect.max()
    # each reduced kind has the one plan that differentiates its axes
    for subspace, kind in (("xv", "spatial"), ("v", "spatial"),
                           ("xv", "velocity"), ("x", "velocity")):
        with pytest.raises(ShapeError, match=kind):
            HeatPlan(grid64, SIGMA, subspace).forward(np.zeros(64), kind)


@pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       tau=st.floats(min_value=1e-3, max_value=5.0))
def test_product_flows_from_its_factors(dims, seed, tau):
    # heat(g (x) h) = heat_x(g) (x) heat_v(h): the comparison majorant's
    # factored flow against the phase-lattice flow of the product
    g = small_grid(64 if dims == (1, 1) else 16, *dims)
    rng = np.random.default_rng(seed)
    p = PhaseField(g, np.multiply.outer(rng.random(g.spatial_shape),
                                        rng.random(g.velocity_shape)))
    x_part, h = factor_xv(p)
    gx = HeatPlan(g, SIGMA, "x").apply(x_part, tau, "spatial")
    hv = HeatPlan(g, SIGMA, "v").apply(h, tau, "velocity")
    full = HeatPlan(g, SIGMA, "xv").apply(p.values, tau, "phase")
    np.testing.assert_allclose(np.multiply.outer(gx, hv), full, rtol=0.0,
                               atol=1e-14 * float(p.values.max()))


@pytest.mark.parametrize("subspace, kind", [("xv", "phase"), ("x", "phase"),
                                             ("x", "spatial"), ("v", "velocity")])
def test_stacked_transform_matches_apply_bit_for_bit(grid64, subspace, kind):
    # a stack transforms in one call with the same bits as one field at a
    # time, and apply gives one field the same bits again on a second call
    # (its spectrum or block buffer reused); apply has the spectral bits on
    # the 256-point plan and is within 1e-14 of them on the 64-point
    # (short-axis) plan
    for g in (grid64, small_grid(256)):
        plan = HeatPlan(g, SIGMA, subspace)
        assert (plan._steps is None) == (g is not grid64)
        shape = g.shape_of(kind)
        stack = np.random.default_rng(7).random((3,) + shape)
        flowed = _spectral_flow(plan, stack, 0.3, kind)
        for k in range(3):
            _assert_flow_matches(plan, plan.apply(stack[k], 0.3, kind), flowed[k])
        _assert_flow_matches(plan, plan.apply(stack, 0.3, kind), flowed)
        field = stack[0]
        each = [plan.apply(field, tau, kind) for tau in (0.0, 0.1, 0.3)]
        assert each[0] is field and plan.apply(field, 0.0, kind) is field
        np.testing.assert_array_equal(each[1], plan.apply(field, 0.1, kind))
        np.testing.assert_array_equal(each[2], plan.apply(field, 0.3, kind))
        _assert_flow_matches(plan, each[2], flowed[0])
        with pytest.raises(ShapeError):
            plan.forward(np.zeros((3, 5)), kind)
        with pytest.raises(ShapeError):
            plan.apply(np.zeros((3, 5)), 0.3, kind)


@pytest.mark.parametrize("dims, subspace, kind", [
    ((1, 1), "xv", "phase"), ((2, 2), "xv", "phase"), ((1, 2), "v", "phase"),
    ((2, 1), "x", "phase"), ((2, 2), "x", "spatial"), ((2, 1), "v", "velocity"),
    ((1, 2), "v", "velocity")])
def test_apply_flows_the_work_array_in_place(dims, subspace, kind):
    # the plan's work array is flowed in place, any other array is left
    # alone; both with one plan's bits, which are those of forward,
    # multiplier, inverse on a plan with a 128-point axis and within 1e-14
    # of them on an 8-point (short-axis) plan
    for g in (small_grid(8, *dims), _long_grid(dims, subspace)):
        plan = HeatPlan(g, SIGMA, subspace)
        assert (plan._steps is None) == (max(g.n_x, g.n_v) > 8)
        vals = np.random.default_rng(3).random(g.shape_of(kind))
        keep = vals.copy()
        out = plan.apply(vals, 0.2, kind)
        _assert_flow_matches(plan, out, _spectral_flow(plan, vals, 0.2, kind))
        np.testing.assert_array_equal(vals, keep)
        work = plan.work(kind)
        assert plan.work(kind) is work and work.shape == vals.shape
        work[...] = vals
        assert plan.apply(work, 0.2, kind) is work
        np.testing.assert_array_equal(work, out)
        assert out is not work


def test_short_axis_march_flows_in_place_through_one_block():
    # on 32^4 the plan keeps a block buffer, not a second field, and a flow
    # of its work array allocates no field-size array
    g = small_grid(32, 2, 2)
    plan = HeatPlan(g, SIGMA, "xv")
    work = plan.work("phase")
    work[...] = np.random.default_rng(5).random(g.phase_shape)
    plan.apply(work, 0.1, "phase")  # builds the matrices and the block
    tracemalloc.start()
    try:
        assert plan.apply(work, 0.1, "phase") is work
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan._spare["phase"].size == _BLOCK < work.size
    assert peak < work.nbytes // 8


# lattices on which every plan has only short axes and so flows through
# per-axis circulant matrices
_SHORT_LATTICES = [(1, 1, 8), (1, 1, 16), (1, 1, 32), (1, 1, 64), (1, 2, 16),
                   (1, 2, 32), (2, 2, 16), (2, 2, 32)]
_PLAN_KINDS = [("xv", "phase"), ("x", "phase"), ("v", "phase"), ("x", "spatial"),
               ("v", "velocity")]


@settings(max_examples=20, deadline=None)
@given(lattice=st.sampled_from(_SHORT_LATTICES),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       sigma=st.floats(min_value=1e-3, max_value=1.0),
       tau=st.floats(min_value=1e-4, max_value=5.0))
def test_short_axis_flow_is_the_spectral_flow(lattice, seed, sigma, tau):
    # per-axis matrices against forward, multiplier, inverse, for every
    # subspace and field kind
    dim_x, dim_v, n = lattice
    g = small_grid(n, dim_x, dim_v)
    rng = np.random.default_rng(seed)
    for subspace, kind in _PLAN_KINDS:
        plan = HeatPlan(g, sigma, subspace)
        assert plan._steps is not None
        vals = rng.random(g.shape_of(kind))
        ref = _spectral_flow(plan, vals, tau, kind)
        np.testing.assert_allclose(plan.apply(vals, tau, kind), ref, rtol=0.0,
                                   atol=1e-14 * float(np.abs(ref).max()))


@settings(max_examples=50, deadline=None)
@given(n=st.sampled_from([8, 16, 32, 64]),
       half_width=st.floats(min_value=1.0, max_value=16.0),
       sigma=st.floats(min_value=1e-3, max_value=1.0),
       tau=st.floats(min_value=1e-4, max_value=5.0))
def test_axis_matrices_are_symmetric_with_unit_column_sums(n, half_width, sigma, tau):
    # the flow keeps the mean: each column of each axis matrix sums to 1
    g = GridSpec(dim_x=1, dim_v=1, n_x=n, n_v=n, half_width_x=half_width,
                 half_width_v=2.0 * half_width)
    mats = HeatPlan(g, sigma, "xv")._heat_matrices(tau)
    assert len(mats) == 2
    for mat in mats:
        assert mat.shape == (n, n) and not mat.flags.writeable
        np.testing.assert_array_equal(mat, mat.T)
        sums = np.array([math.fsum(col) for col in mat.T])
        assert float(np.abs(sums - 1.0).max()) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("dim_x, dim_v, n, L", [(1, 1, 64, 8.0), (2, 2, 32, 4.0)])
def test_short_axis_flow_meets_criterion_01_bounds(dim_x, dim_v, n, L):
    # criterion 01's three bounds, which it checks at 256^2 on the FFT path,
    # on lattices whose flow is per-axis matrices
    g = small_grid(n, dim_x, dim_v, L)
    plan = HeatPlan(g, 0.05, "xv")
    assert plan._steps is not None

    def bump(var):
        factors = ([periodized_gaussian(g.x_coords(), -1.0, var, L)] * dim_x
                   + [periodized_gaussian(g.v_coords(), 1.3, var, L)] * dim_v)
        return functools.reduce(np.multiply.outer, factors)

    p0 = bump(0.5)
    evolved = plan.apply(p0, 0.37, "phase")
    mass_drift = abs(float(evolved.sum()) - float(p0.sum())) / float(p0.sum())
    two_step = plan.apply(plan.apply(p0, 0.23, "phase"), 0.14, "phase")
    law_gap = float(np.abs(two_step - evolved).max()) / float(evolved.max())
    analytic = bump(0.5 + 2 * 0.05 * 0.37)
    point_gap = float(np.abs(evolved - analytic).max()) / float(analytic.max())
    assert mass_drift <= 1e-12 and law_gap <= 1e-10 and point_gap <= 1e-8


@settings(max_examples=12, deadline=None)
@given(lattice=st.sampled_from([(1, 1, 32), (1, 2, 16), (2, 2, 16), (1, 1, 256)]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       taus=st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=3))
def test_apply_out_of_place_and_in_the_work_array_agree_bit_for_bit(lattice, seed,
                                                                     taus):
    # within one plan, matrices or FFT: apply out of place and in the work
    # array give one set of bits
    dim_x, dim_v, n = lattice
    g = small_grid(n, dim_x, dim_v)
    rng = np.random.default_rng(seed)
    for subspace, kind in _PLAN_KINDS:
        plan = HeatPlan(g, SIGMA, subspace)
        vals = rng.random(g.shape_of(kind))
        for tau in taus:
            out = plan.apply(vals, tau, kind)
            work = plan.work(kind)
            work[...] = vals
            np.testing.assert_array_equal(plan.apply(work, tau, kind), out)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       sigma=st.floats(min_value=1e-3, max_value=1.0),
       tau=st.floats(min_value=1e-4, max_value=5.0))
def test_long_axis_apply_keeps_the_spectral_bits(seed, sigma, tau):
    # a 256-point plan keeps the FFT: apply is forward, multiplier, inverse
    g = small_grid(256)
    rng = np.random.default_rng(seed)
    for subspace, kind in _PLAN_KINDS:
        plan = HeatPlan(g, sigma, subspace)
        assert plan._steps is None
        vals = rng.random(g.shape_of(kind))
        np.testing.assert_array_equal(plan.apply(vals, tau, kind),
                                      _spectral_flow(plan, vals, tau, kind))


def test_plan_keeps_one_multiplier_per_kind(grid64):
    # 500 distinct step sizes must not pile up 500 spectral arrays
    plan = HeatPlan(grid64, SIGMA, "x")
    phase_bytes = plan.multiplier(0.0, "phase").nbytes
    spatial_bytes = plan.multiplier(0.0, "spatial").nbytes
    full = HeatPlan(grid64, SIGMA, "xv")
    full_bytes = full.multiplier(0.0, "phase").nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1, 501):
            full.multiplier(i * 1e-3, "phase")
            plan.multiplier(i * 1e-3, "phase")
            plan.multiplier(i * 1e-3, "spatial")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= full_bytes + phase_bytes + spatial_bytes + 4096
    last = full.multiplier(0.5, "phase")
    assert full.multiplier(0.5, "phase") is last   # the step size in use is reused


def test_gaussian_rho_mass_symmetry_and_guards(grid64):
    rho = gaussian_rho(grid64, 0.25, 1.3)
    assert rho.mass == pytest.approx(1.0, abs=1e-6)
    assert rho.sup_norm == pytest.approx((math.pi * 0.25) ** -0.5, rel=1e-15)
    assert float(rho.values.max()) <= rho.sup_norm * (1 + 1e-12)
    # even around v0 on a lattice symmetric about a node
    g = small_grid(64)
    r0 = gaussian_rho(g, 0.25, 0.0)
    v = r0.values
    np.testing.assert_array_equal(v[1:], v[1:][::-1])
    with pytest.raises(ParameterError):
        gaussian_rho(grid64, -1.0, 0.0)
    with pytest.raises(ParameterError):
        gaussian_rho(grid64, 0.25, 9.5)  # outside the open box
    with pytest.raises(ResolutionError):
        gaussian_rho(grid64, 1e-4, 0.0)


def test_gradient_energy_parseval(grid64):
    # ||grad A sin(kx)||^2 = A^2 k^2 vol / 2 over one box factor
    k = 2.0 * math.pi * 5 / 16.0
    amp = 1.7
    vals = amp * np.sin(k * grid64.x_coords())
    f = SpatialField(grid64, vals)
    expect = amp ** 2 * k ** 2 * 16.0 / 2.0
    energy = HeatPlan(grid64, SIGMA, "x").gradient_energy(f.values, f.kind)
    assert energy == pytest.approx(expect, rel=1e-12)


def test_gradient_energy_phase_field_both_axes():
    g = small_grid(32)
    kx = 2.0 * math.pi * 2 / 16.0
    kv = 2.0 * math.pi * 3 / 16.0
    vals = np.add.outer(np.sin(kx * g.x_coords()), np.cos(kv * g.v_coords()))
    f = PhaseField(g, vals)
    # cross terms vanish; each mode contributes amp^2 k^2 vol/2
    expect = (kx ** 2 + kv ** 2) * (16.0 * 16.0) / 2.0
    energy = HeatPlan(g, SIGMA, "xv").gradient_energy(f.values, f.kind)
    assert energy == pytest.approx(expect, rel=1e-12)


def test_fft_plan_builds_its_k_squared_table_once_at_its_first_multiplier(monkeypatch):
    # a plan builds the |k|^2 of a kind when a multiplier first needs it,
    # keeps it read-only and reuses it for every later multiplier and for
    # the FFT gradient energy; another plan of the layout builds its own
    built = []
    clean = heat._k_squared

    def spy(*args):
        built.append(clean(*args))
        return built[-1]

    monkeypatch.setattr(heat, "_k_squared", spy)
    g = _long_grid((1, 1), "xv")
    plan = HeatPlan(g, SIGMA, "xv")
    assert plan._steps is None and built == []
    plan.multiplier(0.1, "phase")
    assert len(built) == 1 and not built[0].flags.writeable
    plan.multiplier(0.2, "phase")
    plan.apply(np.ones(g.phase_shape), 0.3, "phase")
    plan.gradient_energy(np.ones(g.phase_shape), "phase")
    assert len(built) == 1 and plan._k2_table("phase") is built[0]
    HeatPlan(g, SIGMA, "xv").multiplier(0.1, "phase")
    assert len(built) == 2 and built[1] is not built[0]


def test_xv_plan_keeps_one_partial_plan_per_subspace():
    # a factored march takes its x and v flows from the plans its phase plan
    # keeps, so a run of many windows builds them once
    g = small_grid(16, 1, 2)
    plan = HeatPlan(g, SIGMA, "xv")
    for subspace in ("x", "v"):
        part = plan.partial(subspace)
        assert part is plan.partial(subspace)
        assert (part.grid, part.diffusivity, part.subspace) == (g, SIGMA, subspace)
    for owner, subspace in (("xv", "xv"), ("x", "v"), ("v", "x")):
        with pytest.raises(ParameterError):
            HeatPlan(g, SIGMA, owner).partial(subspace)


def test_gradient_energy_holds_no_spectrum_and_keeps_its_bits():
    # the plan keeps no array for the energy (another thread may march in
    # the plan's); on a plan with a 128-point axis the transient spectrum
    # squared through a float view gives the bits of |Re|^2 + |Im|^2 taken
    # apart, and on the 16-point (short-axis) plan the per-axis circulants
    # of k^2 are within 1e-14 of that Parseval sum
    for g in (small_grid(16, 2, 2), _long_grid((2, 2), "xv")):
        vals = np.random.default_rng(3).standard_normal(g.phase_shape)
        plan = HeatPlan(g, SIGMA, "xv")
        energy = plan.gradient_energy(vals, "phase")
        assert plan._spare == {} and plan._work == {}
        _, axes, sizes = plan._layout("phase")
        k2 = plan._k2_table("phase")
        spec = np.fft.rfftn(vals, axes=axes)
        power = np.square(spec.real)
        power += np.square(spec.imag)
        power *= k2
        inner = [slice(None)] * power.ndim
        inner[axes[-1]] = slice(1, (sizes[-1] + 1) // 2)
        total = float(power.sum()) + float(power[tuple(inner)].sum())
        parseval = total * g.cell_volume / math.prod(sizes)
        if plan._steps is None:
            assert energy == parseval
        else:
            assert energy == pytest.approx(parseval, rel=1e-14, abs=0.0)


def _full_layout_reference(field):
    """Gradient energy over all axes of the field on the full complex layout
    (fftn), with |k|^2 built here from the lattice spacings."""
    g, vals = field.grid, field.values
    spacings = ((g.h_x,) * g.dim_x + (g.h_v,) * g.dim_v)[:vals.ndim]
    spec = np.fft.fftn(vals)
    k2 = np.zeros(vals.shape)
    for ax, h in enumerate(spacings):
        k = 2.0 * math.pi * np.fft.fftfreq(vals.shape[ax], d=h)
        expand = [1] * vals.ndim
        expand[ax] = k.size
        k2 = k2 + (k ** 2).reshape(expand)
    return float(np.sum(k2 * np.abs(spec) ** 2)) * field.cell_volume / vals.size


@pytest.mark.parametrize("dims,kind", [((1, 1), "phase"), ((2, 2), "phase"),
                                       ((1, 1), "spatial"), ((2, 2), "spatial")])
def test_plan_matches_full_layout_reference(dims, kind):
    g = small_grid(16, *dims)
    rng = np.random.default_rng(7)
    field = (PhaseField if kind == "phase" else SpatialField)(
        g, rng.standard_normal(g.shape_of(kind)))
    plan = HeatPlan(g, SIGMA, "xv" if kind == "phase" else "x")
    assert plan.gradient_energy(field.values, field.kind) == pytest.approx(
        _full_layout_reference(field), rel=1e-14)
