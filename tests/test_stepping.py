import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angiosolve import (CoefficientTrack, ConfigurationError, GridSpec,
                        HeatPlan, ParameterError, PhaseField, Schedule,
                        ShapeError, SignError, SpatialField, heat_step,
                        integrate_phase, solve_linear)
from angiosolve.grid import factor_xv
from angiosolve.picard import _advance_c_nodes, _c_inf_nodes, _march_marginal

from conftest import gaussian_phase, small_grid

SIGMA = 0.05


# --------------------------------------------------------------------------
# Schedule


def test_schedule_validation():
    s = Schedule(t_end=1.0, dt=1e-3, save_stride=50)
    assert s.n_steps == 1000
    assert len(s.times()) == 1001
    assert s.saved_nodes()[-1] == 1000
    assert s.saved_nodes()[:3] == (0, 50, 100)
    with pytest.raises(ConfigurationError):
        Schedule(t_end=1.0, dt=0.0003)  # does not divide t_end
    with pytest.raises(ParameterError):
        Schedule(t_end=0.0, dt=1e-3)
    with pytest.raises(ParameterError):
        Schedule(t_end=1.0, dt=1e-3, save_stride=0)


def test_schedule_saved_nodes_include_final_partial_stride():
    s = Schedule(t_end=0.1, dt=1e-3, save_stride=30)
    assert s.saved_nodes() == (0, 30, 60, 90, 100)


# --------------------------------------------------------------------------
# single step


def _advance_linear(p, a, sigma, dt):
    """One step of solve_linear with constant scalar coefficient ``a`` (or
    None) on a strict track."""
    g = p.grid
    track = CoefficientTrack(
        Schedule(t_end=dt, dt=dt), g,
        a=None if a is None else SpatialField(g, np.full(g.spatial_shape, float(a))))
    return solve_linear(p, track, sigma).final


def test_advance_linear_reduces_to_heat_step(grid64):
    p = gaussian_phase(grid64)
    plan = HeatPlan(grid64, SIGMA, "xv")
    out = _advance_linear(p, None, SIGMA, 0.01)
    ref = heat_step(p, 0.01, plan)
    # identical up to the round-off clamp on tiny negative ringing
    np.testing.assert_allclose(out.values, ref.values, rtol=0,
                               atol=1e-14 * ref.values.max())


def test_advance_linear_constant_damping_scalar_ode(grid64):
    # spatially constant p and a: the heat step is the identity and the
    # update must be exactly p * exp(-a0 dt)
    a0, dt = 0.7, 0.01
    p = PhaseField(grid64, np.full(grid64.phase_shape, 2.0))
    out = _advance_linear(p, a0, SIGMA, dt)
    np.testing.assert_allclose(out.values, 2.0 * math.exp(-a0 * dt), rtol=1e-14)


def test_advance_linear_rejects_negative_coefficient_when_strict(grid64):
    p = gaussian_phase(grid64)
    with pytest.raises(SignError):
        _advance_linear(p, -0.5, SIGMA, 0.01)


# --------------------------------------------------------------------------
# full solve


def test_solve_linear_zero_track_is_heat_flow(grid64):
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.5, dt=0.01, save_stride=10)
    track = CoefficientTrack(sched, grid64)
    traj = solve_linear(p0, track, SIGMA, plan=HeatPlan(grid64, SIGMA, "xv"))
    plan = HeatPlan(grid64, SIGMA, "xv")
    for t, f in zip(traj.times, traj.fields):
        ref = heat_step(p0, float(t), plan)
        assert np.max(np.abs(f.values - ref.values)) < 1e-11 * ref.values.max()


def test_solve_linear_time_dependent_uniform_damping_order(grid64):
    # a(t) = 1 + sin(t), uniform in space: exact flow is
    # exp(-(t + 1 - cos t)) * heat(p0, t); node-averaged factors are O(dt^2)
    p0 = gaussian_phase(grid64)
    plan = HeatPlan(grid64, SIGMA, "xv")

    def deviation(dt):
        sched = Schedule(t_end=0.5, dt=dt)
        track = CoefficientTrack(
            sched, grid64,
            a=[np.full(grid64.spatial_shape, 1.0 + math.sin(t))
               for t in sched.times()])
        traj = solve_linear(p0, track, SIGMA, plan=plan)
        t = 0.5
        ref = heat_step(p0, t, plan).values * math.exp(-(t + 1 - math.cos(t)))
        return np.max(np.abs(traj.final.values - ref)) / ref.max()

    d1, d2 = deviation(0.01), deviation(0.005)
    assert d1 < 1e-4
    assert d1 / d2 == pytest.approx(4.0, rel=0.25)  # halving dt -> /4


def test_solve_linear_damping_is_monotone(grid64):
    # a >= 0 only removes density: damped run sits below the free run.
    # The damping profile is kept wide: products exp(-k a t) * p must stay
    # spectrally resolved, so a needs several cells across its own width.
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.3, dt=0.01, save_stride=10)
    a_field = np.exp(-grid64.x_coords() ** 2 / 8.0)
    damped = solve_linear(
        p0, CoefficientTrack(sched, grid64, a=a_field), SIGMA)
    free = solve_linear(p0, CoefficientTrack(sched, grid64), SIGMA)
    for fd, ff in zip(damped.fields, free.fields):
        gap = ff.values - fd.values
        assert gap.min() > -1e-12 * ff.values.max()


def test_solve_linear_separable_track_matches_dense(grid64):
    # sep_x (x) sep_v broadcast must agree with the dense phase coefficient
    sched = Schedule(t_end=0.1, dt=0.005, save_stride=5)
    p0 = gaussian_phase(grid64)
    sx = -0.4 * np.exp(-grid64.x_coords() ** 2)  # signed: growth allowed
    sv = np.exp(-grid64.v_coords() ** 2)
    dense = np.multiply.outer(sx, sv)
    t_sep = CoefficientTrack(sched, grid64, sep_x=sx, sep_v=sv, strict=False)
    t_dense = CoefficientTrack(sched, grid64, a=dense, strict=False)
    r_sep = solve_linear(p0, t_sep, SIGMA)
    r_dense = solve_linear(p0, t_dense, SIGMA)
    for a, b in zip(r_sep.fields, r_dense.fields):
        np.testing.assert_allclose(a.values, b.values, rtol=0,
                                   atol=1e-13 * b.values.max())


def test_solve_linear_records_moment_nodes(grid64):
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.1, dt=0.01, save_stride=5)
    track = CoefficientTrack(sched, grid64)
    traj = solve_linear(p0, track, SIGMA, record="j")
    assert traj.p_tilde_nodes.shape == (11,) + grid64.spatial_shape
    assert traj.j_nodes.shape == (11,) + grid64.spatial_shape
    # node 0 must be the initial marginal
    pt0 = p0.values.sum(axis=1) * grid64.h_v
    np.testing.assert_allclose(traj.p_tilde_nodes[0], pt0, rtol=1e-14)
    # moments are nonnegative throughout
    assert traj.p_tilde_nodes.min() >= 0.0
    assert traj.j_nodes.min() >= 0.0
    # the other record: nothing
    plain = solve_linear(p0, track, SIGMA)
    assert plain.p_tilde_nodes is None and plain.j_nodes is None
    for bad in ("speed", "p_tilde", "vector_j"):
        with pytest.raises(ParameterError):
            solve_linear(p0, track, SIGMA, record=bad)


# (dim_v, n_x, n_v): every heat path of every plan a march takes; the phase
# flow is a circulant product when all axes have at most 64 points and an
# FFT otherwise, and so are the x and v flows of a factored march
_LATTICES = [(1, 32, 32), (1, 128, 16), (1, 16, 128), (2, 16, 16), (2, 128, 8),
             (2, 8, 128)]


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(_LATTICES), st.sampled_from(["none", "constant", "per-node"]),
       st.integers(0, 2 ** 32 - 1))
def test_factored_march_is_the_phase_march_on_products(lattice, coefficient, seed):
    # an x-only coefficient and the x flow act on the x factor alone, and
    # the v flow on the v factor alone, so a product density marched on its
    # factors is the phase march at every node; node 0 is p0 itself
    dim_v, n_x, n_v = lattice
    g = GridSpec(dim_x=1, dim_v=dim_v, n_x=n_x, n_v=n_v, half_width_x=4.0,
                 half_width_v=4.0)
    rng = np.random.default_rng(seed)
    sched = Schedule(t_end=0.1, dt=0.01)

    def x_sample():
        return 4.0 * rng.random(g.spatial_shape)

    a = {"none": None, "constant": x_sample(),
         "per-node": [x_sample() for _ in range(sched.n_steps + 1)]}[coefficient]
    track = CoefficientTrack(sched, g, a=a)
    p0 = PhaseField(g, np.multiply.outer(0.2 + rng.random(g.spatial_shape),
                                         0.2 + rng.random(g.velocity_shape)))
    traj = solve_linear(p0, track, SIGMA)
    assert traj.aux["factored"]
    # a recorded march stays on the phase lattice
    phase = solve_linear(p0, track, SIGMA, record="j")
    assert not phase.aux["factored"]
    assert len(traj) == len(phase)
    assert traj.fields[0].values.tobytes() == p0.values.tobytes()
    for field, ref in zip(traj.fields[1:], phase.fields[1:]):
        assert np.abs(field.values - ref.values).max() <= 1e-13 * np.abs(ref.values).max()


def _phase_march(grid):
    # two bumps are no product, so this march stays on the phase lattice
    two = PhaseField(grid, gaussian_phase(grid).values
                     + gaussian_phase(grid, center_x=1.5, center_v=-1.0).values)
    assert factor_xv(two) is None
    track = CoefficientTrack(Schedule(t_end=0.05, dt=0.01), grid)
    solve_linear(two, track, SIGMA)


def _factored_march(grid):
    # a product under an x-only coefficient: each step marches the x factor
    # (the fault's third flow is step 2's) and then the v factor
    track = CoefficientTrack(Schedule(t_end=0.05, dt=0.01), grid,
                             a=np.full(grid.spatial_shape, 0.3))
    solve_linear(gaussian_phase(grid), track, SIGMA)


def _signed_phase_march(grid):
    # production-dominated: a signed, non-strict track without a source,
    # as the coupled driver marches it; the positive factors keep the sign
    sx = -0.4 * np.exp(-grid.x_coords() ** 2)
    track = CoefficientTrack(Schedule(t_end=0.05, dt=0.01), grid, sep_x=sx,
                             sep_v=np.ones(grid.velocity_shape), strict=False)
    solve_linear(gaussian_phase(grid), track, SIGMA)


def _marginal_march(grid):
    sched = Schedule(t_end=0.05, dt=0.01)
    track = CoefficientTrack(sched, grid, a=np.full(grid.spatial_shape, 0.3))
    pt0 = gaussian_phase(grid).values.sum(axis=1) * grid.h_v
    _march_marginal(pt0, track, HeatPlan(grid, SIGMA, "x"))


def _concentration_march(grid):
    plan = HeatPlan(grid, 0.05, "x")
    c0 = 1.0 + np.exp(-grid.x_coords() ** 2)
    c_inf = _c_inf_nodes(c0, plan, 5, 0.01)
    j = np.full((6,) + grid.spatial_shape, 0.5)
    _advance_c_nodes(np.zeros(grid.spatial_shape), c_inf, j, 1.0, 0.01, plan)


@pytest.mark.parametrize("march, cell, where", [
    (_phase_march, (17, 40), "marched density at step 3"),
    (_signed_phase_march, (17, 40), "marched density at step 3"),
    (_factored_march, (17,), "x factor of the marched density at step 2"),
    (_marginal_march, (17,), "marched marginal at step 3"),
    (_concentration_march, (17,), "concentration at node 3"),
], ids=["phase", "signed-phase", "factored", "marginal", "concentration"])
def test_planted_stepper_fault_is_caught_and_located(grid64, monkeypatch, march,
                                                      cell, where):
    # the per-step floor may only absorb round-off: a heat step that comes
    # back with an entry of -1e-3 * sup must stop the march at that cell,
    # in the phase march (whatever the coefficient's sign), in a product's
    # factored march and in both position-lattice marches; only the
    # marches' own flows count, which run in their plans' work arrays (the
    # concentration's far field is flowed out of place)
    clean = HeatPlan.apply
    calls = []

    def faulty(self, values, tau, kind):
        out = clean(self, values, tau, kind)
        if values is self.work(kind):
            calls.append(tau)
            if len(calls) == 3:
                out = out.copy()
                out[cell] = -1e-3 * float(out.max())
        return out

    monkeypatch.setattr(HeatPlan, "apply", faulty)
    with pytest.raises(SignError, match=re.escape(where) + r" .*cell "
                       + re.escape(str(cell))):
        march(grid64)


def test_solve_linear_saves_only_the_nodes_asked_for(grid64):
    # without node 0 the trajectory holds no field for p0, only the march
    p0 = gaussian_phase(grid64)
    track = CoefficientTrack(Schedule(t_end=0.05, dt=0.01), grid64)
    traj = solve_linear(p0, track, SIGMA, saved_nodes=[5])
    assert len(traj) == 1 and traj.times.tolist() == [0.05]
    full = solve_linear(p0, track, SIGMA)
    assert np.array_equal(traj.final.values, full.final.values)
    with pytest.raises(ConfigurationError):
        solve_linear(p0, track, SIGMA, saved_nodes=[0, 3])  # no final node


def test_coefficient_track_validation(grid64):
    sched = Schedule(t_end=0.1, dt=0.01)
    with pytest.raises(ShapeError):
        CoefficientTrack(sched, grid64, a=np.zeros((3, 3)))
    with pytest.raises(ConfigurationError):
        CoefficientTrack(sched, grid64,
                         a=[np.zeros(grid64.spatial_shape)] * 5)  # wrong count
    with pytest.raises(SignError):
        CoefficientTrack(sched, grid64,
                         a=-np.ones(grid64.spatial_shape))  # strict default


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.05, 0.8), st.integers(0, 1000))
def test_damped_step_keeps_positivity_and_mass(a0, var, seed):
    g = small_grid(32, L=4.0)
    rng = np.random.default_rng(seed)
    vals = rng.random(g.phase_shape) + 0.0
    # smooth the noise so it is spectrally representable
    p0 = heat_step(PhaseField(g, vals, nonnegative=True), var,
                   HeatPlan(g, 0.1, "xv"))
    out = _advance_linear(p0, a0, 0.1, 0.01)
    assert out.values.min() >= 0.0
    assert integrate_phase(out) <= integrate_phase(p0) * (1 + 1e-12)
