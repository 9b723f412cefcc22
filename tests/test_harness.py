"""Invariant checks: each one passes on healthy data and pinpoints planted
corruption (the fault-injection side of the harness contract)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angiosolve import (
    CoefficientTrack,
    ConfigurationError,
    GridSpec,
    HeatPlan,
    MomentSet,
    ParameterError,
    PhaseField,
    Schedule,
    SpatialField,
    check_c_bounds,
    check_comparison,
    check_energy,
    check_gronwall,
    check_positivity,
    check_speed_bound,
    lq_norm,
    moments_of,
    picard_coupled,
    solve_linear,
)
from angiosolve.harness import (ComparisonFold, FieldStats, GronwallFold,
                                _energy_residual)
from angiosolve.scenarios import load_shipped_scenario, run_scenario
from angiosolve.stepping import Trajectory

from conftest import gaussian_phase
from test_picard import _params, _flat_in_x, _c_bump

SIGMA = 0.05


@pytest.fixture(scope="module")
def runs(grid64):
    """One damped solve, its free majorant, and one coupled run."""
    p0 = gaussian_phase(grid64)
    sched = Schedule(t_end=0.2, dt=0.01, save_stride=5)
    a = PhaseField(grid64, np.exp(-grid64.x_coords()[:, None] ** 2 / 8.0)
                   * np.ones(grid64.n_v)[None, :])
    damped = solve_linear(p0, CoefficientTrack(sched, grid64, a=a), SIGMA)
    free = solve_linear(p0, CoefficientTrack(sched, grid64), SIGMA)
    p_c, c_traj, _ = picard_coupled(_flat_in_x(grid64), _c_bump(grid64),
                                    _params(), sched, tol=1e-9)
    return {"p0": p0, "damped": damped, "free": free, "c_traj": c_traj,
            "grid": grid64}


def _with_bumped_cell(traj, k_time, cell, value):
    """Copy of a trajectory with one cell of one snapshot overwritten."""
    fields = list(traj.fields)
    vals = fields[k_time].values.copy()
    vals[cell] = value
    fields[k_time] = PhaseField(traj.grid, vals, time_tag=fields[k_time].time_tag)
    return Trajectory(traj.times, fields)


# --------------------------------------------------------------------------
# positivity


def test_positivity_passes_on_clean_run(runs):
    check = check_positivity(runs["damped"])
    assert check.passed and check.verdict == "pass"
    assert check.worst_slack >= -1e-12
    assert check.slacks.shape == (len(runs["damped"]),)


def test_positivity_locates_planted_negative(runs):
    traj = runs["damped"]
    cell = (51, 37)
    scale = float(np.abs(traj.fields[2].values).max())
    bad = _with_bumped_cell(traj, 2, cell, -1e-2 * scale)
    check = check_positivity(bad)
    assert not check.passed
    assert check.worst_cell == cell
    assert check.worst_time == traj.times[2]
    assert check.worst_slack < -1e-12


# --------------------------------------------------------------------------
# cellwise comparison


def test_comparison_damped_below_free(runs):
    check = check_comparison(runs["damped"], runs["free"])
    assert check.passed
    assert check.worst_slack >= -1e-10


def test_comparison_locates_planted_excess(runs):
    traj, free = runs["damped"], runs["free"]
    cell = (20, 33)
    lift = float(free.fields[3].values[cell]) * 1.01 + 0.01 * float(free.fields[3].values.max())
    bad = _with_bumped_cell(traj, 3, cell, lift)
    check = check_comparison(bad, free)
    assert not check.passed
    assert check.worst_cell == cell
    assert check.worst_time == traj.times[3]


def test_comparison_requires_matching_times(runs, grid64):
    sched = Schedule(t_end=0.2, dt=0.01, save_stride=10)
    other = solve_linear(runs["p0"], CoefficientTrack(sched, grid64), SIGMA)
    with pytest.raises(ConfigurationError):
        check_comparison(runs["damped"], other)


def _same_check(a, b):
    """Bit-for-bit equality of two BoundChecks."""
    return (a.to_dict() == b.to_dict()
            and a.times.tobytes() == b.times.tobytes()
            and a.slacks.tobytes() == b.slacks.tobytes())


def test_comparison_reads_a_one_shot_majorant(runs):
    # the majorant is read once, in order: a generator gives the bits a
    # whole trajectory gives
    damped, free = runs["damped"], runs["free"]
    from_gen = check_comparison(damped, (f for f in free.fields))
    assert _same_check(from_gen, check_comparison(damped, free))


def test_comparison_aligns_each_majorant_field_by_its_own_tag(runs):
    damped, fields = runs["damped"], list(runs["free"].fields)
    late = fields[2].like(fields[2].values, fields[2].time_tag + 1e-9)
    for bad in (fields[:2] + [late] + fields[3:],  # mistagged
                fields + [fields[-1]],             # one field too many
                fields[:-1]):                      # one field missing
        with pytest.raises(ConfigurationError):
            check_comparison(damped, iter(bad))


def test_comparison_fold_writes_only_into_a_scratch_majorant(runs):
    # a majorant made for the call may take the gap in place; one the
    # caller keeps is left as it was, and both give the same bits
    damped, free = runs["damped"], runs["free"]
    kept, made = ComparisonFold(), ComparisonFold()
    for t, field, g in zip(damped.times, damped.fields, free.fields):
        before = g.values.copy()
        kept.add(t, field, g.values, FieldStats(field))
        scratch = g.values.copy()
        made.add(t, field, scratch, FieldStats(field), scratch=True)
        assert np.array_equal(g.values, before)
        assert np.array_equal(scratch, before - field.values)
    assert _same_check(kept.finish(), made.finish())


# --------------------------------------------------------------------------
# norm envelopes


def test_gronwall_damping_keeps_norms_below_initial(runs):
    for q in (1, 2, np.inf):
        check = check_gronwall(runs["damped"], rate=0.0, q=q)
        assert check.passed, f"q={q}"
        assert check.worst_slack >= -1e-8


def test_gronwall_rejects_impossible_envelope(runs):
    # an envelope decaying faster than the actual solution must fail
    check = check_gronwall(runs["damped"], rate=-5.0, q=2)
    assert not check.passed
    assert check.worst_slack < 0.0


def test_gronwall_zero_data_edge_cases(grid64):
    sched = Schedule(t_end=0.05, dt=0.01, save_stride=5)
    zero = solve_linear(PhaseField(grid64, np.zeros(grid64.phase_shape)),
                        CoefficientTrack(sched, grid64), SIGMA)
    assert check_gronwall(zero, rate=1.0, q=2).passed  # 0 <= 0 at every time
    # norm0 = 0 with nonzero data cannot satisfy any envelope
    lively = solve_linear(gaussian_phase(grid64), CoefficientTrack(sched, grid64), SIGMA)
    check = check_gronwall(lively, rate=1.0, q=2, norm0=0.0)
    assert not check.passed


def test_gronwall_envelope_of_zero_or_overflowing_size_is_no_nan(grid64):
    # 0 * e^x = 0 however large x, and an envelope beyond the largest float
    # holds for any finite norm; neither may warn (warnings are errors here)
    zero = PhaseField(grid64, np.zeros(grid64.phase_shape))
    lively = gaussian_phase(grid64)
    for field, norm0, slacks in ((zero, None, [0.0, 0.0, 0.0]),
                                 (lively, None, [0.0, 1.0, 1.0]),
                                 (lively, 0.0, [-np.inf] * 3)):
        fold = GronwallFold(1e4, 2, norm0=norm0)
        for t in (0.0, 0.05, 0.1):  # exp(0), exp(500) and exp(1000) > max float
            fold.add(t, field, FieldStats(field))
        check = fold.finish()
        assert check.slacks.tolist() == slacks
        assert check.passed == (slacks[0] == 0.0)
    # a zero density at a diffusivity whose second-moment envelope overflows
    code, payload = run_scenario(load_shipped_scenario("zero", ("params.sigma=4000",)))
    assert code == 0
    assert all(c["worst_slack"] == 0.0 for c in payload["checks"]
               if c["name"].startswith("gronwall"))


@pytest.mark.parametrize("check", ["gronwall", "energy"])
def test_norm_checks_read_the_cell_off_field_stats(runs, monkeypatch, check):
    # each field's cell of largest magnitude comes from its FieldStats: one
    # argmax and one argmin pass per field, and no |values| pass
    from angiosolve import harness
    traj, calls = runs["damped"], []
    extreme = harness._extreme

    def counting(arr, which):
        calls.append(which)
        return extreme(arr, which)

    monkeypatch.setattr(harness, "_extreme", counting)
    if check == "gronwall":
        result = check_gronwall(traj, rate=0.0, q=2)
    else:
        result = check_energy(traj, None, SIGMA)
    assert len(traj) == 5 and calls == ["max", "min"] * 5
    k = list(traj.times).index(result.worst_time)
    vals = np.abs(traj.fields[k].values)
    assert result.worst_cell == np.unravel_index(vals.argmax(), vals.shape)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["mixed", "tie", "zero"]))
def test_field_stats_read_the_abs_pass_off_two_extremes(seed, kind):
    # the folds share one argmax and one argmin pass per saved density; the
    # sup, the q = inf norm and the cell of largest magnitude read off them
    # must be what the |values| pass gives, ties included
    g = GridSpec(dim_x=1, dim_v=1, n_x=8, n_v=8, half_width_x=4.0, half_width_v=4.0)
    rng = np.random.default_rng(seed)
    vals = rng.integers(-3, 4, g.phase_shape).astype(float)
    if kind == "tie":  # +5 and -5 in two random cells, either one first
        hi, lo = rng.choice(vals.size, 2, replace=False)
        vals.flat[hi], vals.flat[lo] = 5.0, -5.0
    elif kind == "zero":
        vals[:] = 0.0
    stats = FieldStats(PhaseField(g, vals))
    mags = np.abs(vals)
    assert stats.sup == float(mags.max()) == stats.norm(np.inf)
    assert stats.largest_cell == np.unravel_index(mags.argmax(), mags.shape)
    assert stats.norm(2) == lq_norm(PhaseField(g, vals), 2)


# --------------------------------------------------------------------------
# energy balance


def test_energy_identity_on_free_flow(runs):
    # a = f = 0 turns the balance into an identity limited by quadrature
    check = check_energy(runs["free"], None, SIGMA)
    assert check.passed
    assert float(np.abs(check.slacks).max()) <= check.tolerance


def test_energy_check_uses_the_plans_real_layout(runs, monkeypatch):
    # the gradient energy is the heat plan's own Dirichlet form: no second,
    # full complex transform layout may be built for it
    def refuse(*args, **kwargs):
        raise AssertionError("the energy check called np.fft.fftn")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    assert check_energy(runs["damped"], None, SIGMA).passed


def test_energy_inequality_on_damped_flow(runs):
    check = check_energy(runs["damped"], None, SIGMA)
    assert check.passed
    # damping strictly removes L^2 energy: past the (identically zero)
    # initial residual the slack is visibly positive
    assert float(check.slacks[1:].min()) > 1e-6


def test_energy_detects_planted_gain(runs):
    traj = runs["free"]
    vals = traj.fields[2].values * 1.01  # 1% of extra energy from nowhere
    fields = list(traj.fields)
    fields[2] = PhaseField(traj.grid, vals, time_tag=fields[2].time_tag)
    check = check_energy(Trajectory(traj.times, fields), None, SIGMA)
    assert not check.passed
    assert check.worst_time == traj.times[2]


def test_energy_source_sample_count_is_checked(runs):
    with pytest.raises(ConfigurationError):
        check_energy(runs["free"], [runs["p0"]] * 2, SIGMA)


def test_energy_reads_one_shot_sources(runs):
    # the sources are read once, in order, and counted as they come
    damped, sources = runs["damped"], list(runs["free"].fields)
    from_gen = check_energy(damped, (f for f in sources), SIGMA)
    assert _same_check(from_gen, check_energy(damped, sources, SIGMA))
    for bad in (sources[:-1], sources + [sources[-1]]):
        with pytest.raises(ConfigurationError):
            check_energy(damped, iter(bad), SIGMA)


def test_energy_residual_is_scipys_trapezoid_bit_for_bit():
    # the running integrals are numpy arithmetic, so a checked run needs no
    # scipy; uneven saved times and a single time included
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 51):
        times = np.cumsum(rng.random(n))
        e, d, fw = rng.random(n), rng.random(n), rng.standard_normal(n)
        ref = (e[0] + 2.0 * cumulative_trapezoid(fw, x=times, initial=0.0) - e
               - 2.0 * 0.3 * cumulative_trapezoid(d, x=times, initial=0.0))
        assert _energy_residual(times, e, d, fw, 0.3).tobytes() == ref.tobytes()


def test_energy_short_run_uses_floor_tolerance(grid64):
    sched = Schedule(t_end=0.02, dt=0.01, save_stride=1)
    traj = solve_linear(gaussian_phase(grid64), CoefficientTrack(sched, grid64), SIGMA)
    check = check_energy(traj, None, SIGMA)  # 3 saved times: no Richardson
    assert check.tolerance == 1e-10


# --------------------------------------------------------------------------
# speed interpolation bound


def test_speed_bound_passes_on_clean_run(runs):
    sets = [moments_of(f) for f in runs["damped"].fields]
    check = check_speed_bound(sets)
    assert check.passed
    assert check.worst_slack >= -1e-10


def test_speed_bound_locates_inflated_moment(runs):
    sets = [moments_of(f) for f in runs["damped"].fields]
    ms = sets[1]
    # the interpolation bound has a factor-2 headroom over Cauchy-Schwarz,
    # so the planted speed moment must be inflated well past that
    sets[1] = MomentSet(ms.p_tilde,
                        SpatialField(ms.j.grid, ms.j.values * 4.0,
                                     time_tag=ms.j.time_tag),
                        ms.m)
    check = check_speed_bound(sets)
    assert not check.passed
    assert check.worst_time == sets[1].time_tag


def test_speed_bound_validation(runs):
    with pytest.raises(ConfigurationError):
        check_speed_bound([])
    sets = [moments_of(runs["damped"].fields[0])]
    with pytest.raises(ParameterError):
        check_speed_bound(sets, R_values=(0.0,))


# --------------------------------------------------------------------------
# concentration bounds


def test_c_bounds_recompute_far_field_from_diffusivity(runs):
    c_traj = runs["c_traj"]
    stripped = Trajectory(c_traj.times, c_traj.fields, aux={})
    check = check_c_bounds(stripped, c_traj.fields[0], diffusivity=0.05)
    assert check.passed
    with pytest.raises(TypeError):
        check_c_bounds(stripped, c_traj.fields[0])  # no way to rebuild c_inf


def test_c_bounds_catches_depletion_gain_behind_clamped_aux(runs):
    # depletion snapshots clamped to <= 0 cannot show a gain, so the check
    # must measure c against the far field itself: lift one cell 1e-9 * sup
    # c0 above its far field, still inside [0, sup c0], and hand it clamped
    # depletion snapshots that hide the gain
    c_traj = runs["c_traj"]
    c0 = c_traj.fields[0]
    sup_c0 = float(c0.values.max())
    k, cell = 2, (40,)
    plan = HeatPlan(c0.grid, 0.05, "x")
    far = [plan.apply(c0.values, float(t - c_traj.times[0]), "spatial")
           for t in c_traj.times]
    fields = list(c_traj.fields)
    vals = fields[k].values.copy()
    vals[cell] = far[k][cell] + 1e-9 * sup_c0
    assert 0.0 <= vals[cell] <= sup_c0
    fields[k] = SpatialField(c_traj.grid, vals, time_tag=fields[k].time_tag)
    clamped = [SpatialField(c_traj.grid, np.minimum(f.values - c_inf, 0.0),
                            time_tag=f.time_tag, role="c_hat")
               for f, c_inf in zip(fields, far)]
    bad = Trajectory(c_traj.times, fields, aux={"c_hat": clamped})
    assert max(float(f.values.max()) for f in bad.aux["c_hat"]) <= 0.0
    check = check_c_bounds(bad, c0, diffusivity=0.05)
    assert not check.passed
    assert check.worst_cell == cell
    assert check.worst_time == c_traj.times[k]


def test_c_bounds_locates_planted_excess(runs):
    c_traj = runs["c_traj"]
    c0 = c_traj.fields[0]
    cell = (11,)
    fields = list(c_traj.fields)
    vals = fields[2].values.copy()
    vals[cell] = float(c0.values.max()) * 1.05  # above the admissible ceiling
    fields[2] = SpatialField(c_traj.grid, vals, time_tag=fields[2].time_tag)
    bad = Trajectory(c_traj.times, fields, aux={})
    check = check_c_bounds(bad, c0, diffusivity=0.05)
    assert not check.passed
    assert check.worst_cell == cell
    assert check.worst_time == c_traj.times[2]
