"""Acceptance gate: fourteen numbered criteria over the shipped scenarios.

Each test evaluates one criterion end to end and emits exactly one
``acceptance NN <label>: PASS|FAIL`` line (visible under ``pytest -s`` and
in the failure report).  The shipped runs come from the session fixtures;
order probes and the fault-injection fixtures are built locally.
"""

import math

import numpy as np
import pytest

from angiosolve import (
    CoefficientTrack,
    HeatPlan,
    MomentSet,
    PhaseField,
    Schedule,
    SpatialField,
    Trajectory,
    alpha_of_c,
    check_c_bounds,
    check_comparison,
    check_energy,
    check_gronwall,
    check_positivity,
    check_speed_bound,
    duhamel_reference,
    fd_reference,
    gaussian_rho,
    heat_step,
    integrate_phase,
    load_shipped_scenario,
    lq_norm,
    moments_of,
    picard_coupled,
    realise,
    second_moment,
    solve_linear,
    uniqueness_probe,
    velocity_marginal,
    volterra_fundamental,
)
from angiosolve.grid import GridSpec

from conftest import gaussian_phase, small_grid
from test_picard import _params, _flat_in_x, _c_bump


def _verdict(num, label, ok, detail=""):
    line = f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, f"{line} {detail}".strip()


def _rho_sup(params, dim_v):
    return (math.pi * params.epsilon) ** (-dim_v / 2.0)


def _production_majorant(p0, times, sigma, rate):
    """exp(rate t) times the exact heat flow of p0 at the saved times."""
    plan = HeatPlan(p0.grid, sigma, "xv")
    fields = [
        PhaseField(p0.grid,
                   math.exp(rate * t) * plan.apply(p0.values, float(t), "phase"),
                   time_tag=float(t))
        for t in times
    ]
    return Trajectory(times, fields)


def test_criterion_01_heat_semigroup_exactness():
    g = small_grid(256)
    p0 = gaussian_phase(g)
    plan = HeatPlan(g, 0.05, "xv")
    evolved = plan.apply(p0.values, 0.37, "phase")

    mass_drift = abs(integrate_phase(PhaseField(g, evolved))
                     - integrate_phase(p0)) / integrate_phase(p0)
    two_step = plan.apply(plan.apply(p0.values, 0.23, "phase"), 0.14, "phase")
    law_gap = float(np.abs(two_step - evolved).max()) / float(evolved.max())
    analytic = gaussian_phase(g, var_x=0.5 + 2 * 0.05 * 0.37,
                              var_v=0.5 + 2 * 0.05 * 0.37)
    point_gap = float(np.abs(evolved - analytic.values).max()) \
        / float(analytic.values.max())

    ok = mass_drift <= 1e-12 and law_gap <= 1e-10 and point_gap <= 1e-8
    _verdict(1, "heat-semigroup exactness", ok,
             f"mass {mass_drift:.2e}, law {law_gap:.2e}, point {point_gap:.2e}")


def test_criterion_02_positivity_of_shipped_runs(zero_fix, pure_fix,
                                                 coupled_fix, smoke_fix):
    checks = [
        check_positivity(zero_fix["traj"]),
        check_positivity(pure_fix["traj"]),
        check_positivity(coupled_fix["p_traj"]),
        check_positivity(coupled_fix["c_traj"]),
        check_positivity(smoke_fix["p_traj"]),
        check_positivity(smoke_fix["c_traj"]),
    ]
    ok = all(c.passed for c in checks)
    _verdict(2, "positivity on every shipped trajectory", ok,
             f"worst slack {min(c.worst_slack for c in checks):.2e}")


def test_criterion_03_heat_flow_majorants(pure_fix, coupled_fix, smoke_fix):
    checks = []
    for fix, key in ((pure_fix, "traj"), (coupled_fix, "p_traj"),
                     (smoke_fix, "p_traj")):
        sc = fix["scenario"]
        rate = 0.0 if sc.driver == "pure" else \
            sc.params.alpha1 * _rho_sup(sc.params, sc.grid.dim_v)
        maj = _production_majorant(fix["p0"], fix[key].times,
                                   sc.params.sigma, rate)
        checks.append(check_comparison(fix[key], maj, tol=1e-10))
    ok = all(c.passed for c in checks)
    _verdict(3, "production-envelope comparison", ok,
             f"worst slack {min(c.worst_slack for c in checks):.2e}")


def test_criterion_04_gronwall_envelopes(pure_fix, coupled_fix, smoke_fix):
    checks = []
    for fix, key in ((pure_fix, "traj"), (coupled_fix, "p_traj"),
                     (smoke_fix, "p_traj")):
        sc = fix["scenario"]
        tol = 1e-8 + sc.schedule.dt ** 2
        rate = 0.0 if sc.driver == "pure" else \
            sc.params.alpha1 * _rho_sup(sc.params, sc.grid.dim_v)
        traj = fix[key]
        pt_traj = Trajectory(traj.times,
                             [velocity_marginal(f) for f in traj.fields])
        m_traj = Trajectory(traj.times,
                            [second_moment(f) for f in traj.fields])
        m0 = second_moment(fix["p0"])
        m_rate = rate + 2.0 * sc.params.sigma * sc.grid.dim_v
        for q in (1, 2, np.inf):
            checks.append(check_gronwall(traj, rate, q, tol=tol))
            checks.append(check_gronwall(pt_traj, rate, q, tol=tol))
            checks.append(check_gronwall(m_traj, m_rate, q, tol=tol,
                                         norm0=lq_norm(m0, q)))
    ok = all(c.passed for c in checks)
    _verdict(4, "exponential norm envelopes (density, marginal, second moment)",
             ok, f"worst slack {min(c.worst_slack for c in checks):.2e}")


def _production_fields(sc, p_traj, c_traj):
    g = sc.grid
    v0 = sc.params.v0 if len(sc.params.v0) == g.dim_v \
        else sc.params.v0 * g.dim_v
    rho = gaussian_rho(g, sc.params.epsilon, v0)
    out = []
    for pf, cf in zip(p_traj.fields, c_traj.fields):
        alpha = alpha_of_c(cf, sc.params.alpha1, sc.params.c_R).values
        prod = (alpha.reshape(g.spatial_shape + (1,) * g.dim_v)
                * rho.values.reshape((1,) * g.dim_x + g.velocity_shape)
                * pf.values)
        out.append(PhaseField(g, prod, time_tag=pf.time_tag))
    return out


def test_criterion_05_energy_balance(pure_fix, coupled_fix, smoke_fix):
    checks = [check_energy(pure_fix["traj"], None,
                           pure_fix["scenario"].params.sigma)]
    for fix in (coupled_fix, smoke_fix):
        sc = fix["scenario"]
        f_fields = _production_fields(sc, fix["p_traj"], fix["c_traj"])
        checks.append(check_energy(fix["p_traj"], f_fields, sc.params.sigma))

    # identity version: with a = f = 0 the residual is pure quadrature error
    # and must shrink at second order under dt halving
    g = small_grid(64)
    p0 = gaussian_phase(g)
    resid = []
    for dt in (0.02, 0.01, 0.005):
        sched = Schedule(t_end=0.2, dt=dt, save_stride=1)
        traj = solve_linear(p0, CoefficientTrack(sched, g), 0.05)
        resid.append(float(np.abs(check_energy(traj, None, 0.05).slacks).max()))
    ratios = [resid[0] / resid[1], resid[1] / resid[2]]

    ok = all(c.passed for c in checks) and all(3.3 < r < 4.7 for r in ratios)
    _verdict(5, "energy inequality and O(dt^2) identity", ok,
             f"slacks {[f'{c.worst_slack:.1e}' for c in checks]}, "
             f"identity ratios {[f'{r:.2f}' for r in ratios]}")


def test_criterion_06_speed_moment_bound(pure_fix, coupled_fix, smoke_fix):
    checks = [
        check_speed_bound([moments_of(f) for f in fix[key].fields], tol=1e-10)
        for fix, key in ((pure_fix, "traj"), (coupled_fix, "p_traj"),
                         (smoke_fix, "p_traj"))
    ]
    ok = all(c.passed for c in checks)
    _verdict(6, "speed interpolation bound at R in {0.5, 1, 2, optimal}", ok,
             f"worst slack {min(c.worst_slack for c in checks):.2e}")


def test_criterion_07_concentration_bounds(coupled_fix, smoke_fix):
    checks = [check_c_bounds(fix["c_traj"], fix["c0"],
                             diffusivity=fix["scenario"].params.d, tol=1e-12)
              for fix in (coupled_fix, smoke_fix)]
    ok = all(c.passed for c in checks)
    _verdict(7, "concentration window and nonpositive depletion", ok,
             f"worst slack {min(c.worst_slack for c in checks):.2e}")


def test_criterion_08_solver_accuracy_orders():
    g = small_grid(64)
    p0 = gaussian_phase(g)
    a_vals = np.exp(-g.x_coords()[:, None] ** 2 / 8.0) \
        * np.ones(g.n_v)[None, :]

    diffs = {}
    for dt in (0.04, 0.02, 0.01):
        sched = Schedule(t_end=0.2, dt=dt,
                         save_stride=max(1, int(round(0.04 / dt))))
        track = CoefficientTrack(sched, g, a=PhaseField(g, a_vals))
        du = duhamel_reference(p0, track, 0.05)
        sol = solve_linear(p0, track, 0.05)
        diffs[dt] = max(float(np.abs(x.values - y.values).max())
                        for x, y in zip(sol.fields[1:], du.fields[1:]))
    slope = np.polyfit([math.log(d) for d in diffs],
                       [math.log(e) for e in diffs.values()], 1)[0]

    errs = {}
    for n in (32, 64, 128):
        gn = small_grid(n)
        p0n = gaussian_phase(gn, var_x=1.6, var_v=1.6)
        an = PhaseField(gn, np.exp(-gn.x_coords()[:, None] ** 2 / 8.0)
                        * np.ones(gn.n_v)[None, :])
        sched = Schedule(t_end=0.2, dt=0.1, save_stride=1)
        fd = fd_reference(p0n, CoefficientTrack(sched, gn, a=an), 0.05,
                          gn.h_x ** 2 / 20.0)
        sched_f = Schedule(t_end=0.2, dt=0.0025, save_stride=40)
        ref = solve_linear(p0n, CoefficientTrack(sched_f, gn, a=an), 0.05)
        scale = float(np.abs(ref.fields[-1].values).max())
        errs[n] = max(float(np.abs(x.values - y.values).max())
                      for x, y in zip(fd.fields[1:], ref.fields[1:])) / scale
    h_ratios = [errs[32] / errs[64], errs[64] / errs[128]]

    ok = 1.7 < slope < 2.3 and all(3.4 < r < 4.6 for r in h_ratios)
    _verdict(8, "order 2.0 +- 0.3 vs mild solution, order 2 in h vs stencil",
             ok, f"dt slope {slope:.3f}, h ratios "
                 f"{[f'{r:.2f}' for r in h_ratios]}")


def test_criterion_09_fixed_point_convergence(zero_fix, pure_fix, coupled_fix,
                                              smoke_fix):
    diags = [fix["diag"] for fix in (zero_fix, pure_fix, coupled_fix,
                                     smoke_fix)]
    ok = all(d.converged for d in diags) \
        and all(k <= 20 for d in diags for k in d.k_per_slab) \
        and all(d.deltas_strictly_decreasing() for d in diags)
    _verdict(9, "iterate deltas strictly decreasing, tol 1e-8 within k_max 20",
             ok, f"k_per_slab {[list(d.k_per_slab) for d in diags]}")


def test_criterion_10_seed_independence():
    dev_pure = uniqueness_probe(load_shipped_scenario("pure-gaussian"))
    dev_coupled = uniqueness_probe(load_shipped_scenario("coupled-ramp"))
    ok = dev_pure < 1e-7 and dev_coupled < 1e-7
    _verdict(10, "distinct seeds converge to one fixed point", ok,
             f"pure {dev_pure:.2e}, coupled {dev_coupled:.2e}")


def test_criterion_11_volterra_oracle():
    g = GridSpec(dim_x=1, dim_v=1, n_x=32, n_v=32,
                 half_width_x=2.0, half_width_v=2.0)
    sigma, t = 0.2, 0.3

    const = volterra_fundamental(1.5 + np.zeros(g.phase_shape), sigma, g, t)
    plan = HeatPlan(g, sigma, "xv")
    delta = np.zeros(g.phase_shape)
    delta[g.n_x // 2, g.n_v // 2] = 1.0 / g.cell_volume
    kernel = plan.apply(delta, t, "phase")
    const_gap = float(np.abs(const.field.values
                             - math.exp(-1.5 * t) * kernel).max()) \
        / float(kernel.max())

    a_bump = 1.5 * np.exp(-g.x_coords()[:, None] ** 2 / 0.5) \
        * np.ones(g.n_v)[None, :]
    res = volterra_fundamental(a_bump, 0.3, g, 0.4)
    free = HeatPlan(g, 0.3, "xv").apply(delta, 0.4, "phase")
    dominated = float((free - res.field.values).min()) \
        >= -1e-10 * float(free.max())
    fit_ok = np.isfinite(res.fit_c) and res.fit_c > 0.0 \
        and 0.0 < res.fit_gamma < 1.0 / (4.0 * 0.3)

    ok = const_gap <= 1e-8 and float(res.field.values.min()) > 0.0 \
        and dominated and fit_ok
    _verdict(11, "fundamental-solution referee: closed form, domination, fit",
             ok, f"const gap {const_gap:.2e}, fit "
                 f"(C, gamma) = ({res.fit_c:.3g}, {res.fit_gamma:.3g})")


def test_criterion_12_alpha_lipschitz():
    g = GridSpec(dim_x=2, dim_v=1, n_x=512, n_v=8,
                 half_width_x=8.0, half_width_v=8.0)
    rng = np.random.default_rng(20260814)
    shape = g.spatial_shape  # 512 x 512: 262144 pairs
    half = np.s_[: shape[0] // 2]
    c1 = rng.uniform(0.0, 1e6, shape)
    c2 = rng.uniform(0.0, 1e6, shape)
    c1[half] = rng.lognormal(0.0, 2.0, (shape[0] // 2, shape[1]))
    c2[half] = rng.lognormal(0.0, 2.0, (shape[0] // 2, shape[1]))
    alpha1, c_R = 0.5, 1.0
    a1 = alpha_of_c(SpatialField(g, c1), alpha1, c_R).values
    a2 = alpha_of_c(SpatialField(g, c2), alpha1, c_R).values
    violations = int(np.count_nonzero(
        np.abs(a1 - a2) > (alpha1 / c_R) * np.abs(c1 - c2)))
    _verdict(12, "saturating rate is (alpha1/c_R)-Lipschitz", violations == 0,
             f"{violations} violations out of {c1.size} pairs")


def test_criterion_13_coupling_switch_off():
    base = ("params.alpha1=0.0",)
    made_c = realise(load_shipped_scenario("coupled-ramp", overrides=base))
    p_c, _, diag_c = made_c.drive()
    made_p = realise(load_shipped_scenario(
        "coupled-ramp",
        overrides=base + ("scenario.driver=pure", "checks.names=positivity")))
    p_p, _, diag_p = made_p.drive()
    scale = max(float(np.abs(f.values).max()) for f in p_p.fields)
    dev = max(float(np.abs(a.values - b.values).max())
              for a, b in zip(p_c.fields, p_p.fields)) / scale
    ok = diag_c.converged and diag_p.converged and dev <= 1e-12
    _verdict(13, "alpha1 = 0 coupled run reproduces the pure run", ok,
             f"relative deviation {dev:.2e}")


@pytest.fixture(scope="module")
def fault_base():
    g = small_grid(64)
    p0 = gaussian_phase(g)
    sched = Schedule(t_end=0.2, dt=0.01, save_stride=5)
    a = PhaseField(g, np.exp(-g.x_coords()[:, None] ** 2 / 8.0)
                   * np.ones(g.n_v)[None, :])
    damped = solve_linear(p0, CoefficientTrack(sched, g, a=a), 0.05)
    free = solve_linear(p0, CoefficientTrack(sched, g), 0.05)
    _, c_traj, _ = picard_coupled(_flat_in_x(g), _c_bump(g), _params(), sched,
                                  tol=1e-9)
    return {"grid": g, "damped": damped, "free": free, "c_traj": c_traj}


def _swap_field(traj, k, vals):
    fields = list(traj.fields)
    cls = type(fields[k])
    fields[k] = cls(traj.grid, vals, time_tag=fields[k].time_tag)
    return Trajectory(traj.times, fields)


def test_criterion_14_fault_injection(fault_base):
    g = fault_base["grid"]
    damped, free, c_traj = (fault_base["damped"], fault_base["free"],
                            fault_base["c_traj"])
    results = []

    vals = damped.fields[2].values.copy()
    vals[51, 37] = -1e-2 * float(vals.max())
    check = check_positivity(_swap_field(damped, 2, vals))
    results.append(check.name == "positivity" and not check.passed
                   and check.worst_cell == (51, 37)
                   and check.worst_time == damped.times[2])

    vals = damped.fields[3].values.copy()
    vals[20, 33] = 1.1 * float(free.fields[3].values.max())
    check = check_comparison(_swap_field(damped, 3, vals), free)
    results.append(check.name == "comparison" and not check.passed
                   and check.worst_cell == (20, 33)
                   and check.worst_time == damped.times[3])

    vals = 2.0 * damped.fields[3].values
    check = check_gronwall(_swap_field(damped, 3, vals), rate=0.0, q=np.inf)
    peak = np.unravel_index(int(vals.argmax()), vals.shape)
    results.append(check.name == "gronwall" and not check.passed
                   and check.worst_cell == tuple(int(i) for i in peak)
                   and check.worst_time == damped.times[3])

    vals = 2.0 * free.fields[-1].values
    check = check_energy(_swap_field(free, len(free) - 1, vals), None, 0.05)
    results.append(check.name == "energy" and not check.passed
                   and check.worst_time == free.times[-1])

    sets = [moments_of(f) for f in damped.fields]
    j_vals = sets[1].j.values.copy()
    j_vals[40] *= 40.0
    sets[1] = MomentSet(sets[1].p_tilde,
                        SpatialField(g, j_vals, time_tag=sets[1].j.time_tag),
                        sets[1].m)
    check = check_speed_bound(sets)
    results.append(check.name == "speed_bound" and not check.passed
                   and check.worst_cell == (40,)
                   and check.worst_time == damped.times[1])

    c0 = c_traj.fields[0]
    c_vals = c_traj.fields[2].values.copy()
    c_vals[11] = 1.05 * float(c0.values.max())
    bad = Trajectory(c_traj.times,
                     [c_traj.fields[0], c_traj.fields[1],
                      SpatialField(g, c_vals, time_tag=c_traj.fields[2].time_tag)]
                     + list(c_traj.fields[3:]), aux={})
    check = check_c_bounds(bad, c0, diffusivity=0.05)
    results.append(check.name == "c_bounds" and not check.passed
                   and check.worst_cell == (11,)
                   and check.worst_time == c_traj.times[2])

    ok = all(results)
    _verdict(14, "planted faults are caught and located by name and cell", ok,
             f"per-check outcomes {results}")
