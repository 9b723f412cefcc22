"""Independent reference computations the solver is judged against.

Nothing here shares discretisation machinery with the production stepper
beyond the exact spectral heat flow (which is a closed-form multiplier, not
a scheme).  The two integral-form referees transform through the same
:class:`HeatPlan` as the stepper (its ``forward``/``inverse`` and
``multiplier``), so the FFT layout lives in one place:

* :func:`fd_reference` -- explicit finite differences with a central-stencil
  Laplacian, first order in its own (tiny) time step and second order in h.
* :func:`duhamel_reference` -- fixed-point solve of the integral form
  p(t) = G(t) p0 - int_0^t G(t-s) (a p)(s) ds on the schedule's nodes
  with trapezoid weights; second order in dt with completely different error
  terms than the splitting.
* :func:`volterra_fundamental` -- Chebyshev collocation / Gauss quadrature
  solve of the fundamental solution of dp/dt = sigma Lap p - a(x) p from a
  lattice delta, accurate to quadrature precision (far below 1e-8) on the
  tiny grids it accepts, plus a Gaussian-envelope fit of the result; it is
  deterministic (closed-form interpolation weights, no global RNG draw).
* :func:`uniqueness_probe` -- reruns a scenario's fixed point from two
  different seeds and reports how far apart the converged answers land.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OracleError, ParameterError, ShapeError
from .grid import GridSpec, PhaseField, SpatialField, apply_sign
from .heat import HeatPlan
from .picard import _relative_delta
from .stepping import CoefficientTrack, Schedule, Trajectory


def _roll_laplacian(vals: np.ndarray, axes, spacings) -> np.ndarray:
    out = np.zeros_like(vals)
    for ax, h in zip(axes, spacings):
        out += (np.roll(vals, 1, axis=ax) + np.roll(vals, -1, axis=ax)
                - 2.0 * vals) / (h * h)
    return out


def fd_reference(p0: PhaseField, a_track: CoefficientTrack, sigma: float,
                 fine_dt: float) -> Trajectory:
    """Forward-Euler / central-difference reference solve.

    Marches dp/dt = sigma Lap p - a p with the 2nd-order periodic
    stencil Laplacian at the explicit step ``fine_dt``, which must respect
    the diffusion stability limit 0.9 / (2 sigma sum_axes h_axis^-2) and
    divide the track's save times.  Snapshots are returned at the track
    schedule's saved nodes, so the result is directly comparable with
    :func:`solve_linear` output.
    """
    grid = p0.grid
    if a_track.grid != grid:
        raise ShapeError("track and initial data live on different lattices")
    sigma = float(sigma)
    fine_dt = float(fine_dt)
    if not fine_dt > 0.0:
        raise ParameterError(f"fine_dt must be positive, got {fine_dt!r}")
    limit = 0.9 / (2.0 * sigma * (grid.dim_x / grid.h_x ** 2
                                  + grid.dim_v / grid.h_v ** 2))
    if fine_dt > limit * (1.0 + 1e-12):
        raise ParameterError(
            f"fine_dt = {fine_dt:g} violates the explicit diffusion stability "
            f"limit {limit:g} for this lattice"
        )
    schedule = a_track.schedule
    n_fine = int(round(schedule.t_end / fine_dt))
    if abs(n_fine * fine_dt - schedule.t_end) > 1e-9 * schedule.t_end:
        raise ConfigurationError(
            f"fine_dt = {fine_dt!r} does not divide t_end = {schedule.t_end!r}"
        )
    save_idx = {}
    for node in schedule.saved_nodes():
        t = node * schedule.dt
        i = int(round(t / fine_dt))
        if abs(i * fine_dt - t) > 1e-9 * max(t, fine_dt):
            raise ConfigurationError(
                f"fine_dt does not hit the save time {t!r}; choose a divisor of dt"
            )
        save_idx[i] = t

    axes = tuple(range(grid.dim_x + grid.dim_v))
    spacings = (grid.h_x,) * grid.dim_x + (grid.h_v,) * grid.dim_v
    vals = p0.values.astype(float)
    t0 = p0.time_tag
    fields, times = [], []
    if 0 in save_idx:
        fields.append(PhaseField(grid, vals, time_tag=t0))
        times.append(t0)
    for i in range(n_fine):
        t = i * fine_dt
        rhs = sigma * _roll_laplacian(vals, axes, spacings)
        a_t = a_track.coefficient_at(t)
        if a_t is not None:
            rhs = rhs - a_t * vals
        vals = vals + fine_dt * rhs
        if (i + 1) in save_idx:
            fields.append(PhaseField(grid, vals, time_tag=t0 + save_idx[i + 1]))
            times.append(t0 + save_idx[i + 1])
    return Trajectory(times, fields)


def duhamel_reference(p0: PhaseField, track: CoefficientTrack, sigma: float,
                      sweep_tol: float = 1e-13, max_sweeps: int = 200) -> Trajectory:
    """Trapezoid fixed point of the integral (mild-solution) form.

    Works on the track's schedule nodes: with G the exact heat semigroup,

        p_j = G_j p0 - sum_i w_i G_{j-i} (a_i p_i),   w = trapezoid,

    swept until successive node values agree to ``sweep_tol`` in relative
    sup norm.  Requires the damping to be weak enough on the window for the
    sweep to contract (raises OracleError otherwise); keep t_end * sup|a|
    comfortably below ~3 when using it as a referee.
    """
    grid = p0.grid
    if track.grid != grid:
        raise ShapeError("track and initial data live on different lattices")
    schedule = track.schedule
    dt = schedule.dt
    n = schedule.n_steps
    plan = HeatPlan(grid, sigma, "xv")
    mult = [plan.multiplier(l * dt, "phase") for l in range(n + 1)]
    p0_hat = plan.forward(p0.values, "phase")

    # trapezoid weights on 0..j: dt/2 at both ends, dt inside
    def weights(j):
        w = np.full(j + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        return w

    base = [m * p0_hat for m in mult]

    a_nodes = [track.coefficient_node(i) for i in range(n + 1)]
    has_a = any(a is not None for a in a_nodes)
    p = [plan.inverse(b, "phase") for b in base]
    if has_a:
        for sweep in range(max_sweeps):
            q_hat = [
                None if a_nodes[i] is None else plan.forward(a_nodes[i] * p[i], "phase")
                for i in range(n + 1)
            ]
            worst = 0.0
            scale = max(float(np.abs(pi).max()) for pi in p) or 1.0
            new_p = [p[0]]
            for j in range(1, n + 1):
                acc = base[j].copy()
                w = weights(j)
                for i in range(j + 1):
                    if q_hat[i] is not None:
                        acc -= w[i] * (mult[j - i] * q_hat[i])
                pj = plan.inverse(acc, "phase")
                worst = max(worst, float(np.abs(pj - p[j]).max()))
                new_p.append(pj)
            p = new_p
            if worst / scale <= sweep_tol:
                break
        else:
            raise OracleError(
                f"Duhamel sweep did not contract to {sweep_tol:g} within "
                f"{max_sweeps} sweeps; shorten the window or weaken the damping"
            )

    t0 = p0.time_tag
    fields, times = [], []
    for node in schedule.saved_nodes():
        t = t0 + node * dt
        fields.append(PhaseField(grid, p[node], time_tag=t))
        times.append(t)
    return Trajectory(times, fields)


@dataclass(frozen=True)
class VolterraResult:
    """Fundamental solution at time t plus its Gaussian-envelope fit."""

    field: PhaseField
    source_cell: tuple
    sweeps: int
    fit_c: float
    fit_gamma: float
    fit_scan: tuple          # ((gamma, C), ...) over the scanned gamma grid
    history: tuple           # per-sweep endpoint fields when requested, else ()


def _periodic_dist_sq(grid: GridSpec, cell) -> np.ndarray:
    """Squared periodic distance of every phase cell centre to ``cell``'s."""
    terms = []
    x = grid.x_coords()
    for ax in range(grid.dim_x):
        d = np.abs(x - x[cell[ax]])
        d = np.minimum(d, 2.0 * grid.half_width_x - d)
        terms.append((d * d, ax))
    v = grid.v_coords()
    for k in range(grid.dim_v):
        ax = grid.dim_x + k
        d = np.abs(v - v[cell[ax]])
        d = np.minimum(d, 2.0 * grid.half_width_v - d)
        terms.append((d * d, ax))
    ndim = grid.dim_x + grid.dim_v
    out = np.zeros(grid.phase_shape)
    for d2, ax in terms:
        expand = [1] * ndim
        expand[ax] = d2.size
        out = out + d2.reshape(expand)
    return out


def volterra_fundamental(a, sigma: float, grid: GridSpec, t: float,
                         source_cell=None, n_nodes: int = 33, n_quad: int = 48,
                         sweep_tol: float = 1e-12, max_sweeps: int = 100,
                         keep_history: bool = False) -> VolterraResult:
    """Fundamental solution of dp/dt = sigma Lap p - a(x[,v]) p from a delta.

    Solves the equivalent Volterra equation Gamma(t) = G(t) delta -
    int_0^t G(t-s) a Gamma(s) ds by iterating on the *smooth remainder*
    R = G delta - Gamma collocated at Chebyshev-Lobatto times (R(0) = 0, so
    the delta's singular short-time behaviour never has to be interpolated);
    the integrals use Gauss-Legendre quadrature per collocation target.  For
    analytic-in-time integrands the combined error is driven to sweep
    tolerance, far below 1e-8.

    The coefficient ``a`` must be nonnegative (a SpatialField, PhaseField, or
    None) and constant in time; the lattice is restricted to at most 32
    points per axis and 4096 cells in total (kernel caching).  The default
    source cell is the lattice centre.

    The returned fit (C, gamma) is the smallest C, at the largest stable
    gamma from a fixed scan below 1/(4 sigma), with

        Gamma(z) <= C e^{C t} t^{-n/2} exp(-gamma dist(z, z')^2 / t).
    """
    sigma = float(sigma)
    t = float(t)
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ParameterError(f"sigma must be positive, got {sigma!r}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ParameterError(f"t must be positive, got {t!r}")
    if grid.n_x > 32 or grid.n_v > 32 or int(np.prod(grid.phase_shape)) > 4096:
        raise ConfigurationError(
            "the fundamental-solution oracle is restricted to lattices with "
            "<= 32 points per axis and <= 4096 cells"
        )
    if n_nodes < 8 or n_quad < 8:
        raise ParameterError("need at least 8 collocation nodes and quadrature points")

    ndim = grid.dim_x + grid.dim_v
    if source_cell is None:
        source_cell = tuple(s // 2 for s in grid.phase_shape)
    source_cell = tuple(int(i) for i in source_cell)
    if len(source_cell) != ndim or any(
            not 0 <= source_cell[k] < grid.phase_shape[k] for k in range(ndim)):
        raise ParameterError(f"source cell {source_cell!r} is outside the lattice")

    a_vals = None
    if a is not None:
        if isinstance(a, (SpatialField, PhaseField)):
            if a.grid != grid:
                raise ShapeError("coefficient lives on a different lattice")
            a_vals = a.values
        else:
            a_vals = np.asarray(a, dtype=float)
        a_vals = apply_sign(a_vals, +1, "the oracle's coefficient")
        if a_vals.ndim == grid.dim_x:
            a_vals = a_vals.reshape(grid.spatial_shape + (1,) * grid.dim_v)
        a_vals = np.broadcast_to(a_vals, grid.phase_shape)

    plan = HeatPlan(grid, sigma, "xv")

    delta = np.zeros(grid.phase_shape)
    delta[source_cell] = 1.0 / grid.cell_volume
    delta_hat = plan.forward(delta, "phase")

    def g_delta(tau_batch):
        """G(tau) delta for a 1-D array of times, batched."""
        out = np.empty((len(tau_batch),) + grid.phase_shape)
        for idx, tau in enumerate(tau_batch):
            out[idx] = plan.inverse(plan.multiplier(float(tau), "phase") * delta_hat,
                                    "phase")
        return out

    # Chebyshev-Lobatto collocation times on [0, t] (ascending, tau_0 = 0)
    i = np.arange(n_nodes)
    tau = 0.5 * t * (1.0 - np.cos(math.pi * i / (n_nodes - 1)))
    tau[0], tau[-1] = 0.0, t

    # Gauss-Legendre rule per collocation target, on [0, tau_j]
    x_gl, w_gl = np.polynomial.legendre.leggauss(n_quad)
    s_all, w_all, owner = [], [], []
    for j in range(1, n_nodes):
        s_all.append(0.5 * tau[j] * (x_gl + 1.0))
        w_all.append(0.5 * tau[j] * w_gl)
        owner.append(np.full(n_quad, j))
    s_all = np.concatenate(s_all)
    w_all = np.concatenate(w_all)
    owner = np.concatenate(owner)

    g_delta_s = g_delta(s_all)            # G(s) delta at all quadrature times
    g_delta_tau = g_delta(tau)            # ... and at the collocation nodes

    if a_vals is None:
        gamma_end = g_delta_tau[-1]
        sweeps = 0
        history = []
    else:
        # scipy serves the referees only: imported where they use it, so a
        # checked run never loads it
        from scipy.interpolate import BarycentricInterpolator

        lag_mult = [plan.multiplier(float(tau[owner[q]] - s_all[q]), "phase")
                    for q in range(len(s_all))]
        r_nodes = np.zeros((n_nodes,) + grid.phase_shape)
        # closed-form Chebyshev-Lobatto weights: scipy's own ones draw on numpy's global RNG
        wi = np.where((i == 0) | (i == n_nodes - 1), 0.5, 1.0) * (-1.0) ** i
        interp = BarycentricInterpolator(tau, axis=0, wi=wi)
        history = []
        sweeps = 0
        for sweep in range(1, max_sweeps + 1):
            sweeps = sweep
            interp.set_yi(r_nodes)
            r_at_s = interp(s_all)
            gamma_s = g_delta_s - r_at_s
            q_hat = plan.forward(a_vals * gamma_s, "phase")
            r_new = np.zeros_like(r_nodes)
            for q in range(len(s_all)):
                j = int(owner[q])
                r_new[j] += w_all[q] * plan.inverse(lag_mult[q] * q_hat[q], "phase")
            worst = float(np.abs(r_new - r_nodes).max())
            scale = float(np.abs(g_delta_tau - r_new).max()) or 1.0
            r_nodes = r_new
            if keep_history:
                history.append(g_delta_tau[-1] - r_nodes[-1])
            if worst / scale <= sweep_tol:
                break
        else:
            raise OracleError(
                f"Volterra sweep stalled above {sweep_tol:g} after {max_sweeps} "
                f"sweeps; shorten t or weaken the coefficient"
            )
        gamma_end = g_delta_tau[-1] - r_nodes[-1]

    worst = float(gamma_end.min())
    if worst <= 0.0:
        idx = tuple(int(k) for k in np.unravel_index(gamma_end.argmin(), gamma_end.shape))
        raise OracleError(
            f"fundamental solution lost strict positivity (min {worst:.3e} at "
            f"cell {idx}); the quadrature cannot certify this configuration"
        )

    # Gaussian envelope fit: C e^{Ct} = max_z Gamma(z) t^{n/2} e^{gamma d^2/t}
    from scipy.special import lambertw

    d2 = _periodic_dist_sq(grid, source_cell)
    scan = []
    for frac in (0.95, 0.9, 0.8, 0.6, 0.4, 0.25, 0.1):
        g = frac / (4.0 * sigma)
        m_val = float(np.max(gamma_end * t ** (ndim / 2.0) * np.exp(g * d2 / t)))
        c_val = float(np.real(lambertw(t * m_val))) / t
        scan.append((g, c_val))
    c_floor = min(c for _, c in scan)
    fit_gamma, fit_c = next((g, c) for g, c in scan if c <= 10.0 * c_floor)

    field = PhaseField(grid, gamma_end, time_tag=t, nonnegative=False)
    return VolterraResult(field=field, source_cell=source_cell, sweeps=sweeps,
                          fit_c=fit_c, fit_gamma=fit_gamma,
                          fit_scan=tuple(scan),
                          history=tuple(PhaseField(grid, h, time_tag=t)
                                        for h in history))


def uniqueness_probe(scenario, seed_a: str = "zero", seed_b: str = "heat",
                     tol: float = 1e-8) -> float:
    """Converge a scenario's fixed point from two seeds; report the gap.

    Runs the scenario's driver twice with iteration seeds ``seed_a`` and
    ``seed_b`` at tolerance ``tol`` and returns the largest relative
    sup-norm deviation between the two converged runs over all saved times
    (densities and, for coupled runs, concentrations).  A unique fixed point
    puts this within a small multiple of ``tol``.
    """
    from .scenarios import realise  # deferred: scenarios imports drivers

    made = realise(scenario)
    results = [made.drive(tol=tol, init=seed) for seed in (seed_a, seed_b)]
    for _, _, diag in results:
        if not diag.converged:
            raise OracleError("a probe run failed to converge; cannot compare seeds")
    (pa, ca, _), (pb, cb, _) = results
    pairs = [(pa, pb)] if ca is None else [(pa, pb), (ca, cb)]
    return max(_relative_delta([f.values for f in ta.fields],
                               [f.values for f in tb.fields]) for ta, tb in pairs)
