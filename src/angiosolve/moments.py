"""Velocity moments of phase densities and their consistency diagnostics.

For a density p(x, v) the reduced fields are

* the velocity marginal   p~(x)  = integral of p over v,
* the speed moment        j(x)   = integral of |v| p over v,
* the second moment       m(x)   = integral of |v|^2 p over v,

computed with the midpoint rule on the velocity lattice using the exact
Euclidean speed of each cell centre.  For nonnegative p the three are tied
cellwise by the Cauchy-Schwarz inequality j^2 <= p~ * m, and j obeys the
interpolation bound j <= R p~ + m / R for every R > 0; the harness checks
both on solver output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, ShapeError
from .grid import (PhaseField, SpatialField, apply_sign, integrate_phase,
                   speed_grid, speed_squared_grid)
from .heat import HeatPlan


def _reduce_raw(vals: np.ndarray, g, weight=None) -> np.ndarray:
    if weight is None:
        return vals.sum(axis=g.v_axes) * g.v_cell_volume
    return np.tensordot(vals, weight, axes=(g.v_axes, tuple(range(g.dim_v)))) \
        * g.v_cell_volume


def _v_reduce(p: PhaseField, weight=None) -> np.ndarray:
    return _reduce_raw(p.values, p.grid, weight)


def velocity_marginal(p: PhaseField) -> SpatialField:
    """Integral of p over the velocity box; role-tagged ``p_tilde``."""
    return SpatialField(p.grid, _v_reduce(p), time_tag=p.time_tag, role="p_tilde")


def speed_moment(p: PhaseField) -> SpatialField:
    """Integral of |v| p over the velocity box; role-tagged ``j``."""
    return SpatialField(p.grid, _v_reduce(p, speed_grid(p.grid)),
                        time_tag=p.time_tag, role="j")


def _first_moment_weights(g) -> list:
    """One weight lattice per velocity axis: that axis's cell-centre velocity."""
    v = g.v_coords()
    weights = []
    for ax in range(g.dim_v):
        expand = [1] * g.dim_v
        expand[ax] = v.size
        weights.append(np.ascontiguousarray(
            np.broadcast_to(v.reshape(expand), g.velocity_shape)))
    return weights


def _vector_j(vals: np.ndarray, g, weights) -> tuple:
    """(unscaled per-axis sums of v_k p, magnitude of the first moment).

    The magnitude carries the cell volume; the components do not.  The
    fixed-point drivers record the magnitude at every node through this.
    """
    v_axes = tuple(range(g.dim_v))
    comps = [np.tensordot(vals, w, axes=(g.v_axes, v_axes)) for w in weights]
    sq = None
    for comp in comps:
        sq = comp ** 2 if sq is None else sq + comp ** 2
    return comps, np.sqrt(sq) * g.v_cell_volume


def vector_speed_moment(p: PhaseField):
    """First moment vector (integral of v p) and its magnitude.

    Returns ``(components, magnitude)`` where ``components`` is a list of
    signed SpatialFields (one per velocity axis) and ``magnitude`` is the
    cellwise Euclidean length, role-tagged ``j``.  The magnitude never
    exceeds the scalar speed moment (triangle inequality).
    """
    g = p.grid
    comps, mag = _vector_j(p.values, g, _first_moment_weights(g))
    return ([SpatialField(g, comp * g.v_cell_volume, time_tag=p.time_tag)
             for comp in comps],
            SpatialField(g, mag, time_tag=p.time_tag, role="j"))


def second_moment(p: PhaseField) -> SpatialField:
    """Integral of |v|^2 p over the velocity box; role-tagged ``m``."""
    return SpatialField(p.grid, _v_reduce(p, speed_squared_grid(p.grid)),
                        time_tag=p.time_tag, role="m")


@dataclass(frozen=True)
class MomentSet:
    """The three reduced fields of one snapshot, taken at the same time,
    and its total mass (None when built without one)."""

    p_tilde: SpatialField
    j: SpatialField
    m: SpatialField
    mass: float = None

    @property
    def time_tag(self) -> float:
        return self.p_tilde.time_tag

    def cauchy_schwarz_slack(self) -> float:
        """Worst normalised slack of p~ * m - j^2 (negative = violation).

        Normalisation is by the global maximum of p~ * m so the number is
        comparable across snapshots; clean moments of a nonnegative density
        stay above roughly -1e-10 (quadrature round-off only).
        """
        bound = self.p_tilde.values * self.m.values
        gap = bound - self.j.values ** 2
        scale = float(bound.max())
        if scale <= 0.0:
            return 0.0
        return float(gap.min()) / scale


def moments_of(p: PhaseField) -> MomentSet:
    """All three moments of one snapshot (three velocity reductions, one
    each) and its mass, :func:`~angiosolve.grid.integrate_phase`."""
    return MomentSet(velocity_marginal(p), speed_moment(p), second_moment(p),
                     integrate_phase(p))


def accumulate_time_integral(p_tilde_series, dt: float) -> np.ndarray:
    """Running trapezoid integral a(t_i, x) = integral_0^{t_i} p~(s, x) ds.

    ``p_tilde_series`` is a stacked array (node, *spatial) or a sequence of
    SpatialFields at consecutive nodes spaced ``dt`` apart.  Entries must be
    nonnegative up to the clamping tolerance (the integrand is a marginal of
    a density), which makes every output column nondecreasing in time.
    Returns the stacked integral with the same leading axis.
    """
    if not dt > 0.0:
        raise ParameterError(f"dt must be positive, got {dt!r}")
    if isinstance(p_tilde_series, np.ndarray):
        series = np.asarray(p_tilde_series, dtype=float)
    else:
        fields = list(p_tilde_series)
        if not fields:
            raise ConfigurationError("empty marginal series")
        series = np.stack([f.values for f in fields])
    if series.ndim < 2:
        raise ShapeError("series must be (node, *spatial)")
    series = apply_sign(series, +1, "marginal series (leading index: node)")
    # scipy's cumulative_trapezoid arithmetic, without its per-call overhead
    # (the drivers integrate a window of a few nodes per iterate)
    out = np.empty_like(series)
    out[0] = 0.0
    np.cumsum(dt * (series[1:] + series[:-1]) / 2.0, axis=0, out=out[1:])
    return out


def _uniform_spacing(times: np.ndarray) -> float:
    gaps = np.diff(times)
    if gaps.size == 0:
        raise ConfigurationError("need at least two saved times for a residual")
    if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        raise ConfigurationError(
            "residual diagnostics need uniformly spaced saved times"
        )
    return float(gaps[0])


def _residual(traj, track, sigma, weight, creation_rate):
    """Shared core of the two reduced-equation residuals.

    Checks d/dt M_w - sigma Lap_x M_w - creation_rate * p~ + (w a p)~ = 0
    with centred time differences at interior saved snapshots, where
    M_w = integral of w(v) p dv.  Returns the worst sup-norm residual over
    interior times, normalised by the largest sup of M_w.
    """
    g = traj.grid
    times = traj.times
    delta = _uniform_spacing(times)
    dt = track.schedule.dt
    plan = HeatPlan(g, sigma, "x")
    reduced = [_v_reduce(f, weight) for f in traj.fields]
    marginals = [_v_reduce(f) for f in traj.fields]
    scale = max(float(np.abs(r).max()) for r in reduced) or 1.0
    worst = 0.0
    for k in range(1, len(traj) - 1):
        node = int(round((times[k] - times[0]) / dt))
        dmdt = (reduced[k + 1] - reduced[k - 1]) / (2.0 * delta)
        res = dmdt - sigma * plan.laplacian(reduced[k], "spatial")
        if creation_rate:
            res -= creation_rate * marginals[k]
        w_arr = track.coefficient_node(node)
        if w_arr is not None:
            res += _reduce_raw(traj.fields[k].values * w_arr, g, weight)
        worst = max(worst, float(np.abs(res).max()) / scale)
    return worst


def marginal_residual(traj, track, sigma) -> float:
    """Residual of the marginal equation d/dt p~ = sigma Lap_x p~ - (a p)~.

    The heat flow commutes exactly with taking the marginal (the zero
    velocity mode is untouched by the velocity Laplacian), so on smooth runs
    this is O(save_spacing^2) + O(dt^2).
    """
    return _residual(traj, track, sigma, None, 0.0)


def second_moment_residual(traj, track, sigma) -> float:
    """Residual of d/dt m = sigma Lap_x m + 2 sigma dim_v p~ - (|v|^2 a p)~.

    The creation term 2*sigma*dim_v*p~ is the exact rate at which velocity
    diffusion feeds the second moment (Lap_v |v|^2 = 2 dim_v).
    """
    g = traj.grid
    return _residual(traj, track, sigma, speed_squared_grid(g),
                     2.0 * sigma * g.dim_v)
