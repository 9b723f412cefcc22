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

from .errors import ParameterError, ShapeError
from .grid import (PhaseField, SpatialField, apply_sign, integrate_phase,
                   speed_grid, speed_squared_grid)


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


def vector_speed_moment(p: PhaseField):
    """First moment vector (integral of v p) and its magnitude.

    Returns ``(components, magnitude)`` where ``components`` is a list of
    signed SpatialFields (one per velocity axis) and ``magnitude`` is the
    cellwise Euclidean length, role-tagged ``j``.  The magnitude never
    exceeds the scalar speed moment (triangle inequality).
    """
    g = p.grid
    v = g.v_coords()
    v_axes = tuple(range(g.dim_v))
    comps = []
    for ax in range(g.dim_v):
        expand = [1] * g.dim_v
        expand[ax] = v.size
        weight = np.broadcast_to(v.reshape(expand), g.velocity_shape)
        comps.append(np.tensordot(p.values, np.ascontiguousarray(weight),
                                  axes=(g.v_axes, v_axes)))
    mag = np.sqrt(sum(comp ** 2 for comp in comps)) * g.v_cell_volume
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


def moments_of(p: PhaseField) -> MomentSet:
    """All three moments of one snapshot (three velocity reductions, one
    each) and its mass, :func:`~angiosolve.grid.integrate_phase`."""
    return MomentSet(velocity_marginal(p), speed_moment(p), second_moment(p),
                     integrate_phase(p))


def accumulate_time_integral(p_tilde_series, dt: float) -> np.ndarray:
    """Running trapezoid integral a(t_i, x) = integral_0^{t_i} p~(s, x) ds.

    ``p_tilde_series`` is a stacked array (node, *spatial) of marginals at
    consecutive nodes spaced ``dt`` apart.  Entries must be nonnegative up
    to the clamping tolerance (the integrand is a marginal of a density),
    which makes every output column nondecreasing in time.  Returns the
    stacked integral with the same leading axis.
    """
    if not dt > 0.0:
        raise ParameterError(f"dt must be positive, got {dt!r}")
    series = np.asarray(p_tilde_series, dtype=float)
    if series.ndim < 2:
        raise ShapeError("series must be (node, *spatial)")
    series = apply_sign(series, +1, "marginal series (leading index: node)")
    return running_trapezoid(series, dt)


def running_trapezoid(y: np.ndarray, spacing) -> np.ndarray:
    """Running trapezoid integral of ``y`` along its leading axis, from 0.

    ``spacing`` is the node spacing, or the array of gaps between nodes.
    The arithmetic is that of scipy's ``cumulative_trapezoid(...,
    initial=0)`` bit for bit, without its per-call overhead (the drivers
    integrate a window of a few nodes per iterate) or its import.
    """
    out = np.empty(y.shape)
    out[0] = 0.0
    np.cumsum(spacing * (y[1:] + y[:-1]) / 2.0, axis=0, out=out[1:])
    return out
