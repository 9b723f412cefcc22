"""Periodic phase-space lattices and the field containers living on them.

The computational domain is a centred periodic box: positions x in
[-L_x, L_x)^dim_x and velocities v in [-L_v, L_v)^dim_v, sampled at cell
centres on a uniform lattice.  Two container types carry data:

* :class:`PhaseField`  -- densities p(x, v) on the full phase lattice,
* :class:`SpatialField` -- reduced quantities (marginals, moments,
  concentrations, running integrals) on the position lattice only.

Both share one validated base: each names its lattice ``kind`` ("phase" or
"spatial", the strings :class:`~angiosolve.heat.HeatPlan` lays out by) and
its cell volume, so code that serves both reads the field instead of its
class.  Raw arrays on the velocity lattice alone (the v factor of a product
density, see :func:`factor_xv`) are of kind "velocity"; no field holds
them, only a :class:`Product`, which keeps a product density as its two
factors.  All are immutable: values are validated once at construction
(finiteness, shape, and -- when requested -- sign up to a relative clamping
tolerance) and the underlying array is made read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError, ParameterError, ShapeError, SignError

#: Relative tolerance for sign enforcement: entries on the wrong side of zero
#: by at most CLAMP_REL * max|field| are clamped to zero, anything worse is an
#: error.  Matches the round-off floor of the spectral transforms.
CLAMP_REL = 1e-12

#: Largest gap max|p - g (x) h| / max|p| at which :func:`factor_xv` takes a
#: phase field for the product of its factors.  A heat flow is positive and
#: sup-contracting, so a majorant flowed from the factors is off by at most
#: this much of max|p|, far below the checks' tolerances.
FACTOR_REL = 1e-13

#: Sign convention by role: +1 means "must be >= 0", -1 means "must be <= 0".
ROLE_SIGNS = {
    "c": +1,          # concentration
    "c_hat": -1,      # depletion c - c_inf, never positive
    "p_tilde": +1,    # velocity marginal
    "j": +1,          # speed moment
    "m": +1,          # second moment
    "alpha_of_c": +1, # saturating production rate
}


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice for the box [-L_x, L_x)^dim_x x [-L_v, L_v)^dim_v.

    Parameters
    ----------
    dim_x, dim_v : int
        Number of position / velocity axes, each 1 or 2.
    n_x, n_v : int
        Points per axis; powers of two, at least 8 (the transforms assume
        this, and coarser lattices cannot resolve any shipped profile).
    half_width_x, half_width_v : float
        Box half-widths L_x and L_v.
    """

    dim_x: int
    dim_v: int
    n_x: int
    n_v: int
    half_width_x: float
    half_width_v: float

    def __post_init__(self):
        if self.dim_x not in (1, 2) or self.dim_v not in (1, 2):
            raise ParameterError(
                f"dim_x and dim_v must be 1 or 2, got ({self.dim_x}, {self.dim_v})"
            )
        for name, n in (("n_x", self.n_x), ("n_v", self.n_v)):
            if not isinstance(n, (int, np.integer)) or n < 8 or not _is_pow2(int(n)):
                raise ParameterError(f"{name} must be a power of two >= 8, got {n!r}")
        for name, L in (
            ("half_width_x", self.half_width_x),
            ("half_width_v", self.half_width_v),
        ):
            if not (float(L) > 0.0) or not math.isfinite(float(L)):
                raise ParameterError(f"{name} must be a positive finite number, got {L!r}")

    # --- lattice geometry -------------------------------------------------

    @property
    def h_x(self) -> float:
        """Position spacing 2*L_x / n_x."""
        return 2.0 * self.half_width_x / self.n_x

    @property
    def h_v(self) -> float:
        return 2.0 * self.half_width_v / self.n_v

    @property
    def spatial_shape(self) -> tuple:
        return (self.n_x,) * self.dim_x

    @property
    def velocity_shape(self) -> tuple:
        return (self.n_v,) * self.dim_v

    @property
    def phase_shape(self) -> tuple:
        return self.spatial_shape + self.velocity_shape

    @property
    def x_axes(self) -> tuple:
        """Axis indices of the position directions in a phase array."""
        return tuple(range(self.dim_x))

    @property
    def v_axes(self) -> tuple:
        return tuple(range(self.dim_x, self.dim_x + self.dim_v))

    @property
    def x_cell_volume(self) -> float:
        return self.h_x ** self.dim_x

    @property
    def v_cell_volume(self) -> float:
        return self.h_v ** self.dim_v

    @property
    def cell_volume(self) -> float:
        """Phase-space cell volume h_x^dim_x * h_v^dim_v."""
        return self.x_cell_volume * self.v_cell_volume

    def shape_of(self, kind: str) -> tuple:
        """Array shape of a ``"phase"``, ``"spatial"`` or ``"velocity"`` array."""
        return {"phase": self.phase_shape, "spatial": self.spatial_shape,
                "velocity": self.velocity_shape}[kind]

    def cell_volume_of(self, kind: str) -> float:
        """Cell volume of the lattice a ``"phase"``/``"spatial"``/``"velocity"``
        array lives on."""
        return {"phase": self.cell_volume, "spatial": self.x_cell_volume,
                "velocity": self.v_cell_volume}[kind]

    def x_coords(self) -> np.ndarray:
        """Cell-centre coordinates along one position axis."""
        return -self.half_width_x + self.h_x * np.arange(self.n_x)

    def v_coords(self) -> np.ndarray:
        return -self.half_width_v + self.h_v * np.arange(self.n_v)


@lru_cache(maxsize=None)
def speed_grid(grid: GridSpec) -> np.ndarray:
    """Euclidean speed |v| of every cell centre on the velocity lattice."""
    v = grid.v_coords()
    if grid.dim_v == 1:
        out = np.abs(v)
    else:
        out = np.sqrt(v[:, None] ** 2 + v[None, :] ** 2)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def speed_squared_grid(grid: GridSpec) -> np.ndarray:
    """|v|^2 of every cell centre on the velocity lattice."""
    v = grid.v_coords()
    if grid.dim_v == 1:
        out = v ** 2
    else:
        out = v[:, None] ** 2 + v[None, :] ** 2
    out.setflags(write=False)
    return out


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))[0]
        idx = tuple(int(i) for i in bad)
        raise DataError(f"{what} has non-finite entry {values[idx]!r} at cell {idx}")


def apply_sign(values: np.ndarray, sign: int, what: str, scale: float = 0.0,
               out=None) -> np.ndarray:
    """The package's one sign rule: clamp round-off, reject anything worse.

    ``sign = +1`` requires ``values >= 0``, ``sign = -1`` requires
    ``values <= 0``.  Entries on the wrong side of zero by at most
    ``CLAMP_REL * max(scale, max|values|)`` are set to zero in a new array
    (or in ``out``, which may be ``values`` itself); anything beyond raises
    :class:`SignError` naming the worst cell.  When no entry is on the wrong
    side, ``values`` itself is returned.
    """
    if sign > 0:
        worst = float(values.min())
        if worst >= 0.0:
            return values
        limit = CLAMP_REL * max(scale, float(values.max()), -worst)
        if worst < -limit:
            idx = tuple(int(i) for i in np.unravel_index(values.argmin(), values.shape))
            raise SignError(
                f"{what} must be >= 0: entry {worst:.6e} at cell {idx} "
                f"is below the clamping tolerance {-limit:.3e}"
            )
        return np.maximum(values, 0.0, out=out)
    worst = float(values.max())
    if worst <= 0.0:
        return values
    limit = CLAMP_REL * max(scale, worst, -float(values.min()))
    if worst > limit:
        idx = tuple(int(i) for i in np.unravel_index(values.argmax(), values.shape))
        raise SignError(
            f"{what} must be <= 0: entry {worst:.6e} at cell {idx} "
            f"exceeds the clamping tolerance {limit:.3e}"
        )
    return np.minimum(values, 0.0, out=out)


class _Field:
    """Validated, read-only sample of one field kind on the lattice of ``grid``.

    ``kind`` names the lattice with the :class:`~angiosolve.heat.HeatPlan`'s
    own strings: ``"phase"`` (x and v) or ``"spatial"`` (x only).  Values are
    checked once (shape, finiteness, and optionally a sign up to the clamping
    tolerance) and stored as a read-only array.
    """

    __slots__ = ("grid", "values", "time_tag")
    kind = None

    def _validate(self, grid, values, time_tag, sign, what):
        values = np.asarray(values, dtype=float)
        shape = grid.shape_of(self.kind)
        if values.shape != shape:
            raise ShapeError(
                f"{self.kind} field shape {values.shape} does not match lattice {shape}"
            )
        _check_finite(values, f"{self.kind} field")
        if sign:
            values = apply_sign(values, sign, what)
        if values.flags.writeable:
            values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "time_tag", float(time_tag))

    @property
    def cell_volume(self) -> float:
        """Volume of one cell of the field's own lattice."""
        return self.grid.cell_volume_of(self.kind)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        role = getattr(self, "role", None)
        tag = f", role={role}" if role else ""
        return (
            f"{type(self).__name__}(t={self.time_tag:g}, shape={self.values.shape}{tag}, "
            f"sup={float(np.max(np.abs(self.values))):.6g})"
        )


class PhaseField(_Field):
    """Immutable density sample p(x, v) on the phase lattice of ``grid``.

    Parameters
    ----------
    grid : GridSpec
    values : array_like, shape ``grid.phase_shape``
    time_tag : float
        The time the sample belongs to (bookkeeping only).
    nonnegative : bool
        When true, entries below zero by at most ``CLAMP_REL * max|values|``
        are clamped to zero and anything below that raises :class:`SignError`.
    """

    __slots__ = ()
    kind = "phase"

    def __init__(self, grid, values, time_tag=0.0, nonnegative=False):
        self._validate(grid, values, time_tag, +1 if nonnegative else 0, "phase field")

    def like(self, values, time_tag):
        """A phase field holding ``values``; it carries no sign constraint."""
        return PhaseField(self.grid, values, time_tag)


class SpatialField(_Field):
    """Immutable sample of a reduced quantity on the position lattice.

    ``role`` selects a sign convention from :data:`ROLE_SIGNS` (for example
    ``"c"`` forces the field to be a valid concentration, >= 0 up to the
    clamping tolerance); ``None`` places no constraint.
    """

    __slots__ = ("role",)
    kind = "spatial"

    def __init__(self, grid, values, time_tag=0.0, role=None):
        if role is not None and role not in ROLE_SIGNS:
            raise ParameterError(
                f"unknown role {role!r}; expected one of {sorted(ROLE_SIGNS)}"
            )
        self._validate(grid, values, time_tag, ROLE_SIGNS.get(role, 0), f"{role} field")
        object.__setattr__(self, "role", role)

    def like(self, values, time_tag):
        """A spatial field holding ``values`` under this field's role."""
        return SpatialField(self.grid, values, time_tag, role=self.role)


@dataclass(frozen=True, eq=False)
class Product:
    """A nonnegative product density g (x) h on the phase lattice of ``grid``,
    held as its factors: ``g`` on the position lattice, ``h`` on the
    velocity lattice.

    Each factor is checked once, in O(n_x + n_v): shape, finiteness and
    sign (>= 0 up to the clamping tolerance of :func:`apply_sign`), and is
    stored read-only (a writeable array is copied).  ``time_tag`` is the
    time the density belongs to, as on a :class:`PhaseField`.
    """

    grid: GridSpec
    g: np.ndarray
    h: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self):
        for name, kind in (("g", "spatial"), ("h", "velocity")):
            vals = np.asarray(getattr(self, name), dtype=float)
            shape = self.grid.shape_of(kind)
            if vals.shape != shape:
                raise ShapeError(f"{kind} factor shape {vals.shape} does not match "
                                 f"lattice {shape}")
            _check_finite(vals, f"{kind} factor")
            vals = apply_sign(vals, +1, f"{kind} factor")
            if vals.flags.writeable:
                vals = vals.copy()
            vals.setflags(write=False)
            object.__setattr__(self, name, vals)
        object.__setattr__(self, "time_tag", float(self.time_tag))

    def marginal(self) -> np.ndarray:
        """The velocity marginal g * (sum of h) * v cell volume, a raw array."""
        return self.g * (float(self.h.sum()) * self.grid.v_cell_volume)

    def field(self) -> PhaseField:
        """The density itself: the outer product of the factors as a
        :class:`PhaseField` at ``time_tag``."""
        vals = np.multiply.outer(self.g, self.h)
        vals.setflags(write=False)  # so the field keeps it uncopied
        return PhaseField(self.grid, vals, time_tag=self.time_tag, nonnegative=True)


def factor_xv(field):
    """Split a phase field across the x|v boundary, or return None.

    Returns ``(g, h)``, a position-lattice and a velocity-lattice array with
    ``h`` summing to 1, when ``max|field - g (x) h| <= FACTOR_REL * max|field|``;
    ``g`` is the field's sum over v and ``h`` its sum over x divided by the
    total, so an exact product is returned as its own factors.  A zero field
    returns zeros for both; anything farther from a product returns None.
    """
    grid, vals = field.grid, field.values
    sup = float(np.abs(vals).max())
    if sup == 0.0:
        return np.zeros(grid.spatial_shape), np.zeros(grid.velocity_shape)
    total = float(vals.sum())
    if total == 0.0:
        return None
    g = vals.sum(axis=grid.v_axes)
    h = vals.sum(axis=grid.x_axes) / total
    gap = np.multiply.outer(g, h)
    gap -= vals
    return (g, h) if float(np.abs(gap, out=gap).max()) <= FACTOR_REL * sup else None


def integrate_phase(field) -> float:
    """Total integral of the field over its own lattice (midpoint rule).

    For a :class:`PhaseField` this is the total mass over the phase box;
    a :class:`SpatialField` integrates over the position box only.
    """
    return float(field.values.sum()) * field.cell_volume


def lq_norm(field, q) -> float:
    """Discrete L^q norm of a field, q in [1, inf].

    Cell-volume weighted: ``(sum |f|^q * vol)^(1/q)``; ``q = inf`` gives the
    lattice sup norm.
    """
    vals = field.values
    if q == np.inf or q == math.inf:
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    q = float(q)
    if not q >= 1.0:
        raise ParameterError(f"q must be >= 1 or inf, got {q!r}")
    vol = field.cell_volume
    if q == 1.0:
        return float(np.sum(np.abs(vals))) * vol
    if q == 2.0:
        return float(math.sqrt(np.sum(vals * vals) * vol))
    return float((np.sum(np.abs(vals) ** q) * vol) ** (1.0 / q))
