"""Exact periodic heat flow via Fourier multipliers.

On the periodic lattice the heat semigroup exp(tau * sigma * Lap) acts
diagonally in Fourier space with multiplier exp(-sigma |k|^2 tau).  Because
the multiplier is evaluated in closed form, a single application is exact for
lattice-representable data up to transform round-off: there is no time-step
error in the diffusion itself, the mean (k = 0) mode is multiplied by
exactly 1.0, and applying the flow for tau then tau' is identical to one
application for tau + tau' up to round-off.

A :class:`HeatPlan` fixes the lattice, the diffusivity and the subspace the
Laplacian acts on ("xv" for the full phase Laplacian, "x" or "v" for the
partial ones).  It lays out each field kind it serves once (shape,
transformed axes, |k|^2 on the real-transform layout) and keeps one
multiplier per kind: the last step size asked for, which is the one the
steppers reuse.  The |k|^2 tables are read-only and shared by every live
plan of the same lattice and subspace.  A plan also keeps, per kind, the
spectrum array its heat flow transforms into and a work array a stepper may
march in, so a march allocates nothing per step; both go with the plan and
belong to the one thread that marches in it.  The same layout serves
the semigroup's generator and its Dirichlet form: :meth:`HeatPlan.laplacian`
and :meth:`HeatPlan.gradient_energy`.  The plan's ``forward``/``inverse`` are the
only FFT calls in the package and its layouts hold the only |k|^2; every
other module transforms through a plan.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResolutionError, ShapeError
from .grid import GridSpec

_SUBSPACES = ("xv", "x", "v")
# subspace -> the reduced field kind it serves besides "phase"
_REDUCED_KINDS = {"x": ("spatial",), "v": ("velocity",)}
# (grid, subspace, kind) -> read-only |k|^2 of every live plan with that
# layout; the lock keeps two threads building plans from making two tables
_K2_TABLES = weakref.WeakValueDictionary()
_K2_LOCK = threading.Lock()


def _k_squared(shape, axes, spacings) -> np.ndarray:
    """|k|^2 over the transformed axes, broadcastable to the spectral array.

    ``axes`` are the transformed axes of an array of the given (physical)
    shape; the final one is halved, as in the real transform (rfftn).
    """
    ndim = len(shape)
    k2 = None
    for pos, ax in enumerate(axes):
        freq = np.fft.rfftfreq if pos == len(axes) - 1 else np.fft.fftfreq
        k = 2.0 * math.pi * freq(shape[ax], d=spacings[pos])
        expand = [1] * ndim
        expand[ax] = k.size
        term = (k ** 2).reshape(expand)
        k2 = term if k2 is None else k2 + term
    k2.setflags(write=False)
    return k2


def _shared_k_squared(grid, subspace, kind, shape, axes, spacings) -> np.ndarray:
    """The one |k|^2 table of a (grid, subspace, kind) layout while any plan
    holds it, so two plans of one lattice (a run's drive and its energy
    check) keep a single table."""
    key = (grid, subspace, kind)
    with _K2_LOCK:
        k2 = _K2_TABLES.get(key)
        if k2 is None:
            k2 = _K2_TABLES[key] = _k_squared(shape, axes, spacings)
    return k2


class HeatPlan:
    """Heat semigroup and its FFT for one (grid, diffusivity, subspace) triple.

    Parameters
    ----------
    grid : GridSpec
    diffusivity : float
        sigma > 0 in exp(tau * sigma * Lap).
    subspace : {"xv", "x", "v"}
        Which block of coordinates the Laplacian differentiates.  Plans with
        subspace "x" apply to phase and spatial fields, plans with subspace
        "v" to phase and velocity-lattice ("velocity") arrays; "xv" requires
        phase fields.
    """

    def __init__(self, grid: GridSpec, diffusivity: float, subspace: str = "xv"):
        if not (float(diffusivity) > 0.0 and math.isfinite(float(diffusivity))):
            raise ParameterError(f"diffusivity must be positive, got {diffusivity!r}")
        if subspace not in _SUBSPACES:
            raise ParameterError(f"subspace must be one of {_SUBSPACES}, got {subspace!r}")
        self.grid = grid
        self.diffusivity = float(diffusivity)
        self.subspace = subspace
        axes, spacings = (), ()
        if subspace != "v":
            axes, spacings = grid.x_axes, (grid.h_x,) * grid.dim_x
        if subspace != "x":
            axes, spacings = axes + grid.v_axes, spacings + (grid.h_v,) * grid.dim_v
        # kind -> (shape of one field, transformed axes counted from the end
        # so that stacks transform alike, their lengths, |k|^2); a reduced
        # kind's array holds exactly the plan's axes
        self._layouts = {}
        for kind in ("phase",) + _REDUCED_KINDS.get(subspace, ()):
            shape = grid.shape_of(kind)
            ends = (tuple(ax - len(shape) for ax in axes) if kind == "phase"
                    else tuple(range(-len(shape), 0)))
            self._layouts[kind] = (shape, ends, tuple(shape[ax] for ax in ends),
                                   _shared_k_squared(grid, subspace, kind, shape,
                                                     ends, spacings))
        self._mult = {}   # kind -> (tau, multiplier) of the last request
        self._spec = {}   # kind -> spectrum array reused by apply
        self._work = {}   # kind -> work array apply transforms in place

    def _layout(self, kind: str):
        if kind in self._layouts:
            return self._layouts[kind]
        if kind in ("spatial", "velocity"):
            raise ShapeError(f"a subspace-{self.subspace!r} plan cannot act on "
                             f"a {kind} field")
        raise ParameterError(f"unknown field kind {kind!r}")

    def forward(self, values: np.ndarray, kind: str, out=None) -> np.ndarray:
        """Real FFT of one field, or of a stack of fields on a leading axis,
        written into ``out`` when given."""
        shape, axes, _, _ = self._layout(kind)
        if values.shape[values.ndim - len(shape):] != shape:
            raise ShapeError(f"array shape {values.shape} does not match plan lattice {shape}")
        return np.fft.rfftn(values, axes=axes, out=out)

    def inverse(self, spec: np.ndarray, kind: str, out=None) -> np.ndarray:
        """Inverse of :meth:`forward` (stacks included).

        Given ``out``, the result is written there and the transform's
        passes run in place on ``spec``, which is overwritten; the bits are
        the same either way.
        """
        _, axes, sizes, _ = self._layout(kind)
        if out is None:
            return np.fft.irfftn(spec, s=sizes, axes=axes)
        # irfftn's passes, in its order: irfftn(..., out=out) would allocate
        # a complex array per call for the inner passes, which made
        # march-1d's run 11% slower
        for ax in axes[:-1]:
            np.fft.ifft(spec, axis=ax, out=spec)
        return np.fft.irfft(spec, n=sizes[-1], axis=axes[-1], out=out)

    def multiplier(self, tau: float, kind: str) -> np.ndarray:
        """exp(-sigma |k|^2 tau) laid out for the spectral array of ``kind``.

        Only the last one of each kind is kept (memory bounded by the
        lattice); callers reusing many times keep their own list.
        """
        tau = float(tau)
        last = self._mult.get(kind)
        if last is not None and last[0] == tau:
            return last[1]
        mult = np.exp(-self.diffusivity * tau * self._layout(kind)[3])
        mult.setflags(write=False)
        self._mult[kind] = (tau, mult)
        return mult

    def work(self, kind: str) -> np.ndarray:
        """The plan's work array for one field of ``kind``.

        :meth:`apply` handed this array overwrites it in place, so a stepper
        that marches in it allocates nothing per step.  Its contents belong
        to whoever marches in it last; copy anything that must outlive the
        next step.
        """
        work = self._work.get(kind)
        if work is None:
            work = self._work[kind] = np.empty(self._layout(kind)[0])
        return work

    def apply(self, values: np.ndarray, tau: float, kind: str) -> np.ndarray:
        """Heat flow on a raw array (hot path; no field wrapping).

        One field is transformed into the plan's spectrum array; the result
        overwrites ``values`` when that is the plan's :meth:`work` array and
        is a new array otherwise.  The bits are those of :meth:`forward`,
        the multiplier and :meth:`inverse`.  There is no ``out=`` keyword:
        the stepper calls ``apply(values, tau, kind)``, the form that the
        benchmark's tracing wrapper and the stepper fault test replace.
        """
        if tau == 0.0:
            return values
        single = values.shape == self._layout(kind)[0]
        spec = self.forward(values, kind, out=self._spectrum(kind) if single else None)
        spec *= self.multiplier(tau, kind)
        out = values if values is self._work.get(kind) else None
        return self.inverse(spec, kind, out=out)

    def _spectrum(self, kind: str) -> np.ndarray:
        spec = self._spec.get(kind)
        if spec is None:
            spec = self._spec[kind] = self._new_spectrum(kind)
        return spec

    def _new_spectrum(self, kind: str) -> np.ndarray:
        shape, axes, sizes, _ = self._layout(kind)
        spec_shape = list(shape)
        spec_shape[axes[-1]] = sizes[-1] // 2 + 1
        return np.empty(spec_shape, dtype=complex)

    def flow(self, values: np.ndarray, kind: str):
        """The heat flow of one array as a function of time.

        ``flow(tau)`` gives the flow at ``tau`` with the bits :meth:`apply`
        gives: the array is transformed on the first ``tau > 0`` asked for,
        its spectrum kept, and inverted once per call; ``flow(0)`` is
        ``values`` itself.
        """
        spec = None

        def at(tau):
            nonlocal spec
            if tau == 0.0:
                return values
            if spec is None:
                spec = self.forward(values, kind)
            return self.inverse(spec * self.multiplier(tau, kind), kind)

        return at

    def apply_each(self, values: np.ndarray, taus, kind: str):
        """Yield the heat flow of one array for each time in ``taus``, as
        :meth:`flow` gives it (one transform, one inverse per time)."""
        at = self.flow(values, kind)
        for tau in taus:
            yield at(tau)

    def laplacian(self, values: np.ndarray, kind: str) -> np.ndarray:
        """Spectral Laplacian over the plan's subspace (not a time stepper)."""
        spec = self.forward(values, kind)
        spec *= -self._layout(kind)[3]
        return self.inverse(spec, kind)

    def gradient_energy(self, values: np.ndarray, kind: str) -> float:
        """Integral of |grad f|^2 over the field's lattice, the gradient taken
        in the plan's subspace (spectral; exact for lattice-representable data
        by Parseval).

        The field is transformed into a spectrum of this call's own, not the
        plan's, so a plan may serve it while another thread marches in the
        plan's arrays; the spectrum is squared in place through a float view
        and its two halves added, one half-size temporary in all.
        """
        _, axes, sizes, k2 = self._layout(kind)
        spec = self.forward(values, kind, out=self._new_spectrum(kind))
        parts = spec.view(float)
        np.square(parts, out=parts)
        power = parts[..., 0::2] + parts[..., 1::2]
        del spec, parts
        power *= k2
        # each interior column of the halved axis stands for the pair +-k
        inner = [slice(None)] * power.ndim
        inner[axes[-1]] = slice(1, (sizes[-1] + 1) // 2)
        total = float(power.sum()) + float(power[tuple(inner)].sum())
        # the transform is unnormalised: sum_k |fhat|^2 = N * sum_cells |f|^2
        return total * self.grid.cell_volume_of(kind) / math.prod(sizes)


def heat_step(field, tau: float, plan: HeatPlan):
    """Advance a field by the exact periodic heat flow for a time tau >= 0.

    Returns a new field of the same kind with ``time_tag`` advanced by tau;
    a phase result carries no sign constraint, and the role of a spatial
    field is preserved (so sign conventions are re-checked on the output).
    """
    if not (math.isfinite(float(tau)) and float(tau) >= 0.0):
        raise ParameterError(f"tau must be a finite nonnegative time, got {tau!r}")
    if field.grid != plan.grid:
        raise ShapeError("field and plan live on different lattices")
    tau = float(tau)
    return field.like(plan.apply(field.values, tau, field.kind), field.time_tag + tau)


@dataclass(frozen=True)
class VelocityProfile:
    """Sampled velocity bump rho_eps(v) = (pi*eps)^(-dim_v/2) exp(-|v-v0|^2/eps).

    ``sup_norm`` is the analytic peak (pi*eps)^(-dim_v/2) -- the lattice
    maximum is below it unless v0 sits on a cell centre -- and ``mass`` is the
    discrete integral, close to 1 when the bump is well inside the box.
    """

    values: np.ndarray
    epsilon: float
    v0: tuple
    sup_norm: float
    mass: float


def gaussian_rho(grid: GridSpec, epsilon: float, v0=0.0) -> VelocityProfile:
    """Sample the velocity profile rho_eps centred at v0 on the lattice.

    Raises
    ------
    ParameterError
        If epsilon <= 0 or v0 lies outside the open velocity box.
    ResolutionError
        If sqrt(epsilon) < 2 * h_v: the bump would be thinner than two cells
        and its lattice sample would no longer represent the profile.
    """
    epsilon = float(epsilon)
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ParameterError(f"epsilon must be positive, got {epsilon!r}")
    v0_arr = np.atleast_1d(np.asarray(v0, dtype=float))
    if v0_arr.shape != (grid.dim_v,):
        raise ParameterError(
            f"v0 must have {grid.dim_v} component(s), got shape {v0_arr.shape}"
        )
    if np.any(np.abs(v0_arr) >= grid.half_width_v):
        raise ParameterError(
            f"v0 = {tuple(v0_arr)} lies outside the open velocity box "
            f"(-{grid.half_width_v}, {grid.half_width_v})"
        )
    if math.sqrt(epsilon) < 2.0 * grid.h_v:
        raise ResolutionError(
            f"sqrt(epsilon) = {math.sqrt(epsilon):.4g} is below two cell widths "
            f"(2*h_v = {2.0 * grid.h_v:.4g}); refine the lattice or widen the bump"
        )
    v = grid.v_coords()
    if grid.dim_v == 1:
        d2 = (v - v0_arr[0]) ** 2
    else:
        d2 = (v[:, None] - v0_arr[0]) ** 2 + (v[None, :] - v0_arr[1]) ** 2
    peak = (math.pi * epsilon) ** (-grid.dim_v / 2.0)
    values = peak * np.exp(-d2 / epsilon)
    values.setflags(write=False)
    mass = float(values.sum()) * grid.v_cell_volume
    return VelocityProfile(values=values, epsilon=epsilon, v0=tuple(v0_arr),
                           sup_norm=peak, mass=mass)
