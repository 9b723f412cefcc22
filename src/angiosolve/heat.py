"""Exact periodic heat flow via Fourier multipliers.

On the periodic lattice the heat semigroup exp(tau * sigma * Lap) acts
diagonally in Fourier space with multiplier exp(-sigma |k|^2 tau).  Because
the multiplier is evaluated in closed form, a single application is exact for
lattice-representable data up to round-off: there is no time-step error in
the diffusion itself, and applying the flow for tau then tau' is identical
to one application for tau + tau' up to round-off.

The multiplier is a product of one-axis multipliers, so the flow is also one
n x n circulant matrix per axis, ifft(exp(-sigma k^2 tau)) laid out by
(i - j) mod n, applied along that axis.  On short axes a BLAS matrix product
beats numpy's per-line FFT loop (on one x86-64 core a 32^4 flow takes about
6.5 ms against 20 ms), so a plan whose transformed axes all have at most
``_CIRCULANT_MAX_N`` points applies its flow and its gradient energy that
way.  Such a plan keeps the mean only to round-off; a plan with a longer
axis transforms and multiplies the mean (k = 0) mode by exactly 1.0.

A :class:`HeatPlan` fixes the lattice, the diffusivity and the subspace the
Laplacian acts on, and a plan serves one lattice: "xv" flows phase fields,
"x" position-lattice arrays and "v" velocity-lattice arrays, each along
every axis (a product g (x) h flows as its factors, each on its own plan).
It builds its |k|^2 on the real-transform layout the first time a
multiplier or an FFT gradient energy needs it, and keeps one multiplier:
the last step size asked for, which is the one the steppers reuse.
Everything a plan builds it keeps to itself; the module holds no state.  A
plan also keeps the second array its heat flow runs in (the spectrum, or on
a short-axis plan a 256 KiB block buffer, since its matrix products run in
place) and a work array a stepper may march in, so a march allocates
nothing per step; both belong to the one thread that marches in the plan.
:meth:`HeatPlan.apply` is the one heat flow; the same layout serves the
semigroup's Dirichlet form, :meth:`HeatPlan.gradient_energy`.  Every module
transforms through a plan: on a long-axis plan ``forward`` and ``inverse``
are the only FFT calls and its table the only |k|^2, and a short-axis plan
adds the one-axis ifft and k^2 that build its matrices.  ``forward``,
``inverse`` and ``multiplier`` stay spectral on every plan, so the slow
reference solvers built on them do not share the short-axis plans'
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResolutionError, ShapeError
from .grid import GridSpec

# subspace -> the one field kind a plan of it serves
_KINDS = {"xv": "phase", "x": "spatial", "v": "velocity"}
# plans whose transformed axes all have at most this many points apply the
# flow as one circulant matrix per axis; at 128 points the matrix product
# and the FFT take about the same time, at 256 the FFT takes half
_CIRCULANT_MAX_N = 64
# a short-axis product runs in place, one block of at most this many
# elements at a time (256 KiB, within L2), written back from a buffer
_BLOCK = 1 << 15


def _block_for(size: int) -> np.ndarray:
    """A block buffer for :func:`_along` over fields of ``size`` elements:
    ``_BLOCK`` floats, or one field's worth when that is less."""
    return np.empty(min(_BLOCK, size))


def _k_squared(shape, spacings) -> np.ndarray:
    """|k|^2 over every axis of an array of the given (physical) shape,
    broadcastable to its spectrum; the last axis is halved, as in the real
    transform (rfftn)."""
    k2 = None
    for ax, (n, h) in enumerate(zip(shape, spacings)):
        freq = np.fft.rfftfreq if ax == len(shape) - 1 else np.fft.fftfreq
        k = 2.0 * math.pi * freq(n, d=h)
        expand = [1] * len(shape)
        expand[ax] = k.size
        term = (k ** 2).reshape(expand)
        k2 = term if k2 is None else k2 + term
    k2.setflags(write=False)
    return k2


def _circulant(symbol: np.ndarray) -> np.ndarray:
    """The n x n circulant matrix with DFT eigenvalues ``symbol``, a real
    even function of the wavenumber on the ``fftfreq`` layout.

    Its first column is ifft(symbol), made exactly even, so the matrix is
    exactly symmetric: entry (i, j) is column[(i - j) mod n].  The diagonal
    then takes up what the column's exact sum misses of symbol[0] (the
    k = 0 eigenvalue), so a heat matrix's columns sum to 1 within half an
    ulp of the diagonal and repeated flows do not drift the mean.
    """
    n = symbol.size
    column = np.fft.ifft(symbol).real
    column[1:] = 0.5 * (column[1:] + column[:0:-1])
    column[0] += symbol[0] - math.fsum(column)
    mat = column[(np.arange(n)[:, None] - np.arange(n)) % n]
    mat.setflags(write=False)
    return mat


def _along(values: np.ndarray, mat: np.ndarray, axis: int, block: np.ndarray):
    """Yield ``(part, product)`` over blocks that cover ``values``: ``part``
    a view of it and ``product`` ``mat`` applied along ``axis`` to that
    part, one BLAS product computed in ``block`` (from :func:`_block_for`)
    and overwritten by the next one.

    ``values`` is C-contiguous, so writing each product back into its part
    applies ``mat`` in place.
    """
    axis %= values.ndim
    shape = values.shape
    before, n, after = math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:])
    if after == 1:
        # the matrix is symmetric, so rows times it is it times columns
        rows = values.reshape(before, n)
        step = block.size // n
        for i in range(0, before, step):
            part = rows[i:i + step]
            yield part, np.matmul(part, mat, out=block[:part.size].reshape(part.shape))
        return
    cols = values.reshape(before, n, after)
    if n * after <= block.size:
        step = block.size // (n * after)
        parts = (cols[i:i + step] for i in range(0, before, step))
    else:
        step = block.size // n
        parts = (cols[b, :, i:i + step]
                 for b in range(before) for i in range(0, after, step))
    for part in parts:
        yield part, np.matmul(mat, part, out=block[:part.size].reshape(part.shape))


class HeatPlan:
    """Heat semigroup and its FFT for one (grid, diffusivity, subspace) triple.

    A plan serves one lattice: the arrays of one field kind (``plan.kind``),
    every axis of which the Laplacian differentiates.  When each of those
    axes has at most ``_CIRCULANT_MAX_N`` points, the flow and the gradient
    energy go through one circulant matrix per axis (a short-axis plan);
    otherwise through the FFT.

    Parameters
    ----------
    grid : GridSpec
    diffusivity : float
        sigma > 0 in exp(tau * sigma * Lap).
    subspace : {"xv", "x", "v"}
        Which block of coordinates the Laplacian differentiates: "xv" serves
        phase fields, "x" position-lattice ("spatial") arrays and "v"
        velocity-lattice ("velocity") arrays.  Every method takes the kind
        of its array and refuses any other kind with :class:`ShapeError`.
    """

    def __init__(self, grid: GridSpec, diffusivity: float, subspace: str = "xv"):
        if not (float(diffusivity) > 0.0 and math.isfinite(float(diffusivity))):
            raise ParameterError(f"diffusivity must be positive, got {diffusivity!r}")
        if subspace not in _KINDS:
            raise ParameterError(f"subspace must be one of {tuple(_KINDS)}, got {subspace!r}")
        self.grid = grid
        self.diffusivity = float(diffusivity)
        self.subspace = subspace
        self.kind = _KINDS[subspace]
        # one field's shape; every axis is transformed, counted from the end
        # so that stacks on leading axes transform alike
        self._shape = grid.shape_of(self.kind)
        self._axes = tuple(range(-len(self._shape), 0))
        x_steps, v_steps = (grid.h_x,) * grid.dim_x, (grid.h_v,) * grid.dim_v
        self._spacings = {"xv": x_steps + v_steps, "x": x_steps, "v": v_steps}[subspace]
        # (points, spacing) of each axis on a short-axis plan; None on a
        # plan that keeps the FFT
        self._steps = (tuple(zip(self._shape, self._spacings))
                       if max(self._shape) <= _CIRCULANT_MAX_N else None)
        self._k2 = None     # read-only |k|^2, built on first use
        self._mult = None   # (tau, multiplier) of the last request
        self._heat_mats = None   # (tau, per-axis heat matrices) of the last request
        self._k2_mats = None     # per-axis matrices of k^2, built on first use
        self._spare = None  # second array apply runs in: the spectrum, or
                            # the block buffer on a short-axis plan
        self._work = None   # work array apply flows in place
        self._partials = {}  # subspace -> the "x" or "v" plan of an "xv" plan

    def partial(self, subspace: str) -> "HeatPlan":
        """The plan of this lattice and diffusivity for subspace "x" or "v"
        of this "xv" plan, built on first request and kept with it; its
        arrays belong to the thread that marches in this plan."""
        if self.subspace != "xv" or subspace not in ("x", "v"):
            raise ParameterError(f"an {self.subspace!r} plan has no partial "
                                 f"plan {subspace!r}")
        plan = self._partials.get(subspace)
        if plan is None:
            plan = self._partials[subspace] = HeatPlan(self.grid, self.diffusivity,
                                                       subspace)
        return plan

    def _own(self, kind: str) -> None:
        """Refuse any kind but the plan's."""
        if kind == self.kind:
            return
        if kind in _KINDS.values():
            raise ShapeError(f"a subspace-{self.subspace!r} plan cannot act on "
                             f"a {kind} field")
        raise ParameterError(f"unknown field kind {kind!r}")

    def _fit(self, values: np.ndarray, kind: str) -> None:
        """Check that ``values`` is one field of the plan's kind or a stack of
        them on leading axes."""
        self._own(kind)
        shape = self._shape
        if values.shape[values.ndim - len(shape):] != shape:
            raise ShapeError(f"array shape {values.shape} does not match plan lattice {shape}")

    def forward(self, values: np.ndarray, kind: str, out=None) -> np.ndarray:
        """Real FFT of one field, or of a stack of fields on a leading axis,
        written into ``out`` when given.

        It runs rfftn's passes, in its order: rfft along the last axis, then
        fft in place along each earlier axis, last to first.  The bits are
        rfftn's; its argument handling, about half its time on a one-axis
        transform, is skipped.
        """
        self._fit(values, kind)
        axes = self._axes
        spec = np.fft.rfft(values, axis=axes[-1], out=out)
        for ax in axes[-2::-1]:
            np.fft.fft(spec, axis=ax, out=spec)
        return spec

    def inverse(self, spec: np.ndarray, kind: str, out=None) -> np.ndarray:
        """Inverse of :meth:`forward` (stacks included).

        Given ``out``, the result is written there and the transform's
        passes run in place on ``spec``, which is overwritten; the bits are
        the same either way.
        """
        self._own(kind)
        axes, sizes = self._axes, self._shape
        if out is None:
            return np.fft.irfftn(spec, s=sizes, axes=axes)
        # irfftn's passes, in its order: irfftn(..., out=out) would allocate
        # a complex array per call for the inner passes, which made
        # march-1d's run 11% slower
        for ax in axes[:-1]:
            np.fft.ifft(spec, axis=ax, out=spec)
        return np.fft.irfft(spec, n=sizes[-1], axis=axes[-1], out=out)

    def multiplier(self, tau: float, kind: str) -> np.ndarray:
        """exp(-sigma |k|^2 tau) laid out for the plan's spectral array.

        Only the last one is kept (memory bounded by the lattice); callers
        reusing many times keep their own list.
        """
        self._own(kind)
        tau = float(tau)
        last = self._mult
        if last is not None and last[0] == tau:
            return last[1]
        mult = np.exp(-self.diffusivity * tau * self._k2_table())
        mult.setflags(write=False)
        self._mult = (tau, mult)
        return mult

    def _k2_table(self) -> np.ndarray:
        if self._k2 is None:
            self._k2 = _k_squared(self._shape, self._spacings)
        return self._k2

    def _axis_matrices(self, symbol) -> tuple:
        """One :func:`_circulant` per transformed axis, of ``symbol(k^2)``;
        axes of one length and spacing share theirs."""
        built = {}
        for step in self._steps:
            if step not in built:
                n, h = step
                k = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
                built[step] = _circulant(symbol(k ** 2))
        return tuple(built[step] for step in self._steps)

    def _heat_matrices(self, tau: float) -> tuple:
        """Per-axis matrices of exp(-sigma k^2 tau); the last tau's are kept,
        as :meth:`multiplier` keeps its last."""
        tau = float(tau)
        last = self._heat_mats
        if last is not None and last[0] == tau:
            return last[1]
        mats = self._axis_matrices(lambda k2: np.exp(-self.diffusivity * tau * k2))
        self._heat_mats = (tau, mats)
        return mats

    def _k2_matrices(self) -> tuple:
        if self._k2_mats is None:
            self._k2_mats = self._axis_matrices(lambda k2: k2)
        return self._k2_mats

    def work(self, kind: str) -> np.ndarray:
        """The plan's work array for one field of its kind.

        :meth:`apply` handed this array overwrites it in place, so a stepper
        that marches in it allocates nothing per step.  Its contents belong
        to whoever marches in it last; copy anything that must outlive the
        next step.
        """
        self._own(kind)
        if self._work is None:
            self._work = np.empty(self._shape)
        return self._work

    def apply(self, values: np.ndarray, tau: float, kind: str) -> np.ndarray:
        """The heat flow of ``values`` at ``tau``, on a raw array (hot path;
        no field wrapping) of one field or a stack of fields.

        The kind and the shape are checked first, then ``tau``, which must
        be finite and >= 0 (:class:`ParameterError` otherwise: the backward
        flow is ill-posed).  The result is ``values`` itself at
        ``tau == 0``; for ``tau > 0`` it overwrites ``values`` when that is
        the plan's :meth:`work` array and is a new array otherwise.  On a
        short-axis plan the flow is one circulant matrix product per axis,
        in place in the result a block at a time through the plan's block
        buffer, within 1e-14 of the sup of the spectral flow; on any other
        plan one field is transformed into the plan's spectrum array, with
        the bits of :meth:`forward`, the multiplier and :meth:`inverse`.  There is no ``out=`` keyword: the
        stepper calls ``apply(values, tau, kind)``, the form that the
        benchmark's tracing wrapper and the stepper fault test replace.
        """
        self._fit(values, kind)
        if not 0.0 <= tau < math.inf:
            raise ParameterError(f"heat flow time must be finite and >= 0, got {tau!r}")
        if tau == 0.0:
            return values
        in_place = values is self._work
        if self._steps is not None:
            out = values if in_place else np.array(values, dtype=float, order="C")
            block = self._second()
            for ax, mat in zip(self._axes, self._heat_matrices(tau)):
                for part, product in _along(out, mat, ax, block):
                    part[...] = product
            return out
        single = values.shape == self._shape
        spec = self.forward(values, kind, out=self._second() if single else None)
        spec *= self.multiplier(tau, kind)
        return self.inverse(spec, kind, out=values if in_place else None)

    def _second(self) -> np.ndarray:
        if self._spare is None:
            self._spare = (_block_for(math.prod(self._shape)) if self._steps is not None
                           else self._new_spectrum())
        return self._spare

    def _new_spectrum(self) -> np.ndarray:
        return np.empty(self._shape[:-1] + (self._shape[-1] // 2 + 1,), dtype=complex)

    def gradient_energy(self, values: np.ndarray, kind: str) -> float:
        """Integral of |grad f|^2 over the field's lattice (spectral; exact
        for lattice-representable data by Parseval).

        On a short-axis plan it is the sum over axes a of (f, L_a f) times
        the cell volume, L_a the circulant of k_a^2, summed a block at a time
        through a block buffer of this call's own.  On any other plan the
        field is transformed into a spectrum of this call's own, squared in
        place through a float view and its two halves added, one half-size
        temporary in all.  Either way no array that a march uses is
        touched, so a plan may serve it while another thread marches in the
        plan's arrays.
        """
        self._fit(values, kind)
        volume = self.grid.cell_volume_of(kind)
        if self._steps is not None:
            block = _block_for(values.size)
            total = 0.0
            for ax, mat in zip(self._axes, self._k2_matrices()):
                for part, product in _along(values, mat, ax, block):
                    # numpy's own sum, not vdot: BLAS's threaded dot would
                    # make the bits depend on the BLAS thread count
                    product *= part
                    total += float(product.sum())
            return total * volume
        spec = self.forward(values, kind, out=self._new_spectrum())
        parts = spec.view(float)
        np.square(parts, out=parts)
        power = parts[..., 0::2] + parts[..., 1::2]
        del spec, parts
        power *= self._k2_table()
        # each interior column of the halved (last) axis stands for the pair +-k
        n = self._shape[-1]
        total = float(power.sum()) + float(power[..., 1:(n + 1) // 2].sum())
        # the transform is unnormalised: sum_k |fhat|^2 = N * sum_cells |f|^2
        return total * volume / math.prod(self._shape)


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
            f"v0 = {tuple(v0_arr.tolist())} lies outside the open velocity box "
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
