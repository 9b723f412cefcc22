"""Time stepping for the linear damped diffusion problem.

The linear building block solved here is

    dp/dt = sigma * Lap_{x,v} p - a(t, x[, v]) p

on the periodic phase box; the model's memory and production terms enter
only through the coefficient a, never as a source.  It is advanced with a
symmetric (Strang) splitting around the exact spectral heat flow:

    p_{n+1} = E * H_dt( E * p_n ),    E = exp(-a(t_mid) * dt / 2),

where H_dt is the exact heat semigroup of :mod:`angiosolve.heat` and a is
sampled at the step midpoint (the average of the two node samples).  The
factors E are strictly positive whatever the sign of a and H preserves the
signs of spectrally resolved data up to round-off, so the scheme is
positivity preserving for such nonnegative data at any dt, exact for a = 0,
and second-order accurate in dt otherwise.  H rings unresolved data (lattice
noise next to a near-zero cell) negative beyond round-off; the per-step
floor of :func:`solve_linear` rejects that with :class:`SignError`.

When no term of a depends on v, the v part of the heat flow commutes with
both factors E and with the x part, so a product density g(x) h(v) stays a
product: the phase step of g (x) h is the x-lattice step of g (factors E,
x flow) times the v flow of h.  :func:`solve_linear` marches data handed
to it as a :class:`~angiosolve.grid.Product` on its factors, each floored
every step, builds only the saved fields as outer products and hands back
the final node's factors, so a march restarted from them never builds a
phase field at the restart.  A phase field takes the phase march, whether
or not it is a product; splitting it is the caller's choice
(:func:`~angiosolve.grid.factor_xv`).

:func:`_march` is the package's only march: the phase and factored marches
of :func:`solve_linear` and the position-lattice marches of
:mod:`angiosolve.picard` (the velocity marginal and the concentration) are
each one call of it, in its own plan's work array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, ShapeError
from .grid import (GridSpec, PhaseField, Product, SpatialField, apply_sign,
                   speed_grid)
from .heat import HeatPlan
from .moments import _reduce_raw

# the most steps a schedule may have: a run holds its window edges, node
# times and saved node indices in arrays as long as the run, about 80 MB at
# this count
MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class Schedule:
    """Uniform time grid on [0, t_end] with step dt and a save stride.

    ``t_end`` must be an integer multiple of ``dt`` to within half an ulp of
    the product; anything looser silently shifts every node and is rejected
    as a configuration error, and so is a ratio ``t_end / dt`` too large to
    be a float or above ``MAX_STEPS`` steps.  Saved nodes are every
    ``save_stride``-th node plus always the final one.
    """

    t_end: float
    dt: float
    save_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ParameterError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ParameterError(f"t_end must be positive, got {self.t_end!r}")
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise ConfigurationError(
                f"t_end = {self.t_end!r} over dt = {self.dt!r} is no finite "
                "number of steps"
            )
        n = int(round(steps))
        if n > MAX_STEPS:
            raise ConfigurationError(
                f"t_end = {self.t_end!r} over dt = {self.dt!r} is {steps:.6g} "
                f"steps, more than the {MAX_STEPS} a run may take"
            )
        if n < 1 or abs(n * self.dt - self.t_end) > 0.5 * np.spacing(
            max(self.t_end, n * self.dt)
        ):
            raise ConfigurationError(
                f"t_end = {self.t_end!r} is not an integer number of steps of "
                f"dt = {self.dt!r} (closest: {n} steps = {n * self.dt!r})"
            )
        if not isinstance(self.save_stride, (int, np.integer)) or self.save_stride < 1:
            raise ParameterError(f"save_stride must be a positive integer, got {self.save_stride!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def times(self) -> np.ndarray:
        """All node times 0, dt, 2*dt, ..., n_steps*dt."""
        return np.arange(self.n_steps + 1) * self.dt

    def saved_nodes(self) -> tuple:
        """Node indices that get a full snapshot (stride nodes + final node)."""
        idx = list(range(0, self.n_steps + 1, self.save_stride))
        if idx[-1] != self.n_steps:
            idx.append(self.n_steps)
        return tuple(idx)


def _broadcast_x(arr: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Reshape a position-lattice array so it broadcasts over phase arrays."""
    return arr.reshape(grid.spatial_shape + (1,) * grid.dim_v)


def _broadcast_v(arr: np.ndarray, grid: GridSpec) -> np.ndarray:
    return arr.reshape((1,) * grid.dim_x + grid.velocity_shape)


def _sample_values(sample, grid, n_nodes, what, strict):
    """Normalise a coefficient argument to a list of raw node arrays.

    Accepts None, a single field (constant in time), or a sequence of fields
    of length ``n_nodes``.  Returns (list_of_arrays_or_None, constant_flag).
    In strict mode wrong-signed entries are clamped to zero (within the usual
    tolerance) so downstream algebra sees exact signs.
    """
    if sample is None:
        return None, True
    single = isinstance(sample, (PhaseField, SpatialField, np.ndarray))
    items = [sample] if single else list(sample)
    if not single and len(items) != n_nodes:
        raise ConfigurationError(
            f"{what} track has {len(items)} samples but the schedule has "
            f"{n_nodes} nodes; the track must cover every node"
        )
    out = []
    for k, item in enumerate(items):
        if isinstance(item, (PhaseField, SpatialField)):
            if item.grid != grid:
                raise ShapeError(f"{what} sample {k} lives on a different lattice")
            arr = item.values
        else:
            arr = np.asarray(item, dtype=float)
            if arr.shape not in (grid.spatial_shape, grid.phase_shape):
                raise ShapeError(
                    f"{what} sample {k} has shape {arr.shape}, expected "
                    f"{grid.spatial_shape} or {grid.phase_shape}"
                )
        if strict:
            arr = apply_sign(arr, +1, f"strict track: {what} sample {k} "
                                      "(use strict=False for signed coefficients)")
        out.append(arr)
    return out, single


class CoefficientTrack:
    """Node samples of the damping coefficient for one schedule.

    Parameters
    ----------
    schedule : Schedule
    grid : GridSpec
    a : None | field | sequence of fields
        Damping coefficient samples at every node, on the position lattice
        (broadcast over v) or the full phase lattice.  A single field means
        constant in time.
    sep_x, sep_v : optional separable extra term ``sep_x(t, x) * sep_v(v)``
        added to ``a``; ``sep_x`` follows the same single-or-sequence rule and
        may be signed (production terms enter with a negative sign).
    strict : bool
        Require a >= 0 samplewise (up to clamping); the default.
        Signed problems (differences of solutions, production-dominated
        coefficients) must opt out explicitly.
    """

    def __init__(self, schedule, grid, a=None, sep_x=None, sep_v=None, strict=True):
        self.schedule = schedule
        self.grid = grid
        n_nodes = schedule.n_steps + 1
        self._a, self._a_const = _sample_values(a, grid, n_nodes, "coefficient", strict)
        if (sep_x is None) != (sep_v is None):
            raise ConfigurationError("sep_x and sep_v must be given together")
        self._sep_x, self._sep_x_const = _sample_values(sep_x, grid, n_nodes, "separable factor", False)
        if sep_v is not None:
            sep_v = np.asarray(sep_v, dtype=float)
            if sep_v.shape != grid.velocity_shape:
                raise ShapeError(
                    f"sep_v has shape {sep_v.shape}, expected {grid.velocity_shape}"
                )
        self._sep_v = sep_v
        self._mid_buf = None  # phase-size: a separable midpoint and its exp
        # no term depends on v: the half factors act on the x factor alone
        self.x_only = sep_x is None and (
            self._a is None or all(a.shape == grid.spatial_shape for a in self._a))

    # -- node access -------------------------------------------------------

    def _pick(self, samples, const, i):
        if samples is None:
            return None
        return samples[0] if const else samples[i]

    def coefficient_mid(self, i: int):
        """Midpoint coefficient of step i, broadcastable to the phase shape.

        Linear interpolation at the midpoint is the node average; constant
        tracks return the node array itself (no copy, so callers may key
        caches on identity).  A separable term is assembled in the track's
        own phase-size buffer, which the next call overwrites.
        """
        out = None
        if self._sep_x is not None:
            if self._mid_buf is None:
                self._mid_buf = np.empty(self.grid.phase_shape)
            out = self._mid_buf
        return self._assemble(self._mid(self._a, self._a_const, i),
                              self._mid(self._sep_x, self._sep_x_const, i), out)

    def half_factor(self, i: int, dt: float):
        """exp(-0.5 dt w) of step i's midpoint coefficient w, the splitting
        factor E (None when the track has no coefficient).

        A separable midpoint is scaled and exponentiated in place, in the
        buffer :meth:`coefficient_mid` assembled it in, so a coupled step
        allocates no phase-size array for it.
        """
        w = self.coefficient_mid(i)
        if w is None:
            return None
        if w is not self._mid_buf:
            return np.exp((-0.5 * dt) * w)
        np.multiply(-0.5 * dt, w, out=w)
        return np.exp(w, out=w)

    def _mid(self, samples, const, i):
        lo, hi = self._pick(samples, const, i), self._pick(samples, const, i + 1)
        return lo if hi is lo else 0.5 * (lo + hi)

    def _assemble(self, a, s, out=None):
        """a (phase or position array) plus s(x) sep_v(v); either may be None.
        The separable term and the sum are written into ``out`` when given."""
        g = self.grid
        w = None
        if a is not None:
            w = a if a.ndim == g.dim_x + g.dim_v else _broadcast_x(a, g)
        if s is not None:
            term = np.multiply(_broadcast_x(s, g), _broadcast_v(self._sep_v, g), out=out)
            w = term if w is None else np.add(w, term, out=out)
        return w

    def coefficient_node(self, i: int):
        """Full coefficient at node i as a phase-broadcastable array."""
        return self._assemble(self._pick(self._a, self._a_const, i),
                              self._pick(self._sep_x, self._sep_x_const, i))

    def coefficient_at(self, t: float):
        """Coefficient linearly interpolated to an arbitrary time in range."""
        sched = self.schedule
        if t < -1e-12 or t > sched.t_end * (1 + 1e-12):
            raise ConfigurationError(
                f"time {t!r} is outside the track's schedule [0, {sched.t_end}]"
            )
        s = min(max(t, 0.0), sched.t_end) / sched.dt
        i = min(int(s), sched.n_steps - 1)
        theta = s - i
        lo = self.coefficient_node(i)
        if lo is None or theta == 0.0 or (self._a_const and self._sep_x_const):
            return lo
        return (1.0 - theta) * lo + theta * self.coefficient_node(i + 1)


class Trajectory:
    """Snapshots of one evolution at selected times, plus node-level series.

    ``fields[k]`` is the saved field at ``times[k]``.  When the producing
    solver recorded node series, ``p_tilde_nodes`` holds the velocity
    marginal at every schedule node and ``j_nodes`` the speed moment; both
    are stacked arrays with the node as leading axis, None when not
    recorded.  ``aux`` carries solver-specific extras (the pure and coupled
    drivers' running integral ``a`` at the saved times;
    :func:`solve_linear`'s ``end``, the state at its final node).
    """

    def __init__(self, times, fields, p_tilde_nodes=None, j_nodes=None, aux=None):
        times = np.asarray(times, dtype=float)
        fields = list(fields)
        if times.shape != (len(fields),):
            raise ShapeError(
                f"{len(fields)} fields but {times.size} save times"
            )
        times.setflags(write=False)
        self.times = times
        self.fields = fields
        self.p_tilde_nodes = p_tilde_nodes
        self.j_nodes = j_nodes
        self.aux = dict(aux or {})

    def __len__(self):
        return len(self.fields)

    def __getitem__(self, k):
        return self.fields[k]

    @property
    def grid(self):
        return self.fields[0].grid

    @property
    def final(self):
        return self.fields[-1]


def _halves(track, shape=None):
    """The half factors E of the track's steps, in order, each reshaped to
    ``shape`` when given (None stays None)."""
    dt = track.schedule.dt
    halves = (track.half_factor(i, dt) for i in range(track.schedule.n_steps))
    if shape is None:
        return halves
    return (None if half is None else half.reshape(shape) for half in halves)


def _march(vals, halves, plan, dt, what):
    """The package's one march: a splitting step (see module docstring) on
    raw arrays of the plan's kind for each half factor E in ``halves``.

    A plan serves one lattice, so the march runs on the lattice of ``plan``:
    step i writes E * vals into ``plan.work(plan.kind)`` (a copy for
    E = None, a = 0), applies the heat flow there, multiplies by E and
    floors the result with the message ``f"{what} {i}"`` (no floor when
    ``what`` is None), then yields it.  The yielded array is the march's
    state: the next step reads it, in-place edits included, and overwrites
    it.
    """
    for i, half in enumerate(halves, start=1):
        u = plan.work(plan.kind)
        if half is not None:
            np.multiply(vals, half, out=u)
        elif vals is not u:
            np.copyto(u, vals)
        u = plan.apply(u, dt, plan.kind)
        if half is not None:
            u *= half
        if what is not None:
            u = apply_sign(u, +1, f"{what} {i}", out=u)
        yield u
        vals = u


def solve_linear(p0, track, sigma, schedule=None, plan=None, record=None,
                 saved_nodes=None) -> Trajectory:
    """March the splitting scheme across a whole schedule.

    When p0 >= 0 the exact flow keeps the sign whatever the coefficient's
    sign, since the factors E are positive.  The marched values are then
    floored at zero after every step (anything negative is the flow's
    round-off and would otherwise compound over long runs), and saved
    fields carry ``nonnegative=True``.
    The floor follows :func:`~angiosolve.grid.apply_sign`: a negative entry
    beyond the clamping tolerance raises :class:`SignError` naming the step
    and cell.

    A :class:`~angiosolve.grid.Product` p0 = g (x) h is marched on its
    factors: g on ``plan``'s "x" plan with the track's half factors, h on
    its "v" plan under the plain flow, each floored every step (the error
    names the factor, the step and the factor's cell).  Saved fields are
    their outer products and agree with the phase march to round-off.  A
    product p0 needs a track with no v-dependent term (``track.x_only``)
    and nothing recorded, and is refused otherwise.  A phase-field p0 takes
    the phase march, also when it is a product.

    Parameters
    ----------
    p0 : PhaseField or Product
        Initial data; its ``time_tag`` is kept as the origin of the reported
        times (node i is tagged ``p0.time_tag + i*dt``).
    track : CoefficientTrack
        Coefficient samples; its schedule is used unless ``schedule``
        is passed and equal.
    sigma : float
        Phase-space diffusivity.
    record : {None, "j"}
        What to record at every node besides the saved fields (the coupled
        fixed-point driver reads these): nothing, or the velocity marginal
        and the speed moment (weight |v| of the cell centres).
    saved_nodes : sequence of int, optional
        Override of the schedule's saved nodes, each in range and possibly
        none (without node 0 the trajectory holds no field for ``p0``); the
        fixed-point drivers ask each window's march for the run's own saved
        nodes only.

    Returns
    -------
    Trajectory
        Snapshots at the saved nodes; ``aux["end"]`` is the final node's
        state, tagged ``p0.time_tag + n_steps*dt``, whichever nodes were
        saved: a :class:`~angiosolve.grid.Product` after a march on factors
        (so it is also which march ran), else that node's phase field.
    """
    if schedule is None:
        schedule = track.schedule
    elif schedule != track.schedule:
        raise ConfigurationError("explicit schedule differs from the track's schedule")
    grid = p0.grid
    if track.grid != grid:
        raise ShapeError("track and initial data live on different lattices")
    if plan is None:
        plan = HeatPlan(grid, sigma, "xv")
    elif plan.grid != grid or plan.subspace != "xv" or plan.diffusivity != float(sigma):
        raise ConfigurationError("plan does not match (grid, sigma, 'xv')")

    dt = schedule.dt
    n_steps = schedule.n_steps
    product = isinstance(p0, Product)
    clamp = product or float(p0.values.min()) >= 0.0
    if saved_nodes is None:
        saved = set(schedule.saved_nodes())
    else:
        saved = set(int(i) for i in saved_nodes)
        if any(not 0 <= i <= n_steps for i in saved):
            raise ConfigurationError(f"saved_nodes must stay in [0, {n_steps}]")

    if record not in (None, "j"):
        raise ParameterError(f"record must be None or 'j', got {record!r}")
    if product and (record is not None or not track.x_only):
        raise ConfigurationError(
            "a product start needs a track with no v-dependent term and no record"
        )
    if record is not None:
        p_tilde_rec = np.empty((n_steps + 1,) + grid.spatial_shape)
        j_rec = np.empty_like(p_tilde_rec)
        speed = speed_grid(grid)

    def _record(i, vals):
        p_tilde_rec[i] = _reduce_raw(vals, grid)
        j_rec[i] = _reduce_raw(vals, grid, speed)

    t0 = p0.time_tag
    fields, times = [], []
    if 0 in saved:
        fields.append(p0.field() if product
                      else PhaseField(grid, p0.values, time_tag=t0, nonnegative=clamp))
        times.append(t0)
    if record is not None:
        _record(0, p0.values)

    if product:
        # x first: the x flow of step i, then its v flow
        what = "factor of the marched density at step"
        march = zip(_march(p0.g, _halves(track, grid.spatial_shape),
                           plan.partial("x"), dt, f"x {what}"),
                    _march(p0.h, [None] * n_steps, plan.partial("v"), dt,
                           f"v {what}"))
    else:
        march = _march(p0.values, _halves(track), plan, dt,
                       "marched density at step" if clamp else None)
    for i, state in enumerate(march, start=1):
        if record is not None:
            _record(i, state)
        if i in saved:
            t = t0 + i * dt
            fields.append(Product(grid, *state, time_tag=t).field() if product
                          else PhaseField(grid, state, time_tag=t, nonnegative=clamp))
            times.append(t)

    if product:
        end = Product(grid, *state, time_tag=t0 + n_steps * dt)
    else:  # the final node's field, built once
        end = fields[-1] if n_steps in saved else PhaseField(
            grid, state, time_tag=t0 + n_steps * dt, nonnegative=clamp)
    nodes = (None, None) if record is None else (p_tilde_rec, j_rec)
    return Trajectory(times, fields, *nodes, aux={"end": end})
