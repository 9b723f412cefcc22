"""Fixed-point drivers for the nonlocal vessel-tip / attractant system.

The model couples a phase-space tip density p(t, x, v) to an attractant
concentration c(t, x):

    dp/dt = sigma Lap_{x,v} p + alpha(c) rho(v) p - gamma p * int_0^t p~ ds,
    dc/dt = d Lap_x c - eta c j,

with alpha(c) = alpha1 c / (c_R + c), rho a fixed Gaussian velocity profile,
p~ the velocity marginal and j the speed moment of p.  One window loop
(:func:`_drive`) serves both public drivers: each pass is one iterate, which
freezes the nonlocal (and nonlinear) couplings at the previous iterate and
marches its state under the resulting *linear* damped diffusion problem,
until successive marginals agree in relative sup norm at every saved time
(on coupled runs the concentrations must agree as well); ``init`` only
chooses where the loop starts.

The uncoupled problem (:func:`picard_pure`) is that loop without the
attractant, and its state is the marginal alone: the coefficient gamma A(x)
does not depend on v, the phase heat multiplier factors into an x and a v
part, and the v flow keeps the v-sum exactly, so the v-sum of one Strang
step is the same step on p~ with a position-lattice plan.  Its iterates are
therefore marched on the n_x cells of the position lattice, and each window
marches the phase field once, with the coefficient of its last iterate,
through :func:`solve_linear`.  For product data that march runs on the
factors, an x-lattice and a v-lattice march, and the phase field is built
only at the saved nodes; every shipped density is a product.
:func:`picard_coupled` switches the attractant on; its coefficient depends
on v and it records node moments, so every coupled iterate marches the
phase field with :func:`solve_linear` on the phase lattice, also at
``alpha1 = 0``, and then the concentration.  Every one of these
marches, phase, marginal and concentration, is one call of the package's
one march :func:`~angiosolve.stepping._march` in its own plan's work
array; this module defines no step of its own.

The iteration only contracts on windows with T * sqrt(M) < 1 (M an a-priori
bound on the accumulated damping), so the proof splits long runs into slabs
of length min(T, 0.5 / sqrt(M)) (:func:`slab_partition`).  The discrete fixed
point does not depend on where the time axis is cut, so the loop iterates on
shorter windows still, of at most ``_WINDOW_STEPS`` steps inside those slabs,
each restarted from the previous window's final state; the running time
integral is carried across window boundaries so the damping coefficient
stays the global integral.  Short windows contract faster, and a window
after the first two steps is seeded with the quadratic continuation of the
last three converged nodes, so one correction usually meets the tolerance
there (windowed waveform relaxation; Gander & Stuart, SIAM J. Sci. Comput.
19, 1998).

A window's saved fields are final once it has converged, so the loop hands
them out then (:class:`DriveStream`), each with the running integral at its
time, and keeps none.  Like the proof, which carries only int_0^t p~ ds
across slab edges, the loop carries that integral and the last three
converged nodes (the seed's history) from window to window, so nothing it
holds grows with the run length: a checked run reads each field and drops
it, and :func:`collect` keeps them all for the public drivers'
trajectories.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ParameterError, ShapeError
from .grid import PhaseField, SpatialField, apply_sign
from .heat import HeatPlan, gaussian_rho
from .moments import _reduce_raw, accumulate_time_integral
from .stepping import (CoefficientTrack, Schedule, Trajectory, _halves, _march,
                       solve_linear)


@dataclass(frozen=True)
class ModelParams:
    """Model constants.

    ``sigma`` (phase diffusivity), ``d`` (attractant diffusivity), ``gamma``
    (damping strength), ``eta`` (consumption rate), ``c_R`` (half-saturation)
    and ``epsilon`` (velocity profile width) must be positive; ``alpha1``
    (production ceiling) may be zero, which switches the coupling off.
    ``v0`` is the centre of the velocity profile (scalar or one value per
    velocity axis).  The consumption is driven by the scalar speed moment
    j = integral of |v| p over v, the model whose fixed point is unique.
    """

    sigma: float
    d: float
    gamma: float
    eta: float
    alpha1: float
    c_R: float
    epsilon: float
    v0: tuple = (0.0,)

    def __post_init__(self):
        positive = {"sigma": self.sigma, "d": self.d, "gamma": self.gamma,
                    "eta": self.eta, "c_R": self.c_R, "epsilon": self.epsilon}
        for name, val in positive.items():
            if not (math.isfinite(float(val)) and float(val) > 0.0):
                raise ParameterError(f"{name} must be positive, got {val!r}")
        if not (math.isfinite(float(self.alpha1)) and float(self.alpha1) >= 0.0):
            raise ParameterError(f"alpha1 must be >= 0, got {self.alpha1!r}")
        v0 = self.v0
        if np.isscalar(v0):
            v0 = (float(v0),)
        else:
            v0 = tuple(float(c) for c in v0)
        if not all(math.isfinite(c) for c in v0):
            raise ParameterError(f"v0 must be finite, got {self.v0!r}")
        object.__setattr__(self, "v0", v0)


@dataclass
class IterationDiagnostics:
    """Convergence and work record of one driver run.

    One entry per iteration window: ``slab_edges`` are the window edges
    (times), ``k_per_slab[w]`` the iterates window w took, and
    ``deltas_p[w]`` lists the relative sup-norm changes of the iterates'
    velocity marginals at the saved times of window w, starting at iterate 2;
    ``deltas_c`` likewise for the coupled driver's concentrations (empty
    for the pure one).  ``driving_deltas`` is the sequence the stopping rule
    actually used (max of the two).  ``phase_step_solves`` counts the Strang
    steps of the phase field's marches (:func:`solve_linear`'s steps), and
    ``factored_step_solves`` those of them that :func:`solve_linear` marched
    on a product density's factors; ``x_step_solves`` counts the steps
    marched on the position lattice (the pure driver's marginal iterates).
    All are exact and deterministic.
    """

    deltas_p: list = field(default_factory=list)
    deltas_c: list = field(default_factory=list)
    driving_deltas: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = True
    slab_edges: list = field(default_factory=list)
    k_per_slab: list = field(default_factory=list)
    phase_step_solves: int = 0
    factored_step_solves: int = 0
    x_step_solves: int = 0

    def deltas_strictly_decreasing(self) -> bool:
        """True when every window's driving deltas fall strictly.

        The sequence starts at iterate 2, so the first comparison is iterate
        3 against iterate 2.  A window that converged immediately (one
        delta) passes vacuously.
        """
        for window in self.driving_deltas:
            for prev, curr in zip(window, window[1:]):
                if not curr < prev:
                    return False
        return True


def summarise_iterates(k_per_window) -> str:
    """How many windows took each iterate count, e.g. ``500 window(s):
    499x2, 1x4`` (counts ascending)."""
    counts = Counter(k_per_window)
    return f"{len(k_per_window)} window(s): " + ", ".join(
        f"{n}x{k}" for k, n in sorted(counts.items()))


def alpha_of_c(c: SpatialField, alpha1: float, c_R: float) -> SpatialField:
    """Saturating production rate alpha1 * c / (c_R + c), role ``alpha_of_c``.

    Monotone and bounded by alpha1; Lipschitz in c with constant alpha1/c_R.
    The concentration must be nonnegative (up to clamping).
    """
    if not (float(c_R) > 0.0):
        raise ParameterError(f"c_R must be positive, got {c_R!r}")
    if not (float(alpha1) >= 0.0):
        raise ParameterError(f"alpha1 must be >= 0, got {alpha1!r}")
    vals = _alpha_raw(c.values, float(alpha1), float(c_R), "alpha_of_c input")
    return SpatialField(c.grid, vals, time_tag=c.time_tag, role="alpha_of_c")


def velocity_profile(grid, params: ModelParams):
    """The model's rho_eps on the lattice; a scalar v0 is repeated per
    velocity axis, any other length must match dim_v."""
    v0 = params.v0 if len(params.v0) == grid.dim_v else params.v0 * grid.dim_v
    if len(v0) != grid.dim_v:
        raise ConfigurationError(
            f"v0 has {len(params.v0)} components for a dim_v={grid.dim_v} lattice"
        )
    return gaussian_rho(grid, params.epsilon, v0)


def _alpha_raw(c_vals: np.ndarray, alpha1: float, c_R: float, what: str) -> np.ndarray:
    c_vals = apply_sign(c_vals, +1, f"{what} concentration")
    return alpha1 * c_vals / (c_R + c_vals)


# --------------------------------------------------------------------------
# slab partition and iteration windows

# the longest window the fixed point is iterated on; slab_partition's slabs
# only bound it from above
_WINDOW_STEPS = 2


def slab_partition(n_steps: int, dt: float, sup_m: float):
    """Split [0, n_steps*dt] into contraction windows.

    ``sup_m`` is the a-priori bound M on gamma times the largest marginal
    the iterates can reach; windows of length min(T, 0.5/sqrt(M)) keep the
    fixed-point map a contraction with factor <= 1/4.  Returns the node
    indices of the slab edges (starting at 0, ending at n_steps).
    """
    if sup_m <= 0.0:
        slab_steps = n_steps
    else:
        t_hat = 0.5 / math.sqrt(sup_m)
        slab_steps = int(t_hat / dt + 1e-9)
        slab_steps = max(1, min(n_steps, slab_steps))
    edges = list(range(0, n_steps, slab_steps)) + [n_steps]
    return edges


def _relative_delta(fields_a, fields_b) -> float:
    """max_t sup|a - b| over the shared saved times, relative to the larger
    of the two trajectories' sup norms (0/0 -> 0)."""
    scale = 0.0
    for fa, fb in zip(fields_a, fields_b):
        scale = max(scale, float(np.abs(fa).max()), float(np.abs(fb).max()))
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for fa, fb in zip(fields_a, fields_b):
        worst = max(worst, float(np.abs(fa - fb).max()))
    return worst / scale


def _local_saved_nodes(i0, i1, global_saved):
    local = {g - i0 for g in global_saved if i0 <= g <= i1}
    local.add(0)
    local.add(i1 - i0)
    return sorted(local)


def _c_inf_nodes(c_start_vals, plan_x, n_local, dt):
    """Exact far-field concentration at the local nodes of one window.

    ``c_start_vals`` is the far field at the window start; the semigroup is
    exact, so evaluating each node in one shot composes exactly with the
    previous windows.
    """
    return np.stack([plan_x.apply(c_start_vals, i * dt, "spatial")
                     for i in range(n_local + 1)])


def _advance_c_nodes(chat_start, c_inf_win, j_loc, eta, dt, plan_x):
    """March c = c_inf + chat across one window given the speed moment nodes.

    One :func:`~angiosolve.stepping._march` in ``plan_x``'s work array, with
    the midpoint consumption eta j as damping and no source, floored every
    step.  Returns (c at local nodes, chat at the last node).  chat stays
    <= 0 and c stays >= 0 by construction; both are clamped at round-off
    level and violations beyond the tolerance raise SignError.  A clamped
    chat is written back into the march's state, so the next step marches
    c_inf + chat.
    """
    n_local = j_loc.shape[0] - 1
    c_nodes = np.empty_like(j_loc)
    chat = chat_start
    c_nodes[0] = c = c_inf_win[0] + chat
    halves = (np.exp((-0.5 * dt * eta) * (0.5 * (j_loc[i] + j_loc[i + 1])))
              for i in range(n_local))
    march = _march(c, halves, plan_x, dt, "spatial", "concentration at node")
    for i, c in enumerate(march, start=1):
        chat = c - c_inf_win[i]
        # consumption only ever lowers c below its far field.  The march
        # and the one-shot far field round apart a little every step, and
        # without this clamp the drift builds up: 150 steps of the 2+2
        # smoke run then lift c above c_inf by 2.1e-12 of sup c0, beyond
        # the c_bounds check's 1e-12
        clamped = apply_sign(chat, -1, f"depletion at node {i}",
                             scale=float(c.max()))
        if clamped is not chat:
            chat = clamped
            np.add(c_inf_win[i], chat, out=c)
        c_nodes[i] = c
    return c_nodes, chat


def _march_marginal(pt0, track, plan_x):
    """The velocity marginal of :func:`solve_linear`'s march, on the x-lattice.

    ``track`` holds a position-lattice coefficient and no source, and
    ``plan_x`` is the subspace-"x" plan with the phase diffusivity.  Each
    step is the phase step's v-sum: the same
    :func:`~angiosolve.stepping._march`, in ``plan_x``'s work array and
    floored there like the phase march.  Returns the stacked marginal at
    every node.
    """
    march = _march(pt0, _halves(track, track.grid.spatial_shape), plan_x,
                   track.schedule.dt, "spatial", "marched marginal at step")
    return np.stack([pt0, *map(np.copy, march)])


def _windows(edges):
    """Cut every slab between ``edges`` into windows of at most
    ``_WINDOW_STEPS`` steps (the last window of a slab may be shorter)."""
    out = [0]
    for i0, i1 in zip(edges, edges[1:]):
        out += list(range(i0 + _WINDOW_STEPS, i1, _WINDOW_STEPS)) + [i1]
    return out


def _seed(history, n_local):
    """Quadratic continuation of the last three converged nodes.

    The Newton backward-difference polynomial through ``history``'s three
    nodes, evaluated at the next window's local nodes 0..n_local (node 0
    is the last converged node itself) and floored at zero: a guess for
    iterate 1, not a marched value, so no sign rule applies to it.
    """
    last = history[2]
    d1 = last - history[1]
    d2 = d1 - (history[1] - history[0])
    m = np.arange(n_local + 1.0).reshape((-1,) + (1,) * last.ndim)
    return np.maximum(last + m * d1 + (0.5 * m * (m + 1.0)) * d2, 0.0)


def validate_options(k_max, tol, init):
    """Reject fixed-point options no run accepts: ``init`` must be "heat"
    or "zero", ``k_max`` at least 2 and ``tol`` in (0, 1)."""
    if init not in ("heat", "zero"):
        raise ParameterError(f"init must be 'heat' or 'zero', got {init!r}")
    if k_max < 2:
        raise ParameterError(f"k_max must allow at least two iterates, got {k_max!r}")
    if not (0.0 < tol < 1.0):
        raise ParameterError(f"tol must be in (0, 1), got {tol!r}")


def _drive(p0, c0, params, schedule, k_max, tol, init):
    """The windowed fixed point behind both public drivers.

    The slabs of :func:`slab_partition` are cut into windows of at most
    ``_WINDOW_STEPS`` steps, and each window is iterated to its own fixed
    point and restarted from the previous one's final state.  Per window,
    iterate k marches the state under the linear problem with coefficient
    gamma A_{k-1} (A the running integral of the previous iterate's
    marginal, continued across windows by the carried offset), until
    successive marginals agree to ``tol`` at every saved time.
    The loop starts from the seed S: zero in the first window, and once
    three converged nodes exist their quadratic continuation (of the
    marginal, and on coupled runs of the speed moment).  ``init`` only
    chooses where: ``"zero"`` counts S as iterate 1 (c marched from its
    speed moment) and starts at k = 2; ``"heat"`` starts at k = 1 with no
    previous c, so that pass has no production term, is strict and takes no
    delta.  Without ``c0`` the state is the marginal, marched on the
    x-lattice, and the phase field is marched once per window with the
    last iterate's coefficient.  Passing ``c0`` couples the attractant in:
    the state is the phase field, the coefficient gains
    -alpha(c_{k-1}) rho(v), c_k is marched with the current speed moment
    j_k, and the c change joins the stopping rule.  Every phase march starts
    nonnegative and sourceless, so :func:`solve_linear` floors each step.

    A generator: each window's saved ``(t, p_field, c_field or None, a)``
    are yielded once it has converged, ``a`` the running integral of the
    converged marginal at ``t`` (the carried offset plus the window's own
    part), and it returns the diagnostics.  :class:`DriveStream` wraps it
    for consumers.
    """
    validate_options(k_max, tol, init)
    coupled = c0 is not None
    grid = p0.grid
    if coupled and c0.grid != grid:
        raise ShapeError("p0 and c0 live on different lattices")
    if float(p0.values.min()) < 0.0:
        p0 = PhaseField(grid, p0.values, time_tag=p0.time_tag, nonnegative=True)
    gamma, eta, dt = params.gamma, params.eta, schedule.dt
    n_steps = schedule.n_steps
    plan = HeatPlan(grid, params.sigma, "xv")
    rho_v, record, alpha_rate = None, None, 0.0
    if coupled:
        if c0.role != "c":
            c0 = SpatialField(grid, c0.values, time_tag=c0.time_tag, role="c")
        rho = velocity_profile(grid, params)
        rho_v = rho.values
        alpha_rate = params.alpha1 * rho.sup_norm
        record = "j"
        plan_x = HeatPlan(grid, params.d, "x")
        chat_start = np.zeros(grid.spatial_shape)
        cinf_start = c0.values
    else:
        plan_pt = plan.partial("x")

    # a-priori bound on gamma * sup of any iterate's marginal: the damping
    # only removes mass, so the heat flow, grown at the production ceiling,
    # dominates every iterate's marginal
    sup_pt0 = float(_reduce_raw(p0.values, grid).max())
    big_m = gamma * sup_pt0 * math.exp(alpha_rate * schedule.t_end)

    edges = _windows(slab_partition(n_steps, dt, big_m))
    global_saved = set(schedule.saved_nodes())

    diag = IterationDiagnostics(slab_edges=[e * dt for e in edges])
    # the last (up to) three converged nodes of the marginal (and j), which
    # seed the windows, and the running integral at the window start
    hist_pt = hist_j = np.empty((0,) + grid.spatial_shape)
    a_offset = np.zeros(grid.spatial_shape)
    p_start = p0

    for s in range(len(edges) - 1):
        i0, i1 = edges[s], edges[s + 1]
        n_local = i1 - i0
        # stride 1: solve_linear gets the window's saved nodes explicitly
        local_sched = Schedule(t_end=n_local * dt, dt=dt, save_stride=1)
        local_saved = _local_saved_nodes(i0, i1, global_saved)
        # node 0 joins the stopping rule in every window, but its field is
        # the previous window's last one: only the first window saves it
        march_saved = local_saved if s == 0 else local_saved[1:]
        if coupled:
            c_inf_win = _c_inf_nodes(cinf_start, plan_x, n_local, dt)
        else:
            pt_start = _reduce_raw(p_start.values, grid)

        # the seed S: zero until three converged nodes exist
        if len(hist_pt) == 3:
            prev_pt = _seed(hist_pt, n_local)
            prev_j = _seed(hist_j, n_local) if coupled else None
        else:
            prev_pt = prev_j = np.zeros((n_local + 1,) + grid.spatial_shape)
        # "zero" counts S as iterate 1, with c_1 marched from its j; "heat"
        # marches iterate 1 with the memory of S and no production
        k, c_prev, c_cur = 1, None, None
        if init == "zero":
            k = 2
            diag.iterations += 1
            if coupled:
                c_prev, _ = _advance_c_nodes(chat_start, c_inf_win, prev_j, eta, dt, plan_x)

        deltas_p, deltas_c, driving = [], [], []
        converged_win = False
        while k <= k_max:
            a_nodes = a_offset + accumulate_time_integral(prev_pt, dt)
            sep_x = None
            if c_prev is not None:
                sep_x = [-_alpha_raw(c_prev[i], params.alpha1, params.c_R,
                                     "coupled iterate") for i in range(n_local + 1)]
            track = CoefficientTrack(local_sched, grid,
                                     a=[gamma * a_i for a_i in a_nodes],
                                     sep_x=sep_x, sep_v=None if sep_x is None else rho_v,
                                     strict=sep_x is None)
            traj_k = None  # the previous iterate's fields are not needed again
            if coupled:
                diag.phase_step_solves += n_local
                traj_k = solve_linear(p_start, track, params.sigma, plan=plan,
                                      record=record, saved_nodes=march_saved)
                pt_k, j_k = traj_k.p_tilde_nodes, traj_k.j_nodes
                c_cur, chat_cur = _advance_c_nodes(chat_start, c_inf_win, j_k, eta, dt, plan_x)
            else:
                diag.x_step_solves += n_local
                pt_k = _march_marginal(pt_start, track, plan_pt)
            diag.iterations += 1
            if k > 1:
                delta = _relative_delta(pt_k[local_saved], prev_pt[local_saved])
                deltas_p.append(delta)
                if coupled:
                    d_c = _relative_delta(c_cur[local_saved], c_prev[local_saved])
                    deltas_c.append(d_c)
                    delta = max(delta, d_c)
                driving.append(delta)
                if delta <= tol:
                    converged_win = True
                    break
            prev_pt, c_prev = pt_k, c_cur
            k += 1

        diag.deltas_p.append(deltas_p)
        diag.deltas_c.append(deltas_c)
        diag.driving_deltas.append(driving)
        diag.k_per_slab.append(k if converged_win else k_max)
        if not converged_win:
            diag.converged = False
        if not coupled:
            # the marginal fixed the coefficient; march the density once
            diag.phase_step_solves += n_local
            traj_k = solve_linear(p_start, track, params.sigma, plan=plan,
                                  saved_nodes=march_saved)
            if traj_k.aux["factored"]:
                diag.factored_step_solves += n_local
        # tag the next start with its own node time, so each window's tags
        # are one rounding from node * dt and no error builds up; the old
        # start and the track's phase-size buffer are not held while the
        # consumer reads this window's fields
        p_start = traj_k.fields[-1].like(traj_k.fields[-1].values, i1 * dt)
        track = None

        # yield only the schedule's own saved nodes: window edges are an
        # implementation detail and must not leak extra snapshots
        a_win = accumulate_time_integral(pt_k, dt)
        for pos, node in enumerate(march_saved):
            if i0 + node not in global_saved:
                continue
            # the fields' own tags (i0 * dt + local node * dt), which can
            # differ from (i0 + node) * dt in the last bit
            t = traj_k.times[pos]
            yield (t, traj_k.fields[pos],
                   SpatialField(grid, c_cur[node], time_tag=t, role="c") if coupled else None,
                   a_offset + a_win[node])
        a_offset = a_offset + a_win[-1]
        # a window's node 0 is the previous window's last node, restarted
        hist_pt = np.concatenate([hist_pt[:-1], pt_k])[-3:]
        if coupled:
            hist_j = np.concatenate([hist_j[:-1], j_k])[-3:]
            chat_start = chat_cur
            cinf_start = c_inf_win[-1]

    return diag


class DriveStream:
    """One fixed-point run of :func:`_drive`, handed out field by field.

    Iterating it (once) runs the drive and yields ``(t, p_field, c_field,
    a)`` (``c_field`` None without ``c0``; ``a`` the running integral of the
    marginal at ``t``) for every saved time, in order, as soon as the window
    holding that time has converged; nothing keeps a field once its window
    is done, so a consumer that drops each field holds one window of
    fields, not the trajectory.  When the iteration ends, ``diag`` holds
    the run's :class:`IterationDiagnostics`.
    """

    def __init__(self, p0, c0, params, schedule, k_max, tol, init):
        self.coupled = c0 is not None
        self.diag = None
        self._drive = _drive(p0, c0, params, schedule, k_max, tol, init)

    def __iter__(self):
        self.diag = yield from self._drive


def collect(stream: DriveStream):
    """Run a stream to its end, keeping every field.

    Returns (p_trajectory, c_trajectory or None, diagnostics); the p
    trajectory's ``aux["a"]`` stacks the running integral at its saved
    times, one row per entry of ``times``.
    """
    times, p_fields, c_fields, a_rows = [], [], [], []
    for t, p_field, c_field, a in stream:
        times.append(t)
        p_fields.append(p_field)
        c_fields.append(c_field)
        a_rows.append(a)
    p_traj = Trajectory(times, p_fields, aux={"a": np.stack(a_rows)})
    c_traj = Trajectory(times, c_fields) if stream.coupled else None
    return p_traj, c_traj, stream.diag


def picard_pure(p0: PhaseField, params: ModelParams, schedule: Schedule,
                k_max: int = 20, tol: float = 1e-8, init: str = "heat"):
    """Fixed-point run of the uncoupled problem (production switched off).

    Iterates  p_k = solve of  dp/dt = sigma Lap p - gamma A_{k-1} p  with
    A_{k-1}(t) the running integral of the previous iterate's marginal
    (continued across windows by the carried offset), window by window.
    The coefficient does not depend on v, so only the marginal is iterated,
    on the x-lattice: p~_k solves  dp~/dt = sigma Lap_x p~ - gamma A_{k-1} p~
    with the same Strang step, and the stopping rule compares successive
    marginals at the saved times.  Each window then marches the phase field
    once, with the coefficient of its last iterate.

    Each window's loop starts from its seed S: zero in the first window,
    and once three converged nodes exist, their quadratic continuation over
    the window (floored at zero).  ``init`` only chooses where: ``"heat"``
    marches iterate 1 with the memory coefficient gamma (carried offset +
    int S), in the first window the plain heat flow; ``"zero"`` counts
    p~_1 = S as iterate 1 and starts at iterate 2.  In the first window the
    zero run's iterate k is then the heat run's iterate k-1, and both stop
    on the same field.  In a seeded window the
    zero run may stop at its iterate 2 (S is close), while the heat run's
    first delta comes one iterate later; the two runs then stop one
    contraction step apart, so the windows after that start from states
    that agree to about the tolerance, not bit for bit.

    Returns (Trajectory, IterationDiagnostics).  Non-convergence within
    ``k_max`` iterates of any window is flagged, never raised.
    """
    p_traj, _, diag = collect(DriveStream(p0, None, params, schedule, k_max, tol, init))
    return p_traj, diag


def picard_coupled(p0: PhaseField, c0: SpatialField, params: ModelParams,
                   schedule: Schedule, k_max: int = 20, tol: float = 1e-8,
                   init: str = "zero"):
    """Fixed-point run of the fully coupled system.

    Iterate bookkeeping per window (mirroring the construction that proves
    existence): iterate 1 is the seed S of the marginal and the speed moment
    (zero in the first window, and once three converged nodes exist their
    quadratic continuation over the window, floored at zero), with c_1
    marched from S's speed moment; iterate k >= 2 solves the linear problem
    with coefficient gamma A_{k-1} - alpha(c_{k-1}) rho(v) and then advances
    the concentration with the *current* speed moment j_k.  Convergence
    requires both the p and the c change to fall below ``tol`` at every
    saved time.  ``init`` only chooses where the loop starts: ``"heat"``
    starts at iterate 1 with no c, which marches with the memory coefficient
    gamma (carried offset + int S) and no production (in the first window
    the frozen-offset flow); the uniqueness probe uses it to approach the
    fixed point from a different side in every window.

    Returns (p_trajectory, c_trajectory, diagnostics); the c trajectory holds
    the concentration alone (its depletion is c minus the heat flow of c0,
    which :func:`~angiosolve.harness.check_c_bounds` recomputes).
    """
    if c0 is None:
        raise ConfigurationError("the coupled driver needs an initial concentration")
    return collect(DriveStream(p0, c0, params, schedule, k_max, tol, init))
