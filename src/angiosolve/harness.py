"""Inequality checks on solver trajectories, with located worst offenders.

Every check walks a trajectory, evaluates one mathematical claim per saved
time, and reports a :class:`BoundCheck`: the normalised slack per time (>= 0
means the claim holds with room), the worst slack, the time and lattice cell
where it occurs, and a pass/fail verdict against the check's tolerance.
Slacks are normalised by a problem-scale quantity (stated per check) so the
tolerances are dimensionless and comparable across scenarios.

Each check is a fold: ``add`` reads one saved field, with its
:class:`FieldStats` (the reductions several folds share), or one moment
set, and keeps scalars and a cell; ``finish`` turns those series into the
verdict.  A checked run feeds its folds each saved field as the drive
yields it, with one :class:`FieldStats` shared by all of them, so no check
needs the trajectory in memory; each ``check_*`` function runs its fold
over a trajectory already held, making one :class:`FieldStats` per field.

The checks never repair anything; they only measure.  Feeding them corrupted
data is the intended way to verify they would catch a regression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigurationError, ParameterError
from .grid import lq_norm
from .heat import HeatPlan
from .moments import running_trapezoid


@dataclass
class BoundCheck:
    """Outcome of one inequality check over a trajectory."""

    name: str
    anchor: str
    tolerance: float
    times: np.ndarray
    slacks: np.ndarray
    worst_slack: float
    worst_time: float
    worst_cell: tuple
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "tolerance": self.tolerance,
            "worst_slack": float(self.worst_slack),
            "worst_time": float(self.worst_time),
            "worst_cell": None if self.worst_cell is None else list(self.worst_cell),
            "verdict": self.verdict,
        }


def _finish(name, anchor, tol, times, slacks, cells) -> BoundCheck:
    """``cells`` lists the cell at each time."""
    slacks = np.asarray(slacks, dtype=float)
    k = int(np.argmin(slacks))
    worst = float(slacks[k])
    return BoundCheck(
        name=name, anchor=anchor, tolerance=float(tol),
        times=np.asarray(times, dtype=float), slacks=slacks,
        worst_slack=worst, worst_time=float(times[k]),
        worst_cell=cells[k],
        passed=bool(worst >= -tol),
    )


def _extreme(arr, which):
    """(value, cell) of the first minimal (``"min"``) or maximal entry."""
    k = int(arr.argmin() if which == "min" else arr.argmax())
    return float(arr.flat[k]), tuple(int(i) for i in np.unravel_index(k, arr.shape))


def _sup(values) -> float:
    """max|values| from the two extremes, with no |values| temporary (the
    same bits for finite values)."""
    return max(float(values.max()), -float(values.min()))


class FieldStats:
    """The reductions of one field that several folds read, each taken once.

    Its largest and smallest entries with their cells (one argmax and one
    argmin pass) give its sup norm and its cell of largest magnitude; its
    other L^q norms are taken on first request.  A checked run makes one per
    saved density and hands it to every fold with the field.
    """

    __slots__ = ("field", "high", "high_cell", "low", "low_cell", "_norms")

    def __init__(self, field):
        self.field = field
        self.high, self.high_cell = _extreme(field.values, "max")
        self.low, self.low_cell = _extreme(field.values, "min")
        self._norms = {}

    @property
    def sup(self) -> float:
        return max(self.high, -self.low)

    @property
    def largest_cell(self) -> tuple:
        """The first cell of largest magnitude, the one
        ``np.abs(values).argmax()`` finds."""
        if self.high == -self.low:
            return min(self.high_cell, self.low_cell)
        return self.high_cell if self.high > -self.low else self.low_cell

    def norm(self, q) -> float:
        """:func:`~angiosolve.grid.lq_norm` of the field (q = inf from the
        extremes)."""
        if q == np.inf:
            return self.sup
        if q not in self._norms:
            self._norms[q] = lq_norm(self.field, q)
        return self._norms[q]


class _Fold:
    """One check gathered one saved time at a time.

    ``add`` reads one saved field and keeps only scalars and a cell, so a
    fold holds no field; ``finish`` turns the scalar series into the
    :class:`BoundCheck`.  Each ``check_*`` function runs its fold over a
    whole trajectory.
    """

    anchor = None

    def __init__(self, name, tol):
        self.name, self.tol = name, tol
        self.times, self.cells = [], []

    def _check(self, slacks, tol=None) -> BoundCheck:
        return _finish(self.name, self.anchor, self.tol if tol is None else tol,
                       self.times, slacks, self.cells)


class PositivityFold(_Fold):
    """Nonnegative data must stay nonnegative.

    Slack at each time is min(field)/max|field| (global max over the run);
    the worst cell is the most negative one.
    """

    anchor = "nonnegative initial data propagate to nonnegative solutions"

    def __init__(self, tol: float = 1e-12, name: str = "positivity"):
        super().__init__(name, tol)
        self.lows, self.scale = [], 0.0

    def add(self, t, field, stats):
        self.scale = max(self.scale, stats.sup)
        self.times.append(t)
        self.lows.append(stats.low)
        self.cells.append(stats.low_cell)

    def finish(self) -> BoundCheck:
        scale = self.scale or 1.0
        return self._check([low / scale for low in self.lows])


class ComparisonFold(_Fold):
    """Cellwise domination solution <= majorant at every saved time.

    Slack is min(majorant - solution) normalised by the majorant's largest
    sup norm (the solution's, if the majorant is zero throughout).  Ordered
    data give ordered flows, so a frozen-coefficient or production-envelope
    majorant must stay above every iterate.
    """

    def __init__(self, tol: float = 1e-10, name: str = "comparison",
                 anchor: str = None):
        super().__init__(name, tol)
        self.anchor = anchor or ("monotone comparison: the flow with the larger "
                                 "data and weaker damping dominates cellwise")
        self.lows, self.scale, self.sup = [], 0.0, 0.0

    def add(self, t, field, majorant, stats, scratch=False):
        """``majorant`` is the majorant's raw array at time ``t``; with
        ``scratch`` it was made for this call, and the gap is taken in it."""
        self.scale = max(self.scale, _sup(majorant))
        self.sup = max(self.sup, stats.sup)
        gap = np.subtract(majorant, field.values, out=majorant if scratch else None)
        low, cell = _extreme(gap, "min")
        self.times.append(t)
        self.lows.append(low)
        self.cells.append(cell)

    def finish(self) -> BoundCheck:
        scale = self.scale or self.sup or 1.0
        return self._check(np.asarray(self.lows) / scale)


class GronwallFold(_Fold):
    """Exponential norm envelope ||f(t)||_q <= ||f(0)||_q * exp(rate * t).

    Slack is (bound - norm)/bound per time, with t and ``norm0`` (default:
    the norm of the first field added) taken at the first time.  A zero
    ``norm0`` bounds by zero at every time (0 * e^x = 0, however large x),
    and an envelope beyond the largest float holds, with slack 1, for any
    finite norm.  The worst cell is the cell of largest magnitude at the
    worst time (the one carrying the norm).
    """

    def __init__(self, rate: float, q, tol: float = 1e-8, norm0: float = None,
                 name: str = "gronwall"):
        super().__init__(name, tol)
        self.anchor = (f"integral-inequality envelope: L^{q} norm grows at most "
                       f"like exp({rate:g} t)")
        self.rate, self.q, self.norm0, self.t0 = rate, q, norm0, None
        self.slacks = []

    def add(self, t, field, stats):
        norm = stats.norm(self.q)
        if self.t0 is None:
            self.t0 = float(t)
            if self.norm0 is None:
                self.norm0 = norm
        bound = 0.0
        if self.norm0 != 0.0:
            with np.errstate(over="ignore"):
                bound = self.norm0 * float(np.exp(self.rate * (t - self.t0)))
        if bound == 0.0:
            self.slacks.append(0.0 if norm == 0.0 else -np.inf)
        elif bound == np.inf:
            self.slacks.append(1.0)
        else:
            self.slacks.append((bound - norm) / bound)
        self.times.append(t)
        self.cells.append(stats.largest_cell)

    def finish(self) -> BoundCheck:
        return self._check(self.slacks)


def _energy_residual(times, e, d, fw, sigma):
    gaps = np.diff(times)
    int_d = running_trapezoid(d, gaps)
    int_f = running_trapezoid(fw, gaps)
    return e[0] + 2.0 * int_f - e - 2.0 * sigma * int_d


class EnergyFold(_Fold):
    """Energy balance ||p(t)||^2 + 2 sigma int ||grad p||^2 <= ||p0||^2 + 2 int (f, p).

    Damping only ever removes L^2 mass, so the balance holds as an
    inequality for any a >= 0 (and as an identity when a = f = 0).  Each
    time adds the energy, the spectral dissipation (one transform on the
    plan of ``grid``) and the source work.  Time integrals use the
    trapezoid rule on the saved times; with ``tol=None`` the quadrature
    error is calibrated by re-evaluating on every second saved time and
    Richardson-extrapolating the difference.
    """

    anchor = ("L2 energy balance with spectral gradients: damping only removes "
              "energy, sources add at most 2*int (f, p)")

    def __init__(self, grid, sigma: float, tol: float = None, name: str = "energy"):
        super().__init__(name, tol)
        self.plan, self.sigma = HeatPlan(grid, sigma, "xv"), sigma
        self.e, self.d, self.fw = [], [], []

    def add(self, t, field, source, stats):
        """``source`` is the source field f at ``t`` (its work (f, p) is
        taken here), that work as a number, or None for no source."""
        self.e.append(stats.norm(2) ** 2)
        self.d.append(self.plan.gradient_energy(field.values, "phase"))
        if source is None:
            source = 0.0
        elif not isinstance(source, Real):
            source = float(np.sum(source.values * field.values)) * self.plan.grid.cell_volume
        self.fw.append(source)
        self.times.append(t)
        self.cells.append(stats.largest_cell)

    def finish(self) -> BoundCheck:
        times = np.asarray(self.times, dtype=float)
        e, d, fw, sigma = np.array(self.e), np.array(self.d), np.array(self.fw), self.sigma
        res = _energy_residual(times, e, d, fw, sigma)
        scale = float(e.max()) or 1.0
        tol = self.tol
        if tol is None:
            if len(times) >= 5:
                sl = slice(None, None, 2)
                res_thin = _energy_residual(times[sl], e[sl], d[sl], fw[sl], sigma)
                est = float(np.max(np.abs(res[sl] - res_thin))) / scale
                tol = max(1e-10, 2.0 * est)
            else:
                tol = 1e-10
        return self._check(res / scale, tol)


class SpeedBoundFold(_Fold):
    """Interpolation bound j <= R p~ + m/R for every R > 0, cellwise.

    Checked for the listed R (``"optimal"`` uses the cellwise minimiser,
    giving the Cauchy-Schwarz form j <= 2 sqrt(p~ m)).  Slack is the worst
    gap over the R values, normalised by the largest speed moment.
    """

    anchor = ("interpolation bound j <= R*ptilde + m/R for every R > 0 "
              "(Cauchy-Schwarz at the optimal R)")

    def __init__(self, tol: float = 1e-10, R_values=(0.5, 1.0, 2.0, "optimal"),
                 name: str = "speed_bound"):
        super().__init__(name, tol)
        self.R_values, self.worsts, self.scale = R_values, [], -np.inf

    def add(self, ms):
        """``ms`` is the MomentSet of one saved field."""
        pt, j, m = ms.p_tilde.values, ms.j.values, ms.m.values
        self.scale = max(self.scale, float(j.max()))
        worst, cell = np.inf, None
        for R in self.R_values:
            if R == "optimal":
                bound = 2.0 * np.sqrt(np.maximum(pt, 0.0) * np.maximum(m, 0.0))
            else:
                R = float(R)
                if not R > 0.0:
                    raise ParameterError(f"R must be positive, got {R!r}")
                bound = R * pt + m / R
            low, low_cell = _extreme(bound - j, "min")
            if low < worst:
                worst, cell = low, low_cell
        self.times.append(ms.time_tag)
        self.worsts.append(worst)
        self.cells.append(cell)

    def finish(self) -> BoundCheck:
        if not self.times:
            raise ConfigurationError("need at least one moment set")
        scale = self.scale if self.scale > 0.0 else 1.0
        return self._check([w / scale for w in self.worsts])


class CBoundsFold(_Fold):
    """Concentration invariants: 0 <= c <= sup c0 and depletion <= 0.

    The depletion is c - c_inf, with c_inf the plain heat flow of c0 with
    ``diffusivity`` from the first time added, recomputed here from the
    saved fields alone: a driver's own depletion snapshots were clamped to
    <= 0 as it marched, so they cannot show a violation.  All three
    sub-claims share the normalisation sup c0; the reported worst cell
    belongs to the sub-claim with the worst slack.
    """

    anchor = ("concentration comparison: consumption keeps 0 <= c <= sup c0 and "
              "never lifts c above its consumption-free far field")

    def __init__(self, c0, diffusivity: float, tol: float = 1e-12,
                 name: str = "c_bounds"):
        super().__init__(name, tol)
        self.sup_c0 = float(c0.values.max())
        if self.sup_c0 <= 0.0:
            self.sup_c0 = 1.0
        self.c0, self.plan = c0.values, HeatPlan(c0.grid, diffusivity, "x")
        self.t0, self.slacks = None, []

    def add(self, t, field):
        if self.t0 is None:
            self.t0 = float(t)
        c_inf = self.plan.apply(self.c0, t - self.t0, "spatial")
        vals, sup_c0 = field.values, self.sup_c0
        low, low_cell = _extreme(vals, "min")          # (1) c >= 0
        high, high_cell = _extreme(vals, "max")        # (2) c <= sup c0
        dep, dep_cell = _extreme(vals - c_inf, "max")  # (3) depletion <= 0
        options = [
            (low / sup_c0, low_cell),
            ((sup_c0 - high) / sup_c0, high_cell),
            (-dep / sup_c0, dep_cell),
        ]
        s, cell = min(options, key=lambda sc: sc[0])
        self.times.append(t)
        self.slacks.append(s)
        self.cells.append(cell)

    def finish(self) -> BoundCheck:
        return self._check(self.slacks)


# --------------------------------------------------------------------------
# the checks over a whole trajectory: each runs its fold


def check_positivity(traj, tol: float = 1e-12,
                     name: str = "positivity") -> BoundCheck:
    """:class:`PositivityFold` over a trajectory."""
    fold = PositivityFold(tol, name)
    for t, f in zip(traj.times, traj.fields):
        fold.add(t, f, FieldStats(f))
    return fold.finish()


def check_comparison(traj, majorant, tol: float = 1e-10,
                     name: str = "comparison",
                     anchor: str = None) -> BoundCheck:
    """:class:`ComparisonFold` of a trajectory against a majorant.

    ``majorant`` is any iterable of fields (a generator too), read once,
    one per saved time and aligned by each field's own ``time_tag`` (to
    1e-12).
    """
    times, fields = traj.times, traj.fields
    fold = ComparisonFold(tol, name, anchor)
    count = 0
    for k, g in enumerate(majorant):
        if k >= len(fields) or not (abs(times[k] - g.time_tag)
                                    <= 1e-12 + 1e-12 * abs(g.time_tag)):
            raise ConfigurationError("trajectory and majorant saved times differ")
        fold.add(times[k], fields[k], g.values, FieldStats(fields[k]))
        count = k + 1
    if count != len(fields):
        raise ConfigurationError("trajectory and majorant saved times differ")
    return fold.finish()


def check_gronwall(traj, rate: float, q, tol: float = 1e-8,
                   norm0: float = None, name: str = "gronwall") -> BoundCheck:
    """:class:`GronwallFold` over a trajectory (``norm0`` defaults to the
    norm of its first field)."""
    fold = GronwallFold(rate, q, tol, norm0, name)
    for t, f in zip(traj.times, traj.fields):
        fold.add(t, f, FieldStats(f))
    return fold.finish()


_MISSING = object()


def check_energy(traj, sources, sigma: float, tol: float = None,
                 name: str = "energy") -> BoundCheck:
    """:class:`EnergyFold` over a trajectory.

    ``sources`` (None: no source) is any iterable, read once, with one
    sample per saved time: either the source field f at that time, whose
    work (f, p) is taken against the saved p, or that work itself as a
    number (for a caller that can take it without building f).
    """
    fold = EnergyFold(traj.grid, sigma, tol, name)
    samples = None if sources is None else iter(sources)
    for t, f in zip(traj.times, traj.fields):
        src = None
        if samples is not None:
            src = next(samples, _MISSING)
            if src is _MISSING:
                raise ConfigurationError("need one source sample per saved time")
        fold.add(t, f, src, FieldStats(f))
    if samples is not None and next(samples, _MISSING) is not _MISSING:
        raise ConfigurationError("need one source sample per saved time")
    return fold.finish()


def check_speed_bound(moment_sets, tol: float = 1e-10,
                      R_values=(0.5, 1.0, 2.0, "optimal"),
                      name: str = "speed_bound") -> BoundCheck:
    """:class:`SpeedBoundFold` over MomentSets, one per saved time."""
    fold = SpeedBoundFold(tol, R_values, name)
    for ms in moment_sets:
        fold.add(ms)
    return fold.finish()


def check_c_bounds(c_traj, c0, diffusivity: float, tol: float = 1e-12,
                   name: str = "c_bounds") -> BoundCheck:
    """:class:`CBoundsFold` over a concentration trajectory."""
    fold = CBoundsFold(c0, diffusivity, tol, name)
    for t, f in zip(c_traj.times, c_traj.fields):
        fold.add(t, f)
    return fold.finish()


def write_report(checks, path) -> dict:
    """Serialise checks to a deterministic JSON report; returns the payload."""
    payload = {
        "checks": [c.to_dict() for c in checks],
        "all_passed": bool(all(c.passed for c in checks)),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
