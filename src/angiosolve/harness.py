"""Inequality checks on solver trajectories, with located worst offenders.

Every check walks a trajectory, evaluates one mathematical claim per saved
time, and reports a :class:`BoundCheck`: the normalised slack per time (>= 0
means the claim holds with room), the worst slack, the time and lattice cell
where it occurs, and a pass/fail verdict against the check's tolerance.
Slacks are normalised by a problem-scale quantity (stated per check) so the
tolerances are dimensionless and comparable across scenarios.

The checks never repair anything; they only measure.  Feeding them corrupted
data is the intended way to verify they would catch a regression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import ConfigurationError, ParameterError
from .grid import lq_norm
from .heat import HeatPlan


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
    """``cells`` lists the cell at each time, or maps the worst time's
    index to its cell when a check locates it there only."""
    slacks = np.asarray(slacks, dtype=float)
    k = int(np.argmin(slacks))
    worst = float(slacks[k])
    return BoundCheck(
        name=name, anchor=anchor, tolerance=float(tol),
        times=np.asarray(times, dtype=float), slacks=slacks,
        worst_slack=worst, worst_time=float(times[k]),
        worst_cell=cells(k) if callable(cells) else cells[k],
        passed=bool(worst >= -tol),
    )


def _extreme(arr, which):
    """(value, cell) of the first minimal (``"min"``) or maximal entry."""
    k = int(arr.argmin() if which == "min" else arr.argmax())
    return float(arr.flat[k]), tuple(int(i) for i in np.unravel_index(k, arr.shape))


def _largest_cell(fields):
    """Map a time index to the cell of largest magnitude of its field."""
    return lambda k: _extreme(np.abs(fields[k].values), "max")[1]


def check_positivity(traj, tol: float = 1e-12,
                     name: str = "positivity") -> BoundCheck:
    """Nonnegative data must stay nonnegative.

    Slack at each time is min(field)/max|field| (global max over the run);
    the worst cell is the most negative one.
    """
    scale = max(max(float(f.values.max()), -float(f.values.min()))
                for f in traj.fields) or 1.0
    slacks, cells = [], []
    for f in traj.fields:
        low, cell = _extreme(f.values, "min")
        slacks.append(low / scale)
        cells.append(cell)
    return _finish(
        name,
        "nonnegative initial data propagate to nonnegative solutions",
        tol, traj.times, slacks, cells,
    )


def check_comparison(traj, majorant, tol: float = 1e-10,
                     name: str = "comparison",
                     anchor: str = None) -> BoundCheck:
    """Cellwise domination solution <= majorant at every saved time.

    ``majorant`` is any iterable of fields (a generator too), read once,
    one per saved time and aligned by each field's own ``time_tag`` (to
    1e-12).  Slack is min(majorant - solution) normalised by the majorant's
    largest sup norm.  Ordered data give ordered flows, so a
    frozen-coefficient or production-envelope majorant must stay above
    every iterate.
    """
    times, fields = traj.times, traj.fields
    scale, lows, cells = 0.0, [], []
    for k, g in enumerate(majorant):
        if k >= len(fields) or not (abs(times[k] - g.time_tag)
                                    <= 1e-12 + 1e-12 * abs(g.time_tag)):
            raise ConfigurationError("trajectory and majorant saved times differ")
        scale = max(scale, float(np.abs(g.values).max()))
        low, cell = _extreme(g.values - fields[k].values, "min")
        lows.append(low)
        cells.append(cell)
    if len(lows) != len(fields):
        raise ConfigurationError("trajectory and majorant saved times differ")
    if scale == 0.0:
        scale = max(float(np.abs(f.values).max()) for f in fields) or 1.0
    return _finish(
        name,
        anchor or "monotone comparison: the flow with the larger data and "
                  "weaker damping dominates cellwise",
        tol, times, np.asarray(lows) / scale, cells,
    )


def check_gronwall(traj, rate: float, q, tol: float = 1e-8,
                   norm0: float = None, name: str = "gronwall") -> BoundCheck:
    """Exponential norm envelope ||f(t)||_q <= ||f(0)||_q * exp(rate * t).

    Slack is (bound - norm)/bound per time.  The worst cell is the cell of
    largest magnitude at the worst time (the one carrying the norm).
    """
    t0 = float(traj.times[0])
    if norm0 is None:
        norm0 = lq_norm(traj.fields[0], q)
    slacks = []
    for t, f in zip(traj.times, traj.fields):
        bound = norm0 * float(np.exp(rate * (t - t0)))
        norm = lq_norm(f, q)
        if bound == 0.0:
            slacks.append(0.0 if norm == 0.0 else -np.inf)
        else:
            slacks.append((bound - norm) / bound)
    return _finish(
        name,
        f"integral-inequality envelope: L^{q} norm grows at most like "
        f"exp({rate:g} t)",
        tol, traj.times, slacks, _largest_cell(traj.fields),
    )


def _energy_terms(traj, sources, sigma):
    """Energy, dissipation and source work per saved time.

    Each source sample is a phase field f, whose work (f, p) is taken here,
    or that work itself as a number.
    """
    e = np.array([lq_norm(f, 2) ** 2 for f in traj.fields])
    plan = HeatPlan(traj.grid, sigma, "xv")
    d = np.array([plan.gradient_energy(f.values, "phase") for f in traj.fields])
    fw = np.zeros(len(traj))
    if sources is not None:
        vol, n = traj.grid.cell_volume, 0
        for n, src in enumerate(sources, 1):
            if n > len(traj):
                break
            fw[n - 1] = src if isinstance(src, Real) else \
                float(np.sum(src.values * traj.fields[n - 1].values)) * vol
        if n != len(traj):
            raise ConfigurationError("need one source sample per saved time")
    return e, d, fw


def _energy_residual(times, e, d, fw, sigma):
    int_d = cumulative_trapezoid(d, x=times, initial=0.0)
    int_f = cumulative_trapezoid(fw, x=times, initial=0.0)
    return e[0] + 2.0 * int_f - e - 2.0 * sigma * int_d


def check_energy(traj, sources, sigma: float, tol: float = None,
                 name: str = "energy") -> BoundCheck:
    """Energy balance ||p(t)||^2 + 2 sigma int ||grad p||^2 <= ||p0||^2 + 2 int (f, p).

    Damping only ever removes L^2 mass, so the balance holds as an
    inequality for any a >= 0 (and as an identity when a = f = 0).
    ``sources`` (None: no source) is any iterable, read once, with one
    sample per saved time: either the source field f at that time, whose
    work (f, p) is taken against the saved p, or that work itself as a
    number (for a caller that can take it without building f).  Time
    integrals use the trapezoid rule on the saved times; with ``tol=None``
    the quadrature error is calibrated by re-evaluating on every second
    saved time and Richardson-extrapolating the difference.
    """
    e, d, fw = _energy_terms(traj, sources, sigma)
    times = traj.times
    res = _energy_residual(times, e, d, fw, sigma)
    scale = float(e.max()) or 1.0
    if tol is None:
        if len(times) >= 5:
            sl = slice(None, None, 2)
            res_thin = _energy_residual(times[sl], e[sl], d[sl], fw[sl], sigma)
            est = float(np.max(np.abs(res[sl] - res_thin))) / scale
            tol = max(1e-10, 2.0 * est)
        else:
            tol = 1e-10
    return _finish(
        name,
        "L2 energy balance with spectral gradients: damping only removes "
        "energy, sources add at most 2*int (f, p)",
        tol, times, res / scale, _largest_cell(traj.fields),
    )


def check_speed_bound(moment_sets, tol: float = 1e-10,
                      R_values=(0.5, 1.0, 2.0, "optimal"),
                      name: str = "speed_bound") -> BoundCheck:
    """Interpolation bound j <= R p~ + m/R for every R > 0, cellwise.

    Checked for the listed R (``"optimal"`` uses the cellwise minimiser,
    giving the Cauchy-Schwarz form j <= 2 sqrt(p~ m)).  Slack is the worst
    gap over the R values, normalised by the largest speed moment.
    """
    sets = list(moment_sets)
    if not sets:
        raise ConfigurationError("need at least one moment set")
    scale = max(float(ms.j.values.max()) for ms in sets)
    if scale <= 0.0:
        scale = 1.0
    times, slacks, cells = [], [], []
    for ms in sets:
        pt, j, m = ms.p_tilde.values, ms.j.values, ms.m.values
        worst, cell = np.inf, None
        for R in R_values:
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
        times.append(ms.time_tag)
        slacks.append(worst / scale)
        cells.append(cell)
    return _finish(
        name,
        "interpolation bound j <= R*ptilde + m/R for every R > 0 "
        "(Cauchy-Schwarz at the optimal R)",
        tol, times, slacks, cells,
    )


def check_c_bounds(c_traj, c0, diffusivity: float, tol: float = 1e-12,
                   name: str = "c_bounds") -> BoundCheck:
    """Concentration invariants: 0 <= c <= sup c0 and depletion <= 0.

    The depletion is c - c_inf, with c_inf the plain heat flow of c0 with
    ``diffusivity``, recomputed here from the saved fields alone: a
    driver's own depletion snapshots were clamped to <= 0 as it marched,
    so they cannot show a violation.  All three sub-claims share the
    normalisation sup c0; the reported worst cell belongs to the sub-claim
    with the worst slack.
    """
    sup_c0 = float(c0.values.max())
    if sup_c0 <= 0.0:
        sup_c0 = 1.0
    t0 = float(c_traj.times[0])
    far_field = HeatPlan(c0.grid, diffusivity, "x").apply_each(
        c0.values, [t - t0 for t in c_traj.times], "spatial")
    slacks, cells = [], []
    for f, c_inf in zip(c_traj.fields, far_field):
        vals = f.values
        low, low_cell = _extreme(vals, "min")          # (1) c >= 0
        high, high_cell = _extreme(vals, "max")        # (2) c <= sup c0
        dep, dep_cell = _extreme(vals - c_inf, "max")  # (3) depletion <= 0
        options = [
            (low / sup_c0, low_cell),
            ((sup_c0 - high) / sup_c0, high_cell),
            (-dep / sup_c0, dep_cell),
        ]
        s, cell = min(options, key=lambda sc: sc[0])
        slacks.append(s)
        cells.append(cell)
    return _finish(
        name,
        "concentration comparison: consumption keeps 0 <= c <= sup c0 and "
        "never lifts c above its consumption-free far field",
        tol, c_traj.times, slacks, cells,
    )


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
