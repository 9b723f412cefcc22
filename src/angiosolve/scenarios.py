"""Scenario configuration: INI files -> built runs -> checked outputs.

A scenario file holds everything needed to reproduce a run: lattice,
model constants, schedule, fixed-point options, initial-data recipes, and
the list of invariant checks to evaluate on the result.  The format is
plain INI (configparser), overridable from the command line with
``section.key=value`` strings.

Initial-data recipes (section ``initial_p`` / ``initial_c``):

* ``gaussian_bump`` -- separable Gaussian with per-block centres and
  variances, normalised to a prescribed total mass,
* ``plateau_ramp``  -- smooth tanh-edged plateau of height ``k_inf`` (a
  confined distant source region for the attractant),
* ``zero``          -- identically zero.
"""

from __future__ import annotations

import configparser
import io
import math
import os
import re
from contextlib import closing
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigurationError, ParameterError, ResolutionError
from .grid import GridSpec, PhaseField, SpatialField, factor_xv, lq_norm
from .harness import (CBoundsFold, ComparisonFold, EnergyFold, FieldStats,
                      GronwallFold, PositivityFold, SpeedBoundFold, write_report)
from .heat import HeatPlan
from .moments import MomentSet, moments_of, second_moment, velocity_marginal
from .picard import (DriveStream, ModelParams, _alpha_raw, collect,
                     production_growth, summarise_iterates, validate_options,
                     velocity_profile)
from .snapshots import moment_row, save_field, write_moment_table
from .stepping import Schedule


@dataclass(frozen=True)
class Scenario:
    """One fully specified run: lattice, constants, schedule, data, checks."""

    name: str
    driver: str
    grid: GridSpec
    params: ModelParams
    schedule: Schedule
    p_recipe: dict
    c_recipe: dict
    picard: dict
    checks: tuple


# --------------------------------------------------------------------------
# recipes


def _per_axis(value, dim, what):
    if isinstance(value, str):
        value = _floats_list(value)
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.repeat(arr, dim)
    if arr.size != dim:
        raise ConfigurationError(f"{what} needs 1 or {dim} values, got {arr.size}")
    return arr


def _periodized(profile, coords, half_width):
    """Sample ``profile`` plus its two nearest periodic images.

    Recipes are written for the real line; folding the wrap images in makes
    the sampled function genuinely smooth across the box seam, so the
    spectral semigroup sees no jump (a bare tail of, say, 1e-6 at one edge
    meeting 0 at the other would ring at that same 1e-6 scale).
    """
    period = 2.0 * half_width
    return profile(coords) + profile(coords - period) + profile(coords + period)


def _gauss_1d(coords, centre, variance, half_width, spacing):
    if not variance > 0.0:
        raise ConfigurationError(f"variance must be positive, got {variance!r}")
    # Spectral evolution needs the bump's spectrum to die before Nyquist,
    # else the semigroup rings it negative at well above round-off.
    if math.sqrt(variance) < 2.5 * spacing:
        raise ResolutionError(
            f"gaussian_bump is unresolved: sqrt(variance) = "
            f"{math.sqrt(variance):.4g} < 2.5 h = {2.5 * spacing:.4g}; "
            "widen the bump or refine the lattice"
        )

    def profile(x):
        return np.exp(-(x - centre) ** 2 / (2.0 * variance)) \
            / math.sqrt(2.0 * math.pi * variance)

    return _periodized(profile, coords, half_width)


def _gauss_factors(coords, centres, variance, half_width, spacing) -> list:
    """One Gaussian factor per axis of a block, centred at ``centres[i]``."""
    return [_gauss_1d(coords, c, variance, half_width, spacing) for c in centres]


def _fold_outer(factors):
    """Separable product of 1-D factors, folded left to right."""
    vals = factors[0]
    for fac in factors[1:]:
        vals = np.multiply.outer(vals, fac)
    return vals


def _mass(recipe) -> float:
    mass = float(recipe.get("mass", 1.0))
    if mass < 0.0:
        raise ConfigurationError(f"mass must be >= 0, got {mass!r}")
    return mass


def build_initial_p(grid: GridSpec, recipe: dict) -> PhaseField:
    """Phase-density recipe lookup; see module docstring."""
    kind = recipe.get("recipe", "zero")
    if kind == "zero":
        return PhaseField(grid, np.zeros(grid.phase_shape), nonnegative=True)
    if kind != "gaussian_bump":
        raise ConfigurationError(f"unknown density recipe {kind!r}")
    cx = _per_axis(recipe.get("center_x", 0.0), grid.dim_x, "center_x")
    cv = _per_axis(recipe.get("center_v", 0.0), grid.dim_v, "center_v")
    var_x = float(recipe.get("variance_x", 0.25))
    var_v = float(recipe.get("variance_v", 0.25))
    mass = _mass(recipe)
    factors = (
        _gauss_factors(grid.x_coords(), cx, var_x, grid.half_width_x, grid.h_x)
        + _gauss_factors(grid.v_coords(), cv, var_v, grid.half_width_v, grid.h_v)
    )
    return PhaseField(grid, _fold_outer(factors) * mass, nonnegative=True)


def build_initial_c(grid: GridSpec, recipe: dict) -> SpatialField:
    """Concentration recipe lookup; see module docstring."""
    kind = recipe.get("recipe", "zero")
    if kind == "zero":
        return SpatialField(grid, np.zeros(grid.spatial_shape), role="c")
    if kind == "gaussian_bump":
        cx = _per_axis(recipe.get("center_x", 0.0), grid.dim_x, "center_x")
        var_x = float(recipe.get("variance_x", 0.25))
        mass = _mass(recipe)
        factors = _gauss_factors(grid.x_coords(), cx, var_x,
                                 grid.half_width_x, grid.h_x)
        return SpatialField(grid, mass * _fold_outer(factors), role="c")
    if kind != "plateau_ramp":
        raise ConfigurationError(f"unknown concentration recipe {kind!r}")
    k_inf = float(recipe.get("k_inf", 1.0))
    if k_inf < 0.0:
        raise ConfigurationError(f"k_inf must be >= 0, got {k_inf!r}")
    lo = float(recipe.get("edge_lo", -0.5 * grid.half_width_x))
    hi = float(recipe.get("edge_hi", 0.5 * grid.half_width_x))
    width = float(recipe.get("width", 0.05 * grid.half_width_x))
    if not width > 0.0 or not hi > lo:
        raise ConfigurationError(
            f"plateau needs edge_hi > edge_lo and width > 0, got "
            f"({lo!r}, {hi!r}, {width!r})"
        )
    if width < 6.0 * grid.h_x:
        raise ResolutionError(
            f"plateau_ramp is unresolved: width = {width:.4g} < 6 h_x = "
            f"{6.0 * grid.h_x:.4g}; widen the ramp or refine the lattice"
        )
    def profile(x):
        return 0.25 * (1.0 + np.tanh((x - lo) / width)) \
            * (1.0 + np.tanh((hi - x) / width))

    ramp = _periodized(profile, grid.x_coords(), grid.half_width_x)
    return SpatialField(grid, k_inf * _fold_outer([ramp] * grid.dim_x), role="c")


def boundary_mass_fraction(p0: PhaseField, cells: int = 3) -> float:
    """Fraction of |p0|'s mass within ``cells`` lattice cells of any box edge.

    The periodic box stands in for free space, so initial data reaching the
    boundary wraps around instead of escaping; anything above ~1e-8 here
    deserves a warning.
    """
    total = float(np.abs(p0.values).sum())
    if total == 0.0:
        return 0.0
    mask = np.zeros(p0.values.shape, dtype=bool)
    for ax, n in enumerate(p0.values.shape):
        idx = [slice(None)] * p0.values.ndim
        idx[ax] = slice(0, cells)
        mask[tuple(idx)] = True
        idx[ax] = slice(n - cells, n)
        mask[tuple(idx)] = True
    return float(np.abs(p0.values)[mask].sum()) / total


# --------------------------------------------------------------------------
# config parsing


_GRID_KEYS = {"dim_x", "dim_v", "n_x", "n_v", "half_width_x", "half_width_v"}
_PARAM_KEYS = {"sigma", "d", "gamma", "eta", "alpha1", "c_R", "epsilon", "v0"}
_SCHEDULE_KEYS = {"t_end", "dt", "save_stride"}
_PICARD_KEYS = {"k_max", "tol", "init"}
_SCENARIO_KEYS = {"name", "driver"}
_CHECKS_KEYS = {"names"}
_SECTIONS = {"scenario", "grid", "params", "schedule", "picard", "initial_p",
             "initial_c", "checks"}
# [initial_p] / [initial_c]: recipe -> the keys its builder reads
_P_RECIPE_KEYS = {
    "zero": {"recipe"},
    "gaussian_bump": {"recipe", "center_x", "center_v", "variance_x", "variance_v",
                      "mass"},
}
_C_RECIPE_KEYS = {
    "zero": {"recipe"},
    "gaussian_bump": {"recipe", "center_x", "variance_x", "mass"},
    "plateau_ramp": {"recipe", "k_inf", "edge_lo", "edge_hi", "width"},
}


def _section(parser, name, required=True):
    if not parser.has_section(name):
        if required:
            raise ConfigurationError(f"config is missing the [{name}] section")
        return {}
    return dict(parser.items(name))


def _known_keys(section: dict, allowed: set, where: str, recipe: str = None):
    unknown = set(section) - allowed
    if unknown:
        read_by = f" for recipe {recipe!r}" if recipe else ""
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in [{where}]{read_by} "
            f"(allowed: {sorted(allowed)})"
        )


def _floats_list(text: str):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def load_scenario(source, overrides=()) -> Scenario:
    """Parse a scenario from a config path (or file-like / literal text).

    ``overrides`` is an iterable of ``section.key=value`` strings applied on
    top of the file before anything is built.  Any malformed value, unknown
    section or key, or inconsistent combination raises
    :class:`ConfigurationError`.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    try:
        if hasattr(source, "read"):
            parser.read_file(source)
        else:
            try:
                with open(source, "r") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigurationError(f"cannot read scenario file {source!r}: {exc}")
            parser.read_file(io.StringIO(text), source=str(source))
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed scenario file: {exc}") from exc

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigurationError(
                f"override {item!r} must look like section.key=value"
            )
        target, value = item.split("=", 1)
        sect, key = (part.strip() for part in target.split(".", 1))
        try:
            if not parser.has_section(sect):
                parser.add_section(sect)
            parser.set(sect, key, value.strip())
        except (configparser.Error, ValueError) as exc:
            raise ConfigurationError(f"override {item!r} refused: {exc}") from exc
    # a misspelt section would otherwise be read by nothing and silently dropped
    unknown = set(parser.sections()) - _SECTIONS
    if unknown:
        raise ConfigurationError(
            f"unknown section(s) {sorted(unknown)} (allowed: {sorted(_SECTIONS)})"
        )

    try:
        meta = _section(parser, "scenario")
        _known_keys(meta, _SCENARIO_KEYS, "scenario")
        name = meta.get("name", "unnamed")
        # run --out writes under <root>/<name>: the name must stay one entry
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ConfigurationError(
                f"scenario name {name!r} must be one path component, "
                "not empty, '.' or '..'")
        driver = meta.get("driver", "pure")
        if driver not in ("pure", "coupled"):
            raise ConfigurationError(f"driver must be 'pure' or 'coupled', got {driver!r}")

        g = _section(parser, "grid")
        _known_keys(g, _GRID_KEYS, "grid")
        grid = GridSpec(
            dim_x=int(g.get("dim_x", 1)), dim_v=int(g.get("dim_v", 1)),
            n_x=int(g["n_x"]), n_v=int(g["n_v"]),
            half_width_x=float(g["half_width_x"]),
            half_width_v=float(g["half_width_v"]),
        )

        p = _section(parser, "params")
        _known_keys(p, _PARAM_KEYS, "params")
        params = ModelParams(
            sigma=float(p["sigma"]), d=float(p.get("d", p["sigma"])),
            gamma=float(p["gamma"]), eta=float(p.get("eta", 1.0)),
            alpha1=float(p.get("alpha1", 0.0)), c_R=float(p.get("c_R", 1.0)),
            epsilon=float(p.get("epsilon", 0.25)),
            v0=_floats_list(p.get("v0", "0")),
        )

        s = _section(parser, "schedule")
        _known_keys(s, _SCHEDULE_KEYS, "schedule")
        schedule = Schedule(t_end=float(s["t_end"]), dt=float(s["dt"]),
                            save_stride=int(s.get("save_stride", 1)))
        if driver == "coupled":
            # the drive's velocity profile must sample on the lattice and its
            # a-priori bound stay a float, or every run would refuse it
            try:
                rho = velocity_profile(grid, params)
                production_growth(params.alpha1 * rho.sup_norm, schedule.t_end)
            except (ParameterError, ResolutionError) as exc:
                raise ConfigurationError(f"[params] {exc}") from exc

        pk = _section(parser, "picard", required=False)
        _known_keys(pk, _PICARD_KEYS, "picard")
        picard = {
            "k_max": int(pk.get("k_max", 20)),
            "tol": float(pk.get("tol", 1e-8)),
            "init": pk.get("init", "heat" if driver == "pure" else "zero"),
        }
        try:
            validate_options(**picard)
        except ParameterError as exc:
            raise ConfigurationError(f"[picard] {exc}") from exc

        p_recipe = _section(parser, "initial_p")
        c_recipe = _section(parser, "initial_c", required=(driver == "coupled"))
        # a key the recipe does not read would silently take its default;
        # an unknown recipe is refused when the data are built
        for section, keys, where in ((p_recipe, _P_RECIPE_KEYS, "initial_p"),
                                     (c_recipe, _C_RECIPE_KEYS, "initial_c")):
            kind = section.get("recipe", "zero")
            if kind in keys:
                _known_keys(section, keys[kind], where, recipe=kind)

        ck = _section(parser, "checks", required=False)
        _known_keys(ck, _CHECKS_KEYS, "checks")
        names = tuple(
            tok.strip() for tok in ck.get("names", "").replace(",", " ").split()
        ) or tuple(n for n, (_, coupled_only, _) in CHECKS.items()
                   if driver == "coupled" or not coupled_only)
        for n in names:
            if n not in CHECKS:
                raise ConfigurationError(
                    f"unknown check {n!r} (available: {', '.join(CHECKS)})"
                )
            if CHECKS[n][1] and driver != "coupled":
                raise ConfigurationError(f"check {n!r} needs the coupled driver")
    except KeyError as exc:
        raise ConfigurationError(f"scenario file is missing required key {exc}") from exc
    except (configparser.Error, ValueError) as exc:
        raise ConfigurationError(f"bad value in scenario file: {exc}") from exc

    return Scenario(name=name, driver=driver, grid=grid, params=params,
                    schedule=schedule, p_recipe=p_recipe, c_recipe=c_recipe,
                    picard=picard, checks=names)


def shipped_scenarios() -> dict:
    """Name -> text of every scenario config shipped with the package."""
    out = {}
    root = resources.files(__package__) / "scenarios"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".cfg"):
            out[entry.name[:-4]] = entry.read_text()
    return out


def load_shipped_scenario(name: str, overrides=()) -> Scenario:
    texts = shipped_scenarios()
    if name not in texts:
        raise ConfigurationError(
            f"no shipped scenario {name!r} (available: {', '.join(sorted(texts))})"
        )
    return load_scenario(io.StringIO(texts[name]), overrides=overrides)


# --------------------------------------------------------------------------
# realisation and the full checked run


@dataclass(frozen=True)
class RealisedScenario:
    """A scenario's concrete initial fields, ready to drive.

    ``c0`` is None for the pure driver.  :meth:`stream` starts the
    scenario's fixed point with its configured options (``tol`` and
    ``init`` can be overridden) as a :class:`~angiosolve.picard.DriveStream`;
    :meth:`drive` collects that stream into ``(p_trajectory, c_trajectory
    or None, diagnostics)``.
    """

    scenario: Scenario
    p0: PhaseField
    c0: SpatialField

    @property
    def grid(self) -> GridSpec:
        return self.scenario.grid

    def stream(self, tol=None, init=None) -> DriveStream:
        sc, opts = self.scenario, self.scenario.picard
        return DriveStream(self.p0, self.c0, sc.params, sc.schedule, k_max=opts["k_max"],
                           tol=tol if tol is not None else opts["tol"],
                           init=init or opts["init"])

    def drive(self, tol=None, init=None):
        return collect(self.stream(tol, init))


def realise(scenario: Scenario) -> RealisedScenario:
    """Build the concrete initial fields for a scenario."""
    grid = scenario.grid
    p0 = build_initial_p(grid, scenario.p_recipe)
    c0 = build_initial_c(grid, scenario.c_recipe) if scenario.driver == "coupled" else None
    return RealisedScenario(scenario, p0, c0)


@dataclass(frozen=True)
class _Run:
    """What the check folds of one run know before its first saved field
    (``c0`` and ``rho`` None if pure)."""

    scenario: Scenario
    p0: PhaseField
    c0: SpatialField
    rho: SpatialField
    rate: float  # production ceiling alpha1 * sup rho


@dataclass(frozen=True)
class _Saved:
    """One saved time as the check folds read it: the density and its
    shared reductions, its moments, and the concentration (None if pure)."""

    t: float
    p: PhaseField
    stats: FieldStats
    moments: MomentSet
    c: SpatialField


# Each catalogue evaluator takes the _Run and returns (folds, feed): the
# harness folds whose finish() gives its checks, and feed(saved), which adds
# one saved time to each of them.


def _fold_positivity(run):
    fold = PositivityFold()
    return [fold], lambda s: fold.add(s.t, s.p, s.stats)


def _majorant(run):
    """tau -> exp(rate*tau) * heat(p0, tau) as a raw array.

    The phase heat flow is the product of the x and the v flows, so for a
    product p0 = g (x) h (:func:`~angiosolve.grid.factor_xv`) it is the outer
    product of the position- and velocity-lattice flows of g and h; any
    other p0 takes phase-lattice flows.  Each tau > 0 gets a new array,
    which the caller may overwrite; tau = 0 may give p0's own values.
    """
    p0, sigma, rate = run.p0, run.scenario.params.sigma, run.rate
    factors = factor_xv(p0)
    if factors is None:
        plan = HeatPlan(p0.grid, sigma, "xv")

        def flow(tau):
            flowed = plan.apply(p0.values, tau, "phase")
            return math.exp(rate * tau) * flowed if rate else flowed

        return flow
    g, h = factors
    plan_x, plan_v = HeatPlan(p0.grid, sigma, "x"), HeatPlan(p0.grid, sigma, "v")

    def at(tau):
        if tau == 0.0:
            return p0.values
        return np.multiply.outer(math.exp(rate * tau) * plan_x.apply(g, tau, "spatial"),
                                 plan_v.apply(h, tau, "velocity"))

    return at


def _fold_comparison(run):
    """p against exp(rate*t) * heat(p0, t), the exact semigroup majorant,
    with t counted from the first saved time."""
    fold = ComparisonFold(anchor=(
        "production-envelope comparison: p stays below "
        "exp(alpha1*sup_rho*t) times the heat flow of p0"
        if run.rho is not None else
        "damping only removes density: p stays below the plain heat "
        "flow of p0"
    ))
    majorant, t0 = _majorant(run), None

    def feed(s):
        nonlocal t0
        if t0 is None:
            t0 = float(s.t)
        tau = float(s.t - t0)
        fold.add(s.t, s.p, majorant(tau), s.stats, scratch=tau > 0.0)

    return [fold], feed


def _fold_gronwall(run):
    """Envelopes of p, p~ and m; the m one needs ||p~0||_q <= ||m0||_q."""
    pt0, m0 = velocity_marginal(run.p0), second_moment(run.p0)
    norms = ((1, "q1"), (2, "q2"), (np.inf, "qinf"))
    if any(lq_norm(pt0, q) > lq_norm(m0, q) * (1.0 + 1e-12) for q, _ in norms):
        raise ConfigurationError(
            "the second-moment envelope check needs initial data with "
            "mean square speed >= 1 (||p~0||_q <= ||m0||_q); shift the "
            "velocity centre or widen the velocity profile"
        )
    m_rate = run.rate + 2.0 * run.scenario.params.sigma * run.scenario.grid.dim_v
    folds = []
    for q, tag in norms:
        folds += [GronwallFold(run.rate, q, name=f"gronwall_p_{tag}"),
                  GronwallFold(run.rate, q, name=f"gronwall_pt_{tag}"),
                  GronwallFold(m_rate, q, norm0=lq_norm(m0, q),
                               name=f"gronwall_m_{tag}")]

    def feed(s):
        pt, m = s.moments.p_tilde, s.moments.m
        reads = ((s.p, s.stats), (pt, FieldStats(pt)), (m, FieldStats(m)))
        for fold, (field, stats) in zip(folds, reads * len(norms)):
            fold.add(s.t, field, stats)

    return folds, feed


def _fold_energy(run):
    """Energy balance; a coupled run's source is f = alpha(c) rho(v) p, whose
    work (f, p) = vol * sum_x alpha(c) sum_v rho p^2 is taken on the position
    lattice, with no phase-size f built."""
    params, grid = run.scenario.params, run.scenario.grid
    fold = EnergyFold(grid, params.sigma)
    rho = None if run.rho is None else run.rho.values.reshape(-1)

    def feed(s):
        work = None
        if rho is not None:
            work = grid.cell_volume * float(
                _alpha_raw(s.c.values, params.alpha1, params.c_R,
                           "energy source").reshape(-1)
                @ (np.square(s.p.values).reshape(-1, rho.size) @ rho))
        fold.add(s.t, s.p, work, s.stats)

    return [fold], feed


def _fold_speed_bound(run):
    fold = SpeedBoundFold()
    return [fold], lambda s: fold.add(s.moments)


def _fold_c_bounds(run):
    fold = CBoundsFold(run.c0, diffusivity=run.scenario.params.d)
    return [fold], lambda s: fold.add(s.t, s.c)


# name -> (one-line doc, coupled driver only, evaluator); naming none runs all it can
CHECKS = {
    "positivity": ("density stays nonnegative at every saved time", False,
                   _fold_positivity),
    "comparison": ("density stays below its production-envelope heat flow", False,
                   _fold_comparison),
    "gronwall": ("L^q norms of density and second moment respect their "
                 "exponential envelopes (q = 1, 2, inf)", False, _fold_gronwall),
    "energy": ("squared L^2 norm plus accumulated dissipation stays below "
               "the initial energy plus source work", False, _fold_energy),
    "speed_bound": ("speed moment obeys j <= R p~ + m / R for each weight R", False,
                    _fold_speed_bound),
    "c_bounds": ("concentration stays within [0, sup c0] and the depletion "
                 "term stays nonpositive (coupled runs only)", True, _fold_c_bounds),
}


class _Checks:
    """The scenario's configured checks as folds over one run's saved times.

    Built before the run's first field, so a check that refuses the
    initial data does so before anything is driven.  ``add`` hands one
    saved time to every fold (moments: its MomentSet, taken once for all
    of them); ``finish`` returns the BoundChecks in catalogue order.
    """

    def __init__(self, scenario: Scenario, p0, c0=None):
        coupled = scenario.driver == "coupled"
        rho = velocity_profile(scenario.grid, scenario.params) if coupled else None
        rate = scenario.params.alpha1 * rho.sup_norm if coupled else 0.0
        run = _Run(scenario, p0, c0, rho, rate)
        self._folds = [CHECKS[name][2](run) for name in scenario.checks]

    def add(self, t, p_field, c_field, moments):
        saved = _Saved(t, p_field, FieldStats(p_field), moments, c_field)
        for _, feed in self._folds:
            feed(saved)

    def finish(self) -> list:
        return [fold.finish() for folds, _ in self._folds for fold in folds]


def build_checks(scenario: Scenario, p0, p_traj, c_traj=None, c0=None) -> list:
    """Evaluate the scenario's configured checks on a finished run: its
    saved fields go through the folds a streamed run feeds, in order."""
    checks = _Checks(scenario, p0, c0)
    for k, (t, p_field) in enumerate(zip(p_traj.times, p_traj.fields)):
        checks.add(t, p_field, None if c_traj is None else c_traj.fields[k],
                   moments_of(p_field))
    return checks.finish()


# --------------------------------------------------------------------------
# orchestration

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CHECK_FAILED = 4
EXIT_INVARIANT = 5


def format_summary(scenario: Scenario, payload: dict) -> str:
    lines = [
        f"scenario {scenario.name} ({scenario.driver} driver)",
        f"lattice: {scenario.grid.dim_x}x + {scenario.grid.dim_v}v, "
        f"{scenario.grid.n_x}^{scenario.grid.dim_x} x {scenario.grid.n_v}^{scenario.grid.dim_v}, "
        f"half-widths ({scenario.grid.half_width_x:g}, {scenario.grid.half_width_v:g})",
        f"schedule: t_end={scenario.schedule.t_end:g} dt={scenario.schedule.dt:g} "
        f"({scenario.schedule.n_steps} steps)",
        f"converged: {payload['converged']} after {payload['iterations']} iterations "
        f"over {summarise_iterates(payload['k_per_slab'])}",
        f"deltas strictly decreasing: {payload['monotone_deltas']}",
    ]
    for w in payload["warnings"]:
        lines.append(f"warning: {w}")
    for c in payload["checks"]:
        lines.append(
            f"check {c['name']}: {c['verdict']} "
            f"(worst slack {c['worst_slack']:.3e} at t={c['worst_time']:.6g}, "
            f"cell {tuple(c['worst_cell'])})"
        )
    lines.append(f"exit code: {payload['exit_code']}")
    return "\n".join(lines) + "\n"


def _drive_ahead(stream: DriveStream):
    """Iterate ``stream`` on a worker thread and yield its items here.

    Two requests for the stream's next item are outstanding at any time,
    and each item handed out is the oldest one's result: the worker marches
    the next window while the caller reads the last one, and holds at most
    one finished item plus the one it is making.  An exception of the drive
    is re-raised here, the same object, after the items yielded before it.
    On every exit, also when this generator is closed early or the caller
    raises into it, the request not yet started is cancelled and the worker
    joined before the stream is closed, so ``stream.diag`` is settled once
    it returns.
    """
    # a checked run is the one user of the executor; ``import angiosolve``
    # does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    items = iter(stream)
    with closing(items), ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="angiosolve-drive") as worker:
        ahead = [worker.submit(next, items, None) for _ in range(2)]
        try:
            while (item := ahead.pop(0).result()) is not None:
                ahead.append(worker.submit(next, items, None))
                yield item
                item = None  # not held while the next one is waited for
        finally:
            for request in ahead:
                request.cancel()


# what a run writes under its output directory, by the package's own names
_TABLES = ("moments.csv", "report.json", "summary.txt")
_SNAPSHOT = re.compile(r"[pc]_[0-9]{4,}\.akf")


def _clear_outputs(out_dir):
    """Remove what an earlier run wrote to ``out_dir``: its tables and its
    ``snapshots/[pc]_NNNN.akf`` files, and nothing else."""
    snap_dir = os.path.join(out_dir, "snapshots")
    names = os.listdir(snap_dir) if os.path.isdir(snap_dir) else []
    paths = [os.path.join(out_dir, name) for name in _TABLES] + [
        os.path.join(snap_dir, name) for name in names if _SNAPSHOT.fullmatch(name)]
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def run_scenario(scenario: Scenario, out_dir=None) -> tuple:
    """Run a scenario end to end: drive, check, optionally write outputs.

    The drive is streamed and pipelined: it runs on the one worker thread
    of :func:`_drive_ahead`, and each saved field goes, as its window
    converges, through ``moments_of``, the check folds and (with
    ``out_dir``) the snapshot writer on the calling thread, in stream
    order, and is then dropped, leaving its six-number ``moments.csv`` row.
    The drive marches at most one field ahead of them (one finished, one
    in the making) and is joined on every exit, so the run holds about a
    window's fields, never the trajectory, and nothing it holds grows with
    the run length but those rows and the folds' scalars.
    ``moments.csv``, ``report.json`` and ``summary.txt`` are written after
    the last field, so a run that raises leaves none of them.  Before its
    first write, a run removes what an earlier run left in ``out_dir``
    under those names and the snapshot names, and nothing else, so the
    directory never mixes two runs.

    Returns ``(exit_code, payload)`` with the process exit convention
    0 = converged and all checks passed, 3 = the fixed point did not converge
    (or its deltas failed to decrease monotonically), 4 = converged but at
    least one invariant check failed.
    """
    made = realise(scenario)
    p0 = made.p0
    warnings = []
    frac = boundary_mass_fraction(p0)
    if frac > 1e-8:
        warnings.append(
            f"initial density has mass fraction {frac:.3e} within 3 cells of "
            "the box edge; the periodic wrap may pollute the run"
        )

    folds = _Checks(scenario, p0, made.c0)
    snap_dir = None
    if out_dir is not None:
        snap_dir = os.path.join(out_dir, "snapshots")
        _clear_outputs(out_dir)
        os.makedirs(snap_dir, exist_ok=True)
    stream = made.stream()
    # one moment set per saved field serves the checks and its table row
    rows = []
    with closing(_drive_ahead(stream)) as fields:
        for i, (t, p_field, c_field, a) in enumerate(fields):
            ms = moments_of(p_field)
            folds.add(t, p_field, c_field, ms)
            if snap_dir is not None:
                save_field(p_field, os.path.join(snap_dir, f"p_{i:04d}.akf"))
                if c_field is not None:
                    save_field(c_field, os.path.join(snap_dir, f"c_{i:04d}.akf"))
            rows.append(moment_row(t, ms, a))
            # the loop names would keep this field alive through the next one
            del p_field, c_field, ms
    checks = folds.finish()
    diag = stream.diag
    monotone = diag.deltas_strictly_decreasing()
    if diag.converged and monotone:
        code = EXIT_CHECK_FAILED if any(not c.passed for c in checks) else EXIT_OK
    else:
        code = EXIT_NO_CONVERGENCE

    payload = {
        "scenario": scenario.name,
        "driver": scenario.driver,
        "converged": bool(diag.converged),
        "monotone_deltas": bool(monotone),
        "iterations": int(diag.iterations),
        "k_per_slab": [int(k) for k in diag.k_per_slab],
        "slab_edges": [float(t) for t in diag.slab_edges],
        "deltas_p": [[float(d) for d in slab] for slab in diag.deltas_p],
        "deltas_c": [[float(d) for d in slab] for slab in diag.deltas_c],
        "checks": [c.to_dict() for c in checks],
        "all_checks_passed": all(c.passed for c in checks),
        "warnings": warnings,
        "exit_code": code,
    }
    if out_dir is not None:
        write_moment_table(rows, os.path.join(out_dir, "moments.csv"))
        write_report(checks, os.path.join(out_dir, "report.json"))
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write(format_summary(scenario, payload))
    return code, payload
