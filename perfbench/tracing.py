"""Spans recorded around the public calls of each angiosolve layer.

Nothing here lives in the package: :func:`install` replaces the functions
and methods listed below, in every loaded ``angiosolve`` module that holds
them, with wrappers that record a span per call.  A span is
``[name, start, end, parent, attrs]``, where ``parent`` is the index of
the enclosing span (or ``None``) and ``attrs`` a short tuple some spans
carry.  Spans stay in memory; the caller writes them out at the end.

The step counter on ``solve_linear`` is installed even when spans are off:
it adds one integer per solve (a few dozen per run), not per step.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (module, function, span name)
FUNCTIONS = (
    ("scenarios", "run_scenario", "scenarios.run_scenario"),
    ("scenarios", "load_shipped_scenario", "scenarios.load"),
    ("scenarios", "load_scenario", "scenarios.load"),
    ("scenarios", "realise", "scenarios.realise"),
    ("scenarios", "build_checks", "harness.build_checks"),
    ("harness", "check_positivity", "harness.check_positivity"),
    ("harness", "check_comparison", "harness.check_comparison"),
    ("harness", "check_gronwall", "harness.check_gronwall"),
    ("harness", "check_energy", "harness.check_energy"),
    ("harness", "check_speed_bound", "harness.check_speed_bound"),
    ("harness", "check_c_bounds", "harness.check_c_bounds"),
    ("harness", "write_report", "snapshots.write"),
    ("snapshots", "save_field", "snapshots.write"),
    ("snapshots", "write_moment_table", "snapshots.write"),
    ("picard", "picard_pure", "picard.drive"),
    ("picard", "picard_coupled", "picard.drive"),
    ("stepping", "solve_linear", "stepping.solve_linear"),
    ("moments", "accumulate_time_integral", "moments.accumulate"),
    ("moments", "velocity_marginal", "moments.reduce"),
    ("moments", "speed_moment", "moments.reduce"),
    ("moments", "second_moment", "moments.reduce"),
    ("moments", "vector_speed_moment", "moments.reduce"),
    ("moments", "moments_of", "moments.reduce"),
)

# (module, class, method, span name)
METHODS = (
    ("heat", "HeatPlan", "apply", "heat.apply"),
    ("heat", "HeatPlan", "multiplier", "heat.multiplier"),
    ("stepping", "CoefficientTrack", "coefficient_mid", "stepping.coefficient_mid"),
    ("grid", "PhaseField", "__init__", "grid.PhaseField"),
)


def fft_bytes(n_real: int, n_spec: int, passes: int) -> int:
    """Computed (not measured) bytes one heat-flow round trip moves.

    The real input is read and the real output written once (8 bytes per
    entry each); every axis pass of the forward and of the inverse transform
    reads and writes the complex spectrum (16 bytes per entry); the multiply
    reads the spectrum and the float multiplier and writes the spectrum.
    """
    return 16 * n_real + (64 * passes + 40) * n_spec


def _apply_attrs(plan, values, tau, kind):
    if tau == 0.0:
        return (kind, 0)
    g = plan.grid
    if kind == "spatial" or plan.subspace == "xv":
        passes, last = values.ndim, values.shape[-1]
    elif plan.subspace == "x":
        passes, last = g.dim_x, values.shape[g.dim_x - 1]
    else:
        passes, last = g.dim_v, values.shape[-1]
    n_spec = values.size // last * (last // 2 + 1)
    return (kind, fft_bytes(values.size, n_spec, passes))


class Tracer:
    """Span recorder and step counter for one run."""

    def __init__(self, record: bool):
        self.record = record
        self.spans = []
        self.step_solves = 0
        self._stack = []
        self._keys_seen = weakref.WeakKeyDictionary()

    def wrap(self, name, fn, attrs=None):
        if not self.record:
            return fn
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    attrs(*args, **kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def count_steps(self, fn):
        @functools.wraps(fn)
        def wrapper(p0, track, sigma, schedule=None, *args, **kwargs):
            self.step_solves += (schedule or track.schedule).n_steps
            return fn(p0, track, sigma, schedule, *args, **kwargs)

        return wrapper

    def first_request(self, plan, tau, kind):
        """(kind, True the first time ``plan`` is asked for this multiplier)."""
        keys = self._keys_seen.setdefault(plan, set())
        key = (float(tau), kind)
        new = key not in keys
        keys.add(key)
        return (kind, new)


def _replace_everywhere(original, replacement):
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "angiosolve" or mod_name.startswith("angiosolve.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced call of the already imported package."""
    pkg = sys.modules["angiosolve"]
    for mod_name, fn_name, span in FUNCTIONS:
        original = getattr(getattr(pkg, mod_name), fn_name)
        wrapped = tracer.wrap(span, original)
        if fn_name == "solve_linear":
            wrapped = tracer.count_steps(wrapped)
        if wrapped is not original:
            _replace_everywhere(original, wrapped)
    for mod_name, cls_name, meth, span in METHODS:
        cls = getattr(getattr(pkg, mod_name), cls_name)
        original = vars(cls)[meth]
        attrs = {"heat.apply": _apply_attrs,
                 "heat.multiplier": tracer.first_request}.get(span)
        wrapped = tracer.wrap(span, original, attrs)
        if wrapped is not original:
            setattr(cls, meth, wrapped)


# --------------------------------------------------------------------------
# analysis


def _worst_contraction(payload) -> float:
    """Largest ratio of consecutive driving deltas in any slab."""
    worst = 0.0
    for d_p, d_c in zip(payload["deltas_p"], payload["deltas_c"]):
        driving = [max(p, c) for p, c in zip(d_p, d_c)] if d_c else d_p
        for prev, cur in zip(driving, driving[1:]):
            if prev > 0.0:
                worst = max(worst, cur / prev)
    return worst


def layer_metrics(spans, payload, step_solves, n_steps, out_bytes) -> dict:
    """Per-layer figures of one traced run (times in s, counts exact)."""
    dur = [s[2] - s[1] for s in spans]
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    covered = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p is not None:
            covered[p] += dur[i]

    def select(name, outermost=False):
        idx = [i for i, n in enumerate(names) if n == name]
        if outermost:
            idx = [i for i in idx
                   if parents[i] is None or names[parents[i]] != name]
        return idx

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_time(idx):
        return sum(dur[i] - covered[i] for i in idx)

    def under(i, name):
        p = parents[i]
        while p is not None:
            if names[p] == name:
                return True
            p = parents[p]
        return False

    applies = select("heat.apply")
    phase = [i for i in applies if spans[i][4][0] == "phase"]
    spatial = [i for i in applies if spans[i][4][0] == "spatial"]
    solves = select("stepping.solve_linear")
    solve_s = total(solves)
    in_solve = [i for i in phase if names[parents[i]] == "stepping.solve_linear"]
    reduces = [i for i in select("moments.reduce", outermost=True)
               if under(i, "harness.build_checks")]
    write_s = total(select("snapshots.write", outermost=True))
    fields = select("grid.PhaseField")
    phase_s = total(phase)
    return {
        "heat.phase_apply_calls": len(phase),
        "heat.phase_apply_s": phase_s,
        "heat.phase_ms_per_call": 1e3 * phase_s / len(phase) if phase else 0.0,
        "heat.fft_bytes_computed": sum(spans[i][4][1] for i in applies),
        "heat.spatial_apply_calls": len(spatial),
        "heat.spatial_apply_s": total(spatial),
        "heat.multiplier_entries": sum(1 for i in select("heat.multiplier")
                                       if spans[i][4][1]),
        "stepping.solve_linear_s": solve_s,
        "stepping.self_s": self_time(solves),
        "stepping.coefficient_mid_s": total(select("stepping.coefficient_mid")),
        "stepping.fft_share": total(in_solve) / solve_s if solve_s else 0.0,
        "moments.accumulate_s": total(select("moments.accumulate")),
        "moments.reduce_s": total(reduces),
        "picard.slabs": len(payload["k_per_slab"]),
        "picard.iterates": payload["iterations"],
        "picard.useful_step_ratio": n_steps / step_solves if step_solves else 0.0,
        "picard.self_s": self_time(select("picard.drive")),
        "picard.worst_contraction": _worst_contraction(payload),
        "harness.checks_s": total(select("harness.build_checks")),
        "harness.energy_s": total(select("harness.check_energy")),
        "grid.phase_fields": len(fields),
        "grid.phase_field_s": total(fields),
        "snapshots.write_s": write_s,
        "snapshots.bytes": out_bytes,
        "snapshots.mb_per_s": out_bytes / write_s / 2**20 if write_s else 0.0,
        "scenarios.realise_s": total(select("scenarios.realise")),
    }


def baseline_row(spans) -> dict:
    """Drive and check time of one traced run, as in the ROADMAP table."""
    dur = {}
    for name, start, end, _, _ in spans:
        if name in ("picard.drive", "harness.build_checks"):
            dur[name] = dur.get(name, 0.0) + (end - start)
    return {"drive_s": dur.get("picard.drive", 0.0),
            "checks_s": dur.get("harness.build_checks", 0.0)}
