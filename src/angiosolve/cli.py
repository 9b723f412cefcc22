"""Command line front end.

Four subcommands::

    angiosolve run CONFIG [CONFIG ...]   run scenarios and evaluate checks
    angiosolve check CONFIG [...]        parse + build only (dry run)
    angiosolve list-checks               catalogue of invariant checks
    angiosolve describe CONFIG           print a scenario's resolved settings

CONFIG is either a path to an INI file or the name of a shipped scenario
(see ``describe`` / the package's scenarios directory).  Exit codes: 0 all
good, 2 bad configuration or arguments, 3 fixed-point iteration failed to
converge (or its deltas were not monotone), 4 an invariant check failed,
5 a run stopped on a violated invariant (a sign beyond the clamping
tolerance, :class:`SignError`, or unusable field data, :class:`DataError`).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .errors import AngiosolveError, ConfigurationError, DataError, SignError
from .scenarios import (CHECKS, EXIT_CONFIG, EXIT_INVARIANT,
                        boundary_mass_fraction, format_summary, load_scenario,
                        load_shipped_scenario, realise, run_scenario,
                        shipped_scenarios)

def _resolve(config: str, overrides):
    if os.path.exists(config):
        return load_scenario(config, overrides=overrides)
    if os.sep not in config and config in shipped_scenarios():
        return load_shipped_scenario(config, overrides=overrides)
    raise ConfigurationError(
        f"{config!r} is neither a readable file nor a shipped scenario "
        f"(shipped: {', '.join(sorted(shipped_scenarios()))})"
    )


def _run_one(config, overrides, out_root):
    scenario = _resolve(config, overrides)
    out_dir = os.path.join(out_root, scenario.name) if out_root else None
    code, payload = run_scenario(scenario, out_dir=out_dir)
    return code, format_summary(scenario, payload)


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    # a fork-started pool starts every worker at once: never more than
    # there are scenarios to run or CPUs to run them on
    workers = min(args.jobs, len(args.configs), os.cpu_count() or 1)
    worst = 0
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_one, cfg, tuple(args.override), args.out)
                for cfg in args.configs
            ]
            results = [f.result() for f in futures]
    else:
        results = [
            _run_one(cfg, tuple(args.override), args.out)
            for cfg in args.configs
        ]
    for code, summary in results:
        sys.stdout.write(summary + "\n")
        worst = max(worst, code)
    return worst


def _cmd_check(args) -> int:
    for config in args.configs:
        scenario = _resolve(config, tuple(args.override))
        frac = boundary_mass_fraction(realise(scenario).p0)
        sys.stdout.write(
            f"{scenario.name}: ok ({scenario.driver} driver, "
            f"{scenario.schedule.n_steps} steps, checks: "
            f"{', '.join(scenario.checks)})\n"
        )
        if frac > 1e-8:
            sys.stdout.write(
                f"{scenario.name}: warning: boundary mass fraction {frac:.3e}\n"
            )
    return 0


def _cmd_list_checks(_args) -> int:
    width = max(len(name) for name in CHECKS)
    for name, (doc, _, _) in CHECKS.items():
        sys.stdout.write(f"{name.ljust(width)}  {doc}\n")
    return 0


def _cmd_describe(args) -> int:
    scenario = _resolve(args.config, tuple(args.override))
    g, p, s = scenario.grid, scenario.params, scenario.schedule
    lines = [
        f"name: {scenario.name}",
        f"driver: {scenario.driver}",
        f"grid: dim_x={g.dim_x} dim_v={g.dim_v} n_x={g.n_x} n_v={g.n_v} "
        f"half_width_x={g.half_width_x:g} half_width_v={g.half_width_v:g}",
        f"params: sigma={p.sigma:g} d={p.d:g} gamma={p.gamma:g} eta={p.eta:g} "
        f"alpha1={p.alpha1:g} c_R={p.c_R:g} epsilon={p.epsilon:g} "
        f"v0={list(p.v0)}",
        f"schedule: t_end={s.t_end:g} dt={s.dt:g} save_stride={s.save_stride} "
        f"({s.n_steps} steps)",
        f"picard: k_max={scenario.picard['k_max']} tol={scenario.picard['tol']:g} "
        f"init={scenario.picard['init']}",
        f"initial_p: {dict(sorted(scenario.p_recipe.items()))}",
        f"initial_c: {dict(sorted(scenario.c_recipe.items()))}",
        f"checks: {', '.join(scenario.checks)}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angiosolve",
        description="Spectral splitting solver and invariant-check harness "
                    "for a nonlocal vessel-tip / attractant system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(sp):
        sp.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config value (repeatable)")

    sp = sub.add_parser("run", help="run scenarios and evaluate their checks")
    sp.add_argument("configs", nargs="+", metavar="CONFIG",
                    help="scenario file path or shipped scenario name")
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="write snapshots, moment table, report.json and "
                         "summary.txt under DIR/<scenario-name>/")
    sp.add_argument("--jobs", type=int, default=1,
                    help="run up to this many scenarios in parallel (capped "
                         "at the scenario and CPU counts)")
    add_overrides(sp)
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("check", help="parse and build a scenario without running")
    sp.add_argument("configs", nargs="+", metavar="CONFIG")
    add_overrides(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("list-checks", help="describe the available checks")
    sp.set_defaults(func=_cmd_list_checks)

    sp = sub.add_parser("describe", help="print a scenario's resolved settings")
    sp.add_argument("config", metavar="CONFIG")
    add_overrides(sp)
    sp.set_defaults(func=_cmd_describe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (SignError, DataError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVARIANT
    except AngiosolveError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
