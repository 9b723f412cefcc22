"""One measured step of the benchmark, in a fresh interpreter.

    python3 perfbench/child.py setup WORKLOAD --seed N
        Import angiosolve, load the workload's scenario with the seed's
        ``--override`` strings and realise it; print the seconds this took
        as JSON.

    python3 perfbench/child.py run WORKLOAD --seed N --out DIR --result FILE
            [--trace]
        One checked run, ``scenarios.run_scenario(..., out_dir=DIR)``, the
        call ``angiosolve run --out`` makes.  Writes the run's time, payload,
        step-solves and (with ``--trace``) its spans to FILE, and exits
        with the run's exit code.  A run that raises writes no FILE.

The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from workloads import WORKLOADS, seed_overrides

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_package():
    sys.path.insert(0, SRC)
    import angiosolve

    where = os.path.dirname(os.path.abspath(angiosolve.__file__))
    if where != os.path.join(SRC, "angiosolve"):
        sys.exit(f"angiosolve was imported from {where}, not from {SRC}")
    return angiosolve


def _overrides(angiosolve, wl, seed) -> list:
    """The workload's ``--override`` strings plus those of ``seed``, which
    start from the shipped scenario's own initial data."""
    shipped = angiosolve.load_shipped_scenario(wl.scenario, wl.overrides)
    return [*wl.overrides, *seed_overrides(shipped.p_recipe, seed)]


def _setup(args) -> int:
    start = time.perf_counter()
    angiosolve = _import_package()
    wl = WORKLOADS[args.workload]
    scenario = angiosolve.load_shipped_scenario(
        wl.scenario, _overrides(angiosolve, wl, args.seed))
    angiosolve.realise(scenario)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def _run(args) -> int:
    angiosolve = _import_package()
    from angiosolve import scenarios
    from tracing import Tracer, install

    wl = WORKLOADS[args.workload]
    overrides = _overrides(angiosolve, wl, args.seed)
    tracer = Tracer(record=args.trace)
    install(tracer)
    scenario = scenarios.load_shipped_scenario(wl.scenario, overrides)
    start = time.perf_counter()
    code, payload = scenarios.run_scenario(scenario, out_dir=args.out)
    run_s = time.perf_counter() - start
    grid = scenario.grid
    result = {
        "exit_code": code,
        "run_s": run_s,
        "step_solves": tracer.step_solves,
        "n_steps": scenario.schedule.n_steps,
        "phase_cells": grid.n_x ** grid.dim_x * grid.n_v ** grid.dim_v,
        "payload": payload,
        "spans": tracer.spans,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run"):
        sp = sub.add_parser(mode)
        sp.add_argument("workload", choices=WORKLOADS)
        sp.add_argument("--seed", type=int, required=True)
        if mode == "run":
            sp.add_argument("--out", required=True)
            sp.add_argument("--result", required=True)
            sp.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    return _setup(args) if args.mode == "setup" else _run(args)


if __name__ == "__main__":
    sys.exit(main())
