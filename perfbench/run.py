"""angiosolve benchmark: checked runs of shipped scenarios, timed end to end
and split across the package's layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, seed 0, traced
    python3 perfbench/run.py --self-test     # seed-0 counters and trace identity

With ``--trace 0`` a workload is measured untraced: checked runs one after
another, each in a fresh child process, with set-up samples taken between
them, for about ``--seconds`` in all (at least one run).  With
``--trace 1`` it gets one untraced and one traced checked run, and the
traced run's spans give the per-layer metrics.  Every run must exit 0, pass
all its checks and, at seed 0, reproduce the reference moment table; a run
that does not is counted as failed, never dropped or re-run.  Human-readable tables go to stderr, and
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
BENCHMARK.json; everything a run leaves behind goes under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from tracing import baseline_row, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PER_RUN = 2         # set-up samples taken before each checked run
SETUP_SAMPLES = 12        # set-up samples per measurement, at least
CHILD_LIMIT_S = 170.0     # keeps one invocation under 180 s
MOMENTS_RTOL = 1e-8       # the scenarios' Picard tol
THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                            "NUMEXPR_NUM_THREADS")}


def environment() -> dict:
    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        llc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "threads": THREADS,
    }


# --------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    return dict(os.environ, **THREADS)


def _wait(proc, timeout):
    """Reap ``proc`` (killing it after ``timeout`` s); return its rusage."""
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            if time.monotonic() > deadline:
                sys.stderr.write(f"killed after {timeout:.0f} s: {proc.args}\n")
                break
            time.sleep(0.05)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def setup_sample(wl, seed, timeout) -> float:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "setup", wl.name,
           f"--seed={seed}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"set-up of {wl.name} took over {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"set-up of {wl.name} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout)["setup_s"]


@dataclass
class Run:
    """One checked run and what the gate found."""

    exit_code: int
    rss_mb: float
    result: dict = None
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    out_bytes: int = 0

    @property
    def passed(self) -> bool:
        return not self.problems

    @property
    def counts(self):
        r = self.result
        return (r["step_solves"], tuple(r["payload"]["k_per_slab"])) if r else None


def _read_moments(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _moments_problems(path, reference, compare_values) -> list:
    """The table must be finite and shaped like the reference at every seed,
    and match the reference's values when ``compare_values``."""
    header, rows = _read_moments(path)
    if not all(math.isfinite(x) for row in rows for x in row):
        return ["moments.csv is not finite"]
    ref_header, ref_rows = _read_moments(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return ["moments.csv does not have the reference's shape"]
    if not compare_values:
        return []
    for col, name in enumerate(header):
        scale = max(abs(r[col]) for r in ref_rows)
        worst = max(abs(a[col] - b[col]) for a, b in zip(rows, ref_rows))
        if worst > MOMENTS_RTOL * scale:
            return [f"moments.csv column {name} is off the reference by "
                    f"{worst / scale:.3e} relative"]
    return []


def _gate(run, wl, seed, out_dir) -> None:
    if run.exit_code != 0:
        run.problems.append(f"exit code {run.exit_code}")
    if run.result is None:
        run.problems.append("no result")
        return
    if run.result["step_solves"] < 1:
        run.problems.append("no step-solves counted")
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            checks = json.load(fh)["checks"]
        if not checks or any(c["verdict"] != "pass" for c in checks):
            run.problems.append("a check did not pass")
        for name in ("report.json", "summary.txt"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                run.digests[name] = hashlib.sha256(fh.read()).hexdigest()
        reference = os.path.join(HERE, "reference", f"{wl.name}.moments.csv")
        run.problems += _moments_problems(os.path.join(out_dir, "moments.csv"),
                                          reference, compare_values=seed == 0)
    except (OSError, ValueError, KeyError) as exc:
        run.problems.append(f"outputs unreadable: {exc}")


def checked_run(wl, seed, trace, timeout, tag) -> Run:
    work = os.path.join(OUT, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out_dir, result_file = os.path.join(work, "out"), os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "run", wl.name,
           f"--seed={seed}", "--out", out_dir, "--result", result_file]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=_child_env(), cwd=ROOT)
    usage = _wait(proc, timeout)
    run = Run(exit_code=proc.returncode, rss_mb=usage.ru_maxrss / 1024.0)
    try:
        with open(result_file) as fh:
            run.result = json.load(fh)
    except (OSError, ValueError):
        run.result = None
    _gate(run, wl, seed, out_dir)
    for dirpath, _, files in os.walk(out_dir):
        run.out_bytes += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        sys.stderr.write(f"{tag}: FAILED: {problem}\n")
    return run


# --------------------------------------------------------------------------
# measurements


@dataclass
class Measurement:
    runs: list
    metrics: dict
    problems: list
    spans: list = None
    setup: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and all(r.passed for r in self.runs)


def _limit(deadline):
    return max(1.0, deadline - time.monotonic())


def measure(wl, seed, seconds, deadline) -> Measurement:
    """End-to-end metrics of untraced checked runs.

    Each round takes ``SETUP_PER_RUN`` set-up samples and one checked run.
    Another round starts while it, taken to last as long as the last one,
    and the set-up samples still owed to reach ``SETUP_SAMPLES`` are
    expected to end within ``seconds``; those samples are taken after the
    last round.  The first set-up sample only warms the file cache and is
    not kept.
    """
    start = time.monotonic()
    setup_sample(wl, seed, _limit(deadline))
    setup, runs = [], []
    while True:
        began = time.monotonic()
        setup += [setup_sample(wl, seed, _limit(deadline)) for _ in range(SETUP_PER_RUN)]
        runs.append(checked_run(wl, seed, False, _limit(deadline),
                                f"{wl.name}-seed{seed}-run{len(runs)}"))
        now = time.monotonic()
        round_s = now - began
        owed_s = max(0, SETUP_SAMPLES - len(setup) - SETUP_PER_RUN) * statistics.mean(setup)
        if now + round_s > deadline or now - start + round_s + owed_s > seconds:
            break
    while len(setup) < SETUP_SAMPLES and time.monotonic() + 10.0 < deadline:
        setup.append(setup_sample(wl, seed, _limit(deadline)))
    timed = [r for r in runs if r.result]
    if not timed:
        raise SystemExit(f"no run of {wl.name} produced a result")
    run_s = statistics.median(r.result["run_s"] for r in timed)
    first = timed[0].result
    problems = []
    if len({r.counts for r in timed}) != 1:
        problems.append("repeated runs disagree on their work counts")
    metrics = {
        "run_s": run_s,
        "cell_steps_per_s": first["phase_cells"] * first["n_steps"] / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "step_solves": first["step_solves"],
        "passed_run_share": sum(r.passed for r in runs) / len(runs),
    }
    return Measurement(runs, metrics, problems, setup=setup)


def measure_traced(wl, seed, deadline, untraced=None) -> Measurement:
    """Per-layer metrics of one traced run, next to one untraced run.

    An ``untraced`` run passed in was counted by its own measurement, so it
    is compared against but not counted again here.
    """
    runs = []
    if untraced is None:
        untraced = checked_run(wl, seed, False, _limit(deadline),
                               f"{wl.name}-seed{seed}-untraced")
        runs.append(untraced)
    traced = checked_run(wl, seed, True, _limit(deadline),
                         f"{wl.name}-seed{seed}-traced")
    problems = []
    if not (untraced.result and traced.result):
        raise SystemExit(f"no traced/untraced pair of {wl.name} produced results")
    if traced.digests != untraced.digests:
        problems.append("report.json or summary.txt differ with tracing on")
    if traced.counts != untraced.counts:
        problems.append("tracing changed the work counts")
    r = traced.result
    metrics = layer_metrics(r["spans"], r["payload"], r["step_solves"],
                            r["n_steps"], traced.out_bytes)
    metrics["trace.overhead_s"] = r["run_s"] - untraced.result["run_s"]
    metrics["trace.spans"] = len(r["spans"])
    return Measurement(runs + [traced], metrics, problems, spans=r["spans"])


# --------------------------------------------------------------------------
# reporting


def declared() -> tuple:
    """BENCHMARK.json's run_seconds and (section -> {metric name: unit})."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["run_seconds"], {sec: {m["name"]: m["unit"] for m in spec[sec]}
                                 for sec in ("end_to_end", "per_layer")}


def _table(title, metrics, units) -> None:
    sys.stderr.write(f"{title}\n")
    for name, value in metrics.items():
        sys.stderr.write(f"  {name:<28} {value:>16.6g} {units[name]}\n")


def _baseline_table(rows) -> None:
    sys.stderr.write("| workload | scenario | drive | checks | slabs x iterates | step-solves |\n"
                     "| --- | --- | --- | --- | --- | --- |\n")
    for wl, m in rows:
        r = m.runs[-1].result
        b = baseline_row(m.spans)
        sys.stderr.write(f"| {wl.name} | {wl.scenario} | {b['drive_s']:.2f} s | "
                         f"{b['checks_s']:.2f} s | {r['payload']['k_per_slab']} | "
                         f"{r['step_solves']} |\n")


def _save(tag, env, m) -> None:
    """Write the measurement, with its environment and spans, under .perfbench/."""
    record = {"environment": env, "metrics": m.metrics, "correct": m.correct,
              "problems": m.problems + [p for r in m.runs for p in r.problems],
              "setup_s": m.setup,
              "run_s": [r.result["run_s"] for r in m.runs if r.result],
              "rss_mb": [r.rss_mb for r in m.runs]}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if m.spans is not None:
        with open(os.path.join(OUT, f"{tag}.spans.json"), "w") as fh:
            json.dump([{"run": tag, "name": s[0], "start": s[1], "end": s[2],
                        "parent": s[3], "attrs": s[4]} for s in m.spans], fh)


def _result_line(measurements, units, qualified) -> str:
    """The final JSON line; ``qualified`` prefixes each metric with its workload."""
    metrics = {}
    for name, m in measurements:
        for key, value in m.metrics.items():
            label = f"{name}.{key}" if qualified else key
            metrics[label] = {"value": value, "unit": units[key]}
    return json.dumps({
        "correct": all(m.correct for _, m in measurements),
        "attempted": sum(len(m.runs) for _, m in measurements),
        "failed": sum(not r.passed for _, m in measurements for r in m.runs),
        "metrics": metrics,
    })


def _self_test(env, deadline_for) -> int:
    """Seed-0 counters equal the ROADMAP baseline, untraced and traced alike."""
    ok, rows = True, []
    for wl in WORKLOADS.values():
        m = measure_traced(wl, 0, deadline_for())
        _save(f"{wl.name}-selftest", env, m)
        expected = (wl.step_solves, wl.k_per_slab)
        got = [r.counts for r in m.runs]
        good = m.correct and all(c == expected for c in got)
        ok &= good
        rows.append((wl, m))
        sys.stderr.write(f"self-test {wl.name}: {'PASS' if good else 'FAIL'} "
                         f"(counts {got}, expected {expected}; "
                         f"problems {m.problems})\n")
    _baseline_table(rows)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "angiosolve", "__init__.py")):
        sys.stderr.write(f"no angiosolve source under {ROOT}/src\n")
        return 2
    run_seconds, units = declared()
    seconds = run_seconds if args.seconds is None else args.seconds
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    sys.stderr.write(f"environment: {json.dumps(env)}\n")

    def deadline_for():
        return time.monotonic() + CHILD_LIMIT_S

    if args.self_test:
        return _self_test(env, deadline_for)

    if args.workload != "all":
        wl = WORKLOADS[args.workload]
        deadline = deadline_for()
        tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            m, section = measure_traced(wl, args.seed, deadline), "per_layer"
        else:
            m, section = measure(wl, args.seed, seconds, deadline), "end_to_end"
        if set(m.metrics) != set(units[section]):
            raise SystemExit(f"metrics {sorted(set(m.metrics) ^ set(units[section]))} "
                             "do not match BENCHMARK.json")
        _save(tag, env, m)
        _table(f"{wl.name} seed {args.seed} ({section})", m.metrics, units[section])
        if args.trace:
            _baseline_table([(wl, m)])
        print(_result_line([(wl.name, m)], units[section], qualified=False))
        return 0

    units_all = {**units["end_to_end"], **units["per_layer"]}
    measured, traced_rows = [], []
    for wl in WORKLOADS.values():
        m = measure(wl, args.seed, seconds, deadline_for())
        _save(f"{wl.name}-seed{args.seed}-trace0", env, m)
        _table(f"{wl.name} seed {args.seed} (end_to_end)", m.metrics, units_all)
        measured.append((wl.name, m))
        if args.trace:
            t = measure_traced(wl, args.seed, deadline_for(), untraced=m.runs[0])
            _save(f"{wl.name}-seed{args.seed}-trace1", env, t)
            _table(f"{wl.name} seed {args.seed} (per_layer)", t.metrics, units_all)
            measured.append((wl.name, t))
            traced_rows.append((wl, t))
    if traced_rows:
        _baseline_table(traced_rows)
    print(_result_line(measured, units_all, qualified=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
