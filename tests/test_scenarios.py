"""Scenario configs: parsing, initial-data recipes, and the checked-run
orchestration (exit codes, artifacts, warnings)."""

import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from angiosolve import (ConfigurationError, PhaseField, ResolutionError, SignError,
                        harness, moments, scenarios, snapshots)
from angiosolve.grid import GridSpec, SpatialField, factor_xv, integrate_phase
from angiosolve.harness import write_report
from angiosolve import heat
from angiosolve.heat import HeatPlan
from angiosolve.picard import velocity_profile
from angiosolve.scenarios import (
    boundary_mass_fraction,
    build_checks,
    build_initial_c,
    build_initial_p,
    format_summary,
    load_scenario,
    load_shipped_scenario,
    realise,
    run_scenario,
    shipped_scenarios,
)
from angiosolve.stepping import Trajectory

_PURE_TEXT = """
[scenario]
name = tiny
driver = pure
[grid]
n_x = 64
n_v = 64
half_width_x = 8.0
half_width_v = 8.0
[params]
sigma = 0.05
gamma = 1.0
epsilon = 2.5
v0 = 1.3
[schedule]
t_end = 0.1
dt = 0.01
save_stride = 5
[initial_p]
recipe = gaussian_bump
center_v = 1.3
variance_x = 0.5
variance_v = 0.5
mass = 1.0
"""


def _load(text=_PURE_TEXT, overrides=()):
    return load_scenario(io.StringIO(text), overrides=overrides)


def _grid(n=64, dim_x=1, dim_v=1):
    return GridSpec(dim_x=dim_x, dim_v=dim_v, n_x=n, n_v=n,
                    half_width_x=8.0, half_width_v=8.0)


# --------------------------------------------------------------------------
# recipes


def test_gaussian_recipe_is_periodized_and_normalised():
    # a bump centred exactly on the seam must peak at the wrap node
    p = build_initial_p(_grid(), {
        "recipe": "gaussian_bump", "center_x": "8.0", "center_v": "0.0",
        "variance_x": "0.5", "variance_v": "0.5", "mass": "1.0"})
    assert p.values.min() >= 0.0
    idx = np.unravel_index(p.values.argmax(), p.values.shape)
    assert idx == (0, 32)
    assert integrate_phase(p) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_recipe_per_axis_centres():
    g = _grid(32, dim_x=2)
    p = build_initial_p(g, {
        "recipe": "gaussian_bump", "center_x": "1.0, -2.0", "center_v": "0.5",
        "variance_x": "2.0", "variance_v": "2.0", "mass": "0.7"})
    i = np.unravel_index(p.values.argmax(), p.values.shape)
    assert (g.x_coords()[i[0]], g.x_coords()[i[1]], g.v_coords()[i[2]]) \
        == (1.0, -2.0, 0.5)
    assert integrate_phase(p) == pytest.approx(0.7, rel=1e-12)
    with pytest.raises(ConfigurationError, match="center_x"):
        build_initial_p(g, {"recipe": "gaussian_bump",
                            "center_x": "1.0, 2.0, 3.0",
                            "variance_x": "2.0", "variance_v": "2.0"})


def test_density_recipe_validation():
    g = _grid()
    with pytest.raises(ConfigurationError, match="unknown density recipe"):
        build_initial_p(g, {"recipe": "squircle"})
    with pytest.raises(ConfigurationError, match="mass"):
        build_initial_p(g, {"recipe": "gaussian_bump", "mass": "-1.0"})
    with pytest.raises(ConfigurationError, match="variance"):
        build_initial_p(g, {"recipe": "gaussian_bump", "variance_x": "0.0"})
    with pytest.raises(ResolutionError, match="unresolved"):
        build_initial_p(g, {"recipe": "gaussian_bump", "variance_x": "0.01"})


def test_zero_recipes():
    g = _grid()
    p = build_initial_p(g, {"recipe": "zero"})
    assert not p.values.any()
    c = build_initial_c(g, {})  # recipe defaults to zero
    assert c.role == "c" and not c.values.any()


def test_plateau_recipe_shape_and_validation():
    g = _grid()
    c = build_initial_c(g, {"recipe": "plateau_ramp", "k_inf": "2.0",
                            "edge_lo": "-4.0", "edge_hi": "4.0",
                            "width": "1.6"})
    assert c.role == "c"
    assert c.values.min() >= 0.0
    assert c.values.max() <= 2.0 * (1.0 + 1e-12)
    x = g.x_coords()
    mid = c.values[np.argmin(np.abs(x))]
    assert mid == c.values.max()          # plateau peaks between the edges
    assert c.values[0] < 0.02 * mid       # and is nearly gone at the seam
    for bad in ({"recipe": "plateau_ramp", "edge_lo": "2.0", "edge_hi": "-2.0"},
                {"recipe": "plateau_ramp", "width": "0.0"},
                {"recipe": "plateau_ramp", "k_inf": "-1.0"},
                {"recipe": "mystery"}):
        with pytest.raises(ConfigurationError):
            build_initial_c(g, bad)
    with pytest.raises(ResolutionError, match="unresolved"):
        build_initial_c(g, {"recipe": "plateau_ramp", "width": "1.0"})


def test_concentration_gaussian_recipe():
    g = _grid()
    c = build_initial_c(g, {"recipe": "gaussian_bump", "center_x": "2.0",
                            "variance_x": "0.5", "mass": "0.4"})
    assert c.role == "c"
    assert float(c.values.sum()) * g.h_x == pytest.approx(0.4, rel=1e-12)
    # a negative mass is refused as the density recipe refuses it
    with pytest.raises(ConfigurationError, match="mass"):
        build_initial_c(g, {"recipe": "gaussian_bump", "mass": "-1.0"})


def test_boundary_mass_fraction():
    g = _grid()
    ones = PhaseField(g, np.ones(g.phase_shape))
    assert boundary_mass_fraction(ones) == (64**2 - 58**2) / 64**2
    assert boundary_mass_fraction(PhaseField(g, np.zeros(g.phase_shape))) == 0.0
    centred = build_initial_p(g, {"recipe": "gaussian_bump",
                                  "variance_x": "0.5", "variance_v": "0.5"})
    assert boundary_mass_fraction(centred) < 1e-8
    seam = build_initial_p(g, {"recipe": "gaussian_bump", "center_x": "8.0",
                               "variance_x": "0.5", "variance_v": "0.5"})
    assert boundary_mass_fraction(seam) > 0.5


# --------------------------------------------------------------------------
# config parsing


def test_load_minimal_fills_defaults():
    sc = _load()
    assert sc.name == "tiny" and sc.driver == "pure"
    assert sc.params.d == sc.params.sigma        # d falls back to sigma
    assert sc.params.alpha1 == 0.0 and sc.params.c_R == 1.0
    assert sc.params.v0 == (1.3,)
    assert sc.picard == {"k_max": 20, "tol": 1e-8, "init": "heat"}
    assert sc.checks == ("positivity", "comparison", "gronwall", "energy",
                         "speed_bound")


def test_load_parses_lists_and_flags():
    sc = _load(overrides=("params.v0=0.8, -0.3", "checks.names=positivity energy"))
    assert sc.params.v0 == (0.8, -0.3)
    assert sc.checks == ("positivity", "energy")


def test_load_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="half_width"):
        _load(overrides=("grid.half_width=8.0",))
    with pytest.raises(ConfigurationError, match="sigmna"):
        _load(overrides=("params.sigmna=0.1",))
    with pytest.raises(ConfigurationError, match="stride"):
        _load(overrides=("schedule.stride=2",))
    with pytest.raises(ConfigurationError, match="pciard"):
        _load(_PURE_TEXT + "\n[pciard]\nk_max = 1\n")


def test_load_missing_and_malformed():
    with pytest.raises(ConfigurationError, match=r"missing the \[grid\]"):
        _load("[scenario]\nname = x\n")
    with pytest.raises(ConfigurationError, match="n_x"):
        _load(_PURE_TEXT.replace("n_x = 64\n", ""))
    with pytest.raises(ConfigurationError, match="bad value"):
        _load(overrides=("grid.n_x=plenty",))
    with pytest.raises(ConfigurationError, match="driver"):
        _load(overrides=("scenario.driver=hybrid",))
    with pytest.raises(ConfigurationError, match="unknown check"):
        _load(overrides=("checks.names=positivity, vibes",))
    with pytest.raises(ConfigurationError, match="coupled"):
        _load(overrides=("checks.names=c_bounds",))
    with pytest.raises(ConfigurationError, match="malformed"):
        _load("no section header here\n")
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_scenario("/nonexistent/path.cfg")
    with pytest.raises(ConfigurationError, match="section.key=value"):
        _load(overrides=("justakey",))


def test_shipped_scenarios_inventory():
    texts = shipped_scenarios()
    assert set(texts) == {"coupled-ramp", "coupled-smoke-2d",
                          "pure-gaussian", "zero"}
    for name in texts:
        sc = load_shipped_scenario(name)
        assert sc.name == name
    with pytest.raises(ConfigurationError, match="no shipped scenario"):
        load_shipped_scenario("bespoke")
    sc = load_shipped_scenario("zero", overrides=("schedule.dt=0.004",))
    assert sc.schedule.dt == 0.004


# --------------------------------------------------------------------------
# checked runs


def test_run_zero_scenario_passes_everything():
    code, payload = run_scenario(load_shipped_scenario("zero"))
    assert code == 0
    assert payload["converged"] and payload["monotone_deltas"]
    assert payload["all_checks_passed"]
    assert payload["warnings"] == []
    assert [c["name"] for c in payload["checks"][:2]] == ["positivity",
                                                          "comparison"]
    assert all(c["verdict"] == "pass" for c in payload["checks"])


def test_run_scenario_writes_artifacts(tmp_path):
    out = tmp_path / "zero-run"
    code, payload = run_scenario(load_shipped_scenario("zero"), out_dir=str(out))
    assert code == 0
    snaps = sorted(os.listdir(out / "snapshots"))
    assert snaps == [f"p_{i:04d}.akf" for i in range(6)]  # 50 steps, stride 10
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["all_passed"] is True
    assert [c["name"] for c in report["checks"]] \
        == [c["name"] for c in payload["checks"]]
    table = (out / "moments.csv").read_text().splitlines()
    assert len(table) == 7 and table[0].startswith("time,mass")
    summary = (out / "summary.txt").read_text()
    assert "scenario zero (pure driver)" in summary
    assert summary.endswith("exit code: 0\n")


def test_run_scenario_takes_each_snapshots_moments_once(tmp_path, monkeypatch):
    # the checks and moments.csv share one moment pass over the saved fields
    calls = []

    def counted(f):
        calls.append(f.time_tag)
        return moments.moments_of(f)

    for mod in (scenarios, snapshots):
        if hasattr(mod, "moments_of"):
            monkeypatch.setattr(mod, "moments_of", counted)
    code, _ = run_scenario(_load(), out_dir=str(tmp_path / "tiny"))
    assert code == 0
    assert calls == [0.0, 0.05, 0.1]  # 10 steps, stride 5


def test_run_scenario_exit3_when_not_converged():
    # strong damping and a two-iterate budget: the fixed point cannot settle
    sc = _load(overrides=("picard.k_max=2", "params.gamma=40.0"))
    code, payload = run_scenario(sc)
    assert code == 3
    assert payload["converged"] is False
    assert payload["exit_code"] == 3


def test_run_scenario_exit4_on_uncertifiable_energy():
    # three saved times leave the energy check on its floor tolerance, and
    # a dt this coarse cannot meet it: converged run, failed check
    sc = _load(overrides=("schedule.dt=0.05", "schedule.save_stride=1",
                          "initial_p.mass=1e-8", "checks.names=energy"))
    code, payload = run_scenario(sc)
    assert code == 4
    assert payload["converged"] and not payload["all_checks_passed"]
    (check,) = payload["checks"]
    assert check["name"] == "energy" and check["verdict"] == "fail"
    assert check["worst_slack"] < -1e-7


def test_run_scenario_warns_about_edge_mass():
    sc = _load(overrides=("initial_p.center_x=7.0", "checks.names=positivity"))
    code, payload = run_scenario(sc)
    assert code == 0
    assert len(payload["warnings"]) == 1
    assert "box edge" in payload["warnings"][0]


def test_envelope_hypothesis_is_guarded():
    # mean square speed below one breaks the second-moment envelope premise
    sc = _load(overrides=("initial_p.center_v=0.0", "params.v0=0.0",
                          "checks.names=gronwall"))
    with pytest.raises(ConfigurationError, match="mean square speed"):
        run_scenario(sc)


@pytest.mark.parametrize("stride", [1, 10])
def test_streamed_run_holds_a_fixed_number_of_fields(tmp_path, stride):
    # each saved field goes through the folds, the moments and the writer
    # and is dropped: the peak is the drive's window (its start, two saved
    # fields, the march's work, spectrum and coefficient arrays), the field
    # being checked and the one queued behind it, p0 and a fold's
    # temporaries, whatever the stride and the run length.  At stride 1 a
    # collected run would hold one field per step
    for steps in (50, 400):
        sc = load_shipped_scenario("coupled-ramp", overrides=(
            f"schedule.t_end={steps * 0.001!r}", f"schedule.save_stride={stride}"))
        assert sc.schedule.n_steps == steps
        field_bytes = 8 * sc.grid.n_x * sc.grid.n_v
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code, _ = run_scenario(sc, out_dir=str(tmp_path / f"run{steps}"))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 14 * field_bytes, (steps, peak / field_bytes)


# short coupled runs, every node saved, one on each side of the drive-ahead
# rule: a 256^2 run drives on the calling thread, a 32^4 run on a worker
_SHORT_RUNS = {
    "coupled-ramp": ("schedule.t_end=0.02", "schedule.save_stride=1"),
    "coupled-smoke-2d": ("schedule.t_end=0.01", "schedule.save_stride=1"),
}


def _short_run(name):
    return load_shipped_scenario(name, overrides=_SHORT_RUNS[name])


@pytest.mark.parametrize("name, call, cell", [
    ("coupled-ramp", 12, (17, 40)), ("coupled-smoke-2d", 6, (14, 17, 21, 16))])
def test_run_that_raises_mid_stream_writes_no_report(tmp_path, monkeypatch, name,
                                                     call, cell):
    # the snapshots of the windows done so far are on disk, but the tables
    # and the verdicts are written only once the stream has ended
    clean, calls = HeatPlan.apply, []

    def faulty(self, values, tau, kind):
        out = clean(self, values, tau, kind)
        if kind == "phase":
            calls.append(tau)
            if len(calls) == call:
                out = out.copy()
                out[cell] = -1e-3 * float(out.max())
        return out

    monkeypatch.setattr(HeatPlan, "apply", faulty)
    sc = _short_run(name)
    out = tmp_path / "run"
    with pytest.raises(SignError, match="marched density"):
        run_scenario(sc, out_dir=str(out))
    assert len(os.listdir(out / "snapshots")) >= 2
    for table in ("report.json", "summary.txt", "moments.csv"):
        assert not (out / table).exists(), table


@pytest.mark.parametrize("name", _SHORT_RUNS)
def test_run_whose_writer_raises_stops_the_drive(tmp_path, monkeypatch, name):
    # an error of the caller's side surfaces as itself; a drive thread,
    # which may be a window ahead, is stopped and joined, and no table or
    # verdict is written
    clean, calls, fault = snapshots.save_field, [], OSError("disk full")

    def faulty(field, path):
        calls.append(path)
        if len(calls) == 3:
            raise fault
        clean(field, path)

    monkeypatch.setattr(scenarios, "save_field", faulty)
    sc = _short_run(name)
    out = tmp_path / "run"
    threads = threading.active_count()
    with pytest.raises(OSError) as raised:
        run_scenario(sc, out_dir=str(out))
    assert raised.value is fault
    assert threading.active_count() == threads
    assert sorted(os.listdir(out / "snapshots")) == ["c_0000.akf", "p_0000.akf"]
    for table in ("report.json", "summary.txt", "moments.csv"):
        assert not (out / table).exists(), table


@pytest.mark.parametrize("name, drive_threads", [
    ("coupled-ramp", []), ("coupled-smoke-2d", ["angiosolve-drive_0"])])
def test_only_a_large_lattice_drives_ahead(monkeypatch, name, drive_threads):
    # a 256^2 field (2^16 cells) is checked in less time than a worker
    # thread takes to hand it over; a 32^4 field is not
    clean, started = threading.Thread.start, []

    def spy(self):
        started.append(self.name)
        clean(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    code, _ = run_scenario(_short_run(name))
    assert code == 0
    assert started == drive_threads


def test_drive_left_early_is_stopped_and_joined():
    made = realise(_short_run("coupled-ramp"))
    threads = threading.active_count()
    stream = made.stream()
    fields = scenarios._drive_ahead(stream)
    assert next(fields)[0] == 0.0
    assert threading.active_count() == threads + 1
    fields.close()
    assert threading.active_count() == threads
    assert stream.diag is None  # the drive was left before its end


def test_handoff_keeps_order_under_fast_thread_switches():
    # more pipelines than CPUs, read in turn while the interpreter switches
    # threads as often as it can: every item arrives once and in order, an
    # exception arrives as itself after the items before it, and every
    # worker is joined
    fault = ValueError("planted")

    def stream(n, raises):
        for i in range(n):
            yield (i, None, None)
        if raises:
            raise fault

    n_pipes, n_items = 2 * (os.cpu_count() or 1) + 2, 200
    interval = sys.getswitchinterval()
    threads = threading.active_count()
    sys.setswitchinterval(1e-6)
    try:
        pipes = [scenarios._drive_ahead(stream(n_items, k % 2 == 1))
                 for k in range(n_pipes)]
        got = [[] for _ in pipes]
        for _ in range(n_items):
            for seen, pipe in zip(got, pipes):
                seen.append(next(pipe)[0])
        for k, pipe in enumerate(pipes):
            if k % 2:
                with pytest.raises(ValueError) as raised:
                    next(pipe)
                assert raised.value is fault
            else:
                assert next(pipe, "end") == "end"
    finally:
        sys.setswitchinterval(interval)
    assert got == [list(range(n_items))] * n_pipes
    assert threading.active_count() == threads


def test_drive_runs_at_most_two_items_ahead_and_stops_when_closed():
    # however slowly the items are read, the worker holds at most the one
    # waiting to be handed out and the one it is making; once the reader
    # closes the pipeline it pulls nothing more, and the stream is closed
    pulls, closed = [], []

    def stream():
        try:
            for i in range(50):
                pulls.append(i)
                yield (i, None, None)
        finally:
            closed.append(True)

    fields = scenarios._drive_ahead(stream())
    for handed in range(1, 11):
        assert next(fields)[0] == handed - 1
        time.sleep(0.02)
        assert len(pulls) <= handed + 2, (handed, len(pulls))
    fields.close()
    assert closed == [True]
    pulled = len(pulls)
    assert pulled <= 12
    time.sleep(0.05)
    assert len(pulls) == pulled


def test_checked_run_never_imports_scipy():
    # scipy serves the referees only; importing it would cost a checked run
    # about half a second and 50 MB.  Nor does the import, or a checked run
    # of a 256^2 lattice, load the drive thread's executor, which only a run
    # on a larger lattice needs
    script = (
        "import sys\n"
        "import angiosolve\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "sc = angiosolve.load_shipped_scenario('coupled-ramp', "
        "overrides=('schedule.t_end=0.01',))\n"
        "assert angiosolve.run_scenario(sc)[0] == 0\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _collected(name):
    sc = _short_run(name)
    made = realise(sc)
    p_traj, c_traj, diag = made.drive()
    assert diag.converged
    return sc, made, p_traj, c_traj


@pytest.fixture(scope="module")
def short_coupled():
    """coupled-ramp cut to 20 steps, every node saved: (scenario, made, p, c)."""
    return _collected("coupled-ramp")


@pytest.mark.parametrize("name", _SHORT_RUNS)
def test_streamed_run_writes_what_a_collected_run_gives(tmp_path, name):
    # on the calling thread or pipelined, the checks and the snapshots see
    # the fields of a collected drive, in order, bit for bit
    sc, made, p_traj, c_traj = _collected(name)
    code, _ = run_scenario(sc, out_dir=str(tmp_path / "run"))
    assert code == 0
    ref = tmp_path / "ref"
    os.makedirs(ref)
    write_report(build_checks(sc, made.p0, p_traj, c_traj=c_traj, c0=made.c0),
                 str(ref / "report.json"))
    assert (tmp_path / "run" / "report.json").read_bytes() \
        == (ref / "report.json").read_bytes()
    snaps = tmp_path / "run" / "snapshots"
    assert len(os.listdir(snaps)) == 2 * len(p_traj) == 2 * (sc.schedule.n_steps + 1)
    for i, (p_field, c_field) in enumerate(zip(p_traj.fields, c_traj.fields)):
        for tag, field in (("p", p_field), ("c", c_field)):
            snapshots.save_field(field, str(ref / f"{tag}.akf"))
            assert (snaps / f"{tag}_{i:04d}.akf").read_bytes() \
                == (ref / f"{tag}.akf").read_bytes(), (tag, i)


def test_checks_take_each_snapshots_moments_once(short_coupled, monkeypatch):
    sc, made, p_traj, c_traj = short_coupled
    reduce_raw, calls = moments._reduce_raw, []

    def counted(*args, **kwargs):
        calls.append(1)
        return reduce_raw(*args, **kwargs)

    monkeypatch.setattr(moments, "_reduce_raw", counted)
    build_checks(sc, made.p0, p_traj, c_traj=c_traj, c0=made.c0)
    # p~, j and m of every saved snapshot, shared by gronwall and
    # speed_bound, plus p~0 and m0 for the envelope hypothesis
    assert len(p_traj) == 21
    assert len(calls) == 3 * len(p_traj) + 2


def test_checks_hold_one_derived_trajectory_at_a_time(short_coupled):
    # the comparison majorant and the energy sources would each be as large
    # as the saved p trajectory; both checks fold them one field at a time
    sc, made, p_traj, c_traj = short_coupled
    traj_bytes = sum(f.values.nbytes for f in p_traj.fields)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_checks(sc, made.p0, p_traj, c_traj=c_traj, c0=made.c0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * traj_bytes, (peak, traj_bytes)


def _count_transforms(monkeypatch):
    counts = {}
    for name in ("forward", "inverse"):
        original = getattr(HeatPlan, name)

        def counted(self, values, kind, out=None, _name=name, _fn=original):
            key = (_name, kind)
            counts[key] = counts.get(key, 0) + 1
            return _fn(self, values, kind, out=out)

        monkeypatch.setattr(HeatPlan, name, counted)
    return counts


def test_comparison_majorant_flows_product_data_by_its_factors(short_coupled,
                                                              monkeypatch):
    sc, made, p_traj, c_traj = short_coupled
    sc = dataclasses.replace(sc, checks=("comparison",))
    counts = _count_transforms(monkeypatch)
    (check,) = build_checks(sc, made.p0, p_traj, c_traj=c_traj, c0=made.c0)
    assert check.passed
    # one flow each of g and h per saved time after 0, each one transform
    # and one inverse, and no phase-lattice transform
    n = len(p_traj) - 1
    assert counts == {("forward", "spatial"): n, ("forward", "velocity"): n,
                      ("inverse", "spatial"): n, ("inverse", "velocity"): n}
    # data that are no product take the phase-lattice flows of p0
    counts.clear()
    vals = made.p0.values + np.roll(made.p0.values, (40, 40), axis=(0, 1))
    build_checks(sc, PhaseField(made.grid, vals), p_traj, c_traj=c_traj, c0=made.c0)
    assert counts == {("forward", "phase"): n, ("inverse", "phase"): n}


def test_short_axis_run_builds_no_k_squared_table(monkeypatch):
    # on 32^4 every plan of a checked run flows, and takes its gradient
    # energy, through per-axis matrices, so no plan asks for a multiplier
    # and none builds a |k|^2 table
    built = []
    clean = heat._k_squared

    def spy(*args):
        built.append(args[0])
        return clean(*args)

    monkeypatch.setattr(heat, "_k_squared", spy)
    code, _ = run_scenario(load_shipped_scenario(
        "coupled-smoke-2d", overrides=("schedule.save_stride=1",)))
    assert code == 0 and built == []


def _with_field(traj, k, vals):
    fields = list(traj.fields)
    fields[k] = PhaseField(traj.grid, vals, time_tag=fields[k].time_tag)
    return Trajectory(traj.times, fields, aux=traj.aux)


def test_planted_faults_fail_through_the_factored_paths(short_coupled):
    sc, made, p_traj, c_traj = short_coupled
    # one cell lifted above the majorant, which is below exp(rate t) sup p0
    k = 7
    cell = np.unravel_index(np.argmax(p_traj.fields[k].values), made.p0.values.shape)
    vals = p_traj.fields[k].values.copy()
    vals[cell] += 2.0 * float(made.p0.values.max())
    (check,) = build_checks(dataclasses.replace(sc, checks=("comparison",)),
                            made.p0, _with_field(p_traj, k, vals),
                            c_traj=c_traj, c0=made.c0)
    assert not check.passed
    assert check.worst_time == p_traj.times[k]
    assert check.worst_cell == tuple(int(i) for i in cell)
    # a doubled late snapshot gains energy (and source work) from nowhere
    k = len(p_traj) - 2
    (check,) = build_checks(dataclasses.replace(sc, checks=("energy",)),
                            made.p0, _with_field(p_traj, k, 2.0 * p_traj.fields[k].values),
                            c_traj=c_traj, c0=made.c0)
    assert not check.passed
    assert check.worst_time == p_traj.times[k]


# --------------------------------------------------------------------------
# each check pinned at its bound: a field planted at slack -1.5 tol fails
# and one at -0.5 tol passes, tol being the check's catalogue tolerance


def _catalogue(name, check):
    """The shipped scenario ``name`` realised, with the catalogue's folds of
    ``check`` alone, and their tolerance."""
    made = realise(load_shipped_scenario(name, (f"checks.names={check}",)))
    checks = scenarios._Checks(made.scenario, made.p0, made.c0)
    (tol,) = {fold.tol for folds, _ in checks._folds for fold in folds}
    return made, checks, tol


def _production_rate(made):
    sc = made.scenario
    return sc.params.alpha1 * velocity_profile(sc.grid, sc.params).sup_norm


@pytest.mark.parametrize("excess, passed", [(1.5, False), (0.5, True)])
def test_positivity_is_pinned_at_its_tolerance(excess, passed):
    made, checks, tol = _catalogue("pure-gaussian", "positivity")
    p0 = made.p0
    vals = p0.values.copy()
    cell = np.unravel_index(np.argmax(vals), vals.shape)
    vals[cell] = -excess * tol * float(vals.max())
    planted = PhaseField(made.grid, vals, time_tag=0.1)
    for field in (p0, planted):
        checks.add(field.time_tag, field, None, moments.moments_of(field))
    (check,) = checks.finish()
    assert check.passed is passed
    assert check.worst_slack == pytest.approx(-excess * tol, rel=1e-12)
    assert check.worst_cell == tuple(int(i) for i in cell)


@pytest.mark.parametrize("excess, passed", [(1.5, False), (0.5, True)])
def test_speed_bound_is_pinned_at_cauchy_schwarz(excess, passed):
    # p~ = 1, m = 9 and j = 6 = 2 sqrt(p~ m) everywhere but one cell, where
    # j = 2 (1 + 1e-6) sqrt(p~ m) on data small enough that the gap is
    # excess * tol of the largest j
    made, checks, tol = _catalogue("pure-gaussian", "speed_bound")
    size = excess * tol / 1e-6
    pt, m, j = (np.full(made.grid.spatial_shape, v) for v in (1.0, 9.0, 6.0))
    cell = (100,)
    pt[cell], m[cell] = size, 9.0 * size
    j[cell] = 2.0 * (1.0 + 1e-6) * np.sqrt(pt[cell] * m[cell])
    ms = moments.MomentSet(*(SpatialField(made.grid, v, time_tag=0.1) for v in (pt, j, m)))
    checks.add(0.1, made.p0, None, ms)
    (check,) = checks.finish()
    assert check.passed is passed
    assert check.worst_slack == pytest.approx(-excess * tol, rel=1e-6)
    assert check.worst_cell == cell


@pytest.mark.parametrize("excess, passed", [(1.5, False), (0.5, True)])
def test_gronwall_is_pinned_at_its_production_rate(excess, passed):
    # p0 scaled by exp(rate t) (1 + excess tol): the density's and its
    # marginal's envelopes grow at rate = alpha1 sup rho > 0 and are missed
    # by excess tol; the second moment's grows faster and is met
    made, checks, tol = _catalogue("coupled-ramp", "gronwall")
    rate, t = _production_rate(made), 0.1
    assert rate > 0.0
    grown = PhaseField(made.grid, made.p0.values
                       * (np.exp(rate * t) * (1.0 + excess * tol)), time_tag=t)
    for time, field in ((0.0, made.p0), (t, grown)):
        checks.add(time, field, made.c0, moments.moments_of(field))
    failed = {c.name for c in checks.finish() if not c.passed}
    assert failed == (set() if passed else {
        f"gronwall_{what}_{q}" for what in ("p", "pt") for q in ("q1", "q2", "qinf")})
    for c in checks.finish():
        if not c.name.startswith("gronwall_m"):
            assert c.worst_slack == pytest.approx(-excess * tol, rel=1e-6)


@pytest.mark.parametrize("excess, passed", [(1.5, False), (0.5, True)])
def test_comparison_is_pinned_at_a_products_majorant(excess, passed):
    # coupled-ramp's p0 is a product, so the check flows its majorant
    # exp(rate t) heat(p0, t) by the factors; the planted field is that
    # majorant, flowed here on the phase lattice, with one cell lifted by
    # excess tol of the majorant's largest sup
    made, checks, tol = _catalogue("coupled-ramp", "comparison")
    p0, rate, t = made.p0, _production_rate(made), 0.1
    assert rate > 0.0 and factor_xv(p0) is not None
    plan = HeatPlan(made.grid, made.scenario.params.sigma, "xv")
    vals = np.exp(rate * t) * plan.apply(p0.values, t, "phase")
    scale = max(float(p0.values.max()), float(vals.max()))
    cell = np.unravel_index(np.argmax(vals), vals.shape)
    vals[cell] += excess * tol * scale
    planted = PhaseField(made.grid, vals, time_tag=t)
    for time, field in ((0.0, p0), (t, planted)):
        checks.add(time, field, made.c0, moments.moments_of(field))
    (check,) = checks.finish()
    assert check.passed is passed
    assert check.worst_slack == pytest.approx(-excess * tol, rel=1e-4)
    assert check.worst_cell == tuple(int(i) for i in cell)


@pytest.mark.parametrize("excess, passed", [(1.5, False), (0.5, True)])
def test_c_bounds_is_pinned_at_its_tolerance(excess, passed):
    # the far field c_inf itself, with one cell of it (no role, so it may
    # be negative) at -excess tol sup c0: the depletion is zero elsewhere
    # and c stays below sup c0, so that cell is the worst slack
    made, checks, tol = _catalogue("coupled-ramp", "c_bounds")
    c0, t = made.c0, 0.1
    vals = HeatPlan(made.grid, made.scenario.params.d, "x").apply(c0.values, t, "spatial")
    cell = (int(np.argmin(vals)),)
    vals[cell] = -excess * tol * float(c0.values.max())
    for time, c in ((0.0, c0), (t, SpatialField(made.grid, vals, time_tag=t))):
        checks.add(time, made.p0, c, None)
    (check,) = checks.finish()
    assert check.passed is passed
    assert check.worst_slack == pytest.approx(-excess * tol, rel=1e-12)
    assert (check.worst_time, check.worst_cell) == (t, cell)


@pytest.fixture(scope="module")
def pure_gaussian_run():
    """pure-gaussian as shipped, checking energy alone: (made, p_traj)."""
    made = realise(load_shipped_scenario("pure-gaussian", ("checks.names=energy",)))
    p_traj, _, diag = made.drive()
    assert diag.converged and len(p_traj) == 21
    return made, p_traj


@pytest.mark.parametrize("excess, passed", [(1.5, False), (0.5, True)])
def test_energy_is_pinned_at_its_calibrated_tolerance(pure_gaussian_run, excess,
                                                      passed):
    # a constant kappa added to one odd-indexed saved field lifts its energy
    # by vol (2 kappa sum p + kappa^2 N) and leaves its gradient energy
    # alone; odd times are off the thinned grid the tolerance is calibrated
    # on, so the tolerance stays put.  kappa makes the balance miss by
    # excess tol of the largest energy at that time
    made, traj = pure_gaussian_run
    k, vol = 7, made.grid.cell_volume

    def energy(planted=None):
        checks = scenarios._Checks(made.scenario, made.p0, made.c0)
        (fold,), _ = checks._folds[0]
        for i, (t, field) in enumerate(zip(traj.times, traj.fields)):
            checks.add(t, field if planted is None or i != k else planted, None, None)
        (check,) = checks.finish()
        return check, fold

    clean, fold = energy()
    # the calibration rule: twice the largest gap, over the even-indexed
    # times, between the residual on every time and on every second one
    times, e, d, fw = (np.array(v, dtype=float) for v in (fold.times, fold.e, fold.d,
                                                          fold.fw))
    res = harness._energy_residual(times, e, d, fw, fold.sigma)
    thin = harness._energy_residual(times[::2], e[::2], d[::2], fw[::2], fold.sigma)
    tol = max(1e-10, 2.0 * float(np.max(np.abs(res[::2] - thin))) / e.max())
    assert clean.passed and clean.tolerance == tol > 1e-10
    lift = (clean.slacks[k] + excess * tol) * e.max()
    vals = traj.fields[k].values
    a, b = vol * vals.size, 2.0 * vol * float(vals.sum())
    kappa = (-b + np.sqrt(b * b + 4.0 * a * lift)) / (2.0 * a)
    check, _ = energy(PhaseField(made.grid, vals + kappa, time_tag=traj.times[k]))
    assert check.tolerance == pytest.approx(tol, rel=1e-9)
    assert check.passed is passed
    assert check.worst_slack == pytest.approx(-excess * tol, rel=1e-3)
    assert check.worst_time == traj.times[k]


@pytest.mark.parametrize("width, admitted", [(2.4, False), (2.6, True)])
@pytest.mark.parametrize("axis", ["x", "v"])
def test_gaussian_bump_guard_is_pinned_at_two_and_a_half_cells(width, admitted, axis):
    grid = _grid()  # h = 0.25 on both axes
    recipe = {"recipe": "gaussian_bump", "variance_x": 0.5, "variance_v": 0.5,
              f"variance_{axis}": (width * 0.25) ** 2}
    if admitted:
        build_initial_p(grid, recipe)
    else:
        with pytest.raises(ResolutionError, match="gaussian_bump is unresolved"):
            build_initial_p(grid, recipe)


def test_format_summary_lines():
    sc = load_shipped_scenario("zero")
    _, payload = run_scenario(sc)
    text = format_summary(sc, payload)
    lines = text.splitlines()
    assert lines[0] == "scenario zero (pure driver)"
    assert lines[1].startswith("lattice: 1x + 1v, 64^1 x 64^1")
    # one line for the iterate counts of all windows, not one entry each
    assert "converged: True after 50 iterations over 25 window(s): 25x2" in lines
    assert any(line == "check positivity: pass (worst slack 0.000e+00 "
                       "at t=0, cell (0, 0))" for line in lines)
    assert text.endswith("exit code: 0\n")
