"""The command line front end: subcommands, exit codes, artifacts."""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import Future

import pytest

import angiosolve
from angiosolve import HeatPlan, cli
from angiosolve.cli import main

from test_scenarios import _PURE_TEXT


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(_PURE_TEXT)
    return str(path)


def test_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for name in ("positivity", "comparison", "gronwall", "energy",
                 "speed_bound", "c_bounds"):
        assert name in out
    assert out.startswith("positivity ")


def test_describe_shipped_scenario(capsys):
    assert main(["describe", "zero"]) == 0
    out = capsys.readouterr().out
    assert "name: zero" in out
    assert "driver: pure" in out
    assert "schedule: t_end=0.1 dt=0.002 save_stride=10 (50 steps)" in out
    assert "checks: positivity, comparison, gronwall, energy, speed_bound" in out


def test_describe_applies_overrides(capsys):
    assert main(["describe", "zero", "--override", "schedule.dt=0.004"]) == 0
    assert "dt=0.004" in capsys.readouterr().out


def test_check_builds_without_running(capsys, tiny_cfg):
    assert main(["check", "zero", tiny_cfg]) == 0
    out = capsys.readouterr().out
    assert "zero: ok (pure driver, 50 steps" in out
    assert "tiny: ok (pure driver, 10 steps" in out


def test_check_reports_edge_mass(capsys, tiny_cfg):
    assert main(["check", tiny_cfg, "--override",
                 "initial_p.center_x=7.0"]) == 0
    assert "warning: boundary mass fraction" in capsys.readouterr().out


def test_run_shipped_zero(capsys):
    assert main(["run", "zero"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario zero (pure driver)")
    assert "exit code: 0" in out


def test_run_writes_artifacts(capsys, tmp_path, tiny_cfg):
    out_root = tmp_path / "runs"
    assert main(["run", tiny_cfg, "--out", str(out_root)]) == 0
    run_dir = out_root / "tiny"
    with open(run_dir / "report.json") as fh:
        assert json.load(fh)["all_passed"] is True
    assert (run_dir / "moments.csv").exists()
    assert (run_dir / "summary.txt").read_text().endswith("exit code: 0\n")
    assert sorted(p.name for p in (run_dir / "snapshots").iterdir()) \
        == [f"p_{i:04d}.akf" for i in range(3)]


def test_run_parallel_jobs(capsys, tiny_cfg):
    assert main(["run", "zero", tiny_cfg, "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "scenario zero (pure driver)" in out
    assert "scenario tiny (pure driver)" in out


def test_run_outputs_are_byte_identical_inline_and_in_a_pool(capsys, tmp_path):
    # identical configs give identical files and stdout, whichever way run:
    # coupled-ramp on the FFT path, pure-gaussian marched on its factors,
    # zero and the 32^4 coupled-smoke-2d on per-axis matrix products (two
    # or more scenarios a call, so --jobs 2 is a pool)
    runs = {"ramp": ["run", "zero", "coupled-ramp", "pure-gaussian", "--override",
                     "schedule.t_end=0.02", "--override", "schedule.save_stride=5"],
            "smoke": ["run", "coupled-smoke-2d", "zero", "--override",
                      "schedule.t_end=0.004"]}
    outs = []
    for tag, jobs in (("A", []), ("B", ["--jobs", "2"])):
        for name, argv in runs.items():
            assert main(argv + jobs + ["--out", str(tmp_path / tag / name)]) == 0
        outs.append(capsys.readouterr().out)

    def files(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    a = files(tmp_path / "A")
    assert "ramp/coupled-ramp/report.json" in a and "ramp/zero/moments.csv" in a
    assert "ramp/pure-gaussian/snapshots/p_0004.akf" in a
    assert "smoke/coupled-smoke-2d/report.json" in a
    assert a == files(tmp_path / "B")
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name", ["../escaped", "ABSOLUTE", "a/b", "..", ".", ""],
                         ids=["parent", "absolute", "nested", "dotdot", "dot", "empty"])
def test_a_name_that_is_no_single_path_entry_is_refused(capsys, tmp_path, name):
    # run --out writes under <root>/<name>: a name that climbs out of the
    # root, replaces it or nests inside it is a configuration error for
    # every subcommand, and the refused run writes nothing anywhere
    name = str(tmp_path / "escaped") if name == "ABSOLUTE" else name
    cfg = tmp_path / "cfgs" / "bad.cfg"
    cfg.parent.mkdir()
    cfg.write_text(_PURE_TEXT.replace("name = tiny", f"name = {name}"))
    root = tmp_path / "cfgs" / "runs"
    for argv in (["run", str(cfg), "--out", str(root)], ["check", str(cfg)],
                 ["describe", str(cfg)]):
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.cfg", "cfgs"]


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["serial", "pool"])
def test_run_out_refuses_two_scenarios_of_one_name(capsys, tmp_path, jobs):
    # two nameless configs are both "unnamed" and would write one directory;
    # the call is refused before any run starts
    configs = []
    for stem in ("a", "b"):
        path = tmp_path / f"{stem}.cfg"
        path.write_text(_PURE_TEXT.replace("name = tiny\n", ""))
        configs.append(str(path))
    root = tmp_path / "runs"
    assert main(["run", *configs, "--out", str(root), *jobs]) == 2
    captured = capsys.readouterr()
    assert "unnamed" in captured.err and captured.out == ""
    assert not root.exists()


def _two_configs(tmp_path):
    configs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.cfg"
        path.write_text(_PURE_TEXT.replace("name = tiny", f"name = {name}"))
        configs.append(str(path))
    return configs


def _outputs(run_dir):
    return sorted(p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*")
                  if p.is_file())


def _plant_keepers(run_dir):
    # files a run never writes under these names are left alone
    for name in ("notes.txt", "snapshots/p_0001.akf.bak", "snapshots/q_0001.akf"):
        (run_dir / name).write_text("kept")


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["serial", "pool"])
def test_a_rerun_into_one_out_directory_keeps_none_of_the_last_runs_outputs(
        capsys, tmp_path, jobs):
    # a run at stride 1 leaves 11 snapshots; a rerun at the shipped stride
    # writes 3, and the stride-1 ones must not stay beside its 3-row table
    configs, root = _two_configs(tmp_path), tmp_path / "runs"
    stride_one = ["--override", "schedule.save_stride=1"]
    assert main(["run", *configs, "--out", str(root), *stride_one, *jobs]) == 0
    for name in ("a", "b"):
        assert len(list((root / name / "snapshots").iterdir())) == 11
        _plant_keepers(root / name)
    assert main(["run", *configs, "--out", str(root), *jobs]) == 0
    for name in ("a", "b"):
        run_dir = root / name
        assert _outputs(run_dir) == sorted(
            ["moments.csv", "notes.txt", "report.json", "summary.txt",
             "snapshots/p_0001.akf.bak", "snapshots/q_0001.akf"]
            + [f"snapshots/p_{i:04d}.akf" for i in range(3)])
        assert len((run_dir / "moments.csv").read_text().splitlines()) == 1 + 3


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["serial", "pool"])
def test_a_rerun_stopped_on_a_violated_invariant_leaves_no_earlier_tables(
        capsys, monkeypatch, tmp_path, jobs):
    # the rerun stops mid-stream (exit 5) after writing some snapshots of
    # its own: the earlier run's verdicts, tables and snapshots are gone,
    # so nothing in the directory claims "exit code: 0".  Pool workers are
    # forked, so they inherit the planted fault
    configs, root = _two_configs(tmp_path), tmp_path / "runs"
    assert main(["run", *configs, "--out", str(root), "--override",
                 "schedule.save_stride=1", *jobs]) == 0
    for name in ("a", "b"):
        _plant_keepers(root / name)
    clean, calls = HeatPlan.apply, []

    def faulty(self, values, tau, kind):
        out = clean(self, values, tau, kind)
        calls.append(tau)
        # the 41st flow is the x flow of the fourth window's first step,
        # after three windows' fields were written
        if len(calls) == 41:
            out = out.copy()
            out[17] = -1e-3 * float(out.max())
        return out

    monkeypatch.setattr(HeatPlan, "apply", faulty)
    assert main(["run", *configs, "--out", str(root), "--override",
                 "schedule.save_stride=1", *jobs]) == 5
    assert "must be >= 0" in capsys.readouterr().err
    # serially the 41st flow falls in a's run; each pool worker counts its
    # own flows, so there both runs stop
    for name in ("a", "b") if jobs else ("a",):
        files = _outputs(root / name)
        snaps = [f for f in files if f.startswith("snapshots/p_") and f.endswith(".akf")]
        assert 1 <= len(snaps) < 11
        assert snaps == [f"snapshots/p_{i:04d}.akf" for i in range(len(snaps))]
        assert sorted(set(files) - set(snaps)) == [
            "notes.txt", "snapshots/p_0001.akf.bak", "snapshots/q_0001.akf"]


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["serial", "pool"])
@pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-last"])
@pytest.mark.parametrize("fault, code, label, message", [
    ("sign", 5, "error: bad: ", "must be >= 0"),
    ("config", 2, "configuration error: bad: ", "mean square speed >= 1")])
def test_a_run_that_stops_costs_the_call_its_code_not_the_other_runs(
        capsys, monkeypatch, tmp_path, jobs, bad_first, fault, code, label, message):
    # the bad run stops on a fault planted in the flows of its diffusivity
    # alone (exit 5), or on the gronwall check's refusal of initial data
    # centred at speed 0, which only the run finds (exit 2, labelled as a
    # configuration error); zero still runs in either order, serially or in
    # the pool (whose forked workers inherit the fault), writes all its
    # outputs and prints its summary, and the error line names the run
    bad = tmp_path / "bad.cfg"
    text = _PURE_TEXT.replace("name = tiny", "name = bad")
    if fault == "sign":
        text = text.replace("sigma = 0.05", "sigma = 0.07")
    else:
        text = text.replace("center_v = 1.3", "center_v = 0.0")
    bad.write_text(text)
    assert main(["check", str(bad)]) == 0
    capsys.readouterr()
    clean = HeatPlan.apply

    def faulty(self, values, tau, kind):
        out = clean(self, values, tau, kind)
        if self.diffusivity == 0.07 and tau > 0.0:
            out = out.copy()
            out[17] = -1e-3 * float(out.max())
        return out

    monkeypatch.setattr(HeatPlan, "apply", faulty)
    configs = [str(bad), "zero"] if bad_first else ["zero", str(bad)]
    root = tmp_path / "runs"
    assert main(["run", *configs, "--out", str(root), *jobs]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(label) and message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out.startswith("scenario zero (pure driver)")
    assert captured.out.count("exit code:") == 1
    assert (root / "zero" / "summary.txt").read_text() + "\n" == captured.out
    assert {"moments.csv", "report.json"} <= set(_outputs(root / "zero"))
    assert not (root / "bad" / "report.json").exists()
    # a config that does not resolve still refuses the call before any run
    other = tmp_path / "other"
    assert main(["run", "zero", str(tmp_path / "missing.cfg"), "--out", str(other),
                 *jobs]) == 2
    assert capsys.readouterr().out == "" and not other.exists()


@pytest.mark.parametrize("override, message", [
    ("params.epsilon=0.001", "below two cell widths"),
    ("params.v0=9", "v0 = (9.0,) lies outside the open velocity box")],
    ids=["narrow", "outside"])
def test_every_subcommand_refuses_a_velocity_profile_run_refuses(capsys, tmp_path,
                                                                 override, message):
    # rho_eps is sampled when the config is loaded, so the dry run and
    # describe cannot admit a profile the lattice cannot hold; nothing is
    # written
    argv = ["coupled-ramp", "--override", override]
    root = tmp_path / "runs"
    for command in (["check"], ["describe"], ["run", "--out", str(root)]):
        assert main(command + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: [params] ")
        assert message in captured.err
    assert not root.exists()


@pytest.mark.parametrize("alpha1, code", [("1000", 2), ("600", 0)])
def test_a_production_bound_beyond_the_largest_float_is_refused(capsys, tmp_path,
                                                                alpha1, code):
    # exp(alpha1 * sup rho * t_end) is about exp(1128) at alpha1 = 1000 and
    # exp(677) at 600: the first is refused at load by every subcommand and
    # writes nothing, the second is admitted
    override = ["--override", f"params.alpha1={alpha1}"]
    assert main(["check", "coupled-ramp", *override]) == code
    assert main(["describe", "coupled-ramp", *override]) == code
    if code:
        root = tmp_path / "runs"
        assert main(["run", "coupled-ramp", *override, "--out", str(root)]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not root.exists()
    else:
        assert "coupled-ramp: ok" in capsys.readouterr().out


@pytest.mark.parametrize("dt, reason", [
    # 0.1 / 1e-320 overflows to inf: no integer step count exists
    ("1e-320", "is no finite number of steps"),
    # 0.1 / 1e-300 is a finite count far past the bound
    ("1e-300", "is 1e+299 steps, more than the 1000000 a run may take"),
], ids=["overflow", "bound"])
def test_every_subcommand_refuses_a_step_count_no_run_can_take(capsys, tmp_path,
                                                               dt, reason):
    # refused before any run starts (check first, so that a copy that
    # admitted the count would stop before ``run``): one line on stderr,
    # exit 2, nothing written
    override = ["--override", f"schedule.dt={dt}"]
    root = tmp_path / "runs"
    for command in (["check"], ["describe"], ["run", "--out", str(root)]):
        assert main(command + ["zero", *override]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: t_end = 0.1 over dt = {dt} {reason}\n"
    assert not root.exists()


def test_an_output_directory_does_not_hide_the_shipped_scenario(
        capsys, tmp_path, monkeypatch):
    # ``run zero --out .`` leaves a directory named zero; the name still
    # means the shipped scenario, never that directory
    monkeypatch.chdir(tmp_path)
    assert main(["run", "zero", "--out", "."]) == 0
    assert (tmp_path / "zero").is_dir()
    capsys.readouterr()
    assert main(["run", "zero"]) == 0
    assert "zero" in capsys.readouterr().out
    assert main(["check", "zero"]) == 0
    assert capsys.readouterr().out.startswith("zero: ok (pure driver, 50 steps")
    assert main(["describe", "zero"]) == 0
    assert capsys.readouterr().out.startswith("name: zero\n")


class _RecordingPool:
    """Stands in for the process pool: records its size, runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def _cpus(monkeypatch, machine, usable):
    # the machine's CPU count and the affinity set of this process
    monkeypatch.setattr(cli.os, "cpu_count", lambda: machine)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(usable)),
                        raising=False)


def test_run_jobs_capped_by_scenarios_and_cpus(capsys, monkeypatch, tiny_cfg):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    _cpus(monkeypatch, 4, 3)
    assert main(["run", "zero", tiny_cfg, "--jobs", "8"]) == 0  # 2 scenarios
    assert main(["run", "zero", tiny_cfg, "zero", tiny_cfg, "--jobs", "8"]) == 0
    assert _RecordingPool.sizes == [2, 3]
    _cpus(monkeypatch, 4, 1)
    assert main(["run", "zero", tiny_cfg, "--jobs", "2"]) == 0  # runs inline
    assert _RecordingPool.sizes == [2, 3]
    assert capsys.readouterr().out.count("exit code: 0") == 8


def test_run_jobs_capped_by_the_cpus_this_process_may_use(capsys, monkeypatch,
                                                          tiny_cfg):
    # under taskset -c 0 the machine still counts two CPUs, but this process
    # may use one: two jobs run inline, not in a pool of two on one CPU
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["run", "zero", tiny_cfg, "--jobs", "2"]) == 0
    assert _RecordingPool.sizes == []
    assert capsys.readouterr().out.count("exit code: 0") == 2


def test_run_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-1"):
        assert main(["run", "zero", "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err


def test_run_returns_worst_exit_code(capsys, tiny_cfg):
    # the non-convergent run exits 3 and must win over the clean zero run
    code = main(["run", "zero", tiny_cfg, "--override", "picard.k_max=2",
                 "--override", "params.gamma=40.0"])
    assert code == 3


def test_run_propagates_check_failure(capsys, tiny_cfg):
    code = main(["run", tiny_cfg,
                 "--override", "schedule.dt=0.05",
                 "--override", "schedule.save_stride=1",
                 "--override", "initial_p.mass=1e-8",
                 "--override", "checks.names=energy"])
    assert code == 4
    assert "check energy: fail" in capsys.readouterr().out


def test_run_stopped_on_a_violated_invariant_exits_5(capsys, monkeypatch):
    # a heat flow that comes back with an entry of -1e-3 * sup is no
    # round-off: the march's floor stops the run, which is neither a
    # configuration problem (2) nor a failed check (4)
    clean = HeatPlan.apply
    calls = []

    def faulty(self, values, tau, kind):
        out = clean(self, values, tau, kind)
        calls.append(tau)
        if len(calls) == 3:
            out = out.copy()
            out[17] = -1e-3 * float(out.max())
        return out

    monkeypatch.setattr(HeatPlan, "apply", faulty)
    assert main(["run", "pure-gaussian", "--override", "schedule.t_end=0.02"]) == 5
    # the third flow is the x flow of the first iterate's step 2 (each step
    # flows the x factor, then the v factor)
    assert ("error: pure-gaussian: x factor of the marched density at step 2 "
            "must be >= 0" in capsys.readouterr().err)


def test_run_tol_override_reaches_the_iteration(capsys, tiny_cfg):
    import re

    def iterations(*argv):
        assert main(["run", tiny_cfg, *argv]) == 0
        return int(re.search(r"after (\d+) iterations",
                             capsys.readouterr().out).group(1))

    assert iterations("--override", "picard.tol=0.5") < iterations()


def test_bad_inputs_exit_2(capsys):
    assert main(["describe", "no-such-scenario"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["run", "zero", "--override", "grid.n_x=verymany"]) == 2
    assert main(["run", "zero", "--override", "nodots"]) == 2
    assert main(["check", "/nonexistent/path.cfg"]) == 2
    # negative initial data are refused before anything is driven
    for override in ("initial_p.mass=-1", "initial_c.mass=-1"):
        assert main(["check", "coupled-smoke-2d", "--override", override]) == 2
    assert main(["check", "coupled-ramp", "--override", "initial_c.k_inf=-1"]) == 2


@pytest.mark.parametrize("override", ["DEFAULT.x=1", "foo .x=1",
                                      "params.sigma=5%", "params.sigma=%(x)s"])
def test_override_refusals_are_configuration_errors(capsys, override):
    # configparser's own refusals (reserved or unknown section, bad
    # interpolation) come back as configuration errors, not tracebacks
    assert main(["check", "zero", "--override", override]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["picard.init=midpoint", "picard.k_max=1",
                                      "picard.tol=2"])
def test_check_rejects_what_run_rejects(capsys, override):
    # the dry run applies the drivers' own option rule, so it cannot say
    # "ok" to a config every run exits 2 on
    assert main(["check", "zero", "--override", override]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and override.split(".")[1].split("=")[0] in err
    assert main(["run", "zero", "--override", override]) == 2


@pytest.mark.parametrize("config, override, key", [
    ("zero", "scenario.nmae=x", "nmae"),
    ("zero", "checks.nmaes=energy", "nmaes"),
    ("pure-gaussian", "initial_p.centre_x=1.0", "centre_x"),
    ("zero", "initial_p.mass=2.0", "mass"),
    ("coupled-ramp", "initial_c.k_infty=2.0", "k_infty"),
    ("coupled-ramp", "params.use_vector_j=yes", "use_vector_j"),
], ids=["scenario", "checks", "initial_p", "zero-recipe", "initial_c", "params"])
def test_check_refuses_keys_nothing_reads(capsys, config, override, key):
    # a misspelt key, or one the named recipe does not read, would silently
    # leave its default in place
    assert main(["check", config, "--override", override]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


@pytest.mark.skipif(shutil.which("angiosolve") is None,
                    reason="console script not installed")
def test_console_script_smoke():
    proc = subprocess.run(["angiosolve", "describe", "pure-gaussian"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "name: pure-gaussian" in proc.stdout


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a short coupled 2+2 run, whose heat flows and gradient energies are
    # BLAS matrix products, in two processes: one BLAS thread, and BLAS's
    # default pool (one thread per CPU); every output file keeps its bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(angiosolve.__file__)))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, base.get("PYTHONPATH"))))
    outs = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"threads-{len(threads)}"
        proc = subprocess.run(
            [sys.executable, "-m", "angiosolve.cli", "run", "coupled-smoke-2d",
             "--override", "schedule.t_end=0.01", "--override", "schedule.save_stride=1",
             "--out", str(out)],
            env={**base, **threads}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out / "coupled-smoke-2d")
    one, pool = outs
    names = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(pool) for p in pool.rglob("*") if p.is_file())
    assert {"report.json", "moments.csv"} <= {str(n) for n in names}
    assert sum(n.parts[0] == "snapshots" for n in names) == 12   # p and c, 6 nodes
    for name in names:
        assert (one / name).read_bytes() == (pool / name).read_bytes(), name


def test_module_entry_smoke():
    # the module's __main__ path, which an installed console script shares
    proc = subprocess.run([sys.executable, "-m", "angiosolve.cli", "describe",
                           "pure-gaussian"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "name: pure-gaussian" in proc.stdout
