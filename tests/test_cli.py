"""The command line front end: subcommands, exit codes, artifacts."""

import json
import shutil
import subprocess
import sys
from concurrent.futures import Future

import pytest

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


def test_run_jobs_capped_by_scenarios_and_cpus(capsys, monkeypatch, tiny_cfg):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert main(["run", "zero", tiny_cfg, "--jobs", "8"]) == 0  # 2 scenarios
    assert main(["run", "zero", tiny_cfg, "zero", tiny_cfg, "--jobs", "8"]) == 0
    assert _RecordingPool.sizes == [2, 3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert main(["run", "zero", tiny_cfg, "--jobs", "2"]) == 0  # runs inline
    assert _RecordingPool.sizes == [2, 3]
    assert capsys.readouterr().out.count("exit code: 0") == 8


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
    assert "error: marched marginal at step 1 must be >= 0" in capsys.readouterr().err


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


def test_module_entry_smoke():
    # the module's __main__ path, which an installed console script shares
    proc = subprocess.run([sys.executable, "-m", "angiosolve.cli", "describe",
                           "pure-gaussian"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "name: pure-gaussian" in proc.stdout
