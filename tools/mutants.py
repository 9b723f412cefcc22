"""Small mutants of the solver's bounds and rules, each run against the
tests that should catch it.

Each mutant replaces one piece of text, which must occur exactly once in
its file, in a temporary copy of the repository's code (``src/``, the
``tests/`` and ``pyproject.toml``, and the ``demos/`` and ``perfbench/``
some tests read), then runs ``pytest -x -q`` on the mutant's target test
modules there with one BLAS thread.  The mutant is killed when those tests
fail, and survives when they pass; so the script first runs all the
target modules once on an unmutated copy, and stops if they fail there.
It prints a table of the mutants, each killed (with the test that failed
first) or survived (with its targets), and exits 1 when any mutant
survived or could not be run.  It takes minutes, so it is not part of the tier-1
suite::

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str         # relative to the repository root
    original: str     # occurs exactly once in ``path``
    replacement: str
    targets: tuple    # test modules, relative to the repository root


MUTANTS = (
    Mutant("clamp_rel", "src/angiosolve/grid.py",
           "CLAMP_REL = 1e-12", "CLAMP_REL = 1e-9",
           ("tests/test_grid.py",)),
    Mutant("factor_rel", "src/angiosolve/grid.py",
           "FACTOR_REL = 1e-13", "FACTOR_REL = 1e-6",
           ("tests/test_grid.py",)),
    Mutant("left_node_coefficient", "src/angiosolve/stepping.py",
           "return lo if hi is lo else 0.5 * (lo + hi)", "return lo",
           ("tests/test_stepping.py", "tests/test_acceptance.py")),
    Mutant("left_rectangle_integral", "src/angiosolve/moments.py",
           "spacing * (y[1:] + y[:-1]) / 2.0", "spacing * y[:-1]",
           ("tests/test_moments.py", "tests/test_acceptance.py")),
    Mutant("linear_seed", "src/angiosolve/picard.py",
           "last + m * d1 + (0.5 * m * (m + 1.0)) * d2", "last + m * d1",
           ("tests/test_picard.py",)),
    Mutant("loose_stopping_rule", "src/angiosolve/picard.py",
           "if delta <= tol:", "if delta <= 1e3 * tol:",
           ("tests/test_picard.py", "tests/test_acceptance.py")),
    Mutant("bound_without_production_growth", "src/angiosolve/picard.py",
           "big_m = gamma * sup_pt0 * production_growth(alpha_rate, schedule.t_end)",
           "big_m = gamma * sup_pt0",
           ("tests/test_picard.py",)),
    Mutant("march_floor_clamps_everything", "src/angiosolve/stepping.py",
           'u = apply_sign(u, +1, f"{what} {i}", out=u)',
           "u = np.maximum(u, 0.0, out=u)",
           ("tests/test_stepping.py", "tests/test_cli.py")),
    Mutant("check_pass_rule_ten_tol", "src/angiosolve/harness.py",
           "passed=bool(worst >= -tol)", "passed=bool(worst >= -10 * tol)",
           ("tests/test_scenarios.py",)),
    Mutant("gronwall_rate_doubled", "src/angiosolve/harness.py",
           "float(np.exp(self.rate * (t - self.t0)))",
           "float(np.exp(2.0 * self.rate * (t - self.t0)))",
           ("tests/test_scenarios.py",)),
    Mutant("speed_bound_three_sqrt", "src/angiosolve/harness.py",
           "bound = 2.0 * np.sqrt(", "bound = 3.0 * np.sqrt(",
           ("tests/test_scenarios.py",)),
    Mutant("product_majorant_rate_doubled", "src/angiosolve/scenarios.py",
           "np.multiply.outer(math.exp(rate * tau) * plan_x.apply(",
           "np.multiply.outer(math.exp(2.0 * rate * tau) * plan_x.apply(",
           ("tests/test_scenarios.py",)),
    Mutant("bump_guard_one_cell", "src/angiosolve/scenarios.py",
           "if math.sqrt(variance) < 2.5 * spacing:",
           "if math.sqrt(variance) < 1.0 * spacing:",
           ("tests/test_scenarios.py",)),
    Mutant("c_bounds_scale_ten_sup", "src/angiosolve/harness.py",
           "self.sup_c0 = float(c0.values.max())",
           "self.sup_c0 = 10.0 * float(c0.values.max())",
           ("tests/test_scenarios.py",)),
    Mutant("energy_tol_twenty_est", "src/angiosolve/harness.py",
           "tol = max(1e-10, 2.0 * est)", "tol = max(1e-10, 20.0 * est)",
           ("tests/test_scenarios.py",)),
    Mutant("positivity_scale_ten_sup", "src/angiosolve/harness.py",
           "self.scale = max(self.scale, stats.sup)",
           "self.scale = max(self.scale, 10.0 * stats.sup)",
           ("tests/test_scenarios.py",)),
    Mutant("step_bound_ten_times", "src/angiosolve/stepping.py",
           "MAX_STEPS = 10 ** 6", "MAX_STEPS = 10 ** 7",
           ("tests/test_stepping.py",)),
    Mutant("forward_passes_reversed", "src/angiosolve/heat.py",
           "for ax in axes[-2::-1]:", "for ax in axes[:-1]:",
           ("tests/test_heat.py",)),
    Mutant("drive_three_requests_ahead", "src/angiosolve/scenarios.py",
           "for _ in range(2)]", "for _ in range(3)]",
           ("tests/test_scenarios.py",)),
    # one per call of the sign rule: the call replaced by its input
    Mutant("no_sign_rule_field_data", "src/angiosolve/grid.py",
           "apply_sign(values, sign, what)", "values",
           ("tests/test_grid.py",)),
    Mutant("no_sign_rule_product_factor", "src/angiosolve/grid.py",
           'apply_sign(vals, +1, f"{kind} factor")', "vals",
           ("tests/test_grid.py",)),
    Mutant("no_sign_rule_marginal_series", "src/angiosolve/moments.py",
           'apply_sign(series, +1, "marginal series (leading index: node)")',
           "series",
           ("tests/test_moments.py",)),
    Mutant("no_sign_rule_oracle_coefficient", "src/angiosolve/oracles.py",
           "apply_sign(a_vals, +1, \"the oracle's coefficient\")", "a_vals",
           ("tests/test_oracles.py",)),
    Mutant("no_sign_rule_production_rate", "src/angiosolve/picard.py",
           'apply_sign(c_vals, +1, f"{what} concentration")', "c_vals",
           ("tests/test_picard.py",)),
    Mutant("no_sign_rule_depletion", "src/angiosolve/picard.py",
           'apply_sign(chat, -1, f"depletion at node {i}",\n'
           "                             scale=float(c.max()))", "chat",
           ("tests/test_picard.py",)),
    Mutant("no_sign_rule_strict_track", "src/angiosolve/stepping.py",
           'apply_sign(arr, +1, f"strict track: {what} sample {k} "\n'
           '                                      "(use strict=False for signed '
           'coefficients)")', "arr",
           ("tests/test_stepping.py",)),
    Mutant("no_sign_rule_march_floor", "src/angiosolve/stepping.py",
           'apply_sign(u, +1, f"{what} {i}", out=u)', "u",
           ("tests/test_stepping.py",)),
)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for part in ("src", "tests", "demos", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _mutate(root: str, mutant: Mutant) -> None:
    path = os.path.join(root, mutant.path)
    with open(path) as fh:
        text = fh.read()
    count = text.count(mutant.original)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.original!r} occurs {count} "
                         f"times in {mutant.path}, not once")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.original, mutant.replacement))


def _pytest(targets, mutant=None):
    """pytest's exit code on ``targets`` in a fresh copy of the code, with
    ``mutant`` applied when given, and the id of the first failed test (or
    "")."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(tmp)
        if mutant is not None:
            _mutate(tmp, mutant)
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *targets],
            cwd=tmp, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    return proc.returncode, failed[0] if failed else ""


def main() -> int:
    # a failure is a kill only where the unmutated copy passes
    targets = sorted({t for m in MUTANTS for t in m.targets})
    code, failed = _pytest(targets)
    if code != 0:
        sys.stderr.write(f"the unmutated copy fails {failed or ' '.join(targets)}\n")
        return 2
    width = max(len(m.name) for m in MUTANTS)
    outcomes = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        code, failed = _pytest(mutant.targets, mutant)
        outcome = {0: "survived", 1: "killed"}.get(code, "error")
        outcomes.append(outcome)
        sys.stdout.write(f"{mutant.name.ljust(width)}  {outcome:8}  "
                         f"{time.perf_counter() - start:6.1f} s  "
                         f"{failed or ' '.join(mutant.targets)}\n")
        sys.stdout.flush()
    killed = outcomes.count("killed")
    sys.stdout.write(f"{killed} of {len(MUTANTS)} killed\n")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
