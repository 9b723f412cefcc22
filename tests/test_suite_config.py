"""The test suite's own configuration."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PLANTED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5, deadline=None)
@given(st.integers())
def test_planted_property_failure(n):
    assert n != n


def test_after_the_failure():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis reports a failing example through modules that emit a
    # DeprecationWarning; with every warning an error, that must not turn
    # into an INTERNALERROR that skips the tests after it
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_planted.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
