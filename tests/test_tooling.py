"""The test suite's own settings: a failing test is reported, not hidden."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_planted(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_ends_in_a_failure_report(tmp_path):
    """On a failure hypothesis imports modules that warn on import; under the
    suite's ``filterwarnings = error`` that must not become an INTERNALERROR."""
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1 and "FAILED test_planted.py::test_planted" in out, out
