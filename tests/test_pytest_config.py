"""The pytest settings in pyproject.toml: a failing test is reported, and the session goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # On a failure hypothesis loads its patch writer, which imports libcst and,
    # through it, mypy_extensions, whose TypedDict warns that it is deprecated.
    # Under filterwarnings = ["error"] alone that warning ends the session with
    # INTERNALERROR (exit 3) before the passing test runs.
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                           "test_two.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
    assert proc.returncode == 1
