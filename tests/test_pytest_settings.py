"""The suite's warning filters, as pytest reads them from pyproject.toml,
run on a generated test file in a separate pytest process."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

GENERATED = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(n):
    assert n < 0


def test_other_deprecation():
    warnings.warn("a deprecated call", DeprecationWarning)
'''


def test_failing_property_test_fails_only_itself(tmp_path):
    # on a failure hypothesis may print a patch through libcst, whose import
    # warns that mypy_extensions.TypedDict is deprecated; that warning must
    # not abort the session, and any other DeprecationWarning fails its test
    (tmp_path / "test_generated.py").write_text(GENERATED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "test_generated.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "2 failed" in proc.stdout, output
