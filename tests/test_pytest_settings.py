"""The suite's settings, as pytest reads them from pyproject.toml, each run
in a separate pytest process: the warning filters on a generated test file,
and a run of a test module that leaves its checkout as it found it."""

import shutil
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


def _files(root):
    """Every file and directory under root, relative, but the bytecode caches."""
    return {p.relative_to(root) for p in root.rglob("*") if "__pycache__" not in p.parts}


def test_a_run_writes_nothing_in_the_checkout(tmp_path):
    # pytest's cache, the benchmark plugin's store and Hypothesis's directory
    # stay out of the checkout; only the interpreter's __pycache__ is written
    root = PYPROJECT.parent
    for name in ("src", "tests"):
        shutil.copytree(root / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(PYPROJECT, tmp_path)
    before = _files(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "tests/test_operators2d.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(map(str, _files(tmp_path) - before)) == []
