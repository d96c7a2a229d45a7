"""The program names the benchmark in perfbench/ binds: the members its
tracer wraps, the modules it reads after `import dualcurl` and the dense
product its in-process gate evaluates.  A traced benchmark run crashes
without them, and no other test here runs one; when the benchmark stops
binding an internal, its check here goes with it.  Each workload of
BENCHMARK.json also runs end to end, untraced, at its smoke size, so a
change that breaks the benchmark's correctness gate fails here."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dualcurl
from dualcurl import curlcurl as cc
from dualcurl import galerkin


def test_gramset_members_the_tracer_wraps():
    members = galerkin.GramSet.__dict__
    assert callable(members["__init__"])
    for name in ("M2_dual", "M1_dual"):
        assert isinstance(members[name], property), name
    for name in ("solve_mass0", "solve_mass1"):
        assert callable(members[name]), name


def test_discretization_defines_its_own_init():
    assert callable(cc.Discretization.__dict__["__init__"])


def test_import_loads_the_cli():
    code = "import dualcurl, sys; print('dualcurl.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cc.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "True"


def test_dense_gate_product_runs():
    disc = cc.Discretization(3)
    assert (disc.gram.M1 @ disc.E10).shape == (24, 16)


def test_bound_names_exist():
    assert dualcurl.Discretization is cc.Discretization
    assert dualcurl.Discretization(3, rule="gauss").degree == 3
    assert isinstance(cc.AnalyticField, type)


ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_the_gate(workload, tmp_path):
    # the benchmark writes its results beside itself, so it runs from a copy
    # and a test run leaves the checkout as it found it
    skip = shutil.ignore_patterns("__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0.3", "--size", "smoke"]
    run = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True, run.stdout
