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

import numpy as np
import pytest

import dualcurl
from dualcurl import curlcurl as cc
from dualcurl import galerkin
from dualcurl.operators2d import _flat, _incidence


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
    # the gate subtracts `M1 @ E10 @ F`, left to right, from the dual dofs:
    # an np.matrix or a column would broadcast that into a meaningless norm
    from scipy import sparse

    for N in (3, 16, 40):
        for rule in ("lobatto", "gauss"):
            disc = cc.Discretization(N, rule)
            gram = disc.gram
            assert isinstance(gram.M1, sparse.sparray), type(gram.M1)
            assert isinstance(disc.E10, sparse.sparray), type(disc.E10)
            f = np.cos(np.arange((N + 1) ** 2.0)).reshape(N + 1, N + 1)
            ref = gram.M1 @ disc.E10 @ _flat(f)
            assert type(ref) is np.ndarray and ref.shape == (2 * N * (N + 1),), (N, rule)
            want = _flat(gram._mass1(_incidence(f)))
            assert np.linalg.norm(ref - want) <= 1e-13 * np.linalg.norm(want), (N, rule)
            del disc, gram  # one degree's masses alive at a time


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
