"""Tests of the benchmark itself, at smoke size.

Kept out of the tier-1 suite (the file name does not match test_*.py);
run them with

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.use_source_tree()

import fields  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import run_rounds  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=common.ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if m["unit"] in ("s", "ms") or not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        layers = {name.split(".", 1)[0] for name in result["metrics"]}
        assert set(spans.LAYERS) <= layers


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("many-rhs", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _corrupt(rng):
    """A seeded exact field whose scalar part is off by a constant."""
    good = fields.exact_field(rng)
    return type(good)(Ex=good.Ex, Ey=good.Ey,
                      scalar=lambda x, y: good.scalar(x, y) + 1e-3,
                      vector_curl=good.vector_curl)


@pytest.mark.parametrize("name", ("sweep-high-N", "many-rhs"))
def test_corrupted_input_counts_as_failure(name):
    workload = workloads.make(name, "smoke", make_field=_corrupt)
    tally = workloads.Tally()
    run_rounds(workload, 7, tally, rounds=1)
    size = workloads.SIZES["smoke"]
    if name == "sweep-high-N":
        expected = len(size["sweep_degrees"])      # every degree is gated on errors
    else:
        expected = -(-size["rhs_per_round"] // size["error_every"])   # sampled ones
    assert tally.failed == expected > 0
    assert tally.attempted >= tally.failed


def test_uncorrupted_input_passes():
    tally = workloads.Tally()
    run_rounds(workloads.make("many-rhs", "smoke"), 7, tally, rounds=1)
    assert tally.failed == 0 and tally.attempted == workloads.SIZES["smoke"]["rhs_per_round"]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    proc = subprocess.run(
        [sys.executable, "-m", "dualcurl.cli"]
        + workloads.PaperCli(workloads.SIZES["smoke"]).cli_args(out),
        cwd=common.ROOT, env=common.child_env(), capture_output=True, text=True,
        timeout=120)
    return proc, out


def _gate(proc_code, stdout, out):
    return workloads.check_cli_outputs(proc_code, stdout, out,
                                       workloads.SIZES["smoke"]["cli_max_degree"])[0]


def _edit(src, dst, name, fn):
    shutil.copytree(src, dst)
    path = dst / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(lines)) + "\n")
    return dst


def test_cli_gates_pass_on_real_output(cli_run):
    proc, out = cli_run
    assert _gate(proc.returncode, proc.stdout, out) == []


def test_cli_gates_fire(cli_run, tmp_path):
    proc, out = cli_run

    def bump_norm(lines):   # N=2 norm off by 1e-6
        cells = lines[2].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        return lines[:2] + [",".join(cells)] + lines[3:]

    def flat_errors(lines):  # errF(N=3) = errF(N=2)
        lines[3] = lines[2].replace("2,", "3,", 1)
        return lines

    def big_fig2(lines):
        return lines[:1] + ["1e-9," + lines[1].split(",", 1)[1]] + lines[2:]

    cases = {
        "table1": _edit(out, tmp_path / "t1", "table1.csv", bump_norm),
        "fig3": _edit(out, tmp_path / "f3", "fig3.csv", flat_errors),
        "fig2": _edit(out, tmp_path / "f2", "fig2_xi.csv", big_fig2),
    }
    for name, corrupted in cases.items():
        assert _gate(0, proc.stdout, corrupted), name
    assert _gate(1, proc.stdout, out)
    assert _gate(0, proc.stdout.replace("PASS  trace", "FAIL  trace"), out)
    assert _gate(0, "", out)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |       1000 |     numpy",
        "import time:        50 |       1050 |   dualcurl.basis1d",
        "import time:        20 |         20 |       scipy",
        "import time:        30 |        300 |     scipy.linalg",
        "import time:        40 |        340 |   dualcurl.galerkin",
        "import time:        10 |       1400 | dualcurl",
    ])
    total, deps = workloads.parse_importtime(text)
    assert total == pytest.approx(1400e-6)
    assert deps == pytest.approx(1300e-6)


def test_tracer_wraps_every_binding_and_restores_them():
    import dualcurl
    from dualcurl import cli, curlcurl, galerkin

    originals = (galerkin.spd_solve, curlcurl.spd_solve, curlcurl.solve_both,
                 dualcurl.solve_both, curlcurl.Discretization.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert curlcurl.spd_solve is galerkin.spd_solve is not originals[0]
        assert dualcurl.solve_both is curlcurl.solve_both is not originals[2]
        disc = cli.cc.Discretization(3)      # the CLI's route into curlcurl
        bd = cli.cc.project_boundary_data(curlcurl.exponential_pair(), disc)
        cli.cc.solve_both(bd, disc)
    finally:
        tracer.remove()
    assert (galerkin.spd_solve, curlcurl.spd_solve, curlcurl.solve_both,
            dualcurl.solve_both, curlcurl.Discretization.__init__) == originals
    names = {s[0] for s in tracer.spans}
    assert {"curlcurl.solve_neumann", "galerkin.spd_solve", "galerkin.M2_dual",
            "basis1d.gll_nodes", "operators2d.build_incidence"} <= names
    per_round = spans.self_times(tracer.spans)[0]
    total = sum(e - s for n, s, e, p, r in tracer.spans if p < 0)
    assert sum(per_round.values()) == pytest.approx(total)
    assert tracer.maxima["curlcurl.neumann_residual"] < 1e-12
    assert tracer.counts[0]["galerkin.factorizations"] == 4   # GramSet 2, solves 2


def test_fields_are_seeded_exact_pairs():
    x = np.linspace(-1, 1, 7)
    y = np.linspace(1, -1, 7)
    a = fields.exact_field(fields.field_rng(3, 0, 1))
    b = fields.exact_field(fields.field_rng(3, 0, 1))
    c = fields.exact_field(fields.field_rng(3, 0, 2))
    assert np.array_equal(a.scalar(x, y), b.scalar(x, y))
    assert not np.allclose(a.scalar(x, y), c.scalar(x, y))
    h = 1e-6
    dFdy = (a.scalar(x, y + h) - a.scalar(x, y - h)) / (2 * h)
    dFdx = (a.scalar(x + h, y) - a.scalar(x - h, y)) / (2 * h)
    np.testing.assert_allclose(a.Ex(x, y), dFdy, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(a.Ey(x, y), -dFdx, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(a.vector_curl(x, y), -a.scalar(x, y))
