import dataclasses
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dualcurl import basis1d, cli, galerkin
from dualcurl import curlcurl as cc
from dualcurl.cli import (
    INVARIANTS,
    StudyConfig,
    emit_fig2,
    emit_matrices,
    equivalence_residual,
    main,
    norm_gap,
    run_study,
    self_check,
    theoretical_norm,
)
from dualcurl.operators2d import build_incidence, build_trace
from conftest import equivalence_dense

TABLE1_NORMS = [
    5.62334036,
    6.28815932,
    6.32851719,
    6.32957061,
    6.32958640,
    6.32958655,
    6.32958656,
    6.32958656,
    6.32958656,
]


def quiet(*args, **kwargs):
    pass


class TestConfig:
    def test_defaults(self):
        cfg = StudyConfig()
        assert cfg.max_degree == 9 and cfg.grid_size == 30
        assert cfg.quadrature_boost == 15

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            StudyConfig(max_degree=0)
        with pytest.raises(ValueError):
            StudyConfig(grid_size=1)
        with pytest.raises(ValueError):
            StudyConfig(emit=frozenset({"table9"}))
        with pytest.raises(ValueError, match="quadrature_boost must be >= 0"):
            StudyConfig(quadrature_boost=-1)
        with pytest.raises(TypeError, match="^emit must be a set"):
            StudyConfig(emit="table1")  # not the letters t, a, b, l, e and 1
        # any iterable of names is stored as a frozenset: equal and hashable
        listed = StudyConfig(emit=["table1"])
        assert listed == StudyConfig(emit=frozenset({"table1"}))
        assert type(listed.emit) is frozenset
        assert hash(listed) == hash(StudyConfig(emit=frozenset({"table1"})))
        for bad in (5, None):
            with pytest.raises(TypeError, match=rf"^output_dir must be a path, got {bad}$"):
                StudyConfig(output_dir=bad)
        # a str is a path: the CSVs are written after every degree is solved
        cfg = StudyConfig(max_degree=1, output_dir=str(tmp_path), emit=frozenset({"table1"}))
        assert cfg.output_dir == tmp_path
        run_study(cfg, log=quiet)
        assert (tmp_path / "table1.csv").exists()


class TestRunStudy:
    def test_norm_columns_match_published_table(self, tmp_path):
        cfg = StudyConfig(output_dir=tmp_path, emit=frozenset())
        report = run_study(cfg, log=quiet)
        assert len(report.records) == 9
        for rec, expected in zip(report.records, TABLE1_NORMS):
            # published values are truncated at 8 decimals
            assert abs(rec.normF - expected) <= 1e-8
            assert abs(rec.normE - expected) <= 1e-8

    def test_theoretical_norm(self):
        assert f"{theoretical_norm():.8f}" == "6.32958656"

    def test_single_degree(self, tmp_path):
        cfg = StudyConfig(max_degree=1, output_dir=tmp_path, emit=frozenset())
        report = run_study(cfg, log=quiet)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.normF == pytest.approx(rec.normE, rel=1e-11)

    def test_records_the_weak_curl_residual(self, rng):
        # the record holds ||inv(M0) w + F|| / ||F||, w = E10^T Et + T^T Ehat,
        # the third identity curl E^h = -F^h; the residual function is
        # checked against the dense masses and incidence with F perturbed
        report = run_study(StudyConfig(max_degree=3, emit=frozenset()))
        for rec in report.records:
            disc, bd, sol = cli._solve_exponential(rec.N, 15)
            assert rec.weak_curl_residual == cli._weak_curl_residual(sol, disc) <= 1e-13
            F = sol.neumann + 1e-6 * rng.standard_normal(sol.neumann.shape)
            w = disc.E10.T @ sol.dirichlet + build_trace(rec.N).T @ bd.dofs
            ref = np.linalg.norm(disc.gram.M2_dual @ w + F) / np.linalg.norm(F)
            got = cli._weak_curl_residual(cc.Solution(bd, F, sol.dirichlet), disc)
            assert abs(got - ref) <= 1e-6 * ref

    def test_csv_outputs(self, tmp_path):
        cfg = StudyConfig(
            max_degree=3, output_dir=tmp_path, emit=frozenset({"table1", "fig3"})
        )
        run_study(cfg, log=quiet)
        table = (tmp_path / "table1.csv").read_text().splitlines()
        assert table[0] == "N,normF,normE,absdiff"
        assert len(table) == 4
        fig3 = (tmp_path / "fig3.csv").read_text().splitlines()
        assert fig3[0] == "N,errF,errE"

    def test_deterministic_output(self, tmp_path):
        cfg = StudyConfig(
            max_degree=4, output_dir=tmp_path, emit=frozenset({"table1", "fig3"})
        )
        run_study(cfg, log=quiet)
        first = [(tmp_path / f).read_bytes() for f in ("table1.csv", "fig3.csv")]
        run_study(cfg, log=quiet)
        second = [(tmp_path / f).read_bytes() for f in ("table1.csv", "fig3.csv")]
        assert first == second


class TestFig2:
    def test_identity_grids(self, tmp_path):
        cfg = StudyConfig(output_dir=tmp_path, emit=frozenset({"fig2"}))
        dxi, deta, maxabs = emit_fig2(cfg, log=quiet)
        assert dxi.shape == (30, 30) and deta.shape == (30, 30)
        assert maxabs <= 1e-13
        rows = (tmp_path / "fig2_xi.csv").read_text().splitlines()
        assert len(rows) == 31  # header of grid abscissae plus 30 rows
        assert len(rows[1].split(",")) == 30

    def test_custom_grid_size(self, tmp_path):
        cfg = StudyConfig(grid_size=7, output_dir=tmp_path, emit=frozenset({"fig2"}))
        dxi, deta, _ = emit_fig2(cfg, log=quiet)
        assert dxi.shape == (7, 7)


class TestMatrices:
    def test_dump(self, tmp_path):
        cfg = StudyConfig(output_dir=tmp_path, emit=frozenset({"matrices"}))
        emit_matrices(cfg)
        inc = (tmp_path / "incidence.csv").read_text().splitlines()
        assert len(inc) == 25  # header + 24 rows
        values = {v for row in inc[1:] for v in row.split(",")}
        assert values == {"-1", "0", "1"}
        tr = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(tr) == 13


class TestEquivalenceResidual:
    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    @pytest.mark.parametrize("N", range(1, 13))
    def test_matches_dense_oracle(self, N, rule, rng):
        # the grid form of M1 E10 F against the dense product, for an
        # arbitrary F: Et = M1 E10 F reads as a zero residual, and any
        # other Et as its distance from the dense M1 E10 F
        disc = cc.Discretization(N, rule)
        F = rng.standard_normal((N + 1) ** 2)
        ref = equivalence_dense(disc, F)
        bd = cc.BoundaryData(N, np.zeros(4 * N))

        def residual(Et):
            return equivalence_residual(cc.Solution(bd, F, Et), disc)

        assert residual(ref) <= 1e-13
        Et = rng.standard_normal(ref.size)
        want = np.linalg.norm(Et - ref) / np.linalg.norm(Et)
        assert abs(residual(Et) - want) <= 1e-13 * want

    def test_zero_field_reads_zero(self):
        # F constant has E = curl F = 0: Et and both norms are 0, so the
        # identities hold exactly and read as 0 rather than 0/0
        zero = cc.AnalyticField(Ex=lambda x, y: 0.0 * x, Ey=lambda x, y: 0.0 * x)
        disc = cc.Discretization(4)
        bd = cc.project_boundary_data(zero, disc)
        sol = cc.solve_both(bd, disc)
        assert equivalence_residual(sol, disc) == 0.0
        nF, nE = cc.norm_F(sol.neumann, disc), cc.norm_E(sol.dirichlet, bd, disc)
        assert nF == nE == 0.0
        assert norm_gap(nF, nE) == 0.0
        assert norm_gap(0.0, 1e-3) == 1e-3


class TestSelfCheck:
    def test_passes(self):
        assert self_check(log=quiet) is True

    def test_broken_incidence_detected(self, monkeypatch):
        monkeypatch.setattr(cli, "build_incidence", lambda n: build_incidence(n).T)
        assert self_check(log=quiet) is False

    @pytest.mark.parametrize("target, line", [
        ((basis1d, "_edge_table"), 0),
        ((galerkin.GramSet, "_solve_mass0"), 1),
    ], ids=["edge-table", "solve-mass0"])
    def test_perturbed_basis_detected(self, target, line, monkeypatch):
        # a relative error of 1e-9 in the edge table or in the nodal grid
        # solve fails exactly the basis line that reads it
        report = run_study(StudyConfig(max_degree=8, emit=frozenset()))
        fn = getattr(*target)
        monkeypatch.setattr(*target, lambda *a: fn(*a) * (1 + 1e-9))
        lines = []
        assert self_check(log=lines.append, report=report) is False
        failed = [ln for ln in lines if ln.startswith("FAIL ")]
        assert len(failed) == 1 and failed[0].startswith(f"FAIL  {INVARIANTS[line][0]}:")
        assert lines[-1] == "self-check: 6/7 passed"

    def test_weak_curl_line_reads_the_records(self):
        # the third identity's line fails on one degree's residual alone
        report = run_study(StudyConfig(max_degree=8, emit=frozenset()))
        records = list(report.records)
        records[4] = dataclasses.replace(records[4], weak_curl_residual=1e-9)
        lines = []
        assert self_check(log=lines.append,
                          report=dataclasses.replace(report, records=tuple(records))) is False
        failed = [ln for ln in lines if ln.startswith("FAIL ")]
        assert failed == [f"FAIL  {INVARIANTS[6][0]}: residual 1.000e-09 (tol 1e-11)"]
        assert lines[-1] == "self-check: 6/7 passed"

    def test_basis_lines_use_the_grid_solve(self, monkeypatch):
        # one edge table per degree (N=1..12) and one grid solve per degree
        # (N=1..8) on all of M0's columns at once; no public per-column
        # solve and no dense nodal mass
        report = run_study(StudyConfig(max_degree=9, emit=frozenset()))
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def forbidden(*args):
            raise AssertionError("the self-check formed a dense mass or a per-column solve")

        monkeypatch.setattr(cli, "edge_eval", counted("edge_eval", cli.edge_eval))
        gram = galerkin.GramSet
        monkeypatch.setattr(gram, "_solve_mass0", counted("grid", gram._solve_mass0))
        monkeypatch.setattr(gram, "solve_mass0", forbidden)
        monkeypatch.setattr(galerkin, "assemble_mass0", forbidden)
        assert self_check(log=quiet, report=report) is True
        assert calls == {"edge_eval": 12, "grid": 8}
        assert not hasattr(cli, "assemble_mass0")

    def test_output_contract(self):
        # the benchmark's paper-cli gate parses these lines
        lines = []
        self_check(log=lines.append)
        *checks, summary = lines
        names = []
        for line in checks:
            m = re.fullmatch(r"(PASS|FAIL)  (.+): residual \S+ \(tol \S+\)", line)
            assert m, line
            names.append(m.group(2))
        assert names == [name for name, _, _ in INVARIANTS]
        assert "dual edge dofs equal M1 E10 F (N=1..8)" in names
        assert summary == "self-check: 7/7 passed"

    def test_reuses_the_study(self, monkeypatch):
        # a study of 9 degrees gives the self-check its N=1..8 records; the
        # check solves nothing itself and logs what a run of its own logs
        report = run_study(StudyConfig(max_degree=9, emit=frozenset()))
        own = []
        self_check(log=own.append)

        def no_solve(*args, **kwargs):
            raise AssertionError("self-check built a Discretization")

        monkeypatch.setattr(cc, "Discretization", no_solve)
        reused = []
        assert self_check(log=reused.append, report=report) is True
        assert reused == own

    def test_short_report_falls_back(self):
        report = run_study(StudyConfig(max_degree=3, emit=frozenset()))
        lines = []
        assert self_check(log=lines.append, report=report) is True
        assert lines[-1] == "self-check: 7/7 passed"


class TestMain:
    def test_default_run(self, tmp_path):
        assert main(["--max-degree", "2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()

    def test_no_flags_give_the_default_config(self, tmp_path, monkeypatch):
        # the parser takes its defaults from the StudyConfig fields
        configs = []
        monkeypatch.setattr(cli, "run_study", configs.append)
        monkeypatch.chdir(tmp_path)  # the default output dir is relative
        assert main([]) == 0
        assert configs == [StudyConfig()]

    def test_all_emissions_and_self_check(self, tmp_path):
        rc = main(
            [
                "--max-degree",
                "2",
                "--out",
                str(tmp_path),
                "--emit",
                "table1,fig2,fig3,matrices",
                "--self-check",
            ]
        )
        assert rc == 0
        for f in ("table1.csv", "fig3.csv", "fig2_xi.csv", "fig2_eta.csv",
                  "incidence.csv", "trace.csv"):
            assert (tmp_path / f).exists()

    def test_each_gauss_rule_size_computed_once(self, tmp_path, monkeypatch):
        # the rule's builder evaluates L_M once per size; gll_nodes' own
        # evaluations are not counted
        basis1d._gauss_rule.cache_clear()
        sizes = Counter()
        legendre, builder = basis1d._legendre, basis1d._gauss_rule.__wrapped__.__code__

        def counted(N, x):
            if sys._getframe(1).f_code is builder:
                sizes[N] += 1
            return legendre(N, x)

        monkeypatch.setattr(basis1d, "_legendre", counted)
        assert main(["--max-degree", "9", "--out", str(tmp_path),
                     "--emit", "table1,fig3,fig2", "--self-check"]) == 0
        assert sizes and set(sizes.values()) == {1}, sizes

    def test_paper_cli_process(self, tmp_path):
        # the benchmark's paper-cli command, as one fresh process
        src = str(Path(cc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "dualcurl.cli", "--max-degree", "9",
             "--emit", "table1,fig3,fig2", "--self-check", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert sum(line.startswith("PASS ") for line in lines) == 7
        assert lines[-1] == "self-check: 7/7 passed"
        for name in ("table1.csv", "fig3.csv", "fig2_xi.csv", "fig2_eta.csv"):
            assert (tmp_path / name).exists(), name
        # importing the package loads dualcurl.cli, which runpy warns about
        assert re.fullmatch(r"<frozen runpy>:\d+: RuntimeWarning: 'dualcurl\.cli' found in "
                            r"sys\.modules after import of package 'dualcurl'[^\n]*\n",
                            proc.stderr), proc.stderr

    def test_paper_cli_loads_no_polynomial_module(self, tmp_path):
        # every node set, Gauss rules included, comes from basis1d's own
        # Jacobi-matrix and Newton routine
        src = str(Path(cc.__file__).resolve().parents[1])
        code = ("import sys; from dualcurl.cli import main; "
                "rc = main(['--max-degree', '9', '--emit', 'table1,fig3,fig2', "
                f"'--self-check', '--out', {str(tmp_path)!r}]); "
                "print(rc, sorted(m for m in sys.modules if 'polynomial' in m.split('.')))")
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_invalid_emit_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--emit", "table9", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_invalid_degree_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--max-degree", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_negative_quadrature_boost_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--quadrature-boost", "-5", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "quadrature_boost must be >= 0" in capsys.readouterr().err

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["--max-degree", "1", "--out", str(blocker / "sub")])
        assert rc == 2
