import re

import numpy as np
import pytest

from dualcurl import cli
from dualcurl.cli import (
    INVARIANTS,
    StudyConfig,
    emit_fig2,
    emit_matrices,
    main,
    run_study,
    self_check,
    theoretical_norm,
)
from dualcurl.operators2d import build_incidence

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

    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(max_degree=0)
        with pytest.raises(ValueError):
            StudyConfig(grid_size=1)
        with pytest.raises(ValueError):
            StudyConfig(emit=frozenset({"table9"}))


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


class TestSelfCheck:
    def test_passes(self):
        assert self_check(log=quiet) is True

    def test_broken_incidence_detected(self, monkeypatch):
        monkeypatch.setattr(cli, "build_incidence", lambda n: build_incidence(n).T)
        assert self_check(log=quiet) is False

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
        assert summary == "self-check: 6/6 passed"


class TestMain:
    def test_default_run(self, tmp_path):
        assert main(["--max-degree", "2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()

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

    def test_invalid_emit_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--emit", "table9", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_invalid_degree_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--max-degree", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["--max-degree", "1", "--out", str(blocker / "sub")])
        assert rc == 2
