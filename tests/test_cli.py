import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dualcurl
from dualcurl import basis1d, cli, galerkin
from dualcurl import curlcurl as cc
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
from dualcurl.curlcurl import equivalence_residual, norm_gap
from dualcurl.operators2d import _dofs, build_incidence, build_trace
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

ANSWER = 8  # the self-check line that alone reads a solution against its exact field


def weak_curl_residual(sol, disc):
    """The weak-curl residual of `sol` through its grid form: the node grid
    of F and inv(M0) w of the weak curl w of its edge stack."""
    N, gram = disc.degree, disc.gram
    w = cc._weak_curl(_dofs(sol.dirichlet, N, "edges"), sol.boundary, disc)
    return cc._weak_curl_residual(_dofs(sol.neumann, N), gram._solve_mass0(w))


def solved_exponential(N):
    """(disc, sol) of the exponential pair at degree N and the default boost, by the
    public calls that `curlcurl.solve_degree` makes."""
    disc = cc.Discretization(N)
    return disc, cc.solve_both(cc.project_boundary_data(cc.exponential_pair(), disc), disc)


class TestConfig:
    def test_defaults(self):
        cfg = StudyConfig()
        assert cfg.max_degree == 9 and cfg.grid_size == 30
        assert cfg.quadrature_boost == 15

    @pytest.mark.parametrize("value", [np.int64(9), np.uint8(255)], ids=["int64", "uint8"])
    def test_numpy_integers_stored_as_int(self, value):
        # a uint8 255 would make run_study's range(1, max_degree + 1) wrap to
        # range(1, 0) with only a RuntimeWarning, and solve no degree
        cfg = StudyConfig(max_degree=value, grid_size=value, quadrature_boost=value)
        for got in (cfg.max_degree, cfg.grid_size, cfg.quadrature_boost):
            assert type(got) is int and got == value

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            StudyConfig(max_degree=0)
        with pytest.raises(ValueError):
            StudyConfig(grid_size=1)
        with pytest.raises(ValueError):
            StudyConfig(emit=frozenset({"table9"}))
        for boost in (-1, 0):  # boost 0 integrates the errors on the N-point rule
            with pytest.raises(ValueError, match="quadrature_boost must be >= 1"):
                StudyConfig(quadrature_boost=boost)
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
        for bad in (None, 5, [["table1"]]):
            with pytest.raises(TypeError, match=rf"^emit must be a set of target names, "
                                                rf"got {re.escape(repr(bad))}$"):
                StudyConfig(emit=bad)
        with pytest.raises(ValueError, match=r"^unknown emit targets: \[5, 'table9'\]$"):
            StudyConfig(emit=["table9", 5])  # sorted as text, not compared
        # a str is a path: the CSVs are written after every degree is solved
        cfg = StudyConfig(max_degree=1, output_dir=str(tmp_path), emit=frozenset({"table1"}))
        assert cfg.output_dir == tmp_path
        run_study(cfg)
        assert (tmp_path / "table1.csv").exists()


class TestRunStudy:
    def test_norm_columns_match_published_table(self, tmp_path):
        cfg = StudyConfig(output_dir=tmp_path, emit=frozenset())
        records = run_study(cfg)
        assert len(records) == 9
        for rec, expected in zip(records, TABLE1_NORMS):
            # published values are truncated at 8 decimals
            assert abs(rec.normF - expected) <= 1e-8
            assert abs(rec.normE - expected) <= 1e-8

    def test_theoretical_norm(self):
        assert f"{theoretical_norm():.8f}" == "6.32958656"

    def test_single_degree(self, tmp_path):
        cfg = StudyConfig(max_degree=1, output_dir=tmp_path, emit=frozenset())
        records = run_study(cfg)
        assert len(records) == 1
        rec = records[0]
        assert rec.normF == pytest.approx(rec.normE, rel=1e-11)

    def test_records_the_weak_curl_residual(self, rng):
        # the record holds ||inv(M0) w + F|| / ||F||, w = E10^T Et + T^T Ehat,
        # the third identity curl E^h = -F^h; the residual function is
        # checked against the dense masses and incidence with F perturbed
        for rec in run_study(StudyConfig(max_degree=3, emit=frozenset())):
            disc, sol = solved_exponential(rec.N)
            bd = sol.boundary
            assert rec.weak_curl_residual == weak_curl_residual(sol, disc) <= 1e-13
            F = sol.neumann + 1e-6 * rng.standard_normal(sol.neumann.shape)
            w = disc.E10.T @ sol.dirichlet + build_trace(rec.N).T @ bd.dofs
            ref = np.linalg.norm(disc.gram.M2_dual @ w + F) / np.linalg.norm(F)
            got = weak_curl_residual(cc.Solution(bd, F, sol.dirichlet), disc)
            assert abs(got - ref) <= 1e-6 * ref

    def test_records_equal_the_public_functions(self):
        # one degree's pass hands its grids to the private forms that the
        # public functions wrap, so each field is equal to theirs, not close;
        # the record class is curlcurl's, which alone knows its field order;
        # cli neither defines nor re-exports it
        assert not hasattr(cli, "DegreeRecord")
        exact = cc.exponential_pair()
        for rec in run_study(StudyConfig(max_degree=12, emit=frozenset())):
            disc, sol = solved_exponential(rec.N)
            bd = sol.boundary
            assert rec == cc.DegreeRecord(
                rec.N, cc.norm_F(sol.neumann, disc), cc.norm_E(sol.dirichlet, bd, disc),
                *cc.error_norms(sol, exact, disc), equivalence_residual(sol, disc),
                weak_curl_residual(sol, disc), cc._operator_residual(disc))

    def test_forms_each_shared_grid_once(self, monkeypatch):
        # after the solve, a degree reads each solution vector into its grid
        # once and forms w, inv(M0) w, inv(M1) Et and E10 F once each; the
        # operator residual, solve-free by design, is not counted
        counts, state = [], {"on": False}  # one Counter per degree
        disc_cls, solve, residual = cc.Discretization, cc.solve_both, cc._operator_residual

        def counted(name, fn, applies=lambda *args: True):
            def wrapper(*args, **kwargs):
                if state["on"] and applies(*args):
                    counts[-1][name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def set_up(*args, **kwargs):  # a degree's set-up, projection and solves
            state["on"] = False
            return disc_cls(*args, **kwargs)

        def solve_then_count(bd, disc):
            sol = solve(bd, disc)
            counts.append(Counter())
            state.update(on=True, F=sol.neumann.reshape(disc.degree + 1, disc.degree + 1))
            return sol

        def uncounted_residual(disc):
            state["on"] = False
            value = residual(disc)
            state["on"] = True
            return value

        monkeypatch.setattr(cc, "Discretization", set_up)
        monkeypatch.setattr(cc, "solve_both", solve_then_count)
        monkeypatch.setattr(cc, "_operator_residual", uncounted_residual)
        monkeypatch.setattr(cc, "_weak_curl", counted("_weak_curl", cc._weak_curl))
        for name in ("_solve_mass0", "_solve_mass1"):
            monkeypatch.setattr(galerkin.GramSet, name,
                                counted(name, getattr(galerkin.GramSet, name)))
        for module in (cc, galerkin):
            monkeypatch.setattr(module, "_dofs", counted("_dofs", module._dofs))
        monkeypatch.setattr(cc, "_incidence", counted(  # on the node grid of F only
            "_incidence", cc._incidence, lambda g: np.array_equal(g, state["F"])))
        run_study(StudyConfig(max_degree=3, emit=frozenset()))
        once = {"_weak_curl": 1, "_solve_mass0": 1, "_solve_mass1": 1, "_incidence": 1}
        assert counts == [Counter(once, _dofs=2)] * 3, counts

    def test_csv_outputs(self, tmp_path):
        cfg = StudyConfig(
            max_degree=3, output_dir=tmp_path, emit=frozenset({"table1", "fig3"})
        )
        run_study(cfg)
        table = (tmp_path / "table1.csv").read_text().splitlines()
        assert table[0] == "N,normF,normE,absdiff"
        assert len(table) == 4
        fig3 = (tmp_path / "fig3.csv").read_text().splitlines()
        assert fig3[0] == "N,errF,errE"

    def test_deterministic_output(self, tmp_path):
        cfg = StudyConfig(
            max_degree=4, output_dir=tmp_path, emit=frozenset({"table1", "fig3"})
        )
        run_study(cfg)
        first = [(tmp_path / f).read_bytes() for f in ("table1.csv", "fig3.csv")]
        run_study(cfg)
        second = [(tmp_path / f).read_bytes() for f in ("table1.csv", "fig3.csv")]
        assert first == second


class TestFig2:
    def test_identity_grids(self, tmp_path):
        cfg = StudyConfig(output_dir=tmp_path, emit=frozenset({"fig2"}))
        dxi, deta, maxabs = emit_fig2(cfg)
        assert dxi.shape == (30, 30) and deta.shape == (30, 30)
        assert maxabs <= 1e-13
        rows = (tmp_path / "fig2_xi.csv").read_text().splitlines()
        assert len(rows) == 31  # header of grid abscissae plus 30 rows
        assert len(rows[1].split(",")) == 30

    def test_evaluates_each_grid_table_once(self, tmp_path, monkeypatch):
        # the data rule's table is made in set-up, at N + boost = 18 points;
        # each reconstruction's y axis is its x axis, whose tables it reuses
        sizes, evaluate = [], basis1d.lagrange_eval
        monkeypatch.setattr(cc, "lagrange_eval",
                            lambda ns, x: sizes.append(np.size(x)) or evaluate(ns, x))
        emit_fig2(StudyConfig(output_dir=tmp_path, emit=frozenset({"fig2"})))
        assert sizes == [18, 30, 30], sizes

    def test_nan_in_the_eta_grid_is_the_maximum(self, tmp_path, monkeypatch, capsys):
        # one NaN in the eta grid alone, after a finite xi maximum: the printed
        # and returned maximum is NaN, as the CSV is
        reconstruct = cc.reconstruct

        def nan_in_eta(kind, *args):
            Ex, Ey = reconstruct(kind, *args)
            if kind == "dual-vector":
                Ey[2, 3] = np.nan
            return Ex, Ey

        monkeypatch.setattr(cc, "reconstruct", nan_in_eta)
        dxi, deta, maxabs = emit_fig2(StudyConfig(output_dir=tmp_path))
        assert np.isfinite(dxi).all() and np.isnan(deta).sum() == 1
        assert np.isnan(maxabs) and capsys.readouterr().out == (
            "max |E^h - curl F^h| on 30x30 grid, N=3: nan\n")

    def test_custom_grid_size(self, tmp_path):
        cfg = StudyConfig(grid_size=7, output_dir=tmp_path, emit=frozenset({"fig2"}))
        dxi, deta, _ = emit_fig2(cfg)
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
        assert weak_curl_residual(sol, disc) == 0.0
        nF, nE = cc.norm_F(sol.neumann, disc), cc.norm_E(sol.dirichlet, bd, disc)
        assert nF == nE == 0.0
        assert norm_gap(nF, nE) == 0.0
        assert norm_gap(0.0, 1e-3) == 1e-3


@pytest.fixture(scope="module")
def study():
    """The records of the paper-cli run's study, N=1..9 at the default boost."""
    return run_study(StudyConfig(emit=frozenset()))


def forbid_solves(monkeypatch):
    """Forbid a second study and every set-up but the answer line's N=12; return
    the degrees set up."""
    built, disc_cls = [], cc.Discretization

    def no_solve(*args, **kwargs):
        raise AssertionError("the self-check solved")

    def answer_only(N, *args, **kwargs):
        if N != 12:
            no_solve()
        built.append(N)
        return disc_cls(N, *args, **kwargs)

    monkeypatch.setattr(cc, "Discretization", answer_only)
    monkeypatch.setattr(cli, "run_study", no_solve)
    return built


def checked(records, capsys):
    """self_check's verdict on `records` and the lines it printed."""
    capsys.readouterr()
    return self_check(records), capsys.readouterr().out.splitlines()


def failed_lines(records, capsys):
    ok, lines = checked(records, capsys)
    assert ok is False
    return [ln for ln in lines if ln.startswith("FAIL ")], lines[-1]


def nan_in_the_last_record(field):
    def inject(records, monkeypatch):
        return [*records[:-1], dataclasses.replace(records[-1], **{field: np.nan})]
    return inject


def nan_at_degree_5(target):
    # the patched function's first argument, a node set or a GramSet, has the degree
    def inject(records, monkeypatch):
        fn = getattr(*target)
        monkeypatch.setattr(*target, lambda first, *rest: fn(first, *rest)
                            * (np.nan if first.degree == 5 else 1.0))
        return records
    return inject


# each self-check line that reads many values: its index and a NaN put where it reads
NAN_CASES = {
    "edge-table": (0, nan_at_degree_5((basis1d, "_edge_table"))),
    "solve-mass0": (1, nan_at_degree_5((galerkin.GramSet, "_solve_mass0"))),
    "equivalence": (4, nan_in_the_last_record("equivalence_residual")),
    "normE": (5, nan_in_the_last_record("normE")),
    "weak-curl": (6, nan_in_the_last_record("weak_curl_residual")),
    "operator": (7, nan_in_the_last_record("operator_residual")),
}


class TestSelfCheck:
    def test_passes(self, study):
        assert self_check(study) is True

    def test_broken_incidence_detected(self, study, monkeypatch):
        monkeypatch.setattr(cli, "build_incidence", lambda n: build_incidence(n).T)
        assert self_check(study) is False

    @pytest.mark.parametrize("target, lines", [
        ((basis1d, "_edge_table"), [0]),
        ((galerkin.GramSet, "_solve_mass0"), [1, ANSWER]),
    ], ids=["edge-table", "solve-mass0"])
    def test_perturbed_basis_detected(self, study, target, lines, monkeypatch, capsys):
        # a relative error of 1e-9 in the edge table or in the nodal grid
        # solve fails exactly the basis line that reads it, and the answer line
        # where its own solve reads it too (the study was solved before the patch)
        fn = getattr(*target)
        monkeypatch.setattr(*target, lambda *a: fn(*a) * (1 + 1e-9))
        failed, summary = failed_lines(study, capsys)
        assert [ln.split(": residual ")[0] for ln in failed] == [
            f"FAIL  {INVARIANTS[i][0]}" for i in lines]
        assert summary == f"self-check: {9 - len(lines)}/9 passed"

    @pytest.mark.parametrize("line, inject", NAN_CASES.values(), ids=NAN_CASES)
    def test_nan_fails_its_line(self, study, line, inject, monkeypatch, capsys):
        # a NaN in one degree that is not the first, in a record or a basis
        # table, fails exactly the line that reads it: Python's max would drop it
        failed, summary = failed_lines(inject(list(study), monkeypatch), capsys)
        name, _, tol = INVARIANTS[line]
        assert failed == [f"FAIL  {name}: residual nan (tol {tol:.0e})"]
        assert summary == "self-check: 8/9 passed"

    def test_nan_fails_the_run(self, tmp_path, monkeypatch, capsys):
        # the edge table's NaN at N=5 reaches the exit code of a --self-check run
        nan_at_degree_5((basis1d, "_edge_table"))((), monkeypatch)
        assert main(["--max-degree", "3", "--emit", "", "--out", str(tmp_path),
                     "--self-check"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"FAIL  {INVARIANTS[0][0]}: residual nan ")
        assert out[-1] == "self-check: 8/9 passed"

    def test_equivalence_line_reads_every_degree(self, capsys):
        # the residual of N=12, the last degree of a 12-degree study, alone
        # fails the line the benchmark's gate parses
        records = list(run_study(StudyConfig(max_degree=12, emit=frozenset())))
        records[-1] = dataclasses.replace(records[-1], equivalence_residual=1e-9)
        failed, summary = failed_lines(records, capsys)
        assert failed == [f"FAIL  {INVARIANTS[4][0]}: residual 1.000e-09 (tol 1e-11)"]
        assert summary == "self-check: 8/9 passed"

    def test_weak_curl_line_reads_the_records(self, study, capsys):
        # the third identity's line fails on one degree's residual alone
        records = list(study)
        records[4] = dataclasses.replace(records[4], weak_curl_residual=1e-9)
        failed, summary = failed_lines(records, capsys)
        assert failed == [f"FAIL  {INVARIANTS[6][0]}: residual 1.000e-09 (tol 1e-11)"]
        assert summary == "self-check: 8/9 passed"

    def test_scaled_dirichlet_operator_detected(self, monkeypatch, capsys):
        # A_D scaled by 1 + 1e-9 moves A_D M1 E10 x off E10 inv(M0) A_N x by
        # exactly that factor; the solves see the scaled operator as well
        apply = cc._dirichlet_apply
        monkeypatch.setattr(cc, "_dirichlet_apply", lambda *a: apply(*a) * (1 + 1e-9))
        failed, _ = failed_lines(run_study(StudyConfig(max_degree=4, emit=frozenset())), capsys)
        assert f"FAIL  {INVARIANTS[7][0]}: residual 1.000e-09 (tol 1e-12)" in failed

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="records"):
            self_check(())

    def test_reads_a_one_shot_iterable_once(self, study, capsys):
        # every line reads the same records: an iterator prints what the tuple
        # prints, and an empty iterator is no study
        want, got = checked(study, capsys), checked(iter(study), capsys)
        assert got == want and want[0] is True
        with pytest.raises(ValueError, match="needs the study's records"):
            self_check(iter(()))

    def test_basis_lines_use_the_grid_solve(self, study, monkeypatch):
        # one edge table per degree (N=1..12) and one grid solve per degree
        # (N=1..8) on all of M0's columns at once; no public per-column
        # solve and no dense nodal mass.  The answer line's `lobatto` solve
        # makes grid solves of its own, which are not counted
        calls = Counter()

        def counted(name, fn, applies=lambda *args: True):
            def wrapper(*args):
                if applies(*args):
                    calls[name] += 1
                return fn(*args)
            return wrapper

        def forbidden(*args):
            raise AssertionError("the self-check formed a dense mass or a per-column solve")

        monkeypatch.setattr(cli, "edge_eval", counted("edge_eval", cli.edge_eval))
        gram = galerkin.GramSet
        monkeypatch.setattr(gram, "_solve_mass0", counted(
            "grid", gram._solve_mass0, lambda self, f: self.rule == "gauss"))
        monkeypatch.setattr(gram, "solve_mass0", forbidden)
        monkeypatch.setattr(galerkin, "assemble_mass0", forbidden)
        assert self_check(study) is True
        assert calls == {"edge_eval": 12, "grid": 8}
        assert not hasattr(cli, "assemble_mass0")

    def test_output_contract(self, study, capsys):
        # the benchmark's paper-cli gate parses these lines
        _, (*checks, summary) = checked(study, capsys)
        names = []
        for line in checks:
            m = re.fullmatch(r"(PASS|FAIL)  (.+): residual \S+ \(tol \S+\)", line)
            assert m, line
            names.append(m.group(2))
        assert names == [name for name, _, _ in INVARIANTS]
        gated = [m for m in map(re.compile(r"dual edge dofs equal M1 E10 F.*residual (\S+)").search,
                                checks) if m]
        assert len(gated) == 1
        assert float(gated[0].group(1)) <= 1e-11
        assert re.fullmatch(r"self-check: (\d+)/\1 passed", summary)
        assert summary == "self-check: 9/9 passed"

    def test_reuses_the_study(self, study, monkeypatch, capsys):
        # the identity lines report the maxima over every record the study
        # holds, N=9 included; the check solves only the answer line's degree
        built = forbid_solves(monkeypatch)
        ok, lines = checked(study, capsys)
        assert ok is True and built == [12]
        assert [r.N for r in study] == list(range(1, 10))
        for line, field in ((4, "equivalence_residual"), (6, "weak_curl_residual"),
                            (7, "operator_residual")):
            worst = max(getattr(r, field) for r in study)
            assert f"residual {worst:.3e} " in lines[line]

    def test_short_report_falls_back(self, monkeypatch, capsys):
        # a study of fewer than 8 degrees is checked as it is: no second
        # study, no solve but the answer line's, all 9 lines on its 3 records
        records = run_study(StudyConfig(max_degree=3, emit=frozenset()))
        built = forbid_solves(monkeypatch)
        ok, lines = checked(records, capsys)
        assert ok is True and lines[-1] == "self-check: 9/9 passed" and built == [12]


# one-line faults, each as (owner, function, the text it replaces, the faulty text),
# and the indices of the self-check lines that fail under it at --max-degree 3.
# Before the answer line, all but Gh-for-Gh_inv passed in full: the paper's identities
# hold for any boundary data, the exponential pair's side traces are constant, and
# on that pair the untransposed pairing leaves the identities at roundoff for N <= 3.
# Not listed, because they are equivalent programs: the symmetric Ge transposed in
# `_mass1`, and the symmetric Gauss weights reversed in `_error_norms`.
FAULTS = {
    "north-side-reversed": (cc, "project_boundary_data", "edge += H @",
                            'edge += (H[::-1] if side == "N" else H) @', [ANSWER]),
    "south-north-swapped": (cc, "project_boundary_data", "else grid[k]",
                            "else grid[N - k]", [ANSWER]),
    "east-sign-flipped": (cc, "project_boundary_data", "q.points.shape)",
                          'q.points.shape) * (-1.0 if side == "E" else 1.0)', [ANSWER]),
    "mean-weights": (cc, "project_boundary_data", "q.weights * ehat",
                     "q.weights.mean() * ehat", [ANSWER]),
    "pairing-untransposed": (cc, "_dirichlet_inverse", "m[::-1, :, 1:].transpose(0, 2, 1)",
                             "m[::-1, :, 1:]", [ANSWER]),
    "Gh-for-Gh_inv": (galerkin.GramSet, "_solve_mass0", "self.Gh_inv @ f @ self.Gh_inv.T",
                      "self.Gh @ f @ self.Gh.T", [1, 4, 5, 6, 7, ANSWER]),
    "edge-basis-mirrored": (cli, "edge_eval", "lagrange_eval(ns, x)", "lagrange_eval(ns, -x)",
                            [0]),
    "incidence-transposed": (cli, "build_incidence", "return E\n", "return E.T\n", [2]),
    "trace-reversed": (cli, "build_trace", "boundary_nodes(N)[:, None]",
                       "boundary_nodes(N)[::-1, None]", [3]),
}


def inject_fault(monkeypatch, owner, name, old, new):
    """Bind in place of owner.name the function compiled from its source with
    `old`, which must occur once, replaced by `new`."""
    fn = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, (name, old)
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"),
         fn.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


@pytest.mark.parametrize("owner, name, old, new, failing", FAULTS.values(), ids=FAULTS)
def test_self_check_rejects_each_fault(owner, name, old, new, failing, tmp_path,
                                       monkeypatch, capsys):
    # the gate fails a --self-check run under each known fault, on the line named
    inject_fault(monkeypatch, owner, name, old, new)
    assert main(["--max-degree", "3", "--emit", "", "--out", str(tmp_path),
                 "--self-check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [ln.split(": residual ")[0] for ln in out if ln.startswith("FAIL ")] == [
        f"FAIL  {INVARIANTS[i][0]}" for i in failing]
    assert out[-1] == f"self-check: {9 - len(failing)}/9 passed"


def test_cli_reads_two_private_names_of_other_modules():
    # the identities and the per-degree entry live with the solver: cli reads
    # basis1d's integer check and the biorthogonality line's grid solve, and
    # no other private name it does not define
    tree = ast.parse(Path(cli.__file__).read_text())
    own = {node.name for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own |= {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    read = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    private = {name for name in read - own if name.startswith("_") and not name.endswith("__")}
    assert private == {"_integer", "_solve_mass0"}
    assert not hasattr(cli, "_solve_exponential")


def test_printers_take_no_hook_and_the_package_reexports_none():
    # the study, fig2 and the self-check print what they compute; `import dualcurl`
    # loads cli but binds none of its names in the package namespace
    params = {fn: list(inspect.signature(fn).parameters)
              for fn in (run_study, emit_fig2, self_check)}
    assert params == {run_study: ["cfg"], emit_fig2: ["cfg"], self_check: ["records"]}
    assert sys.modules["dualcurl.cli"] is dualcurl.cli
    assert not {"StudyConfig", "run_study", "emit_fig2", "self_check",
                "theoretical_norm"} & set(vars(dualcurl))


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

    @pytest.mark.parametrize("emit, args, built", [
        ("table1", ["--max-degree", "3", "--quadrature-boost", "4"], 3),
        ("table1,fig3,fig2", ["--max-degree", "9"], 10),
        ("fig2", ["--max-degree", "2"], 3),
    ])
    def test_self_check_reads_the_run(self, emit, args, built, tmp_path, monkeypatch, capsys):
        # one study per run, made for the CSVs or for the self-check alone;
        # fig2 adds its own N=3 solve and the answer line its N=12; the identity
        # lines report the maxima over that study's records, at the run's boost
        discs, studies = [], []
        disc_cls, study_fn = cc.Discretization, cli.run_study
        monkeypatch.setattr(cc, "Discretization",
                            lambda *a, **k: discs.append(a) or disc_cls(*a, **k))
        monkeypatch.setattr(cli, "run_study", lambda *a: studies.append(study_fn(*a)) or studies[-1])
        assert main([*args, "--emit", emit, "--self-check", "--out", str(tmp_path)]) == 0
        assert len(discs) == built + 1 and discs[-1][0] == 12 and len(studies) == 1
        out = capsys.readouterr().out
        for field, name in (("equivalence_residual", INVARIANTS[4][0]),
                            ("weak_curl_residual", INVARIANTS[6][0]),
                            ("operator_residual", INVARIANTS[7][0])):
            worst = max(getattr(r, field) for r in studies[0])
            assert f"PASS  {name}: residual {worst:.3e} " in out

    def test_one_degree_run_checks_the_answer(self, tmp_path, monkeypatch, capsys):
        # the answer line's degree is its own: a --max-degree 1 run still
        # solves the plane wave at N=12 and reads its errors at their floor
        built, disc_cls = [], cc.Discretization
        monkeypatch.setattr(cc, "Discretization",
                            lambda N, *a, **k: built.append(N) or disc_cls(N, *a, **k))
        assert main(["--max-degree", "1", "--emit", "", "--out", str(tmp_path),
                     "--self-check"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert re.fullmatch(rf"PASS  {re.escape(INVARIANTS[ANSWER][0])}: "
                            r"residual 7\.3\d\de-13 \(tol 1e-11\)", out[-2]), out[-2]
        assert out[-1] == "self-check: 9/9 passed" and built == [1, 12]

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
        assert sum(line.startswith("PASS ") for line in lines) == 9
        assert lines[-1] == "self-check: 9/9 passed"
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
        assert "quadrature_boost must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:  # boost 0 under-integrates the errors
            main(["--quadrature-boost", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "quadrature_boost must be >= 1, got 0" in capsys.readouterr().err

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["--max-degree", "1", "--out", str(blocker / "sub")])
        assert rc == 2
