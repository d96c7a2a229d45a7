"""Command-line driver: norm table, pointwise identity grids, convergence
study and an invariant self-check.

Outputs (all deterministic, period decimal separator, 12 significant
digits):

  table1.csv   header N,normF,normE,absdiff
  fig3.csv     header N,errF,errE
  fig2_xi.csv  grid_size rows of comma-separated reals (xi component of
               E^h - curl F^h at N=3 on an interior Gauss tensor grid)
  fig2_eta.csv same for the eta component
  incidence.csv, trace.csv   integer operator dumps (--emit matrices)
"""

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import curlcurl as cc
from .basis1d import _integer, gauss_rule, gll_nodes, edge_eval
from .galerkin import GramSet
from .operators2d import _dofs, _incidence, build_incidence, build_trace

__all__ = [
    "StudyConfig",
    "StudyReport",
    "DegreeRecord",
    "INVARIANTS",
    "INCIDENCE_N3",
    "TRACE_N3",
    "equivalence_residual",
    "norm_gap",
    "run_study",
    "emit_fig2",
    "self_check",
    "theoretical_norm",
    "main",
]

EMIT_CHOICES = ("table1", "fig2", "fig3", "matrices")
_FIGURE_DEGREE = 3  # the degree of fig2 and of the printed operators


def theoretical_norm():
    """sqrt(8 (sinh 2 + sinh^2 1)), the exact H(curl) norm of the test pair."""
    return float(np.sqrt(8.0 * (np.sinh(2.0) + np.sinh(1.0) ** 2)))


@dataclass(frozen=True)
class StudyConfig:
    max_degree: int = 9
    grid_size: int = 30
    quadrature_boost: int = 15
    output_dir: Path = Path("out")
    emit: frozenset = frozenset({"table1", "fig3"})

    def __post_init__(self):
        try:  # a str becomes a Path before any solve
            object.__setattr__(self, "output_dir", Path(self.output_dir))
        except TypeError:
            raise TypeError(f"output_dir must be a path, got {self.output_dir!r}") from None
        for name, least in (("max_degree", 1), ("grid_size", 2), ("quadrature_boost", 0)):
            _integer(name, getattr(self, name), least)
        if isinstance(self.emit, str):  # a str would be read as a set of letters
            raise TypeError(f"emit must be a set of target names, got {self.emit!r}")
        object.__setattr__(self, "emit", frozenset(self.emit))  # hashable, equal as a set
        bad = self.emit - set(EMIT_CHOICES)
        if bad:
            raise ValueError(f"unknown emit targets: {sorted(bad)}")


@dataclass(frozen=True)
class DegreeRecord:
    N: int
    normF: float
    normE: float
    errF: float
    errE: float
    equivalence_residual: float
    weak_curl_residual: float
    wall_time_ms: float


@dataclass(frozen=True)
class StudyReport:
    records: tuple
    theoretical_norm: float


def _fmt(v):
    return f"{v:.12g}"


def equivalence_residual(sol, disc):
    """||Et - M1 E10 F|| / ||Et||, or the absolute distance where Et = 0, with
    M1 E10 F = `GramSet._mass1` of the edge stack of E10 F: the incidence
    and the 1D Grams, none of the solves' factors."""
    cc._check(sol, disc)
    s = _dofs(sol.dirichlet, disc.degree, "edges")
    c = _incidence(_dofs(sol.neumann, disc.degree))
    dist, size = float(np.linalg.norm(s - disc.gram._mass1(c))), float(np.linalg.norm(s))
    return dist / size if size else dist


def _weak_curl_residual(sol, disc):
    """||inv(M0) w + F|| / ||F||, or the absolute distance where F = 0, with
    w = E10^T Et + T^T Ehat the dual weak curl: curl E^h = -F^h on the
    node grid."""
    f = _dofs(sol.neumann, disc.degree)
    w = cc._weak_curl(_dofs(sol.dirichlet, disc.degree, "edges"), sol.boundary, disc)
    dist, size = float(np.linalg.norm(disc.gram._solve_mass0(w) + f)), float(np.linalg.norm(f))
    return dist / size if size else dist


def norm_gap(nF, nE):
    """|nF - nE| / nF, or |nF - nE| where nF = 0: the relative gap between
    the two H(curl) norms."""
    gap = abs(nF - nE)
    return gap / nF if nF else gap


def _solve_exponential(N, boost):
    """(disc, bd, sol) of the exponential pair at degree N, its boundary
    data projected with N + boost Gauss points per side."""
    disc = cc.Discretization(N)
    bd = cc.project_boundary_data(cc.exponential_pair(), disc, boost=boost)
    return disc, bd, cc.solve_both(bd, disc)


def run_study(cfg, log=print):
    """Solve both problems for N = 1..max_degree with the exponential test
    data; record norms, errors and the residuals of the identities
    Et = M1 E10 F and curl E^h = -F^h, and write
    table1.csv / fig3.csv when requested."""
    exact = cc.exponential_pair()
    records = []
    for N in range(1, cfg.max_degree + 1):
        t0 = time.perf_counter()
        disc, bd, sol = _solve_exponential(N, cfg.quadrature_boost)
        nF = cc.norm_F(sol.neumann, disc)
        nE = cc.norm_E(sol.dirichlet, bd, disc)
        errF, errE = cc.error_norms(sol, exact, disc, boost=cfg.quadrature_boost)
        records.append(
            DegreeRecord(
                N=N,
                normF=nF,
                normE=nE,
                errF=errF,
                errE=errE,
                equivalence_residual=equivalence_residual(sol, disc),
                weak_curl_residual=_weak_curl_residual(sol, disc),
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
    report = StudyReport(records=tuple(records), theoretical_norm=theoretical_norm())

    if "table1" in cfg.emit:
        _write_csv(
            cfg.output_dir / "table1.csv",
            "N,normF,normE,absdiff",
            [
                (r.N, _fmt(r.normF), _fmt(r.normE), _fmt(abs(r.normF - r.normE)))
                for r in records
            ],
        )
        log(_norm_table_text(report))
    if "fig3" in cfg.emit:
        _write_csv(
            cfg.output_dir / "fig3.csv",
            "N,errF,errE",
            [(r.N, _fmt(r.errF), _fmt(r.errE)) for r in records],
        )
    return report


def _norm_table_text(report):
    lines = [f"{'N':>3}  {'|F^h|_H(curl)':>14}  {'|E^h|_H(curl)':>14}"]
    for r in report.records:
        lines.append(f"{r.N:>3}  {r.normF:>14.8f}  {r.normE:>14.8f}")
    lines.append(f"theoretical value: {report.theoretical_norm:.8f}")
    return "\n".join(lines)


def _write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def emit_fig2(cfg, log=print):
    """Pointwise E^h - curl F^h at N=3 on an interior Gauss tensor grid.

    Writes the two component grids and returns (grid_xi, grid_eta, maxabs).
    The grid avoids the element edges at +-1 on purpose.
    """
    disc, _, sol = _solve_exponential(_FIGURE_DEGREE, cfg.quadrature_boost)

    g = gauss_rule(cfg.grid_size).points
    Ex, Ey = cc.reconstruct("dual-vector", sol.dirichlet, g, g, disc)
    Cx, Cy = cc.reconstruct("primal-curl", sol.neumann, g, g, disc)
    dxi, deta = Ex - Cx, Ey - Cy  # row a holds x = g[a]

    for name, grid in (("fig2_xi.csv", dxi), ("fig2_eta.csv", deta)):
        _write_csv(
            cfg.output_dir / name,
            ",".join(_fmt(v) for v in g),
            [tuple(_fmt(v) for v in row) for row in grid],
        )
    maxabs = float(max(np.abs(dxi).max(), np.abs(deta).max()))
    log(f"max |E^h - curl F^h| on {cfg.grid_size}x{cfg.grid_size} grid, "
        f"N={_FIGURE_DEGREE}: {maxabs:.3e}")
    return dxi, deta, maxabs


def emit_matrices(cfg):
    """Dump the N=3 incidence and trace operators as integer CSV."""
    for name, M in (("incidence.csv", build_incidence(_FIGURE_DEGREE)),
                    ("trace.csv", build_trace(_FIGURE_DEGREE))):
        _write_csv(cfg.output_dir / name, ",".join(str(c) for c in range(M.shape[1])),
                   [tuple(int(v) for v in row) for row in M])


# the printed N=3 operators, written out entry for entry: the 24x16
# incidence matrix and the 12x16 boundary restriction, whose rows select
# nodes 1,2,3,4, 8,12,16, 15,14,13, 9,5 (1-based) counter-clockwise
INCIDENCE_N3 = np.array([
    [-1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1],
    [1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1],
], dtype=np.int64)
TRACE_N3 = np.eye(16, dtype=np.int64)[
    np.array([1, 2, 3, 4, 8, 12, 16, 15, 14, 13, 9, 5]) - 1
]


def _edge_kronecker_residual():
    """Edge-basis interval integrals against the identity, one table per degree."""
    worst = 0.0
    for N in range(1, 13):
        ns = gll_nodes(N)
        q = gauss_rule(max(N, 2))
        h, mid = np.diff(ns.nodes) / 2, (ns.nodes[1:] + ns.nodes[:-1]) / 2
        E = edge_eval(ns, np.kron(h, q.points) + np.repeat(mid, len(q.points)))
        integrals = E @ np.kron(np.diag(h), q.weights[:, None])
        worst = max(worst, float(np.abs(integrals - np.eye(N)).max()))
    return worst


def _volume_biorthogonality_residual():
    """Dual volume basis against the primal nodal one: the exact-rule grid
    solve of M0's columns, column (j, i) the grid outer(Gh[:, j], Gh[:, i])."""
    worst = 0.0
    for N in range(1, 9):
        gram = GramSet(N, rule="gauss")
        X = gram._solve_mass0(np.einsum("aj,bi->jiab", gram.Gh, gram.Gh))
        I = np.eye(N + 1)
        worst = max(worst, float(np.abs(X - np.einsum("aj,bi->jiab", I, I)).max()))
    return worst


def _fixture_gap(got, expected):
    if got.shape != expected.shape:
        return float("inf")
    return float(np.abs(got - expected).max())


# (name, residual function, tolerance), in the order --self-check runs them.
# Each function takes the study's DegreeRecords for N=1..8; only the last
# three entries read them.
INVARIANTS = (
    ("edge-basis interval integrals = identity (N=1..12)",
     lambda records: _edge_kronecker_residual(), 1e-12),
    ("dual/primal volume biorthogonality (N=1..8)",
     lambda records: _volume_biorthogonality_residual(), 1e-12),
    ("incidence matrix matches the N=3 fixture",
     lambda records: _fixture_gap(build_incidence(3), INCIDENCE_N3), 0),
    ("trace matrix matches the N=3 fixture",
     lambda records: _fixture_gap(build_trace(3), TRACE_N3), 0),
    ("dual edge dofs equal M1 E10 F (N=1..8)",
     lambda records: max(r.equivalence_residual for r in records), 1e-11),
    ("norm of E^h equals norm of F^h (N=1..8)",
     lambda records: max(norm_gap(r.normF, r.normE) for r in records), 1e-11),
    ("curl of E^h equals -F^h (N=1..8)",
     lambda records: max(r.weak_curl_residual for r in records), 1e-11),
)


def self_check(log=print, report=None):
    """Run the invariant registry on the first 8 records of `report`, the
    study this run already made; without a report of 8 degrees, run the
    N=1..8 study first.  Returns True iff every residual is within its
    tolerance."""
    if report is None or len(report.records) < 8:
        report = run_study(StudyConfig(max_degree=8, emit=frozenset()))
    records = report.records[:8]
    passed = 0
    for name, residual_fn, tol in INVARIANTS:
        residual = residual_fn(records)
        ok = residual <= tol
        passed += ok
        log(f"{'PASS' if ok else 'FAIL'}  {name}: residual {residual:.3e} "
            f"(tol {tol:.0e})")
    log(f"self-check: {passed}/{len(INVARIANTS)} passed")
    return passed == len(INVARIANTS)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dualcurl",
        description="Discrete curl-curl solvers on the reference square: "
        "norm table, pointwise identity grids, convergence study.",
    )
    default = StudyConfig()
    parser.add_argument("--max-degree", type=int, default=default.max_degree)
    parser.add_argument("--grid-size", type=int, default=default.grid_size)
    parser.add_argument("--quadrature-boost", type=int, default=default.quadrature_boost)
    parser.add_argument("--out", type=Path, default=default.output_dir)
    parser.add_argument("--emit", default=",".join(sorted(default.emit)),
                        help=f"comma-separated subset of {','.join(EMIT_CHOICES)}")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = StudyConfig(max_degree=args.max_degree, grid_size=args.grid_size,
                          quadrature_boost=args.quadrature_boost, output_dir=args.out,
                          emit=[t for t in args.emit.split(",") if t])
    except ValueError as exc:
        parser.error(str(exc))

    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir {cfg.output_dir}: {exc}",
              file=sys.stderr)
        return 2

    report = None
    try:
        if cfg.emit & {"table1", "fig3"}:
            report = run_study(cfg)
        if "fig2" in cfg.emit:
            emit_fig2(cfg)
        if "matrices" in cfg.emit:
            emit_matrices(cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.self_check and not self_check(report=report):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
