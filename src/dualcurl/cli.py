"""Command-line driver: the norm table and convergence study (one
`curlcurl.solve_degree` per degree), identity grids and an invariant self-check.

Outputs (all deterministic, period decimal separator, 12 significant
digits):

  table1.csv   header N,normF,normE,absdiff
  fig3.csv     header N,errF,errE
  fig2_xi.csv  grid_size rows of comma-separated reals (xi component of
               E^h - curl F^h at N=3 on an interior Gauss tensor grid)
  fig2_eta.csv same for the eta component
  incidence.csv, trace.csv   integer operator dumps (--emit matrices)

The norm table, the fig2 maximum and the --self-check lines go to stdout,
printed by the functions that compute them; --quadrature-boost is at least 1.
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import curlcurl as cc
from .basis1d import _integer, gauss_rule, gll_nodes, edge_eval
from .galerkin import GramSet
from .operators2d import build_incidence, build_trace

__all__ = [
    "StudyConfig",
    "INVARIANTS",
    "INCIDENCE_N3",
    "TRACE_N3",
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
        for name, least in (("max_degree", 1), ("grid_size", 2), ("quadrature_boost", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        try:  # a str would be read as a set of letters
            if isinstance(self.emit, str):
                raise TypeError
            object.__setattr__(self, "emit", frozenset(self.emit))  # hashable, equal as a set
        except TypeError:
            raise TypeError(f"emit must be a set of target names, got {self.emit!r}") from None
        bad = self.emit - set(EMIT_CHOICES)
        if bad:
            raise ValueError(f"unknown emit targets: {sorted(bad, key=str)}")


def _fmt(v):
    return f"{v:.12g}"


def _worst(values):
    """The largest of `values`, or NaN if any is NaN, which Python's max drops if not first."""
    return float(np.max(np.fromiter(values, float)))


def run_study(cfg):
    """The `curlcurl.solve_degree` records of the exponential pair, N = 1..max_degree;
    writes table1.csv and prints its table, and writes fig3.csv, when requested."""
    records = tuple(cc.solve_degree(cc.exponential_pair(),
                                    cc.Discretization(N, boost=cfg.quadrature_boost))
                    for N in range(1, cfg.max_degree + 1))
    if "table1" in cfg.emit:
        _write_csv(cfg.output_dir / "table1.csv", "N,normF,normE,absdiff",
                   [(r.N, _fmt(r.normF), _fmt(r.normE), _fmt(abs(r.normF - r.normE)))
                    for r in records])
        print(_norm_table_text(records))
    if "fig3" in cfg.emit:
        _write_csv(cfg.output_dir / "fig3.csv", "N,errF,errE",
                   [(r.N, _fmt(r.errF), _fmt(r.errE)) for r in records])
    return records


def _norm_table_text(records):
    lines = [f"{'N':>3}  {'|F^h|_H(curl)':>14}  {'|E^h|_H(curl)':>14}"]
    for r in records:
        lines.append(f"{r.N:>3}  {r.normF:>14.8f}  {r.normE:>14.8f}")
    lines.append(f"theoretical value: {theoretical_norm():.8f}")
    return "\n".join(lines)


def _write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def emit_fig2(cfg):
    """Pointwise E^h - curl F^h at N=3 on an interior Gauss tensor grid.

    Writes the two grids, prints their maximum, returns (grid_xi, grid_eta, maxabs).
    The grid avoids the element edges at +-1 on purpose.
    """
    disc = cc.Discretization(_FIGURE_DEGREE, boost=cfg.quadrature_boost)
    sol = cc.solve_both(cc.project_boundary_data(cc.exponential_pair(), disc), disc)

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
    maxabs = _worst(np.abs(d).max() for d in (dxi, deta))
    print(f"max |E^h - curl F^h| on {cfg.grid_size}x{cfg.grid_size} grid, "
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


def _edge_kronecker_gaps():
    """Edge-basis interval integrals against the identity, one gap per degree N=1..12."""
    for N in range(1, 13):
        ns = gll_nodes(N)
        q = gauss_rule(max(N, 2))
        h, mid = np.diff(ns.nodes) / 2, (ns.nodes[1:] + ns.nodes[:-1]) / 2
        E = edge_eval(ns, np.kron(h, q.points) + np.repeat(mid, len(q.points)))
        integrals = E @ np.kron(np.diag(h), q.weights[:, None])
        yield np.abs(integrals - np.eye(N)).max()


def _volume_biorthogonality_gaps():
    """Dual volume basis against the primal nodal one, one gap per degree N=1..8: the
    exact-rule grid solve of M0's columns, column (j, i) the grid outer(Gh[:, j], Gh[:, i])."""
    for N in range(1, 9):
        gram = GramSet(N, rule="gauss")
        X = gram._solve_mass0(np.einsum("aj,bi->jiab", gram.Gh, gram.Gh))
        I = np.eye(N + 1)
        yield np.abs(X - np.einsum("aj,bi->jiab", I, I)).max()


def _plane_wave_errors():
    """errF and errE of the plane wave t = 0.3 at degree 12, `lobatto`: an exact solution
    whose traces vary along every side, at a degree that no --max-degree changes."""
    r = cc.solve_degree(cc.plane_wave(0.3), cc.Discretization(12))
    return r.errF, r.errE


def _fixture_gap(got, expected):
    if got.shape != expected.shape:
        return float("inf")
    return float(np.abs(got - expected).max())


# (name, residual function of the study's DegreeRecords, tolerance), in the order
# --self-check runs them; a line over many values reads their `_worst`.
INVARIANTS = (
    ("edge-basis interval integrals = identity (N=1..12)",
     lambda records: _worst(_edge_kronecker_gaps()), 1e-12),
    ("dual/primal volume biorthogonality (N=1..8)",
     lambda records: _worst(_volume_biorthogonality_gaps()), 1e-12),
    ("incidence matrix matches the N=3 fixture",
     lambda records: _fixture_gap(build_incidence(3), INCIDENCE_N3), 0),
    ("trace matrix matches the N=3 fixture",
     lambda records: _fixture_gap(build_trace(3), TRACE_N3), 0),
    ("dual edge dofs equal M1 E10 F (every degree solved)",
     lambda records: _worst(r.equivalence_residual for r in records), 1e-11),
    ("norm of E^h equals norm of F^h (every degree solved)",
     lambda records: _worst(cc.norm_gap(r.normF, r.normE) for r in records), 1e-11),
    ("curl of E^h equals -F^h (every degree solved)",
     lambda records: _worst(r.weak_curl_residual for r in records), 1e-11),
    ("A_D M1 E10 = E10 inv(M0) A_N on a chirp grid (every degree solved)",
     lambda records: _worst(r.operator_residual for r in records), 1e-12),
    # the identities hold for any data; this line reads the answer.  Its floor is the
    # degree-12 space's best error, errF under `gauss` (7.315e-13), and 1e-11 is 13x
    # above it and the ~3e-14 roundoff, and below N=11's floor (1.8e-11)
    ("answer: errF and errE of the plane wave t=0.3 at N=12 (space floor 7.3e-13)",
     lambda records: _worst(_plane_wave_errors()), 1e-11),
)


def self_check(records):
    """Run the invariant registry on `records`, every `DegreeRecord` of the run's
    study; solves only the answer line's plane wave at N=12 and prints a line per
    invariant and a summary.  True iff every residual is within its tolerance."""
    if not (records := tuple(records)):  # one pass over a one-shot iterable
        raise ValueError("self_check needs the study's records, got none")
    passed = 0
    for name, residual_fn, tol in INVARIANTS:
        residual = residual_fn(records)
        ok = residual <= tol
        passed += ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: residual {residual:.3e} "
              f"(tol {tol:.0e})")
    print(f"self-check: {passed}/{len(INVARIANTS)} passed")
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

    try:
        if cfg.emit & {"table1", "fig3"} or args.self_check:
            records = run_study(cfg)
        if "fig2" in cfg.emit:
            emit_fig2(cfg)
        if "matrices" in cfg.emit:
            emit_matrices(cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.self_check and not self_check(records):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
