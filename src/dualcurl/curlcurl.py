"""The two discrete curl-curl solvers on the reference square.

Neumann problem (primal): find the nodal dofs F of the scalar field from

    (E10^T M1 E10 + M0) F = -T^T Ehat ,

Dirichlet problem (dual): find the dual edge dofs Et of the vector field
from

    (E10 inv(M0) E10^T + inv(M1)) Et = -E10 inv(M0) T^T Ehat ,

where Ehat are the 4N boundary dofs obtained by integrating the
tangential trace n x E against the boundary loop basis, counter-clockwise
with positive arclength measure.  The two solutions are linked exactly by
Et = M1 E10 F, the discrete form of E = curl F, and carry equal
H(curl) norms.

Every function here takes the `Discretization` of the degree it works on;
it is the only way a degree and a quadrature rule reach this module, so
both solves, the norms and the errors always share the same operators.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis1d import gauss_rule, gll_nodes, lagrange_eval
from .galerkin import GramSet, psi0_table, psi1_table, spd_solve
from .operators2d import build_incidence, build_trace, side_dof_indices

__all__ = [
    "AnalyticField",
    "exponential_pair",
    "BoundaryData",
    "Solution",
    "Discretization",
    "project_boundary_data",
    "solve_neumann",
    "solve_dirichlet",
    "solve_both",
    "weak_curl",
    "norm_F",
    "norm_E",
    "reconstruct",
    "error_norms",
]

# outward normals of the four sides of [-1,1]^2
_NORMALS = {"S": (0.0, -1.0), "E": (1.0, 0.0), "N": (0.0, 1.0), "W": (-1.0, 0.0)}


@dataclass(frozen=True)
class AnalyticField:
    """A scalar field F with its curl E = (dF/dy, -dF/dx), or a bare
    vector field E with its scalar curl dEy/dx - dEx/dy.

    The vector part is what feeds the boundary data n x E; the scalar
    parts are used for error norms (curl E = -F for the homogeneous
    curl-curl equation).
    """

    Ex: Callable
    Ey: Callable
    scalar: Optional[Callable] = None        # F with curl F = (Ex, Ey)
    vector_curl: Optional[Callable] = None   # curl (Ex, Ey)

    def tangential_trace(self, side, x, y):
        """n x E = n_x Ey - n_y Ex on the given side."""
        nx, ny = _NORMALS[side]
        return nx * self.Ey(x, y) - ny * self.Ex(x, y)


def exponential_pair():
    """The exact pair F = e^x + e^y, E = curl F = (e^y, -e^x)."""
    return AnalyticField(
        Ex=lambda x, y: np.exp(y),
        Ey=lambda x, y: -np.exp(x),
        scalar=lambda x, y: np.exp(x) + np.exp(y),
        vector_curl=lambda x, y: -np.exp(x) - np.exp(y),
    )


@dataclass(frozen=True)
class BoundaryData:
    """4N boundary dofs in trace-row order."""

    degree: int
    dofs: np.ndarray


@dataclass(frozen=True)
class Solution:
    """Both discrete solutions for one boundary data set."""

    degree: int
    boundary: BoundaryData
    neumann: np.ndarray    # nodal dofs F, length (N+1)^2
    dirichlet: np.ndarray  # dual edge dofs Et, length 2N(N+1)


class Discretization:
    """Caches the operators for one degree N.

    `rule` selects the mass-matrix quadrature: the collocated "lobatto"
    rule (default) reproduces the published norm values; "gauss" gives
    exactly integrated masses.  The structural identities (equivalence of
    the two solves, equality of norms, E^h = curl F^h) hold for either.
    """

    def __init__(self, N, rule="lobatto"):
        self.degree = N
        self.rule = rule
        self.nodes = gll_nodes(N)
        self.E10 = build_incidence(N)
        self.T = build_trace(N)
        self.gram = GramSet(N, rule)


def _check(bd, disc):
    """Reject boundary data that does not belong to `disc` or is not finite."""
    n = 4 * disc.degree
    if bd.degree != disc.degree or np.shape(bd.dofs) != (n,):
        raise ValueError(
            f"boundary data of degree {bd.degree} with {np.size(bd.dofs)} dofs "
            f"does not match the degree-{disc.degree} discretization ({n} dofs)"
        )
    if not np.all(np.isfinite(bd.dofs)):
        raise ValueError("boundary data dofs are not finite (NaN or inf)")


def project_boundary_data(field, disc, n_quad=None):
    """Project the tangential trace n x E onto the boundary loop basis.

    Ehat_k = closed-loop integral of psi_k(s) * (n x E)(s) ds, traversed
    counter-clockwise; corner dofs collect both adjacent sides.  The data
    is generally non-polynomial, so the per-side Gauss rule defaults to
    N+15 points.
    """
    N = disc.degree
    q = gauss_rule(n_quad if n_quad is not None else N + 15)
    H = lagrange_eval(disc.nodes, q.points)  # (N+1, M)
    coords = {
        "S": (q.points, np.full_like(q.points, -1.0)),
        "E": (np.full_like(q.points, 1.0), q.points),
        "N": (q.points, np.full_like(q.points, 1.0)),
        "W": (np.full_like(q.points, -1.0), q.points),
    }
    dofs = np.zeros(4 * N)
    for side, side_dofs in side_dof_indices(N).items():
        x, y = coords[side]
        ehat = field.tangential_trace(side, x, y)
        dofs[side_dofs] += H @ (q.weights * ehat)
    return BoundaryData(degree=N, dofs=dofs)


def solve_neumann(bd, disc):
    """Primal solve: nodal dofs F from (E10^T M1 E10 + M0) F = -T^T Ehat."""
    _check(bd, disc)
    A = disc.E10.T @ disc.gram.M1 @ disc.E10 + disc.gram.M0
    return spd_solve(A, -disc.T.T @ bd.dofs)


def solve_dirichlet(bd, disc):
    """Dual solve: edge dofs Et from
    (E10 inv(M0) E10^T + inv(M1)) Et = -E10 inv(M0) T^T Ehat."""
    _check(bd, disc)
    M2d = disc.gram.M2_dual
    A = disc.E10 @ M2d @ disc.E10.T + disc.gram.M1_dual
    return spd_solve(A, -disc.E10 @ M2d @ (disc.T.T @ bd.dofs))


def solve_both(bd, disc):
    return Solution(
        degree=disc.degree,
        boundary=bd,
        neumann=solve_neumann(bd, disc),
        dirichlet=solve_dirichlet(bd, disc),
    )


def weak_curl(Et, bd, disc):
    """Dofs of the weak curl of the dual field: E10^T Et + T^T Ehat."""
    _check(bd, disc)
    return disc.E10.T @ Et + disc.T.T @ bd.dofs


def norm_F(F, disc):
    """H(curl) norm of the primal scalar field from its nodal dofs."""
    c = disc.E10 @ F
    return float(np.sqrt(F @ disc.gram.M0 @ F + c @ disc.gram.M1 @ c))


def norm_E(Et, bd, disc):
    """H(curl) norm of the dual vector field from its edge dofs."""
    w = weak_curl(Et, bd, disc)
    return float(
        np.sqrt(w @ disc.gram.solve_mass0(w) + Et @ disc.gram.solve_mass1(Et))
    )


def reconstruct(kind, dofs, x, y, disc):
    """Pointwise field values at scattered points.

    kind: "primal-scalar"  -> psi0 F                  (scalar)
          "primal-curl"    -> psi1 E10 F              (vector: xi, eta)
          "dual-vector"    -> psi1 inv(M1) Et         (vector: xi, eta)
          "dual-weak-curl" -> psi0 inv(M0) w          (scalar)

    The dual kinds solve the mass matrix against the dofs, not against
    the basis table: M is symmetric, so (inv(M) d) @ psi = d @ inv(M) psi.
    """
    ns = disc.nodes
    dofs = np.asarray(dofs, dtype=float)
    if kind == "primal-scalar":
        return dofs @ psi0_table(ns, x, y)
    if kind == "dual-weak-curl":
        return disc.gram.solve_mass0(dofs) @ psi0_table(ns, x, y)
    if kind == "primal-curl":
        c = disc.E10 @ dofs
    elif kind == "dual-vector":
        c = disc.gram.solve_mass1(dofs)
    else:
        raise ValueError(f"unknown reconstruction kind {kind!r}")
    Vxi, Veta = psi1_table(ns, x, y)
    return c @ Vxi, c @ Veta


def error_norms(sol, exact, disc, boost=15):
    """H(curl) errors (errF, errE) against the analytic pair.

    Uses a tensor Gauss grid with N+boost points per direction; the curl
    term of the dual error uses the weak-curl reconstruction and the
    analytic scalar curl of E, so `exact` needs `scalar` and `vector_curl`.
    """
    missing = [k for k in ("scalar", "vector_curl") if getattr(exact, k) is None]
    if missing:
        raise ValueError(f"error_norms needs the exact field's {' and '.join(missing)}")
    N = disc.degree
    q = gauss_rule(N + boost)
    X, Y = np.meshgrid(q.points, q.points, indexing="ij")
    x, y = X.ravel(), Y.ravel()
    w2 = np.outer(q.weights, q.weights).ravel()

    Fh = reconstruct("primal-scalar", sol.neumann, x, y, disc)
    cFx, cFy = reconstruct("primal-curl", sol.neumann, x, y, disc)
    errF2 = w2 @ (
        (exact.scalar(x, y) - Fh) ** 2
        + (exact.Ex(x, y) - cFx) ** 2
        + (exact.Ey(x, y) - cFy) ** 2
    )

    Ehx, Ehy = reconstruct("dual-vector", sol.dirichlet, x, y, disc)
    w = weak_curl(sol.dirichlet, sol.boundary, disc)
    cEh = reconstruct("dual-weak-curl", w, x, y, disc)
    errE2 = w2 @ (
        (exact.Ex(x, y) - Ehx) ** 2
        + (exact.Ey(x, y) - Ehy) ** 2
        + (exact.vector_curl(x, y) - cEh) ** 2
    )
    return float(np.sqrt(errF2)), float(np.sqrt(errE2))
