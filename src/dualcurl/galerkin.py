"""Gram (mass) matrices, the nodal and edge basis tables, and an SPD solver.

All matrices live on the reference square.  The interior masses have
tensor-product structure (1D Gram factors combined with `kron`), which a
direct 2D-quadrature assembly can cross-check.

Two quadrature rules are supported for assembly.  The default "gauss"
rule (Gauss-Legendre, N+1 points per direction) is exact for every
integrand here (nodal x nodal is degree 2N, edge x edge is 2N-2).  The
collocated "lobatto" rule uses the GLL nodes themselves, which lumps the
nodal Gram to diag(w); the published norm table was produced with that
rule, so the solver pipeline defaults to it while the library-level
contracts here are stated for the exact rule.

The dual bases are never tabulated: a dual expansion with dofs d equals
the primal expansion with coefficients inv(M) d, because M is symmetric,
so one mass solve against the dof vector replaces a solve against a
whole basis table.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .basis1d import gauss_rule, gll_nodes, lagrange_eval, edge_eval
from .operators2d import side_dof_indices

__all__ = [
    "gram_nodal_1d",
    "gram_edge_1d",
    "assemble_mass0",
    "assemble_mass1",
    "assemble_boundary_mass",
    "spd_solve",
    "GramSet",
    "psi0_table",
    "psi1_table",
]


def _quad(ns, rule):
    """Quadrature points/weights for 1D Gram assembly.

    "gauss":   Gauss-Legendre with N+1 points, exact for every integrand
               here (nodal x nodal is degree 2N <= 2N+1).
    "lobatto": the GLL nodes/weights themselves (N+1 points).  Inexact for
               nodal x nodal, so the nodal Gram collapses to diag(w); this
               is the collocated rule that reproduces the published norm
               table.  Edge x edge (degree 2N-2) is still integrated
               exactly.
    """
    if rule == "gauss":
        q = gauss_rule(ns.degree + 1)
        return q.points, q.weights
    if rule == "lobatto":
        return ns.nodes, ns.weights
    raise ValueError(f"unknown quadrature rule {rule!r}")


def gram_nodal_1d(ns, rule="gauss"):
    """(N+1)x(N+1) matrix of int h_i h_k dx."""
    pts, w = _quad(ns, rule)
    H = lagrange_eval(ns, pts)
    return (H * w) @ H.T


def gram_edge_1d(ns, rule="gauss"):
    """NxN matrix of int e_i e_k dx."""
    pts, w = _quad(ns, rule)
    E = edge_eval(ns, pts)
    return (E * w) @ E.T


def assemble_mass0(N, rule="gauss"):
    """Nodal mass matrix, shape ((N+1)^2,)^2, via 1D tensor Gram factors."""
    G = gram_nodal_1d(gll_nodes(N), rule)
    return np.kron(G, G)  # slow (eta) factor first: node index is j*(N+1)+i


def assemble_mass1(N, rule="gauss"):
    """Edge-vector mass matrix, shape (2N(N+1),)^2, block diagonal.

    Block 1 (xi-component, h_i(xi) e_j(eta)) is kron(Ge, Gh); block 2
    (eta-component, e_i(xi) h_j(eta)) is kron(Gh, Ge).  The two vector
    components never couple.
    """
    ns = gll_nodes(N)
    Gh = gram_nodal_1d(ns, rule)
    Ge = gram_edge_1d(ns, rule)
    n = N * (N + 1)
    M1 = np.zeros((2 * n, 2 * n))
    M1[:n, :n] = np.kron(Ge, Gh)
    M1[n:, n:] = np.kron(Gh, Ge)
    return M1


def assemble_boundary_mass(N, rule="gauss"):
    """4Nx4N Gram of the boundary loop basis under the arclength measure.

    Each side is a 1D element of length 2 (unit Jacobian), so the side
    contribution is the 1D nodal Gram scattered into that side's loop
    dofs; corner functions pick up contributions from both sides.
    """
    ns = gll_nodes(N)
    G = gram_nodal_1d(ns, rule)
    B = np.zeros((4 * N, 4 * N))
    for dofs in side_dof_indices(N).values():
        B[np.ix_(dofs, dofs)] += G
    return B


def spd_solve(A, b):
    """Solve Ax = b for symmetric positive definite A (Cholesky)."""
    return cho_solve(cho_factor(A), b)


@dataclass
class GramSet:
    """All Gram matrices for degree N, with cached inverse applications."""

    degree: int
    rule: str = "gauss"
    M0: np.ndarray = field(init=False)
    M1: np.ndarray = field(init=False)
    B0: np.ndarray = field(init=False)

    def __post_init__(self):
        N, rule = self.degree, self.rule
        self.M0 = assemble_mass0(N, rule)
        self.M1 = assemble_mass1(N, rule)
        self.B0 = assemble_boundary_mass(N, rule)
        self._c0 = cho_factor(self.M0)
        self._c1 = cho_factor(self.M1)

    def solve_mass0(self, b):
        return cho_solve(self._c0, b)

    def solve_mass1(self, b):
        return cho_solve(self._c1, b)

    @property
    def M2_dual(self):
        """inv(M0), the dual volume mass."""
        return cho_solve(self._c0, np.eye(self.M0.shape[0]))

    @property
    def M1_dual(self):
        """inv(M1), the dual edge mass."""
        return cho_solve(self._c1, np.eye(self.M1.shape[0]))


def psi0_table(ns, x, y):
    """Nodal 2D basis values at scattered points; shape ((N+1)^2, P)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    Hx = lagrange_eval(ns, x)
    Hy = lagrange_eval(ns, y)
    P = x.size
    return np.einsum("jp,ip->jip", Hy, Hx).reshape(-1, P)


def psi1_table(ns, x, y):
    """Edge-vector 2D basis values at scattered points.

    Returns (Vxi, Veta), each of shape (2N(N+1), P): the xi- and
    eta-components of every basis vector field (zero outside its block).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    N = ns.degree
    Hx = lagrange_eval(ns, x)
    Hy = lagrange_eval(ns, y)
    Ex = edge_eval(ns, x)
    Ey = edge_eval(ns, y)
    P = x.size
    n = N * (N + 1)
    top = np.einsum("jp,ip->jip", Ey, Hx).reshape(n, P)   # h_i(xi) e_j(eta)
    bot = np.einsum("jp,ip->jip", Hy, Ex).reshape(n, P)   # e_i(xi) h_j(eta)
    Vxi = np.vstack([top, np.zeros((n, P))])
    Veta = np.vstack([np.zeros((n, P)), bot])
    return Vxi, Veta
