"""Gram (mass) matrices, the 1D factor tables of the bases, and an SPD solver.

All matrices live on the reference square and are built from two 1D
Grams of degree N: the nodal Gram Gh and the edge Gram Ge, which `GramSet`
computes once on one node set.  The masses are their tensor products,
M0 = kron(Gh, Gh) and M1 = block_diag(kron(Ge, Gh), kron(Gh, Ge)).  The
inverse of a Kronecker product is the Kronecker product of the inverses,
so the dual masses inv(M0) and inv(M1) are the same assemblies applied
to inv(Gh) and inv(Ge).  Those two 1D inverses are the only
factorizations a `GramSet` makes; every mass solve applies a dual mass.

Two quadrature rules are supported for assembly.  The default "gauss"
rule (Gauss-Legendre, N+1 points per direction) is exact for every
integrand here (nodal x nodal is degree 2N, edge x edge is 2N-2).  The
collocated "lobatto" rule uses the GLL nodes themselves, which lumps the
nodal Gram to diag(w); the published norm table was produced with that
rule, so the solver pipeline defaults to it while the library-level
contracts here are stated for the exact rule.

Neither basis is tabulated in 2D.  A dual expansion with dofs d equals
the primal expansion with coefficients inv(M) d, because M is symmetric,
so one mass solve against the dofs replaces a solve against a basis
table; `psi0_table`/`psi1_table` return the 1D factor tables at P points
as a flat tuple, and a field with coefficient grid C[j, i] (j along y)
is ((C @ Fx) * Fy).sum(axis=0).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, cho_factor, cho_solve

from .basis1d import NodeSet1D, gauss_rule, gll_nodes, lagrange_eval, edge_eval
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


def assemble_mass0(G):
    """Nodal mass matrix kron(G, G), shape ((N+1)^2,)^2, from a 1D nodal Gram."""
    return np.kron(G, G)  # slow (eta) factor first: node index is j*(N+1)+i


def assemble_mass1(Gh, Ge):
    """Edge-vector mass matrix, shape (2N(N+1),)^2, block diagonal.

    Block 1 (xi-component, h_i(xi) e_j(eta)) is kron(Ge, Gh); block 2
    (eta-component, e_i(xi) h_j(eta)) is kron(Gh, Ge).  The two vector
    components never couple.
    """
    return block_diag(np.kron(Ge, Gh), np.kron(Gh, Ge))


def assemble_boundary_mass(G):
    """4Nx4N Gram of the boundary loop basis under the arclength measure.

    Each side is a 1D element of length 2 (unit Jacobian), so the side
    contribution is the 1D nodal Gram G, (N+1)x(N+1), scattered into that
    side's loop dofs; corner functions pick up contributions from both sides.
    """
    N = G.shape[0] - 1
    B = np.zeros((4 * N, 4 * N))
    for dofs in side_dof_indices(N).values():
        B[np.ix_(dofs, dofs)] += G
    return B


def spd_solve(A, b):
    """Solve Ax = b for symmetric positive definite A (Cholesky)."""
    return cho_solve(cho_factor(A), b)


@dataclass
class GramSet:
    """The node set, the 1D Gram factors of degree N and their inverses,
    the 2D masses built from the factors and the inverse masses built from
    the inverses."""

    degree: int
    rule: str = "gauss"
    nodes: NodeSet1D = field(init=False)
    Gh: np.ndarray = field(init=False)
    Ge: np.ndarray = field(init=False)
    Gh_inv: np.ndarray = field(init=False)
    Ge_inv: np.ndarray = field(init=False)
    M0: np.ndarray = field(init=False)
    M1: np.ndarray = field(init=False)
    B0: np.ndarray = field(init=False)

    def __post_init__(self):
        self.nodes = gll_nodes(self.degree)
        self.Gh = gram_nodal_1d(self.nodes, self.rule)
        self.Ge = gram_edge_1d(self.nodes, self.rule)
        self.M0 = assemble_mass0(self.Gh)
        self.M1 = assemble_mass1(self.Gh, self.Ge)
        self.B0 = assemble_boundary_mass(self.Gh)
        self.Gh_inv = spd_solve(self.Gh, np.eye(self.degree + 1))
        self.Ge_inv = spd_solve(self.Ge, np.eye(self.degree))

    def solve_mass0(self, b):
        return self.M2_dual @ b

    def solve_mass1(self, b):
        return self.M1_dual @ b

    @property
    def M2_dual(self):
        """inv(M0) = kron(inv(Gh), inv(Gh)), the dual volume mass."""
        return assemble_mass0(self.Gh_inv)

    @property
    def M1_dual(self):
        """inv(M1), the dual edge mass, from the inverse 1D factors."""
        return assemble_mass1(self.Gh_inv, self.Ge_inv)


def _points(x, y):
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    if x.ndim != 1 or x.shape != y.shape:  # a 2D grid would broadcast silently
        raise ValueError(f"x and y must be 1D of one shape, not {x.shape} and {y.shape}")
    return x, y


def psi0_table(ns, x, y):
    """Nodal factors (Hx, Hy), each (N+1, P): node j*(N+1)+i is h_i(x) h_j(y)."""
    x, y = _points(x, y)
    return lagrange_eval(ns, x), lagrange_eval(ns, y)


def psi1_table(ns, x, y):
    """Edge factors (Ex, Ey), each (N, P): the xi block is h_i(x) e_j(y) and
    the eta block e_i(x) h_j(y), each zero in the other component."""
    x, y = _points(x, y)
    return edge_eval(ns, x), edge_eval(ns, y)
