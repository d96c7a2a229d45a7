"""Gram (mass) matrices and their inverses.

All matrices live on the reference square and are built from two 1D
Grams of degree N: the nodal Gram Gh and the edge Gram Ge, which `GramSet`
computes once on one node set.  The masses are their tensor products,
M0 = kron(Gh, Gh) and M1 = block_diag(kron(Ge, Gh), kron(Gh, Ge)).  The
inverse of a Kronecker product is the Kronecker product of the inverses,
inv(kron(A, B)) = kron(inv(A), inv(B)), and kron(A, B) b is A g B^T on the
grid g of b (Deville, Fischer & Mund 2002, 4.5).  So a mass solve is two
1D products on the grids, O(N^3): Hi f Hi^T on the node grid for M0, and
Ei s Hi^T on the edge stack s for M1 (`operators2d`: both components as
(interval, node) grids, so one batched product serves both), with
Hi = inv(Gh), Ei = inv(Ge); `solve_mass0/1` wrap them for one dof vector.
Each is Li^T Li from an inverse factor Li, Li G Li^T = I, and
`Discretization` reuses `GramSet.Lh` for its pencil (K, Gh); no 2D mass or
dual mass is formed unless a caller asks for one.  The edge masses M1 and
inv(M1) are then built as sparse arrays from the 1D factors, so only
`assemble_mass1` loads scipy; the nodal masses are dense.

The quadrature rule picks only the scalar c of the nodal Gram
Gh = diag(w) - c v v^T on the GLL nodes x_i, weights w_i, v_i = w_i L_N(x_i):
GLL quadrature is exact to degree 2N-1 and misses only L_N^2 (2/N for
2/(2N+1)), so "gauss" takes c = N(N+1)/(2(2N+1)), the exact Gram of degree
2N (Teukolsky, "Short note on the mass matrix for Gauss-Lobatto grid
points", J. Comput. Phys. 283, 2015), and the collocated "lobatto" c = 0,
the lumped diag(w).  Gh's inverse factor is the closed form
Lh = (I + beta u u^T) diag(w)^(-1/2), u = v / sqrt(w), so set-up makes one
Cholesky factorization per degree, of the edge Gram (exact on the GLL
nodes under either rule), and one LU solve (gesv) of its factor against I.
The package's one default rule is `Discretization`'s "lobatto", the rule of
the published norm table; the contracts here are stated for the exact rule.

Neither basis is tabulated in 2D.  A dual expansion with dofs d equals
the primal expansion with coefficients inv(M) d, because M is symmetric,
so one mass solve against the dofs replaces a solve against a basis
table (see `curlcurl.reconstruct`).
"""

from functools import cached_property

import numpy as np

from .basis1d import _edge_table, gll_nodes
from .operators2d import _dofs, _flat

__all__ = [
    "assemble_mass0",
    "assemble_mass1",
    "GramSet",
]


def assemble_mass0(G):
    """Nodal mass matrix kron(G, G), shape ((N+1)^2,)^2, from a 1D nodal Gram."""
    return np.kron(G, G)  # slow (eta) factor first: node index is j*(N+1)+i


def assemble_mass1(Gh, Ge):
    """Edge-vector mass matrix, a sparse CSR array of shape (2N(N+1),)^2,
    block diagonal.

    Block 1 (xi-component, h_i(xi) e_j(eta)) is kron(Ge, Gh); block 2
    (eta-component, e_i(xi) h_j(eta)) is kron(Gh, Ge); the components never
    couple.  Each entry is one product of two 1D entries, as in np.kron, and
    the zeros of the 1D factors are not stored: under "lobatto" Gh is
    diagonal, so M1 holds 2N^2(N+1) entries, not 2N^2(N+1)^2.
    """
    from scipy import sparse  # loaded here only: the solve path is numpy-only

    Gh, Ge = sparse.csr_array(Gh), sparse.csr_array(Ge)
    # COO, as kron's default BSR path would store the zeros of a dense-enough factor
    blocks = [sparse.kron(Ge, Gh, format="coo"), sparse.kron(Gh, Ge, format="coo")]
    return sparse.block_diag(blocks, format="csr")


def _inverse_factor(B):
    """Li = inv(L) of the Cholesky factor B = L L^T of an SPD matrix B, so
    that inv(B) = Li^T Li: one factorization and one LU solve (gesv) of L
    against I.  Raises `LinAlgError` if B is not positive definite."""
    L = np.linalg.cholesky(B)
    return np.linalg.solve(L, np.eye(len(B)))


class GramSet:
    """The node set, the 1D Grams of degree N under the quadrature `rule`,
    "gauss" or "lobatto", which picks only c in Gh = diag(w) - c v v^T, and
    their inverses, Gh_inv = Lh^T Lh from Gh's closed-form inverse factor
    `Lh`.  M1 is applied and solved on the grids from the 1D factors; the
    public solves take one finite dof vector.  The sparse edge mass M1 is
    built on first access; the nodal mass M0 is not stored: callers apply
    it as Gh f Gh on the node grid, or build it with `assemble_mass0(Gh)`."""

    def __init__(self, degree, rule):
        if rule not in ("lobatto", "gauss"):  # checked before any node is computed
            raise ValueError(f"unknown quadrature rule {rule!r}")
        self.nodes = ns = gll_nodes(degree)  # checks the degree
        self.degree, self.rule = ns.degree, rule
        N, w = ns.degree, ns.weights
        c = N * (N + 1) / (2 * (2 * N + 1)) if rule == "gauss" else 0.0
        # u = v / sqrt(w), |u|^2 = 2/N: L_N(x_i) alternates in sign up to L_N(1) = 1
        u = (-1.0) ** np.arange(N, -1, -1) * np.sqrt(2.0 / (N * (N + 1)))
        self.Gh = np.diag(w) - c * np.outer(np.sqrt(w) * u, np.sqrt(w) * u)
        beta = (1.0 / np.sqrt(1.0 - 2.0 * c / N) - 1.0) * N / 2  # Lh Gh Lh^T = I
        self.Lh = (np.eye(N + 1) + beta * np.outer(u, u)) / np.sqrt(w)
        E = _edge_table(ns)  # int e_i e_k dx, exact on the GLL nodes
        self.Ge = (E * w) @ E.T
        Le = _inverse_factor(self.Ge)
        self.Gh_inv, self.Ge_inv = self.Lh.T @ self.Lh, Le.T @ Le

    @cached_property
    def M1(self):
        """The edge mass, a sparse CSR array (2N(N+1),)^2."""
        return assemble_mass1(self.Gh, self.Ge)

    def _mass1(self, s):
        """M1 Et = Ge s Gh on the edge stack s of Et."""
        return self.Ge @ s @ self.Gh

    def _solve_mass0(self, f):
        """inv(M0) F = Hi f Hi^T on the (N+1)x(N+1) node grid f of F."""
        return self.Gh_inv @ f @ self.Gh_inv.T

    def _solve_mass1(self, s):
        """inv(M1) Et = Ei s Hi^T on the edge stack s of Et."""
        return self.Ge_inv @ s @ self.Gh_inv.T

    def solve_mass0(self, b):
        """inv(M0) b for the nodal dof vector b."""
        return _flat(self._solve_mass0(_dofs(b, self.degree)))

    def solve_mass1(self, b):
        """inv(M1) b for the edge dof vector b."""
        return _flat(self._solve_mass1(_dofs(b, self.degree, "edges")))

    # References for tests; no solve, norm or error path reads them.
    @property
    def M2_dual(self):
        """inv(M0) = kron(inv(Gh), inv(Gh)), the dual volume mass."""
        return assemble_mass0(self.Gh_inv)

    @property
    def M1_dual(self):
        """inv(M1), the dual edge mass, a sparse CSR array from the inverse 1D factors."""
        return assemble_mass1(self.Gh_inv, self.Ge_inv)

