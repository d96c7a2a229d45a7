import numpy as np
import pytest

from dualcurl.basis1d import edge_eval, gauss_rule, gll_nodes, lagrange_eval
from dualcurl.curlcurl import AnalyticField
from dualcurl.galerkin import assemble_mass0
from dualcurl.operators2d import build_trace


def random_vector_field(rng):
    """A smooth random vector field for boundary-data tests."""
    a = rng.uniform(-1.0, 1.0, 5)
    b = rng.uniform(-1.0, 1.0, 5)
    return AnalyticField(
        Ex=lambda x, y: a[0] + a[1] * np.sin(a[2] * x + a[3] * y) + a[4] * x * y,
        Ey=lambda x, y: b[0] + b[1] * np.cos(b[2] * x + b[3] * y) + b[4] * (x - y),
    )


def psi0_dense(ns, x, y):
    """Nodal 2D basis values at P points, shape ((N+1)^2, P), row j*(N+1)+i
    holding h_i(x) h_j(y): the (dofs x points) table as an oracle for the
    factor-table contraction."""
    Hx, Hy = lagrange_eval(ns, x), lagrange_eval(ns, y)
    return np.einsum("jp,ip->jip", Hy, Hx).reshape(-1, x.size)


def psi1_dense(ns, x, y):
    """Edge-vector 2D basis values at P points: the (xi, eta) components,
    each of shape (2N(N+1), P).  The xi-block fields h_i(x) e_j(y) have no
    eta component and the eta-block fields e_i(x) h_j(y) no xi component."""
    Hx, Hy = lagrange_eval(ns, x), lagrange_eval(ns, y)
    Ex, Ey = edge_eval(ns, x), edge_eval(ns, y)
    Vxi = np.einsum("jp,ip->jip", Ey, Hx).reshape(-1, x.size)
    Veta = np.einsum("jp,ip->jip", Hy, Ex).reshape(-1, x.size)
    Z = np.zeros_like(Vxi)
    return np.vstack([Vxi, Z]), np.vstack([Z, Veta])


def exact_nodal_gram(ns):
    """int h_i h_k dx on N+1 Gauss points, exact for the degree-2N products:
    the oracle for the closed form of `GramSet`'s exact nodal Gram."""
    q = gauss_rule(ns.degree + 1)
    H = lagrange_eval(ns, q.points)
    return (H * q.weights) @ H.T


def assemble_mass0_direct(N):
    """Nodal mass by direct 2D Gauss quadrature: the oracle for the tensor
    assembly (criterion 9)."""
    q = gauss_rule(N + 1)
    X, Y = np.meshgrid(q.points, q.points, indexing="ij")
    w2 = np.outer(q.weights, q.weights).ravel()
    P0 = psi0_dense(gll_nodes(N), X.ravel(), Y.ravel())
    return (P0 * w2) @ P0.T


def neumann_system(disc, bd):
    """(A, b) of the Neumann solve by its dense definition,
    (E10^T M1 E10 + M0) F = -T^T Ehat: the oracle for the Kronecker form."""
    E10 = disc.E10.toarray()
    A = E10.T @ disc.gram.M1.toarray() @ E10 + assemble_mass0(disc.gram.Gh)
    return A, -build_trace(disc.degree).T @ bd.dofs


def dirichlet_system(disc, bd):
    """(A, b) of the Dirichlet solve by its dense definition,
    (E10 inv(M0) E10^T + inv(M1)) Et = -E10 inv(M0) T^T Ehat."""
    E10 = disc.E10.toarray()
    B = E10 @ disc.gram.M2_dual
    return B @ E10.T + disc.gram.M1_dual.toarray(), -B @ (build_trace(disc.degree).T @ bd.dofs)


def equivalence_dense(disc, F):
    """M1 E10 F by the dense matrices: the oracle for the grid form of the
    equivalence check."""
    return disc.gram.M1.toarray() @ (disc.E10.toarray() @ F)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
