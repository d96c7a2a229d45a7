import numpy as np
import pytest

from dualcurl.basis1d import gauss_rule, gll_nodes
from dualcurl.curlcurl import AnalyticField
from dualcurl.galerkin import psi0_table


def random_vector_field(rng):
    """A smooth random vector field for boundary-data tests."""
    a = rng.uniform(-1.0, 1.0, 5)
    b = rng.uniform(-1.0, 1.0, 5)
    return AnalyticField(
        Ex=lambda x, y: a[0] + a[1] * np.sin(a[2] * x + a[3] * y) + a[4] * x * y,
        Ey=lambda x, y: b[0] + b[1] * np.cos(b[2] * x + b[3] * y) + b[4] * (x - y),
    )


def assemble_mass0_direct(N):
    """Nodal mass by direct 2D Gauss quadrature: the oracle for the tensor
    assembly (criterion 9)."""
    q = gauss_rule(N + 1)
    X, Y = np.meshgrid(q.points, q.points, indexing="ij")
    w2 = np.outer(q.weights, q.weights).ravel()
    P0 = psi0_table(gll_nodes(N), X.ravel(), Y.ravel())
    return (P0 * w2) @ P0.T


def neumann_system(disc, bd):
    """(A, b) of the Neumann solve by its dense definition,
    (E10^T M1 E10 + M0) F = -T^T Ehat: the oracle for the Kronecker form."""
    A = disc.E10.T @ disc.gram.M1 @ disc.E10 + disc.gram.M0
    return A, -disc.T.T @ bd.dofs


def dirichlet_system(disc, bd):
    """(A, b) of the Dirichlet solve by its dense definition,
    (E10 inv(M0) E10^T + inv(M1)) Et = -E10 inv(M0) T^T Ehat."""
    B = disc.E10 @ disc.gram.M2_dual
    return B @ disc.E10.T + disc.gram.M1_dual, -B @ (disc.T.T @ bd.dofs)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
