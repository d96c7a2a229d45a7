"""1D Gauss-Lobatto-Legendre nodes/weights and the nodal/edge polynomial bases.

The nodal (Lagrange) basis h_i of degree N interpolates at the N+1 GLL
points.  The edge basis e_i (degree N-1) is built from the derivatives of
the nodal basis,

    e_i(x) = -sum_{k=0}^{i-1} dh_k/dx(x),    i = 1..N,

and satisfies the Kronecker integral property
int_{x_{j-1}}^{x_j} e_i dx = delta_ij.

Note: some references print the sum starting at k=1, which would make e_1
vanish identically and break the integral property; the k=0 lower bound
used here is the one consistent with that property.

`gll_nodes` and `gauss_rule` share one node algorithm, with no iteration and
no degree limit: the eigenvalues of a Jacobi matrix (Golub & Welsch, Math.
Comp. 23, 1969), one Newton step, and the weights from that one evaluation
of L_N, taken to the polished nodes by a Taylor step with L'' from the
Legendre ODE.  `lagrange_eval` is the one pointwise evaluator.  h_i' has
degree N-1, so h_i'(x) = sum_j h_j(x) Dn[j, i] with the nodal
differentiation matrix Dn[j, i] = h_i'(x_j), built once per node set
(Berrut & Trefethen, SIAM Rev. 46, 2004, 9), and the edge table is
-cumsum(Dn^T H)[:-1] of the nodal table H (`_edge_table`): a caller that
needs both tables evaluates H once, and at the nodes, where H is the
identity, none.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NodeSet1D",
    "QuadratureRule1D",
    "gll_nodes",
    "gauss_rule",
    "lagrange_eval",
    "edge_eval",
]


@dataclass(frozen=True)
class NodeSet1D:
    """GLL nodes, quadrature and barycentric weights, Dn for degree N."""

    degree: int
    nodes: np.ndarray    # (N+1,) ascending, nodes[0] = -1, nodes[N] = +1
    weights: np.ndarray  # (N+1,) GLL quadrature weights, sum to 2
    bary: np.ndarray     # (N+1,) barycentric weights (normalized)
    deriv: np.ndarray    # (N+1, N+1) Dn[j, i] = h_i'(x_j)


@dataclass(frozen=True)
class QuadratureRule1D:
    """Gauss-Legendre rule on [-1,1], exact for degree <= 2M-1."""

    points: np.ndarray
    weights: np.ndarray


def _integer(name, value, least):
    """`value` as an int >= `least`; a bool or a non-integer type raises
    `TypeError` naming `name`, a smaller value `ValueError`.  The package's
    one integer rule: every degree, point count, grid size and boost of a
    public entry, in every layer, goes through it."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _real(name, v):
    """`v` as a float array; a complex one raises `ValueError` naming `name`,
    where the float cast would drop its imaginary part."""
    if np.iscomplexobj(v):
        raise ValueError(f"{name} must be real, not complex")
    return np.asarray(v, dtype=float)


def _legendre(N, x):
    """(L_N(x), L_N'(x)) for N >= 1 by three-term recurrence."""
    Lm, dLm = np.ones_like(x), np.zeros_like(x)  # L_0, L_0'
    L, dL = x, np.ones_like(x)                    # L_1, L_1'
    for k in range(1, N):
        Lp = ((2 * k + 1) * x * L - k * Lm) / (k + 1)
        dLp = dLm + (2 * k + 1) * L     # L'_{k+1} = L'_{k-1} + (2k+1) L_k
        Lm, L = L, Lp
        dLm, dL = dL, dLp
    return L, dL


def gll_nodes(N):
    """GLL nodes, quadrature and barycentric weights and Dn for degree N.

    The interior nodes are the roots of L_N' (of P^(1,1)_{N-1}).  The node
    polynomial (1-x^2) L_N' has derivative -N(N+1) L_N, so one L_N at the
    nodes gives both w_i = 2 / (N(N+1) L_N(x_i)^2) and b_i ∝ 1/L_N(x_i):
    the polished nodes lie dx ~ 1e-16 from the eigenvalues, and
    L + dx (L' + dx L''/2) misses L_N there by O(dx^3).  The endpoints take
    L_N(±1) = (±1)^N.  Dn[j, i] = (b_i/b_j)/(x_j - x_i) off the diagonal;
    its rows sum to zero.
    """
    N = _integer("degree", N, 1)
    k = np.arange(1, N - 1)  # the lower triangle of J; N=1 has no interior node
    beta = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
    xi = np.linalg.eigvalsh(np.diag(beta, -1))[:N - 1]
    L, dL = _legendre(N, xi)
    # q = (1-x^2) L_N'' = 2x L_N' - N(N+1) L_N by the Legendre ODE
    s, q = 1.0 - xi * xi, 2.0 * xi * dL - N * (N + 1) * L
    x = np.concatenate([[-1.0], xi - dL * s / q, [1.0]])  # one Newton step
    x = 0.5 * (x - x[::-1])  # enforce symmetry about 0
    dx = x[1:-1] - xi
    L = np.concatenate([[(-1.0) ** N], L + dx * (dL + dx * (q / s) / 2), [1.0]])
    w = 2.0 / (N * (N + 1) * L * L)
    w = 0.5 * (w + w[::-1])
    b = 1.0 / L
    b /= np.max(np.abs(b))
    gap = x[:, None] - x[None, :]
    np.fill_diagonal(gap, 1.0)
    Dn = b / b[:, None] / gap
    np.fill_diagonal(Dn, 0.0)
    np.fill_diagonal(Dn, -Dn.sum(axis=1))
    return NodeSet1D(N, x, w, b, Dn)


def gauss_rule(M):
    """Gauss-Legendre rule with M points, computed once per M (read-only):
    w_i = 2 / ((1-x_i^2) L_M'(x_i)^2), with L_M' at the polished nodes from
    L' + dx L'' (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013)."""
    return _gauss_rule(_integer("points", M, 1))


@lru_cache(maxsize=None)
def _gauss_rule(M):
    k = np.arange(1, M)  # eigvalsh reads only the lower triangle
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1), -1))
    L, dL = _legendre(M, x)
    p = x - L / dL  # one Newton step
    p = 0.5 * (p - p[::-1])  # nodes and weights symmetric about 0
    dL = dL + (p - x) * (2.0 * x * dL - M * (M + 1) * L) / (1.0 - x * x)
    w = 2.0 / ((1.0 - p * p) * dL * dL)
    w = 0.5 * (w + w[::-1])
    p.flags.writeable = w.flags.writeable = False
    return QuadratureRule1D(points=p, weights=w)


def lagrange_eval(ns, x):
    """Evaluate the nodal basis h_i at x; returns (N+1,) or (N+1, M).

    Uses the second barycentric form; exact node hits return the
    Kronecker column.  x must be a scalar or a 1D array.
    """
    x = _real("points", x)
    if x.ndim > 1:  # numpy would fail broadcasting it against the nodes
        raise ValueError(f"points must be a scalar or a 1D array, not of shape {x.shape}")
    diff = np.atleast_1d(x)[None, :] - ns.nodes[:, None]
    hit = diff == 0.0
    on_node = hit.any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tmp = ns.bary[:, None] / diff
        H = tmp / np.sum(tmp, axis=0)
    H[:, on_node] = hit[:, on_node]
    return H[:, 0] if x.ndim == 0 else H


def edge_eval(ns, x):
    """Evaluate the edge basis e_i at x; returns (N,) or (N, M)."""
    return _edge_table(ns, lagrange_eval(ns, x))


def _edge_table(ns, H=None):
    """The edge table -cumsum(Dn^T H)[:-1] of the nodal table H at the same
    points; H=None stands for the nodes, where H is the identity.  Dn^T is
    copied to C order, the layout of Dn^T @ H: a BLAS product of the table
    sums in an order that depends on its layout."""
    dH = ns.deriv.T.copy() if H is None else ns.deriv.T @ H
    return -np.cumsum(dH, axis=0)[:-1]
