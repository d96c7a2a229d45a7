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

`lagrange_eval` is the one pointwise evaluator.  h_i' has degree N-1, so
`lagrange_deriv` applies the nodal differentiation matrix Dn[j, i] = h_i'(x_j),
built once per node set, to it (Berrut & Trefethen, SIAM Rev. 46, 2004, 9).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NodeSet1D",
    "QuadratureRule1D",
    "legendre_eval",
    "gll_nodes",
    "gauss_rule",
    "lagrange_eval",
    "lagrange_deriv",
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


def legendre_eval(N, x):
    """Return (L_N(x), L_N'(x)) by three-term recurrence.

    Accepts scalars or arrays.
    """
    if N < 0:
        raise ValueError(f"Legendre degree must be >= 0, got {N}")
    x = np.asarray(x, dtype=float)
    L = np.ones_like(x)
    dL = np.zeros_like(x)
    if N == 0:
        return L, dL
    Lm, dLm = L, dL           # L_0, L_0'
    L, dL = x.copy(), np.ones_like(x)  # L_1, L_1'
    for k in range(1, N):
        Lp = ((2 * k + 1) * x * L - k * Lm) / (k + 1)
        dLp = dLm + (2 * k + 1) * L     # L'_{k+1} = L'_{k-1} + (2k+1) L_k
        Lm, L = L, Lp
        dLm, dL = dL, dLp
    return L, dL


def gll_nodes(N):
    """Gauss-Lobatto-Legendre nodes and weights for degree N.

    Interior nodes are the roots of L_N', found by Newton iteration from
    Chebyshev-Gauss-Lobatto initial guesses; weights are
    w_i = 2 / (N(N+1) L_N(x_i)^2).
    """
    if N < 1:
        raise ValueError(f"GLL node set requires degree N >= 1, got {N}")
    x = -np.cos(np.pi * np.arange(N + 1) / N)
    if N > 1:
        xi = x[1:-1]
        for _ in range(100):
            L, dL = legendre_eval(N, xi)
            # L_N'' from the Legendre ODE (1-x^2) L'' = 2x L' - N(N+1) L
            d2L = (2.0 * xi * dL - N * (N + 1) * L) / (1.0 - xi * xi)
            dx = dL / d2L
            xi -= dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        x[1:-1] = xi
    x[0], x[-1] = -1.0, 1.0
    x = 0.5 * (x - x[::-1])  # enforce symmetry about 0
    L, _ = legendre_eval(N, x)
    w = 2.0 / (N * (N + 1) * L * L)
    return NodeSet1D(N, x, w, *_barycentric(x))


def _barycentric(x):
    """Normalized weights b_i = 1/prod_{k != i}(x_i - x_k) and Dn[j, i] =
    (b_i/b_j)/(x_j - x_i) off the diagonal, whose rows sum to zero."""
    gap = x[:, None] - x[None, :]
    np.fill_diagonal(gap, 1.0)
    # doubled gaps scale the products by 2^(N+1), which the normalization
    # cancels; undoubled they underflow from N=800, doubled from N=1098
    try:
        with np.errstate(over="raise", under="raise"):
            b = 1.0 / np.prod(2.0 * gap, axis=1)
    except FloatingPointError:
        raise ValueError(f"barycentric weights of degree {len(x) - 1} out of range") from None
    b /= np.max(np.abs(b))
    Dn = b / b[:, None] / gap
    np.fill_diagonal(Dn, 0.0)
    np.fill_diagonal(Dn, -Dn.sum(axis=1))
    return b, Dn


def gauss_rule(M):
    """Gauss-Legendre rule with M points, computed once per M (read-only)."""
    if M < 1:
        raise ValueError(f"Gauss rule requires M >= 1 points, got {M}")
    return _gauss_rule(M)


@lru_cache(maxsize=None)
def _gauss_rule(M):
    p, w = np.polynomial.legendre.leggauss(M)
    p.flags.writeable = w.flags.writeable = False
    return QuadratureRule1D(points=p, weights=w)


def lagrange_eval(ns, x):
    """Evaluate the nodal basis h_i at x; returns (N+1,) or (N+1, M).

    Uses the second barycentric form; exact node hits return the
    Kronecker column.
    """
    x = np.asarray(x, dtype=float)
    diff = np.atleast_1d(x)[None, :] - ns.nodes[:, None]
    hit = diff == 0.0
    on_node = hit.any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tmp = ns.bary[:, None] / diff
        H = tmp / np.sum(tmp, axis=0)
    H[:, on_node] = hit[:, on_node]
    return H[:, 0] if x.ndim == 0 else H


def lagrange_deriv(ns, x):
    """Evaluate dh_i/dx at x; returns (N+1,) or (N+1, M).  h_i' has degree
    N-1, so h_i'(x) = sum_j h_j(x) Dn[j, i] exactly, with Dn = `ns.deriv`."""
    return ns.deriv.T @ lagrange_eval(ns, x)


def edge_eval(ns, x):
    """Evaluate the edge basis e_i at x; returns (N,) or (N, M)."""
    return -np.cumsum(lagrange_deriv(ns, x), axis=0)[:-1]
