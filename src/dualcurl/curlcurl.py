"""The two discrete curl-curl solvers on the reference square.

Neumann problem (primal): find the nodal dofs F of the scalar field from

    (E10^T M1 E10 + M0) F = -T^T Ehat ,

Dirichlet problem (dual): find the dual edge dofs Et of the vector field
from

    (E10 inv(M0) E10^T + inv(M1)) Et = -E10 inv(M0) T^T Ehat ,

where Ehat are the 4N boundary dofs obtained by integrating the
tangential trace n x E against the boundary loop basis, counter-clockwise
with positive arclength measure, and T^T Ehat places each on its boundary
node.  The two solutions are linked exactly by Et = M1 E10 F, the discrete
form of E = curl F, and carry equal H(curl) norms.

The incidence is pure topology, E10 = [kron(D, I); -kron(I, D)] with D
the Nx(N+1) 1D difference, and the masses are Kronecker products of the 1D
Grams Gh, Ge (see `galerkin`).  With K = D^T Ge D the Neumann operator,
kron(K + Gh, Gh) + kron(Gh, K), is diagonal in the eigenvectors of the one
pencil K V = Gh V lam that `Discretization` solves per degree, with
eigenvalues lam_i + lam_j + 1: fast diagonalization (Lynch, Rice & Thomas,
Numer. Math. 6, 1964; Deville, Fischer & Mund 2002, 4.5).  The Dirichlet
operator is inverted through it by the Woodbury identity (Hager, SIAM
Rev. 31, 1989), S r = M1 r - M1 E10 g with g the Neumann solve of
E10^T M1 r.  Neither operator is formed, and each solve costs O(N^3).
Each is refined, x += S(b - A x), against its own operator A applied by
its definition on the grids (`_neumann_apply`, `_dirichlet_apply`), not
through the shared eigenvectors, so the equivalence of the two solves is
still a check.  The Neumann solve takes one step.  S subtracts nearly
equal terms in the high-curl modes, so a Dirichlet step multiplies their
error by about eps kappa, kappa = 1/min(neumann_scale) = 2 max(lam) + 1
(Higham 2002, ch. 12), which grows like N^4: eps kappa is 3e-12 at N=16
and 5e-5 at N=1024.  So the Dirichlet solve takes the least k >= 1 steps
with (eps kappa)^(k+1) <= eps/4: one up to N=64, two for N=128..512,
three at N=1024.

Fields live on the grids of `operators2d`, the one module that splits dof
vectors into grids and joins them: the node grid f of F and the (2, N,
N+1) edge stack s of Et.  Each field operation has one form on the grids;
a public entry reads each caller array once, with `_dofs`, and joins
once, on return.  On the grids E10 and E10^T are `_incidence` and
`_incidence_t`, the norms are 1D Gram products, and `reconstruct`
evaluates a field on the tensor grid of two 1D axes.

Every function here takes the `Discretization` of the degree it works on;
it is the only way a degree and a quadrature rule reach this module, so
both solves, the norms and the errors always share the same operators.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .basis1d import _edge_table, _integer, gauss_rule, lagrange_eval
from .galerkin import GramSet, spd_eigh
from .operators2d import (
    _dofs, _flat, _incidence, _incidence_t, boundary_nodes, build_incidence,
    side_dof_indices)

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
        """n x E = n_x Ey - n_y Ex on the given side.  The normal is
        axis-aligned, so only the component it selects is evaluated: Ex on
        S and N, Ey on E and W."""
        nx, ny = _NORMALS[side]
        return nx * self.Ey(x, y) if nx else -ny * self.Ex(x, y)


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
    """4N boundary dofs in loop order, ccw from node (0,0); they must be finite."""

    degree: int
    dofs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "degree", _integer("degree", self.degree, 1))
        object.__setattr__(self, "dofs", _dofs(self.dofs, self.degree, "loop"))


@dataclass(frozen=True)
class Solution:
    """Both discrete solutions for one boundary data set, whose degree is theirs."""

    boundary: BoundaryData
    neumann: np.ndarray    # nodal dofs F, length (N+1)^2
    dirichlet: np.ndarray  # dual edge dofs Et, length 2N(N+1)

    @property
    def degree(self):
        return self.boundary.degree


class Discretization:
    """Caches the operators for one degree N.

    `rule` selects the quadrature of the nodal Gram, kept as `gram.rule`:
    the collocated "lobatto" rule (the package's one default) reproduces
    the published norm values; "gauss" gives exactly integrated masses.
    The structural identities (equivalence of the two solves, equality of
    norms, E^h = curl F^h) hold for either.

    The 1D factors of both solves are computed here, once, from one
    generalized eigensolve: K = D^T Ge D, the eigenvectors V of
    K V = Gh V lam normalized by V^T Gh V = I, and the reciprocal
    eigenvalue grid `neumann_scale` 1/(lam_i + lam_j + 1); the Dirichlet
    solve reuses them (see the module docstring).  `loop` is
    `boundary_nodes(N)`.  The degree N must be an integer >= 1 (a bool is
    not one).  The dense incidence `E10` is built on first access; no
    solve, norm or error path reads it.
    """

    def __init__(self, N, rule="lobatto"):
        self.gram = GramSet(N, rule)  # checks the degree
        self.degree = N = self.gram.degree
        self.nodes = self.gram.nodes
        self.loop = boundary_nodes(N)
        D = np.diff(np.eye(N + 1), axis=0)  # 1D incidence, N x (N+1)
        self.K = D.T @ self.gram.Ge @ D
        lam, self.V = spd_eigh(self.K, self.gram.Lh)
        self.neumann_scale = 1.0 / (lam[:, None] + lam + 1.0)

    @cached_property
    def E10(self):
        """The dense int64 incidence, (2N(N+1), (N+1)^2)."""
        return build_incidence(self.degree)


def _check(obj, disc):
    """Reject a `BoundaryData` or a `Solution` of another degree than `disc`."""
    if obj.degree != disc.degree:
        name = "solution" if isinstance(obj, Solution) else "boundary data"
        raise ValueError(f"{name} of degree {obj.degree} does not match the "
                         f"degree-{disc.degree} discretization")


def project_boundary_data(field, disc, boost=15):
    """Project the tangential trace n x E onto the boundary loop basis.

    Ehat_k = closed-loop integral of psi_k(s) * (n x E)(s) ds, traversed
    counter-clockwise; corner dofs collect both adjacent sides.  The data
    is generally non-polynomial, so each side uses a Gauss rule of N+boost
    points, as `error_norms` does; boost must be an integer >= 0.
    """
    boost = _integer("boost", boost, 0)
    N = disc.degree
    q = gauss_rule(N + boost)
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


def _neumann_inverse(r, disc):
    """Fast-diagonalization solve on the node grid r: V ((V^T r V) * scale) V^T."""
    return disc.V @ ((disc.V.T @ r @ disc.V) * disc.neumann_scale) @ disc.V.T


def _neumann_apply(f, disc):
    """(E10^T M1 E10 + M0) F on the node grid f: K f Gh + Gh f (K + Gh)."""
    Gh, K = disc.gram.Gh, disc.K
    return K @ f @ Gh + Gh @ f @ (K + Gh)


def _scatter(bd, disc):
    """T^T Ehat: each loop dof on its own node of a zero node grid."""
    f = np.zeros((disc.degree + 1, disc.degree + 1))
    np.put(f, disc.loop, bd.dofs)  # would repeat a short loop: callers _check bd
    return f


def _neumann_rhs(bd, disc):
    return -_scatter(bd, disc)


def _refined(inverse, apply, b, steps, disc):
    """x = S b for the approximate inverse S = `inverse` of A = `apply`,
    then `steps` refinement steps x += S(b - A x)."""
    x = inverse(b, disc)
    for _ in range(steps):
        x += inverse(b - apply(x, disc), disc)
    return x


def solve_neumann(bd, disc):
    """Primal solve: nodal dofs F from (E10^T M1 E10 + M0) F = -T^T Ehat,
    the operator being kron(K + Gh, Gh) + kron(Gh, K) with K = D^T Ge D.
    Fast diagonalization with K V = Gh V lam, O(N^3), and one refinement step."""
    _check(bd, disc)
    return _flat(_refined(_neumann_inverse, _neumann_apply, _neumann_rhs(bd, disc), 1, disc))


def _dirichlet_inverse(r, disc):
    """The Woodbury inverse of the Dirichlet operator on the edge stack r:
    M1 r - M1 E10 g, g the Neumann inverse of E10^T M1 r."""
    mass1 = disc.gram._mass1
    m = mass1(r)
    return m - mass1(_incidence(_neumann_inverse(_incidence_t(m), disc)))


def _dirichlet_apply(s, disc):
    """(E10 inv(M0) E10^T + inv(M1)) Et on the edge stack s, by its
    definition: the mass solves of `GramSet` and the incidence."""
    gram = disc.gram
    return gram._solve_mass1(s) + _incidence(gram._solve_mass0(_incidence_t(s)))


def _dirichlet_rhs(bd, disc):
    return -_incidence(disc.gram._solve_mass0(_scatter(bd, disc)))


def _dirichlet_steps(disc):
    """The refinement steps of the Dirichlet solve (see the module docstring)."""
    eps = np.finfo(float).eps
    return max(1, math.ceil(math.log(eps / 4) / math.log(eps / disc.neumann_scale.min())) - 1)


def solve_dirichlet(bd, disc):
    """Dual solve: edge dofs Et from
    (E10 inv(M0) E10^T + inv(M1)) Et = -E10 inv(M0) T^T Ehat,
    by the Woodbury inverse `_dirichlet_inverse` and `_dirichlet_steps`
    refinement steps.  O(N^3)."""
    _check(bd, disc)
    return _flat(_refined(_dirichlet_inverse, _dirichlet_apply, _dirichlet_rhs(bd, disc),
                          _dirichlet_steps(disc), disc))


def solve_both(bd, disc):
    return Solution(
        boundary=bd,
        neumann=solve_neumann(bd, disc),
        dirichlet=solve_dirichlet(bd, disc),
    )


def _weak_curl(s, bd, disc):
    """E10^T Et + T^T Ehat on the edge stack s of Et: a node grid."""
    return _incidence_t(s) + _scatter(bd, disc)


def norm_F(F, disc):
    """H(curl) norm of the primal scalar field from its nodal dofs:
    F M0 F + c M1 c with c = E10 F, as 1D Gram products on the grids."""
    gram, f = disc.gram, _dofs(F, disc.degree)
    c = _incidence(f)
    return float(np.sqrt(np.vdot(f, gram.Gh @ f @ gram.Gh) + np.vdot(c, gram._mass1(c))))


def norm_E(Et, bd, disc):
    """H(curl) norm of the dual vector field, sqrt(w inv(M0) w + Et inv(M1) Et)."""
    _check(bd, disc)
    s, gram = _dofs(Et, disc.degree, "edges"), disc.gram
    w = _weak_curl(s, bd, disc)
    return float(np.sqrt(np.vdot(w, gram._solve_mass0(w)) + np.vdot(s, gram._solve_mass1(s))))


def _tables(disc, x):
    """The nodal table H (N+1, P) and the edge table E (N, P) on the axis x,
    from one evaluation of H."""
    H = lagrange_eval(disc.nodes, x)
    return H, _edge_table(disc.nodes, H)


def _evaluate(g, x_tables, y_tables):
    """Contract a node grid g with its 1D factor tables one direction at a
    time, Hx.T @ g.T @ Hy, or each (interval, node) grid of an edge stack:
    the xi grid g[0] with (Hx, Ey), the eta grid g[1] with (Ex, Hy)."""
    (Hx, Ex), (Hy, Ey) = x_tables, y_tables
    if g.ndim == 2:
        return Hx.T @ g.T @ Hy
    return Hx.T @ g[0].T @ Ey, Ex.T @ g[1] @ Hy


def reconstruct(kind, dofs, x, y, disc):
    """Field values on the tensor grid of the 1D axes x (P values) and
    y (Q values) in [-1, 1]: (P, Q) arrays whose entry [a, b] is the value
    at (x[a], y[b]), the orientation of meshgrid(x, y, indexing="ij").

    kind: "primal-scalar"  -> psi0 F                  (scalar)
          "primal-curl"    -> psi1 E10 F              (vector: xi, eta)
          "dual-vector"    -> psi1 inv(M1) Et         (vector: xi, eta)
          "dual-weak-curl" -> psi0 inv(M0) w          (scalar)

    The dual kinds solve the mass matrix against the dofs, not against
    the basis: M is symmetric, so (inv(M) d) @ psi = d @ inv(M) psi.
    Three steps: the coefficient grids, the 1D factor tables of each axis
    (`_tables`) and their contraction (`_evaluate`).
    """
    x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y))
    if x.ndim != 1 or y.ndim != 1:  # a 2D grid would contract to wrong values
        raise ValueError(f"x and y must be 1D grid axes, not {x.shape} and {y.shape}")
    for name, v in (("x", x), ("y", y)):
        if not np.all(np.abs(v) <= 1.0):  # false for NaN; outside, the basis extrapolates
            raise ValueError(f"{name} must hold finite points in [-1, 1], got {v}")
    N, gram = disc.degree, disc.gram
    if kind == "dual-vector":
        grids = gram._solve_mass1(_dofs(dofs, N, "edges"))
    elif kind in ("primal-scalar", "primal-curl", "dual-weak-curl"):
        f = gram._solve_mass0(_dofs(dofs, N)) if kind == "dual-weak-curl" else _dofs(dofs, N)
        grids = _incidence(f) if kind == "primal-curl" else f
    else:
        raise ValueError(f"unknown reconstruction kind {kind!r}")
    return _evaluate(grids, _tables(disc, x), _tables(disc, y))


def error_norms(sol, exact, disc, boost=15):
    """H(curl) errors (errF, errE) against the analytic pair.

    Uses a tensor Gauss grid of one axis with N+boost points (boost an
    integer >= 0), whose 1D factor tables are evaluated once for all four
    fields; the curl term of the dual error uses the weak-curl
    reconstruction and the analytic scalar curl of E, so `exact` needs
    `scalar` and `vector_curl`.  Each of the four exact components must be
    finite on the grid.
    """
    missing = [k for k in ("scalar", "vector_curl") if getattr(exact, k) is None]
    if missing:
        raise ValueError(f"error_norms needs the exact field's {' and '.join(missing)}")
    _check(sol, disc)
    boost = _integer("boost", boost, 0)
    f, s = _dofs(sol.neumann, disc.degree), _dofs(sol.dirichlet, disc.degree, "edges")
    q = gauss_rule(disc.degree + boost)
    g = q.points
    X, Y = np.meshgrid(g, g, indexing="ij")
    values = {k: getattr(exact, k)(X, Y) for k in ("Ex", "Ey", "scalar", "vector_curl")}
    Ex, Ey, F, cE = values.values()
    bad = [k for k, v in values.items() if not np.all(np.isfinite(v))]
    if bad:
        raise ValueError(f"the exact field's {', '.join(bad)} is not finite on the error grid")
    w2 = np.outer(q.weights, q.weights)
    t = _tables(disc, g)

    Fh = _evaluate(f, t, t)
    cFx, cFy = _evaluate(_incidence(f), t, t)
    errF2 = np.vdot(w2, (
        (F - Fh) ** 2
        + (Ex - cFx) ** 2
        + (Ey - cFy) ** 2
    ))

    Ehx, Ehy = _evaluate(disc.gram._solve_mass1(s), t, t)
    w = _weak_curl(s, sol.boundary, disc)
    cEh = _evaluate(disc.gram._solve_mass0(w), t, t)
    errE2 = np.vdot(w2, (
        (Ex - Ehx) ** 2
        + (Ey - Ehy) ** 2
        + (cE - cEh) ** 2
    ))
    return float(np.sqrt(errF2)), float(np.sqrt(errE2))
