"""The two discrete curl-curl solvers on the reference square.

Neumann problem (primal): find the nodal dofs F of the scalar field from

    (E10^T M1 E10 + M0) F = -T^T Ehat ,

Dirichlet problem (dual): find the dual edge dofs Et of the vector field
from

    (E10 inv(M0) E10^T + inv(M1)) Et = -E10 inv(M0) T^T Ehat ,

where Ehat are the 4N boundary dofs obtained by integrating the
tangential trace n x E against the boundary loop basis, counter-clockwise
with positive arclength measure, and T^T Ehat places each on its boundary
node.  The solutions are linked exactly by Et = M1 E10 F, the discrete form
of E = curl F, and carry equal norms (`equivalence_residual`, `norm_gap`).

The incidence is pure topology, E10 = [kron(D, I); -kron(I, D)] with D
the Nx(N+1) 1D difference, and the masses are Kronecker products of the 1D
Grams Gh, Ge (see `galerkin`).  Both solves are fast diagonalization
(Lynch, Rice & Thomas, Numer. Math. 6, 1964; Deville, Fischer & Mund
2002, 4.5) in the eigenpairs of the one pencil K V = Gh V lam, K = D^T Ge D.
The Neumann operator, kron(K + Gh, Gh) + kron(Gh, K), is diagonal in
them, with eigenvalues lam_p + lam_q + 1.  As lam_0 = 0 (the constant),
W = D V[:, 1:] / sqrt(lam[1:]) is a Ge-orthonormal edge basis with
D^T Ge W = Gh V[:, 1:] sqrt(lam[1:]), so the Dirichlet operator maps the
edge stack Q X P^T, Q = Ge W, P = Gh V, to W Y V^T with
Y0[p, q] = (1 + lam_p) X0[p, q] - sqrt(lam_p lam_q) X1[q, p], and the
same with the components swapped: each xi mode (p, q), p >= 1, couples
only to the eta mode (q, p), in a 2x2 block [[1 + lam_p, -r], [-r,
1 + lam_q]], r = sqrt(lam_p lam_q), whose determinant (1 + lam_p)(1 +
lam_q) - r^2 is the Neumann eigenvalue lam_p + lam_q + 1.  As Q^T W = I
and V^T P = I, the inverse is each block's explicit inverse between
Q^T r P and Q y P^T.  Neither operator is formed; each solve is O(N^3)
and refined once, x += S(b - A x), against its own operator A applied by
its definition (`_neumann_apply`, `_dirichlet_apply`), not through the
shared eigenvectors, so the equivalence of the two solves is a check.

Fields live on the grids of `operators2d`, the one module that splits dof
vectors into grids and joins them: the node grid f of F and the (2, N,
N+1) edge stack s of Et.  Each field operation has one form on the grids;
a public entry reads each caller array once, with `_dofs`, and joins
once, on return.  The private norm, error and residual forms take the
grids they share (w, inv(M0) w, inv(M1) Et, E10 F); `solve_degree`, the
one per-degree entry, solves a field and forms each once in the pass after
the solves.  E10 and E10^T are `_incidence` and `_incidence_t`, the
norms 1D Gram products; `reconstruct` evaluates on a tensor grid of two axes.

Every function here takes the `Discretization` of its degree, or builds it
(`solve_degree`); it is the only way a degree and its two quadratures reach
this module, so the solves and norms share one set of operators, and the
boundary projection and the errors one data rule and its 1D tables.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .basis1d import _edge_table, _integer, _real, gauss_rule, lagrange_eval
from .galerkin import GramSet
from .operators2d import _dofs, _edge_ends, _flat, _incidence, _incidence_t, boundary_nodes

__all__ = [
    "AnalyticField",
    "exponential_pair",
    "plane_wave",
    "BoundaryData",
    "Solution",
    "Discretization",
    "project_boundary_data",
    "solve_neumann",
    "solve_dirichlet",
    "solve_both",
    "solve_degree",
    "norm_F",
    "norm_E",
    "reconstruct",
    "error_norms",
    "equivalence_residual",
    "norm_gap",
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
        S and N, Ey on E and W.  It is read as an array of its own dtype, so a
        list serves and a complex value still meets the projection's check."""
        nx, ny = _NORMALS[side]
        return nx * np.asarray(self.Ey(x, y)) if nx else -ny * np.asarray(self.Ex(x, y))


def exponential_pair():
    """The exact pair F = e^x + e^y, E = curl F = (e^y, -e^x)."""
    return AnalyticField(
        Ex=lambda x, y: np.exp(y),
        Ey=lambda x, y: -np.exp(x),
        scalar=lambda x, y: np.exp(x) + np.exp(y),
        vector_curl=lambda x, y: -np.exp(x) - np.exp(y),
    )


def plane_wave(t):
    """F = exp(x cos t + y sin t) with E = curl F = (sin t F, -cos t F): a unit
    wave vector, so Laplace F = F and curl E = -F, an exact solution whose
    traces vary along every side, where those of `exponential_pair` are constant."""
    a, b = np.cos(t), np.sin(t)

    def F(x, y):
        return np.exp(a * x + b * y)

    return AnalyticField(Ex=lambda x, y: b * F(x, y), Ey=lambda x, y: -a * F(x, y),
                         scalar=F, vector_curl=lambda x, y: -F(x, y))


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
    generalized eigensolve (see the module docstring): K = D^T Ge D, V with
    V^T Gh V = I, the grid `neumann_scale` 1/(lam_p + lam_q + 1), and the
    Dirichlet Q, P and 2x2 block inverse grids `pair_diag`, `pair_off`.
    `loop` is `boundary_nodes(N)`; `quadrature`, the Gauss rule of N+boost
    points, and its nodal and edge `tables` integrate the exact data in
    `project_boundary_data` and `error_norms`.  The boost is an integer >= 1:
    N points are exact only to degree 2N-1, and F_h^2 has degree 2N.  The degree
    N must be an integer >= 1 (a bool is not one).  The incidence `E10`, a
    sparse array, is built on first access; no solve, norm or error path
    reads it.
    """

    def __init__(self, N, rule="lobatto", boost=15):
        self.gram = GramSet(N, rule)  # checks the degree
        self.degree = N = self.gram.degree
        self.nodes = self.gram.nodes
        self.loop = boundary_nodes(N)
        self.quadrature = gauss_rule(N + _integer("boost", boost, 1))
        self.tables = _tables(self, self.quadrature.points)
        D = np.diff(np.eye(N + 1), axis=0)  # 1D incidence, N x (N+1)
        self.K = D.T @ self.gram.Ge @ D
        Lh = self.gram.Lh  # K V = Gh V lam with V^T Gh V = I, from Lh Gh Lh^T = I
        lam, Y = np.linalg.eigh(Lh @ self.K @ Lh.T)
        self.V = Lh.T @ Y
        self.neumann_scale = 1.0 / (lam[:, None] + lam + 1.0)
        lam[0] = 0.0  # the constant mode, computed as about +-1e-16
        root = np.sqrt(lam)
        W = np.diff(self.V[:, 1:], axis=0) / root[1:]  # W^T Ge W = I
        self.Q, self.P = self.gram.Ge @ W, self.gram.Gh @ self.V
        scale = self.neumann_scale[1:]
        self.pair_diag, self.pair_off = (1.0 + lam) * scale, root[1:, None] * root * scale

    @cached_property
    def E10(self):
        """The int64 incidence, a sparse CSR array (2N(N+1), (N+1)^2): each
        row is the selection of its edge's head node minus that of its tail."""
        from scipy import sparse  # loaded here only: the solve path is numpy-only

        head, tail = _edge_ends(self.degree)
        rows, ones = np.arange(head.size), np.ones(head.size, dtype=np.int64)
        shape = (head.size, (self.degree + 1) ** 2)
        return (sparse.csr_array((ones, (rows, head)), shape)
                - sparse.csr_array((ones, (rows, tail)), shape))


def _check(obj, disc):
    """Reject a `BoundaryData` or a `Solution` of another degree than `disc`."""
    if obj.degree != disc.degree:
        name = "solution" if isinstance(obj, Solution) else "boundary data"
        raise ValueError(f"{name} of degree {obj.degree} does not match the "
                         f"degree-{disc.degree} discretization")


def project_boundary_data(field, disc):
    """Project the tangential trace n x E onto the boundary loop basis.

    Ehat_k = closed-loop integral of psi_k(s) * (n x E)(s) ds, traversed
    counter-clockwise: each side's integrals on `disc.quadrature` and its
    nodal table go onto its edge of a zero node grid, a corner summing its
    two sides, and Ehat is that grid's trace T, read through `disc.loop`.
    Each side's trace must be real and finite, of the points' shape or a scalar.
    """
    N, q, (H, _) = disc.degree, disc.quadrature, disc.tables
    grid = np.zeros((N + 1, N + 1))
    for side, (nx, ny) in _NORMALS.items():
        # the normal's nonzero coordinate is the side's fixed one: grid row or column 0 or N
        x, y = (np.full_like(q.points, n) if n else q.points for n in (nx, ny))
        ehat = _real(f"the tangential trace on side {side}",
                     field.tangential_trace(side, x, y), q.points.shape)
        k = N if nx + ny > 0 else 0
        edge = grid[:, k] if nx else grid[k]
        edge += H @ (q.weights * ehat)
    return BoundaryData(degree=N, dofs=np.take(grid, disc.loop))


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


def _refined(inverse, apply, b, disc):
    """x = S b for the approximate inverse S = `inverse` of A = `apply`,
    then one refinement step x += S(b - A x)."""
    x = inverse(b, disc)
    x += inverse(b - apply(x, disc), disc)
    return x


def solve_neumann(bd, disc):
    """Primal solve: nodal dofs F from (E10^T M1 E10 + M0) F = -T^T Ehat,
    the operator being kron(K + Gh, Gh) + kron(Gh, K) with K = D^T Ge D.
    Fast diagonalization with K V = Gh V lam, O(N^3), and one refinement step."""
    _check(bd, disc)
    return _flat(_refined(_neumann_inverse, _neumann_apply, _neumann_rhs(bd, disc), disc))


def _dirichlet_inverse(r, disc):
    """The inverse of the Dirichlet operator on the edge stack r: m = Q^T r P,
    y = pair_diag m + pair_off times m's partner, component 1-k at [q, p] for
    component k at [p, q] (none where q = 0), then Q y P^T.  The pairing is
    the stack's stored eta transpose seen in mode space: it pairs modes, not
    dofs, so it lives with the solve and not in `operators2d`."""
    m = disc.Q.T @ r @ disc.P
    y = disc.pair_diag * m
    y[:, :, 1:] += disc.pair_off[:, 1:] * m[::-1, :, 1:].transpose(0, 2, 1)
    return disc.Q @ y @ disc.P.T


def _dirichlet_apply(s, disc):
    """(E10 inv(M0) E10^T + inv(M1)) Et on the edge stack s, by its
    definition: the mass solves of `GramSet` and the incidence."""
    gram = disc.gram
    return gram._solve_mass1(s) + _incidence(gram._solve_mass0(_incidence_t(s)))


def _dirichlet_rhs(bd, disc):
    return -_incidence(disc.gram._solve_mass0(_scatter(bd, disc)))


def solve_dirichlet(bd, disc):
    """Dual solve: edge dofs Et from
    (E10 inv(M0) E10^T + inv(M1)) Et = -E10 inv(M0) T^T Ehat,
    by the mode-pair inverse `_dirichlet_inverse` and one refinement step, O(N^3)."""
    _check(bd, disc)
    return _flat(_refined(_dirichlet_inverse, _dirichlet_apply, _dirichlet_rhs(bd, disc), disc))


def solve_both(bd, disc):
    """Both solves of the boundary data `bd`, as one `Solution`."""
    return Solution(
        boundary=bd,
        neumann=solve_neumann(bd, disc),
        dirichlet=solve_dirichlet(bd, disc),
    )


def _weak_curl(s, bd, disc):
    """E10^T Et + T^T Ehat on the edge stack s of Et: a node grid."""
    return _incidence_t(s) + _scatter(bd, disc)


def norm_F(F, disc):
    """H(curl) norm of the primal scalar field from its nodal dofs: the
    Neumann energy F (E10^T M1 E10 + M0) F, by `_neumann_apply`."""
    return _norm_F(_dofs(F, disc.degree), disc)


def _norm_F(f, disc):
    return float(np.sqrt(np.vdot(f, _neumann_apply(f, disc))))


def norm_E(Et, bd, disc):
    """H(curl) norm of the dual vector field, sqrt(w inv(M0) w + Et inv(M1) Et)."""
    _check(bd, disc)
    s, gram = _dofs(Et, disc.degree, "edges"), disc.gram
    w = _weak_curl(s, bd, disc)
    return _norm_E(w, gram._solve_mass0(w), s, gram._solve_mass1(s))


def _norm_E(w, m0w, s, m1s):
    """The dual norm from the weak curl w, inv(M0) w, the edge stack s and inv(M1) s."""
    return float(np.sqrt(np.vdot(w, m0w) + np.vdot(s, m1s)))


def _tables(disc, x):
    """The nodal table H (N+1, P) and the edge table E (N, P) on the axis x,
    from one evaluation of H."""
    H = lagrange_eval(disc.nodes, x)
    return H, _edge_table(disc.nodes, H)


# each `reconstruct` kind: its dof layout, and its coefficient grids from the dof grid g
_KINDS = {
    "primal-scalar": ("nodes", lambda g, gram: g),
    "primal-curl": ("nodes", lambda g, gram: _incidence(g)),
    "dual-vector": ("edges", lambda g, gram: gram._solve_mass1(g)),
    "dual-weak-curl": ("nodes", lambda g, gram: gram._solve_mass0(g)),
}


def _evaluate(c, x_tables, y_tables):
    """The field of coefficient grids c contracted with the 1D factor tables
    one direction at a time, Hx.T @ c.T @ Hy on a node grid, or the xi grid
    c[0] with (Hx, Ey) and the eta grid c[1] with (Ex, Hy)."""
    (Hx, Ex), (Hy, Ey) = x_tables, y_tables
    if c.ndim == 2:
        return Hx.T @ c.T @ Hy
    return Hx.T @ c[0].T @ Ey, Ex.T @ c[1] @ Hy


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
    Two steps: the 1D factor tables of each axis (`_tables`, made once
    where y holds the points of x) and their contraction with the
    coefficient grids of `_KINDS` (`_evaluate`).
    """
    x, y = (np.atleast_1d(_real(name, v)) for name, v in (("x", x), ("y", y)))
    if x.ndim != 1 or y.ndim != 1:  # a 2D grid would contract to wrong values
        raise ValueError(f"x and y must be 1D grid axes, not {x.shape} and {y.shape}")
    for name, v in (("x", x), ("y", y)):
        if not np.all(np.abs(v) <= 1.0):  # outside, the basis would extrapolate
            raise ValueError(f"{name} must hold finite points in [-1, 1], got {v}")
    if kind not in _KINDS:
        raise ValueError(f"unknown reconstruction kind {kind!r}")
    layout, coefficients = _KINDS[kind]
    tx = _tables(disc, x)
    c = coefficients(_dofs(dofs, disc.degree, layout), disc.gram)
    return _evaluate(c, tx, tx if np.array_equal(x, y) else _tables(disc, y))


def error_norms(sol, exact, disc):
    """H(curl) errors (errF, errE) against the analytic pair.

    Uses the tensor grid of one axis, `disc.quadrature`, whose `tables`
    serve both directions and all four fields; the curl term of the dual
    error uses the weak-curl reconstruction and the analytic scalar curl of
    E, so `exact` needs `scalar` and `vector_curl`.  Each of the four exact
    components must be real and finite, of the grid's shape or a scalar.
    """
    _check(sol, disc)
    f, s = _dofs(sol.neumann, disc.degree), _dofs(sol.dirichlet, disc.degree, "edges")
    m0w = disc.gram._solve_mass0(_weak_curl(s, sol.boundary, disc))
    return _error_norms(exact, f, _incidence(f), disc.gram._solve_mass1(s), m0w, disc)


def _error_norms(exact, f, c, m1s, m0w, disc):
    """(errF, errE) from the coefficient grids f, E10 F, inv(M1) Et, inv(M0) w."""
    missing = [k for k in ("scalar", "vector_curl") if getattr(exact, k) is None]
    if missing:
        raise ValueError(f"the error norms need the exact field's {' and '.join(missing)}")
    q, t = disc.quadrature, disc.tables
    X, Y = np.meshgrid(q.points, q.points, indexing="ij")
    Ex, Ey, F, cE = (_real(f"the exact field's {k}", getattr(exact, k)(X, Y), X.shape)
                     for k in ("Ex", "Ey", "scalar", "vector_curl"))
    del X, Y  # fewer grids alive at once lowers the pass's heap peak
    w2 = np.outer(q.weights, q.weights)

    Fh, (cFx, cFy) = _evaluate(f, t, t), _evaluate(c, t, t)
    errF2 = np.vdot(w2, (F - Fh) ** 2 + (Ex - cFx) ** 2 + (Ey - cFy) ** 2)
    del F, Fh, cFx, cFy  # the primal grids go before the dual ones come

    (Ehx, Ehy), cEh = _evaluate(m1s, t, t), _evaluate(m0w, t, t)
    errE2 = np.vdot(w2, (Ex - Ehx) ** 2 + (Ey - Ehy) ** 2 + (cE - cEh) ** 2)
    return float(np.sqrt(errF2)), float(np.sqrt(errE2))


def _relative(dist, size):
    """dist / size, or dist where size is 0, as a float: the one
    relative-residual rule."""
    return float(dist / size if size else dist)


def equivalence_residual(sol, disc):
    """||Et - M1 E10 F|| / ||Et||, or the absolute distance where Et = 0, with
    M1 E10 F = `GramSet._mass1` of the edge stack of E10 F: the incidence
    and the 1D Grams, none of the solves' factors."""
    _check(sol, disc)
    s = _dofs(sol.dirichlet, disc.degree, "edges")
    return _equivalence_residual(s, _incidence(_dofs(sol.neumann, disc.degree)), disc)


def _equivalence_residual(s, c, disc):
    return _relative(np.linalg.norm(s - disc.gram._mass1(c)), np.linalg.norm(s))


def _weak_curl_residual(f, m0w):
    """||inv(M0) w + F|| / ||F||, or the absolute distance where F = 0, on the node
    grids f and m0w = inv(M0) w of the dual weak curl w: curl E^h = -F^h."""
    return _relative(np.linalg.norm(m0w + f), np.linalg.norm(f))


def _operator_residual(disc):
    """||A_D M1 E10 x - E10 inv(M0) A_N x|| / ||E10 inv(M0) A_N x||: the
    paper's theorem as an operator identity, with no solve in it, on the
    node grid x[j, i] = cos(m^2), m = (N+1) j + i.  That chirp weights the
    high modes as much as the low ones, which a smooth grid such as F would not."""
    k = np.arange(disc.degree + 1.0)
    x = np.cos(np.add.outer((disc.degree + 1) * k, k) ** 2)
    dual = _dirichlet_apply(disc.gram._mass1(_incidence(x)), disc)
    primal = _incidence(disc.gram._solve_mass0(_neumann_apply(x, disc)))
    return _relative(np.linalg.norm(dual - primal), np.linalg.norm(primal))


def norm_gap(nF, nE):
    """|nF - nE| / nF, or |nF - nE| where nF = 0: the relative gap between
    the two H(curl) norms."""
    return _relative(abs(nF - nE), nF)


@dataclass(frozen=True)
class DegreeRecord:
    N: int
    normF: float
    normE: float
    errF: float
    errE: float
    equivalence_residual: float
    weak_curl_residual: float
    operator_residual: float


def solve_degree(field, N, rule="lobatto", boost=15):
    """The `DegreeRecord` of `field` (with `scalar` and `vector_curl`) at degree N: both
    solves of its projected trace, then w, inv(M0) w, inv(M1) Et and E10 F formed once."""
    disc = Discretization(N, rule, boost)
    sol = solve_both(project_boundary_data(field, disc), disc)
    f, s = _dofs(sol.neumann, disc.degree), _dofs(sol.dirichlet, disc.degree, "edges")
    w = _weak_curl(s, sol.boundary, disc)
    m0w, m1s, c = disc.gram._solve_mass0(w), disc.gram._solve_mass1(s), _incidence(f)
    return DegreeRecord(disc.degree, _norm_F(f, disc), _norm_E(w, m0w, s, m1s),
                        *_error_norms(field, f, c, m1s, m0w, disc),
                        _equivalence_residual(s, c, disc), _weak_curl_residual(f, m0w),
                        _operator_residual(disc))
