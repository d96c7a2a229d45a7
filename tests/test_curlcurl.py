import dataclasses
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualcurl import basis1d, cli, galerkin, operators2d
from dualcurl import curlcurl as cc
from dualcurl.basis1d import gauss_rule, gll_nodes
from dualcurl.curlcurl import equivalence_residual, norm_gap
from dualcurl.galerkin import assemble_mass0
from dualcurl.operators2d import (
    _dofs, _flat, _incidence, _incidence_t, build_incidence, build_trace)
from conftest import (
    dirichlet_system, neumann_system, psi0_dense, psi1_dense, random_vector_field)


def _count_calls(monkeypatch, *names):
    """Count every call of the `basis1d` functions `names`, at each module
    that binds them, inner calls of `basis1d` included."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(basis1d, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        for mod in (basis1d, galerkin, cc, cli):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


@functools.lru_cache(maxsize=None)
def _best_h1_error(N, m=60):
    """H1 error of the best approximation of F = e^x + e^y from Q_N, the
    degree-N tensor polynomials: a Legendre modal basis P_i(x) P_j(y) and
    a dense H1 projection, on an m-point Gauss grid.  It shares no code
    with the package."""
    leg = np.polynomial.legendre
    x, w = leg.leggauss(m)
    V = leg.legvander(x, N)  # V[a, i] = P_i(x_a)
    dV = np.column_stack([leg.legval(x, leg.legder(c)) for c in np.eye(N + 1)])
    M, K = (V * w[:, None]).T @ V, (dV * w[:, None]).T @ dV
    A = np.kron(M, M) + np.kron(K, M) + np.kron(M, K)  # coefficient c[j, i]
    m_exp, k_exp, m_one = V.T @ (w * np.exp(x)), dV.T @ (w * np.exp(x)), V.T @ w
    b = (np.kron(m_one, m_exp) + np.kron(m_exp, m_one)       # (F, phi)
         + np.kron(m_one, k_exp) + np.kron(k_exp, m_one))    # (grad F, grad phi)
    c = np.linalg.solve(A, b).reshape(N + 1, N + 1)
    ex = np.exp(x)
    F = ex[:, None] + ex[None, :]  # [a, b] at (x_a, x_b)
    e2 = ((F - V @ c.T @ V.T) ** 2 + (ex[:, None] - dV @ c.T @ V.T) ** 2
          + (ex[None, :] - V @ c.T @ dV.T) ** 2)
    return float(np.sqrt(np.sum(np.outer(w, w) * e2)))


@functools.lru_cache(maxsize=None)
def _exponential_solution(N, rule):
    """(disc, bd, sol) of the exponential pair at degree N under `rule`,
    solved once for the tests that share it."""
    disc = cc.Discretization(N, rule)
    bd = cc.project_boundary_data(cc.exponential_pair(), disc)
    return disc, bd, cc.solve_both(bd, disc)


@pytest.fixture(scope="module")
def exact():
    return cc.exponential_pair()


@pytest.fixture(scope="module")
def solved():
    """Discretizations, boundary data and solutions for N = 1..9."""
    field = cc.exponential_pair()
    out = {}
    for N in range(1, 10):
        disc = cc.Discretization(N)
        bd = cc.project_boundary_data(field, disc)
        out[N] = (disc, bd, cc.solve_both(bd, disc))
    return out


class TestAnalyticField:
    def test_pair_is_consistent(self, exact, rng):
        # complex-step derivatives of F must reproduce E = (dF/dy, -dF/dx)
        h = 1e-20
        x = rng.uniform(-1, 1, 100)
        y = rng.uniform(-1, 1, 100)
        dFdy = np.imag(exact.scalar(x, y + 1j * h)) / h
        dFdx = np.imag(exact.scalar(x + 1j * h, y)) / h
        np.testing.assert_allclose(exact.Ex(x, y), dFdy, atol=1e-13)
        np.testing.assert_allclose(exact.Ey(x, y), -dFdx, atol=1e-13)

    def test_vector_curl_consistent(self, exact, rng):
        h = 1e-20
        x = rng.uniform(-1, 1, 100)
        y = rng.uniform(-1, 1, 100)
        curl = (
            np.imag(exact.Ey(x + 1j * h, y)) / h
            - np.imag(exact.Ex(x, y + 1j * h)) / h
        )
        np.testing.assert_allclose(exact.vector_curl(x, y), curl, atol=1e-13)

    def test_tangential_trace_signs(self, exact):
        # n x E with outward normals: S gives Ex, N gives -Ex
        assert exact.tangential_trace("S", 0.0, -1.0) == exact.Ex(0.0, -1.0)
        assert exact.tangential_trace("N", 0.0, 1.0) == -exact.Ex(0.0, 1.0)
        assert exact.tangential_trace("E", 1.0, 0.0) == exact.Ey(1.0, 0.0)
        assert exact.tangential_trace("W", -1.0, 0.0) == -exact.Ey(-1.0, 0.0)

    def test_trace_evaluates_only_the_selected_component(self, exact):
        # one field call per side: Ex on S and N, Ey on E and W; a NaN in
        # the other component does not reach the trace
        calls = []

        def counted(name, fn):
            def call(x, y):
                calls.append(name)
                return fn(x, y)
            return call

        field = cc.AnalyticField(Ex=counted("Ex", exact.Ex), Ey=counted("Ey", exact.Ey))
        cc.project_boundary_data(field, cc.Discretization(4))
        assert sorted(calls) == ["Ex", "Ex", "Ey", "Ey"]
        nan = lambda x, y: np.full_like(x, np.nan)
        x = np.linspace(-1, 1, 5)
        for side, field in (("S", cc.AnalyticField(exact.Ex, nan)),
                            ("N", cc.AnalyticField(exact.Ex, nan)),
                            ("E", cc.AnalyticField(nan, exact.Ey)),
                            ("W", cc.AnalyticField(nan, exact.Ey))):
            assert np.all(np.isfinite(field.tangential_trace(side, x, x))), side

    @pytest.mark.parametrize("N", [1, 2, 5, 9, 16])
    def test_projection_matches_both_component_trace(self, exact, N):
        # n_x Ey - n_y Ex with both components evaluated gives the same dofs
        class BothComponents:
            def tangential_trace(self, side, x, y):
                nx, ny = cc._NORMALS[side]
                return nx * exact.Ey(x, y) - ny * exact.Ex(x, y)

        disc = cc.Discretization(N)
        assert np.array_equal(cc.project_boundary_data(exact, disc).dofs,
                              cc.project_boundary_data(BothComponents(), disc).dofs)


class TestBoundaryProjection:
    def test_zero_field(self):
        zero = cc.AnalyticField(Ex=lambda x, y: 0.0 * x, Ey=lambda x, y: 0.0 * x)
        bd = cc.project_boundary_data(zero, cc.Discretization(4))
        np.testing.assert_array_equal(bd.dofs, np.zeros(16))

    def test_negative_boost_rejected(self, exact):
        # a boost below 1 would under-integrate the data: N points are exact
        # only to degree 2N-1, and F_h^2 has degree 2N
        for boost in (-1, 0):
            with pytest.raises(ValueError, match=f"^boost must be >= 1, got {boost}$"):
                cc.Discretization(4, boost=boost)
        disc = cc.Discretization(4, boost=1)
        assert disc.quadrature.points.shape == disc.quadrature.weights.shape == (5,)
        assert np.all(np.isfinite(cc.project_boundary_data(exact, disc).dofs))

    def test_unit_trace_corner_dofs(self):
        # with n x E == 1 everywhere, each N=1 corner hat integrates to
        # 1 over each of its two supporting sides
        class UnitTrace:
            def tangential_trace(self, side, x, y):
                return np.ones_like(x)

        bd = cc.project_boundary_data(UnitTrace(), cc.Discretization(1))
        np.testing.assert_allclose(bd.dofs, 2.0 * np.ones(4), atol=1e-13)

    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    @pytest.mark.parametrize("N", [1, 2, 5, 9, 16])
    def test_is_the_trace_of_the_side_integrals(self, exact, N, rule):
        # each side's integrals against the nodal functions along it, added
        # onto its edge of the node grid in the order S, E, N, W, so that a
        # corner sums its two sides: the dofs are T of that grid
        disc = cc.Discretization(N, rule)
        x, w = disc.quadrature.points, disc.quadrature.weights
        H, one = basis1d.lagrange_eval(disc.nodes, x), np.ones_like(x)
        grid = np.zeros((N + 1, N + 1))
        grid[0, :] += H @ (w * exact.Ex(x, -one))
        grid[:, N] += H @ (w * exact.Ey(one, x))
        grid[N, :] += H @ (w * -exact.Ex(x, one))
        grid[:, 0] += H @ (w * -exact.Ey(-one, x))
        assert np.array_equal(cc.project_boundary_data(exact, disc).dofs,
                              build_trace(N) @ grid.ravel())

    def test_partition_of_unity_sum(self, exact):
        # the dofs sum to the loop integral of the trace data
        loop_integral = 4.0 / np.e - 4.0 * np.e
        for N in (1, 4, 7):
            bd = cc.project_boundary_data(exact, cc.Discretization(N))
            assert bd.dofs.sum() == pytest.approx(loop_integral, abs=1e-12)


class TestSolvers:
    def test_zero_data_gives_zero(self):
        disc = cc.Discretization(3)
        bd = cc.BoundaryData(3, np.zeros(12))
        np.testing.assert_array_equal(cc.solve_neumann(bd, disc), np.zeros(16))
        np.testing.assert_array_equal(cc.solve_dirichlet(bd, disc), np.zeros(24))

    def test_published_norm_low_order(self, solved):
        disc, _, sol = solved[3]
        assert cc.norm_F(sol.neumann, disc) == pytest.approx(6.32851719, abs=1e-8)

    def test_published_norm_high_order(self, solved):
        disc, _, sol = solved[9]
        assert cc.norm_F(sol.neumann, disc) == pytest.approx(6.32958656, abs=1e-8)

    def test_dirichlet_published_norm(self, solved):
        disc, bd, sol = solved[1]
        assert cc.norm_E(sol.dirichlet, bd, disc) == pytest.approx(
            5.62334036, abs=1e-8
        )

    @pytest.mark.parametrize("N", range(1, 10))
    def test_equivalence_identity(self, solved, N):
        disc, _, sol = solved[N]
        ref = disc.gram.M1 @ disc.E10 @ sol.neumann
        rel = np.linalg.norm(sol.dirichlet - ref) / np.linalg.norm(sol.dirichlet)
        assert rel <= 1e-11

    @pytest.mark.parametrize("N", range(1, 10))
    def test_norm_equality(self, solved, N):
        disc, bd, sol = solved[N]
        nF = cc.norm_F(sol.neumann, disc)
        nE = cc.norm_E(sol.dirichlet, bd, disc)
        assert abs(nF - nE) / nF <= 1e-11

    @pytest.mark.parametrize("rule", ["gauss", "lobatto"])
    def test_identities_hold_at_high_degree(self, exact, rule):
        # the N<=9 tolerances still hold at N=24, where the dual operator is
        # far worse conditioned (its condition number grows roughly like N^4)
        disc = cc.Discretization(24, rule)
        bd = cc.project_boundary_data(exact, disc)
        sol = cc.solve_both(bd, disc)
        assert equivalence_residual(sol, disc) <= 1e-11
        nF = cc.norm_F(sol.neumann, disc)
        assert norm_gap(nF, cc.norm_E(sol.dirichlet, bd, disc)) <= 1e-11

    @pytest.mark.parametrize("rule", ["gauss", "lobatto"])
    @pytest.mark.parametrize("N", [64, 128, 256, 384, 512])
    def test_identities_hold_to_degree_256(self, N, rule):
        # Bounds c N^2 eps, fixed before running: c = 10 for the
        # equivalence residual and the norm gap, c = 50 for the pointwise
        # E^h = curl F^h relative to max|curl F^h|.  The growth is rounding
        # in the solves and mass solves, not error in the basis: all three
        # identities are algebraic in the computed 1D Grams, and Grams
        # perturbed by a relative 1e-9 leave the residuals at their size
        # (gauss rule, N=64..256).  A c kappa eps bound would catch nothing:
        # the Neumann pencil's kappa is 8.8e8 at N=256, which allows about 2e-7.
        # Measured with one BLAS thread, N=384 and 512 read at most 0.48
        # (equivalence), 0.25 (norm gap) and 0.75 (pointwise) N^2 eps.
        bound = N**2 * np.finfo(float).eps
        disc, bd, sol = _exponential_solution(N, rule)
        assert equivalence_residual(sol, disc) <= 10 * bound
        nF = cc.norm_F(sol.neumann, disc)
        assert norm_gap(nF, cc.norm_E(sol.dirichlet, bd, disc)) <= 10 * bound
        g = gauss_rule(12).points  # interior: no point on the element edges
        E = cc.reconstruct("dual-vector", sol.dirichlet, g, g, disc)
        C = cc.reconstruct("primal-curl", sol.neumann, g, g, disc)
        gap = max(np.abs(e - c).max() for e, c in zip(E, C))
        assert gap <= 50 * bound * max(np.abs(c).max() for c in C)

    @pytest.mark.parametrize("rule", ["gauss", "lobatto"])
    @pytest.mark.parametrize("N", [*range(1, 10), 16, 64, 128, 256, 384, 512])
    def test_weak_curl_is_minus_the_primal_field(self, N, rule):
        # the third discrete identity, curl E^h = -F^h, on the node grid:
        # inv(M0) (E10^T Et + T^T Ehat) = -F.  Bound 10 N^2 eps, fixed
        # before the run; the worst measured is 1.94 N^2 eps, at N=512
        # (lobatto, one BLAS thread), where the one refinement step limits it
        disc, bd, sol = _exponential_solution(N, rule)
        f = _dofs(sol.neumann, N)
        w = cc._weak_curl(_dofs(sol.dirichlet, N, "edges"), bd, disc)
        gap = np.linalg.norm(disc.gram._solve_mass0(w) + f) / np.linalg.norm(f)
        assert gap <= 10 * N**2 * np.finfo(float).eps

    @pytest.mark.parametrize("N", [2, 5])
    def test_substitution_reproduces_dirichlet_rhs(self, solved, N):
        # plugging Et = M1 E10 F into the Dirichlet operator recovers its rhs
        disc, bd, sol = solved[N]
        A, rhs = dirichlet_system(disc, bd)
        Et = disc.gram.M1 @ disc.E10 @ sol.neumann
        assert np.linalg.norm(A @ Et - rhs) / np.linalg.norm(rhs) <= 1e-11

    def test_linearity_in_boundary_data(self, rng):
        disc = cc.Discretization(4)
        d1 = rng.standard_normal(16)
        d2 = rng.standard_normal(16)
        a, b = 0.7, -1.3
        mix = cc.BoundaryData(4, a * d1 + b * d2)
        for solver in (cc.solve_neumann, cc.solve_dirichlet):
            s1 = solver(cc.BoundaryData(4, d1), disc)
            s2 = solver(cc.BoundaryData(4, d2), disc)
            np.testing.assert_allclose(
                solver(mix, disc), a * s1 + b * s2, atol=1e-12
            )

    def test_random_data_identities(self, rng):
        for _ in range(5):
            field = random_vector_field(rng)
            for N in (2, 5):
                disc = cc.Discretization(N)
                bd = cc.project_boundary_data(field, disc)
                sol = cc.solve_both(bd, disc)
                ref = disc.gram.M1 @ disc.E10 @ sol.neumann
                assert (
                    np.linalg.norm(sol.dirichlet - ref)
                    / np.linalg.norm(sol.dirichlet)
                    <= 1e-11
                )
                nF = cc.norm_F(sol.neumann, disc)
                nE = cc.norm_E(sol.dirichlet, bd, disc)
                assert abs(nF - nE) / nF <= 1e-11


def exponential_sum(seed, terms=3):
    """A seeded exact pair F = sum c_k exp(cos t_k x + sin t_k y), E = curl F.

    Each term has unit wave vector, so the Laplacian of F is F and the
    scalar curl of E is -F: the homogeneous curl-curl equation holds.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, terms)
    t = rng.uniform(0.0, 2 * np.pi, terms)
    a, b = np.cos(t), np.sin(t)

    def F(x, y):
        return sum(ck * np.exp(ak * x + bk * y) for ck, ak, bk in zip(c, a, b))

    def dF(x, y, d):
        return sum(ck * dk * np.exp(ak * x + bk * y)
                   for ck, ak, bk, dk in zip(c, a, b, d))

    return cc.AnalyticField(
        Ex=lambda x, y: dF(x, y, b),
        Ey=lambda x, y: -dF(x, y, a),
        scalar=F,
        vector_curl=lambda x, y: -F(x, y),
    )


class TestIdentityProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 20), st.sampled_from(["gauss", "lobatto"]),
           st.integers(0, 2**32 - 1))
    def test_paper_identities(self, N, rule, seed):
        disc = cc.Discretization(N, rule)
        bd = cc.project_boundary_data(exponential_sum(seed), disc)
        sol = cc.solve_both(bd, disc)
        assert equivalence_residual(sol, disc) <= 1e-11
        nF = cc.norm_F(sol.neumann, disc)
        assert norm_gap(nF, cc.norm_E(sol.dirichlet, bd, disc)) <= 1e-11
        g = gauss_rule(12).points
        Ex, Ey = cc.reconstruct("dual-vector", sol.dirichlet, g, g, disc)
        Cx, Cy = cc.reconstruct("primal-curl", sol.neumann, g, g, disc)
        # relative to the field, like the other two: at N=20 the absolute
        # gap reaches about 1e-11 for fields of size 3 (relative 5e-12)
        gap = max(np.abs(Ex - Cx).max(), np.abs(Ey - Cy).max())
        assert gap <= 1e-11 * max(np.abs(Cx).max(), np.abs(Cy).max())


class TestDiscretization:
    def test_one_node_set_per_degree(self, monkeypatch):
        calls = []

        def counting(N):
            calls.append(N)
            return gll_nodes(N)

        monkeypatch.setattr(galerkin, "gll_nodes", counting)
        disc = cc.Discretization(5)
        assert calls == [5]
        assert disc.nodes is disc.gram.nodes

    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    def test_no_basis_table_in_setup(self, monkeypatch, rule):
        # the edge Gram needs no table: at the nodes the nodal table is the
        # identity; the nodal Gram is a closed form in the GLL weights under
        # either rule, so no Gauss rule is built either.  Set-up's one rule
        # and one table are the data quadrature's, of N + boost points
        calls = _count_calls(monkeypatch, "lagrange_eval", "edge_eval", "gauss_rule")
        galerkin.GramSet(6, rule)
        assert calls == {"lagrange_eval": 0, "edge_eval": 0, "gauss_rule": 0}, calls
        disc = cc.Discretization(6, rule, boost=3)
        assert calls == {"lagrange_eval": 1, "edge_eval": 0, "gauss_rule": 1}, calls
        assert disc.quadrature.points.shape == (9,)
        assert [t.shape for t in disc.tables] == [(7, 9), (6, 9)]

    def test_projection_and_errors_evaluate_no_table(self, exact, monkeypatch):
        # both integrate on the set-up's rule and tables
        disc = cc.Discretization(5)
        calls = _count_calls(monkeypatch, "lagrange_eval", "gauss_rule")
        sol = cc.solve_both(cc.project_boundary_data(exact, disc), disc)
        cc.error_norms(sol, exact, disc)
        assert calls == {"lagrange_eval": 0, "gauss_rule": 0}, calls


class TestOperators:
    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    @pytest.mark.parametrize("N", range(1, 13))
    def test_kronecker_forms_match_dense_definitions(self, rng, N, rule):
        # the solvers apply both operators on the grids and build their
        # right-hand sides from the 1D factors, and the edge stack's
        # incidence transpose, mass product and mass solve are each one
        # batched expression; the dense products of the 2D matrices are
        # the oracle
        disc = cc.Discretization(N, rule)
        bd = cc.project_boundary_data(random_vector_field(rng), disc)
        I, D = np.eye(N + 1), np.diff(np.eye(N + 1), axis=0)
        E10 = disc.E10.toarray()
        np.testing.assert_array_equal(E10, np.vstack([np.kron(D, I), -np.kron(I, D)]))
        assert disc.E10.nnz == 4 * N * (N + 1)  # one +1 and one -1 per edge
        cases = [
            ("nodes", cc._neumann_apply, cc._neumann_rhs, neumann_system(disc, bd)),
            ("edges", cc._dirichlet_apply, cc._dirichlet_rhs, dirichlet_system(disc, bd)),
        ]
        for layout, apply, rhs, (A_ref, b_ref) in cases:
            x = rng.standard_normal(A_ref.shape[0])
            Ax = A_ref @ x
            got = _flat(apply(_dofs(x, N, layout), disc))
            assert np.abs(got - Ax).max() <= 1e-13 * np.abs(Ax).max()
            b = _flat(rhs(bd, disc))
            assert np.abs(b - b_ref).max() <= 1e-13 * np.abs(b_ref).max()
        # an entry of E10^T Et sums at most four dofs: summed in two orders
        # it differs by at most 12 eps max|Et|
        s = rng.standard_normal((2, N, N + 1))
        v = _flat(s)
        gap = np.abs(_flat(_incidence_t(s)) - E10.T @ v).max()
        assert gap <= 12 * np.finfo(float).eps * np.abs(v).max()
        M1 = disc.gram.M1.toarray()
        for batched, M in ((disc.gram._mass1, M1),
                           (disc.gram._solve_mass1, disc.gram.M1_dual.toarray())):
            ref = M @ v
            assert np.abs(_flat(batched(s)) - ref).max() <= 1e-13 * np.abs(ref).max()
        F = rng.standard_normal((N + 1) ** 2)
        c = E10 @ F
        ref = np.sqrt(F @ assemble_mass0(disc.gram.Gh) @ F + c @ M1 @ c)
        assert abs(cc.norm_F(F, disc) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    @pytest.mark.parametrize("N", [1, 2, 3, 9, 16, 64, 128, 256])
    def test_operators_intertwine_by_the_incidence(self, N, rule):
        # the paper's theorem as an operator identity, with no solve in it:
        # A_D M1 E10 = E10 inv(M0) A_N, so Et = M1 E10 F solves the dual
        # problem when F solves the primal one; it ties the inverse of Gh
        # to Gh through both operators; bound fixed before the first run
        disc = cc.Discretization(N, rule)
        x = np.random.default_rng(N).standard_normal((N + 1, N + 1))
        dual = cc._dirichlet_apply(disc.gram._mass1(_incidence(x)), disc)
        primal = _incidence(disc.gram._solve_mass0(cc._neumann_apply(x, disc)))
        assert np.linalg.norm(dual - primal) <= 1e-14 * np.linalg.norm(primal)


def _residual(apply, rhs, x, layout, bd, disc):
    """Relative residual of a solve, with the operator applied on the grids
    of the dofs x in `layout`."""
    b = _flat(rhs(bd, disc))
    Ax = _flat(apply(_dofs(x, disc.degree, layout), disc))
    return np.linalg.norm(Ax - b) / np.linalg.norm(b)


class TestFastDiagonalization:
    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    @pytest.mark.parametrize("N", range(1, 13))
    def test_matches_dense_oracle(self, rng, N, rule):
        # the dense systems of the definitions, solved directly, are the
        # oracle; the residual bound is near that of np.linalg.solve itself,
        # which reaches 3e-14 at N=12
        disc = cc.Discretization(N, rule)
        bd = cc.project_boundary_data(random_vector_field(rng), disc)
        for solver, system in ((cc.solve_neumann, neumann_system),
                               (cc.solve_dirichlet, dirichlet_system)):
            A, b = system(disc, bd)
            x = solver(bd, disc)
            ref = np.linalg.solve(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b)
            assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)

    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    @pytest.mark.parametrize("N", [24, 40])
    def test_accuracy_past_oracle_range(self, exact, N, rule):
        # beyond the dense oracle the identities and the residuals of the
        # refined solves stay at 1e-12
        disc = cc.Discretization(N, rule)
        bd = cc.project_boundary_data(exact, disc)
        sol = cc.solve_both(bd, disc)
        assert equivalence_residual(sol, disc) <= 1e-12
        nF = cc.norm_F(sol.neumann, disc)
        assert norm_gap(nF, cc.norm_E(sol.dirichlet, bd, disc)) <= 1e-12
        assert _residual(
            cc._neumann_apply, cc._neumann_rhs, sol.neumann, "nodes", bd, disc) <= 1e-12
        assert _residual(
            cc._dirichlet_apply, cc._dirichlet_rhs, sol.dirichlet, "edges", bd, disc) <= 1e-12

    def test_factors_once_per_degree(self, monkeypatch, exact):
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(args)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        disc = cc.Discretization(6)
        assert len(calls) == 1   # the Neumann pencil; the Dirichlet solve reuses it
        bd = cc.project_boundary_data(exact, disc)
        cc.solve_both(bd, disc)
        cc.solve_both(bd, disc)
        assert len(calls) == 1

    @pytest.mark.parametrize("N", [1, 6])
    def test_one_cholesky_factor_per_degree(self, monkeypatch, N):
        # Ge in `GramSet`; the inverse factor of Gh is a closed form, which
        # the Neumann eigensolve reuses
        sizes = []
        cholesky = galerkin.np.linalg.cholesky

        def recording(A, *args, **kwargs):
            sizes.append(len(A))
            return cholesky(A, *args, **kwargs)

        monkeypatch.setattr(galerkin.np.linalg, "cholesky", recording)
        cc.Discretization(N)
        assert sizes == [N]

    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    @pytest.mark.parametrize("N", [*range(1, 13), 24, 40, 64])
    def test_pencils_by_definition(self, N, rule):
        # K V = Gh V diag(lam) and V^T Gh V = I for the one pencil both
        # solves are built from, checked on the factors `disc` holds;
        # bounds fixed before the first run
        disc = cc.Discretization(N, rule)
        A, B, V = disc.K, disc.gram.Gh, disc.V
        w = np.diag(V.T @ A @ V)
        assert np.all(np.diff(w) >= 0)
        scale = np.abs(A).max() * np.abs(V).max()
        assert np.abs(A @ V - B @ V * w).max() <= 1e-13 * scale
        assert np.abs(V.T @ B @ V - np.eye(len(w))).max() <= 1e-12

    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    @pytest.mark.parametrize("N", range(1, 9))
    def test_dirichlet_inverse_matches_dense_oracle(self, rng, N, rule):
        # the 2x2 mode-block inverse alone, before its refinement step, is
        # the inverse of the dense Dirichlet operator; bound fixed before
        # the first run
        disc = cc.Discretization(N, rule)
        bd = cc.project_boundary_data(random_vector_field(rng), disc)
        A, b = dirichlet_system(disc, bd)
        ref = np.linalg.solve(A, b)
        x = _flat(cc._dirichlet_inverse(cc._dirichlet_rhs(bd, disc), disc))
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("N", [16, 128, 256])
    def test_one_refinement_step_at_every_degree(self, exact, monkeypatch, N):
        # each solve applies its operator once, for its one refinement step,
        # however the pencil's condition number grows with N
        disc = cc.Discretization(N)
        bd = cc.project_boundary_data(exact, disc)
        calls = []
        for name in ("_neumann_apply", "_dirichlet_apply"):
            apply = getattr(cc, name)

            def counting(x, disc, _apply=apply, _name=name):
                calls.append(_name)
                return _apply(x, disc)

            monkeypatch.setattr(cc, name, counting)
        cc.solve_dirichlet(bd, disc)
        assert calls == ["_dirichlet_apply"]
        cc.solve_neumann(bd, disc)
        assert calls == ["_dirichlet_apply", "_neumann_apply"]


class TestGridOnlyPath:
    def test_import_loads_no_scipy(self, tmp_path):
        # neither the import nor a whole paper-cli run loads scipy, whose
        # sparse package takes longer to import than the run's own work:
        # only the sparse oracles `GramSet.M1`, `M1_dual` and `E10` load it
        code = ("import dualcurl, sys; from dualcurl import cli; "
                "rc = cli.main(['--max-degree', '9', '--emit', 'table1,fig3,fig2,matrices', "
                f"'--self-check', '--out', {str(tmp_path)!r}]); "
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(cc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "0 []", out
        assert (tmp_path / "incidence.csv").exists()

    def test_import_adds_four_stdlib_modules_to_numpy(self):
        # `import dualcurl` is the set-up of a paper-cli process: beyond
        # numpy and the package it loads only what the CLI's argparse and
        # the dataclasses need
        code = ("import sys, numpy; before = set(sys.modules); import dualcurl; "
                "print(*(m for m in set(sys.modules) - before "
                "if m.split('.')[0] != 'dualcurl'))")
        src = str(Path(cc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert set(out.split()) <= {"argparse", "copy", "dataclasses", "gettext"}, out

    @staticmethod
    def forbid_dense_operators(monkeypatch):
        """Make the dense masses, dual masses, `GramSet.M1` and
        `Discretization.E10` raise; returns the raising function."""
        def dense(*args):
            raise AssertionError("dense operator built on the solve path")

        for name in ("assemble_mass0", "assemble_mass1"):
            monkeypatch.setattr(galerkin, name, dense)
        for name in ("M2_dual", "M1_dual", "M1"):
            monkeypatch.setattr(galerkin.GramSet, name, property(dense))
        monkeypatch.setattr(cc.Discretization, "E10", property(dense))
        return dense

    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    def test_no_dense_operator_on_the_solve_path(self, exact, monkeypatch, rule):
        # every (dofs x dofs) matrix, the dense incidence and the dense
        # trace raise: a run through the whole pipeline must not touch one,
        # and must give the same numbers as an unpatched run
        def run():
            disc = cc.Discretization(12, rule)
            bd = cc.project_boundary_data(exact, disc)
            sol = cc.solve_both(bd, disc)
            return (sol.neumann, sol.dirichlet, cc.norm_F(sol.neumann, disc),
                    cc.norm_E(sol.dirichlet, bd, disc), *cc.error_norms(sol, exact, disc),
                    _weak_curl_dofs(sol.dirichlet, bd, disc),
                    equivalence_residual(sol, disc))

        ref = run()
        dense = self.forbid_dense_operators(monkeypatch)
        for owner in (operators2d, cli):
            monkeypatch.setattr(owner, "build_trace", dense)
        monkeypatch.setattr(operators2d, "build_incidence", dense)
        for got, want in zip(run(), ref):
            np.testing.assert_array_equal(got, want)

    def test_no_dense_operator_on_the_cli_path(self, monkeypatch, tmp_path, capsys):
        # the study, fig2 and the self-check pass with every dense mass and
        # the dense incidence forbidden; only the N=3 fixture checks build
        # the dense incidence and trace, and those stay unpatched
        self.forbid_dense_operators(monkeypatch)
        rc = cli.main(["--max-degree", "12", "--emit", "table1,fig3,fig2",
                       "--self-check", "--out", str(tmp_path)])
        assert rc == 0
        assert "self-check: 9/9 passed" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", [
        "solve_both", "weak_curl", "norm_F", "norm_E", "reconstruct-primal-scalar",
        "reconstruct-primal-curl", "reconstruct-dual-vector", "reconstruct-dual-weak-curl",
        "error_norms", "GramSet.solve_mass0", "GramSet.solve_mass1", "equivalence_residual"])
    def test_each_caller_array_is_checked_once(self, exact, solved, monkeypatch, entry):
        # a public entry reads each dof array its caller hands it through
        # _dofs once; the fields the package makes itself stay on their
        # grids and are never checked again: the weak curl of an edge
        # stack reads none
        disc, bd, sol = solved[4]
        w = _weak_curl_dofs(sol.dirichlet, bd, disc)
        F, Et, s = sol.neumann, sol.dirichlet, _dofs(sol.dirichlet, 4, "edges")
        call, layouts = {
            "solve_both": (lambda: cc.solve_both(bd, disc), []),
            "weak_curl": (lambda: cc._weak_curl(s, bd, disc), []),
            "norm_F": (lambda: cc.norm_F(F, disc), ["nodes"]),
            "norm_E": (lambda: cc.norm_E(Et, bd, disc), ["edges"]),
            "reconstruct-primal-scalar":
                (lambda: cc.reconstruct("primal-scalar", F, 0.0, 0.0, disc), ["nodes"]),
            "reconstruct-primal-curl":
                (lambda: cc.reconstruct("primal-curl", F, 0.0, 0.0, disc), ["nodes"]),
            "reconstruct-dual-vector":
                (lambda: cc.reconstruct("dual-vector", Et, 0.0, 0.0, disc), ["edges"]),
            "reconstruct-dual-weak-curl":
                (lambda: cc.reconstruct("dual-weak-curl", w, 0.0, 0.0, disc), ["nodes"]),
            "error_norms": (lambda: cc.error_norms(sol, exact, disc), ["nodes", "edges"]),
            "GramSet.solve_mass0": (lambda: disc.gram.solve_mass0(w), ["nodes"]),
            "GramSet.solve_mass1": (lambda: disc.gram.solve_mass1(Et), ["edges"]),
            "equivalence_residual":
                (lambda: equivalence_residual(sol, disc), ["edges", "nodes"]),
        }[entry]
        checked = []

        def counting(v, N, layout="nodes"):
            checked.append(layout)
            return _dofs(v, N, layout)

        for module in (galerkin, cc):
            monkeypatch.setattr(module, "_dofs", counting)
        call()
        assert checked == layouts


def _weak_curl_dofs(Et, bd, disc):
    """The nodal dofs E10^T Et + T^T Ehat of the edge dofs Et, through the
    package's private weak curl of the edge stack."""
    return _flat(cc._weak_curl(_dofs(Et, disc.degree, "edges"), bd, disc))


class TestWeakCurl:
    def test_zero(self):
        disc = cc.Discretization(2)
        bd = cc.BoundaryData(2, np.zeros(8))
        np.testing.assert_array_equal(_weak_curl_dofs(np.zeros(12), bd, disc), np.zeros(9))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 20), st.sampled_from(["gauss", "lobatto"]),
           st.integers(0, 2**32 - 1))
    def test_linearity(self, N, rule, seed):
        rng = np.random.default_rng(seed)
        disc = cc.Discretization(N, rule)
        bd = cc.BoundaryData(N, rng.standard_normal(4 * N))
        e1 = rng.standard_normal(2 * N * (N + 1))
        e2 = rng.standard_normal(2 * N * (N + 1))
        lhs = _weak_curl_dofs(2.0 * e1 + 3.0 * e2, bd, disc)
        rhs = (
            2.0 * _weak_curl_dofs(e1, bd, disc)
            + 3.0 * _weak_curl_dofs(e2, bd, disc)
            - 4.0 * (build_trace(N).T @ bd.dofs)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_approximates_negated_scalar(self, exact, solved, rng):
        # curl E = -F for this problem; the reconstruction converges fast
        x = rng.uniform(-0.95, 0.95, 200)
        y = rng.uniform(-0.95, 0.95, 200)
        X, Y = np.meshgrid(x, y, indexing="ij")
        prev = None
        for N in (3, 6, 9):
            disc, bd, sol = solved[N]
            w = _weak_curl_dofs(sol.dirichlet, bd, disc)
            vals = cc.reconstruct("dual-weak-curl", w, x, y, disc)
            err = np.max(np.abs(vals - (-exact.scalar(X, Y))))
            if prev is not None:
                assert err < prev * 1e-1
            prev = err
        assert prev <= 1e-7


class TestNorms:
    def test_zero_dofs(self):
        disc = cc.Discretization(2)
        bd = cc.BoundaryData(2, np.zeros(8))
        assert cc.norm_F(np.zeros(9), disc) == 0.0
        assert cc.norm_E(np.zeros(12), bd, disc) == 0.0

    def test_constant_field(self):
        # constant c has zero curl and L2 norm |c| * area^(1/2) = 2|c|
        disc = cc.Discretization(4)
        c = -1.7
        assert cc.norm_F(np.full(25, c), disc) == pytest.approx(2 * abs(c), abs=1e-12)

    def test_published_norm_n2(self, solved):
        disc, _, sol = solved[2]
        assert cc.norm_F(sol.neumann, disc) == pytest.approx(6.28815932, abs=1e-8)

    def test_published_norm_n5_equality(self, solved):
        disc, bd, sol = solved[5]
        nE = cc.norm_E(sol.dirichlet, bd, disc)
        assert nE == pytest.approx(6.32958640, abs=1e-8)
        assert nE == pytest.approx(cc.norm_F(sol.neumann, disc), rel=1e-11)


class TestReconstruct:
    @pytest.mark.parametrize("kind", ["mystery", ["primal-scalar"]], ids=["mystery", "list"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match=r"^unknown reconstruction kind "):
            cc.reconstruct(kind, np.zeros(9), 0.0, 0.0, cc.Discretization(2))

    def test_primal_scalar_interpolates_polynomials(self, rng):
        N = 5
        disc = cc.Discretization(N)
        ns = disc.nodes

        def p(x, y):
            return 2.0 - x + 0.5 * y + x**2 * y**3

        X, Y = np.meshgrid(ns.nodes, ns.nodes, indexing="ij")
        dofs = p(X, Y).T.ravel()  # node index is j*(N+1)+i
        x = rng.uniform(-1, 1, 50)
        y = rng.uniform(-1, 1, 50)
        X, Y = np.meshgrid(x, y, indexing="ij")
        np.testing.assert_allclose(
            cc.reconstruct("primal-scalar", dofs, x, y, disc), p(X, Y), atol=1e-12
        )

    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    def test_dual_vector_matches_primal_expansion(self, rng, rule):
        # every kind against the (dofs x points) oracle tables at the
        # meshgrid points: dofs M1 e and M0 f expand in the dual bases to
        # the same fields as the primal expansions of e and f; only "gauss"
        # has a dense M0.  Two distinct axes of different lengths catch an
        # x/y transposition.
        x = rng.uniform(-1, 1, 7)
        y = rng.uniform(-1, 1, 11)
        X, Y = np.meshgrid(x, y, indexing="ij")
        for N in (1, 2, 5, 12, 20):
            disc = cc.Discretization(N, rule=rule)
            e = rng.standard_normal(2 * N * (N + 1))
            f = rng.standard_normal((N + 1) ** 2)
            P0 = psi0_dense(disc.nodes, X.ravel(), Y.ravel())
            Vxi, Veta = psi1_dense(disc.nodes, X.ravel(), Y.ravel())
            cases = [
                ("primal-scalar", f, [f @ P0]),
                ("primal-curl", f, [(disc.E10 @ f) @ Vxi, (disc.E10 @ f) @ Veta]),
                ("dual-vector", disc.gram.M1 @ e, [e @ Vxi, e @ Veta]),
                ("dual-weak-curl", assemble_mass0(disc.gram.Gh) @ f, [f @ P0]),
            ]
            for kind, dofs, refs in cases:
                got = cc.reconstruct(kind, dofs, x, y, disc)
                got = got if isinstance(got, tuple) else (got,)
                for g, ref in zip(got, refs, strict=True):
                    assert g.shape == X.shape, (N, kind)
                    # 1e-12 both absolute and relative to the field
                    tol = 1e-12 * min(1.0, np.abs(ref).max())
                    assert np.abs(g - ref.reshape(X.shape)).max() <= tol, (N, kind)

    def test_pointwise_identity_interior_grid(self, solved):
        # E^h and curl F^h agree to machine precision on an interior grid
        disc, _, sol = solved[3]
        g = gauss_rule(30).points
        Ex, Ey = cc.reconstruct("dual-vector", sol.dirichlet, g, g, disc)
        Cx, Cy = cc.reconstruct("primal-curl", sol.neumann, g, g, disc)
        assert np.max(np.abs(Ex - Cx)) <= 1e-13
        assert np.max(np.abs(Ey - Cy)) <= 1e-13


class TestErrorNorms:
    def test_polynomial_interpolant_has_zero_error(self):
        # a polynomial of degree <= N-1 per variable lies in the discrete
        # space; its interpolant (the independent oracle for the dofs) must
        # carry zero H(curl) error, weak-curl term included
        N = 4
        disc = cc.Discretization(N)
        field = cc.AnalyticField(
            scalar=lambda x, y: x**2 * y + 3.0 * x - y**2 + 2.0,
            Ex=lambda x, y: x**2 - 2.0 * y + 0.0 * x,
            Ey=lambda x, y: -(2.0 * x * y + 3.0),
            # curl E = curl curl F = -laplace F
            vector_curl=lambda x, y: -(2.0 * y - 2.0) + 0.0 * x,
        )
        bd = cc.project_boundary_data(field, disc)
        ns = disc.nodes
        X, Y = np.meshgrid(ns.nodes, ns.nodes, indexing="ij")
        F_dofs = field.scalar(X, Y).T.ravel()
        sol = cc.Solution(
            boundary=bd,
            neumann=F_dofs,
            dirichlet=disc.gram.M1 @ disc.E10 @ F_dofs,
        )
        errF, errE = cc.error_norms(sol, field, disc)
        assert errF <= 1e-11
        assert errE <= 1e-11

    def test_exponential_errors_decay(self, exact, solved):
        errs = []
        for N in range(2, 10):
            disc, _, sol = solved[N]
            errF, errE = cc.error_norms(sol, exact, disc)
            assert errF == pytest.approx(errE, rel=1e-6)
            errs.append(errF)
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-7

    @pytest.mark.parametrize("rule", ["gauss", "lobatto"])
    def test_dual_error_equals_primal_error(self, exact, rule):
        # E^h = curl F^h and curl E^h = -F^h hold discretely, so the two
        # H(curl) errors are one number up to roundoff
        for N in range(1, 10):
            disc = cc.Discretization(N, rule)
            sol = cc.solve_both(cc.project_boundary_data(exact, disc), disc)
            errF, errE = cc.error_norms(sol, exact, disc)
            assert abs(errE - errF) <= 1e-14, (N, errF, errE)

    @pytest.mark.parametrize("rule", ["gauss", "lobatto"])
    @pytest.mark.parametrize("N", [64, 128, 256])
    def test_dual_error_tracks_primal_error_at_high_degree(self, exact, N, rule):
        # from N=16 both errors are rounding, and the identities tie them
        # to N^2 eps of the field's H(curl) norm: a dual solve that loses
        # digits in its high-curl modes shows here first
        disc, _, sol = _exponential_solution(N, rule)
        errF, errE = cc.error_norms(sol, exact, disc)
        assert abs(errE - errF) <= N**2 * np.finfo(float).eps * cli.theoretical_norm()

    def test_primal_error_is_the_best_h1_approximation(self, exact):
        # the Neumann solve is the H1 projection of F onto Q_N; the "gauss"
        # rule integrates it exactly, so errF is the best-approximation
        # error, the floor that keeps criterion 6 red at N=9; the lumped
        # "lobatto" mass stays above it by a factor 1 + O(N^-2).  Oracle:
        # an independent modal projection, bounds fixed before the run
        for rule in ("gauss", "lobatto"):
            for N in range(1 if rule == "gauss" else 2, 10):
                disc = cc.Discretization(N, rule)
                sol = cc.solve_both(cc.project_boundary_data(exact, disc), disc)
                ratio = cc.error_norms(sol, exact, disc)[0] / _best_h1_error(N)
                # roundoff: both errors carry ~1e-15 absolute
                slack = 1e-9 + 1e-14 / _best_h1_error(N)
                top = 1 + slack if rule == "gauss" else 1 + 0.3 / N**2
                assert 1 - slack <= ratio <= top, (rule, N, ratio)

    @pytest.mark.parametrize("boost", [1, 2, 15])
    @pytest.mark.parametrize("N", [3, 9, 12])
    def test_accepted_boost_reads_the_space_floor(self, exact, N, boost):
        # every accepted data rule measures errF at the space's best error or
        # above (boost 0, rejected, read 0.08-0.29 of it); boost 1 reads up to
        # 0.54% low, as the analytic part of the error is still under-integrated
        ratio = cc.solve_degree(exact, cc.Discretization(N, boost=boost)).errF / _best_h1_error(N)
        assert ratio >= 0.99, (N, boost, ratio)

    def test_evaluates_each_table_once(self, exact, solved, monkeypatch):
        # one Gauss axis serves both directions and all four fields: its
        # nodal table is evaluated once, in set-up, and the edge table
        # derived from it; error_norms evaluates none
        _, _, sol = solved[5]
        calls = _count_calls(monkeypatch, "lagrange_eval")
        disc = cc.Discretization(5)
        assert calls == {"lagrange_eval": 1}, calls
        assert cc.error_norms(sol, exact, disc) == cc.error_norms(sol, exact, solved[5][0])
        assert calls == {"lagrange_eval": 1}, calls


class TestMeasures:
    @pytest.mark.parametrize("N", [1, 2, 5, 12])
    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    @pytest.mark.parametrize("pair", [cc.exponential_pair, functools.partial(cc.plane_wave, 0.7)],
                             ids=["exponential", "plane-wave"])
    def test_equals_the_public_functions(self, pair, rule, N):
        # solve_degree's one pass after the solves hands its grids to the forms
        # that the public norms, errors and residuals wrap: each value is equal
        # to theirs on the same public set-up and solves, not close
        exact, disc = pair(), cc.Discretization(N, rule)
        bd = cc.project_boundary_data(exact, disc)
        sol = cc.solve_both(bd, disc)
        w = cc._weak_curl(_dofs(sol.dirichlet, N, "edges"), bd, disc)
        assert cc.solve_degree(exact, disc) == cc.DegreeRecord(
            N, cc.norm_F(sol.neumann, disc), cc.norm_E(sol.dirichlet, bd, disc),
            *cc.error_norms(sol, exact, disc), equivalence_residual(sol, disc),
            cc._weak_curl_residual(_dofs(sol.neumann, N), disc.gram._solve_mass0(w)),
            cc._operator_residual(disc))

    def test_reads_its_boost(self):
        # the data rule of N + boost points integrates the projection and the errors
        exact = cc.exponential_pair()
        disc = cc.Discretization(3, boost=4)
        sol = cc.solve_both(cc.project_boundary_data(exact, disc), disc)
        record = cc.solve_degree(exact, disc)
        assert (record.errF, record.errE) == cc.error_norms(sol, exact, disc)
        assert record != cc.solve_degree(exact, cc.Discretization(3))

    def test_names_the_missing_exact_part(self):
        bare = cc.AnalyticField(Ex=lambda x, y: np.exp(y), Ey=lambda x, y: -np.exp(x))
        with pytest.raises(ValueError, match=r"exact field's scalar and vector_curl$"):
            cc.solve_degree(bare, cc.Discretization(3))


class TestPlaneWave:
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.7, 2.5])
    def test_is_an_exact_solution(self, t):
        # E = curl F = (dF/dy, -dF/dx) and curl E = -F, by central differences
        wave, h = cc.plane_wave(t), 1e-5
        x, y = np.linspace(-1, 1, 7), np.linspace(1, -1, 7)
        F = wave.scalar

        def d(f, dx, dy):
            return (f(x + dx, y + dy) - f(x - dx, y - dy)) / (2 * h)

        np.testing.assert_allclose(wave.Ex(x, y), d(F, 0, h), rtol=1e-9)
        np.testing.assert_allclose(wave.Ey(x, y), -d(F, h, 0), rtol=1e-9)
        np.testing.assert_allclose(d(wave.Ey, h, 0) - d(wave.Ex, 0, h), wave.vector_curl(x, y),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_array_equal(wave.vector_curl(x, y), -F(x, y))

    def test_reaches_the_answer_lines_floor(self):
        # errF and errE at N=12 and t=0.3 sit on the space's floor, which
        # the `gauss` errF is (the Galerkin projection, Cea's lemma): 7.3e-13
        wave = cc.plane_wave(0.3)
        floor = cc.solve_degree(wave, cc.Discretization(12, "gauss")).errF
        record = cc.solve_degree(wave, cc.Discretization(12))
        assert 7.2e-13 < floor < 7.4e-13
        assert floor <= record.errF <= 1.01 * floor  # `lobatto`: 1.0026 times it
        assert abs(record.errE - record.errF) <= 1e-3 * record.errF
        assert 10 * max(record.errF, record.errE) < 1e-11  # the line's tolerance


# every public entry that reads an integer: its call on (value, disc, sol),
# the argument's name and the least value it accepts
INTEGER_ENTRIES = {
    "gll_nodes": (lambda v, disc, sol: gll_nodes(v), "degree", 1),
    "gauss_rule": (lambda v, disc, sol: gauss_rule(v), "points", 1),
    "build_incidence": (lambda v, disc, sol: build_incidence(v), "degree", 1),
    "build_trace": (lambda v, disc, sol: build_trace(v), "degree", 1),
    "boundary_nodes": (lambda v, disc, sol: operators2d.boundary_nodes(v), "degree", 1),
    "GramSet": (lambda v, disc, sol: galerkin.GramSet(v, "gauss"), "degree", 1),
    "Discretization": (lambda v, disc, sol: cc.Discretization(v), "degree", 1),
    "BoundaryData": (lambda v, disc, sol: cc.BoundaryData(v, sol.boundary.dofs), "degree", 1),
    # the boost of the data quadrature that the projection and the errors
    # integrate on reaches them through the Discretization, which checks it
    "project_boundary_data": (lambda v, disc, sol: cc.project_boundary_data(
        cc.exponential_pair(), cc.Discretization(3, boost=v)), "boost", 1),
    "error_norms": (lambda v, disc, sol: cc.error_norms(
        sol, cc.exponential_pair(), cc.Discretization(3, boost=v)), "boost", 1),
    "StudyConfig.max_degree": (lambda v, disc, sol: cli.StudyConfig(max_degree=v),
                               "max_degree", 1),
    "StudyConfig.grid_size": (lambda v, disc, sol: cli.StudyConfig(grid_size=v),
                              "grid_size", 2),
    "StudyConfig.quadrature_boost": (lambda v, disc, sol: cli.StudyConfig(quadrature_boost=v),
                                     "quadrature_boost", 1),
}


class TestInputChecks:
    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_integer_inputs_name_their_argument(self, solved, entry, data):
        # floats (integral ones too), bools and strings are not integers;
        # an int below the least value is out of range.  The floats stay
        # small: a huge one that slipped through would size arrays by it
        call, name, least = INTEGER_ENTRIES[entry]
        value = data.draw(st.one_of(
            st.floats(-64, 64), st.booleans(), st.text(max_size=3),
            st.sampled_from([np.nan, np.inf, np.True_, np.float64(3.0)]),
            st.integers(max_value=least - 1)))
        disc, _, sol = solved[3]
        if type(value) is int:
            expected, message = ValueError, rf"^{name} must be >= {least}, got {value}$"
        else:
            expected, message = TypeError, rf"^{name} must be an integer, got "
        with pytest.raises(expected, match=message):
            call(value, disc, sol)

    @pytest.mark.parametrize("N", [3.5, 3.0, True, np.True_, "3"],
                             ids=["float", "integral-float", "bool", "numpy-bool", "str"])
    def test_degree_must_be_an_integer(self, N):
        # a bool is an int to Python; neither it nor a float may reach numpy,
        # whose errors name no input
        with pytest.raises(TypeError, match=rf"^degree must be an integer, got {re.escape(repr(N))}$"):
            cc.Discretization(N)

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match="^degree must be >= 1, got 0$"):
            cc.Discretization(0)

    def test_numpy_integer_degree_accepted(self):
        disc = cc.Discretization(np.int64(3))
        assert disc.degree == 3 and type(disc.degree) is int
        assert disc.V.shape == (4, 4)

    @pytest.mark.parametrize("boost", [2.5, True])
    def test_boost_must_be_an_integer(self, exact, solved, boost):
        # boost=True would integrate on N+1 points without a word, and a
        # float would fail inside numpy's Gauss rule naming N+boost
        _, _, sol = solved[3]
        with pytest.raises(TypeError, match=rf"^boost must be an integer, got {boost!r}$"):
            cc.Discretization(3, boost=boost)
        assert cc.error_norms(sol, exact, cc.Discretization(3, boost=np.int64(2))) == \
            cc.error_norms(sol, exact, cc.Discretization(3, boost=2))

    def test_degree_mismatch(self):
        disc = cc.Discretization(4)
        bd = cc.BoundaryData(3, np.zeros(12))
        sol = cc.Solution(bd, np.zeros(16), np.zeros(24))
        messages = []
        for call in (
            lambda: cc.solve_neumann(bd, disc),
            lambda: cc.solve_dirichlet(bd, disc),
            lambda: cc.norm_E(np.zeros(40), bd, disc),
            lambda: equivalence_residual(sol, disc),
            lambda: cc.error_norms(sol, cc.exponential_pair(), disc),
        ):
            with pytest.raises(ValueError, match="degree 3 .* degree-4 discretization") as exc:
                call()
            messages.append(str(exc.value))
        assert messages[-1] == messages[-2]  # one rule for a solution of another degree

    def test_non_finite_boundary_data(self):
        disc = cc.Discretization(3)
        dofs = np.zeros(12)
        dofs[5] = np.nan
        with pytest.raises(ValueError,
                           match="^dofs for the degree-3 discretization must be finite, got nan$"):
            cc.solve_both(cc.BoundaryData(3, dofs), disc)

    @pytest.mark.parametrize("component", ["Ex", "Ey", "scalar", "vector_curl"])
    def test_non_finite_exact_field_fails_in_error_norms(self, exact, solved, component):
        # a NaN would come back as a nan error norm, and the other one would
        # read as if nothing were wrong
        disc, _, sol = solved[3]
        field = dataclasses.replace(
            exact, **{component: lambda x, y: np.where(x > 0.5, np.nan, 1.0)})
        with pytest.raises(ValueError,
                           match=rf"^the exact field's {component} must be finite, got nan$"):
            cc.error_norms(sol, field, disc)

    @pytest.mark.parametrize("cut", ["column", "row"])
    @pytest.mark.parametrize("component", ["Ex", "Ey", "scalar", "vector_curl"])
    def test_misshapen_exact_field_fails_in_error_norms(self, exact, solved, component, cut):
        # numpy would broadcast an (M, 1) or (M,) component against the grid
        # into a wrong error: scalar cut to (M, 1) reads errF 2.08, not 9.6e-4, at N=5
        disc, _, sol = solved[5]
        part = getattr(exact, component)
        piece = {"column": lambda v: v[:, :1], "row": lambda v: v[:, 0]}[cut]
        field = dataclasses.replace(exact, **{component: lambda x, y: piece(part(x, y))})
        m = disc.degree + 15
        shape = re.escape(str((m, 1) if cut == "column" else (m,)))
        with pytest.raises(ValueError, match=rf"^the exact field's {component} has shape "
                                             rf"{shape}, not \({m}, {m}\) or a scalar$"):
            cc.error_norms(sol, field, disc)

    def test_scalar_exact_field_is_a_constant(self, solved):
        # a field value may be a scalar: the same errors, bit for bit, as the
        # zero field returned on the whole grid
        disc, _, sol = solved[3]
        zero = lambda x, y: 0.0
        grid = lambda x, y: np.zeros_like(x)
        scalar = cc.AnalyticField(zero, zero, zero, zero)
        full = cc.AnalyticField(grid, grid, grid, grid)
        assert cc.error_norms(sol, scalar, disc) == cc.error_norms(sol, full, disc)

    @pytest.mark.parametrize("component", ["Ex", "Ey", "scalar", "vector_curl"])
    def test_complex_exact_field_fails_in_error_norms(self, exact, solved, component):
        # the squared differences would fold the imaginary part into the
        # error: scalar = e^x + e^y + 1j would read errF ~ 1e-16 at N=3
        disc, _, sol = solved[3]
        part = getattr(exact, component)
        field = dataclasses.replace(exact, **{component: lambda x, y: part(x, y) + 1j})
        with pytest.raises(ValueError,
                           match=rf"^the exact field's {component} must be real, not complex$"):
            cc.error_norms(sol, field, disc)

    @pytest.mark.parametrize("component, side", [("Ex", "S"), ("Ey", "E")])
    def test_complex_field_fails_at_projection(self, exact, component, side):
        # numpy would fail casting the trace into the real dofs, naming no
        # input; the first side whose normal selects the component is named
        part = getattr(exact, component)
        field = dataclasses.replace(exact, **{component: lambda x, y: part(x, y) + 1j})
        with pytest.raises(ValueError,
                           match=rf"^the tangential trace on side {side} must be real, not complex$"):
            cc.project_boundary_data(field, cc.Discretization(3))

    def test_list_valued_field_projects_as_arrays(self, exact):
        # error_norms reads a list-valued component through _real, and the
        # projection takes it too; a complex list is still rejected
        listed = cc.AnalyticField(Ex=lambda x, y: exact.Ex(x, y).tolist(),
                                  Ey=lambda x, y: exact.Ey(x, y).tolist())
        disc = cc.Discretization(5)
        assert np.array_equal(cc.project_boundary_data(listed, disc).dofs,
                              cc.project_boundary_data(exact, disc).dofs)
        field = dataclasses.replace(listed, Ex=lambda x, y: (exact.Ex(x, y) + 1j).tolist())
        with pytest.raises(ValueError,
                           match="^the tangential trace on side S must be real, not complex$"):
            cc.project_boundary_data(field, disc)

    def test_non_finite_field_fails_at_projection(self, exact):
        # the NaN would otherwise reach the solves as boundary dofs
        field = cc.AnalyticField(Ex=lambda x, y: np.where(x > 0.5, np.nan, 1.0), Ey=exact.Ey)
        with pytest.raises(ValueError,
                           match="^the tangential trace on side S must be finite, got nan$"):
            cc.project_boundary_data(field, cc.Discretization(3))

    def test_misshapen_trace_fails_at_projection(self, exact):
        # numpy would fail broadcasting an (M, 1) trace against the side's
        # weights, naming no side; M = N + boost = 18
        field = dataclasses.replace(exact, Ex=lambda x, y: exact.Ex(x, y)[:, None])
        with pytest.raises(ValueError, match=r"^the tangential trace on side S has shape "
                                             r"\(18, 1\), not \(18,\) or a scalar$"):
            cc.project_boundary_data(field, cc.Discretization(3))
        constant = cc.AnalyticField(Ex=lambda x, y: 1.0, Ey=lambda x, y: 0.0)
        assert np.all(np.isfinite(cc.project_boundary_data(constant, cc.Discretization(3)).dofs))

    @pytest.mark.parametrize("evaluate", ["lagrange_eval", "edge_eval"])
    def test_basis_points_must_be_scalar_or_1d(self, evaluate):
        # numpy would fail broadcasting a grid against the nodes, naming
        # neither the points nor their shape
        with pytest.raises(ValueError, match=r"^points must be a scalar or a 1D array, "
                                             r"not of shape \(2, 2\)$"):
            getattr(basis1d, evaluate)(gll_nodes(3), np.zeros((2, 2)))

    @pytest.mark.parametrize("evaluate", ["lagrange_eval", "edge_eval"])
    @pytest.mark.parametrize("points", [np.nan, np.inf, -np.inf, [0.5, np.nan]],
                             ids=["nan", "inf", "-inf", "list-with-nan"])
    def test_basis_points_must_be_finite(self, evaluate, points):
        # the barycentric form would return NaN columns, its 0/0 hidden by
        # its errstate; outside [-1, 1] the basis still extrapolates
        evaluator = getattr(basis1d, evaluate)
        with pytest.raises(ValueError, match=r"^points must be finite, got "):
            evaluator(gll_nodes(3), points)
        assert np.all(np.isfinite(evaluator(gll_nodes(3), [-5.0, 1.5])))

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("point", [5.0, -1.0 - 1e-12, np.nan, np.inf])
    def test_reconstruct_rejects_points_off_the_element(self, axis, point):
        # outside [-1, 1] the basis would extrapolate; NaN would come back as values
        disc = cc.Discretization(3)
        points = {"x": [-1.0, 1.0], "y": [-1.0, 1.0]}
        assert cc.reconstruct("primal-scalar", np.ones(16), *points.values(), disc).shape == (2, 2)
        points[axis] = [0.0, point]
        message = rf"^{axis} must hold finite points in \[-1, 1\]"
        if not np.isfinite(point):
            message = rf"^{axis} must be finite, got {point}$"
        with pytest.raises(ValueError, match=message):
            cc.reconstruct("primal-scalar", np.ones(16), *points.values(), disc)

    @pytest.mark.parametrize("call, name", [
        (lambda p: cc.reconstruct("primal-scalar", np.ones(16), p, np.array([0.1]),
                                  cc.Discretization(3)), "x"),
        (lambda p: cc.reconstruct("dual-vector", np.ones(24), np.array([0.1]), p,
                                  cc.Discretization(3)), "y"),
        (lambda p: basis1d.lagrange_eval(gll_nodes(3), p), "points"),
        (lambda p: basis1d.edge_eval(gll_nodes(3), p), "points"),
    ], ids=["reconstruct-x", "reconstruct-y", "lagrange_eval", "edge_eval"])
    @pytest.mark.parametrize("points", [np.array([0.5 + 1j]), 0.5 + 0j, [0.1, 0.2j]],
                             ids=["array", "scalar", "list"])
    def test_complex_points_rejected(self, call, name, points):
        # a float cast would keep an array's real part with only a warning;
        # a zero imaginary part is rejected too, as for complex dofs
        with pytest.raises(ValueError, match=rf"^{name} must be real, not complex$"):
            call(points)

    @pytest.mark.parametrize("call, n", [
        (lambda v, bd, disc: cc.norm_F(v, disc), 100),
        (cc.norm_E, 180),
        (lambda v, bd, disc: cc.reconstruct("primal-curl", v, 0.0, 0.0, disc), 100),
        (lambda v, bd, disc: cc.reconstruct("dual-vector", v, 0.0, 0.0, disc), 180),
        (lambda v, bd, disc: disc.gram.solve_mass0(v), 100),
        (lambda v, bd, disc: disc.gram.solve_mass1(v), 180),
        (lambda v, bd, disc: cc.BoundaryData(9, v), 36),
        (lambda v, bd, disc: equivalence_residual(
            cc.Solution(bd, v, np.zeros(180)), disc), 100),
        (lambda v, bd, disc: equivalence_residual(
            cc.Solution(bd, np.zeros(100), v), disc), 180),
        (lambda v, bd, disc: cc.error_norms(
            cc.Solution(bd, v, np.zeros(180)), cc.exponential_pair(), disc), 100),
        (lambda v, bd, disc: cc.error_norms(
            cc.Solution(bd, np.zeros(100), v), cc.exponential_pair(), disc), 180),
    ], ids=["norm_F", "norm_E", "reconstruct-nodal", "reconstruct-edge",
            "GramSet.solve_mass0", "GramSet.solve_mass1", "BoundaryData",
            "equivalence_residual-nodal", "equivalence_residual-edge",
            "error_norms-nodal", "error_norms-edge"])
    @pytest.mark.parametrize("shape", ["long", "grid", "column", "nan", "inf", "complex"])
    def test_bad_dof_vector(self, call, n, shape):
        # N=9 has 100 nodal, 180 edge and 36 loop dofs; a grid or a column
        # of the right size would reshape silently, one NaN or inf entry
        # would come back as a nan result, and a float cast of complex dofs
        # would drop their imaginary part
        disc = cc.Discretization(9)
        bd = cc.BoundaryData(9, np.zeros(36))
        v = {"long": np.zeros(n + 1), "grid": np.zeros((n // 10, 10)),
             "column": np.zeros((n, 1)), "nan": np.zeros(n), "inf": np.zeros(n),
             "complex": np.full(n, 1 + 2j)}[shape]
        message = rf"degree-9 .* length {n}$"
        if shape == "complex":
            message = "^dofs for the degree-9 discretization must be real, not complex$"
        if shape in ("nan", "inf"):
            v[n // 2] = float(shape)
            message = rf"^dofs for the degree-9 discretization must be finite, got {shape}$"
        with pytest.raises(ValueError, match=message):
            call(v, bd, disc)

    def test_error_norms_rejects_negative_boost(self, exact, solved):
        # a boost below 1 would under-integrate and shrink the errors
        _, _, sol = solved[9]
        for boost in (-5, 0):
            with pytest.raises(ValueError, match=f"^boost must be >= 1, got {boost}$"):
                cc.Discretization(9, boost=boost)
        assert all(np.isfinite(cc.error_norms(sol, exact, cc.Discretization(9, boost=1))))

    @pytest.mark.parametrize("missing", ["scalar", "vector_curl"])
    def test_error_norms_names_missing_part(self, exact, solved, missing):
        disc, _, sol = solved[3]
        parts = {"scalar": exact.scalar, "vector_curl": exact.vector_curl}
        parts[missing] = None
        field = cc.AnalyticField(Ex=exact.Ex, Ey=exact.Ey, **parts)
        with pytest.raises(ValueError, match=f"exact field's {missing}$"):
            cc.error_norms(sol, field, disc)
