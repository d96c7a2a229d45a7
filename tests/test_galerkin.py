import numpy as np
import pytest
from scipy.linalg import cho_factor

from dualcurl import galerkin
from dualcurl.basis1d import gauss_rule, gll_nodes
from dualcurl.galerkin import (
    GramSet,
    gram_nodal_1d,
    psi0_table,
    psi1_table,
    spd_solve,
)
from conftest import assemble_mass0_direct, psi0_dense, psi1_dense


def rule_cases(degrees):
    """(N, rule) cases for both quadrature rules; a "gauss" case is
    identified by its bare degree."""
    return [
        pytest.param(N, rule, id=str(N) if rule == "gauss" else f"{N}-{rule}")
        for rule in ("gauss", "lobatto")
        for N in degrees
    ]


class TestMass0:
    def test_n1_analytic_entries(self):
        # 1D Gram of the linear hats is [[2/3,1/3],[1/3,2/3]]
        G = gram_nodal_1d(gll_nodes(1))
        np.testing.assert_allclose(G, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-14)
        M0 = GramSet(1).M0
        assert M0[0, 0] == pytest.approx(4 / 9, abs=1e-14)
        # the exact rule keeps the off-diagonal coupling; a GLL-collocated
        # rule would lump it away
        assert M0[0, 1] == pytest.approx(2 / 9, abs=1e-14)
        assert GramSet(1, rule="lobatto").M0[0, 1] == 0.0

    @pytest.mark.parametrize("N", range(1, 9))
    def test_entry_sum_is_area(self, N):
        assert GramSet(N).M0.sum() == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_tensor_matches_direct_quadrature(self, N):
        np.testing.assert_allclose(
            GramSet(N).M0, assemble_mass0_direct(N), atol=1e-13
        )

    @pytest.mark.parametrize("N", range(1, 9))
    def test_symmetric_spd(self, N):
        M0 = GramSet(N).M0
        np.testing.assert_allclose(M0, M0.T, rtol=1e-13)
        cho_factor(M0)  # raises if not positive definite


class TestMass1:
    def test_n1_analytic_block(self):
        # e_1 = 1/2, so int e_1 e_1 = 1/2 and block 1 is that times the hat Gram
        M1 = GramSet(1).M1
        np.testing.assert_allclose(
            M1[:2, :2], 0.5 * np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]), atol=1e-14
        )

    @pytest.mark.parametrize("N", range(1, 9))
    def test_symmetric_spd_block_diagonal(self, N):
        M1 = GramSet(N).M1
        np.testing.assert_allclose(M1, M1.T, rtol=1e-13)
        cho_factor(M1)
        n = N * (N + 1)
        assert np.all(M1[:n, n:] == 0.0)
        assert np.all(M1[n:, :n] == 0.0)

    @pytest.mark.parametrize("N, rule", rule_cases([1, 3, 6]))
    def test_dual_is_inverse(self, N, rule):
        gs = GramSet(N, rule)
        np.testing.assert_allclose(
            gs.M1_dual @ gs.M1, np.eye(gs.M1.shape[0]), atol=1e-11
        )


class TestBoundaryMass:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_entry_sum_is_perimeter(self, N):
        assert GramSet(N).B0.sum() == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_symmetric_spd(self, N):
        B0 = GramSet(N).B0
        np.testing.assert_allclose(B0, B0.T, rtol=1e-13)
        cho_factor(B0)

    def test_n1_adjacent_corner_coupling(self):
        # adjacent corner hats share one side: int_{-1}^{1} h0 h1 = 1/3
        B0 = GramSet(1).B0
        assert B0[0, 1] == pytest.approx(1 / 3, abs=1e-14)
        # each corner hat spans two sides: diagonal is 2 * 2/3
        assert B0[0, 0] == pytest.approx(4 / 3, abs=1e-14)


class TestDualMass:
    @pytest.mark.parametrize("N, rule", rule_cases(range(1, 9)))
    def test_product_is_identity(self, N, rule):
        gs = GramSet(N, rule)
        np.testing.assert_allclose(
            gs.M2_dual @ gs.M0, np.eye(gs.M0.shape[0]), atol=1e-11
        )

    @pytest.mark.parametrize("N, rule", rule_cases(range(1, 9)))
    def test_symmetry(self, N, rule):
        Md = GramSet(N, rule).M2_dual
        np.testing.assert_allclose(Md, Md.T, rtol=1e-10)

    @pytest.mark.parametrize("N, rule", rule_cases(range(1, 13)))
    def test_factorization_through_degree_12(self, N, rule):
        gs = GramSet(N, rule)
        for M in (gs.M0, gs.M1):
            cho_factor(M)  # conditioning grows with N but stays factorizable


class TestMassSolve:
    @pytest.mark.parametrize("N, rule", rule_cases([1, 4, 12]))
    @pytest.mark.parametrize("cols", [(), (3,)], ids=["vector", "3-column"])
    def test_matches_dense_solve(self, N, rule, cols):
        gs = GramSet(N, rule)
        rng = np.random.default_rng(N)
        for solve, M in ((gs.solve_mass0, gs.M0), (gs.solve_mass1, gs.M1)):
            b = rng.standard_normal((M.shape[0],) + cols)
            x = solve(b)
            assert x.shape == b.shape
            np.testing.assert_allclose(x, np.linalg.solve(M, b), rtol=1e-10)

    @pytest.mark.parametrize("N, rule", rule_cases([1, 4, 12]))
    def test_factors_only_the_1d_grams(self, N, rule, monkeypatch):
        shapes = []

        def recording(A, *args, **kwargs):
            shapes.append(A.shape)
            return cho_factor(A, *args, **kwargs)

        monkeypatch.setattr(galerkin, "cho_factor", recording)
        GramSet(N, rule)
        assert sorted(shapes) == [(N, N), (N + 1, N + 1)]


class TestSpdSolve:
    def test_identity(self):
        b = np.arange(5.0)
        np.testing.assert_array_equal(spd_solve(np.eye(5), b), b)

    def test_constructed_solution(self):
        M0 = GramSet(2).M0
        ones = np.ones(9)
        np.testing.assert_allclose(spd_solve(M0, M0 @ ones), ones, atol=1e-12)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            R = rng.standard_normal((10, 10))
            A = R @ R.T + 10 * np.eye(10)
            b = rng.standard_normal(10)
            x = spd_solve(A, b)
            assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12

    def test_non_spd_rejected(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(np.linalg.LinAlgError):
            spd_solve(A, np.ones(2))


class TestBiorthogonality:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_dual_volume_vs_primal_nodal(self, N):
        ns = gll_nodes(N)
        gram = GramSet(N, rule="gauss")
        q = gauss_rule(N + 1)
        X, Y = np.meshgrid(q.points, q.points, indexing="ij")
        w2 = np.outer(q.weights, q.weights).ravel()
        P0 = psi0_dense(ns, X.ravel(), Y.ravel())
        D0 = gram.solve_mass0(P0)
        np.testing.assert_allclose(
            (D0 * w2) @ P0.T, np.eye(P0.shape[0]), atol=1e-12
        )

    @pytest.mark.parametrize("N", range(1, 9))
    def test_dual_edge_vs_primal_edge(self, N):
        ns = gll_nodes(N)
        gram = GramSet(N, rule="gauss")
        q = gauss_rule(N + 1)
        X, Y = np.meshgrid(q.points, q.points, indexing="ij")
        w2 = np.outer(q.weights, q.weights).ravel()
        Vxi, Veta = psi1_dense(ns, X.ravel(), Y.ravel())
        Dxi, Deta = gram.solve_mass1(Vxi), gram.solve_mass1(Veta)
        prod = (Dxi * w2) @ Vxi.T + (Deta * w2) @ Veta.T
        np.testing.assert_allclose(prod, np.eye(Vxi.shape[0]), atol=1e-12)


class TestFactorTables:
    # a scalar x would otherwise broadcast against a vector y, and a 2D
    # grid whose size matches N+1 would contract to wrong values
    @pytest.mark.parametrize("table", [psi0_table, psi1_table])
    @pytest.mark.parametrize("x, y, shapes", [
        (0.5, [0.1, 0.2, 0.3], r"\(1,\) and \(3,\)"),
        (np.zeros((3, 3)), np.zeros((3, 3)), r"\(3, 3\) and \(3, 3\)"),
    ], ids=["scalar-vector", "grid"])
    def test_bad_points_rejected(self, table, x, y, shapes):
        with pytest.raises(ValueError, match=r"x and y .*" + shapes):
            table(gll_nodes(2), x, y)


def test_gramset_lobatto_lumps_nodal_mass():
    gs = GramSet(3, rule="lobatto")
    assert np.count_nonzero(gs.M0 - np.diag(np.diag(gs.M0))) == 0
    assert gs.M0.sum() == pytest.approx(4.0, abs=1e-12)
