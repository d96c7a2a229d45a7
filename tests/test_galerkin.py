import numpy as np
import pytest
from scipy.linalg import cho_factor

from dualcurl.basis1d import gauss_rule, gll_nodes
from dualcurl.galerkin import (
    GramSet,
    assemble_mass0,
    assemble_mass1,
    assemble_boundary_mass,
    gram_nodal_1d,
    psi0_table,
    psi1_table,
    spd_solve,
)
from conftest import assemble_mass0_direct


class TestMass0:
    def test_n1_analytic_entries(self):
        # 1D Gram of the linear hats is [[2/3,1/3],[1/3,2/3]]
        G = gram_nodal_1d(gll_nodes(1))
        np.testing.assert_allclose(G, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-14)
        M0 = assemble_mass0(1)
        assert M0[0, 0] == pytest.approx(4 / 9, abs=1e-14)
        # the exact rule keeps the off-diagonal coupling; a GLL-collocated
        # rule would lump it away
        assert M0[0, 1] == pytest.approx(2 / 9, abs=1e-14)
        assert assemble_mass0(1, rule="lobatto")[0, 1] == 0.0

    @pytest.mark.parametrize("N", range(1, 9))
    def test_entry_sum_is_area(self, N):
        assert assemble_mass0(N).sum() == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_tensor_matches_direct_quadrature(self, N):
        np.testing.assert_allclose(
            assemble_mass0(N), assemble_mass0_direct(N), atol=1e-13
        )

    @pytest.mark.parametrize("N", range(1, 9))
    def test_symmetric_spd(self, N):
        M0 = assemble_mass0(N)
        np.testing.assert_allclose(M0, M0.T, rtol=1e-13)
        cho_factor(M0)  # raises if not positive definite


class TestMass1:
    def test_n1_analytic_block(self):
        # e_1 = 1/2, so int e_1 e_1 = 1/2 and block 1 is that times the hat Gram
        M1 = assemble_mass1(1)
        np.testing.assert_allclose(
            M1[:2, :2], 0.5 * np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]), atol=1e-14
        )

    @pytest.mark.parametrize("N", range(1, 9))
    def test_symmetric_spd_block_diagonal(self, N):
        M1 = assemble_mass1(N)
        np.testing.assert_allclose(M1, M1.T, rtol=1e-13)
        cho_factor(M1)
        n = N * (N + 1)
        assert np.all(M1[:n, n:] == 0.0)
        assert np.all(M1[n:, :n] == 0.0)

    @pytest.mark.parametrize("N", [1, 3, 6])
    def test_dual_is_inverse(self, N):
        gs = GramSet(N, rule="gauss")
        np.testing.assert_allclose(
            gs.M1_dual @ gs.M1, np.eye(gs.M1.shape[0]), atol=1e-11
        )


class TestBoundaryMass:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_entry_sum_is_perimeter(self, N):
        assert assemble_boundary_mass(N).sum() == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_symmetric_spd(self, N):
        B0 = assemble_boundary_mass(N)
        np.testing.assert_allclose(B0, B0.T, rtol=1e-13)
        cho_factor(B0)

    def test_n1_adjacent_corner_coupling(self):
        # adjacent corner hats share one side: int_{-1}^{1} h0 h1 = 1/3
        B0 = assemble_boundary_mass(1)
        assert B0[0, 1] == pytest.approx(1 / 3, abs=1e-14)
        # each corner hat spans two sides: diagonal is 2 * 2/3
        assert B0[0, 0] == pytest.approx(4 / 3, abs=1e-14)


class TestDualMass:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_product_is_identity(self, N):
        gs = GramSet(N, rule="gauss")
        np.testing.assert_allclose(
            gs.M2_dual @ gs.M0, np.eye(gs.M0.shape[0]), atol=1e-11
        )

    @pytest.mark.parametrize("N", range(1, 9))
    def test_symmetry(self, N):
        Md = GramSet(N, rule="gauss").M2_dual
        np.testing.assert_allclose(Md, Md.T, rtol=1e-10)

    @pytest.mark.parametrize("N", range(1, 13))
    def test_factorization_through_degree_12(self, N):
        for M in (assemble_mass0(N), assemble_mass1(N)):
            cho_factor(M)  # conditioning grows with N but stays factorizable


class TestSpdSolve:
    def test_identity(self):
        b = np.arange(5.0)
        np.testing.assert_array_equal(spd_solve(np.eye(5), b), b)

    def test_constructed_solution(self):
        M0 = assemble_mass0(2)
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
        P0 = psi0_table(ns, X.ravel(), Y.ravel())
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
        Vxi, Veta = psi1_table(ns, X.ravel(), Y.ravel())
        Dxi, Deta = gram.solve_mass1(Vxi), gram.solve_mass1(Veta)
        prod = (Dxi * w2) @ Vxi.T + (Deta * w2) @ Veta.T
        np.testing.assert_allclose(prod, np.eye(Vxi.shape[0]), atol=1e-12)


def test_gramset_lobatto_lumps_nodal_mass():
    gs = GramSet(3, rule="lobatto")
    assert np.count_nonzero(gs.M0 - np.diag(np.diag(gs.M0))) == 0
    assert gs.M0.sum() == pytest.approx(4.0, abs=1e-12)
