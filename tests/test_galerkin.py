import inspect
import re

import numpy as np
import pytest

from dualcurl import curlcurl as cc
from dualcurl import galerkin
from dualcurl.basis1d import edge_eval, gauss_rule, gll_nodes
from dualcurl.galerkin import GramSet, assemble_mass0, _inverse_factor
from conftest import assemble_mass0_direct, exact_nodal_gram, psi0_dense, psi1_dense


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
        G = GramSet(1, "gauss").Gh
        np.testing.assert_allclose(G, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-14)
        M0 = assemble_mass0(G)
        assert M0[0, 0] == pytest.approx(4 / 9, abs=1e-14)
        # the exact rule keeps the off-diagonal coupling; a GLL-collocated
        # rule would lump it away
        assert M0[0, 1] == pytest.approx(2 / 9, abs=1e-14)
        assert assemble_mass0(GramSet(1, rule="lobatto").Gh)[0, 1] == 0.0

    @pytest.mark.parametrize("N", range(1, 9))
    def test_entry_sum_is_area(self, N):
        assert assemble_mass0(GramSet(N, "gauss").Gh).sum() == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_tensor_matches_direct_quadrature(self, N):
        np.testing.assert_allclose(
            assemble_mass0(GramSet(N, "gauss").Gh), assemble_mass0_direct(N), atol=1e-13
        )

    @pytest.mark.parametrize("N", range(1, 9))
    def test_symmetric_spd(self, N):
        M0 = assemble_mass0(GramSet(N, "gauss").Gh)
        np.testing.assert_allclose(M0, M0.T, rtol=1e-13)
        np.linalg.cholesky(M0)  # raises if not positive definite


class TestMass1:
    def test_n1_analytic_block(self):
        # e_1 = 1/2, so int e_1 e_1 = 1/2 and block 1 is that times the hat Gram
        M1 = GramSet(1, "gauss").M1.toarray()
        np.testing.assert_allclose(
            M1[:2, :2], 0.5 * np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]), atol=1e-14
        )

    @pytest.mark.parametrize("N", range(1, 9))
    def test_symmetric_spd_block_diagonal(self, N):
        M1 = GramSet(N, "gauss").M1.toarray()
        np.testing.assert_allclose(M1, M1.T, rtol=1e-13)
        np.linalg.cholesky(M1)
        n = N * (N + 1)
        assert np.all(M1[:n, n:] == 0.0)
        assert np.all(M1[n:, :n] == 0.0)

    @pytest.mark.parametrize("N, rule", rule_cases(range(1, 13)))
    def test_blocks_are_kronecker_products(self, N, rule):
        # each sparse entry is one product of 1D entries, so the blocks of
        # M1 and inv(M1) equal np.kron exactly; under "lobatto" only Gh's
        # diagonal is stored
        gs = GramSet(N, rule)
        n = N * (N + 1)
        for M, Gh, Ge in ((gs.M1, gs.Gh, gs.Ge), (gs.M1_dual, gs.Gh_inv, gs.Ge_inv)):
            dense = M.toarray()
            np.testing.assert_array_equal(dense[:n, :n], np.kron(Ge, Gh))
            np.testing.assert_array_equal(dense[n:, n:], np.kron(Gh, Ge))
            if rule == "lobatto":
                assert M.nnz == 2 * N**2 * (N + 1)

    @pytest.mark.parametrize("N, rule", rule_cases([1, 3, 6]))
    def test_dual_is_inverse(self, N, rule):
        gs = GramSet(N, rule)
        np.testing.assert_allclose(
            gs.M1_dual.toarray() @ gs.M1.toarray(), np.eye(gs.M1.shape[0]), atol=1e-11
        )


class TestDualMass:
    @pytest.mark.parametrize("N, rule", rule_cases(range(1, 9)))
    def test_product_is_identity(self, N, rule):
        gs = GramSet(N, rule)
        M0 = assemble_mass0(gs.Gh)
        np.testing.assert_allclose(gs.M2_dual @ M0, np.eye(M0.shape[0]), atol=1e-11)

    @pytest.mark.parametrize("N, rule", rule_cases(range(1, 9)))
    def test_symmetry(self, N, rule):
        Md = GramSet(N, rule).M2_dual
        np.testing.assert_allclose(Md, Md.T, rtol=1e-10)

    @pytest.mark.parametrize("N, rule", rule_cases(range(1, 13)))
    def test_factorization_through_degree_12(self, N, rule):
        gs = GramSet(N, rule)
        for M in (assemble_mass0(gs.Gh), gs.M1.toarray()):
            np.linalg.cholesky(M)  # conditioning grows with N but stays factorizable


class TestMassSolve:
    @pytest.mark.parametrize("N, rule", rule_cases([1, 4, 12]))
    @pytest.mark.parametrize("cols", [()], ids=["vector"])  # a block is rejected below
    def test_matches_dense_solve(self, N, rule, cols):
        gs = GramSet(N, rule)
        rng = np.random.default_rng(N)
        for solve, M in ((gs.solve_mass0, assemble_mass0(gs.Gh)),
                         (gs.solve_mass1, gs.M1.toarray())):
            b = rng.standard_normal((M.shape[0],) + cols)
            x = solve(b)
            assert x.shape == b.shape
            np.testing.assert_allclose(x, np.linalg.solve(M, b), rtol=1e-10)

    @pytest.mark.parametrize("N, rule", rule_cases([1, 4, 12]))
    def test_factors_only_the_1d_grams(self, N, rule, monkeypatch):
        shapes = []
        cholesky = galerkin.np.linalg.cholesky

        def recording(A, *args, **kwargs):
            shapes.append(A.shape)
            return cholesky(A, *args, **kwargs)

        monkeypatch.setattr(galerkin.np.linalg, "cholesky", recording)
        GramSet(N, rule)
        assert shapes == [(N, N)]  # Ge only: Gh's inverse factor is a closed form

    @pytest.mark.parametrize("method, n, bad", [
        ("solve_mass0", 16, (15,)),
        ("solve_mass0", 16, (4, 4)),
        ("solve_mass0", 16, (16, 3)),
        ("solve_mass1", 24, (23,)),
        ("solve_mass1", 24, (4, 4)),
        ("solve_mass1", 24, (24, 3)),
    ], ids=["mass0-odd", "mass0-grid", "mass0-block",
            "mass1-odd", "mass1-grid", "mass1-block"])
    def test_bad_shape_rejected(self, method, n, bad):
        # N=3 has n = 16 nodal and 24 edge dofs; a node grid read as one
        # column would be solved silently, and a solve takes one vector,
        # not a block of columns
        with pytest.raises(ValueError, match=rf"{re.escape(str(bad))} .*degree-3 .* length {n}$"):
            getattr(GramSet(3, "gauss"), method)(np.zeros(bad))


class TestInverseFactor:
    """inv(L) of B = L L^T: inv(B) b = Li^T (Li b)."""

    @staticmethod
    def solve(A, b):
        Li = _inverse_factor(A)
        return Li.T @ (Li @ b)

    def test_identity(self):
        b = np.arange(5.0)
        np.testing.assert_array_equal(_inverse_factor(np.eye(5)), np.eye(5))
        np.testing.assert_array_equal(self.solve(np.eye(5), b), b)

    def test_constructed_solution(self):
        M0 = assemble_mass0(GramSet(2, "gauss").Gh)
        ones = np.ones(9)
        np.testing.assert_allclose(self.solve(M0, M0 @ ones), ones, atol=1e-12)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            R = rng.standard_normal((10, 10))
            A = R @ R.T + 10 * np.eye(10)
            b = rng.standard_normal(10)
            x = self.solve(A, b)
            assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12

    def test_non_spd_rejected(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(np.linalg.LinAlgError):
            _inverse_factor(A)


class TestNodalGram:
    """Gh = diag(w) - c v v^T, v_i = w_i L_N(x_i): the rule picks only c,
    N(N+1)/(2(2N+1)) for "gauss" and 0 for "lobatto"; bounds fixed before
    the first run."""

    @pytest.mark.parametrize("N", [*range(1, 41), 64, 128, 256])
    def test_exact_gram_matches_quadrature(self, N):
        gram = GramSet(N, "gauss")
        ref = exact_nodal_gram(gram.nodes)
        assert np.abs(gram.Gh - ref).max() <= 2e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("N, rule", rule_cases([1, 2, 3, 9, 16, 40, 64, 128, 256]))
    def test_inverse_factor_whitens_the_gram(self, N, rule):
        gram = GramSet(N, rule)
        gap = np.abs(gram.Lh @ gram.Gh @ gram.Lh.T - np.eye(N + 1)).max()
        assert gap <= N * 1e-15

    @pytest.mark.parametrize("N", [*range(1, 13), 40])
    def test_lobatto_is_the_lump(self, N):
        # c = 0 leaves the lumped Gram and its diagonal factor, bit for bit
        gram = GramSet(N, "lobatto")
        w = gram.nodes.weights
        assert np.array_equal(gram.Gh, np.diag(w))
        assert np.array_equal(gram.Lh, np.diag(1 / np.sqrt(w)))


class TestBiorthogonality:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_dual_volume_vs_primal_nodal(self, N):
        ns = gll_nodes(N)
        gram = GramSet(N, rule="gauss")
        q = gauss_rule(N + 1)
        X, Y = np.meshgrid(q.points, q.points, indexing="ij")
        w2 = np.outer(q.weights, q.weights).ravel()
        P0 = psi0_dense(ns, X.ravel(), Y.ravel())
        D0 = np.column_stack([gram.solve_mass0(c) for c in P0.T])
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
        Dxi, Deta = (np.column_stack([gram.solve_mass1(c) for c in V.T])
                     for V in (Vxi, Veta))
        prod = (Dxi * w2) @ Vxi.T + (Deta * w2) @ Veta.T
        np.testing.assert_allclose(prod, np.eye(Vxi.shape[0]), atol=1e-12)


class TestFactorTables:
    # x and y are the two axes of a tensor grid on which `reconstruct`
    # evaluates the 1D tables; a 2D array for either, whose size may match
    # N+1, would contract to wrong values
    @pytest.mark.parametrize("kind", ["primal-scalar", "dual-vector"])
    @pytest.mark.parametrize("x, y, shapes", [
        (np.zeros(3), np.zeros((3, 3)), r"\(3,\) and \(3, 3\)"),
        (np.zeros((3, 3)), np.zeros((3, 3)), r"\(3, 3\) and \(3, 3\)"),
    ], ids=["vector-grid", "grid"])
    def test_bad_points_rejected(self, kind, x, y, shapes):
        dofs = np.ones(12 if kind == "dual-vector" else 9)  # N=2
        with pytest.raises(ValueError, match=r"x and y .*" + shapes):
            cc.reconstruct(kind, dofs, x, y, cc.Discretization(2))


def test_gramset_lobatto_lumps_nodal_mass():
    M0 = assemble_mass0(GramSet(3, rule="lobatto").Gh)
    assert np.count_nonzero(M0 - np.diag(np.diag(M0))) == 0
    assert M0.sum() == pytest.approx(4.0, abs=1e-12)


def test_edge_gram_is_the_same_under_either_rule():
    # edge x edge has degree 2N-2: the GLL nodes integrate it exactly, and
    # the quadrature rule picks only the nodal Gram
    for N in range(1, 41):
        np.testing.assert_array_equal(GramSet(N, "gauss").Ge, GramSet(N, "lobatto").Ge)


@pytest.mark.parametrize("N", [1, 2, 5, 12, 32, 33, 40, 64])
def test_edge_gram_matches_the_evaluated_edge_table(N):
    # -cumsum(Dn^T)[:-1] is the edge table at the nodes, bit for bit
    gram = GramSet(N, "gauss")
    ns = gram.nodes
    E = edge_eval(ns, ns.nodes)
    assert np.array_equal(gram.Ge, (E * ns.weights) @ E.T)


@pytest.mark.parametrize("make", [GramSet, cc.Discretization], ids=["GramSet", "Discretization"])
def test_unknown_rule_rejected(make):
    with pytest.raises(ValueError, match=r"^unknown quadrature rule 'simpson'$"):
        make(3, "simpson")


def test_options_fail_before_set_up(monkeypatch):
    # a bad rule or boost raises its own error before any node set is computed,
    # so it costs the same at N=1500 as at N=3
    def unreachable(degree):
        raise AssertionError("set-up ran before the options were checked")

    monkeypatch.setattr(galerkin, "gll_nodes", unreachable)
    for make in (GramSet, cc.Discretization):
        with pytest.raises(ValueError, match=r"^unknown quadrature rule 'simpson'$"):
            make(3, "simpson")
    with pytest.raises(ValueError, match=r"^boost must be >= 1, got 0$"):
        cc.Discretization(3, boost=0)


def test_one_rule_default():
    # the collocated rule of the published norm table; a GramSet is always told,
    # and solve_degree reads both options from the Discretization it is handed
    assert cc.Discretization(3).gram.rule == "lobatto"
    with pytest.raises(TypeError):
        GramSet(3)
    assert list(inspect.signature(cc.solve_degree).parameters) == ["field", "disc"]
