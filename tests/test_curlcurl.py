import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualcurl import curlcurl as cc
from dualcurl import galerkin
from dualcurl.basis1d import gauss_rule, gll_nodes
from dualcurl.cli import equivalence_residual, norm_gap
from conftest import (
    dirichlet_system, neumann_system, psi0_dense, psi1_dense, random_vector_field)


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


class TestBoundaryProjection:
    def test_zero_field(self):
        zero = cc.AnalyticField(Ex=lambda x, y: 0.0 * x, Ey=lambda x, y: 0.0 * x)
        bd = cc.project_boundary_data(zero, cc.Discretization(4))
        np.testing.assert_array_equal(bd.dofs, np.zeros(16))

    def test_unit_trace_corner_dofs(self):
        # with n x E == 1 everywhere, each N=1 corner hat integrates to
        # 1 over each of its two supporting sides
        class UnitTrace:
            def tangential_trace(self, side, x, y):
                return np.ones_like(x)

        bd = cc.project_boundary_data(UnitTrace(), cc.Discretization(1))
        np.testing.assert_allclose(bd.dofs, 2.0 * np.ones(4), atol=1e-13)

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
        X, Y = np.meshgrid(g, g, indexing="ij")
        Ex, Ey = cc.reconstruct("dual-vector", sol.dirichlet, X.ravel(), Y.ravel(), disc)
        Cx, Cy = cc.reconstruct("primal-curl", sol.neumann, X.ravel(), Y.ravel(), disc)
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


class TestOperators:
    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    @pytest.mark.parametrize("N", range(1, 13))
    def test_kronecker_forms_match_dense_definitions(self, monkeypatch, rng, N, rule):
        # the solvers build both systems from the 1D factors; the dense
        # products of the 2D matrices are the oracle
        systems = []

        def capturing(A, b):
            systems.append((A, b))
            return galerkin.spd_solve(A, b)

        monkeypatch.setattr(cc, "spd_solve", capturing)
        disc = cc.Discretization(N, rule)
        bd = cc.project_boundary_data(random_vector_field(rng), disc)
        cc.solve_neumann(bd, disc)
        cc.solve_dirichlet(bd, disc)
        I = np.eye(N + 1)
        np.testing.assert_array_equal(
            disc.E10, np.vstack([np.kron(disc.D, I), -np.kron(I, disc.D)])
        )
        assert len(systems) == 2
        refs = (neumann_system(disc, bd), dirichlet_system(disc, bd))
        for (A, b), (A_ref, b_ref) in zip(systems, refs):
            assert np.abs(A - A_ref).max() <= 1e-13 * np.abs(A_ref).max()
            assert np.abs(b - b_ref).max() <= 1e-13 * np.abs(b_ref).max()


class TestWeakCurl:
    def test_zero(self):
        disc = cc.Discretization(2)
        bd = cc.BoundaryData(2, np.zeros(8))
        np.testing.assert_array_equal(
            cc.weak_curl(np.zeros(12), bd, disc), np.zeros(9)
        )

    def test_dimension_mismatch(self):
        disc = cc.Discretization(2)
        bd = cc.BoundaryData(2, np.zeros(8))
        with pytest.raises(ValueError):
            cc.weak_curl(np.zeros(10), bd, disc)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 20), st.sampled_from(["gauss", "lobatto"]),
           st.integers(0, 2**32 - 1))
    def test_linearity(self, N, rule, seed):
        rng = np.random.default_rng(seed)
        disc = cc.Discretization(N, rule)
        bd = cc.BoundaryData(N, rng.standard_normal(4 * N))
        e1 = rng.standard_normal(2 * N * (N + 1))
        e2 = rng.standard_normal(2 * N * (N + 1))
        lhs = cc.weak_curl(2.0 * e1 + 3.0 * e2, bd, disc)
        rhs = (
            2.0 * cc.weak_curl(e1, bd, disc)
            + 3.0 * cc.weak_curl(e2, bd, disc)
            - 4.0 * (disc.T.T @ bd.dofs)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_approximates_negated_scalar(self, exact, solved, rng):
        # curl E = -F for this problem; the reconstruction converges fast
        x = rng.uniform(-0.95, 0.95, 200)
        y = rng.uniform(-0.95, 0.95, 200)
        prev = None
        for N in (3, 6, 9):
            disc, bd, sol = solved[N]
            w = cc.weak_curl(sol.dirichlet, bd, disc)
            vals = cc.reconstruct("dual-weak-curl", w, x, y, disc)
            err = np.max(np.abs(vals - (-exact.scalar(x, y))))
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
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cc.reconstruct("mystery", np.zeros(9), 0.0, 0.0, cc.Discretization(2))

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
        np.testing.assert_allclose(
            cc.reconstruct("primal-scalar", dofs, x, y, disc), p(x, y), atol=1e-12
        )

    @pytest.mark.parametrize("rule", ["lobatto", "gauss"])
    def test_dual_vector_matches_primal_expansion(self, rng, rule):
        # every kind against the (dofs x points) oracle tables: dofs M1 e
        # and M0 f expand in the dual bases to the same fields as the
        # primal expansions of e and f; only "gauss" has a dense M0
        x = rng.uniform(-1, 1, 40)
        y = rng.uniform(-1, 1, 40)
        for N in (1, 2, 5, 12, 20):
            disc = cc.Discretization(N, rule=rule)
            e = rng.standard_normal(2 * N * (N + 1))
            f = rng.standard_normal((N + 1) ** 2)
            P0 = psi0_dense(disc.nodes, x, y)
            Vxi, Veta = psi1_dense(disc.nodes, x, y)
            cases = [
                ("primal-scalar", f, [f @ P0]),
                ("primal-curl", f, [(disc.E10 @ f) @ Vxi, (disc.E10 @ f) @ Veta]),
                ("dual-vector", disc.gram.M1 @ e, [e @ Vxi, e @ Veta]),
                ("dual-weak-curl", disc.gram.M0 @ f, [f @ P0]),
            ]
            for kind, dofs, refs in cases:
                got = np.atleast_2d(cc.reconstruct(kind, dofs, x, y, disc))
                for g, ref in zip(got, refs, strict=True):
                    # 1e-12 both absolute and relative to the field
                    tol = 1e-12 * min(1.0, np.abs(ref).max())
                    assert np.abs(g - ref).max() <= tol, (N, kind)

    def test_pointwise_identity_interior_grid(self, solved):
        # E^h and curl F^h agree to machine precision on an interior grid
        disc, _, sol = solved[3]
        g = gauss_rule(30).points
        X, Y = np.meshgrid(g, g, indexing="ij")
        Ex, Ey = cc.reconstruct("dual-vector", sol.dirichlet, X.ravel(), Y.ravel(), disc)
        Cx, Cy = cc.reconstruct("primal-curl", sol.neumann, X.ravel(), Y.ravel(), disc)
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
            degree=N,
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


class TestInputChecks:
    def test_degree_mismatch(self):
        disc = cc.Discretization(4)
        bd = cc.BoundaryData(3, np.zeros(12))
        for call in (
            lambda: cc.solve_neumann(bd, disc),
            lambda: cc.solve_dirichlet(bd, disc),
            lambda: cc.weak_curl(np.zeros(40), bd, disc),
        ):
            with pytest.raises(ValueError, match="degree 3 .* degree-4 discretization"):
                call()

    def test_non_finite_boundary_data(self):
        disc = cc.Discretization(3)
        dofs = np.zeros(12)
        dofs[5] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            cc.solve_both(cc.BoundaryData(3, dofs), disc)

    @pytest.mark.parametrize("missing", ["scalar", "vector_curl"])
    def test_error_norms_names_missing_part(self, exact, solved, missing):
        disc, _, sol = solved[3]
        parts = {"scalar": exact.scalar, "vector_curl": exact.vector_curl}
        parts[missing] = None
        field = cc.AnalyticField(Ex=exact.Ex, Ey=exact.Ey, **parts)
        with pytest.raises(ValueError, match=f"exact field's {missing}$"):
            cc.error_norms(sol, field, disc)
