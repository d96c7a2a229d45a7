import numpy as np
import pytest

from dualcurl.basis1d import (
    edge_eval,
    gauss_rule,
    gll_nodes,
    lagrange_deriv,
    lagrange_eval,
    legendre_eval,
)


class TestLegendre:
    def test_degree_zero(self):
        L, dL = legendre_eval(0, 0.37)
        assert L == 1.0 and dL == 0.0

    def test_quadratic_at_zero(self):
        L, dL = legendre_eval(2, 0.0)
        assert L == pytest.approx(-0.5, abs=1e-15)
        assert dL == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_values(self):
        # L_N(1) = 1, L_N'(1) = N(N+1)/2
        L, dL = legendre_eval(3, 1.0)
        assert L == pytest.approx(1.0, abs=1e-15)
        assert dL == pytest.approx(6.0, abs=1e-14)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            legendre_eval(-1, 0.0)


class TestGllNodes:
    def test_invalid_degree(self):
        for N in (0, -3):
            with pytest.raises(ValueError):
                gll_nodes(N)

    def test_degree_one(self):
        ns = gll_nodes(1)
        np.testing.assert_array_equal(ns.nodes, [-1.0, 1.0])
        np.testing.assert_allclose(ns.weights, [1.0, 1.0], atol=1e-15)

    def test_degree_two(self):
        ns = gll_nodes(2)
        np.testing.assert_allclose(ns.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(ns.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-14)

    def test_degree_three_interior(self):
        ns = gll_nodes(3)
        # roots of L_3'(x) = (15 x^2 - 3)/2
        np.testing.assert_allclose(
            ns.nodes[1:3], [-1 / np.sqrt(5), 1 / np.sqrt(5)], atol=1e-14
        )

    @pytest.mark.parametrize("N", range(1, 13))
    def test_invariants(self, N):
        ns = gll_nodes(N)
        assert ns.nodes[0] == -1.0 and ns.nodes[-1] == 1.0
        assert np.all(np.diff(ns.nodes) > 0)
        np.testing.assert_allclose(ns.nodes + ns.nodes[::-1], 0.0, atol=1e-14)
        assert np.all(ns.weights > 0)
        assert abs(ns.weights.sum() - 2.0) < 1e-13
        _, dL = legendre_eval(N, ns.nodes[1:-1])
        assert np.all(np.abs(dL) <= 1e-12)

    @pytest.mark.parametrize("N", range(1, 13))
    def test_quadrature_exactness(self, N):
        # GLL weights integrate polynomials of degree <= 2N-1 exactly
        ns = gll_nodes(N)
        for k in range(2 * N):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(ns.weights @ ns.nodes**k - exact) < 1e-12


class TestGaussRule:
    def test_invalid(self):
        with pytest.raises(ValueError):
            gauss_rule(0)

    def test_one_point(self):
        q = gauss_rule(1)
        np.testing.assert_allclose(q.points, [0.0], atol=1e-15)
        np.testing.assert_allclose(q.weights, [2.0], atol=1e-15)

    def test_two_points(self):
        q = gauss_rule(2)
        np.testing.assert_allclose(
            q.points, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15
        )
        np.testing.assert_allclose(q.weights, [1.0, 1.0], atol=1e-15)

    def test_quartic(self):
        q = gauss_rule(3)
        assert abs(q.weights @ q.points**4 - 2 / 5) < 1e-14

    @pytest.mark.parametrize("M", [1, 2, 4, 8])
    def test_exactness_and_sum(self, M):
        q = gauss_rule(M)
        assert abs(q.weights.sum() - 2.0) < 1e-13
        for k in range(2 * M):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(q.weights @ q.points**k - exact) < 1e-12


class TestLagrange:
    def test_node_hits_are_kronecker(self):
        ns = gll_nodes(5)
        H = lagrange_eval(ns, ns.nodes)
        np.testing.assert_array_equal(H, np.eye(6))

    def test_linear_midpoint(self):
        ns = gll_nodes(1)
        np.testing.assert_allclose(lagrange_eval(ns, 0.0), [0.5, 0.5], atol=1e-15)

    def test_quadratic_values(self):
        ns = gll_nodes(2)
        np.testing.assert_allclose(
            lagrange_eval(ns, 0.5), [-1 / 8, 3 / 4, 3 / 8], atol=1e-14
        )

    def test_partition_of_unity(self):
        ns = gll_nodes(7)
        x = np.linspace(-1, 1, 41)
        np.testing.assert_allclose(lagrange_eval(ns, x).sum(axis=0), 1.0, atol=1e-13)

    @pytest.mark.parametrize("N", [2, 5, 9])
    def test_interpolation_exactness(self, N):
        # degree-N polynomial data is reproduced exactly
        rng = np.random.default_rng(7)
        ns = gll_nodes(N)
        coeffs = rng.standard_normal(N + 1)
        x = rng.uniform(-1, 1, 50)
        p = np.polynomial.polynomial.polyval
        np.testing.assert_allclose(
            p(ns.nodes, coeffs) @ lagrange_eval(ns, x), p(x, coeffs), atol=1e-12
        )


class TestLagrangeDeriv:
    def test_linear(self):
        ns = gll_nodes(1)
        np.testing.assert_allclose(lagrange_deriv(ns, 0.3), [-0.5, 0.5], atol=1e-15)

    def test_quadratic_at_node(self):
        ns = gll_nodes(2)
        np.testing.assert_allclose(lagrange_deriv(ns, 0.0), [-0.5, 0.0, 0.5], atol=1e-14)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(3)
        ns = gll_nodes(6)
        x = rng.uniform(-1, 1, 20)
        np.testing.assert_allclose(lagrange_deriv(ns, x).sum(axis=0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_against_polynomial_derivative(self, N):
        rng = np.random.default_rng(11)
        ns = gll_nodes(N)
        coeffs = rng.standard_normal(N + 1)
        x = rng.uniform(-1, 1, 30)
        p = np.polynomial.polynomial
        np.testing.assert_allclose(
            p.polyval(ns.nodes, coeffs) @ lagrange_deriv(ns, x),
            p.polyval(x, p.polyder(coeffs)),
            atol=1e-11,
        )


class TestEdgeBasis:
    def test_degree_one_constant(self):
        ns = gll_nodes(1)
        for x in (-1.0, 0.2, 1.0):
            np.testing.assert_allclose(edge_eval(ns, x), [0.5], atol=1e-15)

    def test_degree_two_interval_integrals(self):
        ns = gll_nodes(2)
        q = gauss_rule(4)
        # e_1 integrates to 1 over [-1,0] and to 0 over [0,1]
        left = edge_eval(ns, 0.5 * q.points - 0.5)[0] @ q.weights * 0.5
        right = edge_eval(ns, 0.5 * q.points + 0.5)[0] @ q.weights * 0.5
        assert abs(left - 1.0) < 1e-13
        assert abs(right) < 1e-13

    def test_last_edge_equals_last_nodal_derivative(self):
        # e_N = -sum_{k<N} h_k' = h_N' because the h_k' sum to zero
        rng = np.random.default_rng(5)
        ns = gll_nodes(6)
        x = rng.uniform(-1, 1, 20)
        np.testing.assert_allclose(
            edge_eval(ns, x)[-1], lagrange_deriv(ns, x)[-1], atol=1e-12
        )

    @pytest.mark.parametrize("N", range(1, 13))
    def test_kronecker_integrals(self, N):
        ns = gll_nodes(N)
        q = gauss_rule(max(N, 2))
        table = np.zeros((N, N))
        for j in range(1, N + 1):
            a, b = ns.nodes[j - 1], ns.nodes[j]
            pts = 0.5 * (b - a) * q.points + 0.5 * (a + b)
            table[:, j - 1] = edge_eval(ns, pts) @ q.weights * 0.5 * (b - a)
        np.testing.assert_allclose(table, np.eye(N), atol=1e-12)

    @pytest.mark.parametrize("N", [3, 6, 9])
    def test_derivative_identity(self, N):
        # sum p_i h_i' == sum (p_i - p_{i-1}) e_i
        rng = np.random.default_rng(13)
        ns = gll_nodes(N)
        p = rng.standard_normal(N + 1)
        x = rng.uniform(-1, 1, 50)
        lhs = p @ lagrange_deriv(ns, x)
        rhs = np.diff(p) @ edge_eval(ns, x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
