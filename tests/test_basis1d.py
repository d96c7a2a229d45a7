import numpy as np
import pytest

from dualcurl import basis1d
from dualcurl.basis1d import _legendre, edge_eval, gauss_rule, gll_nodes, lagrange_eval


def _uniform(degrees):
    """Cases of uniformly random points, with the test id N."""
    return [pytest.param(N, None, id=str(N)) for N in degrees]


# every node's neighbours at distance delta, where a derivative formula
# that divides by x - x_k cancels
NEAR_NODES = [pytest.param(N, delta, id=f"{N}-near{delta:.0e}")
              for N in (4, 8, 16) for delta in (1e-3, 1e-6, 1e-9, 1e-12)]


def _points(ns, delta, rng, m):
    """m uniform points, or with `delta` the points x_j - delta, x_j + delta
    inside [-1, 1]."""
    if delta is None:
        return rng.uniform(-1, 1, m)
    return np.concatenate([ns.nodes[1:] - delta, ns.nodes[:-1] + delta])


def _assert_close(got, expected, delta, atol):
    """The random points keep their absolute bound; the near-node points
    are held to 1e-13 relative to the largest expected value."""
    if delta is None:
        np.testing.assert_allclose(got, expected, atol=atol)
    else:
        err = np.abs(got - expected).max() / np.abs(expected).max()
        assert err <= 1e-13, err


def _deriv(ns, x):
    """h_i'(x) = sum_j h_j(x) Dn[j, i], exact because h_i' has degree N-1:
    the nodal derivatives through `ns.deriv`, (N+1,) or (N+1, M)."""
    return ns.deriv.T @ lagrange_eval(ns, x)


def _legendre_longdouble(N, x):
    """(L_N(x), L_N'(x)) by the three-term recurrence in the dtype of x."""
    Lm, L = np.ones_like(x), x.copy()
    dLm, dL = np.zeros_like(x), np.ones_like(x)
    for k in range(1, N):
        Lm, L = L, ((2 * k + 1) * x * L - k * Lm) / (k + 1)
        dLm, dL = dL, dLm + (2 * k + 1) * Lm
    return L, dL


class TestLegendre:
    def test_quadratic_at_zero(self):
        L, dL = _legendre(2, 0.0)
        assert L == pytest.approx(-0.5, abs=1e-15)
        assert dL == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_values(self):
        # L_N(1) = 1, L_N'(1) = N(N+1)/2
        L, dL = _legendre(3, 1.0)
        assert L == pytest.approx(1.0, abs=1e-15)
        assert dL == pytest.approx(6.0, abs=1e-14)


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
        _, dL = _legendre(N, ns.nodes[1:-1])
        assert np.all(np.abs(dL) <= 1e-12)

    def test_weights_hold_at_degree_1024(self):
        rng = np.random.default_rng(17)
        ns = gll_nodes(1024)
        coeffs = rng.standard_normal(4)
        x = rng.uniform(-1, 1, 50)
        p = np.polynomial.polynomial.polyval
        np.testing.assert_allclose(
            p(ns.nodes, coeffs) @ lagrange_eval(ns, x), p(x, coeffs), atol=1e-12
        )

    def test_no_degree_ceiling(self):
        # weights from L_N have no product over the node gaps to overflow
        rng = np.random.default_rng(19)
        ns = gll_nodes(1200)
        assert np.all(np.isfinite(ns.bary)) and np.all(np.isfinite(ns.deriv))
        assert np.all(np.diff(ns.nodes) > 0)
        assert abs(ns.weights.sum() - 2.0) < 1e-13
        coeffs = rng.standard_normal(4)
        x = rng.uniform(-1, 1, 50)
        p = np.polynomial.polynomial.polyval
        np.testing.assert_allclose(
            p(ns.nodes, coeffs) @ lagrange_eval(ns, x), p(x, coeffs), atol=1e-12
        )

    @pytest.mark.parametrize("N", [16, 64, 256, 1024])
    def test_interior_nodes_converged(self, N):
        # the Newton correction L'/L'' left at each root of L_N', with L''
        # from the Legendre ODE, is below one unit roundoff
        x = gll_nodes(N).nodes[1:-1]
        L, dL = _legendre(N, x)
        step = dL * (1.0 - x * x) / (2.0 * x * dL - N * (N + 1) * L)
        assert np.max(np.abs(step)) <= np.finfo(float).eps

    def test_one_legendre_evaluation(self, monkeypatch):
        # at the eigenvalues, for the Newton step; the weights take L_N at
        # the polished nodes from the same values by Taylor expansion
        calls = []

        def counted(N, x):
            calls.append(N)
            return _legendre(N, x)

        monkeypatch.setattr(basis1d, "_legendre", counted)
        gll_nodes(40)
        assert calls == [40]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="longdouble carries no more precision than float64")
    @pytest.mark.parametrize("N", [16, 40, 64, 128, 256])
    def test_matches_extended_precision_reference(self, N):
        # reference: three Newton steps on the roots of L_N' and the weights
        # 2 / (N(N+1) L_N^2), all in extended precision
        ns = gll_nodes(N)
        x = ns.nodes[1:-1].astype(np.longdouble)
        for _ in range(3):
            L, dL = _legendre_longdouble(N, x)
            x -= dL * (1 - x * x) / (2 * x * dL - N * (N + 1) * L)
        x = np.concatenate([[-1], x, [1]]).astype(np.longdouble)
        L, _ = _legendre_longdouble(N, x)
        w = 2 / (N * (N + 1) * L * L)
        assert np.max(np.abs(ns.nodes - x)) <= 2e-16
        assert np.max(np.abs(ns.weights / w - 1)) <= N * 1e-15
        assert np.array_equal(ns.weights, ns.weights[::-1])

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

    def test_sizes_are_shared_and_read_only(self):
        a, b = gauss_rule(7), gauss_rule(7)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert not a.points.flags.writeable and not a.weights.flags.writeable

    @pytest.mark.parametrize("M", [1, 2, 4, 8])
    def test_exactness_and_sum(self, M):
        q = gauss_rule(M)
        assert abs(q.weights.sum() - 2.0) < 1e-13
        for k in range(2 * M):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(q.weights @ q.points**k - exact) < 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="longdouble carries no more precision than float64")
    @pytest.mark.parametrize("M", [*range(1, 10), 16, 24, 31, 47, 55, 64, 128, 271])
    def test_matches_extended_precision_reference(self, M):
        # reference: three Newton steps on the roots of L_M and the weights
        # 2 / ((1 - x^2) L_M'^2), all in extended precision
        q = gauss_rule(M)
        x = q.points.astype(np.longdouble)
        for _ in range(3):
            L, dL = _legendre_longdouble(M, x)
            x -= L / dL
        _, dL = _legendre_longdouble(M, x)
        w = 2 / ((1 - x * x) * dL * dL)
        assert np.max(np.abs(q.points - x)) <= 2e-16
        assert np.max(np.abs(q.weights / w - 1)) <= 32 * M * np.finfo(float).eps


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
        np.testing.assert_allclose(_deriv(ns, 0.3), [-0.5, 0.5], atol=1e-15)

    def test_quadratic_at_node(self):
        ns = gll_nodes(2)
        np.testing.assert_allclose(_deriv(ns, 0.0), [-0.5, 0.0, 0.5], atol=1e-14)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(3)
        ns = gll_nodes(6)
        x = rng.uniform(-1, 1, 20)
        np.testing.assert_allclose(_deriv(ns, x).sum(axis=0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("N, delta", _uniform([2, 4, 8]) + NEAR_NODES)
    def test_against_polynomial_derivative(self, N, delta):
        rng = np.random.default_rng(11)
        ns = gll_nodes(N)
        coeffs = rng.standard_normal(N + 1)
        x = _points(ns, delta, rng, 30)
        p = np.polynomial.polynomial
        _assert_close(
            p.polyval(ns.nodes, coeffs) @ _deriv(ns, x),
            p.polyval(x, p.polyder(coeffs)),
            delta,
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
            edge_eval(ns, x)[-1], _deriv(ns, x)[-1], atol=1e-12
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

    @pytest.mark.parametrize("N, delta", _uniform([3, 6, 9]) + NEAR_NODES)
    def test_derivative_identity(self, N, delta):
        # sum p_i h_i' == sum (p_i - p_{i-1}) e_i
        rng = np.random.default_rng(13)
        ns = gll_nodes(N)
        p = rng.standard_normal(N + 1)
        x = _points(ns, delta, rng, 50)
        lhs = p @ _deriv(ns, x)
        rhs = np.diff(p) @ edge_eval(ns, x)
        _assert_close(lhs, rhs, delta, atol=1e-12)
