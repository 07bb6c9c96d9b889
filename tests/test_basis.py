"""Reference-interval basis and quadrature checks."""
import numpy as np
import pytest

from wavedg.basis import (
    derivative_matrix,
    gauss_rule,
    legendre_deriv,
    legendre_eval,
    stiffness_matrix,
    vandermonde,
)


def test_legendre_low_degrees():
    assert legendre_eval(0, 0.3) == 1.0
    assert legendre_eval(1, 0.5) == 0.5
    assert legendre_eval(2, 1.0) == pytest.approx(1.0, abs=1e-14)
    # P_2 = (3 xi^2 - 1)/2
    assert legendre_eval(2, 0.5) == pytest.approx((3 * 0.25 - 1) / 2, abs=1e-14)


def test_legendre_derivatives():
    assert legendre_deriv(1, 0.2, 1) == pytest.approx(1.0, abs=1e-14)
    assert legendre_deriv(3, 0.0, 4) == 0.0
    assert legendre_deriv(2, 0.5, 1) == pytest.approx(1.5, abs=1e-14)


def test_gauss_rule_small():
    r1 = gauss_rule(1)
    assert r1.nodes == pytest.approx([0.0], abs=1e-15)
    assert r1.weights == pytest.approx([2.0], abs=1e-15)
    r2 = gauss_rule(2)
    assert r2.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
    assert r2.weights == pytest.approx([1.0, 1.0], abs=1e-15)
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_gauss_rule_is_cached_and_read_only():
    rule = gauss_rule(5)
    assert gauss_rule(5) is rule
    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


@pytest.mark.parametrize("n", range(1, 10))
def test_gauss_weights_sum_to_interval_length(n):
    assert gauss_rule(n).weights.sum() == pytest.approx(2.0, abs=1e-13)


def test_gauss_exactness_random_polynomials():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        rule = gauss_rule(n)
        deg = 2 * n - 1
        coef = rng.standard_normal(deg + 1)
        vals = np.polyval(coef, rule.nodes)
        quad = np.sum(rule.weights * vals)
        # analytic integral of sum c_k x^k over [-1, 1]
        powers = np.arange(deg, -1, -1)
        exact = np.sum(coef * (1.0 - (-1.0) ** (powers + 1)) / (powers + 1))
        assert quad == pytest.approx(exact, abs=1e-12)


def test_orthogonality_under_quadrature():
    for m in range(9):
        for mp in range(9):
            if m == mp:
                continue
            rule = gauss_rule(m + mp + 1)
            val = np.sum(rule.weights * legendre_eval(m, rule.nodes) * legendre_eval(mp, rule.nodes))
            assert abs(val) < 1e-12


def test_recurrence_bounded_on_interval():
    xi = np.linspace(-1, 1, 501)
    for m in range(13):
        assert np.max(np.abs(legendre_eval(m, xi))) <= 1.0 + 1e-12


def test_derivative_matrix_consistency():
    # P'_n reconstructed from the expansion matches direct differentiation
    d = derivative_matrix(6)
    xi = np.linspace(-1, 1, 11)
    v = vandermonde(xi, 6)
    v1 = vandermonde(xi, 6, 1)
    assert np.allclose(v @ d, v1, atol=1e-12)


def test_stiffness_matrix_values():
    k = stiffness_matrix(3)
    assert k[0, 0] == 0.0
    assert k[1, 1] == pytest.approx(2.0)
    assert k[2, 2] == pytest.approx(6.0)
    assert k[1, 3] == pytest.approx(2.0)  # integral of 1 * P'_3 over [-1, 1]
    assert k[1, 2] == 0.0
