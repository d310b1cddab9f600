"""Unit tests for the closed-form rate formulas and Hecke-style polynomials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import lps.formulas
from lps.formulas import (
    ConsistencyError,
    HeckePolynomial,
    c_factor,
    harish_chandra,
    harish_chandra_boundary_sum,
    hecke_polynomial,
    hecke_sup,
    lps_discrepancy,
    regular_norm,
)


def test_hecke_polynomial_low_degrees():
    q = 5
    assert hecke_polynomial(q, 0).coefficients == (1,)
    assert hecke_polynomial(q, 1).coefficients == (0, 1)
    assert hecke_polynomial(q, 2).coefficients == (-(q + 1), 0, 1)
    # P3 = X * P2 - q * P1 = X^3 - (2q+1) X
    assert hecke_polynomial(q, 3).coefficients == (0, -(2 * q + 1), 0, 1)
    # P4 = X^4 - (3q+1) X^2 + q(q+1)
    assert hecke_polynomial(q, 4).coefficients == (q * (q + 1), 0, -(3 * q + 1), 0, 1)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=12))
def test_hecke_three_term_recursion_at_rational_points(q, n):
    x = Fraction(7, 3)
    p_next = hecke_polynomial(q, n + 1)(x)
    p_cur = hecke_polynomial(q, n)(x)
    p_prev = hecke_polynomial(q, n - 1)(x)
    assert p_next == x * p_cur - q * p_prev


def test_hecke_polynomial_counts_sphere_at_argument_q_plus_one():
    # at X = q+1 the polynomial counts the sphere: P_n(q+1) = (q+1) q^(n-1)
    for q in (2, 3, 5, 9):
        for n in range(1, 10):
            assert hecke_polynomial(q, n)(q + 1) == (q + 1) * q ** (n - 1)


def test_hecke_call_is_horner_equivalent():
    poly = HeckePolynomial(q=3, degree=3, coefficients=(0, -7, 0, 1))
    for x in (-2.0, 0.5, 3.0):
        assert abs(poly(x) - (x**3 - 7 * x)) < 1e-12


def test_harish_chandra_hand_values():
    assert harish_chandra(5, 0) == 1.0
    assert abs(harish_chandra(5, 2) - 7 / 15) < 1e-15
    assert abs(harish_chandra(5, 1) - 2 * math.sqrt(5) / 6) < 1e-15
    assert abs(harish_chandra(5, 3) - 3 * 5 ** (-1.5)) < 1e-15


@pytest.mark.parametrize("q", [2, 3, 5, 9, 13])
def test_boundary_sum_equals_closed_form(q):
    for n in range(1, 13):
        closed = harish_chandra(q, n)
        summed = harish_chandra_boundary_sum(q, n)
        assert abs(summed - closed) <= 1e-12 * abs(closed)


def test_boundary_sum_rejects_radius_zero():
    with pytest.raises(ValueError):
        harish_chandra_boundary_sum(5, 0)


def test_c_factor_hand_value():
    assert abs(c_factor(3, 2) - 9 / 17) < 1e-15


def test_c_factor_limit():
    for q in (2, 3, 5, 9, 13):
        assert abs(c_factor(q, 40) - (q - 1) / (q + 1)) < 1e-10


def test_c_factor_rejects_degenerate_q():
    with pytest.raises(ValueError):
        c_factor(1, 3)


def test_hecke_sup_closed_form():
    # P_3 at 2 sqrt 5: 40 sqrt5 - 22 sqrt5 = 18 sqrt5
    assert abs(hecke_sup(5, 3) - 18 * math.sqrt(5)) < 1e-9
    # through n = 40: float Horner at the edge failed from n = 24 on
    for q in (3, 5, 13):
        for n in range(1, 41):
            expected = harish_chandra(q, n) * (q + 1) * q ** (n - 1)
            assert abs(hecke_sup(q, n) - expected) <= 1e-9 * expected


def wrong_hecke_polynomial(q, m):
    """P_{k+1} = X P_k - (q + 1) P_{k-1}, seeded like the tree recursion."""
    prev, cur = (1,), (0, 1)
    for _ in range(m - 1):
        prev, cur = cur, tuple(a - (q + 1) * b for a, b in zip((0,) + cur, prev + (0, 0)))
    return HeckePolynomial(q, m, cur)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_hecke_sup_rejects_a_wrong_recursion_coefficient(monkeypatch, n):
    monkeypatch.setattr(lps.formulas, "hecke_polynomial", wrong_hecke_polynomial)
    with pytest.raises(ConsistencyError, match="Chebyshev"):
        hecke_sup(5, n)


def test_regular_norm_sphere_is_harish_chandra():
    for q in (2, 3, 5, 9):
        for n in range(9):
            assert regular_norm(q, n, "sphere") == harish_chandra(q, n)


def test_regular_norm_ball_hand_value():
    assert abs(regular_norm(3, 1, "ball") - (1 + 2 * math.sqrt(3)) / 5) < 1e-15
    assert abs(regular_norm(3, 1, "ball") - 0.892820323027551) < 1e-12


def test_regular_norm_ball_vs_weighted_sum_oracle():
    # independent route: ball average = sum of sphere counts times sphere
    # norms divided by the ball count, all in one pass
    for q in (2, 3, 5, 13):
        for n in range(1, 10):
            counts = [(q + 1) * q ** (k - 1) if k else 1 for k in range(n + 1)]
            total = sum(counts)
            weighted = sum(c * harish_chandra(q, k) for k, c in enumerate(counts))
            assert abs(regular_norm(q, n, "ball") - weighted / total) <= 1e-12


def test_regular_norm_degenerate_and_trivial():
    for n in range(11):
        assert regular_norm(1, n, "sphere") == 1.0
        assert regular_norm(1, n, "ball") == 1.0
    assert regular_norm(7, 0, "sphere") == 1.0
    assert regular_norm(7, 0, "ball") == 1.0


def test_regular_norm_decays():
    values = [regular_norm(5, n, "sphere") for n in range(1, 12)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_regular_norm_rejects_unknown_shape():
    with pytest.raises(ValueError):
        regular_norm(3, 2, "cube")


def test_lps_discrepancy_hand_values():
    assert abs(lps_discrepancy(5, 2, "sphere") - 7 / 15) < 1e-15
    assert abs(lps_discrepancy(5, 1, "sphere") - 2 * math.sqrt(5) / 6) < 1e-15
    assert abs(lps_discrepancy(5, 3, "sphere") - 3 * 5 ** (-1.5)) < 1e-15


def test_lps_discrepancy_requires_split_prime_and_positive_n():
    with pytest.raises(ValueError):
        lps_discrepancy(7, 2, "sphere")
    with pytest.raises(ValueError):
        lps_discrepancy(5, 0, "sphere")
