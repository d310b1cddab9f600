"""Unit tests for the fraction-free elimination behind the harmonic oracle."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonic_oracle import (
    double_factorial,
    fraction_free_echelon,
    integer_kernel,
    kernel_with_free_columns,
    object_matmul,
)


def test_echelon_identifies_rank_and_pivots():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    echelon, pivots = fraction_free_echelon(rows, 3)
    assert pivots == [0, 1]
    assert len(echelon) >= 2


def test_kernel_hand_example():
    basis, free_cols = kernel_with_free_columns([[1, 2, 3]], 3)
    assert free_cols == [1, 2]
    assert basis == [[2, -1, 0], [3, 0, -1]] or basis == [[-2, 1, 0], [-3, 0, 1]]
    # convention: leading nonzero entry positive
    for vec in basis:
        lead = next(v for v in vec if v)
        assert lead > 0


def test_kernel_of_full_rank_matrix_is_empty():
    basis = integer_kernel([[1, 0], [0, 1]], 2)
    assert basis == []


def test_kernel_vectors_are_supported_on_their_free_column():
    rows = [[1, 1, 0, -1], [0, 2, 1, 1]]
    basis, free_cols = kernel_with_free_columns(rows, 4)
    assert len(basis) == len(free_cols) == 2
    for vec, col in zip(basis, free_cols):
        assert vec[col] != 0
        for other in free_cols:
            if other != col:
                assert vec[other] == 0


entry = st.integers(min_value=-9, max_value=9)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_kernel_is_annihilated_and_complete(nrows, ncols, data):
    rows = [
        [data.draw(entry) for _ in range(ncols)] for _ in range(nrows)
    ]
    basis = integer_kernel([list(r) for r in rows], ncols)
    _, pivots = fraction_free_echelon([list(r) for r in rows], ncols)
    assert len(basis) + len(pivots) == ncols, "rank-nullity"
    for vec in basis:
        assert any(vec), "kernel vectors are nonzero"
        content = 0
        for v in vec:
            content = gcd(content, v)
        assert content == 1, "primitive integer vectors"
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_object_matmul_is_exact_for_big_integers():
    big = 10**30
    a = [[big, 1], [0, big]]
    b = [[1, big], [1, 0]]
    product = object_matmul(a, b)
    assert product[0][0] == big + 1
    assert product[0][1] == big * big
    assert product[1][1] == 0
    assert isinstance(product[0][1], int)


def test_object_matmul_matches_numpy_on_small_ints():
    rng = np.random.default_rng(7)
    a = rng.integers(-50, 50, size=(4, 3))
    b = rng.integers(-50, 50, size=(3, 5))
    assert np.array_equal(object_matmul(a.tolist(), b.tolist()).astype(int), a @ b)


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    assert double_factorial(9) == 945


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)
