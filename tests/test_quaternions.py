"""Unit tests for integer quaternion arithmetic and exact rotations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lps.quaternions import (
    ExactRotation,
    LipschitzQuaternion,
    adjoint_rotation,
    build_generator_set,
    enumerate_representatives,
    jacobi_count,
    require_split_prime,
)


def brute_force_four_squares(n: int) -> int:
    bound = int(n**0.5) + 1
    count = 0
    for x0 in range(-bound, bound + 1):
        for x1 in range(-bound, bound + 1):
            partial = x0 * x0 + x1 * x1
            if partial > n:
                continue
            for x2 in range(-bound, bound + 1):
                rest = n - partial - x2 * x2
                if rest < 0:
                    continue
                root = int(rest**0.5)
                for x3 in (root - 1, root, root + 1):
                    if x3 * x3 == rest:
                        count += 1 if x3 == 0 else 2
                        break
    return count


def test_jacobi_count_matches_brute_force_through_200():
    for n in range(1, 201):
        assert jacobi_count(n) == brute_force_four_squares(n), n


def test_jacobi_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        jacobi_count(0)
    with pytest.raises(ValueError):
        jacobi_count(-3)


def test_jacobi_count_split_primes_is_eight_times_p_plus_one():
    for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
        assert jacobi_count(p) == 8 * (p + 1)


def test_require_split_prime():
    for p in (5, 13, 17, 29, 37):
        require_split_prime(p)
    for bad in (2, 3, 7, 9, 11, 15, 21, 25):
        with pytest.raises(ValueError):
            require_split_prime(bad)


def test_quaternion_multiplication_hand_value():
    # (1 + 2i)(j) = j + 2ij = j + 2k
    a = LipschitzQuaternion(1, 2, 0, 0)
    b = LipschitzQuaternion(0, 0, 1, 0)
    assert a * b == LipschitzQuaternion(0, 0, 1, 2)


def test_quaternion_conjugate_and_norm():
    q = LipschitzQuaternion(1, 2, -3, 4)
    assert q.norm() == 1 + 4 + 9 + 16
    prod = q * q.conjugate()
    assert prod == LipschitzQuaternion(q.norm(), 0, 0, 0)


small_ints = st.integers(min_value=-20, max_value=20)
quaternions = st.builds(LipschitzQuaternion, small_ints, small_ints, small_ints, small_ints)


@given(quaternions, quaternions)
def test_norm_is_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(quaternions, quaternions)
def test_conjugate_reverses_products(a, b):
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()


@given(quaternions, quaternions, quaternions)
def test_multiplication_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_representatives_p5_exact_set():
    reps = enumerate_representatives(5)
    expected = {
        (1, 2, 0, 0),
        (1, -2, 0, 0),
        (1, 0, 2, 0),
        (1, 0, -2, 0),
        (1, 0, 0, 2),
        (1, 0, 0, -2),
    }
    assert {(r.x0, r.x1, r.x2, r.x3) for r in reps} == expected


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_representatives_shape(p):
    reps = enumerate_representatives(p)
    assert len(reps) == p + 1
    for r in reps:
        assert r.norm() == p
        assert r.x0 > 0 and r.x0 % 2 == 1
    # closed under conjugation and sorted deterministically
    key = lambda q: (q.x0, q.x1, q.x2, q.x3)
    assert sorted(reps, key=key) == list(reps)
    as_set = {key(r) for r in reps}
    for r in reps:
        assert key(r.conjugate()) in as_set


def test_adjoint_rotation_hand_value():
    rot = adjoint_rotation(LipschitzQuaternion(1, 2, 0, 0))
    assert rot.den_base == 5 and rot.den_exp == 1
    assert rot.num == ((5, 0, 0), (0, -3, -4), (0, 4, -3))


def test_adjoint_rotation_is_orthogonal_scaled():
    for p in (5, 13):
        for q in enumerate_representatives(p):
            rot = adjoint_rotation(q)
            m = rot.num
            for i in range(3):
                for j in range(3):
                    dot = sum(m[k][i] * m[k][j] for k in range(3))
                    assert dot == (p * p if i == j else 0)


def _rational_matrix(rot):
    d = rot.den_base**rot.den_exp
    return tuple(tuple(Fraction(v, d) for v in row) for row in rot.num)


def test_adjoint_is_multiplicative():
    # Ad(ab) may canonicalize with base 25 where the product keeps base 5,
    # so compare the underlying rational matrices rather than dataclasses.
    reps = enumerate_representatives(5)
    for a, b in itertools.product(reps[:3], reps[:3]):
        product = adjoint_rotation(a) * adjoint_rotation(b)
        assert _rational_matrix(adjoint_rotation(a * b)) == _rational_matrix(product)


def test_exact_rotation_canonicalizes():
    rot = ExactRotation.create(((5, 0, 0), (0, 5, 0), (0, 0, 5)), 5, 1)
    assert rot == ExactRotation.identity()
    assert rot.den_base == 1 and rot.den_exp == 0


def test_exact_rotation_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        ExactRotation.create(((1, 1, 0), (0, 1, 0), (0, 0, 1)), 1, 0)


def test_exact_rotation_rejects_reflection():
    # orthogonal but determinant -1
    with pytest.raises(ValueError):
        ExactRotation.create(((-1, 0, 0), (0, 1, 0), (0, 0, 1)), 1, 0)


def test_exact_rotation_inverse_and_identity():
    rot = adjoint_rotation(LipschitzQuaternion(1, 0, 2, 0))
    assert rot * rot.inverse() == ExactRotation.identity()
    assert rot.inverse() * rot == ExactRotation.identity()
    assert rot * ExactRotation.identity() == rot


def test_exact_rotation_incompatible_bases():
    a = adjoint_rotation(LipschitzQuaternion(1, 2, 0, 0))
    b = adjoint_rotation(LipschitzQuaternion(1, 2, 2, 2))  # norm 13
    with pytest.raises(ValueError):
        a * b


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_generator_set_structure(p):
    genset = build_generator_set(p)
    assert genset.p == p
    assert genset.rank == (p + 1) // 2
    elements = genset.rotations
    assert len(elements) == p + 1
    inv = genset.inverse_of
    assert sorted(inv) == list(range(p + 1))
    for i, j in enumerate(inv):
        assert i != j, "pairing must be fixed-point free"
        assert inv[j] == i
        assert elements[i] * elements[j] == ExactRotation.identity()

