"""Unit tests for integer quaternion arithmetic and exact rotations."""

import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from freeness_oracle import matmul
from lps.quaternions import (
    GeneratorSet,
    LipschitzQuaternion,
    adjoint_rotation,
    build_generator_set,
    enumerate_representatives,
    jacobi_count,
    quaternions_of_norm,
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


def test_quaternions_of_norm_are_every_four_square_representation():
    for n in range(1, 60):
        found = quaternions_of_norm(n)
        assert len(found) == brute_force_four_squares(n) == len(set(found)), n
        assert all(q.norm() == n for q in found)
        assert found == sorted(found, key=lambda q: (q.x0, q.x1, q.x2, q.x3))
    with pytest.raises(ValueError):
        quaternions_of_norm(0)


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
    assert adjoint_rotation(LipschitzQuaternion(1, 2, 0, 0)) == ((5, 0, 0), (0, -3, -4), (0, 4, -3))


def test_adjoint_rotation_is_orthogonal_scaled():
    for p in (5, 13):
        for q in enumerate_representatives(p):
            m = adjoint_rotation(q)
            for i in range(3):
                for j in range(3):
                    dot = sum(m[k][i] * m[k][j] for k in range(3))
                    assert dot == (p * p if i == j else 0)


def test_adjoint_is_multiplicative():
    # Ad(ab) = Ad(a) Ad(b) holds on the numerators, over norm(a) norm(b)
    reps = enumerate_representatives(5)
    for a, b in itertools.product(reps[:3], reps[:3]):
        assert matmul(adjoint_rotation(a), adjoint_rotation(b)) == adjoint_rotation(a * b)


def test_exact_rotation_inverse_and_identity():
    # Ad(conj q) inverts Ad(q), and as a rotation it is the transpose
    q = LipschitzQuaternion(1, 0, 2, 0)
    m = adjoint_rotation(q)
    assert adjoint_rotation(q.conjugate()) == tuple(zip(*m))
    assert matmul(m, tuple(zip(*m))) == ((25, 0, 0), (0, 25, 0), (0, 0, 25))


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_generator_set_structure(p):
    genset = build_generator_set(p)
    assert genset.p == genset.den == p
    assert genset.rank == (p + 1) // 2
    elements = genset.matrices
    assert len(elements) == p + 1
    inv = genset.inverse_of
    assert sorted(inv) == list(range(p + 1))
    identity = tuple(tuple(p * p * (r == c) for c in range(3)) for r in range(3))
    for i, j in enumerate(inv):
        assert i != j, "pairing must be fixed-point free"
        assert inv[j] == i
        assert matmul(elements[i], elements[j]) == identity


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_generator_set_is_derived_from_its_quaternions(p):
    # the fields, assembled directly: one rotation per representative and
    # each one's inverse at the index of its conjugate
    reps = enumerate_representatives(p)
    genset = build_generator_set(p)
    assert genset.source_quaternions == tuple(reps)
    assert genset.matrices == tuple(adjoint_rotation(q) for q in reps)
    assert genset.den == p
    assert genset.inverse_of == tuple(reps.index(q.conjugate()) for q in reps)


def test_generator_set_rejects_what_derivation_cannot_fix():
    one_plus_2i, one_plus_2j = LipschitzQuaternion(1, 2, 0, 0), LipschitzQuaternion(1, 0, 2, 0)
    with pytest.raises(ValueError, match="common norm"):
        GeneratorSet(())
    mixed = (one_plus_2i, one_plus_2i.conjugate(), LipschitzQuaternion(1, 2, 2, 0))
    with pytest.raises(ValueError, match="common norm"):
        GeneratorSet(mixed + (mixed[2].conjugate(),))
    with pytest.raises(ValueError, match="conjugate"):
        GeneratorSet((one_plus_2j,))
    with pytest.raises(ValueError, match="conjugate"):
        GeneratorSet((one_plus_2j, one_plus_2j, one_plus_2j.conjugate()))
    # 5 has norm 25 like 3 + 4i, and would be its own inverse
    three_plus_4i = LipschitzQuaternion(3, 4, 0, 0)
    with pytest.raises(ValueError, match="real"):
        GeneratorSet((LipschitzQuaternion(5, 0, 0, 0), three_plus_4i, three_plus_4i.conjugate()))


def test_replacing_the_quaternions_derives_the_rest():
    genset = build_generator_set(5)
    q = LipschitzQuaternion(1, 2, 2, 0)
    # two copies of q pair with two copies of its conjugate, in order
    pair = dataclasses.replace(genset, source_quaternions=(q, q, q.conjugate(), q.conjugate()))
    assert pair.den == pair.p == 9
    assert pair.matrices == (adjoint_rotation(q),) * 2 + (adjoint_rotation(q.conjugate()),) * 2
    assert pair.inverse_of == (2, 3, 0, 1)
    assert dataclasses.replace(pair, source_quaternions=genset.source_quaternions) == genset
    # a list is kept as a tuple, so the set still hashes
    assert hash(GeneratorSet(list(genset.source_quaternions))) == hash(genset)


def test_generator_set_hash_is_computed_once_from_its_quaternions():
    genset = build_generator_set(5)
    same = GeneratorSet(tuple(enumerate_representatives(5)))
    assert same == genset and hash(same) == hash(genset)
    assert genset._hash == hash(genset.source_quaternions)
    # replacing the quaternions re-derives the hash with the other fields
    other = dataclasses.replace(genset, source_quaternions=enumerate_representatives(13))
    assert other == build_generator_set(13) and hash(other) == hash(build_generator_set(13))
    assert other != genset and hash(other) != hash(genset)
