"""Unit tests for reduced-word enumeration and freeness verification."""

from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lps.words
from freeness_oracle import enumerate_sphere, evaluate_word, is_reduced, reference_freeness
from lps.quaternions import ExactRotation, build_generator_set
from lps.torus import TorusGenerator, build_torus_genset
from lps.words import (
    EnumerationBudgetError,
    Word,
    verify_freeness,
    word_counts,
    word_levels,
)


def test_word_counts_hand_values():
    assert word_counts(3, 2) == (12, 17)
    assert word_counts(5, 5) == (3750, 4687)
    assert word_counts(3, 8) == (4 * 3**7, 13121)
    assert word_counts(2, 3) == (3 * 4, 1 + 3 + 6 + 12)
    assert word_counts(7, 0) == (1, 1)


def test_word_counts_degenerate_line():
    for n in range(12):
        assert word_counts(1, n) == ((2, 2 * n + 1) if n else (1, 1))


def test_word_counts_rejects_bad_input():
    with pytest.raises(ValueError):
        word_counts(0, 3)
    with pytest.raises(ValueError):
        word_counts(3, -1)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=40))
def test_word_count_recurrences(q, n):
    sphere_n, ball_n = word_counts(q, n)
    sphere_next, ball_next = word_counts(q, n + 1)
    assert sphere_next == q * sphere_n if n >= 1 else True
    assert ball_next == ball_n + sphere_next
    assert ball_n == sum(word_counts(q, k)[0] for k in range(n + 1))


def test_is_reduced():
    inv = (1, 0, 3, 2)
    assert is_reduced((), inv)
    assert is_reduced((0, 2, 0), inv)
    assert not is_reduced((0, 1), inv)
    assert not is_reduced((2, 3, 0), inv)
    assert is_reduced((0, 0), inv), "repeats are reduced when not mutual inverses"


def test_enumerate_sphere_counts_and_order():
    sanov = build_torus_genset("sanov")
    for n in range(5):
        words = list(enumerate_sphere(sanov, n))
        assert len(words) == word_counts(sanov.q, n)[0]
        assert all(len(w) == n for w in words)
        letters = [w.letters for w in words]
        assert letters == sorted(letters), "lexicographic enumeration"
        assert all(is_reduced(l, sanov.inverse_of) for l in letters)


def test_enumerate_sphere_matches_rotation_rank():
    genset = build_generator_set(5)
    words = list(enumerate_sphere(genset, 2))
    assert len(words) == word_counts(5, 2)[0] == 30


def test_evaluate_word_matches_manual_product():
    sanov = build_torus_genset("sanov")
    a, b = sanov.generators[0], sanov.generators[1]
    word = Word((0, 1, 0))
    assert evaluate_word(sanov, word) == (a * b) * a


def test_evaluate_word_rejects_unreduced():
    sanov = build_torus_genset("sanov")
    bad = Word((0, sanov.inverse_of[0]))
    with pytest.raises(ValueError):
        evaluate_word(sanov, bad)
    with pytest.raises(ValueError):
        evaluate_word(sanov, Word((99,)))


def test_empty_word_is_identity():
    sanov = build_torus_genset("sanov")
    assert evaluate_word(sanov, Word(())) == TorusGenerator(((1, 0), (0, 1)))


@pytest.mark.parametrize(
    "genset, radius",
    [(build_generator_set(5), 3), (build_torus_genset("sanov"), 4), (build_torus_genset("rank-one"), 3)],
)
def test_word_levels_match_recursive_enumeration(genset, radius):
    _, den = genset.integer_matrices
    levels = word_levels(genset, radius)
    assert len(levels) == radius + 1
    for length, (products, parent, last) in enumerate(levels):
        words = list(enumerate_sphere(genset, length))
        assert len(products) == len(parent) == len(last) == len(words)
        for word, product, up, letter in zip(words, products, parent, last):
            value = evaluate_word(genset, word)
            if isinstance(value, TorusGenerator):
                assert TorusGenerator(tuple(map(tuple, product.tolist()))) == value
            else:
                assert ExactRotation.create(product.tolist(), den, length) == value
            if length:
                assert int(letter) == word.letters[-1]
                assert previous[int(up)] == word.letters[:-1]
        previous = [w.letters for w in words]


def test_freeness_small_rotation_ball():
    report = verify_freeness(build_generator_set(5), 3)
    assert report.is_free_to_radius
    assert report.radius_checked == 3
    assert report.ball_size_expected == 187
    assert report.ball_size_found == 187
    assert report.first_collision is None


def test_freeness_sanov_small():
    report = verify_freeness(build_torus_genset("sanov"), 5)
    assert report.is_free_to_radius
    assert report.ball_size_found == word_counts(3, 5)[1] == 485


def test_freeness_detects_relations():
    # upper-triangular unipotent matrices commute, so a b a^-1 b^-1 collides
    genset = build_torus_genset((((1, 1), (0, 1)), ((1, 2), (0, 1))))
    report = verify_freeness(genset, 3)
    assert not report.is_free_to_radius
    assert report.ball_size_found < report.ball_size_expected
    assert report.first_collision is not None
    w1, w2 = report.first_collision
    assert evaluate_word(genset, w1) == evaluate_word(genset, w2)
    assert w1.letters != w2.letters


def test_freeness_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        verify_freeness(build_generator_set(5), 6, budget=100)


# Products of these have determinant +-1; the swap makes odd counts -1.
_ELEMENTARY = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, -1), (0, 1)), ((0, 1), (1, 0)))
_unimodular = st.lists(st.sampled_from(_ELEMENTARY), min_size=1, max_size=4).map(
    lambda ms: reduce(mul, map(TorusGenerator, ms)).matrix
)
_shear_pair = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda ab: (((1, ab[0]), (0, 1)), ((1, ab[1]), (0, 1)))
)
_generator_lists = st.one_of(
    st.lists(_unimodular, min_size=1, max_size=3),
    _shear_pair,  # commuting, so a b a^-1 b^-1 = 1 from radius 4 on
    # m and m^2 commute
    _unimodular.map(lambda m: (m, (TorusGenerator(m) * TorusGenerator(m)).matrix)),
)


@settings(deadline=None, max_examples=60)
@given(_generator_lists, st.integers(min_value=0, max_value=4))
def test_array_walk_matches_reference_walk_on_torus_sets(matrices, radius):
    try:
        genset = build_torus_genset(matrices)
    except ValueError:
        assume(False)
    assert verify_freeness(genset, radius) == reference_freeness(genset, radius)


@pytest.mark.parametrize("p", [5, 13])
def test_array_walk_matches_reference_walk_on_rotations(p):
    genset = build_generator_set(p)
    for radius in range(4):
        assert verify_freeness(genset, radius) == reference_freeness(genset, radius)


@pytest.mark.parametrize(
    "matrices, radius",
    [
        ((((1, 2 ** 40), (0, 1)), ((1, 0), (3, 1))), 3),
        # a b and b a differ only by 2**64 on the diagonal, so any walk
        # that wraps mod 2**64 reports a false collision at radius 2
        ((((1, 2 ** 32), (0, 1)), ((1, 0), (2 ** 32, 1))), 2),
    ],
)
def test_array_walk_stays_exact_past_int64(matrices, radius):
    genset = build_torus_genset(matrices)
    report = verify_freeness(genset, radius)
    assert report == reference_freeness(genset, radius)
    assert report.is_free_to_radius


def test_array_walk_reports_first_collision_in_preorder():
    genset = build_torus_genset((((1, 1), (0, 1)), ((1, 2), (0, 1))))
    # letters a, b, a^-1, b^-1 with b = a^2: depth first, a a b^-1 = 1 is
    # met before b = a a, which breadth first would find first
    assert verify_freeness(genset, 3).first_collision == (Word(()), Word((0, 0, 3)))
    assert verify_freeness(genset, 2).first_collision == (Word((0, 0)), Word((1,)))


def test_freeness_budget_fires_before_any_array_work(monkeypatch):
    monkeypatch.setattr(lps.words, "np", None)
    with pytest.raises(EnumerationBudgetError):
        verify_freeness(build_generator_set(5), 12)


def test_freeness_radius_zero_is_the_identity():
    for genset in (build_generator_set(5), build_torus_genset("sanov")):
        report = verify_freeness(genset, 0)
        assert report.ball_size_expected == report.ball_size_found == 1
        assert report.is_free_to_radius
        assert report.first_collision is None


def test_level_checks_reject_corrupted_products():
    rotations = build_generator_set(5)
    matrices, p = rotations.integer_matrices
    assert p == 5
    products = np.array(matrices, dtype=np.int64)
    rotations.check_products(products, 1)
    with pytest.raises(ValueError, match="orthogonal"):
        rotations.check_products(products * 2, 1)
    with pytest.raises(ValueError, match="determinant"):
        rotations.check_products(-products, 1)
    sanov = build_torus_genset("sanov")
    matrices, one = sanov.integer_matrices
    assert one == 1
    products = np.array(matrices, dtype=np.int64)
    sanov.check_products(products, 1)
    products[0, 0, 0] = 2
    with pytest.raises(ValueError, match="automorphism"):
        sanov.check_products(products, 1)
