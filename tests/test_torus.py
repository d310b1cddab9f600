"""Unit tests for windowed torus character operators and norm estimates."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lps
import lps.torus
from lps.torus import (
    LANCZOS_CHECK_STEPS,
    LANCZOS_TOL,
    HalfWindow,
    LanczosConvergenceError,
    SANOV_MATRICES,
    _exact_dot,
    _float_at_most,
    _lanczos,
    _lookup,
    _max_diagonal,
    _orbits,
    _residue_classes,
    _seeded_start,
    _square_table,
    _window_words,
    build_torus_genset,
    load_generator_matrices,
    norm_certificate,
    rayleigh_certificate,
    symmetries,
    torus_discrepancy_check,
    window_operator,
)
from lps.words import word_counts
from test_words import _generator_lists, _unimodular
from torus_oracle import (
    LatticeWindow,
    character_image,
    dense_orbit_sums,
    diagonal_counts,
    full_window_counts,
    half_block,
    orbit_numbers,
    orbit_sums,
    residue_class,
    residue_classes,
    square_symmetries,
)


def test_generator_requires_unimodular_matrix():
    build_torus_genset((((1, 1), (0, 1)),))
    build_torus_genset((((1, 1), (1, 0)),))  # determinant -1 allowed
    for bad in (((2, 0), (0, 1)), ((1, 1), (1, 1))):
        with pytest.raises(ValueError, match="determinant"):
            build_torus_genset((bad,))


def test_generator_inverse_and_product():
    # the appended inverse is the adjugate times the determinant
    pairs = ((((1, 2), (0, 1)), ((1, -2), (0, 1))), (((1, 1), (1, 0)), ((0, 1), (1, -1))))
    for g, inverse in pairs:
        assert build_torus_genset((g,)).matrices == (g, inverse)
        assert np.matmul(g, inverse).tolist() == [[1, 0], [0, 1]]


def test_sanov_genset_structure():
    genset = build_torus_genset("sanov")
    assert genset.q == 3
    assert genset.rank == 2
    gens = genset.matrices
    assert len(gens) == 4
    inv = genset.inverse_of
    for i, j in enumerate(inv):
        assert np.matmul(gens[i], gens[j]).tolist() == [[1, 0], [0, 1]]
        assert inv[j] == i and i != j


def test_rank_one_genset_is_degenerate_line():
    genset = build_torus_genset("rank-one")
    assert genset.q == 1
    assert len(genset.matrices) == 2
    assert word_counts(genset.q, 4) == (2, 9)


def test_genset_rejects_duplicates_inverses_and_involutions():
    with pytest.raises(ValueError):
        build_torus_genset((((1, 1), (0, 1)), ((1, 1), (0, 1))))
    with pytest.raises(ValueError):
        build_torus_genset((((1, 1), (0, 1)), ((1, -1), (0, 1))))
    with pytest.raises(ValueError):
        build_torus_genset((((0, 1), (1, 0)),))


def test_genset_accepts_order_four_element():
    # squares to -identity, so it is not an involution
    genset = build_torus_genset((((0, -1), (1, 0)),))
    assert genset.q == 1


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        build_torus_genset("cube")


@pytest.mark.parametrize("entry", [1.5, 1.0, True, "2", None, np.float64(1.0), np.bool_(True)])
def test_genset_rejects_non_integer_entries(entry):
    with pytest.raises(ValueError):
        build_torus_genset((((entry, 2), (0, 1)), ((1, 0), (2, 1))))


def test_genset_accepts_numpy_integers():
    matrices = tuple(
        tuple(tuple(np.int64(v) for v in row) for row in m) for m in SANOV_MATRICES
    )
    genset = build_torus_genset(matrices)
    assert genset == build_torus_genset("sanov")
    assert all(type(v) is int for m in genset.matrices for row in m for v in row)


@pytest.mark.parametrize(
    "content",
    [
        [[[1.5, 2], [0, 1]]],  # float entry
        [[[1.0, 2], [0, 1]]],  # integral float
        [[[True, 2], [0, 1]]],  # bool entry
        [5],  # bare number instead of a matrix
        [[[1, 2], [0, 1], [0, 0]]],  # three rows
        [[[1, 2, 0], [0, 1, 0]]],  # three columns
        [[[1, "2"], [0, 1]]],  # string entry
        [[[1, 2], None]],  # null row
    ],
)
def test_load_generator_matrices_rejects_malformed_entries(tmp_path, content):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ValueError):
        load_generator_matrices(str(path))


def test_load_generator_matrices_roundtrip(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([[[1, 2], [0, 1]], [[1, 0], [2, 1]]]))
    assert load_generator_matrices(str(path)) == SANOV_MATRICES
    genset = build_torus_genset(load_generator_matrices(str(path)))
    assert genset.q == 3


def test_character_matrix_is_inverse_transpose():
    # the oracle's action of [[1, 2], [0, 1]] is [[1, 0], [-2, 1]]
    assert character_image(SANOV_MATRICES[0], (1, 0)) == (1, -2)
    assert character_image(SANOV_MATRICES[0], (0, 1)) == (0, 1)


def test_character_action_is_a_group_action():
    genset = build_torus_genset("sanov")
    g, h = genset.matrices[0], genset.matrices[1]
    m = (2, -3)
    gh = np.matmul(g, h).tolist()
    assert character_image(g, character_image(h, m)) == character_image(gh, m)
    ginv = genset.matrices[genset.inverse_of[0]]
    assert character_image(ginv, character_image(g, m)) == m


def test_lattice_window_layout():
    window = LatticeWindow(2)
    assert window.side == 5
    assert window.size == 24
    pts = window.points
    assert pts.shape == (24, 2)
    listed = [tuple(p) for p in pts]
    assert (0, 0) not in listed
    assert listed == sorted(listed)
    for rank, point in enumerate(listed):
        assert window.index_of(point) == rank
    linear = window.linear_indices(pts)
    assert list(linear) == list(range(24))


_IDENTITY = ((1, 0), (0, 1))
_SWAP = ((0, 1), (1, 0))
_FLIP = ((1, 0), (0, -1))
_QUARTER = ((0, -1), (1, 0))


@pytest.mark.parametrize(
    "matrices, group",
    [
        ("sanov", (_IDENTITY, _SWAP, _FLIP, _QUARTER)),
        ("rank-one", (_IDENTITY, _FLIP)),
        ((((2, 1), (1, 1)),), (_IDENTITY, _QUARTER)),
        ((((2, 1), (1, 1)), ((1, 1), (0, 1))), (_IDENTITY,)),
    ],
    ids=["sanov", "rank-one", "cat-map", "no-symmetry"],
)
def test_symmetries_of_the_generating_set(matrices, group):
    genset = build_torus_genset(matrices)
    assert symmetries(genset) == group
    # modulo +-I, the oracle's eight signed permutations give the same group
    assert 2 * len(group) == len(square_symmetries(genset.matrices))


@pytest.mark.parametrize("radius", range(1, 7))
def test_square_table_matches_a_brute_force_fold(radius):
    window = HalfWindow(radius)
    half = [
        (x, y)
        for x in range(radius + 1)
        for y in range(-radius, radius + 1)
        if math.gcd(x, y) == 1 and (x > 0 or y > 0)
    ]
    assert window.points.tolist() == [list(m) for m in half]
    position = {m: i for i, m in enumerate(half)}
    # every point of the square and of the ring just outside it
    grid = range(-radius - 1, radius + 2)
    m1, m2 = (np.array(v) for v in zip(*[(x, y) for x in grid for y in grid]))
    expected_inside, expected = [], []
    for k, (x, y) in enumerate(zip(m1.tolist(), m2.tolist())):
        if max(abs(x), abs(y)) <= radius:
            expected_inside.append(k)
            folded = (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)
            expected.append(position[folded] if math.gcd(x, y) == 1 else -1)
    table = _square_table(window)
    assert table.dtype == np.int32 and table.shape == (2 * radius + 1,) * 2
    inside, found = _lookup(table, m1, m2)
    assert inside.tolist() == expected_inside
    assert found.tolist() == expected


@pytest.mark.parametrize("radius", [1, 2, 5, 9])
@pytest.mark.parametrize(
    "matrices",
    ["sanov", "rank-one", (((2, 1), (1, 1)),), (((2, 1), (1, 1)), ((1, 1), (0, 1)))],
    ids=["sanov", "rank-one", "cat-map", "no-symmetry"],
)
def test_orbit_labels_match_the_oracle(matrices, radius):
    genset = build_torus_genset(matrices)
    window, group = HalfWindow(radius), symmetries(genset)
    orbit, reps, block_starts = _orbits(
        window, _square_table(window), group, _residue_classes(genset, group)
    )
    half = [tuple(m) for m in window.points.tolist()]
    classes = _oracle_classes(genset)
    expected = orbit_numbers(half, square_symmetries(genset.matrices), classes)
    assert np.array_equal(orbit, expected)
    # each orbit's representative is its first point in the half-window's order
    assert [tuple(m) for m in reps.tolist()] == [
        half[expected.tolist().index(k)] for k in range(expected.max() + 1)
    ]
    assert block_starts == _oracle_block_starts(half, expected, classes)


def _oracle_classes(genset):
    """The oracle's class of each residue mod 2, found by walking the residues."""
    return residue_classes(genset.matrices, square_symmetries(genset.matrices))


def _oracle_block_starts(half, orbit, classes):
    """The first orbit of each class, and the orbit count, from the oracle's numbering."""
    per_class = np.zeros(max(classes.values()) + 1, dtype=np.int64)
    for k in range(orbit.max() + 1):
        per_class[residue_class(classes, half[orbit.tolist().index(k)])] += 1
    return tuple([0] + np.cumsum(per_class).tolist())


def _oracle_operator(genset, n, shape, radius):
    """The oracle's half block, its orbit sums K and sizes D, and the word count."""
    window, counts, words = full_window_counts(genset, n, shape, radius)
    half, block = half_block(window, counts)
    group, classes = square_symmetries(genset.matrices), _oracle_classes(genset)
    sums, sizes = orbit_sums(half, block, group, classes)
    return half, block, sums, sizes, words


def _assert_matches_oracle(op, genset):
    half, block, sums, sizes, words = _oracle_operator(genset, op.n, op.shape, op.window.radius)
    assert op.words_used == words
    assert [tuple(p) for p in op.window.points] == half
    assert op.window.size == len(half) == sizes.sum()
    assert np.array_equal(dense_orbit_sums(op), sums)
    assert np.array_equal(op.orbit_sizes, sizes)
    assert op.max_diagonal == block.diagonal().max()
    assert op.symmetry_order == len(symmetries(genset))
    classes = _oracle_classes(genset)
    orbit = orbit_numbers(half, square_symmetries(genset.matrices), classes)
    assert op.block_starts == _oracle_block_starts(half, orbit, classes)
    _assert_no_entry_crosses_a_block(op)


def _assert_no_entry_crosses_a_block(op):
    """Every entry of K lies in the block of its row, and the entries run block by block."""
    block_of = np.repeat(np.arange(len(op.block_starts) - 1), np.diff(op.block_starts))
    assert op.block_starts[0] == 0 and op.block_starts[-1] == len(op.orbit_sizes)
    assert np.all(np.diff(op.block_starts) > 0)
    assert np.array_equal(block_of[op.entries.rows], block_of[op.entries.columns])


@pytest.mark.parametrize(
    "matrices, classes",
    [
        ("sanov", 2),
        ("rank-one", 2),
        ((((2, 1), (1, 1)),), 1),
        ((((2, 1), (1, 1)), ((1, 1), (0, 1))), 1),
        # mod 2 each letter fixes one of (0, 1) and (1, 0) and moves the other to (1, 1)
        ((((1, 1), (0, 1)), ((1, 0), (1, 1))), 1),
    ],
    ids=["sanov", "rank-one", "cat-map", "no-symmetry", "elementary-pair"],
)
@pytest.mark.parametrize("n, shape", [(1, "sphere"), (2, "ball")])
def test_no_entry_of_k_crosses_a_class(matrices, classes, n, shape):
    # the full window's count matrix, from the oracle alone: no word takes a
    # point of one class to a point of another, and the orbit sums keep that
    genset = build_torus_genset(matrices)
    window, counts, _ = full_window_counts(genset, n, shape, 4)
    oracle = _oracle_classes(genset)
    assert len(set(oracle.values())) == classes
    point_class = np.array([residue_class(oracle, m) for m in window.points])
    hit = np.nonzero(counts)
    assert np.array_equal(point_class[hit[0]], point_class[hit[1]])
    op = window_operator(genset, n, shape, 4)
    assert len(op.block_starts) == classes + 1
    assert _residue_classes(genset, symmetries(genset)).tolist() == [
        oracle[r] for r in ((0, 1), (1, 0), (1, 1))
    ]
    _assert_matches_oracle(op, genset)


def test_mislabelled_orbit_fails_the_block_check():
    # moving the first orbit of the second class into the first puts an
    # entry of K across the boundary, which the check must see
    op = window_operator(build_torus_genset("sanov"), 1, "sphere", 4)
    _assert_no_entry_crosses_a_block(op)
    first, split, last = op.block_starts
    for starts in ((first, split + 1, last), (first, split - 1, last)):
        with pytest.raises(AssertionError):
            _assert_no_entry_crosses_a_block(replace(op, block_starts=starts))


@pytest.mark.parametrize("radius", [1, 3])
@pytest.mark.parametrize("shape", ["sphere", "ball"])
@pytest.mark.parametrize("n", [1, 2])
def test_window_operator_matches_brute_force_oracle(n, shape, radius):
    genset = build_torus_genset("sanov")
    _assert_matches_oracle(window_operator(genset, n, shape, radius), genset)


@pytest.mark.parametrize("shape", ["sphere", "ball"])
def test_window_operator_without_symmetry_is_the_half_block(shape):
    genset = build_torus_genset((((2, 1), (1, 1)), ((1, 1), (0, 1))))
    op = window_operator(genset, 1, shape, 4)
    _assert_matches_oracle(op, genset)
    assert op.symmetry_order == 1 and set(op.orbit_sizes) == {1}


@pytest.mark.parametrize("shape", ["sphere", "ball"])
def test_window_operator_is_symmetric(shape):
    genset = build_torus_genset("sanov")
    op = window_operator(genset, 1, shape, 6)
    dense = dense_orbit_sums(op)
    assert np.array_equal(dense, dense.T)
    assert op.shape == shape
    assert op.words_used == word_counts(3, 1)[0 if shape == "sphere" else 1]
    _assert_matches_oracle(op, genset)


def test_ball_operator_is_affine_in_sphere_operator():
    # counts: the ball adds the empty word, which fixes every point, so
    # each orbit O gains |O| on its diagonal, and the n = 1 ball window is
    # exactly (I + 4 A_sphere) / 5
    genset = build_torus_genset("sanov")
    for radius in (1, 4, 5, 8, 16, 64):
        sphere = window_operator(genset, 1, "sphere", radius)
        ball = window_operator(genset, 1, "ball", radius)
        assert np.array_equal(ball.orbit_sizes, sphere.orbit_sizes)
        expected = np.diag(sphere.orbit_sizes) + dense_orbit_sums(sphere)
        assert np.array_equal(dense_orbit_sums(ball), expected)
        assert (ball.words_used, sphere.words_used) == (5, 4)
        assert ball.max_diagonal == 1 + sphere.max_diagonal
        if radius == 5:
            _assert_matches_oracle(sphere, genset)
            _assert_matches_oracle(ball, genset)


def test_window_operator_rejects_bad_arguments():
    genset = build_torus_genset("sanov")
    with pytest.raises(ValueError):
        window_operator(genset, -1, "sphere", 4)
    with pytest.raises(ValueError):
        window_operator(genset, 1, "disk", 4)
    with pytest.raises(ValueError):
        window_operator(genset, 1, "sphere", 0)


def test_window_operator_radius_zero_word_is_identity():
    genset = build_torus_genset("sanov")
    op = window_operator(genset, 0, "sphere", 3)
    assert np.array_equal(dense_orbit_sums(op), np.diag(op.orbit_sizes))
    assert op.max_diagonal == 1
    _assert_matches_oracle(op, genset)


def test_window_operator_overflow_guard():
    big = 2**61
    genset = build_torus_genset((((1, big), (0, 1)),))
    with pytest.raises(OverflowError):
        window_operator(genset, 1, "sphere", 2)


def test_window_overflow_guard_is_exact_where_int64_wraps():
    # 3 * (b + 1) = 2**64 + 5, which int64 arithmetic wraps to 5
    b = (2**64 + 2) // 3
    genset = build_torus_genset((((1, b), (0, 1)), ((1, 0), (2, 1))))
    with pytest.raises(OverflowError):
        window_operator(genset, 1, "sphere", 3)
    window_operator(genset, 0, "sphere", 3)


def test_window_operator_rejects_products_past_int64():
    # length-2 products reach 2**80, so the walk runs on Python ints
    genset = build_torus_genset((((1, 2**40), (0, 1)), ((1, 0), (2**40, 1))))
    with pytest.raises(OverflowError):
        window_operator(genset, 2, "ball", 4)


# Sets whose words fix pairs +-m in every way the diagonal rule separates:
# det -1 matrices (drawn by _unimodular from the swap), the quarter turn,
# whose square is -I, and commuting pairs that are not free.
_diagonal_sets = st.one_of(
    _generator_lists,
    st.just((_QUARTER,)),
    _unimodular.map(lambda m: (_QUARTER, m)),
)


@settings(deadline=None, max_examples=40)
@given(
    _diagonal_sets,
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["sphere", "ball"]),
    st.integers(min_value=1, max_value=64),
)
# both length-2 words are -I, which fixes every pair
@example((_QUARTER,), 2, "sphere", 3)
# -[[1, 1], [0, 1]] maps (0, 1) to -(0, 1), and fixes no pair with sign +
@example((((-1, -1), (0, -1)),), 1, "sphere", 2)
# both words fix the pair +-(1, 2) alone, which lies just outside radius 1
@example((((3, 4), (-1, -1)),), 1, "sphere", 1)
@example((((3, 4), (-1, -1)),), 1, "sphere", 2)
def test_max_diagonal_from_the_words_matches_the_oracle(matrices, n, shape, radius):
    try:
        genset = build_torus_genset(matrices)
    except ValueError:
        assume(False)
    words = _window_words(genset, n, shape, radius)
    assert _max_diagonal(words, radius) == diagonal_counts(genset, n, shape, radius).max()


@pytest.mark.parametrize(
    "matrices",
    ["sanov", "rank-one", (_QUARTER,), (((1, 1), (1, 0)),), (((1, 1), (0, 1)), ((1, 2), (0, 1)))],
    ids=["sanov", "rank-one", "quarter-turn", "det-minus-one", "commuting"],
)
@pytest.mark.parametrize("radius", [1, 2, 4])
def test_oracle_diagonal_is_the_dense_diagonal(matrices, radius):
    genset = build_torus_genset(matrices)
    for n, shape in ((1, "sphere"), (2, "ball")):
        window, counts, _ = full_window_counts(genset, n, shape, radius)
        _, block = half_block(window, counts)
        assert np.array_equal(diagonal_counts(genset, n, shape, radius), block.diagonal())


@pytest.mark.parametrize(
    "matrices, n, shape, radius, empty_rows",
    [
        ("sanov", 2, "ball", 6, 0),
        # boundary orbits with no image inside the window, the last one among them
        ("rank-one", 2, "sphere", 8, 11),
        ((((2, 1), (1, 1)),), 2, "sphere", 1, 2),  # C = 0
    ],
    ids=["sanov", "rank-one", "empty"],
)
def test_exact_product_matches_the_dense_matrix(matrices, n, shape, radius, empty_rows):
    op = window_operator(build_torus_genset(matrices), n, shape, radius)
    dense = dense_orbit_sums(op)
    assert np.array_equal(dense, dense.T)
    assert np.count_nonzero(~dense.any(axis=1)) == empty_rows
    assert op.entries.nnz == np.count_nonzero(dense)
    # sorted by row, then column, each entry once
    keys = op.entries.rows * len(op.orbit_sizes) + op.entries.columns
    assert np.all(np.diff(keys) > 0)
    y = np.random.default_rng(0).integers(-(2**24), 2**24, len(op.orbit_sizes))
    num, den = _python_int_quotient(op, y)
    assert rayleigh_certificate(op, y) == Fraction(num, op.words_used * den)


def _python_int_product(op, y) -> list[int]:
    """K y from the dense orbit sums, every product and sum in Python ints."""
    ys = y.tolist()
    return [sum(k * v for k, v in zip(row, ys)) for row in dense_orbit_sums(op).tolist()]


def _python_int_quotient(op, y):
    """y^T K y and y^T D y, every product and sum in Python ints."""
    ys = y.tolist()
    num = sum(v * k for v, k in zip(ys, _python_int_product(op, y)))
    den = sum(d * v * v for d, v in zip(op.orbit_sizes.tolist(), ys))
    return num, den


def _quotient(op) -> np.ndarray:
    """The dense orbit quotient D^(-1/2) K D^(-1/2) / words_used."""
    scale = 1.0 / np.sqrt(op.orbit_sizes)
    return scale[:, None] * dense_orbit_sums(op) * scale[None, :] / op.words_used


def test_norm_estimate_matches_dense_eigenvalues():
    genset = build_torus_genset("sanov")
    for shape, radius in (("sphere", 3), ("ball", 4), ("sphere", 6)):
        op = window_operator(genset, 1, shape, radius)
        _, counts, words = full_window_counts(genset, 1, shape, radius)
        exact = float(np.max(np.abs(np.linalg.eigvalsh(counts / words))))
        est = norm_certificate(op).estimate
        assert est <= exact + 1e-12, "estimates never exceed the true norm"
        assert est >= exact - 1e-6


@pytest.mark.parametrize("radius", [8, 16, 32])
@pytest.mark.parametrize("shape", ["sphere", "ball"])
@pytest.mark.parametrize("n", [1, 2])
def test_lanczos_ritz_value_matches_the_dense_quotient(n, shape, radius):
    op = window_operator(build_torus_genset("sanov"), n, shape, radius)
    bound = norm_certificate(op)
    assert bound.matvecs > 0
    ritz = float(bound.certificate) + bound.ritz_minus_certificate
    assert abs(ritz - np.linalg.eigvalsh(_quotient(op))[-1]) <= 1e-9
    assert bound.ritz_residual <= 2 * LANCZOS_TOL * ritz


def test_norm_estimate_rank_one_reaches_exact_eigenvalue_one():
    op = window_operator(build_torus_genset("rank-one"), 1, "sphere", 6)
    eigs = np.linalg.eigvalsh(_quotient(op))
    assert math.isclose(float(np.max(eigs)), 1.0, abs_tol=1e-12)
    bound = norm_certificate(op)
    # the fixed frequency (0, 1) gives diagonal entry 1, the closed form
    assert bound.estimate == 1.0 and bound.certificate == 1
    assert bound.matvecs == 0


def test_norm_estimate_is_deterministic():
    op = window_operator(build_torus_genset("sanov"), 1, "sphere", 8)
    a = norm_certificate(op, seed=42).estimate
    b = norm_certificate(op, seed=42).estimate
    assert a == b
    c = norm_certificate(op, seed=7).estimate
    assert abs(a - c) < 1e-5, "different seeds converge to the same norm"


def test_seeded_start_is_splitmix64():
    # the first outputs of SplitMix64 from seeds 0 and 1234567 in its
    # reference implementation, as 1 + their top 53 bits / 2^53 rounded to
    # a float
    for seed, outputs in [
        (0, [0xE220A8397B1DCDAF]),
        (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423]),
    ]:
        expected = [float(1 + Fraction(x >> 11, 2**53)) for x in outputs]
        assert _seeded_start(seed, len(outputs)).tolist() == expected


def test_seeded_start_is_deterministic_and_in_one_to_two():
    big = 2**64 + 1
    for seed in (0, 1, 2, 42, 2**64 - 1, big, 2**64 * 3 + 7, 2**200):
        start = _seeded_start(seed, 1000)
        assert start.dtype == np.float64 and start.shape == (1000,)
        assert np.array_equal(start, _seeded_start(seed, 1000))
        assert (1.0 <= start).all() and (start < 2.0).all()
        # a prefix of a longer draw
        assert np.array_equal(start[:10], _seeded_start(seed, 10))
    assert _seeded_start(7, 0).shape == (0,)
    # every 64-bit limb of the seed is mixed in
    for a, b in [(1, 2), (1, big), (0, 2**64), (5, 2**128 + 5)]:
        assert not np.array_equal(_seeded_start(a, 16), _seeded_start(b, 16))
    with pytest.raises(ValueError, match="non-negative"):
        _seeded_start(-1, 4)


def test_norm_estimate_raises_without_convergence(monkeypatch):
    monkeypatch.setattr(lps.torus, "LANCZOS_MAX_STEPS", 2)
    op = window_operator(build_torus_genset("sanov"), 1, "sphere", 8)
    best = float(Fraction(op.max_diagonal, op.words_used))
    assert best > 0
    with pytest.raises(LanczosConvergenceError, match=re.escape(f"(best exact bound {best})")):
        norm_certificate(op)


def _per_step_lanczos(matvec, start):
    """Lanczos with the stopping test at every step, as a reference for `_lanczos`.

    Returns what `_lanczos` returns, from one tridiagonal solve per step.
    """
    q, previous, b = start / np.linalg.norm(start), 0.0, 0.0
    basis = []
    tri = np.zeros((lps.torus.LANCZOS_MAX_STEPS + 1,) * 2)
    for k in range(lps.torus.LANCZOS_MAX_STEPS):
        basis.append(q)
        w = matvec(q) - b * previous
        tri[k, k] = q @ w
        w -= tri[k, k] * q
        b = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(tri[: k + 1, : k + 1])
        if abs(b * s[-1, -1]) <= LANCZOS_TOL * abs(theta[-1]):
            z = sum(c * v for c, v in zip(s[:, -1], basis))
            return float(theta[-1]), z / np.linalg.norm(z), k + 1
        tri[k + 1, k] = tri[k, k + 1] = b
        previous, q = q, w / b
    return None


def _certify_with(monkeypatch, lanczos, op, start=None):
    """norm_certificate run with `lanczos` in place of `_lanczos`, and what that returned.

    The second item lists what each block's solve returned, in block
    order; it is empty when no solve ran.
    """
    returned = []

    def recorded(matvec, start):
        returned.append(lanczos(matvec, start))
        return returned[-1]

    monkeypatch.setattr(lps.torus, "_lanczos", recorded)
    return norm_certificate(op, start=start), returned


def _assert_blocked_agrees_with_per_step(monkeypatch, op, start=None):
    bound, blocked = _certify_with(monkeypatch, _lanczos, op, start)
    reference, per_step = _certify_with(monkeypatch, _per_step_lanczos, op, start)
    if not blocked:
        assert not per_step
        assert bound.certificate == reference.certificate
        return bound
    # one solve per block, each with one product per step and one for its
    # Ritz residual
    assert len(blocked) == len(per_step) == len(bound.blocks) == len(op.block_starts) - 1
    assert [(orbits, steps) for orbits, steps in bound.blocks] == [
        (last - first, solved[2])
        for first, last, solved in zip(op.block_starts, op.block_starts[1:], blocked)
    ]
    assert bound.matvecs == sum(steps + 1 for _, steps in bound.blocks)
    for (orbits, steps), (ritz, _, _), (ref_ritz, _, ref_steps) in zip(
        bound.blocks, blocked, per_step
    ):
        # each block's solve stops at the first check at or after the
        # per-step stop: the end of a block of tests, a breakdown or the step
        # equal to the block's orbits (both only once the Krylov space of
        # the block is exhausted) or the step limit
        assert ref_steps <= steps
        assert (
            steps % LANCZOS_CHECK_STEPS == 0
            or steps <= orbits
            or steps == lps.torus.LANCZOS_MAX_STEPS
        )
        assert abs(ritz - ref_ritz) <= 1e-10 * abs(ref_ritz)
    assert abs(bound.certificate - reference.certificate) <= Fraction(1, 10**12)
    # the pair returned is the top block's, and the one that passed the test
    top = max(ritz for ritz, _, _ in blocked)
    assert float(bound.certificate) + bound.ritz_minus_certificate == pytest.approx(top, abs=1e-15)
    assert bound.ritz_residual <= 2 * LANCZOS_TOL * abs(top)
    return bound


@pytest.mark.parametrize("radius", [8, 16, 32])
@pytest.mark.parametrize("shape", ["sphere", "ball"])
@pytest.mark.parametrize("n", [1, 2])
def test_blocked_stopping_test_matches_per_step_lanczos(monkeypatch, n, shape, radius):
    op = window_operator(build_torus_genset("sanov"), n, shape, radius)
    bound = _assert_blocked_agrees_with_per_step(monkeypatch, op)
    # no breakdown: each block's solve ran to the end of a block of tests,
    # or at R 8 (blocks of 16 and 7 orbits) to the block's dimension, where
    # the Krylov space is exhausted
    assert len(bound.blocks) == 2
    for orbits, steps in bound.blocks:
        assert steps % LANCZOS_CHECK_STEPS == 0 or steps == orbits <= 16


def test_blocked_lanczos_stops_at_the_check_after_a_mid_block_pass(monkeypatch):
    op = window_operator(build_torus_genset("sanov"), 1, "sphere", 16)
    bound = _assert_blocked_agrees_with_per_step(monkeypatch, op)
    _, per_step = _certify_with(monkeypatch, _per_step_lanczos, op)
    # per-step testing passes inside a block of tests in every block of K;
    # the blocked solve runs to the end of that block of tests
    for (_, steps), (_, _, ref_steps) in zip(bound.blocks, per_step):
        assert ref_steps % LANCZOS_CHECK_STEPS != 0
        assert steps == -(-ref_steps // LANCZOS_CHECK_STEPS) * LANCZOS_CHECK_STEPS


def _path_adjacency(v: np.ndarray) -> np.ndarray:
    """The adjacency matrix of the path 0 - 1 - ... - len(v) - 1 times v."""
    out = np.zeros_like(v)
    out[1:] += v[:-1]
    out[:-1] += v[1:]
    return out


def test_blocked_lanczos_checks_at_a_breakdown(monkeypatch):
    # From e_0 the path's Krylov vectors are e_0, e_1, e_2, ... with every
    # alpha 0 and beta 1, all exact in binary, so on three vertices beta is
    # exactly 0 at step 3, inside the first block of tests.
    start = np.array([1.0, 0.0, 0.0])
    ritz, z, steps = _lanczos(_path_adjacency, start)
    assert steps == _per_step_lanczos(_path_adjacency, start)[2] == 3 < LANCZOS_CHECK_STEPS
    assert ritz == pytest.approx(math.sqrt(2), abs=1e-15)
    # the basis vectors e_i are exact in float32
    assert np.allclose(z, [0.5, math.sqrt(0.5), 0.5], rtol=0, atol=1e-15)
    # Sanov n 2 ball R 1 has two orbits, one in each class mod 2, and the
    # diagonal quotient (5/17) I, so each block's beta is exactly 0 at step 1
    op = window_operator(build_torus_genset("sanov"), 2, "ball", 1)
    bound = _assert_blocked_agrees_with_per_step(monkeypatch, op, start=np.array([1.0, 0.5]))
    assert (bound.orbits, bound.blocks) == (2, ((1, 1), (1, 1)))
    assert (bound.matvecs, bound.certificate) == (4, Fraction(5, 17))
    # a multiple of the identity breaks down at once, on the step that passes
    ritz, z, steps = _lanczos(lambda v: 2.0 * v, np.ones(4))
    assert (ritz, steps) == (2.0, 1)
    assert z.tolist() == [0.5] * 4


def test_lanczos_stops_where_the_krylov_space_is_exhausted():
    # Two orbits and the quotient [[0.6, 0.4], [0.4, 0.2]]: the Krylov space
    # is exhausted at step 2, where rounding leaves beta near 1e-15 at some
    # seeds.  Steps built from that rounding noise put ghost copies of theta
    # in T_k, whose Ritz vectors can cancel in the basis; run on to step 8,
    # the certificate fell as low as 0.76 against the top eigenvalue 0.847.
    genset = build_torus_genset([((1, -1), (1, 0)), ((1, 1), (-1, 0))])
    op = window_operator(genset, 1, "ball", 1)
    top = np.linalg.eigvalsh(_quotient(op))[-1]
    for seed in range(64):
        bound = norm_certificate(op, seed=seed)
        assert (bound.orbits, bound.matvecs) == (2, 3)
        assert bound.ritz_residual <= 2 * LANCZOS_TOL * top
        assert abs(float(bound.certificate) - top) <= 1e-12


# Products of these have determinant +-1; the swap makes odd counts -1.
_ELEMENTARY = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, -1), (0, 1)), ((0, 1), (1, 0)))
_unimodular = st.lists(st.sampled_from(_ELEMENTARY), min_size=1, max_size=4).map(
    lambda ms: reduce(np.matmul, ms, np.eye(2, dtype=int)).tolist()
)
# The subgroups of the square's signed permutations modulo +-I.
_SUBGROUPS = (
    (_IDENTITY,),
    (_IDENTITY, _SWAP),
    (_IDENTITY, _FLIP),
    (_IDENTITY, _QUARTER),
    (_IDENTITY, _SWAP, _FLIP, _QUARTER),
)


def _closed_under(matrices, group):
    """The conjugates P^T g P over the group, one of each inverse pair."""
    closed = []
    for g in matrices:
        for p in group:
            h = (np.array(p).T @ np.array(g) @ np.array(p)).tolist()
            (a, b), (c, d) = h
            det = a * d - b * c
            if h not in closed and [[det * d, -det * b], [-det * c, det * a]] not in closed:
                closed.append(h)
    return closed


_windows = st.tuples(
    st.builds(
        _closed_under,
        st.lists(_unimodular, min_size=1, max_size=2),
        st.sampled_from(_SUBGROUPS),
    ),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["sphere", "ball"]),
    st.integers(min_value=1, max_value=6),
)


def _oracle_case(matrices, n, shape, radius):
    """The operator and the dense full-window matrix A of one drawn case.

    On the way it checks, against the oracle, that no word takes a point
    of one class mod 2 to a point of another, and that K keeps its blocks.
    """
    try:
        genset = build_torus_genset(matrices)
    except ValueError:
        assume(False)
    window, counts, words = full_window_counts(genset, n, shape, radius)
    classes = _oracle_classes(genset)
    point_class = np.array([residue_class(classes, m) for m in window.points])
    hit = np.nonzero(counts)
    assert np.array_equal(point_class[hit[0]], point_class[hit[1]])
    op = window_operator(genset, n, shape, radius)
    _assert_no_entry_crosses_a_block(op)
    assert len(op.block_starts) == len(set(classes.values())) + 1
    return op, counts / words


@settings(deadline=None, max_examples=40)
@given(_windows)
@example(([((1, 2), (0, 1)), ((1, 0), (2, 1))], 2, "ball", 6))  # Sanov, order 4
def test_reduced_block_keeps_the_window_norm(case):
    op, full = _oracle_case(*case)
    eigs = np.linalg.eigvalsh(full)
    # Perron-Frobenius: the norm of the nonnegative window is its top eigenvalue
    assert eigs[-1] >= -eigs[0] - 1e-12
    reduced = np.linalg.eigvalsh(_quotient(op))
    assert abs(reduced[-1] - eigs[-1]) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(_windows)
@example(([((1, 2), (0, 1)), ((1, 0), (2, 1))], 1, "sphere", 1))  # I / 2: per-step stops at step 1
@example(([((1, -1), (1, 0)), ((1, 1), (-1, 0))], 1, "ball", 1))  # beta 5e-15, not 0, at step 2 of 2
def test_blocked_stopping_test_matches_per_step_on_drawn_windows(case):
    matrices, n, shape, radius = case
    try:
        genset = build_torus_genset(matrices)
    except ValueError:
        assume(False)
    with pytest.MonkeyPatch.context() as patch:
        _assert_blocked_agrees_with_per_step(patch, window_operator(genset, n, shape, radius))


@settings(deadline=None, max_examples=40)
@given(_windows)
@example(([((2, 1), (1, 1))], 2, "sphere", 1))  # no image stays in the window: C = 0
def test_certificate_never_exceeds_the_dense_norm(case):
    op, full = _oracle_case(*case)
    bound = norm_certificate(op)
    assert Fraction(bound.estimate) <= bound.certificate
    assert bound.certificate <= np.linalg.eigvalsh(full)[-1] + 1e-12


@pytest.mark.parametrize(
    "n, shape, radius", [(1, "sphere", 8), (1, "sphere", 32), (2, "sphere", 32), (2, "ball", 16)]
)
def test_certificate_is_the_rayleigh_quotient_at_the_rounded_top_block(n, shape, radius):
    op = window_operator(build_torus_genset("sanov"), n, shape, radius)
    bound, quotient = norm_certificate(op), _quotient(op)
    spans = list(zip(op.block_starts, op.block_starts[1:]))
    tops = [np.linalg.eigvalsh(quotient[a:b, a:b])[-1] for a, b in spans]
    # K is zero between blocks, so the largest of the blocks' top
    # eigenvalues is the window's
    assert max(tops) == pytest.approx(np.linalg.eigvalsh(quotient)[-1], abs=1e-12)
    first, last = spans[int(np.argmax(tops))]
    assert _top_block(bound, op) == (first, last)
    # every block's unit Ritz vector sits in place
    for a, b in spans:
        assert np.linalg.norm(bound.ritz_vector[a:b]) == pytest.approx(1.0, abs=1e-12)
    u = np.abs(bound.ritz_vector[first:last]) / np.sqrt(op.orbit_sizes[first:last])
    y = np.zeros(len(op.orbit_sizes), dtype=np.int64)
    y[first:last] = np.rint(u * ((2**24 - 1) / u.max()))
    assert bound.certificate == rayleigh_certificate(op, y)
    assert bound.certificate <= Fraction(max(tops)) + Fraction(1, 10**12)


def _whole_window_certificate(op, seed=42):
    """The certificate of one Lanczos run on the whole window, every entry rounded."""
    ritz, z, steps, residual = _whole_window_solve(op, seed)
    u = np.abs(z) / np.sqrt(op.orbit_sizes)
    y = np.rint(u * ((2**24 - 1) / u.max())).astype(np.int64)
    return rayleigh_certificate(op, y), ritz, z, steps, residual


@pytest.mark.parametrize("radius", [4, 16, 64, 256])
@pytest.mark.parametrize(
    "matrices",
    [(((2, 1), (1, 1)),), (((2, 1), (1, 1)), ((1, 1), (0, 1)))],
    ids=["cat-map", "no-symmetry"],
)
def test_one_class_set_solves_the_whole_window_bit_for_bit(matrices, radius):
    # [[2, 1], [1, 1]] permutes the nonzero residues mod 2, so K is one block
    # and the certificate is the whole-window solve's, bit for bit
    op = window_operator(build_torus_genset(matrices), 1, "sphere", radius)
    assert op.block_starts == (0, len(op.orbit_sizes))
    certificate, ritz, z, steps, residual = _whole_window_certificate(op)
    bound = norm_certificate(op)
    assert bound.certificate == max(certificate, Fraction(op.max_diagonal, op.words_used))
    assert (bound.matvecs, bound.blocks) == (steps + 1, ((len(op.orbit_sizes), steps),))
    assert bound.ritz_residual == residual
    assert bound.ritz_minus_certificate == float(Fraction(ritz) - certificate)
    assert bound.ritz_vector.tobytes() == z.tobytes()


def test_corrupted_certificate_vector_fails():
    op = window_operator(build_torus_genset("sanov"), 2, "ball", 8)
    top = np.abs(np.linalg.eigh(_quotient(op))[1][:, -1]) / np.sqrt(op.orbit_sizes)
    x = np.rint(top * ((2**24 - 1) / top.max())).astype(np.int64)
    good = rayleigh_certificate(op, x)
    assert abs(float(good) - norm_certificate(op).estimate) < 1e-12
    peak = int(np.argmax(x))
    negated, dropped = x.copy(), x.copy()
    negated[peak] = -x[peak]
    dropped[peak] = 0
    assert rayleigh_certificate(op, negated) < good
    assert rayleigh_certificate(op, dropped) < good
    for bad in (x.astype(float), np.zeros_like(x)):
        with pytest.raises(ValueError):
            rayleigh_certificate(op, bad)


@pytest.mark.parametrize("bound", [1, 2**12 - 1, 2**40, 2**62 - 1, 2**63 - 1])
def test_exact_dot_matches_python_ints(bound):
    rng = np.random.default_rng(bound % 1000)
    y = rng.integers(-(2**63) + 1, 2**63, 3000)
    v = rng.integers(-bound, bound, 3000, endpoint=True)
    v[:2] = bound, -bound
    expected = sum(a * b for a, b in zip(y.tolist(), v.tolist()))
    assert _exact_dot(y, v, bound) == expected
    # the largest limbs and entries, all of one sign, sum far past int64
    top = np.full(3000, 2**63 - 1)
    assert _exact_dot(top, np.full(3000, bound), bound) == 3000 * (2**63 - 1) * bound


def test_certificate_sums_are_exact_past_int64():
    # Sanov n 8: 8748 words, so |W| max|O| (2^24 - 1)^2 is past 2^63
    op = window_operator(build_torus_genset("sanov"), 8, "sphere", 32)
    peak = 2**24 - 1
    assert op.words_used * int(op.orbit_sizes.max()) * peak * peak >= 2**63
    rng = np.random.default_rng(3)
    size = len(op.orbit_sizes)
    for y in (np.full(size, peak), rng.integers(-peak, peak + 1, size)):
        num, den = _python_int_quotient(op, y)
        assert rayleigh_certificate(op, y) == Fraction(num, op.words_used * den)
    assert _python_int_quotient(op, np.full(size, peak))[0] >= 2**63
    # and the certificate itself
    bound = norm_certificate(op)
    assert bound.matvecs > 0 and bound.certificate > Fraction(op.max_diagonal, op.words_used)


def test_certificate_guard_bounds_the_product_with_k():
    op = window_operator(build_torus_genset("sanov"), 1, "sphere", 8)
    row_sum = op.words_used * int(op.orbit_sizes.max())
    # the largest constant vector for which K y stays in int64; its
    # products y[O] (K y)[O] are far past it
    peak = (2**63 - 1) // row_sum
    y = np.full(len(op.orbit_sizes), peak)
    assert peak * max(_python_int_product(op, y)) >= 2**63
    num, den = _python_int_quotient(op, y)
    assert rayleigh_certificate(op, y) == Fraction(num, op.words_used * den)
    for bad in (y + 1, np.full(len(op.orbit_sizes), np.iinfo(np.int64).min)):
        with pytest.raises(OverflowError):
            rayleigh_certificate(op, bad)


@pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(2, 3), Fraction(1, 10), Fraction(7, 10)])
def test_float_bound_never_rounds_up(value):
    f = _float_at_most(value)
    assert Fraction(f) <= value < Fraction(math.nextafter(f, math.inf))


def test_public_names_resolve_once_in_sorted_order():
    assert all(hasattr(lps, name) for name in lps.__all__)
    assert lps.__all__ == sorted(set(lps.__all__))


def test_lps_runs_without_scipy():
    # importing lps and running the full report and verify torus loads no
    # scipy module, nor numpy.ma, which numpy imports lazily on some calls
    # (np.unique without a return_* flag among them) at a cost of about 5 ms,
    # nor numpy.random, which numpy 2 imports lazily with its bit generators
    # at a cost of about 6 ms (numpy 1 imports it with numpy itself)
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import contextlib, io, sys\n"
        "import lps, lps.cli\n"
        "loaded = set(sys.modules)\n"
        "lazy = lambda: [m for m in sys.modules\n"
        "                if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']\n"
        "                or m.split('.')[:2] == ['numpy', 'random'] and m not in loaded]\n"
        "print(lazy())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [lps.cli.main(['report', '--seed', '42']), lps.cli.main(['verify', 'torus'])]\n"
        "print(codes, lazy())\n"
        "import numpy\n"
        "numpy.unique(numpy.arange(3))\n"
        "print('numpy.ma' in sys.modules)\n"
        "numpy.random.default_rng(0)\n"
        "print('numpy.random' in loaded or 'numpy.random' in lazy())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    # the last two lines are the controls: the probe does see numpy.ma and,
    # on numpy 2, numpy.random load (on numpy 1 `loaded` already holds it)
    assert out.stdout.splitlines() == ["[]", "[0, 0] []", "True", "True"]


def test_import_lps_loads_every_traced_layer():
    # the benchmark's tracer reads these modules from sys.modules after
    # importing lps alone, so none of them may be folded away or loaded lazily
    src = str(Path(__file__).resolve().parent.parent / "src")
    layers = ("exact", "formulas", "quaternions", "sphere", "torus", "words")
    probe = (
        "import sys\n"
        "import lps\n"
        f"print([layer for layer in {layers!r} if 'lps.' + layer not in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert out.stdout.splitlines() == ["[]"]


def test_half_window_holds_only_its_sieve():
    # 257 x 513 mask bytes; its 79,792 points as int64 pairs would take 1.2 MB
    window = HalfWindow(256)
    held = [value for value in vars(window).values() if isinstance(value, np.ndarray)]
    assert sum(array.nbytes for array in held) < 0.2 * 2**20
    assert window.points.shape == (window.size, 2)


def test_window_operator_keeps_only_its_entries():
    # The Sanov n 2 ball window at R 256 has 122,337 entries, 2.8 MB as int64
    # triples.  Building it with a 79,792-row point array, a list of
    # per-word int64 keys and np.unique of their concatenation peaked at 8.9 MB.
    genset = build_torus_genset("sanov")
    tracemalloc.start()
    try:
        op = window_operator(genset, 2, "ball", 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.entries.nnz == 122337
    assert peak < 8 * 2**20


def test_lanczos_basis_is_stored_in_float32(monkeypatch):
    # The Sanov n 1 sphere R 256 solves set the peak memory of lps report.
    # A float64 basis of `steps` vectors of `orbits` entries alone takes
    # steps * orbits * 8 bytes (56 * 13,333 * 8 = 6.0 MB for the larger
    # block), so no solve that keeps one can peak below that; a float32
    # basis takes half of it, and T_k, the matvec's temporaries and z fit in
    # the other half.  Each block's solve holds only its own basis.
    op = window_operator(build_torus_genset("sanov"), 1, "sphere", 256)
    measured = []

    def traced(matvec, start):
        tracemalloc.start()
        try:
            solved = _lanczos(matvec, start)
            measured.append((tracemalloc.get_traced_memory()[1], solved[2], len(start)))
        finally:
            tracemalloc.stop()
        return solved

    monkeypatch.setattr(lps.torus, "_lanczos", traced)
    bound = norm_certificate(op)
    assert [(steps, orbits) for _, steps, orbits in measured] == [(56, 13333), (56, 6616)]
    assert bound.blocks == ((13333, 56), (6616, 56)) and bound.orbits == 19949
    for peak, steps, orbits in measured:
        assert peak < steps * orbits * 8


def _whole_window_solve(op, seed=42):
    """One `_lanczos` run on the whole orbit quotient from the seeded start, and its residual."""
    rows, cols, data = op.entries
    scale = 1.0 / np.sqrt(op.orbit_sizes)
    weights = data * (scale[rows] * scale[cols] / op.words_used)

    def quotient(v):
        return np.bincount(rows, weights=weights * v[cols], minlength=len(scale))

    ritz, z, steps = _lanczos(quotient, _seeded_start(seed, len(scale)))
    return ritz, z, steps, float(np.linalg.norm(quotient(z) - ritz * z))


@pytest.mark.parametrize("radius, steps", [(256, 72), (512, 88)])
def test_float32_basis_keeps_the_residual_of_long_solves(radius, steps):
    # The float32 basis puts a floor of about 2^-24 theta under the residual
    # of the returned z, and its rounding error grows with the steps summed.
    # Sanov n 1 sphere R 256 is the largest window at the CLI's default
    # windows and R 512 a larger one past them.  Solved whole, they take
    # `steps` steps, the longest solves here; both keep the converged
    # residual bound.  Solved block by block, as norm_certificate solves
    # them, each block takes fewer steps and keeps the bound too.
    op = window_operator(build_torus_genset("sanov"), 1, "sphere", radius)
    ritz, _, whole_steps, residual = _whole_window_solve(op)
    assert whole_steps == steps
    assert residual <= 2 * LANCZOS_TOL * ritz
    bound = norm_certificate(op)
    assert all(block_steps < steps for _, block_steps in bound.blocks)
    top = float(bound.certificate) + bound.ritz_minus_certificate
    assert top == pytest.approx(ritz, rel=1e-12)
    assert bound.ritz_residual <= 2 * LANCZOS_TOL * top


def test_discrepancy_check_sanov_small_windows():
    genset = build_torus_genset("sanov")
    table = torus_discrepancy_check(genset, 1, "sphere", [4, 8, 16])
    assert table.passed
    assert table.theoretical == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    assert [row.radius for row in table.rows] == [4, 8, 16]
    estimates = [row.estimate for row in table.rows]
    assert all(b >= a - 1e-6 for a, b in zip(estimates, estimates[1:]))
    assert all(e <= table.theoretical + 1e-8 for e in estimates)


@pytest.mark.parametrize("n", [1, 2])
def test_ball_window_starts_from_the_sphere_ritz_vector(cold_torus_cache, n):
    genset, radii = build_torus_genset("sanov"), [8, 16, 32]
    ball_alone = torus_discrepancy_check(genset, n, "ball", radii)
    lps.torus.clear_caches()
    sphere = torus_discrepancy_check(genset, n, "sphere", radii)
    ball = torus_discrepancy_check(genset, n, "ball", radii)
    # a ball row does not depend on whether its sphere row ran first
    assert ball == ball_alone and ball.passed
    for radius, s_row, b_row in zip(radii, sphere.rows, ball.rows):
        assert (s_row.bound.start, b_row.bound.start) == ("seeded", "sphere")
        op = window_operator(genset, n, "ball", radius)
        cold = norm_certificate(op)
        assert cold.start == "seeded"
        assert b_row.bound.matvecs <= cold.matvecs
        assert abs(b_row.bound.certificate - cold.certificate) <= Fraction(1, 10**13)
        # still an exact Rayleigh quotient of the ball window itself, at the
        # Ritz vector rounded as norm_certificate rounds it
        y = _rounded_ritz_vector(b_row.bound, op)
        assert b_row.bound.certificate == rayleigh_certificate(op, y)


def _top_block(bound, op):
    """The orbits (first, last) of the block of `op` where `bound`'s Ritz value is largest.

    Each block's Ritz value is the float Rayleigh quotient of its unit
    Ritz vector in the dense orbit quotient of `op`.
    """
    quotient, z = _quotient(op), bound.ritz_vector

    def ritz(span):
        first, last = span
        return z[first:last] @ quotient[first:last, first:last] @ z[first:last]

    return max(zip(op.block_starts, op.block_starts[1:]), key=ritz)


def _rounded_ritz_vector(bound, op):
    """The Ritz vector of `bound` as norm_certificate rounds it for the window `op`.

    Only the top block (`_top_block`) is rounded; every other entry is 0.
    """
    first, last = _top_block(bound, op)
    u = np.abs(bound.ritz_vector[first:last]) / np.sqrt(op.orbit_sizes[first:last])
    y = np.zeros(len(op.orbit_sizes), dtype=np.int64)
    y[first:last] = np.rint(u * ((2**24 - 1) / u.max()))
    return y


# no image of a radius-1 point stays in the window, so C = 0 for the
# sphere, which needs no solve, while the ball holds the identity word
FAR = [((5, 2), (2, 1)), ((1, 2), (2, 5))]


@pytest.mark.parametrize(
    "matrices, radius, settled",
    [("sanov", r, None) for r in (1, 4, 8, 16, 64)]
    # C = 0 leaves the ball the identity word's 1/5; rank-one's diagonal
    # settles the sphere window at its closed form 1, and the ball at 1
    + [(FAR, 1, Fraction(1, 5)), ("rank-one", 1, 1), ("rank-one", 64, 1)],
    ids=[f"sanov-R{r}" for r in (1, 4, 8, 16, 64)] + ["far-R1", "rank-one-R1", "rank-one-R64"],
)
def test_n1_ball_certificate_is_derived_exactly(
    cold_torus_cache, monkeypatch, matrices, radius, settled
):
    # B_1 = (I + (q + 1) A_1) / (q + 2): the ball row is read off the sphere
    # row with no window built, no solve and no exact product of its own
    genset = build_torus_genset(matrices)
    (sphere_row,) = torus_discrepancy_check(genset, 1, "sphere", [radius]).rows
    sphere = sphere_row.bound

    def refuse(*args, **kwargs):
        raise AssertionError("the n = 1 ball window was built or solved")

    with monkeypatch.context() as patch:
        for name in ("window_operator", "_lanczos", "rayleigh_certificate"):
            patch.setattr(lps.torus, name, refuse)
        (row,) = torus_discrepancy_check(genset, 1, "ball", [radius]).rows
    bound, op = row.bound, window_operator(genset, 1, "ball", radius)
    spheres, balls = word_counts(genset.q, 1)
    assert bound.certificate == (1 + spheres * sphere.certificate) / balls
    assert bound.estimate == _float_at_most(bound.certificate)
    if settled is None:
        # the ball window's own exact Rayleigh quotient at the sphere's
        # rounded Ritz vector, whose ball residual is the sphere's rescaled
        assert bound.certificate == rayleigh_certificate(op, _rounded_ritz_vector(sphere, op))
        assert bound.ritz_vector is sphere.ritz_vector and bound.start == "sphere"
        assert bound.ritz_residual == sphere.ritz_residual * spheres / balls
    else:
        assert bound.certificate == settled
        assert bound.certificate == Fraction(op.max_diagonal, op.words_used)
        assert bound.start is None and bound.ritz_residual is None
    # the sphere's sizes carry over: None where it was settled unbuilt
    sizes = (bound.dimension, bound.orbits, bound.symmetry_order)
    assert sizes == (sphere.dimension, sphere.orbits, sphere.symmetry_order)
    if matrices == "rank-one":
        assert sizes == (None, None, None)
    else:
        assert sizes == (op.window.size, len(op.orbit_sizes), op.symmetry_order)
    assert bound.matvecs == 0 and bound.window_ms is None and bound.solve_ms is None


def test_unconverged_sphere_solve_fails_the_n1_ball(cold_torus_cache, monkeypatch):
    # the derived ball row has no solve of its own to fall back on
    calls = []

    def never_converges(matvec, start):
        calls.append(start)

    monkeypatch.setattr(lps.torus, "_lanczos", never_converges)
    with pytest.raises(LanczosConvergenceError):
        torus_discrepancy_check(build_torus_genset("sanov"), 1, "ball", [8])
    assert len(calls) == 1


def test_ball_window_falls_back_to_the_seeded_start(cold_torus_cache, monkeypatch):
    # the far sphere window has C = 0 at n = 2 too and needs no solve,
    # while the ball's identity and single-letter words need one
    far = build_torus_genset(FAR)
    (sphere_row,) = torus_discrepancy_check(far, 2, "sphere", [1]).rows
    (ball_row,) = torus_discrepancy_check(far, 2, "ball", [1]).rows
    assert (sphere_row.bound.matvecs, sphere_row.bound.start) == (0, None)
    assert ball_row.bound.start == "seeded"
    assert ball_row.bound == norm_certificate(window_operator(far, 2, "ball", 1))

    # a sphere solve that does not converge fails the n = 2 ball, as at n = 1
    lps.torus.clear_caches()
    calls = []

    def first_fails(matvec, start):
        calls.append(start)
        return None if len(calls) == 1 else _lanczos(matvec, start)

    monkeypatch.setattr(lps.torus, "_lanczos", first_fails)
    with pytest.raises(LanczosConvergenceError):
        torus_discrepancy_check(build_torus_genset("sanov"), 2, "ball", [8])
    assert len(calls) == 1


def test_block_with_no_entries_keeps_its_start(cold_torus_cache):
    # the far n = 2 sphere window at R 2 has entries in its first class
    # mod 2 alone: the second block is zero, so its solve stops at step 1
    # with its start as Ritz vector, from which the ball's block starts
    far = build_torus_genset(FAR)
    op = window_operator(far, 2, "sphere", 2)
    assert op.block_starts == (0, 2, 3) and op.entries.rows.max() < 2
    (sphere_row,) = torus_discrepancy_check(far, 2, "sphere", [2]).rows
    assert sphere_row.bound.blocks == ((2, 2), (1, 1))
    assert sphere_row.bound.ritz_vector[2:].tolist() == [1.0]
    (ball_row,) = torus_discrepancy_check(far, 2, "ball", [2]).rows
    ball = window_operator(far, 2, "ball", 2)
    assert ball_row.bound.start == "sphere"
    y = _rounded_ritz_vector(ball_row.bound, ball)
    assert ball_row.bound.certificate == rayleigh_certificate(ball, y)
    # a start that vanishes on a block is refused
    with pytest.raises(ValueError, match="vanishes on a block"):
        norm_certificate(ball, start=np.array([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("shape", ["sphere", "ball"])
def test_settled_window_is_never_built(cold_torus_cache, monkeypatch, shape):
    # the rank-one words fix the pair +-(0, 1), so the diagonal is the
    # closed form 1 at every radius and no table, window or solve is needed
    genset, radii = build_torus_genset("rank-one"), [1, 8, 64, 256]
    expected = [norm_certificate(window_operator(genset, 1, shape, r)) for r in radii]

    def refuse(*args, **kwargs):
        raise AssertionError("a settled window was built")

    monkeypatch.setattr(lps.torus, "_square_table", refuse)
    monkeypatch.setattr(lps.torus, "window_operator", refuse)
    monkeypatch.setattr(lps.torus, "_lanczos", refuse)
    table = torus_discrepancy_check(genset, 1, shape, radii)
    assert table.passed
    solve = ("certificate", "matvecs", "start", "ritz_residual", "ritz_minus_certificate")
    for row, built in zip(table.rows, expected):
        # the same certificate, and no solve, as the built window gives
        for name in solve:
            assert getattr(row.bound, name) == getattr(built, name), name
        assert row.bound.certificate == 1 and row.bound.matvecs == 0
        # no window, so no size, orbit count or group order
        assert row.bound.dimension is row.bound.orbits is row.bound.symmetry_order is None
        assert row.bound.window_ms is None and row.bound.solve_ms is None
        assert row.bound.certificate_ms >= 0


def test_clear_caches_preserves_results(cold_torus_cache):
    genset = build_torus_genset("sanov")
    first = torus_discrepancy_check(genset, 1, "ball", [4, 8])
    assert lps.torus._window_certificate.cache_info().currsize == 4
    lps.torus.clear_caches()
    assert lps.torus._window_certificate.cache_info().currsize == 0
    assert torus_discrepancy_check(genset, 1, "ball", [4, 8]) == first


def test_discrepancy_check_requires_increasing_radii():
    genset = build_torus_genset("sanov")
    with pytest.raises(ValueError):
        torus_discrepancy_check(genset, 1, "sphere", [8, 4])
    with pytest.raises(ValueError):
        torus_discrepancy_check(genset, 1, "sphere", [])


def test_rank_one_theoretical_value_is_one():
    genset = build_torus_genset("rank-one")
    table = torus_discrepancy_check(genset, 1, "sphere", [6])
    assert table.theoretical == 1.0
    assert table.rows[0].estimate <= 1.0 + 1e-12
