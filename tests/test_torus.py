"""Unit tests for windowed torus character operators and norm estimates."""

import json
import math

import numpy as np
import pytest

from freeness_oracle import enumerate_sphere
from lps.torus import (
    LatticeWindow,
    PowerIterationError,
    RANK_ONE_MATRICES,
    SANOV_MATRICES,
    TorusGenerator,
    build_torus_genset,
    character_action,
    character_matrix,
    load_generator_matrices,
    operator_norm_estimate,
    torus_discrepancy_check,
    window_operator,
)
from lps.words import word_counts


def test_generator_requires_unimodular_matrix():
    TorusGenerator(((1, 1), (0, 1)))
    TorusGenerator(((0, 1), (1, 0)))  # determinant -1 allowed
    with pytest.raises(ValueError):
        TorusGenerator(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        TorusGenerator(((1, 1), (1, 1)))


def test_generator_inverse_and_product():
    g = TorusGenerator(((1, 2), (0, 1)))
    assert g.inverse().matrix == ((1, -2), (0, 1))
    assert (g * g.inverse()).matrix == ((1, 0), (0, 1))


def test_sanov_genset_structure():
    genset = build_torus_genset("sanov")
    assert genset.q == 3
    assert genset.rank == 2
    gens = genset.generators
    assert len(gens) == 4
    inv = genset.inverse_of
    for i, j in enumerate(inv):
        assert (gens[i] * gens[j]).matrix == ((1, 0), (0, 1))
        assert inv[j] == i and i != j


def test_rank_one_genset_is_degenerate_line():
    genset = build_torus_genset("rank-one")
    assert genset.q == 1
    assert len(genset.generators) == 2
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
    g = TorusGenerator(SANOV_MATRICES[0])
    assert character_matrix(g) == ((1, 0), (-2, 1))
    assert character_action(g, (1, 0)) == (1, -2)
    assert character_action(g, (0, 1)) == (0, 1)


def test_character_action_is_a_group_action():
    genset = build_torus_genset("sanov")
    g, h = genset.generators[0], genset.generators[1]
    m = (2, -3)
    assert character_action(g, character_action(h, m)) == character_action(g * h, m)
    ginv = genset.generators[genset.inverse_of[0]]
    assert character_action(ginv, character_action(g, m)) == m


def test_character_action_rejects_origin():
    g = TorusGenerator(SANOV_MATRICES[0])
    with pytest.raises(ValueError):
        character_action(g, (0, 0))


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


@pytest.mark.parametrize("radius", [1, 3])
@pytest.mark.parametrize("shape", ["sphere", "ball"])
@pytest.mark.parametrize("n", [1, 2])
def test_window_operator_matches_brute_force_oracle(n, shape, radius):
    genset = build_torus_genset("sanov")
    op = window_operator(genset, n, shape, radius)
    window = op.window
    lengths = [n] if shape == "sphere" else range(n + 1)
    words = [w for k in lengths for w in enumerate_sphere(genset, k)]
    assert op.words_used == len(words)
    dense = np.zeros((window.size, window.size))
    for word in words:
        for j, point in enumerate(tuple(p) for p in window.points):
            image = point
            for letter in word.letters:
                image = character_action(genset.generators[letter], image)
            if max(abs(image[0]), abs(image[1])) <= radius:
                dense[window.index_of(image), j] += 1 / len(words)
    assert np.array_equal(op.entries.toarray(), dense)


@pytest.mark.parametrize("shape", ["sphere", "ball"])
def test_window_operator_is_symmetric(shape):
    genset = build_torus_genset("sanov")
    op = window_operator(genset, 1, shape, 6)
    dense = op.entries.toarray()
    assert np.array_equal(dense, dense.T)
    assert op.shape == shape
    assert op.words_used == word_counts(3, 1)[0 if shape == "sphere" else 1]


def test_ball_operator_is_affine_in_sphere_operator():
    genset = build_torus_genset("sanov")
    sphere = window_operator(genset, 1, "sphere", 5).entries.toarray()
    ball = window_operator(genset, 1, "ball", 5).entries.toarray()
    assert np.allclose(ball, (np.eye(len(ball)) + 4 * sphere) / 5, atol=1e-15)


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
    assert np.array_equal(op.entries.toarray(), np.eye(op.window.size))


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


def test_norm_estimate_matches_dense_eigenvalues():
    genset = build_torus_genset("sanov")
    for shape, radius in (("sphere", 3), ("ball", 4), ("sphere", 6)):
        op = window_operator(genset, 1, shape, radius)
        exact = float(np.max(np.abs(np.linalg.eigvalsh(op.entries.toarray()))))
        est = operator_norm_estimate(op, tol=1e-10)
        assert est <= exact + 1e-12, "estimates never exceed the true norm"
        assert est >= exact - 1e-6


def test_norm_estimate_rank_one_reaches_exact_eigenvalue_one():
    op = window_operator(build_torus_genset("rank-one"), 1, "sphere", 6)
    eigs = np.linalg.eigvalsh(op.entries.toarray())
    assert math.isclose(float(np.max(eigs)), 1.0, abs_tol=1e-12)
    est = operator_norm_estimate(op, tol=1e-10)
    assert 0.999 <= est <= 1.0 + 1e-12


def test_norm_estimate_is_deterministic():
    op = window_operator(build_torus_genset("sanov"), 1, "sphere", 8)
    a = operator_norm_estimate(op, seed=42)
    b = operator_norm_estimate(op, seed=42)
    assert a == b
    c = operator_norm_estimate(op, seed=7)
    assert abs(a - c) < 1e-5, "different seeds converge to the same norm"


def test_norm_estimate_raises_without_convergence():
    op = window_operator(build_torus_genset("sanov"), 1, "sphere", 8)
    with pytest.raises(PowerIterationError) as err:
        operator_norm_estimate(op, tol=0.0, max_iter=3)
    assert err.value.last_estimate > 0


def test_discrepancy_check_sanov_small_windows():
    genset = build_torus_genset("sanov")
    table = torus_discrepancy_check(genset, 1, "sphere", [4, 8, 16])
    assert table.passed
    assert table.theoretical == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    assert [row.radius for row in table.rows] == [4, 8, 16]
    estimates = [row.estimate for row in table.rows]
    assert all(b >= a - 1e-6 for a, b in zip(estimates, estimates[1:]))
    assert all(e <= table.theoretical + 1e-8 for e in estimates)


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
