"""Unit tests for windowed torus character operators and norm estimates."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lps
from lps.torus import (
    LanczosConvergenceError,
    SANOV_MATRICES,
    _float_at_most,
    build_torus_genset,
    load_generator_matrices,
    norm_certificate,
    rayleigh_certificate,
    symmetries,
    torus_discrepancy_check,
    window_operator,
)
from lps.words import word_counts
from torus_oracle import (
    LatticeWindow,
    character_image,
    full_window_counts,
    half_block,
    orbit_sums,
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


def _oracle_operator(genset, n, shape, radius):
    """The oracle's half block, its orbit sums K and sizes D, and the word count."""
    window, counts, words = full_window_counts(genset, n, shape, radius)
    half, block = half_block(window, counts)
    sums, sizes = orbit_sums(half, block, square_symmetries(genset.matrices))
    return half, block, sums, sizes, words


def _assert_matches_oracle(op, genset):
    half, block, sums, sizes, words = _oracle_operator(genset, op.n, op.shape, op.window.radius)
    assert op.words_used == words
    assert [tuple(p) for p in op.window.points] == half
    assert op.window.size == len(half) == sizes.sum()
    assert np.array_equal(op.entries.toarray(), sums)
    assert np.array_equal(op.orbit_sizes, sizes)
    assert op.max_diagonal == block.diagonal().max()
    assert op.symmetry_order == len(symmetries(genset))


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
    dense = op.entries.toarray()
    assert np.array_equal(dense, dense.T)
    assert op.shape == shape
    assert op.words_used == word_counts(3, 1)[0 if shape == "sphere" else 1]
    _assert_matches_oracle(op, genset)


def test_ball_operator_is_affine_in_sphere_operator():
    # counts: the ball adds the empty word, which fixes every point, so
    # each orbit O gains |O| on its diagonal
    genset = build_torus_genset("sanov")
    sphere = window_operator(genset, 1, "sphere", 5)
    ball = window_operator(genset, 1, "ball", 5)
    assert np.array_equal(ball.orbit_sizes, sphere.orbit_sizes)
    expected = np.diag(sphere.orbit_sizes) + sphere.entries.toarray()
    assert np.array_equal(ball.entries.toarray(), expected)
    assert ball.max_diagonal == 1 + sphere.max_diagonal
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
    assert np.array_equal(op.entries.toarray(), np.diag(op.orbit_sizes))
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


def _quotient(op) -> np.ndarray:
    """The dense orbit quotient D^(-1/2) K D^(-1/2) / words_used."""
    scale = 1.0 / np.sqrt(op.orbit_sizes)
    return scale[:, None] * op.entries.toarray() * scale[None, :] / op.words_used


def test_norm_estimate_matches_dense_eigenvalues():
    genset = build_torus_genset("sanov")
    for shape, radius in (("sphere", 3), ("ball", 4), ("sphere", 6)):
        op = window_operator(genset, 1, shape, radius)
        _, counts, words = full_window_counts(genset, 1, shape, radius)
        exact = float(np.max(np.abs(np.linalg.eigvalsh(counts / words))))
        est = norm_certificate(op).estimate
        assert est <= exact + 1e-12, "estimates never exceed the true norm"
        assert est >= exact - 1e-6


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


def test_norm_estimate_raises_without_convergence(monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    op = window_operator(build_torus_genset("sanov"), 1, "sphere", 8)
    with pytest.raises(LanczosConvergenceError) as err:
        norm_certificate(op)
    assert err.value.best_bound > 0


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
    """The operator and the dense full-window matrix A of one drawn case."""
    try:
        genset = build_torus_genset(matrices)
    except ValueError:
        assume(False)
    _, counts, words = full_window_counts(genset, n, shape, radius)
    return window_operator(genset, n, shape, radius), counts / words


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
@example(([((2, 1), (1, 1))], 2, "sphere", 1))  # no image stays in the window: C = 0
def test_certificate_never_exceeds_the_dense_norm(case):
    op, full = _oracle_case(*case)
    bound = norm_certificate(op)
    assert Fraction(bound.estimate) <= bound.certificate
    assert bound.certificate <= np.linalg.eigvalsh(full)[-1] + 1e-12


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


@pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(2, 3), Fraction(1, 10), Fraction(7, 10)])
def test_float_bound_never_rounds_up(value):
    f = _float_at_most(value)
    assert Fraction(f) <= value < Fraction(math.nextafter(f, math.inf))


def test_public_names_resolve_once_in_sorted_order():
    assert all(hasattr(lps, name) for name in lps.__all__)
    assert lps.__all__ == sorted(set(lps.__all__))


def test_import_leaves_sparse_linalg_unloaded():
    # scipy.sparse.linalg is imported by the first Lanczos solve, not by `import lps`
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = "import sys, lps; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert out.stdout.strip() == "False"


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
