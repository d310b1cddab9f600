"""Unit tests for the symmetric-power Koopman blocks and their spectra.

The harmonic-polynomial route in `harmonic_oracle` is an independent
reference: its own tests come first, then the blocks are checked against
it and against a direct expansion of symmetric powers written here.
"""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lps
from freeness_oracle import enumerate_sphere
from harmonic_oracle import (
    gram_matrix,
    harmonic_basis,
    harmonic_spectrum,
    jacobi_eigenvalues,
    object_matmul,
    rotation_block,
)
from lps.formulas import ConsistencyError, hecke_polynomial, lps_discrepancy
from lps.quaternions import (
    ExactRotation,
    LipschitzQuaternion,
    adjoint_rotation,
    build_generator_set,
)
from lps.sphere import (
    block_spectrum,
    check_traces,
    clear_caches,
    koopman_block,
    sphere_discrepancy_estimate,
    sphere_discrepancy_profile,
    verify_ramanujan,
)


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _quaternion_matrix(q):
    """[[a+bi, c+di], [-c+di, a-bi]] with Gaussian integers as (re, im)."""
    return [[(q.x0, q.x1), (q.x2, q.x3)], [(-q.x2, q.x3), (q.x0, -q.x1)]]


def _matmul2(m, n):
    return [
        [_gadd(_gmul(m[i][0], n[0][j]), _gmul(m[i][1], n[1][j])) for j in range(2)]
        for i in range(2)
    ]


def _symmetric_power(m, k):
    """Sym^k(m) on forms over x^(k-i) y^i: column j expands x'^(k-j) y'^j.

    x' = m00 x + m10 y and y' = m01 x + m11 y, the images under
    (x, y) -> (x, y) m; each column is expanded directly, power by power.
    """

    def times(poly, a, b):
        out = [(0, 0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            out[i] = _gadd(out[i], _gmul(c, a))
            out[i + 1] = _gadd(out[i + 1], _gmul(c, b))
        return out

    cols = []
    for j in range(k + 1):
        poly = [(1, 0)]
        for _ in range(k - j):
            poly = times(poly, m[0][0], m[1][0])
        for _ in range(j):
            poly = times(poly, m[0][1], m[1][1])
        cols.append(poly)
    return [[cols[j][i] for j in range(k + 1)] for i in range(k + 1)]


def _real_sum(mats):
    """Entrywise sum of Gaussian-integer matrices, which must be real."""
    dim = len(mats[0])
    total = [[(0, 0)] * dim for _ in range(dim)]
    for mat in mats:
        total = [[_gadd(a, b) for a, b in zip(r, s)] for r, s in zip(total, mat)]
    assert all(v[1] == 0 for row in total for v in row)
    return [[v[0] for v in row] for row in total]


@pytest.mark.parametrize("degree", range(1, 11))
def test_harmonic_dimension_is_two_l_plus_one(degree):
    assert harmonic_basis(degree).dimension == 2 * degree + 1
    assert koopman_block(build_generator_set(5), degree).dimension == 2 * degree + 1


def test_harmonic_basis_degree_one_is_coordinates():
    basis = harmonic_basis(1)
    assert basis.monomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert basis.polynomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_coordinates_roundtrip_on_basis_vectors():
    for degree in (2, 3, 5):
        basis = harmonic_basis(degree)
        for k, poly in enumerate(basis.polynomials):
            coords = basis.coordinates(list(poly))
            expected = [Fraction(int(i == k)) for i in range(basis.dimension)]
            assert coords == expected


def test_harmonic_polynomials_annihilated_by_laplacian():
    # second-difference oracle computed here, independent of the module
    for degree in (2, 3, 4):
        basis = harmonic_basis(degree)
        index = {m: i for i, m in enumerate(basis.monomials)}
        for poly in basis.polynomials:
            image = {}
            for m, coeff in zip(basis.monomials, poly):
                if not coeff:
                    continue
                for axis in range(3):
                    e = m[axis]
                    if e >= 2:
                        lowered = list(m)
                        lowered[axis] -= 2
                        key = tuple(lowered)
                        image[key] = image.get(key, 0) + coeff * e * (e - 1)
            assert all(v == 0 for v in image.values())


def test_gram_degree_one_is_identity_over_three():
    gram = gram_matrix(harmonic_basis(1))
    third = Fraction(1, 3)
    for i in range(3):
        for j in range(3):
            assert gram[i][j] == (third if i == j else 0)


@pytest.mark.parametrize("degree", [2, 3, 4, 6])
def test_gram_symmetric_positive_definite(degree):
    gram = gram_matrix(harmonic_basis(degree))
    dim = len(gram)
    for i in range(dim):
        for j in range(dim):
            assert gram[i][j] == gram[j][i]
    dense = np.array([[float(v) for v in row] for row in gram])
    np.linalg.cholesky(dense)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_gram_blocks_by_exponent_parity(degree):
    basis = harmonic_basis(degree)
    gram = gram_matrix(basis)

    def parity_class(poly):
        for m, coeff in zip(basis.monomials, poly):
            if coeff:
                return (m[0] % 2, m[1] % 2, m[2] % 2)
        raise AssertionError("zero polynomial in basis")

    classes = [parity_class(p) for p in basis.polynomials]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            if ci != cj:
                assert gram[i][j] == 0


def test_rotation_block_degree_one_is_rotation_matrix():
    rot = adjoint_rotation(LipschitzQuaternion(1, 2, 0, 0))
    block = rotation_block(rot, 1)
    d = Fraction(rot.den_base**rot.den_exp)
    for i in range(3):
        for j in range(3):
            assert block[i][j] == Fraction(rot.num[i][j], d)


def test_rotation_block_column_convention_hand_check():
    # pi(g)f(v) = f(R^T v); for R = Ad(1+2i) this sends xy to
    # -(3/5) xy + (4/5) xz, which must appear as a column of the block
    rot = adjoint_rotation(LipschitzQuaternion(1, 2, 0, 0))
    basis = harmonic_basis(2)
    xy = basis.polynomials.index((0, 1, 0, 0, 0, 0))
    xz = basis.polynomials.index((0, 0, 1, 0, 0, 0))
    block = rotation_block(rot, 2)
    column = [block[i][xy] for i in range(basis.dimension)]
    expected = [Fraction(0)] * basis.dimension
    expected[xy] = Fraction(-3, 5)
    expected[xz] = Fraction(4, 5)
    assert column == expected


def test_rotation_block_identity_and_multiplicativity():
    genset = build_generator_set(5)
    g, h = genset.rotations[0], genset.rotations[2]
    for degree in (1, 2, 3):
        dim = 2 * degree + 1
        ident = rotation_block(ExactRotation.identity(), degree)
        assert all(
            ident[i][j] == (1 if i == j else 0) for i in range(dim) for j in range(dim)
        )
        left = object_matmul(rotation_block(g, degree), rotation_block(h, degree))
        right = rotation_block(g * h, degree)
        assert all(
            left[i][j] == right[i][j] for i in range(dim) for j in range(dim)
        )


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_rotation_block_preserves_gram(degree):
    # B^T G B = G certifies the action is unitary for the exact pairing
    genset = build_generator_set(5)
    basis = harmonic_basis(degree)
    gram = gram_matrix(basis)
    for g in genset.rotations[:3]:
        block = rotation_block(g, degree)
        transposed = tuple(zip(*block))
        back = object_matmul(transposed, object_matmul(gram, block))
        for i in range(basis.dimension):
            for j in range(basis.dimension):
                assert back[i][j] == gram[i][j]


def test_koopman_block_degree_one_is_minus_two_fifths():
    block = koopman_block(build_generator_set(5), 1)
    expected = Fraction(-2, 5)
    for i in range(3):
        for j in range(3):
            assert block.matrix[i][j] == (expected if i == j else 0)


def test_koopman_block_is_generator_sum():
    for p in (5, 13):
        genset = build_generator_set(p)
        for degree in (1, 2, 3):
            powers = [
                _symmetric_power(_quaternion_matrix(q), 2 * degree)
                for q in genset.source_quaternions
            ]
            block = koopman_block(genset, degree)
            assert block.scale == p**degree
            assert [list(row) for row in block.numerators] == _real_sum(powers)
            assert block.matrix == tuple(
                tuple(Fraction(v, p**degree) for v in row) for row in _real_sum(powers)
            )


@pytest.mark.parametrize("p", [5, 13])
def test_koopman_block_is_self_adjoint_for_binomial_pairing(p):
    genset = build_generator_set(p)
    for degree in range(1, 9):
        t = koopman_block(genset, degree).matrix
        c = [math.comb(2 * degree, k) for k in range(2 * degree + 1)]
        assert all(
            t[i][j] * c[j] == t[j][i] * c[i] for i in range(len(t)) for j in range(len(t))
        )


def test_symmetric_powers_preserve_binomial_pairing():
    # A* D A = p^k D with D = diag(1/binom(k, i)): each generator acts
    # unitarily, up to its norm, for the diagonal pairing
    for q in build_generator_set(5).source_quaternions:
        for k in (2, 4, 6):
            a = _symmetric_power(_quaternion_matrix(q), k)
            d = [Fraction(1, math.comb(k, i)) for i in range(k + 1)]
            for i in range(k + 1):
                for j in range(k + 1):
                    total = (0, 0)
                    for r in range(k + 1):
                        conj = (a[r][i][0], -a[r][i][1])
                        term = _gmul(conj, a[r][j])
                        total = _gadd(total, (term[0] * d[r], term[1] * d[r]))
                    assert total == ((5**k * d[i] if i == j else 0), 0)


def test_sphere_sum_satisfies_hecke_recursion():
    # sum over reduced words of length 2 equals P_2(T) = T^2 - (p + 1) I,
    # block by block; in numerators, N^2 - (p + 1) p^(2l) I
    genset = build_generator_set(5)
    mats = [_quaternion_matrix(q) for q in genset.source_quaternions]
    for degree in (1, 2, 3):
        dim = 2 * degree + 1
        words = [
            _symmetric_power(_matmul2(mats[a], mats[b]), 2 * degree)
            for a, b in (w.letters for w in enumerate_sphere(genset, 2))
        ]
        total = _real_sum(words)
        num = koopman_block(genset, degree).numerators
        square = object_matmul(num, num)
        shift = 6 * 5 ** (2 * degree)
        for i in range(dim):
            for j in range(dim):
                assert total[i][j] == square[i][j] - (shift if i == j else 0)


def test_block_rejects_generators_not_closed_under_conjugation():
    genset = build_generator_set(5)
    # Ad(1 + 2i) alone: its diagonal matrix has complex entries that no
    # partner cancels
    complex_only = dataclasses.replace(
        genset, source_quaternions=(LipschitzQuaternion(1, 2, 0, 0),)
    )
    with pytest.raises(ConsistencyError, match="imaginary"):
        koopman_block(complex_only, 1)
    # 1 + 2j has a real matrix, but without 1 - 2j the sum is not
    # self-adjoint
    real_only = dataclasses.replace(
        genset, source_quaternions=(LipschitzQuaternion(1, 0, 2, 0),)
    )
    with pytest.raises(ConsistencyError, match="self-adjoint"):
        koopman_block(real_only, 1)
    wrong_norm = dataclasses.replace(
        genset, source_quaternions=(LipschitzQuaternion(1, 2, 2, 0),)
    )
    with pytest.raises(ValueError):
        koopman_block(wrong_norm, 1)


@pytest.mark.parametrize("p", [5, 13])
def test_spectra_match_harmonic_oracle(p):
    genset = build_generator_set(p)
    for degree in range(1, 7):
        ours = np.array(block_spectrum(koopman_block(genset, degree)))
        reference = harmonic_spectrum(genset, degree)
        assert np.max(np.abs(ours - reference)) < 1e-12


def test_check_traces_rejects_corrupted_spectrum():
    block = koopman_block(build_generator_set(5), 6)
    eigs = list(block_spectrum(block))
    check_traces(block, eigs)
    shifted = [eigs[0] + 1e-6] + eigs[1:]
    with pytest.raises(ConsistencyError, match=r"tr\(T\^1\)"):
        check_traces(block, shifted)
    # same trace, different sum of squares
    swapped = [eigs[0] + 1e-6] + eigs[1:-1] + [eigs[-1] - 1e-6]
    with pytest.raises(ConsistencyError, match=r"tr\(T\^2\)"):
        check_traces(block, swapped)


def test_jacobi_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(11)
    for dim in (2, 5, 9, 16):
        raw = rng.standard_normal((dim, dim))
        sym = (raw + raw.T) / 2
        ours = jacobi_eigenvalues(sym.copy())
        reference = np.linalg.eigvalsh(sym)
        assert np.max(np.abs(np.asarray(ours) - reference)) < 1e-12


def test_jacobi_on_diagonal_matrix():
    diag = np.diag([3.0, -1.0, 2.0])
    assert np.allclose(jacobi_eigenvalues(diag), [-1.0, 2.0, 3.0])


@pytest.mark.parametrize("p", [5, 13])
def test_block_spectrum_matches_jacobi_oracle(p):
    genset = build_generator_set(p)
    for degree in range(1, 9):
        block = koopman_block(genset, degree)
        root = np.sqrt([float(math.comb(2 * degree, k)) for k in range(block.dimension)])
        sym = np.array(block.numerators, dtype=float) / block.scale
        sym = sym * (root[None, :] / root[:, None])
        reference = jacobi_eigenvalues(0.5 * (sym + sym.T))
        ours = np.array(block_spectrum(block))
        assert np.max(np.abs(ours - reference)) < 1e-12


def test_block_spectrum_degree_one():
    eigs = block_spectrum(koopman_block(build_generator_set(5), 1))
    assert len(eigs) == 3
    assert all(abs(e + 0.4) < 1e-13 for e in eigs)


def test_block_spectrum_sorted_and_bounded():
    genset = build_generator_set(5)
    bound = 2 * math.sqrt(5)
    for degree in (2, 3, 4, 5):
        eigs = block_spectrum(koopman_block(genset, degree))
        assert len(eigs) == 2 * degree + 1
        assert list(eigs) == sorted(eigs)
        assert all(abs(e) <= bound + 1e-8 for e in eigs)


def test_verify_ramanujan_smoke():
    report = verify_ramanujan(5, 6)
    assert report.passed
    assert report.bound == 2 * math.sqrt(5)
    assert [d.degree for d in report.per_degree] == list(range(1, 7))
    assert all(len(d.eigenvalues) == 2 * d.degree + 1 for d in report.per_degree)
    assert report.global_max_abs == max(d.max_abs for d in report.per_degree)
    assert report.global_max_abs <= report.bound + report.tolerance


def test_verify_ramanujan_deep_in_plain_float64():
    # the spectra need no extended precision anywhere in the package
    sources = Path(lps.__file__).parent.glob("*.py")
    assert not any("longdouble" in path.read_text() for path in sources)
    report = verify_ramanujan(5, 32)
    assert report.passed
    assert abs(report.global_max_abs - 4.4475) < 1e-4


def test_verify_ramanujan_rejects_bad_lmax():
    with pytest.raises(ValueError):
        verify_ramanujan(5, 0)


@pytest.mark.parametrize("shape", ["sphere", "ball"])
@pytest.mark.parametrize("n", [1, 2])
def test_sphere_discrepancy_estimate_certified(shape, n):
    upper = lps_discrepancy(5, n, shape)
    values = [sphere_discrepancy_estimate(5, n, shape, l) for l in (2, 4, 6, 8)]
    assert all(v <= upper + 1e-9 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:])), "nondecreasing in l_max"
    assert values[0] > 0


@pytest.mark.parametrize("p", [5, 13])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("shape", ["sphere", "ball"])
def test_sphere_discrepancy_profile_matches_per_degree_spectra(p, n, shape):
    l_max = 8
    profile = sphere_discrepancy_profile(p, n, shape, l_max)
    assert len(profile) == l_max
    sphere_size = (p + 1) * p ** (n - 1)
    ball_size = 1 + sum((p + 1) * p ** (k - 1) for k in range(1, n + 1))
    for l in range(1, l_max + 1):
        eigenvalues = [e for d in verify_ramanujan(p, l).per_degree for e in d.eigenvalues]
        if shape == "sphere":
            expected = max(abs(hecke_polynomial(p, n)(e)) for e in eigenvalues) / sphere_size
        else:
            expected = max(
                abs(sum(hecke_polynomial(p, k)(e) for k in range(n + 1))) for e in eigenvalues
            ) / ball_size
        assert profile[l - 1] == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert all(b >= a for a, b in zip(profile, profile[1:]))
    assert profile[-1] == sphere_discrepancy_estimate(p, n, shape, l_max)


def test_sphere_discrepancy_estimate_rejects_bad_shape():
    with pytest.raises(ValueError):
        sphere_discrepancy_estimate(5, 1, "disk", 4)


@pytest.mark.parametrize("n, shape, l_max", [(1, "disk", 4), (0, "sphere", 4), (1, "sphere", 0)])
def test_sphere_discrepancy_profile_rejects_bad_input(n, shape, l_max):
    with pytest.raises(ValueError):
        sphere_discrepancy_profile(5, n, shape, l_max)


def test_clear_caches_preserves_results():
    before = block_spectrum(koopman_block(build_generator_set(5), 2))
    clear_caches()
    after = block_spectrum(koopman_block(build_generator_set(5), 2))
    assert before == after
