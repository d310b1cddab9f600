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
from hypothesis import example, given, settings, strategies as st

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
from lps.cli import main
from lps.formulas import ConsistencyError, hecke_polynomial, lps_discrepancy
from lps.quaternions import (
    GeneratorSet,
    LipschitzQuaternion,
    adjoint_rotation,
    build_generator_set,
    quaternions_of_norm,
)
from lps.sphere import (
    RAMANUJAN_TOLERANCE,
    block_spectrum,
    check_traces,
    clear_caches,
    koopman_block,
    sphere_discrepancy_estimate,
    sphere_discrepancy_profile,
    verify_ramanujan,
)
from lps.words import verify_freeness


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
    num = adjoint_rotation(LipschitzQuaternion(1, 2, 0, 0))
    block = rotation_block(num, 5, 1)
    for i in range(3):
        for j in range(3):
            assert block[i][j] == Fraction(num[i][j], 5)


def test_rotation_block_column_convention_hand_check():
    # pi(g)f(v) = f(R^T v); for R = Ad(1+2i) this sends xy to
    # -(3/5) xy + (4/5) xz, which must appear as a column of the block
    num = adjoint_rotation(LipschitzQuaternion(1, 2, 0, 0))
    basis = harmonic_basis(2)
    xy = basis.polynomials.index((0, 1, 0, 0, 0, 0))
    xz = basis.polynomials.index((0, 0, 1, 0, 0, 0))
    block = rotation_block(num, 5, 2)
    column = [block[i][xy] for i in range(basis.dimension)]
    expected = [Fraction(0)] * basis.dimension
    expected[xy] = Fraction(-3, 5)
    expected[xz] = Fraction(4, 5)
    assert column == expected


def test_rotation_block_identity_and_multiplicativity():
    g, h = build_generator_set(5).matrices[0:3:2]
    for degree in (1, 2, 3):
        dim = 2 * degree + 1
        ident = rotation_block(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1, degree)
        assert all(
            ident[i][j] == (1 if i == j else 0) for i in range(dim) for j in range(dim)
        )
        left = object_matmul(rotation_block(g, 5, degree), rotation_block(h, 5, degree))
        right = rotation_block(object_matmul(g, h), 25, degree)
        assert all(
            left[i][j] == right[i][j] for i in range(dim) for j in range(dim)
        )


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_rotation_block_preserves_gram(degree):
    # B^T G B = G certifies the action is unitary for the exact pairing
    genset = build_generator_set(5)
    basis = harmonic_basis(degree)
    gram = gram_matrix(basis)
    for g in genset.matrices[:3]:
        block = rotation_block(g, 5, degree)
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


def _generator_sum(quaternions, degree):
    """The per-generator oracle: the real sum of every Sym^{2l}, expanded directly."""
    return _real_sum([_symmetric_power(_quaternion_matrix(q), 2 * degree) for q in quaternions])


_lipschitz = st.builds(LipschitzQuaternion, *[st.integers(-6, 6)] * 4)


@settings(deadline=None, max_examples=30)
@given(_lipschitz)
@example(LipschitzQuaternion(2, -3, 0, 0))
@example(LipschitzQuaternion(0, 0, 3, -1))
@example(LipschitzQuaternion(0, 0, 0, 0))
def test_symmetric_power_flip_is_signed_conjugate(q):
    # J M J^-1 = conj(M) for every quaternion matrix, so entry (k-r, k-s)
    # of Sym^k(M) is (-1)^(r+s) times the conjugate of entry (r, s); the
    # frontiers keep the columns s <= k/2 and rebuild the rest from this
    for k in range(13):
        a = _symmetric_power(_quaternion_matrix(q), k)
        for r in range(k + 1):
            for s in range(k + 1):
                sign = (-1) ** (r + s)
                assert a[k - r][k - s] == (sign * a[r][s][0], -sign * a[r][s][1])


def test_koopman_block_is_generator_sum():
    for p in (5, 13, 17, 29):
        genset = build_generator_set(p)
        for degree in (1, 2, 3):
            total = _generator_sum(genset.source_quaternions, degree)
            block = koopman_block(genset, degree)
            assert block.scale == p**degree
            assert [list(row) for row in block.numerators] == total
            assert block.matrix == tuple(
                tuple(Fraction(v, p**degree) for v in row) for row in total
            )


@pytest.mark.parametrize("p", [5, 13])
def test_koopman_block_is_generator_sum_deep(p):
    # past the first two-degree steps: every appended mirror column and every
    # product with X^2 feeds the later degrees
    genset = build_generator_set(p)
    for degree in range(4, 11):
        total = _generator_sum(genset.source_quaternions, degree)
        assert [list(row) for row in koopman_block(genset, degree).numerators] == total


def test_koopman_block_restarts_below_the_frontier():
    genset = build_generator_set(13)
    clear_caches()
    before = {degree: koopman_block(genset, degree).numerators for degree in (1, 2, 5)}
    powers = lps.sphere._powers_for(genset)
    assert powers._degree == 10
    koopman_block.cache_clear()
    # the frontier holds Sym^10, so degree 2 restarts from Sym^2
    assert koopman_block(genset, 2).numerators == before[2]
    assert powers._degree == 4
    assert koopman_block(genset, 1).numerators == before[1]
    assert koopman_block(genset, 5).numerators == before[5]
    with pytest.raises(ValueError, match="even"):
        powers.summed(3)


def _q(*coordinates):
    return LipschitzQuaternion(*coordinates)


def test_rebuild_recovers_integers_from_residue_and_estimate():
    rebuild, rebuildable = lps.sphere._rebuild, lps.sphere._rebuildable
    # negative values, the residues -2^63 and 2^63 - 1, and entries past 2^100
    exact = [-(2**100) + 7, -5 * 2**64 - 2**63, 3 * 2**64 + 2**63 - 1, -1, 0, 2**63, 2**101 - 3]
    residue = np.array([(x + 2**63) % 2**64 - 2**63 for x in exact], dtype=np.int64)
    assert residue[1] == -(2**63) and residue[2] == 2**63 - 1
    bound = float(2**101)
    # the largest error the rule admits at this bound, less a margin for the
    # rounding of the estimates themselves (2^48 at 2^101)
    error = 2.0**62 - 2.0**-53 * (bound + 2.0**62 + 2.0**65) - 2.0**50
    assert rebuildable(bound, error) and not rebuildable(bound, 2.0**62)
    for sign in (1, -1):
        estimate = np.array([float(x + sign * int(error)) for x in exact])
        assert np.abs(estimate - np.array(exact, dtype=float)).max() <= error + 2.0**49
        assert rebuild(residue, estimate).tolist() == exact
    # an error of 2^63 and more picks the wrong multiple of 2^64
    estimate = np.array([float(x + 2**63 + 2**52) for x in exact])
    assert all(a != b for a, b in zip(rebuild(residue, estimate).tolist(), exact))


@pytest.mark.parametrize(
    "quaternions, degree, fast",
    [
        # the norm-25 set: every frontier on int64 residues and float
        # estimates
        pytest.param("norm-25", 18, [True] * 4, id="norm25-l18"),
        # three frontiers switched to Python ints, the fourth on residues
        pytest.param("norm-25", 19, [False] * 3 + [True], id="norm25-l19"),
        pytest.param("norm-25", 20, [False] * 4, id="norm25-l20"),
        # eight frontiers on residues, whose sum is far past 2^64
        pytest.param(None, 15, [True] * 8, id="p61-l15"),
    ],
)
def test_summed_powers_match_generator_sum_across_the_switch(
    monkeypatch, quaternions, degree, fast
):
    genset = GeneratorSet(_primitive_norm_25()) if quaternions else build_generator_set(61)
    powers = lps.sphere._SymmetricPowers(genset.source_quaternions)
    powers.summed(2 * degree)
    assert [frontier.estimate is not None for frontier in powers._mats] == fast
    shapes = []
    rebuild = lps.sphere._rebuild

    def recording(residue, estimate):
        shapes.append(residue.shape)
        return rebuild(residue, estimate)

    monkeypatch.setattr(lps.sphere, "_rebuild", recording)
    # the frontiers are at this degree, so this call only reads them: each
    # frontier on residues is rebuilt once, on the entries of all four class
    # slices gathered together, and one on Python ints not at all
    pieces = powers.summed(2 * degree)
    read = sum(len(range(c, 2 * degree + 1, 4)) * len(range(c, degree + 1, 4)) for c in range(4))
    assert shapes == [(read,)] * sum(fast)
    # each piece is the exact generator sum on its residue class, and the
    # sum is zero between the classes
    total = np.array(_generator_sum(genset.source_quaternions, degree), dtype=object)
    assert len(pieces) == 4
    for c, piece in enumerate(pieces):
        assert piece.tolist() == total[c::4, c::4].tolist()
        total[c::4, c::4] = 0
    assert not total.any()


def test_summed_powers_are_exact_at_the_largest_error_the_rule_admits():
    # p = 5 is on residues through degree 68, where its one dense
    # frontier's recorded error is about 2^61.9
    powers = lps.sphere._SymmetricPowers(build_generator_set(5).source_quaternions)
    exact = [piece.tolist() for piece in powers.summed(68)]
    (frontier,) = powers._mats
    assert frontier.estimate is not None and frontier.error > 2.0**61.5
    integers = list(map(lps.sphere._rebuild, frontier[:2], frontier.estimate))

    def read(estimate):
        powers._mats = [frontier._replace(estimate=estimate)]
        return [piece.tolist() for piece in powers.summed(68)]

    # every estimate set off its integer by the recorded error, less a
    # margin for its own rounding, in either sign
    shift = int(frontier.error - 2.0**-53 * (frontier.bound + frontier.error)) - 2**50
    for sign in (1, -1):
        estimate = tuple(
            np.array([float(x + sign * shift) for x in part.flat]).reshape(part.shape)
            for part in integers
        )
        offsets = [
            abs(int(f) - x) for part, guess in zip(integers, estimate)
            for f, x in zip(guess.flat, part.flat)
        ]
        assert max(offsets) <= frontier.error
        assert read(estimate) == exact
    # an estimate off by 2^64 rebuilds the neighbouring integer
    assert read(tuple(guess + 2.0**64 for guess in frontier.estimate)) != exact
    # and the next step moves the frontier to Python ints
    powers._mats = [frontier]
    powers.summed(70)
    assert powers._mats[0].estimate is None


def test_summed_pieces_are_fresh_square_integer_arrays():
    # koopman_block marks the pieces read-only and the corruption controls
    # write to them, so no call may share storage with the frontiers or
    # with an earlier call
    powers = lps.sphere._SymmetricPowers(build_generator_set(5).source_quaternions)
    for degree in (2, 4, 6, 8):
        first = powers.summed(degree)
        assert [piece.shape for piece in first] == [
            (len(range(c, degree + 1, 4)),) * 2 for c in range(4)
        ]
        assert all(piece.dtype == object for piece in first)
        assert all(type(x) is int for piece in first for x in piece.flat)
        kept = [piece.tolist() for piece in first]
        for piece in first:
            piece[...] = 0
        assert [piece.tolist() for piece in powers.summed(degree)] == kept


@pytest.mark.parametrize(
    "q", [_q(1, 2, 0, 0), _q(3, 2, 0, 0), _q(1, 2, 2, 2), _q(-3, 1, 1, 4), _q(0, 0, 3, -1)]
)
def test_symmetric_power_trace_is_the_sl2_character(q):
    # tr Sym^k(M) = h_k(tr M, det M), h_0 = 1, h_1 = t, h_(k+1) = t h_k - d h_(k-1)
    t, d = 2 * q.x0, q.norm()
    h = [1, t]
    for k in range(13):
        power = _symmetric_power(_quaternion_matrix(q), k)
        assert sum(power[i][i][0] for i in range(k + 1)) == h[k]
        assert sum(power[i][i][1] for i in range(k + 1)) == 0
        h.append(t * h[-1] - d * h[-2])


def _corrupt_summed(monkeypatch, change):
    """Make _SymmetricPowers.summed apply `change(pieces, degree)` to every sum it returns."""
    summed = lps.sphere._SymmetricPowers.summed

    def corrupted(self, degree):
        pieces = summed(self, degree)
        change(pieces, degree)
        return pieces

    clear_caches()
    monkeypatch.setattr(lps.sphere._SymmetricPowers, "summed", corrupted)


def test_block_traces_must_match_the_generators_characters(monkeypatch):
    def diagonal(pieces, degree):
        # numerator (2, 2), the first entry of piece 2, from degree 2 on:
        # self-adjointness cannot see it
        if degree >= 4:
            pieces[2][0, 0] += 1

    _corrupt_summed(monkeypatch, diagonal)
    assert koopman_block(build_generator_set(5), 1).traces == (-6, 12)
    with pytest.raises(ConsistencyError, match="characters"):
        koopman_block(build_generator_set(5), 2)
    small = ["--l-max", "3", "--windows", "4,8", "--radius", "3", "--sanov-radius", "4"]
    assert main(["report", "--seed", "42", *small]) == 1
    monkeypatch.undo()
    clear_caches()
    assert main(["report", "--seed", "42", *small]) == 0


def test_block_square_trace_must_match_the_generators_characters(monkeypatch):
    def symmetric_pair(pieces, degree):
        # (0, 4) and (4, 0) of the degree-2 block, entries (0, 1) and (1, 0)
        # of piece 0, with weights C(4, 0) = C(4, 4) = 1: still self-adjoint,
        # same trace, new tr(T^2)
        if degree == 4:
            pieces[0][0, 1] += 1
            pieces[0][1, 0] += 1

    _corrupt_summed(monkeypatch, symmetric_pair)
    with pytest.raises(ConsistencyError, match=r"characters give \(-114, "):
        koopman_block(build_generator_set(5), 2)
    monkeypatch.undo()
    clear_caches()


# Each set is closed under conjugation, under the (b, d) sign flip sigma
# and under c = (1+i)/sqrt(2), which conjugates a + bi + cj + dk to
# a + bi - dj + ck, so its block is real and self-adjoint.  One term per
# orbit of <c> and sigma together.
ORBIT_CASES = [
    # the norm-p sets: x0 +- x1 i are fixed by c and form one diagonal term;
    # the rest fall in 4-orbits, of which sigma pairs the two of 1 +- 2i +-
    # 2j +- 2k for p = 13
    pytest.param(5, None, 2, id="p5"),
    pytest.param(13, None, 3, id="p13"),
    # a repeated generator counts twice
    pytest.param(
        5, (_q(1, 2, 0, 0), _q(1, -2, 0, 0)) + tuple(
            _q(1, *v) for v in ((0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2))
        ) * 2, 2, id="p5-twice-the-4-orbit"
    ),
]


@pytest.mark.parametrize("p, quaternions, frontiers", ORBIT_CASES)
def test_orbit_sums_match_generator_sum(p, quaternions, frontiers):
    genset = build_generator_set(p) if quaternions is None else GeneratorSet(quaternions)
    for degree in (1, 2, 3, 4):
        total = _generator_sum(genset.source_quaternions, degree)
        assert [list(row) for row in koopman_block(genset, degree).numerators] == total
    assert lps.sphere._powers_for(genset).frontiers == frontiers


def _closure(q):
    """q's orbit under c, sigma (the (b, d) sign flip) and inversion."""
    orbit = set()
    for x1, x2, x3 in ((q.x1, q.x2, q.x3), (-q.x1, q.x2, -q.x3)):
        turns = ((x2, x3), (-x3, x2), (-x2, -x3), (x3, -x2))
        for sign in (1, -1):
            orbit |= {_q(q.x0, sign * x1, sign * y2, sign * y3) for y2, y3 in turns}
    return orbit


@st.composite
def _closed_multisets(draw):
    p = draw(st.sampled_from([5, 13]))
    norm_p = quaternions_of_norm(p)
    seeds = draw(st.lists(st.sampled_from(norm_p), min_size=1, max_size=4))
    quaternions = []
    for q in seeds:
        orbit = sorted(_closure(q), key=dataclasses.astuple)
        quaternions += orbit * draw(st.integers(1, 2))
    return p, tuple(draw(st.permutations(quaternions)))


@settings(deadline=None, max_examples=40)
@given(_closed_multisets())
@example(
    (5, (_q(2, 1, 0, 0), _q(2, -1, 0, 0)) * 2 + (_q(1, 0, 2, 0), _q(1, 0, -2, 0))
     + (_q(1, 0, 0, 2), _q(1, 0, 0, -2)))
)
def test_orbit_sums_match_generator_sum_on_closed_multisets(case):
    # closed under <c>, sigma and inversion, with repeats: the orbit terms,
    # diagonal ones included, reproduce the generator sum
    _, quaternions = case
    genset = GeneratorSet(quaternions)
    for degree in range(1, 7):
        total = _generator_sum(quaternions, degree)
        assert [list(row) for row in koopman_block(genset, degree).numerators] == total


def test_orbit_sums_require_closure_under_sigma():
    # 1 + 2i + 2j + 2k and its conjugate: closed under inversion, but sigma
    # sends 1 + 2i + 2j + 2k to 1 - 2i + 2j - 2k, which is missing
    genset = GeneratorSet((_q(1, 2, 2, 2), _q(1, -2, -2, -2)))
    with pytest.raises(ConsistencyError, match="imaginary"):
        koopman_block(genset, 1)


@pytest.mark.parametrize(
    "quaternions",
    [
        # c^2 swaps 1 + 2j and 1 - 2j, c sends them to 1 +- 2k, which are
        # missing
        pytest.param((_q(1, 0, 2, 0), _q(1, 0, -2, 0)), id="order2"),
        # c^2 sends 1 + 2i + 2j + 2k to 1 + 2i - 2j - 2k, which is missing
        pytest.param(
            (_q(1, 2, 2, 2), _q(1, -2, 2, -2), _q(1, -2, -2, -2), _q(1, 2, -2, 2)),
            id="order1",
        ),
    ],
)
def test_orbit_sums_require_closure_under_c(quaternions):
    # closed under inversion and sigma, not under c: the summed powers do
    # not vanish between the residue classes mod 4
    with pytest.raises(ConsistencyError, match=r"\(1 \+ i\)/sqrt\(2\)"):
        koopman_block(GeneratorSet(quaternions), 1)


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


def test_block_rejects_generators_not_closed_under_conjugation(monkeypatch):
    # a sum over a set closed under inverses is self-adjoint, so only a
    # corrupted sum can fail the exact check; (0, 4) of the degree-2 block
    # is entry (0, 1) of piece 0, residue class 0
    def off_diagonal(pieces, degree):
        pieces[0][0, 1] += 1

    _corrupt_summed(monkeypatch, off_diagonal)
    with pytest.raises(ConsistencyError, match="self-adjoint"):
        koopman_block(build_generator_set(5), 2)
    # quaternions of different norms make no generator set
    with pytest.raises(ValueError, match="common norm"):
        GeneratorSet((_q(1, 2, 0, 0), _q(1, -2, 0, 0), _q(1, 2, 2, 0), _q(1, -2, -2, 0)))


def _primitive_norm_25():
    """The 30 primitive norm-25 quaternions with odd positive real part."""
    return tuple(
        q
        for q in quaternions_of_norm(25)
        if q.x0 > 0 and q.x0 % 2 and math.gcd(q.x0, q.x1, q.x2, q.x3) == 1
    )


def test_norm_25_set_is_not_ramanujan_and_not_free():
    # Lubotzky-Phillips-Sarnak's 30 norm-25 quaternions: the products of
    # two norm-5 letters, a set that is not free on 15 generators, whose
    # blocks leave the tempered interval [-2 sqrt(29), 2 sqrt(29)]
    genset = GeneratorSet(_primitive_norm_25())
    assert (genset.den, genset.q) == (25, 29)
    # every degree passes the exact self-adjointness check and check_traces
    top = max(
        max(abs(e) for e in block_spectrum(koopman_block(genset, degree)))
        for degree in range(1, 25)
    )
    assert top >= 2 * math.sqrt(29) + 2
    report = verify_freeness(genset, 2)
    assert (report.ball_size_found, report.ball_size_expected) == (781, 901)
    assert not report.is_free_to_radius


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


@pytest.mark.parametrize("p", [5, 13])
def test_block_spectrum_fills_the_dense_float_matrix_bit_for_bit(p):
    # the piecewise fill performs each entry's float operations as the
    # dense construction from the numerators does, so the spectra match
    genset = build_generator_set(p)
    for degree in range(1, 13):
        block = koopman_block(genset, degree)
        assert sum(len(piece) for piece in block.pieces) == 2 * degree + 1
        assert not any(piece.flags.writeable for piece in block.pieces)
        weights = np.sqrt([float(math.comb(2 * degree, k)) for k in range(block.dimension)])
        scaled = np.array(block.numerators, dtype=object) / block.scale
        dense = scaled.astype(float) * (weights[None, :] / weights[:, None])
        assert lps.sphere._symmetrised(block).tobytes() == dense.tobytes()


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
    # the stage timings differ between a cold and a cached scan but take no
    # part in equality
    assert all(d.block_ms >= 0 and d.spectrum_ms >= 0 for d in report.per_degree)
    assert verify_ramanujan(5, 6) == report
    assert report.bound == 2 * math.sqrt(5)
    assert [d.degree for d in report.per_degree] == list(range(1, 7))
    assert all(len(d.eigenvalues) == 2 * d.degree + 1 for d in report.per_degree)
    assert report.global_max_abs == max(d.max_abs for d in report.per_degree)
    assert report.global_max_abs <= report.bound + RAMANUJAN_TOLERANCE


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
    sphere_size = (p + 1) * p ** (n - 1)
    ball_size = 1 + sum((p + 1) * p ** (k - 1) for k in range(1, n + 1))
    expected = []
    for l in range(1, 9):
        eigenvalues = [e for d in verify_ramanujan(p, l).per_degree for e in d.eigenvalues]
        if shape == "sphere":
            expected.append(max(abs(hecke_polynomial(p, n)(e)) for e in eigenvalues) / sphere_size)
        else:
            expected.append(max(
                abs(sum(hecke_polynomial(p, k)(e) for k in range(n + 1))) for e in eigenvalues
            ) / ball_size)
    assert all(b >= a for a, b in zip(expected, expected[1:]))
    # the running maximum over spectra of different lengths, ending at
    # several degrees
    for l_max in (1, 2, 5, 8):
        profile = sphere_discrepancy_profile(p, n, shape, l_max)
        assert profile == tuple(expected[:l_max])
        assert profile[-1] == sphere_discrepancy_estimate(p, n, shape, l_max)


def test_sphere_discrepancy_estimate_rejects_bad_shape():
    with pytest.raises(ValueError):
        sphere_discrepancy_estimate(5, 1, "disk", 4)


@pytest.mark.parametrize("n, shape, l_max", [(1, "disk", 4), (0, "sphere", 4), (1, "sphere", 0)])
def test_sphere_discrepancy_profile_rejects_bad_input(n, shape, l_max):
    with pytest.raises(ValueError):
        sphere_discrepancy_profile(5, n, shape, l_max)


def test_generator_set_is_built_once_per_prime(monkeypatch):
    builds = []

    def counted(p):
        builds.append(p)
        return build_generator_set(p)

    monkeypatch.setattr(lps.sphere, "build_generator_set", counted)
    clear_caches()
    verify_ramanujan(5, 3)
    sphere_discrepancy_profile(5, 2, "ball", 3)
    verify_ramanujan(13, 2)
    sphere_discrepancy_estimate(13, 1, "sphere", 2)
    assert builds == [5, 13]
    clear_caches()
    verify_ramanujan(5, 1)
    assert builds == [5, 13, 5]
    clear_caches()


def test_clear_caches_preserves_results():
    before = block_spectrum(koopman_block(build_generator_set(5), 2))
    clear_caches()
    after = block_spectrum(koopman_block(build_generator_set(5), 2))
    assert before == after
