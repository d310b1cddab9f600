"""Exact finite-dimensional blocks of the rotation action on the sphere.

As a representation of SU(2), the degree-l spherical harmonics V_l are the
symmetric power Sym^{2l}(C^2): binary forms of degree 2l in x and y.  A
norm-p quaternion a + bi + cj + dk acts through the Gaussian-integer
matrix [[a + bi, c + di], [-c + di, a - bi]], so the Hecke operator
sum_g rho(g) on V_l is the sum of the generators' 2l-th symmetric powers
over p^l.  In the monomial basis x^(2l-k) y^k that block is a
(2l+1)x(2l+1) matrix of integers over p^l, and its eigenvalues are what
the tempered bound [-2*sqrt(p), 2*sqrt(p)] constrains; scanning degrees
gives lower bounds on averaging discrepancies, exact up to the float
rounding of the eigenvalues.

The sum runs over orbits rather than generators.  Conjugation by
c = (1+i)/sqrt(2) sends a + bi + cj + dk to a + bi - dj + ck and maps
every norm-p set onto itself; the blocks require that, checked exactly.
Sym^{2l}(c) is diagonal, so the sum over an orbit of <c> is |orbit|
times one representative's symmetric power with the entries (r, s),
r != s mod 4, set to zero.  So a block is held as its pieces, one integer
matrix per residue class r mod 4, and the entries between classes are
never stored or read.  The sign flip sigma of (b, d) conjugates the matrix entrywise,
so joining it to <c> pairs orbits whose sums are complex conjugates, and
each orbit of the larger group adds its generator count times the real
part of its representative's masked power.  The fixed points x0 +- x1 i
of c have diagonal matrices, whose powers are diagonal in closed form.
So p = 5 needs one dense frontier and one diagonal term for its 6
generators, p = 13 two and one for its 14.  A dense frontier advances in
int64 residues mod 2^64 plus float64 estimates whose error is bounded
step by step; the integers are rebuilt from the two exactly while that
bound is far below 2^63, and a frontier that would pass it moves to
Python ints (see _SymmetricPowers).

A dense frontier keeps only the columns 0..k/2 of Sym^k.  J = [[0, 1],
[-1, 0]] conjugates every quaternion matrix to its entrywise conjugate, so
entry (k-r, k-s) of Sym^k is (-1)^(r+s) times the conjugate of entry
(r, s), and the right half of each summed block is the sign-weighted flip
of its left half.  Blocks read only even degrees, so a frontier starts at
Sym^2 and advances two degrees per step, multiplying every kept column by
the square of the image of x.

Every block is checked exactly before its spectrum is taken: the
generators are closed under sigma, checked once, so the imaginary parts
cancel by construction, each piece is self-adjoint for the invariant
pairing, which is diagonal with weights 1/binom(2l, k), and the exact
tr(T) and tr(T^2), summed over the pieces, equal the generators' SL_2
character sums, computed from their real parts alone.  Rescaling by
sqrt(binom(2l, k)) then gives a symmetric matrix in plain float64, filled
piece by piece, whose spectrum LAPACK's symmetric eigensolver computes in
one call and which must reproduce those exact traces.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .exact import is_weighted_symmetric, trace_moments
from .formulas import ConsistencyError, hecke_polynomial
from .quaternions import GeneratorSet, LipschitzQuaternion, build_generator_set
from .words import word_counts

# Largest admissible |sum(eig) - tr T| relative to sum|eig|, and likewise
# for the squares; LAPACK rounding leaves under 1e-15 for p = 5, 13, 17, 29
# through l = 32, 20, 12, 8.
TRACE_TOLERANCE = 1e-9

# Float slack of the tempered test |eig| <= 2*sqrt(p) + RAMANUJAN_TOLERANCE.
RAMANUJAN_TOLERANCE = 1e-8

# ---------------------------------------------------------------------------
# Koopman blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KoopmanBlock:
    """Summed generator action on the degree-`degree` harmonics, held as residue-class pieces.

    Rows and columns follow the monomials x^(2l-k) y^k of Sym^{2l}(C^2),
    and column k is the image of monomial k.  Entry (r, s) is zero unless
    r = s mod 4, the generators being closed under conjugation by
    (1 + i)/sqrt(2), so the block is held only as the four read-only object
    arrays `pieces`: piece c holds p^degree times the block's entries at
    the indices c, c + 4, c + 8, ..., as integers, and at degree 1 piece 3
    is empty.  `traces` holds p^degree tr(T) and p^(2 degree) tr(T^2), summed
    exactly over the pieces.  `numerators`, p^degree times the whole block,
    and `matrix`, the block as exact rationals, are derived from the pieces
    on first use.  Blocks compare and hash by identity, so caches keyed by a
    block never hash its entries.
    """

    p: int
    degree: int
    pieces: tuple[np.ndarray, ...]
    traces: tuple[int, int]

    @property
    def dimension(self) -> int:
        return sum(len(piece) for piece in self.pieces)

    @property
    def scale(self) -> int:
        return self.p ** self.degree

    @cached_property
    def numerators(self) -> tuple[tuple[int, ...], ...]:
        """p^degree times the block, as integers, zero between residue classes."""
        dense = np.zeros((self.dimension, self.dimension), dtype=object)
        step = len(self.pieces)
        for c, piece in enumerate(self.pieces):
            dense[c::step, c::step] = piece
        return tuple(map(tuple, dense.tolist()))

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The block itself, as exact rationals."""
        s = self.scale
        return tuple(tuple(Fraction(x, s) for x in row) for row in self.numerators)


def _quaternion_matrix(q: LipschitzQuaternion) -> tuple[tuple[int, int], ...]:
    """[[a+bi, c+di], [-c+di, a-bi]] as (real, imaginary) pairs, row by row."""
    return ((q.x0, q.x1), (q.x2, q.x3), (-q.x2, q.x3), (q.x0, -q.x1))


def _rotate(q: LipschitzQuaternion, quarter_turns: int) -> LipschitzQuaternion:
    """c^t q c^-t for c = (1 + i)/sqrt(2), which sends j to k and k to -j."""
    for _ in range(quarter_turns % 4):
        q = LipschitzQuaternion(q.x0, q.x1, -q.x3, q.x2)
    return q


def _sigma(q: LipschitzQuaternion) -> LipschitzQuaternion:
    """a - bi + cj - dk, whose matrix is the entrywise conjugate of q's."""
    return LipschitzQuaternion(q.x0, -q.x1, q.x2, -q.x3)


def _times_form(re: np.ndarray, im: np.ndarray, form):
    """Multiply every column, a form over x^(n-1-i) y^i, by sum_t form[t] x^(m-t) y^t.

    `form` lists the m + 1 Gaussian-integer coefficients as (real, imaginary)
    pairs; coefficient t shifts each column down by t rows.  The product has
    the dtype of `re` and `im`: Python ints, int64 residues (numpy wraps
    array arithmetic mod 2^64) or float64 estimates, each entry summed from
    at most 2(m + 1) products.
    """
    rows, cols = re.shape
    out_re = np.zeros((rows + len(form) - 1, cols), dtype=re.dtype)
    out_im = np.zeros((rows + len(form) - 1, cols), dtype=re.dtype)
    for shift, (cr, ci) in enumerate(form):
        if cr:
            out_re[shift : shift + rows] += cr * re
            out_im[shift : shift + rows] += cr * im
        if ci:
            out_re[shift : shift + rows] -= ci * im
            out_im[shift : shift + rows] += ci * re
    return out_re, out_im


def _flip(columns: np.ndarray, first: int) -> np.ndarray:
    """Columns first, first + 1, ... of a Sym^k-shaped matrix from the columns they mirror.

    `columns` ends with column k - first, and entry (r, first + j) of the
    result is (-1)^(r + first + j) times entry (k - r, k - first - j).
    """
    flipped = columns[::-1, ::-1].copy()
    # negate the entries with r + first + j odd, the even columns first
    flipped[(first + 1) % 2 :: 2, 0::2] *= -1
    flipped[first % 2 :: 2, 1::2] *= -1
    return flipped


def _diagonal_real_parts(powers: list[tuple[int, int]], degree: int) -> list[int]:
    """Re((a+bi)^(degree-r) (a-bi)^r) for r = 0..degree/2, from the powers of z = a + bi.

    With r <= degree/2 that is |z|^(2r) Re(z^(degree-2r)).  `powers` holds
    z^j as (real, imaginary) pairs for j = 0, 1, ..., starting at [(1, 0),
    (a, b)]; it is extended in place to j = degree, so a scan over
    increasing degrees multiplies each power once.
    """
    a, b = powers[1]
    while len(powers) <= degree:
        re, im = powers[-1]
        powers.append((re * a - im * b, re * b + im * a))
    norm, scale, parts = a * a + b * b, 1, []
    for j in range(degree, -1, -2):
        parts.append(scale * powers[j][0])
        scale *= norm
    return parts


# Unit roundoff of float64.
_U = 2.0**-53


def _gamma(n: int) -> float:
    """n u / (1 - n u), which bounds the relative rounding of a float sum of n terms.

    A recursive sum of n rounded products, or of n rounded terms, errs by at
    most gamma(n) times the sum of the terms' magnitudes (Higham, Accuracy
    and Stability of Numerical Algorithms, section 3.1).
    """
    return n * _U / (1 - n * _U)


def _rebuildable(bound: float, error: float) -> bool:
    """Whether _rebuild is exact for integers up to `bound` whose estimates err by up to `error`.

    float(lo) rounds |lo| <= 2^63 by at most 2^10, and f - float(lo), of size
    at most bound + error + 2^63 + 2^10, rounds by u times that, so the
    quotient by 2^64 is within 1/2 of the true multiple while
    error + u (bound + error + 2^65) < 2^63.  The rule asks for 2^62: the
    factor 2 absorbs the float rounding of the bounds themselves, a
    relative 4u or so per step.
    """
    return error + _U * (bound + error + 2.0**65) < 2.0**62


def _rebuild(residue: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """The integers congruent to the int64 `residue` mod 2^64 nearest the float64 `estimate`.

    Entry lo + 2^64 rint((f - float(lo)) / 2^64), as Python ints: the
    integer itself when _rebuildable holds for its bound and the estimate's
    error.
    """
    wraps = np.rint((estimate - residue.astype(float)) / 2.0**64).astype(np.int64)
    return residue.astype(object) + wraps.astype(object) * 2**64


def _residue(value: int) -> int:
    """`value` mod 2^64, in int64's range."""
    return (value + 2**63) % 2**64 - 2**63


def _advance(re: np.ndarray, im: np.ndarray, half: int, square):
    """Columns 0..half+1 of Sym^(k+2) from columns 0..half of Sym^k, k = 2 half.

    Column half + 1 of Sym^k is the conjugated flip of column half - 1, and
    every column times `square`, the form X^2, is the same column of
    Sym^(k+2).
    """
    re = np.hstack([re, _flip(re[:, half - 1 : half], half + 1)])
    im = np.hstack([im, -_flip(im[:, half - 1 : half], half + 1)])
    return _times_form(re, im, square)


class _Frontier(NamedTuple):
    """One dense frontier: the kept columns of weight * Sym^k(rep).

    While `estimate` holds float64 (real, imaginary) estimates, `re` and
    `im` are int64 residues mod 2^64, `bound` bounds every entry and
    `error` every estimate's distance from its entry; once `estimate` is
    None, `re` and `im` are Python ints.
    """

    re: np.ndarray
    im: np.ndarray
    estimate: tuple[np.ndarray, np.ndarray] | None
    bound: float
    error: float


def _left_half(halves, diagonals, degree: int, dtype) -> np.ndarray:
    """Columns 0..degree/2 of the sum: the frontiers' kept columns plus the diagonal terms."""
    total = np.zeros((degree + 1, degree // 2 + 1), dtype=dtype)
    for columns in halves:
        total += columns
    index = np.arange(degree // 2 + 1)
    for values in diagonals:
        total[index, index] += values
    return total


class _SymmetricPowers:
    """Real sums of the even symmetric powers of the quaternion matrices, one term per orbit.

    The orbits are those of the group generated by conjugation by c =
    (1+i)/sqrt(2) and by sigma: a + bi + cj + dk -> a - bi + cj - dk, which
    conjugates the matrix entrywise.  The generator multiset must be closed
    under both, checked exactly, or ConsistencyError is raised: without
    sigma the imaginary parts of the sum cannot cancel, and without c the
    sum does not vanish between the residue classes mod 4.

    Sym^k(c) is diag(zeta^(k-2r)) with zeta = (1+i)/sqrt(2), so conjugating
    a generator by c^t multiplies entry (r, s) of its symmetric power by
    zeta^(2t(s-r)) = i^(t(s-r)).  Summed over t = 0..3, those factors
    cancel unless r = s mod 4, where they add up to 4.  A <c>-orbit's sum
    is therefore |orbit| times the representative's symmetric power masked
    to the entries with r = s mod 4; sigma maps <c>-orbits to <c>-orbits
    (it inverts c) and conjugates their sums, so a whole orbit adds
    weight * Re(mask(Sym^k(rep))), weight being its generator count with
    multiplicity.  The mask is never applied: each frontier starts at
    weight * Sym^2(rep), and the summed powers are read only on the entries
    r = s mod 4, where they equal the generator sum.  A representative
    with c = d = 0 has the diagonal matrix diag(a+bi, a-bi), whose power is
    diagonal in closed form (_diagonal_real_parts) and needs no frontier,
    only the powers of a + bi, extended as degrees grow; every other one
    advances a dense complex frontier.

    A frontier holds only the columns 0..k/2 of Sym^k.  With J = [[0, 1],
    [-1, 0]], J M J^-1 = conj(M) for every quaternion matrix M, and Sym^k(J)
    is the antidiagonal of signs (-1)^r, so entry (k-r, k-s) of Sym^k(M) is
    (-1)^(r+s) conj(entry (r, s)): the right half of every power, and of
    their weighted real sum, is the sign-weighted flip of the left half.
    Column s is X^(k-s) Y^s with X = alpha x - conj(beta) y and Y = beta x
    + conj(alpha) y, the images of x and y, so the frontier starts at Sym^2
    (X^2 and XY) and advances two degrees per step: every kept column times
    X^2, a three-term form computed once per representative, gives the same
    column of Sym^(k+2).  The one column that degree k+2 keeps beyond
    those, k/2 + 1, is appended first as the conjugated flip of column
    k/2 - 1.  Blocks read only even degrees, so no odd one is built.  Only
    the frontier degree is kept; asking for a lower degree restarts the
    recursion from Sym^2, which callers avoid by scanning degrees in
    increasing order.

    A frontier's integers are carried as an int64 residue mod 2^64, exact
    because numpy wraps array arithmetic, and a float64 estimate, with a
    bound B on the entries and a bound E on the estimate's error; each
    step advances both with the same arithmetic (_advance) and updates B
    and E by the rule stated in `summed`.  While E, plus the rounding of
    the subtraction below, stays under 2^62 (_rebuildable), every entry is
    lo + 2^64 rint((f - float(lo)) / 2^64) (_rebuild).  A frontier whose next step could break
    the rule is rebuilt as Python ints first, exactly, and carries on in
    them; p = 5 stays on residues through degree 68 (l = 34), p = 13
    through degree 44 and the norm-25 set through degree 36.
    """

    def __init__(self, quaternions):
        counts = Counter(quaternions)
        if Counter(map(_sigma, quaternions)) != counts:
            raise ConsistencyError(
                "the generator quaternions are not closed under a + bi + cj + dk -> "
                "a - bi + cj - dk, so the imaginary parts of their blocks do not cancel"
            )
        if Counter(_rotate(q, 1) for q in quaternions) != counts:
            raise ConsistencyError(
                "the generator quaternions are not closed under conjugation by "
                "(1 + i)/sqrt(2), so their blocks do not vanish between residue classes mod 4"
            )
        self._diagonals, self._squares, self._gains, self._start = [], [], [], []
        seen = set()
        for q in counts:
            if q in seen:
                continue
            orbit = {_rotate(g, t) for g in (q, _sigma(q)) for t in range(4)}
            seen |= orbit
            weight = sum(counts[g] for g in orbit)
            if q.x2 == q.x3 == 0:
                self._diagonals.append((weight, [(1, 0), (q.x0, q.x1)]))
                continue
            # Substituting (x, y) -> (x, y) M sends x to X = m00 x + m10 y
            # and y to Y = m01 x + m11 y, which makes Sym^k a homomorphism.
            # Sym^1 is M, and its columns X and Y times X are the columns
            # X^2 and XY of Sym^2; the frontier carries the orbit's weight.
            m = _quaternion_matrix(q)
            sym1 = np.array(m, dtype=object).reshape(2, 2, 2)
            re, im = _times_form(sym1[..., 0], sym1[..., 1], (m[0], m[2]))
            square = tuple(zip(re[:, 0], im[:, 0]))
            self._squares.append(square)
            self._gains.append(sum(abs(cr) + abs(ci) for cr, ci in square))
            re, im = weight * re, weight * im
            bound = float(max(map(abs, [*re.flat, *im.flat])))
            estimate = (re.astype(float), im.astype(float))
            self._start.append(
                _Frontier(re.astype(np.int64), im.astype(np.int64), estimate, bound, 0.0)
            )
        self._reset()

    @property
    def frontiers(self) -> int:
        """Orbit terms summed: dense frontiers plus closed-form diagonals."""
        return len(self._squares) + len(self._diagonals)

    def _reset(self) -> None:
        self._degree = 2
        self._mats = list(self._start)

    def summed(self, degree: int) -> np.ndarray:
        """The sum over generators of Sym^degree, as Python ints.

        The sum is real by sigma-closure and zero between residue classes
        mod 4.  Only the entries r = s mod 4 of the columns 0..degree/2 are
        assembled, and the right half is their signed flip; every other
        entry is that zero.  While every frontier is on residues and the
        summed estimate keeps the rule of _rebuildable, those entries are
        summed as an int64 residue and a float64 estimate and then
        rebuilt; otherwise the frontiers still on residues are rebuilt and
        the sum is formed in Python ints.  `degree` must be even and at
        least 2.
        """
        if degree < 2 or degree % 2:
            raise ValueError(f"degree must be even and >= 2, got {degree}")
        if degree < self._degree:
            self._reset()
        while self._degree < degree:
            half = self._degree // 2
            advanced = []
            for (re, im, estimate, bound, error), square, gain in zip(
                self._mats, self._squares, self._gains
            ):
                if estimate is not None:
                    # An entry of the step sums at most six rounded products
                    # of a part of a coefficient of X^2 and an estimate
                    # within E = error of an integer of size at most
                    # B = bound, and those parts add up to at most
                    # G = gain = sum |Re c| + |Im c|: the step maps (B, E)
                    # to (G B, G E + gamma_6 G (B + E)).
                    next_error = gain * error + _gamma(2 * len(square)) * gain * (bound + error)
                    if not _rebuildable(gain * bound, next_error):
                        re, im = _rebuild(re, estimate[0]), _rebuild(im, estimate[1])
                        estimate = None
                re, im = _advance(re, im, half, square)
                if estimate is not None:
                    estimate = _advance(*estimate, half, square)
                    error = next_error
                    peak = max(float(np.abs(part).max()) for part in estimate)
                    bound = min(gain * bound, peak + error)
                advanced.append(_Frontier(re, im, estimate, bound, error))
            self._mats = advanced
            self._degree += 2
        half = degree // 2
        # the diagonal terms on the columns 0..half; the flip gives the rest
        diagonals = [
            [weight * v for v in _diagonal_real_parts(powers, degree)]
            for weight, powers in self._diagonals
        ]
        fast = all(frontier.estimate is not None for frontier in self._mats)
        if fast:
            # The float sum of n terms, the frontiers' estimates and the
            # rounded diagonals, errs by at most the frontiers' errors plus
            # gamma_n times the terms' sizes.  (Sizes past 2^128 have long
            # failed the rule, so they are capped to stay in float range.)
            sizes = [frontier.bound + frontier.error for frontier in self._mats]
            sizes += [float(min(max(map(abs, values)), 2**128)) for values in diagonals]
            error = sum(frontier.error for frontier in self._mats)
            error += _gamma(len(sizes)) * sum(sizes)
            fast = _rebuildable(sum(sizes), error)
        if fast:
            residue = _left_half(
                [frontier.re for frontier in self._mats],
                [np.array([_residue(v) for v in values], dtype=np.int64) for values in diagonals],
                degree,
                np.int64,
            )
            estimate = _left_half(
                [frontier.estimate[0] for frontier in self._mats],
                [np.array(values, dtype=float) for values in diagonals],
                degree,
                float,
            )
            left = [_rebuild(residue[c::4, c::4], estimate[c::4, c::4]) for c in range(4)]
        else:
            # every frontier still on the residue path obeys the rule, so
            # its rebuilt integers are exact
            halves = [
                frontier.re if frontier.estimate is None
                else _rebuild(frontier.re, frontier.estimate[0])
                for frontier in self._mats
            ]
            total = _left_half(halves, diagonals, degree, object)
            left = [total[c::4, c::4] for c in range(4)]
        out = np.zeros((degree + 1, degree + 1), dtype=object)
        for c, piece in enumerate(left):
            out[c::4, c : half + 1 : 4] = piece
        out[:, half + 1 :] = _flip(out[:, :half], half + 1)
        return out


class _Characters:
    """Exact tr(N) and tr(N^2) of N = sum_g Sym^k(g), from the generators' real parts alone.

    A 2x2 matrix with trace t and determinant d has tr Sym^k = h_k(t, d),
    where h_0 = 1, h_1 = t and h_(k+1) = t h_k - d h_(k-1), the characters
    of SL_2 (Fulton and Harris, Representation Theory, section 11.1).  The
    matrix of a quaternion g of norm n has trace 2 x0(g) and determinant n,
    and Sym^k(g) Sym^k(h) = Sym^k(gh), so tr(N) = sum_g h_k(2 x0(g), n) and
    tr(N^2) = sum_(g,h) h_k(2 x0(gh), n^2).  Both sums are grouped by the
    real part, and each sequence h is extended once, as degrees are asked
    for.  Nothing here shares the frontiers' arithmetic.
    """

    def __init__(self, genset: GeneratorSet):
        n = genset.den
        coords = np.array(list(map(dataclasses.astuple, genset.source_quaternions)), dtype=object)
        # x0(gh) = x0(g) x0(h) - x1(g) x1(h) - x2(g) x2(h) - x3(g) x3(h)
        products = coords @ (coords * np.array([1, -1, -1, -1], dtype=object)).T
        self._sums = (
            (Counter(2 * coords[:, 0]), n),
            (Counter((2 * products).flat), n * n),
        )
        self._sequences: dict[tuple[int, int], list[int]] = {}

    def traces(self, k: int) -> tuple[int, int]:
        """tr(N) and tr(N^2) for N the generator sum of Sym^k."""
        return tuple(
            sum(count * self._character(t, d, k) for t, count in counts.items())
            for counts, d in self._sums
        )

    def _character(self, t: int, d: int, k: int) -> int:
        h = self._sequences.setdefault((t, d), [1, t])
        while len(h) <= k:
            h.append(t * h[-1] - d * h[-2])
        return h[k]


@lru_cache(maxsize=None)
def _powers_for(genset: GeneratorSet) -> _SymmetricPowers:
    """The symmetric-power frontiers of a generator set, built once per set."""
    return _SymmetricPowers(genset.source_quaternions)


@lru_cache(maxsize=None)
def _characters_for(genset: GeneratorSet) -> _Characters:
    """The trace characters of a generator set, built once per set."""
    return _Characters(genset)


@lru_cache(maxsize=None)
def _generator_set(p: int) -> GeneratorSet:
    """The norm-p generator set, built once per prime."""
    return build_generator_set(p)


@lru_cache(maxsize=None)
def koopman_block(genset: GeneratorSet, degree: int) -> KoopmanBlock:
    """Matrix of the sum of all generator actions on degree-`degree` harmonics.

    Built as the sum of Sym^{2*degree} of the generators' quaternion
    matrices, taken orbit by orbit (see _SymmetricPowers, which raises
    ConsistencyError when the generators are not closed under sigma and
    under conjugation by (1 + i)/sqrt(2)), and split into one piece per
    residue class mod 4 (see KoopmanBlock).  Each piece must pass an exact
    check, or ConsistencyError is raised: T[i][j] * binom(2l, j) ==
    T[j][i] * binom(2l, i) for all i, j of its class, i.e. T is
    self-adjoint for the invariant pairing (the entries between classes
    are zero).  The exact tr(T) and tr(T^2), summed over the pieces, must
    then equal the character sums of _Characters, a route that shares none
    of the block's construction, or ConsistencyError is raised.
    """
    if degree < 1:
        raise ValueError(
            f"degree must be >= 1 (degree 0 carries the constants), got {degree}"
        )
    total = _powers_for(genset).summed(2 * degree)
    weights = [math.comb(2 * degree, k) for k in range(2 * degree + 1)]
    pieces = []
    for c in range(4):
        piece = total[c::4, c::4].copy()
        if not is_weighted_symmetric(piece, weights[c::4]):
            raise ConsistencyError(
                f"block at degree {degree} is not self-adjoint for the binomial pairing"
            )
        piece.setflags(write=False)
        pieces.append(piece)
    traces = tuple(sum(moment) for moment in zip(*map(trace_moments, pieces)))
    expected = _characters_for(genset).traces(2 * degree)
    if traces != expected:
        raise ConsistencyError(
            f"block at degree {degree} has p^l tr(T), p^2l tr(T^2) = {traces}, but the "
            f"generators' characters give {expected}"
        )
    return KoopmanBlock(p=genset.p, degree=degree, pieces=tuple(pieces), traces=traces)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def check_traces(block: KoopmanBlock, eigenvalues) -> tuple[float, float]:
    """Require a float spectrum to reproduce the block's exact tr(T) and tr(T^2).

    The exact traces are the block's `traces`, p^l and p^{2l} times those
    of T, which koopman_block summed over the pieces and checked against
    the generators' characters.  Raises ConsistencyError
    when either sum misses by more than TRACE_TOLERANCE relative to
    sum |eig| (respectively sum eig^2); otherwise returns the two relative
    misses.
    """
    exact_trace, exact_square = block.traces
    s = block.scale
    eigs = np.asarray(eigenvalues, dtype=float)
    defects = []
    for power, exact in ((1, exact_trace / s), (2, exact_square / (s * s))):
        measured = float((eigs ** power).sum())
        size = max(1.0, float((np.abs(eigs) ** power).sum()))
        if abs(measured - exact) > TRACE_TOLERANCE * size:
            raise ConsistencyError(
                f"spectrum at degree {block.degree} gives tr(T^{power}) = {measured!r}, "
                f"exact value {exact!r}"
            )
        defects.append(abs(measured - exact) / size)
    return defects[0], defects[1]


class Spectrum(tuple):
    """Eigenvalues of a block, ascending, carrying the float defects they passed.

    `trace_defects` are the relative misses of tr(T) and tr(T^2) that
    check_traces measured.
    """

    trace_defects: tuple[float, float]

    def __new__(cls, eigenvalues, trace_defects: tuple[float, float]):
        spectrum = super().__new__(cls, eigenvalues)
        spectrum.trace_defects = trace_defects
        return spectrum


def _symmetrised(block: KoopmanBlock) -> np.ndarray:
    """S[i][j] = T[i][j] * sqrt(binom(2l, j) / binom(2l, i)) in float64, filled piece by piece.

    Each entry is its numerator over p^l, correctly rounded, times the
    float ratio of the square roots; S is zero between residue classes.
    """
    dimension, step = block.dimension, len(block.pieces)
    weights = np.sqrt([float(math.comb(2 * block.degree, k)) for k in range(dimension)])
    sym = np.zeros((dimension, dimension))
    for c, piece in enumerate(block.pieces):
        root = weights[c::step]
        scaled = (piece / block.scale).astype(float)
        sym[c::step, c::step] = scaled * (root[None, :] / root[:, None])
    return sym


@lru_cache(maxsize=None)
def block_spectrum(block: KoopmanBlock) -> Spectrum:
    """Eigenvalues of a block, ascending, with the defects of their checks.

    Exact self-adjointness for the pairing diag(1/binom(2l, k)), which
    koopman_block has checked, makes the rescaled block S (_symmetrised)
    symmetric up to float rounding.  S is filled from the pieces, but
    LAPACK reads one triangle of the whole S, and its eigenvalues must pass
    check_traces.
    """
    try:
        eigs = np.linalg.eigvalsh(_symmetrised(block))
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(
            f"eigenvalues of the degree-{block.degree} block did not converge: {exc}"
        ) from None
    return Spectrum((float(v) for v in eigs), check_traces(block, eigs))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeSpectrum:
    """One degree of the tempered check.

    `pieces` lists the sizes of the block's residue-class pieces, on which
    its exact checks ran.  `block_ms` and `spectrum_ms` are the wall-clock
    milliseconds that koopman_block and block_spectrum took for this degree
    (near zero on a cache hit); they take no part in equality.
    """

    degree: int
    eigenvalues: tuple[float, ...]
    max_abs: float
    trace_defects: tuple[float, float]
    pieces: tuple[int, ...]
    block_ms: float = field(compare=False)
    spectrum_ms: float = field(compare=False)


@dataclass(frozen=True)
class RamanujanReport:
    """The tempered check over degrees 1..l_max, and how its blocks were built.

    `frontiers` is the number of orbit terms: dense symmetric-power
    frontiers plus closed-form diagonals.
    """

    p: int
    l_max: int
    bound: float
    per_degree: tuple[DegreeSpectrum, ...]
    global_max_abs: float
    passed: bool
    frontiers: int


def verify_ramanujan(p: int, l_max: int) -> RamanujanReport:
    """Check that every block eigenvalue lies in the tempered interval.

    Scans harmonic degrees 1..l_max for the norm-p generator sum; each
    degree contributes its sorted spectrum, and the report passes when the
    overall maximum |eig| is at most 2*sqrt(p) + RAMANUJAN_TOLERANCE.
    """
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    genset = _generator_set(p)
    bound = 2.0 * math.sqrt(p)
    records = []
    for degree in range(1, l_max + 1):
        started = time.perf_counter()
        block = koopman_block(genset, degree)
        built = time.perf_counter()
        eigs = block_spectrum(block)
        records.append(
            DegreeSpectrum(
                degree=degree,
                eigenvalues=tuple(eigs),
                max_abs=max(abs(e) for e in eigs),
                trace_defects=eigs.trace_defects,
                pieces=tuple(len(piece) for piece in block.pieces),
                block_ms=(built - started) * 1000.0,
                spectrum_ms=(time.perf_counter() - built) * 1000.0,
            )
        )
    global_max = max(r.max_abs for r in records)
    return RamanujanReport(
        p=p,
        l_max=l_max,
        bound=bound,
        per_degree=tuple(records),
        global_max_abs=global_max,
        passed=global_max <= bound + RAMANUJAN_TOLERANCE,
        frontiers=_powers_for(genset).frontiers,
    )


def sphere_discrepancy_profile(p: int, n: int, shape: str, l_max: int) -> tuple[float, ...]:
    """Lower bounds on the radius-n averaging norm, one per l_max, up to float rounding.

    Entry l - 1 is the largest value of |P_n(eig)| / |S_n| (or of the
    summed ball polynomial over |B_n|) over the block spectra of degrees
    1..l.  Every harmonic degree is a genuine invariant subspace of the
    mean-zero space, so at the exact eigenvalues each entry could only
    underestimate the true norm.  The polynomial is evaluated once on the
    spectra of degrees 1..l_max together, and the running maximum of the
    per-degree maxima is the whole nondecreasing profile.  The eigenvalues
    are LAPACK's float64 ones, though, and the polynomial is evaluated in
    floats, so an entry that attains the norm may exceed it by a few ulps:
    unlike the torus certificates, which are exact Rayleigh quotients,
    these values are not certified.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if shape not in ("sphere", "ball"):
        raise ValueError(f"shape must be 'sphere' or 'ball', got {shape!r}")
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    genset = _generator_set(p)
    polys = [hecke_polynomial(p, k) for k in range(n + 1)]
    sphere_count, ball_count = word_counts(p, n)
    spectra = [block_spectrum(koopman_block(genset, degree)) for degree in range(1, l_max + 1)]
    # Horner on all spectra at once performs each eigenvalue's float
    # operations in the scalar order, so the values are bit-identical.
    eigs = np.concatenate(spectra)
    if shape == "sphere":
        values = abs(polys[n](eigs)) / sphere_count
    else:
        values = abs(sum(poly(eigs) for poly in polys)) / ball_count
    # the 2d + 1 eigenvalues of degree d start at index d^2 - 1
    starts = np.arange(1, l_max + 1) ** 2 - 1
    return tuple(np.maximum.accumulate(np.maximum.reduceat(values, starts)).tolist())


def sphere_discrepancy_estimate(p: int, n: int, shape: str, l_max: int) -> float:
    """Lower bound on the radius-n averaging norm from degrees 1..l_max, up to float rounding.

    The last entry of sphere_discrepancy_profile, which says why it is not
    certified.
    """
    return sphere_discrepancy_profile(p, n, shape, l_max)[-1]


def clear_caches() -> None:
    """Drop all memoised generator sets, blocks, spectra, and symmetric-power frontiers."""
    _generator_set.cache_clear()
    _powers_for.cache_clear()
    _characters_for.cache_clear()
    koopman_block.cache_clear()
    block_spectrum.cache_clear()
