"""Windowed character-space compressions of toral automorphism averages.

An integer matrix g with determinant +-1 acts on the 2-torus, and the
induced action on characters sends the frequency vector m to
transpose(g^-1) m.  A generating set is the chosen matrices followed by
their inverses, kept as the words module's IntegerGenerators over
denominator 1.  Averaging over reduced words of length n in it is, in
the character basis, a huge permutation-like sum; compressing it to a
finite sup-norm window yields a sparse symmetric nonnegative matrix
whose norm can only underestimate the true mean-zero operator norm.
The compression is built on primitive frequencies, one of each pair +-m,
where its largest eigenvalue is unchanged.  It is then quotiented by the
signed permutations P of the square that permute the generating set by
conjugation, g -> P^T g P: they map reduced words of each length to
reduced words of that length, so the compression commutes with m -> Pm
and can be summed over the orbits of that group.  Orbit-constant vectors
are vectors, so every Rayleigh quotient of the quotient is one of the
window; and the group average of a nonnegative Perron vector is a
nonnegative invariant Perron vector, so the largest eigenvalue survives.
It is bounded from below by an exact Rayleigh quotient at a Ritz vector
of plain three-term Lanczos, run on each class of orbits mod 2 apart,
since no word moves m between classes; the quotient is held as its
nonzero integer entries sorted by row, so all of this needs numpy alone.
Together with the closed-form upper bound this sandwiches the
discrepancy from both sides.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .formulas import regular_norm
from .words import IntegerGenerators, word_counts, word_levels

Matrix2 = tuple[tuple[int, int], tuple[int, int]]

SANOV_MATRICES: tuple[Matrix2, ...] = (((1, 2), (0, 1)), ((1, 0), (2, 1)))
RANK_ONE_MATRICES: tuple[Matrix2, ...] = (((1, 1), (0, 1)),)

PRESETS: dict[str, tuple[Matrix2, ...]] = {
    "sanov": SANOV_MATRICES,
    "rank-one": RANK_ONE_MATRICES,
}

# Slack of the window sandwich: an estimate may exceed the closed form by
# UPPER_TOLERANCE and fall below the previous window's by
# MONOTONICITY_TOLERANCE.
UPPER_TOLERANCE = 1e-8
MONOTONICITY_TOLERANCE = 1e-6

# Lanczos stops at the first test at which the top Ritz pair has residual
# estimate at most LANCZOS_TOL times the Ritz value, and gives up after
# LANCZOS_MAX_STEPS steps.  The benchmark windows need at most 56 per
# class mod 2 from the seeded start; a Sanov ball window at n = 2 started
# from the sphere window's Ritz vector needs 24, and an n = 1 ball window is
# derived from its sphere window with no solve.  Both only steer the
# solve: the certificate is an exact Rayleigh quotient of the rounded Ritz
# vector.
# The test needs a dense eigendecomposition of the tridiagonal matrix, so
# it runs only every LANCZOS_CHECK_STEPS steps (see _lanczos).
LANCZOS_TOL = 1e-7
LANCZOS_MAX_STEPS = 300
LANCZOS_CHECK_STEPS = 8


# The signed permutation matrices modulo +-I: P and -P conjugate alike and
# act alike on pairs +-m.  The identity comes first.
_SQUARE_SYMMETRIES: tuple[Matrix2, ...] = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 0), (0, -1)),
    ((0, -1), (1, 0)),
)


def build_torus_genset(matrices: Sequence[Matrix2] | str) -> IntegerGenerators:
    """Symmetrise a list of automorphism matrices into a generating set.

    Accepts a preset name ('sanov' or 'rank-one') or an explicit sequence
    of integer matrices of determinant +-1; the inverse of each, its
    adjugate times its determinant, is appended over denominator 1.  The
    input may not contain repeats, inverse pairs, or involutions, since
    the inverse pairing must be a fixed-point-free involution on the
    doubled list.
    """
    if isinstance(matrices, str):
        try:
            matrices = PRESETS[matrices]
        except KeyError:
            raise ValueError(
                f"unknown preset {matrices!r}; choose from {sorted(PRESETS)}"
            ) from None
    gens = [_integer_matrix(m) for m in matrices]
    if not gens:
        raise ValueError("need at least one generator matrix")
    inverses = []
    for g in gens:
        (a, b), (c, d) = g
        det = a * d - b * c
        if det not in (1, -1):
            raise ValueError(f"matrix {g} has determinant {det}, not a torus automorphism")
        inverses.append(((det * d, -det * b), (-det * c, det * a)))
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i != j and g == h:
                raise ValueError(f"generators {i} and {j} are equal")
            if g == inverses[j]:
                raise ValueError(
                    f"generator {i} equals the inverse of generator {j}; "
                    "inverses are added automatically"
                )
    r = len(gens)
    inverse_of = tuple(range(r, 2 * r)) + tuple(range(r))
    return IntegerGenerators(tuple(gens) + tuple(inverses), 1, inverse_of)


def _integer_matrix(entry) -> Matrix2:
    """`entry` as a 2x2 tuple of ints; ValueError unless every entry is an integer.

    Bools are rejected although they are ints, and so are floats with
    integral values: neither is a matrix entry anyone means.
    """
    if not (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(row, (list, tuple)) and len(row) == 2 for row in entry)
        and all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool)
            for row in entry
            for v in row
        )
    ):
        raise ValueError(f"not a 2x2 matrix of integers: {entry!r}")
    return tuple(tuple(int(v) for v in row) for row in entry)


def load_generator_matrices(path: str) -> tuple[Matrix2, ...]:
    """Read a JSON array of 2x2 matrices whose entries are JSON integers."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("generator file must hold a JSON array of 2x2 matrices")
    return tuple(_integer_matrix(entry) for entry in data)


def symmetries(genset: IntegerGenerators) -> tuple[Matrix2, ...]:
    """The signed permutations P, modulo +-I, with P^T g P in the set for every generator g.

    These P form a group, the stabiliser of the generating set, listed
    identity first: order 4 for Sanov (the swap exchanges a and b,
    diag(1, -1) maps each to its inverse), 2 for the rank-one preset and 1
    for a set with no symmetry.
    """
    def product(x: Matrix2, y: Matrix2) -> Matrix2:
        return tuple(
            tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in (0, 1)) for i in (0, 1)
        )

    gens = set(genset.matrices)
    return tuple(
        p
        for p in _SQUARE_SYMMETRIES
        if {product(product(tuple(zip(*p)), g), p) for g in gens} == gens
    )


class HalfWindow:
    """Primitive frequencies of sup-norm at most `radius`, one of each pair +-m.

    The points are the primitive m with m1 > 0, or m1 = 0 and m2 > 0, in
    lexicographic order.  Only their sieve is held: `mask[m1, m2 + radius]`
    marks the points of the half grid 0 <= m1 <= radius, |m2| <= radius,
    and `points`, the (size, 2) array of their coordinates, is derived
    from it on each read.
    """

    def __init__(self, radius: int):
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        self.radius = r = radius
        # coprime[x, y] says gcd(x, y) = 1 for 0 <= x, y <= r: a sieve in
        # which (d, 0) is still marked when d is prime
        coprime = np.ones((r + 1, r + 1), dtype=bool)
        coprime[0, 0] = False
        for d in range(2, r + 1):
            if coprime[d, 0]:
                coprime[::d, ::d] = False
        # the half grid 0 <= m1 <= r, |m2| <= r; in its column m1 = 0,
        # gcd(0, m2) = |m2| leaves (0, +-1), of which (0, 1) is kept
        self.mask = np.concatenate([coprime[:, :0:-1], coprime], axis=1)
        self.mask[0, :r] = False
        self.size = int(np.count_nonzero(self.mask))

    @property
    def points(self) -> np.ndarray:
        x, y = np.nonzero(self.mask)
        return np.column_stack([x, y - self.radius])


def _max_diagonal(words: np.ndarray, radius: int) -> int:
    """The largest diagonal entry of the count matrix C of `words`, from the words alone.

    C[m, m] counts the words W with W^T m = +-m: every W equal to +-I,
    which fixes every pair, and the words that fix the pair +-m itself.
    For W != +-I and a sign s, W^T - sI is not zero, so its kernel is 0
    unless its determinant is, and then the line of the primitive v
    orthogonal to a nonzero row: W fixes at most one pair per sign.  Those
    pairs are counted where they have sup-norm <= radius, keyed by the v
    with v1 > 0, or v1 = 0 and v2 > 0.  The arithmetic is exact: int64
    within word_levels' guard, Python ints past it.
    """
    a, b, c, d = (words[:, i, j] for i in (0, 1) for j in (0, 1))
    identities, fixed = 0, Counter()
    for s in (1, -1):
        # W = [[a, b], [c, d]]: the rows of W^T - sI are (a - s, c) and (b, d - s)
        scalar = (a == s) & (b == 0) & (c == 0) & (d == s)
        identities += int(scalar.sum())
        singular = np.flatnonzero(((a - s) * (d - s) == b * c) & ~scalar)
        for wa, wb, wc, wd in zip(*(w[singular].tolist() for w in (a, b, c, d))):
            x, y = (wc, s - wa) if (wa, wc) != (s, 0) else (wd - s, -wb)
            if x < 0 or (x == 0 and y < 0):
                x, y = -x, -y
            g = math.gcd(x, y)
            if max(x, abs(y)) <= radius * g:
                fixed[x // g, y // g] += 1
    return identities + max(fixed.values(), default=0)


def _square_table(window: HalfWindow) -> np.ndarray:
    """One int32 table of the window over the full square [-radius, radius]^2.

    Its entry at (m1 + radius, m2 + radius) is the position of whichever
    of +-m is a point of the window, and -1 where m is not primitive.  The
    rows m1 >= 0 number the window's mask by a running count; the rows
    m1 <= 0 are those turned about the centre, and both hold the row m1 = 0.
    """
    r = window.radius
    half = np.cumsum(window.mask, dtype=np.int32).reshape(window.mask.shape)
    half -= 1
    half[~window.mask] = -1
    table = np.full((2 * r + 1,) * 2, -1, dtype=np.int32)
    table[r:] = half
    np.maximum(table[: r + 1], half[::-1, ::-1], out=table[: r + 1])
    return table


def _lookup(table: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which frequencies (m1, m2) lie in a square table, and the positions of +-m there.

    The positions are -1 where m is not primitive.
    """
    r = len(table) // 2
    inside = np.flatnonzero((np.abs(m1) <= r) & (np.abs(m2) <= r))
    return inside, table[m1[inside] + r, m2[inside] + r]


class OrbitSums(NamedTuple):
    """The nonzero entries of a square int64 matrix, sorted by row.

    Entry i is data[i] in row rows[i] and column columns[i].
    """

    rows: np.ndarray
    columns: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.data)


@dataclass(frozen=True, eq=False)
class WindowOperator:
    """Orbit sums K of the count matrix C of one reduced-word average.

    C / words_used is the window compression A restricted to primitive
    frequencies and folded by m -> -m.  A is symmetric, nonnegative and
    commutes with m -> -m; it preserves gcd(m1, m2), and its gcd-d block
    at radius R is its primitive block at radius R // d.  So the largest
    eigenvalue of C / words_used is the norm of A.  C also commutes with
    the group of `symmetries`, of order `symmetry_order`, acting on the
    half-window.  `entries` holds the nonzero K[O, O'], the sum of C over
    m in O and m' in O' for orbits O, O', sorted by row O and then column
    O'; `orbit_sizes` is D, the orbit sizes; and `max_diagonal` is the
    largest diagonal entry of C itself.
    D^(-1/2) K D^(-1/2) / words_used is C / words_used compressed to
    orbit-constant vectors: each of its Rayleigh quotients is one of A,
    and its largest eigenvalue is that of A, since averaging a
    nonnegative Perron vector over the group keeps it a Perron vector.
    Orbits are numbered class by class mod 2 (`_residue_classes`), and
    K has no entry between classes: block_starts[b] is class b's first.
    """

    window: HalfWindow
    entries: OrbitSums
    orbit_sizes: np.ndarray
    block_starts: tuple[int, ...]
    max_diagonal: int
    symmetry_order: int
    n: int
    shape: str
    words_used: int
    q: int


def _residue_classes(genset: IntegerGenerators, group: Sequence[Matrix2]) -> np.ndarray:
    """The class of each nonzero residue m mod 2, at index 2 (m1 mod 2) + (m2 mod 2) - 1.

    W^T m mod 2 depends only on W and m mod 2, and so does m P, so no word
    leaves an orbit of the residues under the generators and the group.
    Those orbits are the classes, numbered by their smallest index.  Sanov,
    I mod 2, has two: {(0, 1), (1, 0)} and {(1, 1)}; [[2, 1], [1, 1]] one.
    """
    moves = np.eye(3, dtype=bool)
    for (a, b), (c, d) in genset.matrices + tuple(group):
        for m1, m2 in ((0, 1), (1, 0), (1, 1)):
            moves[2 * m1 + m2 - 1, 2 * ((a * m1 + c * m2) % 2) + (b * m1 + d * m2) % 2 - 1] = True
    # every move is invertible, and two moves reach the whole orbit of three
    return np.unique(np.argmax(moves @ moves, axis=1), return_inverse=True)[1]


def _orbits(
    window: HalfWindow, table: np.ndarray, group: Sequence[Matrix2], classes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The orbit number of each half-window point, each orbit's first point, and the block starts.

    A point's orbit is labelled by the smallest position over its images
    under the group, and orbits are numbered by class in `classes`, then
    by label.  A signed permutation only swaps and negates coordinates, so
    the table read at the images of all points is the table transposed
    and flipped.  The labels stay on the half grid of the window's mask:
    an orbit's first point is where a point's label is its own position,
    and the first points come back as an (orbits, 2) array of coordinates
    in orbit order.
    """
    r = window.radius
    own = table[r:]
    label = own
    for (a, b), (c, d) in group[1:]:
        # m P = (a m1 + c m2, b m1 + d m2), with one nonzero term in each
        image = table if a else table.T
        label = np.minimum(label, image[:: a + b, :: c + d][r:])
    x, y = np.nonzero(window.mask & (label == own))
    block = classes[2 * (x % 2) + (y - r) % 2 - 1]
    order = np.argsort(block, kind="stable")
    x, y = x[order], y[order]
    number = np.empty(window.size, dtype=np.int32)
    number[own[x, y]] = np.arange(len(order), dtype=np.int32)
    starts = np.searchsorted(block[order], np.arange(classes.max() + 2))
    return number[label[window.mask]], np.column_stack([x, y - r]), tuple(starts.tolist())


def _window_words(genset: IntegerGenerators, n: int, shape: str, radius: int) -> np.ndarray:
    """The (N, 2, 2) word matrices W of an (n, shape) window, checked for 64-bit images.

    The character action of a word is (W^-1)^T; inversion permutes each
    sphere of reduced words, so summing the maps m -> W^T m instead gives
    the same operator.  Image coordinates of W^T m are at most the radius
    times a column sum of |W|, bounded here in Python ints so that the
    bound itself cannot wrap.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if shape not in ("sphere", "ball"):
        raise ValueError(f"shape must be 'sphere' or 'ball', got {shape!r}")
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    levels = word_levels(genset, n)
    words = levels[n][0] if shape == "sphere" else np.concatenate([p for p, _, _ in levels])
    if radius * int(np.abs(words).sum(axis=1).max()) >= 2 ** 62:
        raise OverflowError("window images would overflow 64-bit lattice arithmetic")
    return words


def _orbit_pairs(
    words: np.ndarray, table: np.ndarray, orbit: np.ndarray, reps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each orbit pair (O, O') with a word taking O's first point into O', and how many words do.

    The pairs come back as int64 rows O, columns O' and word counts, in
    increasing order of O and then O'.  They are keyed O * len(reps) + O'
    in one buffer, int32 while the largest key fits, which is sorted in
    place and counted by its runs; the buffer is dropped as soon as its
    distinct keys are read off.
    """
    m1, m2 = reps.T
    count = len(reps)
    pairs = np.empty(len(words) * count, dtype=np.int32 if count ** 2 < 2 ** 31 else np.int64)
    filled = 0
    for (a, b), (c, d) in words.tolist():
        # unimodular words keep frequencies primitive, so every hit is >= 0
        inside, hit = _lookup(table, a * m1 + c * m2, b * m1 + d * m2)
        pairs[filled : filled + len(inside)] = inside * count + orbit[hit]
        filled += len(inside)
    pairs = pairs[:filled]
    pairs.sort()
    run = np.ones(filled, dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=run[1:])
    run = np.flatnonzero(run)
    pairs = pairs[run]
    hits = np.diff(run, append=filled)
    # freed before the int64 rows and columns are allocated: 0.5 MB of the
    # Sanov n 2 ball window's traced peak at R 256
    del run
    row, column = np.empty(len(pairs), dtype=np.int64), np.empty(len(pairs), dtype=np.int64)
    np.divmod(pairs, count, out=(row, column))
    return row, column, hits


def window_operator(
    genset: IntegerGenerators, n: int, shape: str, radius: int, words=None, max_diagonal=None
) -> WindowOperator:
    """Count, for each pair of orbits, the words taking one's points to +-the other's.

    Only the first point of each orbit is mapped: C commutes with the
    group, so K[O', O] is |O| times the number of words taking that point
    into O' (`_orbit_pairs`).  The window is held as its sieve, and the
    points are numbered and labelled on the square table alone, so no
    array of all points is built.  `max_diagonal` is read from the words
    alone (`_max_diagonal`), by the rule that also settles windows before
    any is built; a caller that has both, as `_window_certificate` has,
    passes them in.  All arithmetic is exact integer arithmetic.  The word
    set is closed under inversion, so K is symmetric.
    """
    if words is None:
        words = _window_words(genset, n, shape, radius)
        max_diagonal = _max_diagonal(words, radius)
    window = HalfWindow(radius)
    group = symmetries(genset)
    table = _square_table(window)
    orbit, reps, block_starts = _orbits(window, table, group, _residue_classes(genset, group))
    sizes = np.bincount(orbit)
    row, column, data = _orbit_pairs(words, table, orbit, reps)
    # K[O, O'] = K[O', O] is |O| times the number of words taking O's first
    # point into O'
    data *= sizes[row]
    return WindowOperator(
        window=window,
        entries=OrbitSums(row, column, data),
        orbit_sizes=sizes,
        block_starts=block_starts,
        max_diagonal=max_diagonal,
        symmetry_order=len(group),
        n=n,
        shape=shape,
        words_used=len(words),
        q=genset.q,
    )


class LanczosConvergenceError(RuntimeError):
    """Lanczos did not converge; the message names the best exact lower bound found."""


@dataclass(frozen=True)
class NormCertificate:
    """An exact lower bound on a window norm and how it was found.

    `certificate` is a Rayleigh quotient of the window, computed in exact
    arithmetic, and `estimate` the largest float not above it.
    `dimension` is the half-window size and `orbits` the dimension of its
    quotient under a group of order `symmetry_order`; all three are None
    for a window settled before it was built.  `blocks` lists the
    (orbits, Lanczos steps) of each class mod 2, and `matvecs` counts the
    products, one per step and one per Ritz residual of each block;
    `start` is where the steps started: 'seeded' for the SplitMix64 draw
    from the seed (`_seeded_start`, no numpy.random), 'given' for a
    caller's vector, or 'sphere' for the Ritz vector of the sphere window
    that torus_discrepancy_check gives a ball window.
    `ritz_vector` holds each block's unit Ritz vector in orbit
    coordinates, and the residuals are the top block's.  When no
    solve ran, `matvecs` is 0 and the other solve fields are None.  An
    n = 1 ball window derived from its sphere window (`_ball_from_sphere`)
    runs no solve but keeps the sphere's sizes and Ritz vector, which are
    its own, its blocks with 0 steps, and its residuals rescaled.

    The milliseconds spent are kept beside, out of comparisons:
    `window_ms` building the window operator, `solve_ms` in its quotient
    products, and `certificate_ms` on the exact bound.  Each is None where
    that stage did not run.
    """

    certificate: Fraction
    dimension: Optional[int] = None
    orbits: Optional[int] = None
    symmetry_order: Optional[int] = None
    matvecs: int = 0
    ritz_residual: Optional[float] = None
    ritz_minus_certificate: Optional[float] = None
    start: Optional[str] = None
    blocks: Optional[tuple[tuple[int, int], ...]] = None
    ritz_vector: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    window_ms: Optional[float] = field(default=None, compare=False)
    solve_ms: Optional[float] = field(default=None, compare=False)
    certificate_ms: Optional[float] = field(default=None, compare=False)

    @property
    def estimate(self) -> float:
        return _float_at_most(self.certificate)


def _exact_dot(y: np.ndarray, v: np.ndarray, bound: int) -> int:
    """The dot product of int64 vectors as a Python int, given |v| <= bound < 2^63.

    |y| is split into limbs of `bits` bits, so that a limb times an entry
    of v stays below about sqrt(bound 2^63), and each limb's products are
    summed in int64 over chunks short enough that no partial sum wraps.
    Only the chunk totals are added as Python ints.
    """
    v = np.where(y < 0, -v, v)
    y = np.abs(y)
    bits = max(1, (63 - bound.bit_length()) // 2)
    chunk = (2 ** 63 - 1) // (((1 << bits) - 1) * bound)
    starts = np.arange(0, len(y), chunk)
    total = 0
    for shift in range(0, int(y.max(initial=0)).bit_length(), bits):
        limb = (y >> shift) & ((1 << bits) - 1)
        total += sum(np.add.reduceat(limb * v, starts).tolist()) << shift
    return total


def rayleigh_certificate(op: WindowOperator, y: np.ndarray) -> Fraction:
    """The exact Rayleigh quotient y^T K y / (words_used y^T D y) of an integer orbit vector.

    It is the Rayleigh quotient of C / words_used at the vector equal to
    y[O] on every point of orbit O.  Both sums are exact (`_exact_dot`).
    """
    y = np.asarray(y)
    if y.dtype.kind not in "iu" or not y.any():
        raise ValueError("the certificate needs a nonzero integer vector")
    # A row of K sums to at most words_used times its orbit size, which
    # bounds every partial sum of that row of K y, and D y too; the bound
    # is a Python int, and so is the peak, which np.abs could wrap.
    bound = op.words_used * int(op.orbit_sizes.max()) * max(int(y.max()), -int(y.min()))
    if bound >= 2 ** 63:
        raise OverflowError("certificate vector too large for 64-bit products")
    y = y.astype(np.int64)
    rows, columns, data = op.entries
    # K y summed row by row over the rows that hold an entry
    starts = np.searchsorted(rows, np.arange(len(op.orbit_sizes) + 1))
    filled = np.flatnonzero(np.diff(starts))
    products = y[columns]
    products *= data
    num = _exact_dot(y[filled], np.add.reduceat(products, starts[filled]), bound)
    den = _exact_dot(y, op.orbit_sizes * y, bound)
    return Fraction(num, op.words_used * den)


def _float_at_most(value: Fraction) -> float:
    """The float nearest `value`, stepped down when that rounded up."""
    f = float(value)
    return math.nextafter(f, -math.inf) if Fraction(f) > value else f


_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 2 ** 64 - 1


def _mix64(z):
    """SplitMix64's output function, on a Python int below 2^64 or a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _seeded_start(seed: int, size: int) -> np.ndarray:
    """The float 1 + u in [1, 2) for each of the first `size` outputs of SplitMix64 from `seed`.

    u is an output's top 53 bits over 2^53.  SplitMix64 (Steele, Lea and
    Flood, OOPSLA 2014) outputs mix(seed + i gamma mod 2^64) for i = 1, 2,
    and so on; it needs no numpy.random, which numpy 2 imports lazily at a
    cost of about 6 ms.  A seed of 2^64 or more is folded to 64 bits limb
    by limb, low limb first, in Python ints: numpy warns on an overflowing
    uint64 scalar, but wraps uint64 arrays silently.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    state, rest = seed & _MASK64, seed >> 64
    while rest:
        state, rest = _mix64((state + _GOLDEN_GAMMA) & _MASK64) ^ (rest & _MASK64), rest >> 64
    z = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GOLDEN_GAMMA) + np.uint64(state)
    return 1.0 + (_mix64(z) >> 11) * 2.0 ** -53


def _lanczos(matvec, start: np.ndarray) -> Optional[tuple[float, np.ndarray, int]]:
    """Top Ritz value, unit Ritz vector and steps run; None past the step limit.

    Three-term Lanczos without reorthogonalisation on one block of the
    orbit quotient (norm_certificate), stopped at the first test where
    |beta_k s_k| <= LANCZOS_TOL |theta| (ARPACK's test), with theta the
    largest eigenvalue of the tridiagonal T_k and s its unit eigenvector.
    Orthogonality is lost only along Ritz vectors that have already
    converged (Paige), so the solve stops before a ghost copy of theta can
    appear.  The test needs a dense eigendecomposition of T_k,
    so it runs every LANCZOS_CHECK_STEPS steps, at a breakdown (beta = 0),
    at step len(start) and at the step limit, and the Ritz pair of the
    first test that passes is returned.  By step len(start) the Krylov
    space is exhausted in exact arithmetic, though rounding may leave beta
    a little above 0; the steps after it would be built from rounding
    noise, and T_k would soon hold ghost copies of theta whose Ritz
    vectors can cancel in the basis.  None when no test passes within
    LANCZOS_MAX_STEPS steps.

    The recurrence, T_k (two lists, made a matrix only at a test) and every
    test run in float64; only the stored basis is float32, which halves
    the solve's largest allocation.  The Ritz vector z = sum_i s_i q_i is
    summed in float64 one basis vector at a time, never from a float64
    copy of the whole basis.  Each entry of z then carries a relative
    error of about 2^-24, the precision at which norm_certificate rounds
    it.  The stopping test bounds the residual of the float64 Ritz pair,
    not of the returned z: the residual ||M z - theta z|| of z cannot fall
    much below 2^-24 theta, and that floor, which grows with the steps
    summed, lies just under LANCZOS_TOL theta.
    """
    q, previous, b = start / math.sqrt(start @ start), 0.0, 0.0
    basis: list[np.ndarray] = []
    alphas: list[float] = []  # T_k's diagonal, and betas[:k] its off-diagonal
    betas: list[float] = []
    for k in range(LANCZOS_MAX_STEPS):
        basis.append(q.astype(np.float32))
        w = matvec(q)
        w -= b * previous
        alphas.append(q @ w)
        w -= alphas[k] * q
        b = math.sqrt(w @ w)
        betas.append(b)
        if (
            b == 0
            or k + 1 == len(q)
            or (k + 1) % LANCZOS_CHECK_STEPS == 0
            or k + 1 == LANCZOS_MAX_STEPS
        ):
            tri, i = np.diag(alphas), np.arange(k)
            tri[i + 1, i] = tri[i, i + 1] = betas[:k]
            theta, s = np.linalg.eigh(tri)
            if abs(b * s[-1, -1]) <= LANCZOS_TOL * abs(theta[-1]):
                z = np.zeros(len(q))
                for c, v in zip(s[:, -1], basis):
                    # dtype: numpy 1's value-based casting would multiply in float32
                    z += np.multiply(c, v, dtype=np.float64)
                z /= math.sqrt(z @ z)
                return float(theta[-1]), z, k + 1
        w /= b
        previous, q = q, w
    return None


def norm_certificate(
    op: WindowOperator, seed: int = 42, start: Optional[np.ndarray] = None
) -> NormCertificate:
    """The better of two exact lower bounds on the window norm.

    The first is the largest diagonal entry of C / words_used, the
    Rayleigh quotient of a unit vector.  When it reaches the closed form
    the sandwich is closed and no solve runs; on rank-one it is exactly 1.
    Nor does a solve run when C is zero.  Otherwise Lanczos (`_lanczos`)
    finds the top Ritz vector of each block, one per class mod 2, of the
    orbit quotient D^(-1/2) K D^(-1/2) / words_used, from that block of
    `start` in orbit coordinates when given, else of the strictly positive
    1 + u drawn from a SplitMix64 stream seeded by `seed` (`_seeded_start`,
    whose values lie in [1, 2)); the start only steers the solve, but may
    not vanish on a block.  K has no entry between blocks, so the
    top block holds the top eigenvalue; let z be its Ritz vector, and 0
    elsewhere.  The absolute values of z / sqrt(D), which for a
    nonnegative matrix give a Rayleigh quotient no smaller, are rounded to
    24-bit integers y, and y^T K y / (words_used y^T D y) is evaluated
    exactly on all of K.  z carries the float32 rounding of the Lanczos
    basis, about 2^-24 relative, which is the precision of y itself; the
    certificate is exact whatever z is.
    Lanczos not converging within LANCZOS_MAX_STEPS steps raises
    LanczosConvergenceError, whose message names the diagonal bound.
    """
    best = Fraction(op.max_diagonal, op.words_used)
    dims = (op.window.size, len(op.orbit_sizes), op.symmetry_order)
    # with no image inside the window, C = 0 and Lanczos has nothing to find
    if op.entries.nnz == 0 or best >= regular_norm(op.q, op.n, op.shape):
        return NormCertificate(best, *dims)
    started = time.perf_counter()
    rows, cols, data = op.entries
    scale = 1.0 / np.sqrt(op.orbit_sizes)
    # data * (scale[rows] * scale[cols] / words_used), built in place
    weights = scale[rows]
    weights *= scale[cols]
    weights /= op.words_used
    weights *= data
    given = start is not None
    if not given:
        start = _seeded_start(seed, len(scale))
    z = np.zeros(len(scale))
    blocks, solves = [], []
    starts, cuts = op.block_starts, np.searchsorted(rows, op.block_starts).tolist()
    for first, last, lo, hi in zip(starts, starts[1:], cuts, cuts[1:]):
        # the block's entries in its own rows and columns (K's own for the first)
        block_rows, block_cols, block_weights = rows[lo:hi], cols[lo:hi], weights[lo:hi]
        if first:
            block_rows, block_cols = block_rows - first, block_cols - first

        def quotient(v: np.ndarray) -> np.ndarray:
            products = v[block_cols]
            products *= block_weights
            # a block with no entries gets int zeros from bincount, and _lanczos
            # updates the product in place
            kv = np.bincount(block_rows, weights=products, minlength=len(v))
            return kv.astype(np.float64, copy=False)

        if not start[first:last].any():
            raise ValueError("the start vanishes on a block of K")
        solved = _lanczos(quotient, start[first:last])
        if solved is None:
            raise LanczosConvergenceError(
                f"Lanczos did not converge to relative accuracy {LANCZOS_TOL} within "
                f"{LANCZOS_MAX_STEPS} steps (best exact bound {float(best)})"
            )
        ritz, z[first:last], steps = solved
        residual = float(np.linalg.norm(quotient(z[first:last]) - ritz * z[first:last]))
        blocks.append((last - first, steps))
        solves.append((ritz, first, last, residual))
    ritz, first, last, residual = max(solves, key=lambda solve: solve[0])
    # the certificate hands z to later solves as a start, so none may change it
    z.setflags(write=False)
    solved_at = time.perf_counter()
    u = np.abs(z[first:last]) * scale[first:last]
    y = np.zeros(len(scale), dtype=np.int64)
    y[first:last] = np.rint(u * ((2 ** 24 - 1) / u.max()))
    certified = rayleigh_certificate(op, y)
    best = max(best, certified)
    return NormCertificate(
        best,
        *dims,
        matvecs=sum(steps + 1 for _, steps in blocks),
        ritz_residual=residual,
        ritz_minus_certificate=float(Fraction(ritz) - certified),
        start="given" if given else "seeded",
        ritz_vector=z,
        blocks=tuple(blocks),
        solve_ms=(solved_at - started) * 1000.0,
        certificate_ms=(time.perf_counter() - solved_at) * 1000.0,
    )


@dataclass(frozen=True)
class WindowRow:
    radius: int
    bound: NormCertificate
    within_upper: bool
    nondecreasing: bool

    @property
    def estimate(self) -> float:
        return self.bound.estimate


@dataclass(frozen=True)
class ConvergenceTable:
    n: int
    shape: str
    theoretical: float
    rows: tuple[WindowRow, ...]
    passed: bool


def _ball_from_sphere(sphere: NormCertificate, q: int) -> NormCertificate:
    """The n = 1 ball window's certificate, read off the sphere window's certificate c.

    The ball's words are the sphere's and the empty word, which fixes
    every point, so K_ball = D + K_sphere and the ball's largest diagonal
    entry of C is the sphere's plus one.  With (|S_1|, |B_1|) the word
    counts, every Rayleigh quotient and the largest diagonal entry of the
    ball window are f(x) = (1 + |S_1| x) / |B_1| of the sphere window's at
    the same vector, and so are the closed forms.  f is increasing, so
    f(c) is the ball's own certificate: its exact Rayleigh quotient at the
    sphere's rounded Ritz vector, or its own diagonal bound.  The Ritz
    vectors coincide, and Bz - f(theta) z = (|S_1| / |B_1|)(Az - theta z)
    rescales the residual and the Ritz value's gap to the certificate.
    """
    started = time.perf_counter()
    spheres, balls = word_counts(q, 1)
    certificate = (1 + spheres * sphere.certificate) / balls

    def scaled(value: Optional[float]) -> Optional[float]:
        return None if value is None else value * spheres / balls

    return replace(
        sphere,
        certificate=certificate,
        matvecs=0,
        blocks=sphere.blocks and tuple((orbits, 0) for orbits, _ in sphere.blocks),
        ritz_residual=scaled(sphere.ritz_residual),
        ritz_minus_certificate=scaled(sphere.ritz_minus_certificate),
        start="sphere" if sphere.start else None,
        window_ms=None,
        solve_ms=None,
        certificate_ms=(time.perf_counter() - started) * 1000.0,
    )


@lru_cache(maxsize=None)
def _window_certificate(
    genset: IntegerGenerators, n: int, shape: str, radius: int, seed: int
) -> NormCertificate:
    """norm_certificate of one window, settled by its diagonal when that reaches the closed form.

    An n = 1 ball window is derived from the sphere window of the same
    radius and seed (`_ball_from_sphere`), and is neither built nor
    solved.  For any other window, the largest diagonal entry of
    C / words_used is read from the words alone (`_max_diagonal`).  When
    it reaches the closed form it closes the sandwich, as it would in
    norm_certificate, and the window is never built, so its certificate
    records no size.
    Otherwise the window is built and certified, a ball window
    from the sphere's Ritz vector: the sphere and ball windows of one
    radius have the same symmetry group and classes, hence the same orbit
    coordinates, and nearly the same top vector.  The ball's certificate
    is still an exact Rayleigh quotient of its own window.  It falls back
    to the seeded start when the sphere window needs no solve, so a ball
    row is the same whether or not the sphere window was certified first;
    the cache only saves the repeat.  A sphere solve that does not
    converge fails the ball window at every n.
    """
    if shape == "ball" and n == 1:
        return _ball_from_sphere(_window_certificate(genset, 1, "sphere", radius, seed), genset.q)
    started = time.perf_counter()
    words = _window_words(genset, n, shape, radius)
    max_diagonal = _max_diagonal(words, radius)
    diagonal = Fraction(max_diagonal, len(words))
    if diagonal >= regular_norm(genset.q, n, shape):
        return NormCertificate(diagonal, certificate_ms=(time.perf_counter() - started) * 1000.0)
    start = None
    if shape == "ball":
        start = _window_certificate(genset, n, "sphere", radius, seed).ritz_vector
    started = time.perf_counter()
    op = window_operator(genset, n, shape, radius, words, max_diagonal)
    window_ms = (time.perf_counter() - started) * 1000.0
    bound = replace(norm_certificate(op, seed=seed, start=start), window_ms=window_ms)
    return replace(bound, start="sphere") if bound.start == "given" else bound


def clear_caches() -> None:
    """Drop the memoised window certificates.

    The cache key leaves out the closed form that the diagonal test
    reads, so clear it after changing `regular_norm` or the Lanczos
    settings.
    """
    _window_certificate.cache_clear()


def torus_discrepancy_check(
    genset: IntegerGenerators,
    n: int,
    shape: str,
    radii: Sequence[int],
    seed: int = 42,
) -> ConvergenceTable:
    """Sandwich the word-average norm between window certificates and the closed form.

    Each window is certified by norm_certificate, a sphere window from
    the Lanczos start drawn from `seed` and a ball window at n >= 2 from
    the Ritz vector of the sphere window with the same radius and seed;
    an n = 1 ball window's certificate is derived exactly from that
    sphere window's, with no solve (`_window_certificate`).  Certificates
    are memoised per generating set, n, shape, radius and seed, so a ball
    table after the sphere table reuses the sphere solves; a ball table
    alone pays for them once.  The exact certificate must stay below
    theoretical + UPPER_TOLERANCE and its float estimate may not decrease
    by more than MONOTONICITY_TOLERANCE as the window grows.  Violations
    are recorded as failing rows rather than raised.  A Lanczos solve
    that does not converge raises LanczosConvergenceError instead, and a
    ball window's sphere solve counts as its own at every n.
    """
    radii = list(radii)
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")
    theoretical = regular_norm(genset.q, n, shape)
    rows = []
    previous: Optional[float] = None
    for radius in radii:
        bound = _window_certificate(genset, n, shape, radius, seed)
        within = bound.certificate <= theoretical + UPPER_TOLERANCE
        nondec = previous is None or bound.estimate >= previous - MONOTONICITY_TOLERANCE
        rows.append(
            WindowRow(radius=radius, bound=bound, within_upper=within, nondecreasing=nondec)
        )
        previous = bound.estimate
    return ConvergenceTable(
        n=n,
        shape=shape,
        theoretical=theoretical,
        rows=tuple(rows),
        passed=all(r.within_upper and r.nondecreasing for r in rows),
    )
