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
where its largest eigenvalue is unchanged, and that eigenvalue is
bounded from below by an exact Rayleigh quotient.  Together with the
closed-form upper bound this sandwiches the discrepancy from both sides.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
import scipy.sparse

from .formulas import regular_norm
from .words import IntegerGenerators, word_levels

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

# Relative accuracy asked of ARPACK's Lanczos.  It only steers the solve:
# the certificate is an exact Rayleigh quotient of the rounded Ritz vector.
LANCZOS_TOL = 1e-7


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


class HalfWindow:
    """Primitive frequencies of sup-norm at most `radius`, one of each pair +-m.

    The points are the primitive m with m1 > 0, or m1 = 0 and m2 > 0, in
    lexicographic order.  `index` maps a point (m1, m2 + radius) of the
    half grid to its position, and to -1 where the point is not primitive.
    """

    def __init__(self, radius: int):
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        self.radius = radius
        xs, ys = np.meshgrid(
            np.arange(radius + 1, dtype=np.int64),
            np.arange(-radius, radius + 1, dtype=np.int64),
            indexing="ij",
        )
        # gcd(0, y) = |y|, so the column m1 = 0 keeps only (0, 1)
        keep = (np.gcd(xs, ys) == 1) & ((xs > 0) | (ys > 0))
        self.points = np.column_stack([xs[keep], ys[keep]])
        self.size = len(self.points)
        self.index = np.full(xs.shape, -1, dtype=np.int64)
        self.index[keep] = np.arange(self.size)


@dataclass(frozen=True, eq=False)
class WindowOperator:
    """Count matrix C of one reduced-word average on the primitive half-window.

    B = C / words_used is the window compression A restricted to primitive
    frequencies and folded by m -> -m.  A is symmetric, nonnegative and
    commutes with m -> -m; it preserves gcd(m1, m2), and its gcd-d block
    at radius R is its primitive block at radius R // d.  So the largest
    eigenvalue of B is the norm of A, and every Rayleigh quotient of B is
    one of A.
    """

    window: HalfWindow
    entries: scipy.sparse.csr_matrix
    n: int
    shape: str
    words_used: int
    q: int


def window_operator(
    genset: IntegerGenerators, n: int, shape: str, radius: int
) -> WindowOperator:
    """Count, for each pair of half-window points, the words taking one to +-the other.

    All arithmetic is exact integer arithmetic.  The word set is closed
    under inversion, so the count matrix is symmetric.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if shape not in ("sphere", "ball"):
        raise ValueError(f"shape must be 'sphere' or 'ball', got {shape!r}")
    window = HalfWindow(radius)
    levels = word_levels(genset, n)
    words = levels[n][0] if shape == "sphere" else np.concatenate([p for p, _, _ in levels])
    # The character action of a word is (W^-1)^T; inversion permutes each
    # sphere of reduced words, so summing the maps m -> W^T m instead gives
    # the same operator.  Image coordinates of W^T m are at most the radius
    # times a column sum of |W|, bounded here in Python ints so that the
    # bound itself cannot wrap.
    bound = radius * int(np.abs(words).sum(axis=1).max())
    if bound >= 2 ** 62:
        raise OverflowError("window images would overflow 64-bit lattice arithmetic")
    words = words.astype(np.int64)
    pts = window.points
    src = np.arange(window.size, dtype=np.int64)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for w in words:
        img = pts @ w
        flip = (img[:, 0] < 0) | ((img[:, 0] == 0) & (img[:, 1] < 0))
        img[flip] *= -1
        mask = (img[:, 0] <= radius) & (np.abs(img[:, 1]) <= radius)
        # unimodular words keep frequencies primitive, so every index is >= 0
        rows.append(window.index[img[mask, 0], img[mask, 1] + radius])
        cols.append(src[mask])
    row_idx = np.concatenate(rows)
    coo = scipy.sparse.coo_matrix(
        (np.ones(len(row_idx), dtype=np.int64), (row_idx, np.concatenate(cols))),
        shape=(window.size, window.size),
    )
    return WindowOperator(
        window=window,
        entries=coo.tocsr(),
        n=n,
        shape=shape,
        words_used=len(words),
        q=genset.q,
    )


class LanczosConvergenceError(RuntimeError):
    """Lanczos did not converge; carries the best exact lower bound found."""

    def __init__(self, message: str, best_bound: float):
        super().__init__(message)
        self.best_bound = best_bound


@dataclass(frozen=True)
class NormCertificate:
    """An exact lower bound on a window norm and how it was found.

    `certificate` is a Rayleigh quotient of the reduced block, computed in
    exact arithmetic, and `estimate` is the largest float not above it.
    The Lanczos fields are None when the diagonal alone closed the
    sandwich and no solve ran.
    """

    estimate: float
    certificate: Fraction
    dimension: int
    matvecs: int
    ritz_residual: Optional[float]
    ritz_minus_certificate: Optional[float]


def rayleigh_certificate(op: WindowOperator, x: np.ndarray) -> Fraction:
    """The exact Rayleigh quotient x^T C x / (words_used x^T x) of an integer vector."""
    x = np.asarray(x)
    if x.dtype.kind not in "iu" or not x.any():
        raise ValueError("the certificate needs a nonzero integer vector")
    # a row of C sums to at most words_used, which bounds every entry of C x
    if op.words_used * int(np.abs(x).max()) >= 2 ** 63:
        raise OverflowError("certificate vector too large for 64-bit products")
    cx = (op.entries @ x.astype(np.int64)).tolist()
    xs = x.tolist()
    num = sum(map(operator.mul, xs, cx))
    den = sum(v * v for v in xs)
    return Fraction(num, op.words_used * den)


def _float_at_most(value: Fraction) -> float:
    """The float nearest `value`, stepped down when that rounded up."""
    f = float(value)
    return math.nextafter(f, -math.inf) if Fraction(f) > value else f


def norm_certificate(op: WindowOperator, seed: int = 42) -> NormCertificate:
    """The better of two exact lower bounds on the window norm.

    The first is the largest diagonal entry of B, the Rayleigh quotient of
    a unit vector.  When it reaches the closed form the sandwich is closed
    and no solve runs; on rank-one it is exactly 1.  Nor does a solve run
    when C is zero.  Otherwise Lanczos (ARPACK, to relative accuracy
    LANCZOS_TOL within its default restart limit, from the strictly
    positive start 1 + uniform[0, 1) drawn from `seed`) finds the top
    Ritz vector of B.  Its absolute values, which for nonnegative B give
    a Rayleigh quotient no smaller, are rounded to 24-bit integers x, and
    x^T C x / (words_used x^T x) is evaluated exactly.  ARPACK failing to
    converge raises LanczosConvergenceError with the diagonal bound.
    """
    counts = op.entries
    dim = op.window.size
    best = Fraction(int(counts.diagonal().max()), op.words_used)
    # with no image inside the window, B = 0 and Lanczos has nothing to find
    if counts.nnz == 0 or best >= regular_norm(op.q, op.n, op.shape):
        return NormCertificate(_float_at_most(best), best, dim, 0, None, None)
    # imported here: scipy.sparse.linalg adds about 0.14 s to `import lps`
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    b = counts.astype(np.float64) / op.words_used
    matvecs = 0

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return b @ v

    start = 1.0 + np.random.default_rng(seed).random(dim)
    try:
        theta, vectors = eigsh(
            LinearOperator(b.shape, matvec=matvec, dtype=np.float64),
            k=1,
            which="LA",
            v0=start,
            tol=LANCZOS_TOL,
        )
    except ArpackNoConvergence:
        raise LanczosConvergenceError(
            f"Lanczos did not converge to relative accuracy {LANCZOS_TOL} within "
            f"ARPACK's restart limit (best exact bound {float(best)})",
            best_bound=_float_at_most(best),
        ) from None
    ritz, v = float(theta[0]), vectors[:, 0]
    x = np.rint(np.abs(v) * ((2 ** 24 - 1) / np.abs(v).max())).astype(np.int64)
    quotient = rayleigh_certificate(op, x)
    best = max(best, quotient)
    return NormCertificate(
        estimate=_float_at_most(best),
        certificate=best,
        dimension=dim,
        matvecs=matvecs,
        ritz_residual=float(np.linalg.norm(b @ v - ritz * v)),
        ritz_minus_certificate=float(Fraction(ritz) - quotient),
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


def torus_discrepancy_check(
    genset: IntegerGenerators,
    n: int,
    shape: str,
    radii: Sequence[int],
    seed: int = 42,
) -> ConvergenceTable:
    """Sandwich the word-average norm between window certificates and the closed form.

    Each window is certified by norm_certificate from the Lanczos start
    drawn from `seed`.  The exact certificate must stay below
    theoretical + UPPER_TOLERANCE and its float estimate may not decrease
    by more than MONOTONICITY_TOLERANCE as the window grows.  Violations
    are recorded as failing rows rather than raised, so a full table is
    always returned.
    """
    radii = list(radii)
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")
    theoretical = regular_norm(genset.q, n, shape)
    rows = []
    previous: Optional[float] = None
    for radius in radii:
        bound = norm_certificate(window_operator(genset, n, shape, radius), seed=seed)
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
