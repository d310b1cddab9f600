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
It is bounded from below by an exact Rayleigh quotient.  Together with
the closed-form upper bound this sandwiches the discrepancy from both
sides.
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

    def fold(self, img: np.ndarray) -> np.ndarray:
        """Fold integer points into the half plane in place; True where they are in the window."""
        flip = (img[:, 0] < 0) | ((img[:, 0] == 0) & (img[:, 1] < 0))
        img[flip] *= -1
        return (img[:, 0] <= self.radius) & (np.abs(img[:, 1]) <= self.radius)

    def lookup(self, img: np.ndarray) -> np.ndarray:
        """Positions of folded points inside the window, -1 where one is not primitive."""
        return self.index[img[:, 0], img[:, 1] + self.radius]


@dataclass(frozen=True, eq=False)
class WindowOperator:
    """Orbit sums K of the count matrix C of one reduced-word average.

    C / words_used is the window compression A restricted to primitive
    frequencies and folded by m -> -m.  A is symmetric, nonnegative and
    commutes with m -> -m; it preserves gcd(m1, m2), and its gcd-d block
    at radius R is its primitive block at radius R // d.  So the largest
    eigenvalue of C / words_used is the norm of A.  C also commutes with
    the group of `symmetries`, of order `symmetry_order`, acting on the
    half-window.  `entries` is K[O, O'], the sum of C over m in O and m'
    in O' for orbits O, O'; `orbit_sizes` is D, the orbit sizes; and
    `max_diagonal` is the largest diagonal entry of C itself.
    D^(-1/2) K D^(-1/2) / words_used is C / words_used compressed to
    orbit-constant vectors: each of its Rayleigh quotients is one of A,
    and its largest eigenvalue is that of A, since averaging a
    nonnegative Perron vector over the group keeps it a Perron vector.
    """

    window: HalfWindow
    entries: scipy.sparse.csr_matrix
    orbit_sizes: np.ndarray
    max_diagonal: int
    symmetry_order: int
    n: int
    shape: str
    words_used: int
    q: int


def _orbits(window: HalfWindow, group: Sequence[Matrix2]) -> tuple[np.ndarray, np.ndarray]:
    """The orbit number of each half-window point and the first point of each orbit.

    A point's orbit is labelled by the smallest index over its images
    under the group, and orbits are numbered in the order of those labels.
    """
    label = np.arange(window.size, dtype=np.int64)
    for p in group[1:]:
        img = window.points @ np.array(p, dtype=np.int64)
        window.fold(img)
        label = np.minimum(label, window.lookup(img))
    representatives = np.flatnonzero(label == np.arange(window.size))
    return np.searchsorted(representatives, label), representatives


def window_operator(
    genset: IntegerGenerators, n: int, shape: str, radius: int
) -> WindowOperator:
    """Count, for each pair of orbits, the words taking one's points to +-the other's.

    Only the first point of each orbit is mapped: C commutes with the
    group, so K[O', O] is |O| times the number of words taking that point
    into O'.  All arithmetic is exact integer arithmetic.  The word set
    is closed under inversion, so K is symmetric.
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
    group = symmetries(genset)
    orbit, reps = _orbits(window, group)
    sizes = np.bincount(orbit)
    pts = window.points[reps]
    src = np.arange(len(reps), dtype=np.int64)
    hits: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for w in words:
        img = pts @ w
        mask = window.fold(img)
        # unimodular words keep frequencies primitive, so every index is >= 0
        hits.append(window.lookup(img[mask]))
        cols.append(src[mask])
    hit, col = np.concatenate(hits), np.concatenate(cols)
    # C[m, m] is the same at every point of an orbit
    fixed = np.bincount(col[hit == reps[col]], minlength=len(reps))
    coo = scipy.sparse.coo_matrix(
        (sizes[col], (orbit[hit], col)), shape=(len(reps), len(reps))
    )
    return WindowOperator(
        window=window,
        entries=coo.tocsr(),
        orbit_sizes=sizes,
        max_diagonal=int(fixed.max()),
        symmetry_order=len(group),
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

    `certificate` is a Rayleigh quotient of the window, computed in exact
    arithmetic, and `estimate` is the largest float not above it.
    `dimension` is the half-window size and `orbits` the dimension of the
    quotient that was solved, under a group of order `symmetry_order`.
    The Lanczos fields are None when the diagonal alone closed the
    sandwich and no solve ran.
    """

    estimate: float
    certificate: Fraction
    dimension: int
    orbits: int
    symmetry_order: int
    matvecs: int
    ritz_residual: Optional[float]
    ritz_minus_certificate: Optional[float]


def rayleigh_certificate(op: WindowOperator, y: np.ndarray) -> Fraction:
    """The exact Rayleigh quotient y^T K y / (words_used y^T D y) of an integer orbit vector.

    It is the Rayleigh quotient of C / words_used at the vector equal to
    y[O] on every point of orbit O.
    """
    y = np.asarray(y)
    if y.dtype.kind not in "iu" or not y.any():
        raise ValueError("the certificate needs a nonzero integer vector")
    # a row of K sums to at most words_used times its orbit size, which
    # bounds every entry of K y
    if op.words_used * int(op.orbit_sizes.max()) * int(np.abs(y).max()) >= 2 ** 63:
        raise OverflowError("certificate vector too large for 64-bit products")
    ky = (op.entries @ y.astype(np.int64)).tolist()
    ys = y.tolist()
    num = sum(map(operator.mul, ys, ky))
    den = sum(d * v * v for d, v in zip(op.orbit_sizes.tolist(), ys))
    return Fraction(num, op.words_used * den)


def _float_at_most(value: Fraction) -> float:
    """The float nearest `value`, stepped down when that rounded up."""
    f = float(value)
    return math.nextafter(f, -math.inf) if Fraction(f) > value else f


def norm_certificate(op: WindowOperator, seed: int = 42) -> NormCertificate:
    """The better of two exact lower bounds on the window norm.

    The first is the largest diagonal entry of C / words_used, the
    Rayleigh quotient of a unit vector.  When it reaches the closed form
    the sandwich is closed and no solve runs; on rank-one it is exactly 1.
    Nor does a solve run when C is zero.  Otherwise Lanczos (ARPACK, to
    relative accuracy LANCZOS_TOL within its default restart limit, from
    the strictly positive start 1 + uniform[0, 1) drawn from `seed`) finds
    the top Ritz vector z of the orbit quotient
    D^(-1/2) K D^(-1/2) / words_used.  The absolute values of z / sqrt(D),
    which for a nonnegative matrix give a Rayleigh quotient no smaller,
    are rounded to 24-bit integers y, and y^T K y / (words_used y^T D y)
    is evaluated exactly.  ARPACK failing to converge raises
    LanczosConvergenceError with the diagonal bound.
    """
    counts = op.entries
    best = Fraction(op.max_diagonal, op.words_used)
    dims = (op.window.size, counts.shape[0], op.symmetry_order)
    # with no image inside the window, C = 0 and Lanczos has nothing to find
    if counts.nnz == 0 or best >= regular_norm(op.q, op.n, op.shape):
        return NormCertificate(_float_at_most(best), best, *dims, 0, None, None)
    # imported here: scipy.sparse.linalg adds about 0.14 s to `import lps`
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    b = counts.astype(np.float64) / op.words_used
    # scaled in the product: scipy.sparse.diags warns on integer data
    scale = 1.0 / np.sqrt(op.orbit_sizes)
    matvecs = 0

    def quotient(v: np.ndarray) -> np.ndarray:
        return scale * (b @ (scale * v))

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return quotient(v)

    start = 1.0 + np.random.default_rng(seed).random(b.shape[0])
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
    ritz, z = float(theta[0]), vectors[:, 0]
    u = np.abs(z) * scale
    y = np.rint(u * ((2 ** 24 - 1) / u.max())).astype(np.int64)
    certified = rayleigh_certificate(op, y)
    best = max(best, certified)
    return NormCertificate(
        _float_at_most(best),
        best,
        *dims,
        matvecs=matvecs,
        ritz_residual=float(np.linalg.norm(quotient(z) - ritz * z)),
        ritz_minus_certificate=float(Fraction(ritz) - certified),
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
