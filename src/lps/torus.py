"""Windowed character-space compressions of toral automorphism averages.

An integer matrix g with determinant +-1 acts on the 2-torus, and the
induced action on characters sends the frequency vector m to
transpose(g^-1) m.  Averaging over reduced words of length n in a chosen
set of such matrices is, in the character basis, a huge permutation-like
sum; compressing it to a finite sup-norm window yields a sparse symmetric
matrix whose norm can only underestimate the true mean-zero operator
norm.  Together with the closed-form upper bound this sandwiches the
discrepancy from both sides.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse

from .formulas import regular_norm
from .words import word_levels

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


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last estimate."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


@dataclass(frozen=True)
class TorusGenerator:
    """Integer 2x2 matrix of determinant +1 or -1 acting on the torus."""

    matrix: Matrix2

    def __post_init__(self) -> None:
        if self.determinant() not in (1, -1):
            raise ValueError(
                f"matrix {self.matrix} has determinant {self.determinant()}, "
                "not a torus automorphism"
            )

    def determinant(self) -> int:
        (a, b), (c, d) = self.matrix
        return a * d - b * c

    def inverse(self) -> "TorusGenerator":
        (a, b), (c, d) = self.matrix
        det = a * d - b * c
        return TorusGenerator(((det * d, -det * b), (-det * c, det * a)))

    def __mul__(self, other: "TorusGenerator") -> "TorusGenerator":
        (a, b), (c, d) = self.matrix
        (e, f), (g, h) = other.matrix
        return TorusGenerator(
            ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
        )


@dataclass(frozen=True)
class TorusGeneratorSet:
    """Chosen automorphisms together with their inverses, pairing recorded."""

    generators: tuple[TorusGenerator, ...]
    inverse_of: tuple[int, ...]
    q: int

    @property
    def integer_matrices(self) -> tuple[tuple[Matrix2, ...], int]:
        """The generator matrices themselves, over denominator 1."""
        return tuple(g.matrix for g in self.generators), 1

    def check_products(self, products: np.ndarray, length: int) -> None:
        """Require determinant +1 or -1 of every product matrix."""
        det = products[:, 0, 0] * products[:, 1, 1] - products[:, 0, 1] * products[:, 1, 0]
        if not ((det == 1) | (det == -1)).all():
            raise ValueError(f"a length-{length} product is not a torus automorphism")

    @property
    def rank(self) -> int:
        return len(self.generators) // 2


def build_torus_genset(
    matrices: Sequence[Matrix2] | str,
) -> TorusGeneratorSet:
    """Symmetrise a list of automorphism matrices into a generating set.

    Accepts a preset name ('sanov' or 'rank-one') or an explicit sequence.
    The input may not contain repeats, inverse pairs, or involutions,
    since the inverse pairing must be a fixed-point-free involution on the
    doubled list.
    """
    if isinstance(matrices, str):
        try:
            matrices = PRESETS[matrices]
        except KeyError:
            raise ValueError(
                f"unknown preset {matrices!r}; choose from {sorted(PRESETS)}"
            ) from None
    gens = [TorusGenerator(tuple(tuple(int(v) for v in row) for row in m)) for m in matrices]
    if not gens:
        raise ValueError("need at least one generator matrix")
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i != j and g == h:
                raise ValueError(f"generators {i} and {j} are equal")
            if g == h.inverse():
                raise ValueError(
                    f"generator {i} equals the inverse of generator {j}; "
                    "inverses are added automatically"
                )
    r = len(gens)
    doubled = tuple(gens) + tuple(g.inverse() for g in gens)
    inverse_of = tuple(range(r, 2 * r)) + tuple(range(r))
    return TorusGeneratorSet(generators=doubled, inverse_of=inverse_of, q=2 * r - 1)


def load_generator_matrices(path: str) -> tuple[Matrix2, ...]:
    """Read a JSON array of 2x2 matrices whose entries are JSON integers."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("generator file must hold a JSON array of 2x2 matrices")
    for entry in data:
        # type() rather than isinstance(): JSON true and false load as bools
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in entry)
            and all(type(v) is int for row in entry for v in row)
        ):
            raise ValueError(f"not a 2x2 matrix of integers: {entry!r}")
    return tuple(tuple(tuple(row) for row in entry) for entry in data)


def character_matrix(g: TorusGenerator) -> Matrix2:
    """Matrix acting on frequency vectors: transpose of the inverse."""
    (a, b), (c, d) = g.inverse().matrix
    return ((a, c), (b, d))


def character_action(g: TorusGenerator, m: tuple[int, int]) -> tuple[int, int]:
    """Image of the nonzero frequency m under the automorphism's character action."""
    if m == (0, 0):
        raise ValueError("the zero frequency is the constants; not in the mean-zero space")
    (a, b), (c, d) = character_matrix(g)
    return (a * m[0] + b * m[1], c * m[0] + d * m[1])


class LatticeWindow:
    """Nonzero integer frequencies with sup-norm at most `radius`.

    Points are ordered lexicographically, and the order is exposed both as
    an array and as arithmetic on linear indices so that images never need
    a dictionary lookup.
    """

    def __init__(self, radius: int):
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        self.radius = radius
        self.side = 2 * radius + 1
        self.size = self.side * self.side - 1
        self._center = radius * self.side + radius

    @property
    def points(self) -> np.ndarray:
        coords = np.arange(-self.radius, self.radius + 1, dtype=np.int64)
        xs, ys = np.meshgrid(coords, coords, indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        return np.delete(pts, self._center, axis=0)

    def index_of(self, point: tuple[int, int]) -> int:
        x, y = point
        if max(abs(x), abs(y)) > self.radius or (x, y) == (0, 0):
            raise KeyError(f"{point} is not in the window")
        linear = (x + self.radius) * self.side + (y + self.radius)
        return linear - 1 if linear > self._center else linear

    def linear_indices(self, pts: np.ndarray) -> np.ndarray:
        linear = (pts[:, 0] + self.radius) * self.side + (pts[:, 1] + self.radius)
        return linear - (linear > self._center)


@dataclass(frozen=True, eq=False)
class WindowOperator:
    """Sparse window compression of one reduced-word average."""

    window: LatticeWindow
    entries: scipy.sparse.csr_matrix
    n: int
    shape: str
    words_used: int


def window_operator(
    genset: TorusGeneratorSet, n: int, shape: str, radius: int
) -> WindowOperator:
    """Assemble the window compression of the radius-n word average.

    All lattice arithmetic is exact; floats appear only as the final
    1/word-count weights.  The word set is closed under inversion, so the
    assembled matrix is symmetric, and compression can only shrink the
    norm, making every spectral estimate from it a certified lower bound.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if shape not in ("sphere", "ball"):
        raise ValueError(f"shape must be 'sphere' or 'ball', got {shape!r}")
    window = LatticeWindow(radius)
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
        mask = np.abs(img).max(axis=1) <= window.radius
        rows.append(window.linear_indices(img[mask]))
        cols.append(src[mask])
    row_idx = np.concatenate(rows)
    col_idx = np.concatenate(cols)
    weight = 1.0 / len(words)
    data = np.full(len(row_idx), weight)
    coo = scipy.sparse.coo_matrix(
        (data, (row_idx, col_idx)), shape=(window.size, window.size)
    )
    return WindowOperator(
        window=window,
        entries=coo.tocsr(),
        n=n,
        shape=shape,
        words_used=len(words),
    )


def operator_norm_estimate(
    op: WindowOperator,
    tol: float = 1e-7,
    seed: int = 42,
    max_iter: int = 100000,
) -> float:
    """Deterministic power-iteration lower bound on the operator norm.

    Two certified quantities are tracked from a single seeded iteration on
    A squared: the Rayleigh root ||A v|| for the current unit iterate v,
    and the running geometric mean ||A^m v0||^(1/m) of every application
    so far, which by submultiplicativity also never exceeds the norm.  The
    plain Rayleigh sequence stalls when the spectrum clusters at its edge
    (the amenable rank-one preset), while the geometric mean still closes
    in at a gap-independent rate, so their maximum converges on every
    window this module builds.  Iteration stops when successive combined
    estimates differ by less than `tol` and returns the best certified
    value seen; failure to converge raises PowerIterationError rather than
    returning silently.
    """
    a = op.entries
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[0])
    v /= np.linalg.norm(v)
    log_product = 0.0
    applications = 0
    best = 0.0
    prev: Optional[float] = None
    for _ in range(max_iter):
        w = a @ v
        rayleigh = float(np.linalg.norm(w))
        if rayleigh == 0.0:
            return best
        geometric = math.exp(
            (log_product + math.log(rayleigh)) / (applications + 1)
        )
        est = max(rayleigh, geometric)
        best = max(best, est)
        if prev is not None and abs(est - prev) < tol:
            return best
        prev = est
        u = a @ w
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return best
        log_product += math.log(nu)
        applications += 2
        v = u / nu
    raise PowerIterationError(
        f"no convergence to tol={tol} within {max_iter} iterations "
        f"(last estimate {prev})",
        last_estimate=float(prev if prev is not None else 0.0),
    )


@dataclass(frozen=True)
class WindowRow:
    radius: int
    estimate: float
    within_upper: bool
    nondecreasing: bool


@dataclass(frozen=True)
class ConvergenceTable:
    n: int
    shape: str
    theoretical: float
    upper_tolerance: float
    monotonicity_tolerance: float
    rows: tuple[WindowRow, ...]
    passed: bool


def torus_discrepancy_check(
    genset: TorusGeneratorSet,
    n: int,
    shape: str,
    radii: Sequence[int],
    tol: float = 1e-7,
    seed: int = 42,
) -> ConvergenceTable:
    """Sandwich the word-average norm between window estimates and the closed form.

    For each window radius the power-iteration estimate must stay below
    theoretical + UPPER_TOLERANCE and may not decrease by more than
    MONOTONICITY_TOLERANCE as the window grows.  Violations are recorded
    as failing rows rather than raised, so a full table is always
    returned.
    """
    radii = list(radii)
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")
    theoretical = regular_norm(genset.q, n, shape)
    rows = []
    previous: Optional[float] = None
    for radius in radii:
        op = window_operator(genset, n, shape, radius)
        est = operator_norm_estimate(op, tol=tol, seed=seed)
        within = est <= theoretical + UPPER_TOLERANCE
        nondec = previous is None or est >= previous - MONOTONICITY_TOLERANCE
        rows.append(
            WindowRow(
                radius=radius, estimate=est, within_upper=within, nondecreasing=nondec
            )
        )
        previous = est
    return ConvergenceTable(
        n=n,
        shape=shape,
        theoretical=theoretical,
        upper_tolerance=UPPER_TOLERANCE,
        monotonicity_tolerance=MONOTONICITY_TOLERANCE,
        rows=tuple(rows),
        passed=all(r.within_upper and r.nondecreasing for r in rows),
    )
