"""Reduced words over a symmetric generating set and freeness certification.

A generating set is IntegerGenerators: integer d x d matrices over one
common denominator, with an involutive inverse_of pairing that the
constructor checks exactly.  Letters are indices into it, and a word is
reduced when no letter is immediately followed by its inverse partner.
Counting reduced words of length n is the (q+1)-regular tree sphere count
with q = (number of generators) - 1.  word_levels is the one walk over
reduced words: freeness certification here and the torus window
operators both take their products from it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class IntegerGenerators:
    """Symmetric generating set: element i is matrices[i] / den.

    `matrices` holds nested int tuples, so the set hashes.  inverse_of[i]
    is the index of the inverse of element i; the constructor requires a
    fixed-point-free involution with M_i M_inverse_of[i] = den^2 I exactly.
    GeneratorSet derives all three fields from quaternions, for which the
    pairing holds by construction, and replaces this check with its own.
    """

    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    den: int
    inverse_of: tuple[int, ...]

    def __post_init__(self) -> None:
        gens = np.array(self.matrices, dtype=object)
        k = len(self.inverse_of)
        if k == 0 or self.den < 1 or gens.shape != (k,) + gens.shape[-1:] * 2:
            raise ValueError("need one square matrix per inverse_of entry and a positive den")
        inv, letters = np.array(self.inverse_of), np.arange(k)
        involution = sorted(self.inverse_of) == list(range(k)) and (inv[inv] == letters).all()
        if not involution or (inv == letters).any():
            raise ValueError(f"inverse_of {self.inverse_of} is not a fixed-point-free involution")
        identity = np.eye(gens.shape[-1], dtype=object) * self.den ** 2
        if not (np.matmul(gens, gens[inv]) == identity).all():
            raise ValueError("paired matrices do not multiply to den^2 times the identity")

    @property
    def q(self) -> int:
        return len(self.inverse_of) - 1

    @property
    def rank(self) -> int:
        return len(self.inverse_of) // 2


class ConsistencyError(ArithmeticError):
    """Two supposedly equal internal computations disagreed beyond tolerance."""


class EnumerationBudgetError(RuntimeError):
    """Raised when a requested enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class Word:
    """Reduced word stored as a tuple of generator indices; () is the identity."""

    letters: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class WalkDiagnostics:
    """What verify_freeness walked and sorted, and the milliseconds each took.

    `keys_per_product` is the number of packed keys per product, 1 when
    one int64 or one object key holds it; `tie_rows` the rows lexsorted
    because their first key ties another's (0 with one key);
    `stable_lexsort` whether the stable shortlex sort ran, which it does
    only when the ball holds a repeat; `walk_ms` the time of the walk and
    the packing, and `sort_ms` of every sort after it.
    """

    words_per_level: tuple[int, ...]
    keys_per_product: int
    tie_rows: int
    stable_lexsort: bool
    walk_ms: float
    sort_ms: float


@dataclass(frozen=True)
class FreenessReport:
    radius_checked: int
    ball_size_expected: int
    ball_size_found: int
    is_free_to_radius: bool
    first_collision: Optional[tuple[Word, Word]]
    diagnostics: Optional[WalkDiagnostics] = field(default=None, compare=False)


def word_counts(q: int, n: int) -> tuple[int, int]:
    """Sphere and ball counts of reduced words in the (q+1)-regular tree.

    The sphere of radius n has (q+1) * q**(n-1) points for n >= 1 and the
    ball totals ((q+1) * q**n - 2) // (q - 1); the q = 1 line degenerates
    to 2 and 2n + 1.
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be an integer >= 1, got {q!r}")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if n == 0:
        return (1, 1)
    if q == 1:
        return (2, 2 * n + 1)
    sphere = (q + 1) * q ** (n - 1)
    ball = ((q + 1) * q ** n - 2) // (q - 1)
    return (sphere, ball)


def word_levels(
    genset: IntegerGenerators, n: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every reduced word of length 0..n as integer arrays, one level per length.

    Level k is (products, parent, last): the (N_k, d, d) numerators of the
    length-k products over the generators' common denominator**k, in
    lexicographic order of the words; each word's parent index in level
    k - 1; and its last letter, both int32.  Level 0 holds the empty word,
    whose last letter is the sentinel len(inverse_of).  Each level is
    filled letter by letter: the parents that may take letter a are
    multiplied by it, and the child lands at offset(i) + a - [ban(i) < a],
    where offset(i) counts the children of the parents before i and ban(i)
    is the letter parent i bans.  So no level is built k-fold and masked.
    The arithmetic is exact, so every product is a group element because
    the generators are: no level needs checking.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    gens = np.array(genset.matrices, dtype=object)
    k, d, _ = gens.shape
    # Entries of a length-j numerator are at most bound**j.  The walk runs
    # in int64 only while d! * bound**(d*n), the size of a d x d determinant
    # of such entries, stays below 2**63, which leaves room for what callers
    # compute from the products: scaling to den**n here, column sums of |W|
    # in the torus windows.  Past it the walk runs on Python ints: int64
    # would wrap silently, and no identity checked on the products could
    # tell, since wrapped products still satisfy every polynomial identity
    # mod 2**64.
    bound = max(genset.den, max(sum(abs(v) for v in row) for m in genset.matrices for row in m))
    if math.factorial(d) * bound ** (d * n) < 2 ** 63:
        gens = gens.astype(np.int64)
    # The letter each letter bans next; the sentinel k bans nothing.
    bans = np.array(genset.inverse_of + (k,), dtype=np.int32)
    products = np.eye(d, dtype=gens.dtype)[None]
    last = np.array([k], dtype=np.int32)
    levels = [(products, np.array([-1], dtype=np.int32), last)]
    for _ in range(n):
        ban = bans[last]
        # the root has k children, every other word k - 1
        per = k - 1 if len(levels) > 1 else k
        size = len(products) * per
        children = np.empty((size, d, d), dtype=gens.dtype)
        parent = np.empty(size, dtype=np.int32)
        last = np.empty(size, dtype=np.int32)
        for a in range(k):
            rows = np.flatnonzero(ban != a)
            at = rows * per + a - (ban[rows] < a)
            children[at] = np.matmul(products[rows], gens[a])
            parent[at] = rows
            last[at] = a
        products = children
        levels.append((products, parent, last))
    return levels


def verify_freeness(
    genset: IntegerGenerators, n: int, budget: int = 10 ** 6
) -> FreenessReport:
    """Certify that reduced words of length <= n evaluate to distinct elements.

    Takes the levels of word_levels, scales each to the denominator**n and
    packs every product into exact sort keys level by level.  Distinctness
    is decided by numpy's sort of the first key alone (`_all_distinct`),
    and only the rows whose first key ties another's are lexsorted on the
    rest.  Only a ball with a repeat pays for the stable lexicographic sort
    of every row, which counts the distinct products and finds the first
    collision: the earliest word in shortlex order (by length, then
    lexicographically) whose value an earlier word already took, paired
    with the first word that took it, a shortest relation reported alike
    at every radius that contains it.  A ball larger than `budget` raises
    EnumerationBudgetError before any walk rather than silently truncating.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _, expected = word_counts(genset.q, n)
    if expected > budget:
        raise EnumerationBudgetError(
            f"ball of radius {n} holds {expected} words, over the budget of {budget}"
        )
    started = time.perf_counter()
    keys, links = _packed_keys(genset, n)
    walked = time.perf_counter()
    distinct, tie_rows = _all_distinct(keys)
    first_collision: Optional[tuple[Word, Word]] = None
    repeats = 0
    if not distinct:
        # The levels hold the words in shortlex order, and lexsort is
        # stable, so the words of one value stay in that order.
        order, same = _lexsorted_repeats(keys)
        at = np.flatnonzero(same)
        repeats = len(at)
        if repeats:
            # The earliest repeat is the second word of its value, so the
            # word sorted just before it is the first.
            at = at[np.argmin(order[at + 1])]
            first_collision = (
                _word_at(links, int(order[at])),
                _word_at(links, int(order[at + 1])),
            )
    found = expected - repeats
    return FreenessReport(
        radius_checked=n,
        ball_size_expected=expected,
        ball_size_found=found,
        is_free_to_radius=(found == expected),
        first_collision=first_collision,
        diagnostics=WalkDiagnostics(
            words_per_level=tuple(len(parent) for parent, _ in links),
            keys_per_product=len(keys),
            tie_rows=tie_rows,
            stable_lexsort=not distinct,
            walk_ms=(walked - started) * 1000.0,
            sort_ms=(time.perf_counter() - walked) * 1000.0,
        ),
    )


def _packed_keys(
    genset: IntegerGenerators, n: int
) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """The ball's products packed into exact sort keys, and each level's (parent, last) links.

    Each level of word_levels is scaled to the denominator**n.  Each row's
    entries, offset by the peak |entry| to [0, 2 * peak], are packed `per`
    to an int64 key of `width`-bit fields, so equal keys mean equal rows.
    Past int64 one object-dtype key holds the whole row.  The scaling and
    the offset run in place on the level's own products, which are dropped
    as soon as the level is packed: only the keys and the links outlive
    the call.
    """
    levels = word_levels(genset, n)
    links = [(parent, last) for _, parent, last in levels]
    d2 = len(genset.matrices[0]) ** 2
    scales = [genset.den ** (n - length) for length in range(n + 1)]
    peak = max(
        max(int(products.max()), -int(products.min())) * scale
        for (products, _, _), scale in zip(levels, scales)
    )
    width = (2 * peak).bit_length()
    per, dtype = (63 // width, np.int64) if width <= 63 else (d2, object)
    fields = np.array([1 << (width * f) for f in range(per)], dtype=dtype)
    keys = [[] for _ in range(0, d2, per)]
    for length, scale in enumerate(scales):
        rows = levels[length][0].reshape(-1, d2).astype(dtype, copy=False)
        levels[length] = None
        if scale != 1:
            rows *= scale
        rows += peak
        for chunk, start in zip(keys, range(0, d2, per)):
            chunk.append(rows[:, start : start + per] @ fields[: d2 - start])
    return [np.concatenate(chunk) for chunk in keys], links


def _all_distinct(keys: list[np.ndarray]) -> tuple[bool, int]:
    """Whether no two rows of the packed keys are equal, and how many rows were lexsorted.

    The first key is sorted by value alone, with no permutation.  Rows
    whose first key is unique are distinct from every other row; with more
    keys, only the rows whose first key ties another's are lexsorted, on
    every key, and compared with their sorted neighbours.
    """
    first = np.sort(keys[0])
    tied = first[1:][first[1:] == first[:-1]]
    if len(tied) == 0 or len(keys) == 1:
        return len(tied) == 0, 0
    at = np.searchsorted(tied, keys[0]).clip(max=len(tied) - 1)
    rows = np.flatnonzero(tied[at] == keys[0])
    _, same = _lexsorted_repeats([key[rows] for key in keys])
    return not same.any(), len(rows)


def _lexsorted_repeats(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexsort order of the rows, and where each sorted row equals the one before."""
    order = np.lexsort(keys)
    same = np.ones(len(order) - 1, dtype=bool)
    for key in keys:
        same &= key[order[1:]] == key[order[:-1]]
    return order, same


def _word_at(links, index: int) -> Word:
    """The word at position `index` of the concatenated levels, by their (parent, last) links."""
    length = 0
    while index >= len(links[length][0]):
        index -= len(links[length][0])
        length += 1
    letters = []
    for parent, last in reversed(links[1 : length + 1]):
        letters.append(int(last[index]))
        index = int(parent[index])
    return Word(tuple(reversed(letters)))
