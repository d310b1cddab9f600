"""Reduced words over a symmetric generating set and freeness certification.

Letters are indices into a generating set that carries an involutive
inverse_of pairing.  A word is reduced when no letter is immediately
followed by its inverse partner.  Counting reduced words of length n is
the (q+1)-regular tree sphere count with q = (number of generators) - 1.
word_levels is the one walk over reduced words: freeness certification
here and the torus window operators both take their products from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np


class SymmetricGeneratorSet(Protocol):
    """What the walk over reduced words needs from a generating set."""

    @property
    def integer_matrices(self) -> tuple[Sequence, int]:
        """The elements as integer d x d matrices over one common denominator."""
        ...

    def check_products(self, products: np.ndarray, length: int) -> None:
        """Raise ValueError unless products[i] / denominator**length is a group element.

        `products` stacks the (d, d) numerators of products of `length`
        elements.  The check is exact as long as its arithmetic does not
        wrap, which word_levels guarantees by its choice of dtype.
        """
        ...

    inverse_of: tuple[int, ...]


class EnumerationBudgetError(RuntimeError):
    """Raised when a requested enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class Word:
    """Reduced word stored as a tuple of generator indices; () is the identity."""

    letters: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class FreenessReport:
    radius_checked: int
    ball_size_expected: int
    ball_size_found: int
    is_free_to_radius: bool
    first_collision: Optional[tuple[Word, Word]]


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
    genset: SymmetricGeneratorSet, n: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every reduced word of length 0..n as integer arrays, one level per length.

    Level k is (products, parent, last): the (N_k, d, d) numerators of the
    length-k products over the generators' common denominator**k, in
    lexicographic order of the words; each word's parent index in level
    k - 1; and its last letter.  Level 0 holds the empty word, whose last
    letter is the sentinel len(inverse_of).  Children come from one
    broadcast matrix product per level, with each parent's inverse letter
    masked out, and the generating set checks every level exactly.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    matrices, den = genset.integer_matrices
    gens = np.array(matrices, dtype=object)
    k, d, _ = gens.shape
    # Entries of a length-j numerator are at most bound**j, so the d! terms
    # of its determinant, the largest intermediate, stay within
    # d! * bound**(d*n).  Past 2**63 the walk runs on Python ints: int64
    # would wrap silently, and wrapped products still pass the level
    # checks, since those are polynomial identities that hold mod 2**64.
    bound = max(den, max(sum(abs(v) for v in row) for m in matrices for row in m))
    if math.factorial(d) * bound ** (d * n) < 2 ** 63:
        gens = gens.astype(np.int64)
    # The letter each letter bans next; the sentinel k bans nothing.
    bans = np.array(genset.inverse_of + (k,))
    letters = np.arange(k)
    products = np.eye(d, dtype=gens.dtype)[None]
    last = np.array([k])
    levels = [(products, np.array([-1]), last)]
    for length in range(1, n + 1):
        keep = (letters[None, :] != bans[last][:, None]).ravel()
        parent = np.repeat(np.arange(len(products)), k)[keep]
        last = np.tile(letters, len(products))[keep]
        products = np.matmul(products[:, None], gens[None]).reshape(-1, d, d)[keep]
        genset.check_products(products, length)
        levels.append((products, parent, last))
    return levels


def verify_freeness(
    genset: SymmetricGeneratorSet, n: int, budget: int = 10 ** 6
) -> FreenessReport:
    """Certify that reduced words of length <= n evaluate to distinct elements.

    Takes the levels of word_levels, scales each to the denominator**n
    and counts the distinct rows after a lexicographic sort.  The first
    collision reported is the earliest word, in depth-first pre-order,
    whose value an earlier word already took, paired with the first word
    that took it.  A ball larger than `budget` raises
    EnumerationBudgetError before any walk rather than silently truncating.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    q = len(genset.inverse_of) - 1
    if q < 1:
        raise ValueError("generating set must contain at least two elements")
    _, expected = word_counts(q, n)
    if expected > budget:
        raise EnumerationBudgetError(
            f"ball of radius {n} holds {expected} words, over the budget of {budget}"
        )
    levels = word_levels(genset, n)
    _, den = genset.integer_matrices
    # Depth-first pre-order index of each word: its parent's, plus one,
    # plus the subtrees of its earlier siblings, each holding
    # sum_{t <= n - length} q**t words.  Siblings sit together in a level,
    # so a word's rank among them is its distance from the first.
    pre = np.zeros(1, dtype=np.int64)
    preorders = [pre]
    for length, (_, parent, _) in enumerate(levels[1:], 1):
        subtree = sum(q ** t for t in range(n - length + 1))
        rank = np.arange(len(parent)) - np.searchsorted(parent, parent)
        pre = pre[parent] + 1 + rank * subtree
        preorders.append(pre)

    values = np.concatenate(
        [products * den ** (n - length) for length, (products, _, _) in enumerate(levels)]
    ).reshape(expected, -1)
    preorder = np.concatenate(preorders)
    order = np.lexsort((preorder,) + tuple(values.T))
    repeats = np.flatnonzero((values[order[1:]] == values[order[:-1]]).all(axis=1))
    first_collision: Optional[tuple[Word, Word]] = None
    if len(repeats):
        # The earliest repeat is the second word of its value, so the word
        # sorted just before it is the first.
        at = repeats[np.argmin(preorder[order[repeats + 1]])]
        first_collision = (
            _word_at(levels, int(order[at])),
            _word_at(levels, int(order[at + 1])),
        )
    found = expected - len(repeats)
    return FreenessReport(
        radius_checked=n,
        ball_size_expected=expected,
        ball_size_found=found,
        is_free_to_radius=(found == expected),
        first_collision=first_collision,
    )


def _word_at(levels, index: int) -> Word:
    """The word at position `index` of the concatenated levels, by parent links."""
    length = 0
    while index >= len(levels[length][1]):
        index -= len(levels[length][1])
        length += 1
    letters = []
    for _, parent, last in reversed(levels[1 : length + 1]):
        letters.append(int(last[index]))
        index = int(parent[index])
    return Word(tuple(reversed(letters)))
