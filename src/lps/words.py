"""Reduced words over a symmetric generating set and freeness certification.

Letters are indices into a generating set that carries an involutive
inverse_of pairing.  A word is reduced when no letter is immediately
followed by its inverse partner.  Counting reduced words of length n is
the (q+1)-regular tree sphere count with q = (number of generators) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Optional, Protocol, Sequence

import numpy as np


class SymmetricGeneratorSet(Protocol):
    """What word enumeration needs from a generating set."""

    @property
    def elements(self) -> Sequence: ...

    @property
    def identity(self): ...

    @property
    def integer_matrices(self) -> tuple[Sequence, int]:
        """The elements as integer d x d matrices over one common denominator."""
        ...

    def check_products(self, products: np.ndarray, length: int) -> None:
        """Raise ValueError unless products[i] / denominator**length is a group element.

        `products` stacks the (d, d) numerators of products of `length`
        elements.  The check is exact as long as its arithmetic does not
        wrap, which verify_freeness guarantees by its choice of dtype.
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


def is_reduced(letters: Sequence[int], inverse_of: Sequence[int]) -> bool:
    return all(inverse_of[a] != b for a, b in zip(letters, letters[1:]))


def enumerate_sphere(genset: SymmetricGeneratorSet, n: int) -> Iterator[Word]:
    """Yield every reduced word of length exactly n in lexicographic order."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k = len(genset.elements)
    inverse_of = genset.inverse_of

    def rec(prefix: tuple[int, ...], banned: int) -> Iterator[Word]:
        if len(prefix) == n:
            yield Word(prefix)
            return
        for i in range(k):
            if i != banned:
                yield from rec(prefix + (i,), inverse_of[i])

    yield from rec((), -1)


def evaluate_word(genset: SymmetricGeneratorSet, word: Word):
    """Exact product of the word's generators, left to right.

    Raises ValueError when the word is not reduced for this generating set.
    """
    k = len(genset.elements)
    if any(not (0 <= a < k) for a in word.letters):
        raise ValueError(f"word uses letters outside 0..{k - 1}")
    if not is_reduced(word.letters, genset.inverse_of):
        raise ValueError(f"word {word.letters} is not reduced")
    return reduce(
        lambda acc, a: acc * genset.elements[a], word.letters, genset.identity
    )


def verify_freeness(
    genset: SymmetricGeneratorSet, n: int, budget: int = 10 ** 6
) -> FreenessReport:
    """Certify that reduced words of length <= n evaluate to distinct elements.

    Walks the reduced-word tree one length at a time on integer arrays:
    level k holds the numerators of every length-k product over the
    generators' common denominator, in lexicographic order of the words,
    and the generating set checks each level exactly.  Every level is then
    scaled to the denominator**n and the distinct rows counted after a
    lexicographic sort.  The first collision reported is the earliest word,
    in depth-first pre-order, whose value an earlier word already took,
    paired with the first word that took it.  A ball larger than `budget`
    raises EnumerationBudgetError rather than silently truncating.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    q = len(genset.elements) - 1
    if q < 1:
        raise ValueError("generating set must contain at least two elements")
    _, expected = word_counts(q, n)
    if expected > budget:
        raise EnumerationBudgetError(
            f"ball of radius {n} holds {expected} words, over the budget of {budget}"
        )
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
    # The letter each letter bans next; the sentinel k stands for the empty
    # word, which bans nothing.
    bans = np.array(genset.inverse_of + (k,))
    letters = np.arange(k)

    # Per length, for each word: its value over den**n, its depth-first
    # pre-order index, its parent's index one level up and its last letter.
    products = np.eye(d, dtype=gens.dtype)[None]
    last = np.array([k])
    pre = np.zeros(1, dtype=np.int64)
    levels = [(products * den ** n, pre, np.array([-1]), last)]
    for length in range(1, n + 1):
        banned = bans[last]
        keep = (letters[None, :] != banned[:, None]).ravel()
        parent = np.repeat(np.arange(len(products)), k)[keep]
        last = np.tile(letters, len(products))[keep]
        products = np.matmul(products[:, None], gens[None]).reshape(-1, d, d)[keep]
        genset.check_products(products, length)
        # Depth-first pre-order index: each earlier sibling's subtree, which
        # holds sum_{t <= n - length} q**t words, comes first.
        subtree = sum(q ** t for t in range(n - length + 1))
        rank = last - (banned[parent] < last)
        pre = pre[parent] + 1 + rank * subtree
        levels.append((products * den ** (n - length), pre, parent, last))

    values = np.concatenate([v for v, *_ in levels]).reshape(expected, d * d)
    preorder = np.concatenate([p for _, p, *_ in levels])
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
    for _, _, parent, last in reversed(levels[1 : length + 1]):
        letters.append(int(last[index]))
        index = int(parent[index])
    return Word(tuple(reversed(letters)))
