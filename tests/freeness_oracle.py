"""Reference word walks: one exact object per reduced word.

`lps.words.word_levels` walks the reduced words one length at a time on
integer arrays, and both `verify_freeness` and the torus window operator
take their products from it.  This module keeps the direct constructions,
unoptimised: a recursive enumerator of reduced words, products evaluated
letter by letter on matrices of Fractions, and a breadth-first freeness
walk that puts each value into a dict and reports the first repeated
value met in shortlex order (by length, then lexicographically) as the
first collision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Iterator, Optional, Sequence

from lps.words import FreenessReport, IntegerGenerators, Word, word_counts


def exact_elements(genset: IntegerGenerators) -> tuple[tuple, tuple]:
    """The generators as tuples of Fraction rows, and the identity matrix."""
    elements = tuple(
        tuple(tuple(Fraction(v, genset.den) for v in row) for row in m) for m in genset.matrices
    )
    d = len(genset.matrices[0])
    return elements, tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def matmul(a: tuple, b: tuple) -> tuple:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def is_reduced(letters: Sequence[int], inverse_of: Sequence[int]) -> bool:
    return all(inverse_of[a] != b for a, b in zip(letters, letters[1:]))


def enumerate_sphere(genset: IntegerGenerators, n: int) -> Iterator[Word]:
    """Yield every reduced word of length exactly n in lexicographic order."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    inverse_of = genset.inverse_of

    def rec(prefix: tuple[int, ...], banned: int) -> Iterator[Word]:
        if len(prefix) == n:
            yield Word(prefix)
            return
        for i in range(len(inverse_of)):
            if i != banned:
                yield from rec(prefix + (i,), inverse_of[i])

    yield from rec((), -1)


def evaluate_word(genset: IntegerGenerators, word: Word):
    """Exact product of the word's generators, left to right.

    Raises ValueError when the word is not reduced for this generating set.
    """
    elements, identity = exact_elements(genset)
    if any(not (0 <= a < len(elements)) for a in word.letters):
        raise ValueError(f"word uses letters outside 0..{len(elements) - 1}")
    if not is_reduced(word.letters, genset.inverse_of):
        raise ValueError(f"word {word.letters} is not reduced")
    return reduce(lambda acc, a: matmul(acc, elements[a]), word.letters, identity)


def reference_freeness(genset: IntegerGenerators, n: int) -> FreenessReport:
    """The FreenessReport of `verify_freeness`, breadth first over exact elements."""
    _, expected = word_counts(genset.q, n)
    inverse_of = genset.inverse_of
    elements, identity = exact_elements(genset)
    seen: dict = {identity: Word(())}
    first_collision: Optional[tuple[Word, Word]] = None
    level: list[tuple[tuple[int, ...], tuple]] = [((), identity)]
    for _ in range(n):
        level = [
            (prefix + (i,), matmul(value, elements[i]))
            for prefix, value in level
            for i in range(len(elements))
            if not prefix or inverse_of[prefix[-1]] != i
        ]
        for letters, value in level:
            if value not in seen:
                seen[value] = Word(letters)
            elif first_collision is None:
                first_collision = (seen[value], Word(letters))
    found = len(seen)
    return FreenessReport(
        radius_checked=n,
        ball_size_expected=expected,
        ball_size_found=found,
        is_free_to_radius=(found == expected),
        first_collision=first_collision,
    )
