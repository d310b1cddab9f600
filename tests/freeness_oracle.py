"""Reference word walks: one exact object per reduced word, depth first.

`lps.words.word_levels` walks the reduced words one length at a time on
integer arrays, and both `verify_freeness` and the torus window operator
take their products from it.  This module keeps the direct constructions,
unoptimised: a recursive enumerator of reduced words, products evaluated
letter by letter as the generating set's own exact elements, and a
freeness walk that puts each value into a dict and reports the first
repeated value met in depth-first pre-order as the first collision.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator, Optional, Sequence

from lps.quaternions import ExactRotation, GeneratorSet
from lps.torus import TorusGenerator
from lps.words import FreenessReport, SymmetricGeneratorSet, Word, word_counts


def exact_elements(genset: SymmetricGeneratorSet) -> tuple[tuple, object]:
    """The generating set's exact group elements and the identity among them."""
    if isinstance(genset, GeneratorSet):
        return genset.rotations, ExactRotation.identity()
    return genset.generators, TorusGenerator(((1, 0), (0, 1)))


def is_reduced(letters: Sequence[int], inverse_of: Sequence[int]) -> bool:
    return all(inverse_of[a] != b for a, b in zip(letters, letters[1:]))


def enumerate_sphere(genset: SymmetricGeneratorSet, n: int) -> Iterator[Word]:
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


def evaluate_word(genset: SymmetricGeneratorSet, word: Word):
    """Exact product of the word's generators, left to right.

    Raises ValueError when the word is not reduced for this generating set.
    """
    elements, identity = exact_elements(genset)
    if any(not (0 <= a < len(elements)) for a in word.letters):
        raise ValueError(f"word uses letters outside 0..{len(elements) - 1}")
    if not is_reduced(word.letters, genset.inverse_of):
        raise ValueError(f"word {word.letters} is not reduced")
    return reduce(lambda acc, a: acc * elements[a], word.letters, identity)


def reference_freeness(genset: SymmetricGeneratorSet, n: int) -> FreenessReport:
    """The FreenessReport of `verify_freeness`, by recursion over exact elements."""
    _, expected = word_counts(len(genset.inverse_of) - 1, n)
    inverse_of = genset.inverse_of
    elements, identity = exact_elements(genset)
    seen: dict = {identity: Word(())}
    first_collision: Optional[tuple[Word, Word]] = None

    def visit(prefix: tuple[int, ...], value, banned: int) -> None:
        nonlocal first_collision
        if len(prefix) == n:
            return
        for i in range(len(elements)):
            if i == banned:
                continue
            child = value * elements[i]
            word = Word(prefix + (i,))
            if child in seen:
                if first_collision is None:
                    first_collision = (seen[child], word)
            else:
                seen[child] = word
            visit(prefix + (i,), child, inverse_of[i])

    visit((), identity, -1)
    found = len(seen)
    return FreenessReport(
        radius_checked=n,
        ball_size_expected=expected,
        ball_size_found=found,
        is_free_to_radius=(found == expected),
        first_collision=first_collision,
    )
