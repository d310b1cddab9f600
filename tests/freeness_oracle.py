"""Reference freeness walk: one exact object per reduced word, depth first.

`lps.words.verify_freeness` walks the word ball one length at a time on
integer arrays.  This module keeps the direct construction, unoptimised:
each product is the generating set's own exact element, each value goes
into a dict, and the first repeated value met in depth-first pre-order is
the first collision.
"""

from __future__ import annotations

from typing import Optional

from lps.words import FreenessReport, SymmetricGeneratorSet, Word, word_counts


def reference_freeness(genset: SymmetricGeneratorSet, n: int) -> FreenessReport:
    """The FreenessReport of `verify_freeness`, by recursion over exact elements."""
    _, expected = word_counts(len(genset.elements) - 1, n)
    inverse_of = genset.inverse_of
    elements = genset.elements
    seen: dict = {genset.identity: Word(())}
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

    visit((), genset.identity, -1)
    found = len(seen)
    return FreenessReport(
        radius_checked=n,
        ball_size_expected=expected,
        ball_size_found=found,
        is_free_to_radius=(found == expected),
        first_collision=first_collision,
    )
