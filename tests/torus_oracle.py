"""Reference route for the torus windows: the full window, entry by entry.

`lps.torus.window_operator` builds only the primitive half-window count
matrix C, folding each image by m -> -m.  This module keeps the full
window of every nonzero frequency with sup-norm at most the radius, and
fills its count matrix by applying each reduced word's character action
letter by letter to each point, unoptimised.  `half_block` then folds
that full matrix onto the primitive half-window by the definition
B = (A + AJ) restricted there, and `orbit_sums` sums that block over the
orbits of every signed permutation that permutes the generating set by
conjugation, so the two routes share no code.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from freeness_oracle import enumerate_sphere
from lps.words import IntegerGenerators


def character_image(g, m: tuple[int, int]) -> tuple[int, int]:
    """(g^-1)^T m for a 2x2 integer matrix g of determinant +-1, by its adjugate."""
    (a, b), (c, d) = g
    det = a * d - b * c
    return (det * (d * m[0] - c * m[1]), det * (a * m[1] - b * m[0]))


class LatticeWindow:
    """Nonzero integer frequencies with sup-norm at most `radius`.

    Points are ordered lexicographically, and the order is exposed both as
    an array and as arithmetic on linear indices.
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


def full_window_counts(
    genset: IntegerGenerators, n: int, shape: str, radius: int
) -> tuple[LatticeWindow, np.ndarray, int]:
    """The full window, its integer count matrix A * |W|, and the word count |W|."""
    window = LatticeWindow(radius)
    lengths = [n] if shape == "sphere" else range(n + 1)
    words = [w for k in lengths for w in enumerate_sphere(genset, k)]
    counts = np.zeros((window.size, window.size), dtype=np.int64)
    for word in words:
        for j, point in enumerate(tuple(int(v) for v in p) for p in window.points):
            image = point
            for letter in word.letters:
                image = character_image(genset.matrices[letter], image)
            if max(abs(image[0]), abs(image[1])) <= radius:
                counts[window.index_of(image), j] += 1
    return window, counts, len(words)


def half_block(window: LatticeWindow, counts: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The primitive half-window points and (A + AJ) restricted to them, as counts."""
    half = [
        (x, y)
        for x, y in (tuple(int(v) for v in p) for p in window.points)
        if gcd(x, y) == 1 and (x > 0 or (x == 0 and y > 0))
    ]
    rows = [window.index_of(m) for m in half]
    flipped = [window.index_of((-x, -y)) for x, y in half]
    block = counts[np.ix_(rows, rows)] + counts[np.ix_(rows, flipped)]
    return half, block


def square_symmetries(matrices) -> list[np.ndarray]:
    """All eight signed permutations P, tried one by one, with P^T g P in the set for each g."""
    gens = {tuple(map(tuple, g)) for g in matrices}
    found = []
    for columns in ((0, 1), (1, 0)):
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            p = np.zeros((2, 2), dtype=np.int64)
            p[0, columns[0]], p[1, columns[1]] = signs
            images = {tuple(map(tuple, (p.T @ np.array(g) @ p).tolist())) for g in matrices}
            if images == gens:
                found.append(p)
    return found


def orbit_sums(
    half: list[tuple[int, int]], block: np.ndarray, group: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """`block` summed over the orbits of `group` on pairs +-m, and the orbit sizes.

    Orbits are numbered by their first point in `half`.
    """
    position = {m: i for i, m in enumerate(half)}

    def class_of(m):
        x, y = (int(v) for v in m)
        return position[(x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)]

    first = [min(class_of(p @ np.array(m)) for p in group) for m in half]
    numbers = {f: k for k, f in enumerate(sorted(set(first)))}
    orbit = np.array([numbers[f] for f in first])
    sums = np.zeros((len(numbers), len(numbers)), dtype=np.int64)
    np.add.at(sums, (orbit[:, None], orbit[None, :]), block)
    return sums, np.bincount(orbit)
