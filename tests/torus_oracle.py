"""Reference route for the torus windows: the full window, entry by entry.

`lps.torus.window_operator` builds only the orbit sums of the primitive
half-window count matrix C, each image standing for its pair +-m.  This
module keeps the full window of every nonzero frequency with sup-norm at
most the radius, and fills its count matrix by applying each reduced
word's character action letter by letter to each point, unoptimised.
`half_block` then folds that full matrix onto the primitive half-window
by the definition B = (A + AJ) restricted there, and `orbit_sums` sums
that block over the orbits (`orbit_numbers`) of every signed permutation
that permutes the generating set by conjugation, so the two routes share
no code; `dense_orbit_sums` spreads the window's stored triangle of K
out, mirrored, to compare.
Orbits are numbered class by class, the classes being the orbits of the
residues mod 2 under the letters and the group, found by walking them
(`residue_classes`).
`diagonal_counts` gives the diagonal of that block alone, point by point,
at radii where the full window would not fit in memory.
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


def residue_classes(matrices, group: list[np.ndarray]) -> dict[tuple[int, int], int]:
    """The class of each nonzero residue mod 2: its orbit under the letters and `group`.

    Each residue is moved by every letter's character action and every
    element of `group` until no new residue appears.  Classes are numbered
    in the order of their smallest residue, with (0, 1) < (1, 0) < (1, 1).
    """
    residues = [(0, 1), (1, 0), (1, 1)]
    moves = [lambda m, g=g: character_image(g, m) for g in matrices]
    moves += [lambda m, p=p: tuple((p @ np.array(m)).tolist()) for p in group]
    classes: dict[tuple[int, int], int] = {}
    for residue in residues:
        if residue in classes:
            continue
        number, seen, todo = len(set(classes.values())), {residue}, [residue]
        while todo:
            m = todo.pop()
            for move in moves:
                image = tuple(v % 2 for v in move(m))
                if image not in seen:
                    seen.add(image)
                    todo.append(image)
        classes.update((r, number) for r in seen)
    return classes


def residue_class(classes: dict[tuple[int, int], int], m) -> int:
    """The class of the point m by its residue mod 2; -1 for m = 0 mod 2, never primitive."""
    return classes.get(tuple(int(v) % 2 for v in m), -1)


def orbit_numbers(
    half: list[tuple[int, int]], group: list[np.ndarray], classes: dict[tuple[int, int], int]
) -> np.ndarray:
    """The orbit of each point of `half` under `group` acting on pairs +-m.

    Orbits are numbered by the class of their points (`residue_classes`),
    then by their first point in `half`.
    """
    position = {m: i for i, m in enumerate(half)}

    def pair_of(m):
        x, y = (int(v) for v in m)
        return position[(x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)]

    first = [min(pair_of(p @ np.array(m)) for p in group) for m in half]
    order = sorted(set(first), key=lambda f: (residue_class(classes, half[f]), f))
    numbers = {f: k for k, f in enumerate(order)}
    return np.array([numbers[f] for f in first])


def orbit_sums(
    half: list[tuple[int, int]],
    block: np.ndarray,
    group: list[np.ndarray],
    classes: dict[tuple[int, int], int],
) -> tuple[np.ndarray, np.ndarray]:
    """`block` summed over the orbits of `group` on pairs +-m, and the orbit sizes.

    Orbits are numbered as `orbit_numbers` numbers them.
    """
    orbit = orbit_numbers(half, group, classes)
    sums = np.zeros((orbit.max() + 1,) * 2, dtype=np.int64)
    np.add.at(sums, (orbit[:, None], orbit[None, :]), block)
    return sums, np.bincount(orbit)


def dense_orbit_sums(op) -> np.ndarray:
    """The orbit sums K of a `lps.torus.WindowOperator` as a dense int64 matrix.

    The operator stores K on and above its diagonal; each stored entry is
    written at its place and mirrored below.  An entry stored below the
    diagonal is refused, so it cannot hide behind its own mirror.
    """
    rows, columns, data = op.entries
    if np.any(rows > columns):
        raise AssertionError("an entry of K is stored below the diagonal")
    dense = np.zeros((len(op.orbit_sizes),) * 2, dtype=np.int64)
    dense[columns, rows] = data
    dense[rows, columns] = data
    return dense


def diagonal_counts(genset: IntegerGenerators, n: int, shape: str, radius: int) -> np.ndarray:
    """The diagonal of `half_block` without the full window: one count per primitive half point.

    Each word's character action is composed letter by letter on the unit
    vectors, and the count of a point m is the number of words mapping it
    to m or -m.  The points are those of `half_block`, in its order.  The
    images are int64, which holds them for the short words and small
    radii the tests draw.
    """
    window = LatticeWindow(radius)
    half = np.array(
        [
            (x, y)
            for x, y in (tuple(int(v) for v in p) for p in window.points)
            if gcd(x, y) == 1 and (x > 0 or (x == 0 and y > 0))
        ],
        dtype=np.int64,
    )
    lengths = [n] if shape == "sphere" else range(n + 1)
    counts = np.zeros(len(half), dtype=np.int64)
    for k in lengths:
        for word in enumerate_sphere(genset, k):
            columns = []
            for unit in ((1, 0), (0, 1)):
                image = unit
                for letter in word.letters:
                    image = character_image(genset.matrices[letter], image)
                columns.append(image)
            images = half @ np.array(columns, dtype=np.int64)
            counts += (images == half).all(axis=1) | (images == -half).all(axis=1)
    return counts
