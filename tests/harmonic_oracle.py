"""Reference route for the sphere blocks through harmonic polynomials in x, y, z.

The degree-l harmonic polynomials are the integer kernel of the Laplacian
on degree-l monomials, a rotation acts on them by substituting R^T v for
v, and the moment pairing over the sphere makes each summed block
self-adjoint.  `lps.sphere` builds the same blocks as symmetric powers of
the quaternion matrices instead; this module keeps the harmonic
construction, exact and unoptimised, as an independent oracle for low
degrees.  It also keeps a hand-written cyclic Jacobi eigensolver as a
reference for the LAPACK spectra that `lps.sphere` computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import copysign, gcd, sqrt

import numpy as np
import scipy.linalg

from lps.formulas import ConsistencyError

# ---------------------------------------------------------------------------
# Fraction-free integer elimination
# ---------------------------------------------------------------------------


def fraction_free_echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Row echelon form over the integers via cross-multiplication.

    Each elimination step replaces row_i by piv * row_i - f * row_piv and
    then divides out the row content, so entries stay integers of modest
    size.  Returns the nonzero echelon rows and their pivot columns.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    piv_cols: list[int] = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f == 0:
                continue
            row = [piv * a - f * b for a, b in zip(m[i], m[r])]
            content = 0
            for v in row:
                content = gcd(content, v)
            if content > 1:
                row = [v // content for v in row]
            m[i] = row
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], piv_cols


def kernel_with_free_columns(
    rows: list[list[int]], ncols: int
) -> tuple[list[list[int]], list[int]]:
    """Right kernel as content-free integer vectors, one per free column.

    Vector i is the unique basis vector with a nonzero entry at free
    column free_cols[i], and its leading nonzero entry is positive.
    """
    ech, piv_cols = fraction_free_echelon(rows, ncols)
    pivot_set = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: list[list[int]] = []
    for fc in free_cols:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for row, pc in reversed(list(zip(ech, piv_cols))):
            s = sum((row[j] * x[j] for j in range(pc + 1, ncols)), Fraction(0))
            x[pc] = -s / row[pc]
        den = 1
        for xi in x:
            den = den * xi.denominator // gcd(den, xi.denominator)
        v = [int(xi * den) for xi in x]
        content = 0
        for vi in v:
            content = gcd(content, vi)
        v = [vi // content for vi in v]
        if next(vi for vi in v if vi) < 0:
            v = [-vi for vi in v]
        basis.append(v)
    return basis, free_cols


def integer_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    return kernel_with_free_columns(rows, ncols)[0]


def object_matmul(a, b):
    """Exact matrix product using numpy dispatch over Python integers."""
    return np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)


def double_factorial(n: int) -> int:
    """Product n * (n-2) * ...; both (-1)!! and 0!! are 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# ---------------------------------------------------------------------------
# Harmonic polynomials, moment pairing, rotation blocks
# ---------------------------------------------------------------------------


def monomials(degree: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of total degree `degree`, lexicographically descending."""
    return tuple(
        (a, b, degree - a - b)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
    )


@dataclass(frozen=True)
class HarmonicBasis:
    """Integer basis of the degree-`degree` harmonic polynomials.

    Row j of `polynomials` lists coefficients over `monomials` and is the
    only basis vector that is nonzero at monomial index pivots[j], so
    coordinates are read off at those positions.
    """

    degree: int
    monomials: tuple[tuple[int, int, int], ...]
    polynomials: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.polynomials)

    def coordinates(self, vec) -> list[Fraction]:
        """Coordinates of a vector in the span; raises if it is not in it."""
        coords = [
            Fraction(int(vec[piv]), row[piv]) for piv, row in zip(self.pivots, self.polynomials)
        ]
        rebuilt = [sum(c * row[i] for c, row in zip(coords, self.polynomials)) for i in range(len(vec))]
        if rebuilt != [Fraction(int(v)) for v in vec]:
            raise AssertionError("vector is not in the harmonic span")
        return coords


@lru_cache(maxsize=None)
def harmonic_basis(degree: int) -> HarmonicBasis:
    """Kernel of the Laplacian on degree-`degree` monomial coefficients."""
    monos = monomials(degree)
    lower = {m: i for i, m in enumerate(monomials(degree - 2))}
    rows = [[0] * len(monos) for _ in lower]
    for j, m in enumerate(monos):
        for axis, e in enumerate(m):
            if e >= 2:
                target = list(m)
                target[axis] -= 2
                rows[lower[tuple(target)]][j] += e * (e - 1)
    vectors, free = kernel_with_free_columns(rows, len(monos))
    return HarmonicBasis(degree, monos, tuple(map(tuple, vectors)), tuple(free))


@lru_cache(maxsize=None)
def gram_matrix(basis: HarmonicBasis) -> tuple[tuple[Fraction, ...], ...]:
    """Exact pairwise integrals of the basis against the uniform sphere measure.

    The moment of x^a y^b z^c is (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!! when
    a, b, c are all even and 0 otherwise.
    """
    monos = basis.monomials
    moment = [
        [
            0
            if any((e + f) % 2 for e, f in zip(s, t))
            else double_factorial(s[0] + t[0] - 1)
            * double_factorial(s[1] + t[1] - 1)
            * double_factorial(s[2] + t[2] - 1)
            for t in monos
        ]
        for s in monos
    ]
    bmat = np.array(basis.polynomials, dtype=object)
    total = object_matmul(object_matmul(bmat, moment), bmat.T)
    denom = double_factorial(2 * basis.degree + 1)
    return tuple(tuple(Fraction(int(v), denom) for v in row) for row in total)


def _poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m, a in f.items():
        for n, b in g.items():
            key = (m[0] + n[0], m[1] + n[1], m[2] + n[2])
            out[key] = out.get(key, 0) + a * b
    return out


def rotation_block(num, den: int, degree: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact matrix of the action f(v) -> f(R^T v) of R = num / den on the harmonics.

    Column j holds the coordinates of the image of basis polynomial j.
    """
    basis = harmonic_basis(degree)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # variable i becomes the linear form given by column i of the numerator
    forms = [{units[r]: num[r][i] for r in range(3) if num[r][i]} for i in range(3)]
    index = {m: i for i, m in enumerate(basis.monomials)}
    scale = den ** degree
    cols = []
    for poly in basis.polynomials:
        image = [0] * len(basis.monomials)
        for m, coeff in zip(basis.monomials, poly):
            if not coeff:
                continue
            term = {(0, 0, 0): coeff}
            for axis, e in enumerate(m):
                for _ in range(e):
                    term = _poly_mul(term, forms[axis])
            for key, v in term.items():
                image[index[key]] += v
        cols.append([c / scale for c in basis.coordinates(image)])
    k = basis.dimension
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def harmonic_spectrum(genset, degree: int) -> np.ndarray:
    """Ascending eigenvalues of the summed generator block on the harmonics.

    The summed block A satisfies G A = A^T G for the Gram matrix G, so its
    eigenvalues are those of the symmetric-definite pencil (G A, G).
    """
    basis = harmonic_basis(degree)
    k = basis.dimension
    total = np.zeros((k, k), dtype=object)
    for num in genset.matrices:
        total = total + np.array(rotation_block(num, genset.den, degree), dtype=object)
    gram = np.array(gram_matrix(basis), dtype=object)
    pencil = object_matmul(gram, total)
    if not (pencil == pencil.T).all():
        raise AssertionError("summed harmonic block is not self-adjoint for the Gram pairing")
    return scipy.linalg.eigh(pencil.astype(float), gram.astype(float), eigvals_only=True)


# ---------------------------------------------------------------------------
# Cyclic Jacobi eigenvalues
# ---------------------------------------------------------------------------


def jacobi_eigenvalues(sym: np.ndarray, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    scale = max(1.0, float(np.sqrt((a * a).sum())))
    for _ in range(max_sweeps):
        hollow = a - np.diag(np.diag(a))
        off = float(np.sqrt((hollow * hollow).sum()))
        if off <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = copysign(1.0, theta) / (abs(theta) + sqrt(theta * theta + 1.0))
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
    else:
        raise ConsistencyError("Jacobi eigenvalue iteration did not converge")
    return np.sort(np.diag(a))
