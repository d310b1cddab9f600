"""Exact rotation generators built from integer quaternions of prime norm.

For a prime p with p % 4 == 1 the integer quaternions of norm p, taken up
to sign and filtered to an odd positive real part, fall into p + 1 classes
that pair off under conjugation.  Conjugation by such a quaternion, cleared
of denominators, is an integer 3x3 matrix M with M^T M = p^2 I, and M / p
is a rotation with entries in Z[1/p].  These rotations generate a free
group of rank (p + 1) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test for small moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_split_prime(p: int) -> None:
    """Reject p unless it is a prime congruent to 1 mod 4."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p = {p!r} is not prime")
    if p % 4 != 1:
        raise ValueError(f"p = {p} is not congruent to 1 mod 4")


@dataclass(frozen=True)
class LipschitzQuaternion:
    """Quaternion with integer components x0 + x1*i + x2*j + x3*k."""

    x0: int
    x1: int
    x2: int
    x3: int

    def norm(self) -> int:
        """Multiplicative norm x0^2 + x1^2 + x2^2 + x3^2."""
        return self.x0 ** 2 + self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2

    def conjugate(self) -> "LipschitzQuaternion":
        return LipschitzQuaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other: "LipschitzQuaternion") -> "LipschitzQuaternion":
        a0, a1, a2, a3 = self.x0, self.x1, self.x2, self.x3
        b0, b1, b2, b3 = other.x0, other.x1, other.x2, other.x3
        return LipschitzQuaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def vector_part(self) -> tuple[int, int, int]:
        return (self.x1, self.x2, self.x3)


def jacobi_count(n: int) -> int:
    """Number of integer 4-tuples with x0^2 + x1^2 + x2^2 + x3^2 = n.

    Equals 8 times the sum of the divisors of n not divisible by 4.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d:
            continue
        e = n // d
        if d % 4:
            total += d
        if e != d and e % 4:
            total += e
    return 8 * total


def enumerate_representatives(p: int) -> list[LipschitzQuaternion]:
    """All norm-p integer quaternions with odd positive x0, sorted lexicographically.

    For p prime with p % 4 == 1 there are exactly p + 1 of them, and the set
    is closed under quaternion conjugation.
    """
    require_split_prime(p)
    found: set[tuple[int, int, int, int]] = set()
    for x0 in range(1, isqrt(p) + 1, 2):
        r0 = p - x0 * x0
        b1 = isqrt(r0)
        for x1 in range(-b1, b1 + 1):
            r1 = r0 - x1 * x1
            b2 = isqrt(r1)
            for x2 in range(-b2, b2 + 1):
                r2 = r1 - x2 * x2
                x3 = isqrt(r2)
                if x3 * x3 == r2:
                    found.add((x0, x1, x2, x3))
                    found.add((x0, x1, x2, -x3))
    reps = [LipschitzQuaternion(*t) for t in sorted(found)]
    if len(reps) != p + 1:
        raise ValueError(
            f"expected {p + 1} norm-{p} representatives, found {len(reps)}"
        )
    rep_set = set(reps)
    for q in reps:
        if q.conjugate() not in rep_set:
            raise ValueError(f"representative set not closed under conjugation at {q}")
    return reps


def _det3(m: np.ndarray):
    """Exact determinant of a 3x3 integer matrix, or of each in a (..., 3, 3) stack."""
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


@dataclass(frozen=True)
class ExactRotation:
    """Rotation stored as an integer matrix over a prime-power denominator.

    The value is num / den_base**den_exp.  The stored form is canonical:
    den_exp is minimal, and den_base is normalised to 1 whenever den_exp
    is 0, so equality and hashing agree with equality of rotations.
    """

    num: tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]
    den_base: int
    den_exp: int

    def __post_init__(self) -> None:
        if self.den_base < 1 or self.den_exp < 0:
            raise ValueError("denominator must be a nonnegative power of a positive base")
        if self.den_exp == 0 and self.den_base != 1:
            raise ValueError("canonical form requires den_base = 1 when den_exp = 0")
        if self.den_exp > 0 and all(
            v % self.den_base == 0 for row in self.num for v in row
        ):
            raise ValueError("matrix entries share a factor of den_base; not canonical")
        s = self.den_base ** self.den_exp
        for i in range(3):
            for j in range(3):
                dot = sum(self.num[k][i] * self.num[k][j] for k in range(3))
                expected = s * s if i == j else 0
                if dot != expected:
                    raise ValueError("matrix columns are not orthogonal with norm den^2")
        if _det3(np.array(self.num, dtype=object)) != s ** 3:
            raise ValueError("matrix determinant is not den^3; not a rotation")

    @staticmethod
    def create(
        num: tuple[tuple[int, int, int], ...] | list[list[int]],
        den_base: int,
        den_exp: int,
    ) -> "ExactRotation":
        """Canonicalise and build a rotation from matrix and denominator data."""
        rows = [list(r) for r in num]
        if den_base == 1:
            den_exp = 0
        while den_exp > 0 and all(v % den_base == 0 for r in rows for v in r):
            rows = [[v // den_base for v in r] for r in rows]
            den_exp -= 1
        if den_exp == 0:
            den_base = 1
        frozen = tuple(tuple(r) for r in rows)
        return ExactRotation(frozen, den_base, den_exp)  # type: ignore[arg-type]

    @staticmethod
    def identity() -> "ExactRotation":
        return ExactRotation(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1, 0)

    def __mul__(self, other: "ExactRotation") -> "ExactRotation":
        if self.den_base != 1 and other.den_base != 1 and self.den_base != other.den_base:
            raise ValueError("cannot multiply rotations over different denominator bases")
        base = self.den_base if self.den_base != 1 else other.den_base
        a, b = self.num, other.num
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )
        return ExactRotation.create(prod, base, self.den_exp + other.den_exp)

    def inverse(self) -> "ExactRotation":
        """Transpose of the stored matrix over the same denominator."""
        t = tuple(tuple(self.num[j][i] for j in range(3)) for i in range(3))
        return ExactRotation.create(t, self.den_base, self.den_exp)


def adjoint_rotation(q: LipschitzQuaternion) -> ExactRotation:
    """Conjugation action of q on the imaginary units, cleared of denominators.

    Column c of the integer matrix is the vector part of q * e_c * conj(q)
    for e_c in (i, j, k); the rotation itself is that matrix divided by
    norm(q).
    """
    n = q.norm()
    if n == 0:
        raise ValueError("cannot build a rotation from the zero quaternion")
    units = (
        LipschitzQuaternion(0, 1, 0, 0),
        LipschitzQuaternion(0, 0, 1, 0),
        LipschitzQuaternion(0, 0, 0, 1),
    )
    cols = []
    for e in units:
        img = q * e * q.conjugate()
        if img.x0 != 0:
            raise ValueError("conjugation did not preserve the imaginary subspace")
        cols.append(img.vector_part())
    rows = tuple(tuple(cols[c][r] for c in range(3)) for r in range(3))
    return ExactRotation.create(rows, n, 1)


@dataclass(frozen=True)
class GeneratorSet:
    """The p + 1 conjugation rotations of norm-p representatives, with inverse pairing.

    inverse_of[i] = j means rotations[j] is the exact inverse of rotations[i];
    the pairing is an involution without fixed points and matches quaternion
    conjugation on source_quaternions.
    """

    p: int
    rank: int
    rotations: tuple[ExactRotation, ...]
    inverse_of: tuple[int, ...]
    source_quaternions: tuple[LipschitzQuaternion, ...]

    @property
    def elements(self) -> tuple[ExactRotation, ...]:
        return self.rotations

    @property
    def identity(self) -> ExactRotation:
        return ExactRotation.identity()

    @property
    def integer_matrices(self) -> tuple[tuple, int]:
        """Each rotation's numerator over p (build_generator_set checks den_exp = 1)."""
        return tuple(r.num for r in self.rotations), self.p

    def check_products(self, products: np.ndarray, length: int) -> None:
        """Require M^T M = p^(2k) I and det M = p^(3k) for each numerator M of a length-k word."""
        s = self.p ** length
        gram = np.matmul(np.swapaxes(products, -1, -2), products)
        if not (gram == np.eye(3, dtype=products.dtype) * (s * s)).all():
            raise ValueError(f"a length-{length} product is not orthogonal with norm p^{length}")
        if not (_det3(products) == s ** 3).all():
            raise ValueError(f"a length-{length} product does not have determinant p^{3 * length}")


def build_generator_set(p: int) -> GeneratorSet:
    """Construct the rank-(p+1)/2 free rotation set for a prime p = 1 mod 4."""
    reps = enumerate_representatives(p)
    rotations = tuple(adjoint_rotation(q) for q in reps)
    index_of = {q: i for i, q in enumerate(reps)}
    inverse_of = tuple(index_of[q.conjugate()] for q in reps)
    ident = ExactRotation.identity()
    for i, rot in enumerate(rotations):
        j = inverse_of[i]
        if inverse_of[j] != i or j == i:
            raise ValueError("conjugation pairing is not a fixed-point-free involution")
        if rot.den_exp != 1:
            raise ValueError("generator rotation does not have denominator p")
        if rotations[j] * rot != ident:
            raise ValueError("paired rotations do not multiply to the identity")
    return GeneratorSet(
        p=p,
        rank=(p + 1) // 2,
        rotations=rotations,
        inverse_of=inverse_of,
        source_quaternions=tuple(reps),
    )
