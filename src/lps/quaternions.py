"""Exact rotation generators built from integer quaternions.

For a prime p with p % 4 == 1 the integer quaternions of norm p, taken up
to sign and filtered to an odd positive real part, fall into p + 1 classes
that pair off under conjugation.  Conjugation by a quaternion q, cleared
of denominators, is an integer 3x3 matrix M with M^T M = norm(q)^2 I and
det M = norm(q)^3, so M / norm(q) is a rotation.  For the norm-p classes
these rotations, with entries in Z[1/p], generate a free group of rank
(p + 1) / 2.  GeneratorSet is built from the quaternions alone and derives
the rest: the numerators M over their common norm, as the words module's
IntegerGenerators, and the pairing of each quaternion with its conjugate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import isqrt

from .words import ConsistencyError, IntegerGenerators


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


def quaternions_of_norm(n: int) -> list[LipschitzQuaternion]:
    """Every integer quaternion of norm n, all signs included, sorted lexicographically."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    found = []
    b0 = isqrt(n)
    for x0 in range(-b0, b0 + 1):
        r0 = n - x0 * x0
        b1 = isqrt(r0)
        for x1 in range(-b1, b1 + 1):
            r1 = r0 - x1 * x1
            b2 = isqrt(r1)
            for x2 in range(-b2, b2 + 1):
                r2 = r1 - x2 * x2
                x3 = isqrt(r2)
                if x3 * x3 == r2:
                    # a set, so that x3 = 0 is counted once
                    found.extend({(x0, x1, x2, x3), (x0, x1, x2, -x3)})
    return [LipschitzQuaternion(*t) for t in sorted(found)]


def enumerate_representatives(p: int) -> list[LipschitzQuaternion]:
    """All norm-p integer quaternions with odd positive x0, sorted lexicographically.

    For p prime with p % 4 == 1 exactly one coordinate of a norm-p
    quaternion is odd, so each class of the 8 unit multiples +-q, +-iq,
    +-jq, +-kq holds one with odd positive x0: there are p + 1 of them,
    and the set is closed under quaternion conjugation.  Finding any other
    number raises ConsistencyError.
    """
    require_split_prime(p)
    reps = [q for q in quaternions_of_norm(p) if q.x0 > 0 and q.x0 % 2]
    if len(reps) != p + 1:
        raise ConsistencyError(
            f"expected {p + 1} norm-{p} representatives, found {len(reps)}"
        )
    return reps


def adjoint_rotation(q: LipschitzQuaternion) -> tuple[tuple[int, ...], ...]:
    """Conjugation action of q on the imaginary units, cleared of denominators.

    Column c of the integer 3x3 matrix returned is the vector part of
    q * e_c * conj(q) for e_c in (i, j, k); the rotation itself is that
    matrix divided by norm(q).
    """
    if q.norm() == 0:
        raise ValueError("cannot build a rotation from the zero quaternion")
    units = (
        LipschitzQuaternion(0, 1, 0, 0),
        LipschitzQuaternion(0, 0, 1, 0),
        LipschitzQuaternion(0, 0, 0, 1),
    )
    # q e conj(q) has real part norm(q) Re(e) = 0, so it stays imaginary
    cols = [(q * e * q.conjugate()).vector_part() for e in units]
    return tuple(tuple(cols[c][r] for c in range(3)) for r in range(3))


@dataclass(frozen=True)
class GeneratorSet(IntegerGenerators):
    """The conjugation rotations of integer quaternions of one common norm.

    Built from `source_quaternions` alone, a sequence kept as a tuple so
    that the set hashes: den is their common norm, matrices[i] is
    adjoint_rotation(source_quaternions[i]), and inverse_of pairs the k-th
    copy of each quaternion with the k-th copy of its conjugate.  Ad(q)
    scales lengths by norm(q), keeps orientation and has Ad(q) Ad(conj q)
    = norm(q)^2 I, so these are rotations and inverse pairs by
    construction.  The constructor raises ValueError only for what
    derivation cannot fix: no quaternions or mixed norms, a real quaternion
    (its own inverse), or a conjugate that appears a different number of
    times than its quaternion.  The hash is that of the quaternions,
    computed once, since every cache keyed by a set looks it up; equality
    still compares the fields.
    """

    matrices: tuple[tuple[tuple[int, ...], ...], ...] = field(init=False)
    den: int = field(init=False)
    inverse_of: tuple[int, ...] = field(init=False)
    source_quaternions: tuple[LipschitzQuaternion, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        quaternions = tuple(self.source_quaternions)
        norms = {q.norm() for q in quaternions}
        if len(norms) != 1:
            raise ValueError(f"need quaternions of one common norm, got norms {sorted(norms)}")
        if any(q.vector_part() == (0, 0, 0) for q in quaternions):
            raise ValueError("a real quaternion is its own inverse")
        if Counter(q.conjugate() for q in quaternions) != Counter(quaternions):
            raise ValueError("each quaternion's conjugate must appear as often as it does")
        copies: dict[LipschitzQuaternion, list[int]] = {}
        for i, q in enumerate(quaternions):
            copies.setdefault(q, []).append(i)
        # the k-th copy of q, met in order, takes the k-th copy of conj(q)
        partners = {q: iter(indices) for q, indices in copies.items()}
        object.__setattr__(self, "source_quaternions", quaternions)
        object.__setattr__(self, "_hash", hash(quaternions))
        object.__setattr__(self, "den", norms.pop())
        object.__setattr__(self, "matrices", tuple(map(adjoint_rotation, quaternions)))
        object.__setattr__(
            self, "inverse_of", tuple(next(partners[q.conjugate()]) for q in quaternions)
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def p(self) -> int:
        return self.den


def build_generator_set(p: int) -> GeneratorSet:
    """Construct the rank-(p+1)/2 free rotation set for a prime p = 1 mod 4."""
    return GeneratorSet(enumerate_representatives(p))
