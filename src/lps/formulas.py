"""Closed forms for averaging-operator norms on the (q+1)-regular tree.

Everything here is elementary arithmetic: the spherical decay profile
xi(n) = (1 + n*(q-1)/(q+1)) * q**(-n/2), the ball correction factor, the
tree polynomials attached to distance-n averaging, and their sup over the
tempered spectral interval [-2*sqrt(q), 2*sqrt(q)].  Pairs of independent
routes to the same quantity are compared at tight tolerances instead of
being collapsed into one formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .quaternions import require_split_prime
from .words import word_counts


class ConsistencyError(ArithmeticError):
    """Two supposedly equal internal computations disagreed beyond tolerance."""


def _require_regularity(q: int) -> None:
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be an integer >= 1, got {q!r}")


def harish_chandra(q: int, n: int) -> float:
    """Spherical decay profile (1 + n*(q-1)/(q+1)) * q**(-n/2)."""
    _require_regularity(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return (1.0 + n * (q - 1) / (q + 1)) * q ** (-n / 2)


def harish_chandra_boundary_sum(q: int, n: int) -> float:
    """Same profile, assembled from the tree-boundary partition instead.

    Boundary mass is grouped by the nearest vertex of the distance-n
    geodesic: each endpoint hangs q branches and each of the n - 1
    interior vertices hangs q - 1, a branch at position t carrying
    Busemann weight q ** ((2t - n)/2) and visibility mass
    1 / ((q+1) * q**t).  Summing the products reproduces the closed form,
    which makes this an independent cross-check of harish_chandra.
    """
    _require_regularity(q)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = 0.0
    for t in range(n + 1):
        branches = q if t in (0, n) else q - 1
        dist_near = t + 1
        dist_far = (n - t) + 1
        busemann = dist_near - dist_far
        weight = q ** (busemann / 2)
        mass = 1.0 / ((q + 1) * q ** (dist_near - 1))
        total += branches * weight * mass
    return total


def c_factor(q: int, n: int) -> float:
    """Ball correction factor 1 / (1 + 2 * q**-n * sum_{k<n} q**k).

    Also evaluated as (q - 1) / (q + 1 - 2 * q**-n); the two routes must
    agree to 1e-14 relative or a ConsistencyError is raised.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    geometric = (q ** n - 1) // (q - 1)
    from_sum = 1.0 / (1.0 + 2.0 * geometric / q ** n)
    from_quotient = (q - 1) / (q + 1 - 2.0 / q ** n)
    if abs(from_sum - from_quotient) > 1e-14 * abs(from_sum):
        raise ConsistencyError(
            f"c_factor routes disagree: {from_sum!r} vs {from_quotient!r}"
        )
    return from_sum


@dataclass(frozen=True)
class HeckePolynomial:
    """Distance-n averaging polynomial on the (q+1)-regular tree.

    Monic of degree n, with the three-term recursion
    P_{n+1} = X * P_n - q * P_{n-1} seeded by P_0 = 1, P_1 = X and the
    degree-2 special case P_2 = X^2 - (q+1).
    """

    q: int
    degree: int
    coefficients: tuple[int, ...]

    def __call__(self, x):
        # Horner, seeded from the argument so int and Fraction stay exact
        acc = x * 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@lru_cache(maxsize=None)
def hecke_polynomial(q: int, n: int) -> HeckePolynomial:
    """Build P_n by the tree recursion; exact integer coefficients."""
    _require_regularity(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return HeckePolynomial(q, 0, (1,))
    if n == 1:
        return HeckePolynomial(q, 1, (0, 1))
    if n == 2:
        return HeckePolynomial(q, 2, (-(q + 1), 0, 1))
    prev = hecke_polynomial(q, n - 1)
    prev2 = hecke_polynomial(q, n - 2)
    shifted = (0,) + prev.coefficients
    padded = prev2.coefficients + (0, 0)
    coeffs = tuple(a - q * b for a, b in zip(shifted, padded))
    return HeckePolynomial(q, n, coeffs)


# Points of the uniform scan that seeds hecke_sup's golden-section refinement.
SUP_GRID_POINTS = 2001


def hecke_sup(q: int, n: int) -> float:
    """Sup of |P_n| over [-2*sqrt(q), 2*sqrt(q)] by dense scan plus refinement.

    The returned value must match the right-endpoint evaluation
    P_n(2*sqrt(q)) and the count-weighted profile xi(n) * |S_n| to 1e-9
    relative; either mismatch raises ConsistencyError, so this doubles as
    a consistency test of the polynomial recursion.
    """
    _require_regularity(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    poly = hecke_polynomial(q, n)
    edge = 2.0 * math.sqrt(q)
    xs = [-edge + (2.0 * edge) * i / (SUP_GRID_POINTS - 1) for i in range(SUP_GRID_POINTS)]
    vals = [abs(poly(x)) for x in xs]
    best = max(range(SUP_GRID_POINTS), key=vals.__getitem__)
    sup = vals[best]

    lo = xs[max(best - 1, 0)]
    hi = xs[min(best + 1, SUP_GRID_POINTS - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = abs(poly(c)), abs(poly(d))
    for _ in range(120):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = abs(poly(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = abs(poly(d))
        sup = max(sup, fc, fd)

    at_edge = abs(poly(edge))
    sphere, _ = word_counts(q, n)
    profile = harish_chandra(q, n) * sphere
    scale = max(abs(sup), 1e-300)
    if abs(sup - at_edge) > 1e-9 * scale:
        raise ConsistencyError(
            f"sup {sup!r} does not match edge value {at_edge!r} for q={q}, n={n}"
        )
    if abs(sup - profile) > 1e-9 * scale:
        raise ConsistencyError(
            f"sup {sup!r} does not match xi(n)*|S_n| = {profile!r} for q={q}, n={n}"
        )
    return sup


def regular_norm(q: int, n: int, shape: str) -> float:
    """Norm of the radius-n averaging operator on the mean-zero tree space.

    shape 'sphere' gives xi(n); shape 'ball' gives the closed form
    c(q,n) * (1 + n*(1 + q**-0.5)) * q**(-n/2), cross-checked against the
    xi-weighted sphere sum to 1e-12 relative.  At q = 1 both shapes
    degenerate to constant 1.
    """
    _require_regularity(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if shape not in ("sphere", "ball"):
        raise ValueError(f"shape must be 'sphere' or 'ball', got {shape!r}")
    if shape == "sphere":
        return harish_chandra(q, n)
    _, ball = word_counts(q, n)
    weighted = sum(
        harish_chandra(q, k) * word_counts(q, k)[0] for k in range(n + 1)
    )
    from_sum = weighted / ball
    if q == 1 or n == 0:
        closed = 1.0
    else:
        closed = c_factor(q, n) * (1.0 + n * (1.0 + q ** -0.5)) * q ** (-n / 2)
    if abs(closed - from_sum) > 1e-12 * max(abs(closed), abs(from_sum)):
        raise ConsistencyError(
            f"ball norm routes disagree for q={q}, n={n}: {closed!r} vs {from_sum!r}"
        )
    return closed


def lps_discrepancy(p: int, n: int, shape: str) -> float:
    """Exact averaging discrepancy for the norm-p rotation generators.

    The free rank is (p+1)/2, so the tree parameter is q = p.
    """
    require_split_prime(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return regular_norm(p, n, shape)
