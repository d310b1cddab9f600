"""Closed forms for averaging-operator norms on the (q+1)-regular tree.

Everything here is elementary arithmetic: the spherical decay profile
xi(n) = (1 + n*(q-1)/(q+1)) * q**(-n/2), the ball correction factor, the
tree polynomials attached to distance-n averaging, and their sup over the
tempered spectral interval [-2*sqrt(q), 2*sqrt(q)].  Independent routes
to the same quantity are compared, exactly where they are integers and at
tight tolerances where they are floats; a float that is one rational is
taken from it by a single rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .quaternions import require_split_prime
from .words import ConsistencyError, word_counts


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

    That is the rational (q - 1) q**n / ((q + 1) q**n - 2), returned
    correctly rounded.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return float(Fraction((q - 1) * q ** n, (q + 1) * q ** n - 2))


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


def _chebyshev(first: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Coefficients of C_n for C_{k+1} = 2X C_k - C_{k-1}, C_0 = 1, C_1 = first.

    first = X gives the Chebyshev T_n, first = 2X gives U_n.
    """
    prev, cur = (1,), first
    for _ in range(n):
        prev, cur = cur, tuple(2 * a - b for a, b in zip((0,) + cur, prev + (0, 0)))
    return prev


def hecke_sup(q: int, n: int) -> float:
    """Sup of |P_n| over [-2*sqrt(q), 2*sqrt(q)], by an exact Chebyshev identity.

    For n >= 1, P_n(2*sqrt(q)*x) = q**(n/2) * ((1 - 1/q) U_n(x) + (2/q) T_n(x))
    (Davidoff-Sarnak-Valette, section 1.4).  The identity is checked on the
    integer coefficients: both sides have the parity of n, so q 2**k times
    the coefficient c_k of P_n must equal ((q - 1) u_k + 2 t_k) q**((n-k)//2).
    A mismatch raises ConsistencyError, so this doubles as a test of the
    tree recursion.  Since |U_n| <= n + 1 and |T_n| <= 1 on [-1, 1], with
    equality at x = 1, the sup is the edge value
    |P_n(2*sqrt(q))| = q**(n/2 - 1) * ((q - 1) U_n(1) + 2 T_n(1)), where
    U_n(1) and T_n(1) are the sums of the verified coefficients.  Taken
    this way it has one rounding, where Horner at 2*sqrt(q) cancels badly
    from n = 24 on.  It equals the count-weighted profile
    xi(n) * |S_n| = q**(n/2 - 1) * ((q + 1) + n (q - 1)) exactly when the
    integer brackets agree, and ConsistencyError is raised when they do not.
    """
    _require_regularity(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1.0
    t, u = _chebyshev((0, 1), n), _chebyshev((0, 2), n)
    coefficients = hecke_polynomial(q, n).coefficients
    if any(
        ((q - 1) * u_k + 2 * t_k) * q ** ((n - k) // 2) != q * 2 ** k * c_k
        for k, (t_k, u_k, c_k) in enumerate(zip(t, u, coefficients, strict=True))
    ):
        raise ConsistencyError(f"P_{n} for q={q} breaks the Chebyshev identity")
    edge = (q - 1) * sum(u) + 2 * sum(t)
    if edge != (q + 1) + n * (q - 1):
        raise ConsistencyError(
            f"sup {edge} * q**(n/2 - 1) does not match xi(n)*|S_n| = "
            f"{(q + 1) + n * (q - 1)} * q**(n/2 - 1) for q={q}, n={n}"
        )
    return edge * q ** (n / 2 - 1)


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
