"""Exact integer identities checked on the operator blocks."""

from __future__ import annotations

import numpy as np


def trace_moments(mat) -> tuple[int, int]:
    """tr(A) and tr(A^2) of a square integer matrix, in exact arithmetic."""
    a = np.asarray(mat, dtype=object)
    return int(a.trace()), int((a * a.T).sum())


def is_weighted_symmetric(mat, weights) -> bool:
    """Whether A[i][j] * w[j] == A[j][i] * w[i] for all i, j, exactly.

    For a diagonal pairing with weights 1/w this is self-adjointness of a
    real matrix A.
    """
    a = np.asarray(mat, dtype=object) * np.asarray(weights, dtype=object)[None, :]
    return bool((a == a.T).all())
