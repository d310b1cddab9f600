"""Fixtures and helpers shared by the test modules."""

import tracemalloc

import pytest

import lps.torus


def traced_peak(fn):
    """fn() and the peak bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def cold_torus_cache():
    """Empty the memoised torus window certificates before and after the test.

    Their key leaves out the closed form and the Lanczos settings, so a test
    that patches either must neither read entries made without the patch nor
    leave its own behind.
    """
    lps.torus.clear_caches()
    yield
    lps.torus.clear_caches()
