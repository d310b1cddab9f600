"""Fixtures shared by the test modules."""

import pytest

import lps.torus


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
