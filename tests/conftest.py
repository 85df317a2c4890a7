"""Shared fixtures."""

import pytest

from opucgems import algmodel


@pytest.fixture
def fresh_exact_caches():
    """Empty premise and part caches before and after the test, so that a
    value computed under a changed kernel is neither served from a cache nor
    left in one for a later test."""
    caches = (algmodel.dd_premise, algmodel.weight_free_part)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()
