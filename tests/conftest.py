import functools

import pytest

from g2schubert import cohomring as c


@functools.lru_cache(maxsize=None)
def _verified(name):
    """A fresh presentation after verify_presentation, and its report."""
    p = c.get_presentation(name)
    return p, c.verify_presentation(p)


@pytest.fixture(scope="session")
def verified():
    """verify_presentation by presentation name, once per test session:
    verifying is the slow part, and several test modules need the reports."""
    return _verified
