"""Fixtures shared across the suite. The brute-force references live in
``oracles.py``."""

from __future__ import annotations

import pytest


@pytest.fixture
def g3():
    from phyloquiver.generators import gen_g3

    return gen_g3()
