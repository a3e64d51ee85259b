"""Fixtures shared by the observability tests."""

from __future__ import annotations

import gc

import pytest


@pytest.fixture()
def no_automatic_gc():
    """Collections run only where the test calls ``gc.collect()``.

    An installed tracer books every collector pause as a ``gc`` span, so
    tests that assert exact span paths, counts or scripted-clock self
    times switch automatic collection off around themselves.
    """
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()
