"""Fixtures for every test module."""

import pytest

from qmock import dsl


@pytest.fixture(autouse=True)
def empty_process_memo():
    """Each test starts with an empty process memo (``dsl._store``), so that
    a count of engine calls does not depend on the tests run before it."""
    dsl._store.clear()
