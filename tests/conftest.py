"""Marks the statistical acceptance criteria 5-9 ``slow``: they rerun the shipped
presets end to end. ``pytest -m "not slow"`` runs every other test."""

import pytest

SLOW_TESTS = tuple(f"test_criterion_{n:02d}_" for n in range(5, 10))


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name.startswith(SLOW_TESTS):
            item.add_marker(pytest.mark.slow)
