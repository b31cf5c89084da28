"""Marks the statistical acceptance criteria 5-9 ``slow``: they rerun the shipped
presets end to end. ``pytest -m "not slow"`` runs every other test."""

import numpy as np
import pytest

from rxlearner.datasets import CausalDataset

SLOW_TESTS = tuple(f"test_criterion_{n:02d}_" for n in range(5, 10))


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name.startswith(SLOW_TESTS):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def zero_inflated():
    """Uplift data shaped like conversions: 2000 units, 200 of them treated, 5
    uniform features. Each outcome is exactly 0 with probability 0.7, else
    lognormal(0, 1), doubled under treatment, so the true CATE is 0.3 * e**0.5
    (0.495) everywhere. The MAD of either arm's outcomes is 0."""
    rng = np.random.default_rng(0)
    treatment = rng.permutation(np.repeat([1, 0], [200, 1800]))
    outcome = np.where(rng.random(2000) < 0.7, 0.0, rng.lognormal(0.0, 1.0, 2000))
    return CausalDataset(rng.uniform(size=(2000, 5)), treatment, outcome * (1 + treatment))
