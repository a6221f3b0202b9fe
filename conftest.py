"""Repository-level pytest configuration.

Provides the deterministic ``rng`` seed fixture shared by the randomized
(differential) test suites and the ``--runslow`` opt-in for tests marked
``slow``, so the tier-1 ``pytest -x -q`` run stays fast and reproducible.
"""

import numpy as np
import pytest

#: Single seed for every randomized suite; change deliberately, never ad hoc.
GLOBAL_TEST_SEED = 0xC0DE5EED


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked as slow",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def rng():
    """Deterministic numpy Generator for randomized tests."""
    return np.random.default_rng(GLOBAL_TEST_SEED)


@pytest.fixture
def per_prefix_reference():
    """Row-by-row reference for the model's ``(rows, seq)`` softmax_fn
    contract: ``wrap(softmax_vector)`` applies a 1-D softmax to each row's
    valid prefix and leaves zeros beyond it."""

    def wrap(softmax_vector):
        def apply(scores, valid_lengths=None):
            out = np.zeros_like(scores)
            for i, row in enumerate(scores):
                length = row.size if valid_lengths is None else valid_lengths[i]
                out[i, :length] = softmax_vector(row[:length])
            return out

        return apply

    return wrap
