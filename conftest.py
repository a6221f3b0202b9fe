"""Repository-level pytest configuration.

Provides the deterministic ``rng`` seed fixture shared by the randomized
(differential) test suites, so the tier-1 ``pytest -x -q`` run stays
reproducible.
"""

import numpy as np
import pytest

#: Single seed for every randomized suite; change deliberately, never ad hoc.
GLOBAL_TEST_SEED = 0xC0DE5EED


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
