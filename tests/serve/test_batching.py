"""Unit tests of the pure coalescing logic (no event loop involved)."""

import numpy as np
import pytest

from repro.serve.batching import (
    as_request_matrix,
    coalesce,
    split,
    take_admissible,
)


class TestAsRequestMatrix:
    def test_vector_becomes_single_row(self):
        matrix, lengths = as_request_matrix(np.arange(5.0))
        assert matrix.shape == (1, 5)
        assert lengths is None

    def test_matrix_passes_through_as_float64(self):
        scores = np.arange(6, dtype=np.int64).reshape(2, 3)
        matrix, _ = as_request_matrix(scores)
        assert matrix.shape == (2, 3)
        assert matrix.dtype == np.float64

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="1-D score vector or a"):
            as_request_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty request"):
            as_request_matrix(np.zeros((0, 4)))

    def test_rejects_wrong_length_count(self):
        with pytest.raises(ValueError, match="one entry per request row"):
            as_request_matrix(np.zeros((2, 4)), valid_lengths=[3])

    def test_rejects_out_of_range_lengths(self):
        with pytest.raises(ValueError, match="1..seq"):
            as_request_matrix(np.zeros((1, 4)), valid_lengths=[5])
        with pytest.raises(ValueError, match="1..seq"):
            as_request_matrix(np.zeros((1, 4)), valid_lengths=[0])

    @pytest.mark.parametrize("lengths", [[2.7], [True], ["3"]])
    def test_rejects_non_integer_lengths(self, lengths):
        """A float, bool or string length is refused, not cast."""
        with pytest.raises(ValueError, match="must be integers"):
            as_request_matrix(np.zeros((1, 4)), valid_lengths=lengths)


class TestCoalesce:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty admission batch"):
            coalesce([])

    def test_uniform_batch_keeps_lengths_none(self):
        a = as_request_matrix(np.ones((2, 4)))
        b = as_request_matrix(np.zeros((1, 4)))
        batch = coalesce([a, b])
        assert batch.scores.shape == (3, 4)
        assert batch.valid_lengths is None
        assert batch.requests == 2
        np.testing.assert_array_equal(batch.scores[:2], 1.0)
        np.testing.assert_array_equal(batch.scores[2:], 0.0)

    def test_arrival_order_preserved(self):
        first = as_request_matrix(np.full((1, 3), 7.0))
        second = as_request_matrix(np.full((2, 3), 9.0))
        batch = coalesce([first, second])
        assert batch.slices[0].start == 0 and batch.slices[0].rows == 1
        assert batch.slices[1].start == 1 and batch.slices[1].rows == 2
        np.testing.assert_array_equal(batch.scores[0], 7.0)

    def test_ragged_batch_pads_and_combines_lengths(self):
        short = as_request_matrix(np.ones((1, 2)))
        masked = as_request_matrix(np.ones((2, 4)), valid_lengths=[1, 3])
        batch = coalesce([short, masked])
        assert batch.scores.shape == (3, 4)
        # padding columns of the short request hold zeros
        np.testing.assert_array_equal(batch.scores[0, 2:], 0.0)
        # a request with no explicit lengths contributes its full width
        np.testing.assert_array_equal(batch.valid_lengths, [2, 1, 3])


class TestSplit:
    def test_round_trip_crops_to_request_shapes(self):
        a = as_request_matrix(np.arange(4.0).reshape(2, 2))
        b = as_request_matrix(np.arange(3.0)[None, :])
        batch = coalesce([a, b])
        parts = split(batch, batch.scores)
        assert parts[0].shape == (2, 2)
        assert parts[1].shape == (1, 3)
        np.testing.assert_array_equal(parts[0], a[0])
        np.testing.assert_array_equal(parts[1], b[0])

    def test_parts_are_copies(self):
        batch = coalesce([as_request_matrix(np.ones((1, 2)))])
        (part,) = split(batch, batch.scores)
        part[0, 0] = 99.0
        assert batch.scores[0, 0] == 1.0

    def test_shape_mismatch_rejected(self):
        batch = coalesce([as_request_matrix(np.ones((1, 2)))])
        with pytest.raises(ValueError, match="does not match"):
            split(batch, np.ones((2, 2)))


class TestTakeAdmissible:
    def test_none_admits_everything(self):
        assert take_admissible([1, 2, 3], None) == 3

    def test_empty_queue(self):
        assert take_admissible([], 4) == 0

    def test_fifo_prefix_under_cap(self):
        assert take_admissible([2, 2, 2], 4) == 2

    def test_stops_exactly_at_cap(self):
        assert take_admissible([2, 2, 2], 6) == 3
        assert take_admissible([3, 3], 3) == 1

    def test_oversized_first_request_still_admitted(self):
        assert take_admissible([10, 1], 4) == 1

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match="max_batch_rows"):
            take_admissible([1], 0)
