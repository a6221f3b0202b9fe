"""Pure request-coalescing logic for the serving layer.

The asyncio server (:mod:`repro.serve.server`) is deliberately thin: all
the batch-shaping decisions live here as pure functions over plain arrays,
so the continuous-batching semantics are unit-testable without an event
loop.

A *request* is one ``(rows, seq)`` score matrix (a 1-D vector counts as a
single row) plus optional per-row ``valid_lengths``.  One admission tick
coalesces several requests into a single fused head-major row space:

* every request's rows are stacked contiguously, in arrival order;
* ragged sequence lengths are padded to the widest request of the batch,
  with each row's true prefix recorded in the combined ``valid_lengths``
  (the masked execution of a prefix is pinned bit-identical to running
  the un-padded row alone — the PR 2 ``clear_rows`` masking contract every
  backend honours);
* when every request shares one sequence length and none carries explicit
  lengths, the combined ``valid_lengths`` stays ``None`` so the coalesced
  call is *exactly* the call each request would have made alone.

:func:`split` inverts the stacking: given the batch's probability matrix
it returns each request's slice, cropped back to the request's own
sequence length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_integer_lengths

__all__ = [
    "CoalescedBatch",
    "RequestSlice",
    "as_request_matrix",
    "coalesce",
    "split",
    "take_admissible",
]


def as_request_matrix(
    scores: np.ndarray, valid_lengths: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Normalise one request into a ``(rows, seq)`` float64 matrix.

    Accepts a 1-D vector (one row) or a 2-D matrix, validating the
    optional per-row ``valid_lengths`` eagerly — a malformed request must
    fail at submission, not poison a whole coalesced batch later.
    """
    matrix = np.asarray(scores, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise ValueError(
            f"a serving request is a 1-D score vector or a (rows, seq) "
            f"matrix, got a {np.asarray(scores).ndim}-D array"
        )
    if matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ValueError(f"empty request of shape {matrix.shape}")
    lengths: Optional[np.ndarray] = None
    if valid_lengths is not None:
        lengths = check_integer_lengths(valid_lengths).reshape(-1)
        if lengths.shape != (matrix.shape[0],):
            raise ValueError(
                f"valid_lengths must hold one entry per request row "
                f"({matrix.shape[0]}), got shape "
                f"{np.asarray(valid_lengths).shape}"
            )
        if np.any(lengths < 1) or np.any(lengths > matrix.shape[1]):
            raise ValueError("valid_lengths must lie in 1..seq for every row")
    return matrix, lengths


@dataclass(frozen=True)
class RequestSlice:
    """Where one request's rows live inside a coalesced batch."""

    start: int
    rows: int
    sequence_length: int


@dataclass(frozen=True)
class CoalescedBatch:
    """One admission tick's fused row space.

    ``scores`` is the stacked ``(rows, max_seq)`` matrix, ``valid_lengths``
    the combined per-row prefix lengths (``None`` when no padding or
    masking is needed), and ``slices`` maps each request back to its rows.
    """

    scores: np.ndarray
    valid_lengths: Optional[np.ndarray]
    slices: Tuple[RequestSlice, ...]

    @property
    def rows(self) -> int:
        return self.scores.shape[0]

    @property
    def sequence_length(self) -> int:
        return self.scores.shape[1]

    @property
    def requests(self) -> int:
        return len(self.slices)


def coalesce(
    requests: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]]
) -> CoalescedBatch:
    """Stack several normalised requests into one fused row space.

    ``requests`` holds ``(matrix, lengths)`` pairs as returned by
    :func:`as_request_matrix`, in admission (arrival) order.
    """
    if not requests:
        raise ValueError("cannot coalesce an empty admission batch")
    max_seq = max(matrix.shape[1] for matrix, _ in requests)
    total_rows = sum(matrix.shape[0] for matrix, _ in requests)
    uniform = all(
        matrix.shape[1] == max_seq and lengths is None
        for matrix, lengths in requests
    )
    scores = np.zeros((total_rows, max_seq), dtype=np.float64)
    combined: Optional[np.ndarray] = (
        None if uniform else np.empty(total_rows, dtype=np.int64)
    )
    slices: List[RequestSlice] = []
    start = 0
    for matrix, lengths in requests:
        rows, seq = matrix.shape
        scores[start : start + rows, :seq] = matrix
        if combined is not None:
            combined[start : start + rows] = seq if lengths is None else lengths
        slices.append(RequestSlice(start=start, rows=rows, sequence_length=seq))
        start += rows
    return CoalescedBatch(
        scores=scores, valid_lengths=combined, slices=tuple(slices)
    )


def split(batch: CoalescedBatch, probabilities: np.ndarray) -> List[np.ndarray]:
    """Slice a batch-shaped probability matrix back into per-request arrays.

    Each request gets its own ``(rows, seq)`` crop — rows from its slice,
    columns up to its own sequence length (padding columns hold exact
    zeros under the masked execution contract and are dropped).
    """
    probabilities = np.asarray(probabilities)
    if probabilities.shape != batch.scores.shape:
        raise ValueError(
            f"probabilities shape {probabilities.shape} does not match the "
            f"coalesced batch shape {batch.scores.shape}"
        )
    return [
        probabilities[
            piece.start : piece.start + piece.rows, : piece.sequence_length
        ].copy()
        for piece in batch.slices
    ]


def take_admissible(
    row_counts: Sequence[int], max_batch_rows: Optional[int]
) -> int:
    """How many leading queued requests one admission tick may take.

    FIFO, whole requests only: requests are admitted in order until the
    next one would push the tick past ``max_batch_rows``.  The first
    request is always admitted (an oversized request still executes — as
    a tick of its own, where the planner's ``pass_row_budget`` tiling
    takes over).  ``None`` admits everything queued.
    """
    if not row_counts:
        return 0
    if max_batch_rows is None:
        return len(row_counts)
    if max_batch_rows < 1:
        raise ValueError(f"max_batch_rows must be >= 1, got {max_batch_rows}")
    taken, rows = 0, 0
    for count in row_counts:
        if taken > 0 and rows + count > max_batch_rows:
            break
        taken += 1
        rows += count
        if rows >= max_batch_rows:
            break
    return taken
