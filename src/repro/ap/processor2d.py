"""Two-dimensional Associative Processor.

The 2D AP (Yantir et al., TVLSI 2018) adds a second set of key/mask/tag
registers operating along the row dimension, so that operations *between
rows* — most importantly the reduction that sums all words of a column —
can be performed without moving data out of the CAM (Section II-B of the
paper).  The SoftmAP dataflow uses this for step 14 (``sum(vapprox)``) and
step 15 (broadcasting the sum back to every row).

:class:`AssociativeProcessor2D` extends the 1D functional simulator with:

* :meth:`reduce_sum` — a logarithmic tree reduction across rows;
* :meth:`broadcast_row` — copying one row's word to all rows.

The functional implementation performs genuine pairwise row additions (so
results are exact and verified against numpy); its cycle accounting uses the
bit-parallel row-operation cost of the 2D AP (one compare/write pair per
column per tree level for the participating row pairs).  The Table II
formulas used for the paper's latency/energy numbers live separately in
:mod:`repro.ap.cost`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ap.fields import Field
from repro.ap.processor import AssociativeProcessor
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["AssociativeProcessor2D"]


class AssociativeProcessor2D(AssociativeProcessor):
    """Functional 2D AP: the 1D AP plus row-wise reduction/broadcast."""

    def reduce_sum(self, field: Field, dest: Field) -> int:
        """Sum ``field`` over all rows into row 0 of ``dest``.

        ``dest`` must be wide enough for the full sum
        (``field.bits + ceil(log2(rows))``).  The reduction is a binary tree:
        at level ``s`` rows ``j`` and ``j + 2**s`` are added pairwise for all
        ``j`` that are multiples of ``2**(s+1)``.  Returns the number of tree
        levels (useful for cross-checking against the ``log2(L/2)`` term of
        Table II).
        """
        return self.reduce_sum_segmented(field, dest, self.rows)

    def broadcast_row(self, field: Field, source_row: int = 0) -> None:
        """Copy ``field`` of ``source_row`` into every row (step 15)."""
        check_non_negative_int(source_row, "source_row")
        if source_row >= self.rows:
            raise IndexError(f"row {source_row} out of range ({self.rows} rows)")
        bits = self.cam.read_bits(field.columns)[source_row]
        # In the 2D AP a broadcast is a column-parallel write per bit value:
        # rows are all tagged and each column is written with the source bit.
        all_rows = np.ones(self.rows, dtype=bool)
        for column, bit in zip(field.columns, bits):
            self.cam.write({column: int(bit)}, tag=all_rows)

    def reduce_and_broadcast(self, field: Field, dest: Field) -> int:
        """Reduce ``field`` into ``dest`` (row 0) and broadcast the total to
        every row of ``dest`` — steps 14 and 15 of the dataflow fused."""
        levels = self.reduce_sum(field, dest)
        self.broadcast_row(dest, source_row=0)
        return levels

    # ------------------------------------------------------------------ #
    # Segmented (batched) reduction and broadcast                          #
    # ------------------------------------------------------------------ #
    def reduce_sum_segmented(
        self, field: Field, dest: Field, segment_length: int
    ) -> int:
        """Sum ``field`` within each contiguous block of ``segment_length``
        rows into the block's first row of ``dest``.

        This is the batched form of :meth:`reduce_sum`: the CAM holds
        several independent softmax vectors stacked block by block (e.g. a
        ``(batch, seq)`` score tensor flattened to ``batch * seq`` rows) and
        one binary reduction tree runs inside every block simultaneously —
        all blocks' row pairs of one tree level are added in the same 2D AP
        row operation.  Returns the number of tree levels.
        """
        self._check_segments(field, dest, segment_length)
        self.copy(field, dest)
        block_starts = np.arange(0, self.rows, segment_length)
        stride = 1
        level = 0
        while stride < segment_length:
            local = np.arange(stride, segment_length, 2 * stride)
            if local.size:
                sources = (block_starts[:, None] + local[None, :]).ravel()
                targets = sources - stride
                self._row_pair_add(dest, targets, sources)
            stride *= 2
            level += 1
        return level

    def broadcast_segments(self, field: Field, segment_length: int) -> None:
        """Copy each block's first-row ``field`` word to the whole block.

        The 2D AP realises this with two column-parallel writes per bit
        column (one pass tags the rows whose block value is 1, the second
        the rows whose block value is 0), which is what the cycle accounting
        charges.
        """
        self._check_segment_rows(segment_length)
        bits = self.cam.read_bits(field.columns)
        heads = np.repeat(np.arange(0, self.rows, segment_length), segment_length)
        self.cam.load_bits(field.columns, bits[heads])
        # Two compare/write pairs per column (tag-by-value is a compare,
        # like every other tagged pass in the model).
        self.cam.stats.compare_cycles += 2 * field.bits
        self.cam.stats.compared_bits += 2 * field.bits * self.rows
        self.cam.stats.write_cycles += 2 * field.bits
        self.cam.stats.written_bits += field.bits * self.rows
        self.cam.stats.row_writes += field.bits * self.rows

    def reduce_and_broadcast_segments(
        self, field: Field, dest: Field, segment_length: int
    ) -> int:
        """Segmented reduction of ``field`` into ``dest`` followed by a
        per-block broadcast of each block's total — the batched fusion of
        steps 14 and 15 of the dataflow.

        On the vectorized engine the two halves execute as one packed-word
        pass (:meth:`~repro.ap.engine.BitPlaneEngine.reduce_and_broadcast_segments`):
        the broadcast overwrites every row of ``dest`` with its block head,
        so computing each block's total directly is state- and cycle-exact
        while skipping the per-level bit-matrix traffic of the tree — the
        fast path wide fused executions rely on.
        """
        self._check_segments(field, dest, segment_length)
        if self._engine is not None and self._engine.supports_segmented_reduce(
            field, dest
        ):
            self.copy(field, dest)
            return self._engine.reduce_and_broadcast_segments(dest, segment_length)
        levels = self.reduce_sum_segmented(field, dest, segment_length)
        self.broadcast_segments(dest, segment_length)
        return levels

    def _check_segment_rows(self, segment_length: int) -> None:
        """Validate that segments tile the CAM rows exactly."""
        check_positive_int(segment_length, "segment_length")
        if self.rows % segment_length != 0:
            raise ValueError(
                f"rows ({self.rows}) must be a multiple of the segment "
                f"length ({segment_length})"
            )

    def _check_segments(self, field: Field, dest: Field, segment_length: int) -> None:
        """Shared validation of the segmented reduce/broadcast geometry."""
        self._check_segment_rows(segment_length)
        levels = (
            max(1, int(np.ceil(np.log2(segment_length))))
            if segment_length > 1
            else 0
        )
        if dest.bits < field.bits + levels:
            raise ValueError(
                f"destination field {dest.name!r} needs at least "
                f"{field.bits + levels} bits for a {segment_length}-row "
                f"segmented reduction"
            )

    # ------------------------------------------------------------------ #
    # Internals                                                            #
    # ------------------------------------------------------------------ #
    def _row_pair_add(
        self, field: Field, targets: np.ndarray, sources: np.ndarray
    ) -> None:
        """Add the ``field`` word of each source row into its target row.

        The 2D AP selects the two rows with the row-dimension registers and
        applies the addition across all bits; every pair of one tree level
        proceeds in parallel.  The accounting charges one compare and one
        write cycle per bit column per level (bit-parallel row operation).
        """
        if len(targets) == 0:
            return
        bits = self.cam.read_bits(field.columns)
        weights = np.int64(1) << np.arange(field.bits, dtype=np.int64)
        values = (bits.astype(np.int64) * weights[None, :]).sum(axis=1)
        values[targets] = values[targets] + values[sources]
        mask = (np.int64(1) << np.int64(field.bits)) - np.int64(1)
        values &= mask
        new_bits = ((values[:, None] >> np.arange(field.bits)[None, :]) & 1).astype(bool)
        self.cam.load_bits(field.columns, new_bits)
        # Cycle accounting for one tree level of the 2D AP.
        self.cam.stats.compare_cycles += field.bits
        self.cam.stats.write_cycles += field.bits
        self.cam.stats.compared_bits += field.bits * 2 * len(targets)
        self.cam.stats.written_bits += field.bits * len(targets)
        self.cam.stats.row_writes += int(len(targets))
