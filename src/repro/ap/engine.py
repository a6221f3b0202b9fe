"""Vectorized bit-plane execution engine for the Associative Processor.

The reference simulator (:mod:`repro.ap.processor`) executes every operation
the way the hardware does: a Python loop over bit positions sweeps the
compare/write passes of the operation's LUT over the CAM.  That is the right
model for validating the paper's semantics, but the per-bit Python loop makes
the functional path the dominant cost of every experiment that actually runs
softmax vectors through the AP.

:class:`BitPlaneEngine` is the fast path.  It re-expresses the full AP
instruction set — compare/write LUT sweeps, in-place add/subtract, shift-add
multiplication, predicated barrel shifts and restoring division — as whole
row-batch numpy operations on *packed words*: each field's bit columns are
gathered once into one ``uint64`` per row, the operation is computed with a
handful of word-level numpy expressions (or a short loop over multiplier /
quotient bits, never over ``rows``), and the result is scattered back into
the CAM's bit matrix.  The CAM cell matrix therefore remains the single
source of truth, so fields that alias each other through
:meth:`~repro.ap.processor.AssociativeProcessor.shifted_view` /
:meth:`~repro.ap.fields.Field.slice` keep working unchanged.

Bit-exactness
-------------
The engine reproduces the reference engine *bit for bit*, including the
corner cases that fall out of the LUT-pass encoding rather than textbook
arithmetic:

* **zero-column collisions** — when a logic LUT reads two operand roles past
  both operand widths, both roles bind to the constant-zero service column
  and the compare key collapses dict-style (last role wins).  For example
  ``xor`` with a result wider than both operands sets the excess result bits
  to 1, because the ``{"a": 1, "b": 0}`` pass collapses to a key that
  matches every row.  The engine simulates the collapsed keys per width
  regime and reproduces the behaviour exactly.
* **service-column state** — the carry/borrow column holds the final
  carry-out (add), borrow (subtract, division) exactly as the reference
  leaves it, and the division flag column latches the final borrow.
* **modulo semantics** — additions wrap at the destination width, the
  division remainder register wraps at its own width (visible when dividing
  by zero), and variable shifts honour ``max_shift_bits`` by ignoring the
  higher shift bits, exactly like the reference barrel shifter.

Programs whose operands alias in ways the word-level rewrite cannot express
(overlapping operand/destination columns, predicate columns inside an
operand field) are detected by the ``supports_*`` guards; the processor then
falls back to the reference sweep, so *every* program produces reference
results on either engine.

Cycle accounting
----------------
``compare_cycles``, ``write_cycles`` and ``compared_bits`` are charged
exactly as the reference engine charges them (the controller issues the
same cycles regardless of tag outcomes, so these are data-independent).
``written_bits`` and ``row_writes`` of LUT-pass writes depend on how many
rows match each pass; the engine charges the all-rows upper bound for those
two counters instead of replaying every pass (the reference engine remains
the ground truth for exact data-dependent write activity).  Latch writes
whose tag popcount is already known (division flag/quotient writes, operand
loads, field clears) are charged exactly.
"""

from __future__ import annotations

import difflib
import itertools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.ap.fields import Field
from repro.ap.lut import Lut

__all__ = [
    "BitPlaneEngine",
    "ENGINES",
    "PROCESSOR_ENGINES",
    "UnknownEngineError",
    "canonical_engine_name",
]


#: Every functional AP engine, in presentation order:
#:
#: * ``"reference"`` — bit-serial LUT sweeps on the functional CAM, the
#:   paper-faithful ground truth;
#: * ``"vectorized"`` — the packed-word :class:`BitPlaneEngine`: whole
#:   row-batches per numpy operation, bit-identical to the reference;
#: * ``"compiled"`` — the buffer-planned scratch-arena executor
#:   (:class:`repro.ap.compiled.CompiledEngine`), bit-identical to both,
#:   which runs whole lowered plans only.
#:
#: Which engines run a lowered plan through an executor is decided by
#: :meth:`repro.mapping.plan.ExecutionPlan.plan_executor`.
ENGINES: Tuple[str, ...] = ("reference", "vectorized", "compiled")

#: Engines that can back per-operation ``AssociativeProcessor`` sweeps.
PROCESSOR_ENGINES: Tuple[str, ...] = ("reference", "vectorized")


class UnknownEngineError(ValueError):
    """An unknown functional-engine name, with a "did you mean" suggestion.

    The same eager-validation pattern as
    :class:`repro.runtime.backend.UnknownBackendError`: engine strings are
    checked where they enter (plan/backend/processor construction), so a
    typo fails immediately with a suggestion instead of deep inside an
    execution pass.
    """

    def __init__(self, name: str, valid: Sequence[str] = ENGINES) -> None:
        valid = tuple(valid)
        if name in ENGINES:
            # A real engine outside ``valid``: the plan-only engine asked
            # for where a per-operation one is required.
            close = []
            message = (
                f"functional AP engine {name!r} has no per-operation mode "
                f"(it only runs compiled plans); per-operation engines: "
                f"{', '.join(valid)}"
            )
        else:
            close = difflib.get_close_matches(str(name), valid, n=1, cutoff=0.5)
            hint = f" — did you mean {close[0]!r}?" if close else ""
            message = (
                f"unknown functional AP engine {name!r}{hint} "
                f"(valid engines: {', '.join(valid)})"
            )
        super().__init__(message)
        self.name = name
        self.suggestion = close[0] if close else None


def canonical_engine_name(name: str, *, processor: bool = False) -> str:
    """Validate a functional-engine name eagerly against :data:`ENGINES`.

    This is the single authority for engine strings; construction-time
    callers (mappings, plans, backends, the AP itself) resolve through here
    so an invalid name raises :class:`UnknownEngineError` before any
    hardware state is built.  ``processor=True`` restricts the name to
    :data:`PROCESSOR_ENGINES`, rejecting the plan-only ``"compiled"``
    engine with a message that says it has no per-operation mode.
    """
    if not isinstance(name, str):
        raise TypeError(f"engine name must be a str, got {type(name).__name__}")
    valid = PROCESSOR_ENGINES if processor else ENGINES
    if name not in valid:
        raise UnknownEngineError(name, valid)
    return name


#: Widest field the packed-word representation can hold.  One bit of headroom
#: is kept below 64 so shifted sums/carries never wrap the host word.
MAX_FIELD_BITS = 63

_ONE = np.uint64(1)
_ZERO = np.uint64(0)
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mask(bits: int) -> np.uint64:
    """All-ones mask covering the low ``bits`` bits."""
    if bits <= 0:
        return _ZERO
    if bits >= 64:
        return _ALL_ONES
    return np.uint64((1 << bits) - 1)


class BitPlaneEngine:
    """Word-parallel executor bound to one functional AP.

    Parameters
    ----------
    processor:
        The owning :class:`~repro.ap.processor.AssociativeProcessor`.  The
        engine reads and writes the processor's CAM cell matrix and charges
        cycles to the processor's :class:`~repro.ap.cam.CamStats`.
    """

    def __init__(self, processor) -> None:
        self.ap = processor

    # ------------------------------------------------------------------ #
    # Packed-word access                                                   #
    # ------------------------------------------------------------------ #
    @property
    def _cells(self) -> np.ndarray:
        return self.ap.cam.cells

    @property
    def _stats(self):
        return self.ap.cam.stats

    @property
    def _rows(self) -> int:
        return self.ap.rows

    def pack(self, field: Field) -> np.ndarray:
        """Gather ``field``'s bit columns into one ``uint64`` word per row."""
        bits = self._cells[:, list(field.columns)]
        weights = _ONE << np.arange(field.bits, dtype=np.uint64)
        return (bits * weights).sum(axis=1, dtype=np.uint64)

    def store(self, field: Field, values: np.ndarray) -> None:
        """Scatter one word per row back into ``field``'s bit columns."""
        positions = np.arange(field.bits, dtype=np.uint64)
        bits = ((values[:, None] >> positions[None, :]) & _ONE).astype(bool)
        self._cells[:, list(field.columns)] = bits

    # ------------------------------------------------------------------ #
    # Guards                                                               #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _fits(*fields: Field) -> bool:
        return all(f.bits <= MAX_FIELD_BITS for f in fields)

    @staticmethod
    def _disjoint(a: Field, b: Field) -> bool:
        return not (set(a.columns) & set(b.columns))

    def _condition_ok(
        self, condition: Optional[Tuple[int, int]], *read_or_written: Field
    ) -> bool:
        """A predicate column is safe when it is outside every operand and
        result column (no compare-key collision, no mid-operation flips) and
        is not a column the LUT passes bind implicitly (zero/state)."""
        if condition is None:
            return True
        column = condition[0]
        blocked = {self.ap._zero_column, self.ap._state_column}
        for field in read_or_written:
            blocked.update(field.columns)
        return column not in blocked

    def _selection(
        self,
        condition: Optional[Tuple[int, int]],
        row_mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """Boolean row selector equivalent to the per-pass compare predicate
        (valid because the guards forbid writes to the predicate column)."""
        selected = np.ones(self._rows, dtype=bool)
        if condition is not None:
            column, bit = condition
            selected &= self._cells[:, column] == bool(bit)
        if row_mask is not None:
            selected &= np.asarray(row_mask, dtype=bool)
        return selected

    # ------------------------------------------------------------------ #
    # Accounting helpers                                                   #
    # ------------------------------------------------------------------ #
    def _charge_passes(
        self,
        bit_positions: int,
        searched_columns_per_pass: Sequence[int],
        written_columns_per_pass: Sequence[int],
    ) -> None:
        """Charge ``bit_positions`` sweeps of a pass sequence.

        ``searched_columns_per_pass`` is the number of *distinct* key columns
        of each pass (the condition column included by the caller);
        ``written_columns_per_pass`` the number of written columns.
        ``written_bits``/``row_writes`` are the all-rows upper bound.
        """
        n = self._rows
        passes = len(searched_columns_per_pass)
        self._stats.compare_cycles += bit_positions * passes
        self._stats.write_cycles += bit_positions * passes
        self._stats.compared_bits += bit_positions * n * int(
            sum(searched_columns_per_pass)
        )
        self._stats.written_bits += bit_positions * n * int(
            sum(written_columns_per_pass)
        )
        self._stats.row_writes += bit_positions * n * passes

    def _charge_state_clear(self) -> None:
        """Mirror of the reference ``_clear_state`` (one all-rows write)."""
        n = self._rows
        self._stats.write_cycles += 1
        self._stats.written_bits += n
        self._stats.row_writes += n

    # ------------------------------------------------------------------ #
    # Logic LUT sweeps                                                     #
    # ------------------------------------------------------------------ #
    def supports_logic(
        self,
        lut: Lut,
        a: Field,
        r: Field,
        b: Optional[Field],
        condition: Optional[Tuple[int, int]],
    ) -> bool:
        """Whether an out-of-place logic sweep can run on the fast path."""
        fields = [a, r] + ([b] if b is not None else [])
        if not self._fits(*fields):
            return False
        if not self._disjoint(a, r):
            return False
        if b is not None and not self._disjoint(b, r):
            return False
        # Aliased operands collapse the compare key onto shared columns in
        # the reference; the word-level rewrite cannot express that.
        if b is not None and not self._disjoint(a, b):
            return False
        allowed_roles = {"a"} | ({"b"} if b is not None else set())
        for lut_pass in lut.passes:
            if not set(lut_pass.search) <= allowed_roles:
                return False
            if set(lut_pass.write) != {"r"}:
                return False
        return self._condition_ok(condition, *fields)

    def logic(
        self,
        lut: Lut,
        a: Field,
        r: Field,
        b: Optional[Field] = None,
        condition: Optional[Tuple[int, int]] = None,
        row_mask: Optional[np.ndarray] = None,
    ) -> None:
        """``r <- lut(a[, b])`` — clears ``r`` then applies the sweep.

        Bit positions are grouped into *regimes* by which operand roles are
        still inside their field widths; within one regime every pass binds
        to the same physical columns, so its collapsed compare key (the
        dict-style last-role-wins collapse of the reference) is constant and
        the result bit is a pure function of the live operand bits.
        """
        self.ap.clear_field(r)

        cuts = {0, r.bits, min(a.bits, r.bits)}
        if b is not None:
            cuts.add(min(b.bits, r.bits))
        edges = sorted(cuts)
        selected = self._selection(condition, row_mask)
        a_val = self.pack(a)
        b_val = self.pack(b) if b is not None else None
        extra_key = 1 if condition is not None else 0

        result = np.zeros(self._rows, dtype=np.uint64)
        searched_per_pass = [0.0 for _ in lut.passes]

        for lo, hi in zip(edges, edges[1:]):
            if hi <= lo:
                continue
            live = []
            if lo < a.bits:
                live.append("a")
            if b is not None and lo < b.bits:
                live.append("b")
            segment_mask = _mask(hi) & ~_mask(lo)
            segment_bits = hi - lo
            for pass_index, lut_pass in enumerate(lut.passes):
                # Collapse the key exactly like the reference builds it: one
                # dict entry per physical column, later roles overwriting.
                key: Dict[str, int] = {}
                for role, bit in lut_pass.search.items():
                    key[role if role in live else "__zero__"] = bit
                searched_per_pass[pass_index] += (
                    (len(key) + extra_key) * segment_bits
                )
            for combo in itertools.product((0, 1), repeat=len(live)):
                bound = dict(zip(live, combo))
                r_bit = 0
                for lut_pass in lut.passes:
                    key = {}
                    for role, bit in lut_pass.search.items():
                        key[role if role in live else "__zero__"] = bit
                    matched = all(
                        (bound[col] == bit) if col in bound else (bit == 0)
                        for col, bit in key.items()
                    )
                    if matched:
                        r_bit = lut_pass.write["r"]
                if not r_bit:
                    continue
                term = np.full(self._rows, _ALL_ONES, dtype=np.uint64)
                for role, bit in bound.items():
                    operand = a_val if role == "a" else b_val
                    term &= operand if bit else ~operand
                result |= term & segment_mask

        result = np.where(selected, result & _mask(r.bits), _ZERO)
        self.store(r, result)

        # Accounting: cycles per pass are exact; compared_bits uses the
        # collapsed per-regime key sizes accumulated above.
        n = self._rows
        passes = len(lut.passes)
        self._stats.compare_cycles += r.bits * passes
        self._stats.write_cycles += r.bits * passes
        self._stats.compared_bits += n * int(sum(searched_per_pass))
        self._stats.written_bits += n * r.bits * sum(
            len(p.write) for p in lut.passes
        )
        self._stats.row_writes += n * r.bits * passes

    # ------------------------------------------------------------------ #
    # Arithmetic                                                           #
    # ------------------------------------------------------------------ #
    def supports_add(
        self,
        a: Field,
        b: Field,
        condition: Optional[Tuple[int, int]],
        width: Optional[int],
    ) -> bool:
        """Whether an in-place add/subtract can run on the fast path."""
        if not self._fits(a, b):
            return False
        if not self._disjoint(a, b):
            return False
        if width is not None and width < 1:
            return False
        return self._condition_ok(condition, a, b)

    def add(
        self,
        a: Field,
        b: Field,
        condition: Optional[Tuple[int, int]] = None,
        row_mask: Optional[np.ndarray] = None,
        width: Optional[int] = None,
    ) -> None:
        """In-place ``b <- a + b`` modulo ``2**width`` on selected rows."""
        bits = b.bits if width is None else width
        selected = self._selection(condition, row_mask)
        a_low = self.pack(a) & _mask(bits)
        b_val = self.pack(b)
        total = (b_val & _mask(bits)) + a_low
        new_b = (b_val & ~_mask(bits)) | (total & _mask(bits))
        carry = (total >> np.uint64(bits)) & _ONE
        self.store(b, np.where(selected, new_b, b_val))
        # The carry/borrow service column ends up holding the carry-out of
        # the selected rows (it is cleared first, and no pass fires in the
        # unselected rows).
        self._cells[:, self.ap._state_column] = np.where(
            selected, carry.astype(bool), False
        )
        self._charge_state_clear()
        extra = 1 if condition is not None else 0
        self._charge_passes(bits, [3 + extra] * 4, [2, 1, 2, 2])

    def subtract(
        self,
        a: Field,
        b: Field,
        condition: Optional[Tuple[int, int]] = None,
        row_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """In-place ``a <- a - b`` modulo ``2**a.bits``; returns the borrow."""
        bits = a.bits
        selected = self._selection(condition, row_mask)
        a_val = self.pack(a)
        b_low = self.pack(b) & _mask(bits)
        borrow = selected & (a_val < b_low)
        diff = (a_val - b_low) & _mask(bits)
        self.store(a, np.where(selected, diff, a_val))
        self._cells[:, self.ap._state_column] = borrow
        self._charge_state_clear()
        extra = 1 if condition is not None else 0
        self._charge_passes(bits, [3 + extra] * 4, [2, 1, 2, 1])
        return borrow.copy()

    def supports_multiply(self, a: Field, b: Field, r: Field) -> bool:
        """Whether a shift-add multiplication can run on the fast path.

        Operand/multiplier disjointness is already enforced by the
        processor; the engine additionally needs the result column clear of
        both operands so the word-level rewrite is faithful.
        """
        return (
            self._fits(a, b, r)
            and self._disjoint(a, r)
            and self._disjoint(b, r)
        )

    def multiply(self, a: Field, b: Field, r: Field) -> None:
        """Shift-add ``r <- a * b`` truncated to ``r.bits``.

        The loop runs over multiplier bits only (a handful of iterations),
        each one a word-parallel conditional add at offset ``j`` — the
        packed-word equivalent of folding the predicate into the compare
        key.  The final state column matches the carry-out of the last
        partial addition, as the reference leaves it.
        """
        self.ap.clear_field(r)
        a_val = self.pack(a)
        b_val = self.pack(b)
        r_val = np.zeros(self._rows, dtype=np.uint64)
        state = np.zeros(self._rows, dtype=bool)
        for j in range(b.bits):
            width_j = r.bits - j
            self._charge_state_clear()
            if width_j <= 0:
                state = np.zeros(self._rows, dtype=bool)
                continue
            predicate = ((b_val >> np.uint64(j)) & _ONE).astype(bool)
            a_used = a_val & _mask(width_j)
            partial = (r_val >> np.uint64(j)) + a_used
            carry = ((partial >> np.uint64(width_j)) & _ONE).astype(bool)
            updated = (r_val & _mask(j)) | (
                (partial & _mask(width_j)) << np.uint64(j)
            )
            r_val = np.where(predicate, updated, r_val)
            state = np.where(predicate, carry, False)
            self._charge_passes(width_j, [4] * 4, [2, 1, 2, 2])
        self.store(r, r_val)
        self._cells[:, self.ap._state_column] = state

    # ------------------------------------------------------------------ #
    # Shifts                                                               #
    # ------------------------------------------------------------------ #
    def supports_shift(self, src: Field, shift: Field, dst: Field) -> bool:
        """Whether a variable right shift can run on the fast path."""
        return (
            self._fits(src, shift, dst)
            and self._disjoint(src, dst)
            and self._disjoint(shift, dst)
        )

    def shift_right_variable(
        self, src: Field, shift: Field, dst: Field, stages: int
    ) -> None:
        """Barrel shifter ``dst <- src >> shift`` using ``stages`` stages.

        Only the low ``stages`` bits of the shift amount participate,
        exactly like the reference (higher shift bits are ignored).
        """
        # Initial copy: reference does clear + single-pass sweep.
        self.ap.clear_field(dst)
        current = self.pack(src) & _mask(dst.bits)
        self._charge_passes(dst.bits, [1], [1])
        shift_val = self.pack(shift)
        for k in range(stages):
            offset = 1 << k
            predicate = ((shift_val >> np.uint64(k)) & _ONE).astype(bool)
            if offset >= 64:
                shifted = np.zeros(self._rows, dtype=np.uint64)
            else:
                shifted = current >> np.uint64(offset)
            current = np.where(predicate, shifted, current)
            # Conditional copy: two passes (write-1 / write-0), each with a
            # one-column search plus the predicate column.
            self._charge_passes(dst.bits, [2, 2], [1, 1])
        self.store(dst, current)

    # ------------------------------------------------------------------ #
    # Division                                                             #
    # ------------------------------------------------------------------ #
    def supports_divide(
        self,
        dividend: Field,
        divisor: Field,
        quotient: Field,
        remainder: Field,
        fraction_bits: int,
    ) -> bool:
        """Whether a restoring division can run on the fast path."""
        fields = (dividend, divisor, quotient, remainder)
        if not self._fits(*fields):
            return False
        if dividend.bits + fraction_bits > MAX_FIELD_BITS:
            return False
        for i, first in enumerate(fields):
            for second in fields[i + 1 :]:
                if not self._disjoint(first, second):
                    return False
        return True

    def divide(
        self,
        dividend: Field,
        divisor: Field,
        quotient: Field,
        remainder: Field,
        fraction_bits: int,
    ) -> None:
        """Restoring division, word-parallel over rows.

        The quotient/remainder recurrence is replayed per output bit (a few
        dozen iterations of numpy expressions), which reproduces the
        reference exactly — including the remainder register wrapping at its
        own width when the divisor is zero, in which case the quotient
        saturates to all ones.
        """
        self.ap.clear_field(quotient)
        self.ap.clear_field(remainder)
        n = self._rows
        rem_bits = remainder.bits
        rem_mask = _mask(rem_bits)
        total_bits = dividend.bits + fraction_bits
        dividend_val = self.pack(dividend)
        divisor_low = self.pack(divisor) & rem_mask
        rem = np.zeros(n, dtype=np.uint64)
        q_val = np.zeros(n, dtype=np.uint64)
        borrow = np.zeros(n, dtype=bool)
        for j in reversed(range(total_bits)):
            if j >= fraction_bits:
                bit = (dividend_val >> np.uint64(j - fraction_bits)) & _ONE
            else:
                bit = _ZERO
            rem = ((rem << _ONE) | bit) & rem_mask
            borrow = rem < divisor_low
            diff = (rem - divisor_low) & rem_mask
            rem = np.where(borrow, rem, diff)
            q_val |= np.where(borrow, _ZERO, _ONE) << np.uint64(j)

            # Accounting per output bit, mirroring the reference sequence:
            # remainder shift + bring-down (single-column full copies) ...
            self._charge_passes(rem_bits - 1, [1, 1], [1, 1])
            self._charge_passes(1, [1, 1], [1, 1])
            # ... subtract, flag latch, conditional restore add ...
            self._charge_state_clear()
            self._charge_passes(rem_bits, [3] * 4, [2, 1, 2, 1])
            self._stats.write_cycles += 2  # flag latch: borrow + ~borrow
            self._stats.written_bits += n
            self._stats.row_writes += n
            self._charge_state_clear()
            self._charge_passes(rem_bits, [4] * 4, [2, 1, 2, 2])
            # ... quotient-bit compare/write (exact popcount known).
            ones = int(np.count_nonzero(~borrow))
            self._stats.compare_cycles += 1
            self._stats.compared_bits += n
            self._stats.write_cycles += 1
            self._stats.written_bits += ones
            self._stats.row_writes += ones

        self.store(quotient, q_val)
        self.store(remainder, rem)
        self._cells[:, self.ap._flag_column] = borrow
        self._cells[:, self.ap._state_column] = borrow

    # ------------------------------------------------------------------ #
    # Wide segmented reduction + broadcast                                 #
    # ------------------------------------------------------------------ #
    def supports_segmented_reduce(self, field: Field, dest: Field) -> bool:
        """Whether the fused segmented reduce+broadcast can run packed."""
        return self._fits(field, dest) and self._disjoint(field, dest)

    def reduce_and_broadcast_segments(self, dest: Field, segment_length: int) -> int:
        """Fused per-segment reduction + broadcast over ``dest``.

        ``dest`` must already hold a copy of the reduced operand (the caller
        issues the copy, exactly as the reference tree does).  Instead of
        replaying every binary-tree level as a pairwise row addition over
        the CAM bit matrix, the packed words of ``dest`` are summed per
        segment in one numpy reduction and each segment's total is written
        back to the whole segment — the state the reference leaves after
        its tree + broadcast, because the broadcast overwrites every row of
        ``dest`` with its segment head.  The cycle counters are charged
        level by level, identical to the pairwise-tree accounting, so both
        engines stay cycle-exact.  Returns the number of tree levels.
        """
        rows = self._rows
        values = self.pack(dest)
        segments = rows // segment_length
        totals = values.reshape(segments, segment_length).sum(
            axis=1, dtype=np.uint64
        ) & _mask(dest.bits)
        stride = 1
        level = 0
        while stride < segment_length:
            pairs_per_block = len(range(stride, segment_length, 2 * stride))
            if pairs_per_block:
                targets = segments * pairs_per_block
                self._stats.compare_cycles += dest.bits
                self._stats.write_cycles += dest.bits
                self._stats.compared_bits += dest.bits * 2 * targets
                self._stats.written_bits += dest.bits * targets
                self._stats.row_writes += targets
            stride *= 2
            level += 1
        self.store(dest, np.repeat(totals, segment_length))
        # Broadcast accounting: two tagged compare/write pairs per column,
        # as charged by AssociativeProcessor2D.broadcast_segments.
        self._stats.compare_cycles += 2 * dest.bits
        self._stats.compared_bits += 2 * dest.bits * rows
        self._stats.write_cycles += 2 * dest.bits
        self._stats.written_bits += dest.bits * rows
        self._stats.row_writes += dest.bits * rows
        return level
