"""The ``"compiled"`` engine: buffer-planned, in-place plan execution.

:class:`~repro.mapping.plan.ExecutionPlan` lowers the Fig. 5 dataflow once
per shape, but the ``"vectorized"`` executor (the plan's packed-path
interpreter) still walks the lowered program op by op, allocating fresh
numpy temporaries for every field of every instruction on every pass.  The
dataflow is *fixed* per (precision, sequence, width) shape, so all of that
can be resolved at compile time.  :class:`CompiledEngine` is that last
lowering level:

* **buffer-planned scratch arena** — the plan's buffer-liveness pass
  (:func:`repro.mapping.plan.plan_buffers`) assigns every vector field a
  slot in a preallocated ``uint64`` arena; fields with disjoint live ranges
  share storage (the 12 vector fields of the softmax program fit 4 slots),
  scalar constants (``mu``/``vln2``/``vc``) are folded into the consuming
  instructions, and dead scratch (the division remainder) is never
  materialised.
* **ragged segments** — ``run(z, starts, lengths)`` takes the valid words
  of a tile's vectors concatenated, vector ``i`` the ``lengths[i]`` words
  from ``starts[i]``; no padding word reaches the engine, so the
  program's ``mask_padding`` compiles to nothing, the segmented sum is
  ``np.add.reduceat`` and its broadcast repeats each total by its
  segment's length.
* **in-place packed ops** — every instruction compiles to a closure of
  ``out=``-style numpy calls against the arena slots; a steady-state call
  allocates nothing but the per-segment reduction totals, their broadcast
  (one ``uint64`` word per valid word, copied into the ``sum`` slot) and
  the final float result.
* **fused shift/mask sequences** — adjacent ``write_const`` + in-place
  arithmetic pairs collapse into one reverse-op against the baked constant,
  ``copy``'s shift+truncate is a single masked shift, and the barrel
  shifter's ``stages`` predicated selects compose to one variable shift by
  the masked amount (``cur >> (q & (2**stages - 1))``) in place of the
  interpreter's per-stage ``np.where``.
* **reusable arena pool** — each plan's engine keeps one pool; arenas are
  provisioned in powers of two and checked out under a lock, so concurrent
  ``ExecutionPlan.execute`` callers each borrow their own arena while a
  single-threaded caller reuses one allocation across calls.
  ``ExecutionPlan.execute`` feeds the engine cache-sized tiles of valid
  words, so an arena holds at most one tile, whatever the size of the
  call.

Bit-exactness
-------------
Every closure reproduces the corresponding packed-interpreter op with the
same ``uint64`` primitives — truncating multiplies, wrapping subtracts, the
barrel shifter's composed shift amount, and restoring division's
divisor-zero saturation — so the result is bit-identical to
``"vectorized"`` (and hence to the bit-serial ``"reference"`` sweep) by
construction; the parity suites in ``tests/ap/test_compiled.py`` and
``tests/mapping/test_plan.py`` pin it.
Analytical cycle accounting is untouched: the plan's Table II step costs
describe the modeled hardware, not the simulator's execution strategy.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.reliability import faults

__all__ = ["CompiledEngine"]

#: Number of uint64 temp rows the compiled closures need beyond the
#: buffer plan's field slots (wide-op and shift-amount scratch).
TEMP_SLOTS = 1

#: Arenas are provisioned in powers of two from this floor, so calls of
#: varying row counts on one plan reuse a pooled allocation once it fits.
#: The pool belongs to one plan, that is one sequence length: a decode
#: sweep over lengths 1..T allocates one arena per length.
_MIN_CAPACITY = 1024


def _mask64(bits: int) -> np.uint64:
    """All-ones mask covering the low ``bits`` bits (``bits <= 64``)."""
    return np.uint64((1 << bits) - 1)


class _Arena:
    """One preallocated scratch buffer: uint64 slot rows + a bool row."""

    __slots__ = ("buf", "bools", "capacity")

    def __init__(self, slot_rows: int, capacity: int) -> None:
        self.buf = np.empty((slot_rows, capacity), dtype=np.uint64)
        self.bools = np.empty(capacity, dtype=bool)
        self.capacity = capacity

    @property
    def nbytes(self) -> int:
        return self.buf.nbytes + self.bools.nbytes


class CompiledEngine:
    """Executes one plan's buffer-planned program against a scratch arena.

    Instances are built by ``ExecutionPlan.plan_executor("compiled")`` —
    one per plan, holding the compiled closures and the arena pool.  ``run``
    is thread-safe: concurrent calls borrow distinct arenas.
    """

    def __init__(self, plan) -> None:
        self._slot_rows = plan.buffers.num_slots + TEMP_SLOTS
        self._out_slot = plan.buffers.slots["out"]
        self._steps = self._compile(plan)
        self._pool: List[_Arena] = []
        self._pool_lock = threading.Lock()
        self._allocated_bytes = 0

    # ------------------------------------------------------------------ #
    # Arena pool                                                           #
    # ------------------------------------------------------------------ #
    @property
    def arena_bytes(self) -> int:
        """Bytes currently allocated across every arena of the pool."""
        return self._allocated_bytes

    @property
    def arena_slots(self) -> int:
        """Rows per arena: buffer-plan slots plus the fixed temp rows."""
        return self._slot_rows

    def _acquire(self, words: int) -> _Arena:
        # Reliability seam: a chaos run can fail the arena checkout the
        # way a real allocator would under memory pressure.
        faults.fire("arena:acquire")
        with self._pool_lock:
            for index, arena in enumerate(self._pool):
                if arena.capacity >= words:
                    return self._pool.pop(index)
            # No arena fits: retire one undersized allocation (if any) so
            # the pool cardinality stays bounded by peak concurrency, and
            # provision geometrically for the new high-water mark.
            if self._pool:
                self._allocated_bytes -= self._pool.pop().nbytes
            capacity = _MIN_CAPACITY
            while capacity < words:
                capacity *= 2
            arena = _Arena(self._slot_rows, capacity)
            self._allocated_bytes += arena.nbytes
            return arena

    def _release(self, arena: _Arena) -> None:
        with self._pool_lock:
            self._pool.append(arena)

    # ------------------------------------------------------------------ #
    # Execution                                                            #
    # ------------------------------------------------------------------ #
    def run(
        self, z: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Run the compiled program over concatenated vectors; mirrors
        ``ExecutionPlan._run_packed`` and returns the flat ``out`` words.

        Vector ``i`` is the ``lengths[i]`` words of ``z`` from
        ``starts[i]``.
        """
        words = int(z.size)
        arena = self._acquire(words)
        try:
            views = [arena.buf[row, :words] for row in range(self._slot_rows)]
            bools = arena.bools[:words]
            for step in self._steps:
                step(views, bools, z, starts, lengths)
            out = views[self._out_slot].astype(np.float64)
        finally:
            self._release(arena)
        return out

    # ------------------------------------------------------------------ #
    # Compilation: one closure per (possibly fused) instruction            #
    # ------------------------------------------------------------------ #
    def _compile(self, plan) -> List[Callable]:
        bits: Dict[str, int] = dict(plan._bits)
        buffers = plan.buffers
        slots = buffers.slots
        scalar_set = set(buffers.scalar_fields)
        t0 = buffers.num_slots

        # Scalar constants are known at compile time: collect them so the
        # consuming closures bake the value in and the write_const op
        # disappears from the instruction stream.
        scalars: Dict[str, int] = {
            op.dest: op.value
            for op in plan.program
            if op.op == "write_const" and op.dest in scalar_set
        }

        def operand(name: str) -> Union[int, np.uint64]:
            """Slot index for vector fields, baked value for scalars."""
            if name in scalars:
                return np.uint64(scalars[name])
            return slots[name]

        steps: List[Callable] = []
        program = list(plan.program)
        index = 0
        while index < len(program):
            op = program[index]
            nxt = program[index + 1] if index + 1 < len(program) else None
            if op.op == "write_const" and op.dest in scalar_set:
                pass  # folded into the consumers
            elif (
                op.op == "write_const"
                and nxt is not None
                and nxt.op == "subtract"
                and nxt.a == op.dest
                and nxt.b not in scalar_set
            ):
                # Peephole: materialise-const + in-place subtract fuse into
                # one reverse-subtract against the baked constant.
                steps.append(
                    self._rsub_const(
                        op.value, slots[nxt.b], slots[op.dest], _mask64(bits[op.dest])
                    )
                )
                index += 1  # the subtract is consumed by the fusion
            elif op.op == "write_const":
                steps.append(self._fill(slots[op.dest], np.uint64(op.value)))
            elif op.op == "write_input":
                steps.append(self._write_input(slots[op.dest]))
            elif op.op == "multiply":
                steps.append(
                    self._multiply(
                        operand(op.a), operand(op.b), slots[op.dest],
                        _mask64(bits[op.dest]),
                    )
                )
            elif op.op == "copy":
                # Shift and truncate fuse into one masked shift; the mask is
                # dropped when the source cannot carry bits past the
                # destination width.
                needs_mask = bits[op.a] - op.shift > bits[op.dest]
                steps.append(
                    self._copy(
                        slots[op.a], slots[op.dest], op.shift,
                        _mask64(bits[op.dest]) if needs_mask else None,
                    )
                )
            elif op.op == "subtract":
                steps.append(
                    self._subtract(
                        slots[op.a], operand(op.b), _mask64(bits[op.a]), t0
                    )
                )
            elif op.op == "add":
                steps.append(
                    self._add(slots[op.b], operand(op.a), _mask64(bits[op.b]), t0)
                )
            elif op.op == "shift_right":
                steps.append(
                    self._shift_right(
                        slots[op.a], slots[op.b], slots[op.dest],
                        _mask64(bits[op.dest]), op.stages, t0,
                    )
                )
            elif op.op == "mask_padding":
                pass  # no padding word reaches an executor
            elif op.op == "reduce_broadcast":
                steps.append(
                    self._reduce_broadcast(
                        slots[op.a], slots[op.dest], _mask64(bits[op.dest])
                    )
                )
            elif op.op == "divide":
                steps.append(
                    self._divide(
                        slots[op.a], slots[op.b], slots[op.dest],
                        op.fraction_bits,
                        _mask64(bits[op.a] + op.fraction_bits),
                        _mask64(bits[op.dest]),
                        t0,
                    )
                )
            else:  # pragma: no cover - lowering and executor move together
                raise ValueError(f"unknown plan opcode {op.op!r}")
            index += 1
        return steps

    # Each factory below returns a closure with the uniform signature
    # step(views, bools, z, starts, lengths); everything shape-independent
    # is captured at compile time.

    @staticmethod
    def _write_input(dest: int) -> Callable:
        def step(views, bools, z, starts, lengths):
            np.copyto(views[dest], z, casting="unsafe")

        return step

    @staticmethod
    def _fill(dest: int, value: np.uint64) -> Callable:
        def step(views, bools, z, starts, lengths):
            views[dest].fill(value)

        return step

    @staticmethod
    def _rsub_const(
        value: int, source: int, dest: int, mask: np.uint64
    ) -> Callable:
        constant = np.uint64(value)

        def step(views, bools, z, starts, lengths):
            d = views[dest]
            np.bitwise_and(views[source], mask, out=d)
            np.subtract(constant, d, out=d)
            np.bitwise_and(d, mask, out=d)

        return step

    @staticmethod
    def _multiply(a, b, dest: int, mask: np.uint64) -> Callable:
        def step(views, bools, z, starts, lengths):
            d = views[dest]
            ra = views[a] if isinstance(a, int) else a
            rb = views[b] if isinstance(b, int) else b
            np.multiply(ra, rb, out=d)
            np.bitwise_and(d, mask, out=d)

        return step

    @staticmethod
    def _copy(
        source: int, dest: int, shift: int, mask: Optional[np.uint64]
    ) -> Callable:
        shift_u = np.uint64(shift)

        def step(views, bools, z, starts, lengths):
            d = views[dest]
            if shift:
                np.right_shift(views[source], shift_u, out=d)
            else:
                np.copyto(d, views[source])
            if mask is not None:
                np.bitwise_and(d, mask, out=d)

        return step

    @staticmethod
    def _subtract(a: int, b, mask: np.uint64, t0: int) -> Callable:
        if isinstance(b, int):

            def step(views, bools, z, starts, lengths):
                d = views[a]
                t = views[t0]
                np.bitwise_and(views[b], mask, out=t)
                np.subtract(d, t, out=d)
                np.bitwise_and(d, mask, out=d)

        else:
            constant = b & mask

            def step(views, bools, z, starts, lengths):
                d = views[a]
                np.subtract(d, constant, out=d)
                np.bitwise_and(d, mask, out=d)

        return step

    @staticmethod
    def _add(b: int, a, mask: np.uint64, t0: int) -> Callable:
        if isinstance(a, int):

            def step(views, bools, z, starts, lengths):
                d = views[b]
                t = views[t0]
                np.bitwise_and(views[a], mask, out=t)
                np.add(d, t, out=d)
                np.bitwise_and(d, mask, out=d)

        else:
            constant = a & mask

            def step(views, bools, z, starts, lengths):
                d = views[b]
                np.add(d, constant, out=d)
                np.bitwise_and(d, mask, out=d)

        return step

    @staticmethod
    def _shift_right(
        a: int, b: int, dest: int, mask: np.uint64, stages: int, t0: int
    ) -> Callable:
        # The barrel shifter's stages shift by 2**k where bit k of the
        # amount is set, so together they shift by the amount's low
        # `stages` bits.  numpy gives 0 for a uint64 shift by 64 or more,
        # as the stage loop does.
        amount_mask = _mask64(stages)

        def step(views, bools, z, starts, lengths):
            cur = views[dest]
            amount = views[t0]
            np.bitwise_and(views[a], mask, out=cur)
            np.bitwise_and(views[b], amount_mask, out=amount)
            np.right_shift(cur, amount, out=cur)

        return step

    @staticmethod
    def _reduce_broadcast(a: int, dest: int, mask: np.uint64) -> Callable:
        def step(views, bools, z, starts, lengths):
            totals = np.add.reduceat(views[a], starts)
            np.bitwise_and(totals, mask, out=totals)
            np.copyto(views[dest], np.repeat(totals, lengths))

        return step

    @staticmethod
    def _divide(
        a: int,
        b: int,
        dest: int,
        fraction_bits: int,
        saturated: np.uint64,
        mask: np.uint64,
        t0: int,
    ) -> Callable:
        fraction = np.uint64(fraction_bits)
        one = np.uint64(1)
        zero = np.uint64(0)

        def step(views, bools, z, starts, lengths):
            d = views[dest]
            t = views[t0]
            divisor = views[b]
            np.left_shift(views[a], fraction, out=d)
            np.maximum(divisor, one, out=t)
            np.floor_divide(d, t, out=d)
            # Divisor-zero saturation, exactly like restoring division.
            np.equal(divisor, zero, out=bools)
            np.copyto(d, saturated, where=bools)
            np.bitwise_and(d, mask, out=d)

        return step
