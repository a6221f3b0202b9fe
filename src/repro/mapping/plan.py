"""Compiled execution plans: lower the SoftmAP dataflow once, run it wide.

Until this module existed the hot path re-interpreted the Fig. 5 dataflow on
every call: :meth:`~repro.mapping.softmap.SoftmAPMapping.execute_functional_batch`
re-derived field widths, re-allocated AP fields and re-dispatched the same
sixteen steps through Python for every head of every layer of every pass.
The plan layer splits that into the classic *lower once / execute many*
pipeline:

``compile`` (once per shape)
    :class:`ExecutionPlan` resolves everything that does not depend on the
    score values — quantizer constants, every field width and column, the
    lowered instruction sequence (:class:`PlanOp`) and the analytical
    Table II cost of each dataflow step (:class:`StepCost`).

``execute`` (per score tensor)
    The modeled hardware runs the lowered program over the whole workload
    as **one fused, head-major row space**: every softmax vector is a
    contiguous ``segment_length``-row block whose padding rows (past the
    vector's valid length) are cleared before the reduction, heads/batches
    are just more segments, and the segmented reduce/broadcast keeps each
    vector summing only its own block.  The simulator executes only the
    valid words of that row space: a vector's output depends only on its
    valid prefix, so the executors take the valid prefixes concatenated,
    plus each vector's start and length, in cache-sized tiles of whole
    vectors (at most ``_TILE_WORDS`` valid words each).  A tile boundary
    never splits a vector, so the result is the fused pass's bit for bit.
    Two substrates execute the same program:

    * ``engine="vectorized"`` — the fused packed path: each field lives as
      one ``uint64`` word per valid word (the
      :class:`~repro.ap.engine.BitPlaneEngine` representation) for the
      *whole* program, so no per-step scatter/gather through the CAM bit
      matrix remains.  Bit-identical to the AP and orders of magnitude
      faster.  ``engine="compiled"`` runs the same program in place against
      a scratch arena (:class:`~repro.ap.compiled.CompiledEngine`).
    * ``engine="reference"`` — the program is interpreted on the bit-serial
      functional AP in the modeled hardware's padded layout, the
      paper-faithful ground truth.

    :meth:`ExecutionPlan.plan_executor` is the one place that decides
    between the two: it returns the engine's executor, or ``None`` when the
    plan interprets on the AP.

    :meth:`ExecutionPlan.execute_on_ap` additionally exposes the pre-plan
    execution mode (per-operation engine sweeps over a real CAM) for
    parity pins and benchmarks against the PR 2 per-head loop.

``plan_passes`` (tiling)
    The planner owns workload tiling: when ``vectors × segment_length``
    words exceed a pass budget the workload is split into
    :class:`WorkloadPass` chunks, which the cluster prices through its
    two-stage :class:`~repro.mapping.cluster.ClusterSchedule` pipeline —
    opening long-sequence and many-vector workloads a one-AP-per-head
    wiring cannot express.  Planner passes are modeled hardware passes:
    they are priced, not executed (the cluster runs the whole row space as
    one :meth:`ExecutionPlan.execute` call).  The simulator's cache tiles
    are executed, not priced (cost, cycles and :class:`PlanTelemetry` do
    not see them), and the priced passes still hold the padded words.

Every fused execution is bit-identical to the per-head loop (pinned by
``tests/mapping/test_plan.py`` and the cluster parity experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ap.compiled import CompiledEngine
from repro.ap.cost import ApCostModel, OperationCost
from repro.ap.engine import MAX_FIELD_BITS, PROCESSOR_ENGINES, canonical_engine_name
from repro.ap.processor2d import AssociativeProcessor2D
from repro.ap.tech import TECH_16NM, TechnologyParameters
from repro.mapping.dataflow import (
    DataflowStep,
    StepKind,
    max_shift_amount,
    softmax_dataflow,
)
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.quant.quantizer import ClippedSoftmaxInputQuantizer
from repro.reliability import faults
from repro.softmax.polynomial import IExpPolynomial
from repro.utils.bitwidth import bits_for_unsigned
from repro.utils.validation import check_integer_lengths, check_positive_int

__all__ = [
    "BufferPlan",
    "ExecutionPlan",
    "MappingCost",
    "PackedExecutor",
    "PlanField",
    "PlanOp",
    "PlanTelemetry",
    "StepCost",
    "WorkloadPass",
    "multiplication_cycles_general",
    "plan_buffers",
    "plan_passes",
]

_ONE = np.uint64(1)

#: Valid words per cache tile of :meth:`ExecutionPlan.execute`.  At 2**15
#: words a field row is 256 KiB, so the compiled engine's five arena rows
#: fit a 2 MiB per-core L2.  Tiles are a simulator detail: the modeled
#: hardware still runs one fused pass over the padded row space, and is
#: priced as one.
_TILE_WORDS = 1 << 15


def _mask(bits: int) -> np.uint64:
    """All-ones mask covering the low ``bits`` bits (``bits <= 63``)."""
    return np.uint64((1 << bits) - 1)


# --------------------------------------------------------------------------- #
# Analytical cost records (moved here from repro.mapping.softmap: the plan
# is now the single owner of per-step cost derivation)                         #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StepCost:
    """Cost of one dataflow step."""

    step: DataflowStep
    cost: OperationCost


@dataclass(frozen=True)
class MappingCost:
    """Aggregate cost of one softmax pass on one AP."""

    steps: List[StepCost]
    total: OperationCost
    rows: int
    columns: int
    area_mm2: float

    @property
    def cycles(self) -> float:
        """Total compare/write cycles of the pass."""
        return self.total.cycles

    @property
    def latency_s(self) -> float:
        """Latency of the pass in seconds."""
        return self.total.latency_s

    @property
    def energy_j(self) -> float:
        """Energy of the pass in joules."""
        return self.total.energy_j


def multiplication_cycles_general(width: int, multiplier_bits: int) -> int:
    """Table II multiplication generalised to unequal operand widths:
    ``2*width`` operand cycles, ``8*width*multiplier`` shift-add cycles and
    ``2*width`` result handling (reduces to ``2M + 8M^2 + 2M`` when both
    operands are ``M`` bits wide)."""
    check_positive_int(width, "width")
    check_positive_int(multiplier_bits, "multiplier_bits")
    return 2 * width + 8 * width * multiplier_bits + 2 * width


def _analytic_step_cost(
    step: DataflowStep,
    model: ApCostModel,
    words_per_row: int,
    division: str,
    precision: PrecisionConfig,
) -> OperationCost:
    """Translate one dataflow step into Table II / technology-model cost."""
    if step.kind is StepKind.WRITE:
        return model.write(step.width)
    if step.kind is StepKind.SUBTRACT:
        return model.subtraction(step.width)
    if step.kind is StepKind.ADD:
        return model.addition(step.width)
    if step.kind is StepKind.COPY:
        return model.copy(step.width)
    if step.kind is StepKind.MULTIPLY:
        multiplier = step.aux_width if step.aux_width else step.width
        cycles = multiplication_cycles_general(step.width, multiplier)
        return model.cost_from_cycles(f"mul[{step.width}x{multiplier}b]", cycles)
    if step.kind is StepKind.SHIFT:
        addition = model.addition(step.width)
        shift = model.variable_shift(step.width, step.aux_width)
        combined = addition + shift
        return OperationCost(
            name=f"add+shift[{step.width}b]",
            cycles=combined.cycles,
            latency_s=combined.latency_s,
            energy_j=combined.energy_j,
        )
    if step.kind is StepKind.REDUCTION:
        return model.reduction(
            step.width, words=step.aux_width, words_per_row=words_per_row
        )
    if step.kind is StepKind.DIVIDE:
        vapprox = precision.vapprox_bits
        fraction = max(0, step.width - vapprox)
        if division == "restoring":
            return model.division(
                dividend_bits=vapprox,
                divisor_bits=step.aux_width,
                fraction_bits=fraction,
            )
        # Reciprocal mode: the controller computes 1/sum once (off the CAM
        # critical path) and the AP multiplies vapprox by the reciprocal in
        # ``result_column_bits`` fixed-point precision.
        cycles = multiplication_cycles_general(vapprox, step.width)
        return model.cost_from_cycles(f"recip-mul[{vapprox}x{step.width}b]", cycles)
    raise ValueError(f"unknown step kind {step.kind!r}")


# --------------------------------------------------------------------------- #
# Lowered program representation                                               #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlanField:
    """One resolved AP field of the lowered program."""

    name: str
    bits: int


@dataclass(frozen=True)
class PlanOp:
    """One lowered instruction.

    ``op`` names the executor primitive; operands are field names resolved
    against the plan's layout.  ``step`` records the Fig. 5 dataflow step
    the instruction realises (for reporting).

    ========================  ==================================================
    opcode                    semantics
    ========================  ==================================================
    ``write_input``           load the quantized ``z`` words into ``dest``
    ``write_const``           broadcast ``value`` to every row of ``dest``
    ``multiply``              ``dest <- a * b`` truncated to the field width
    ``copy``                  ``dest <- a >> shift`` (zero-extend / truncate)
    ``subtract``              in-place ``a <- a - b`` modulo the field width
    ``add``                   in-place ``b <- b + a`` modulo the field width
    ``shift_right``           barrel shift ``dest <- a >> b`` over ``stages``
    ``mask_padding``          zero ``dest`` in the padding rows (if any); the
                              padded AP runs it, the plan executors never
                              see a padding row
    ``reduce_broadcast``      per-``segment`` sum of ``a`` into ``dest``,
                              broadcast to every row of the segment
    ``divide``                ``dest <- (a << fraction_bits) / b`` (restoring)
    ========================  ==================================================
    """

    op: str
    dest: Optional[str] = None
    a: Optional[str] = None
    b: Optional[str] = None
    value: int = 0
    shift: int = 0
    stages: int = 0
    fraction_bits: int = 0
    remainder: Optional[str] = None
    step: int = 0


# --------------------------------------------------------------------------- #
# Buffer liveness: fields -> scratch-arena slots                               #
# --------------------------------------------------------------------------- #
def _op_reads(op: PlanOp) -> Tuple[str, ...]:
    """Field names one lowered instruction reads."""
    if op.op in ("multiply", "shift_right", "subtract", "add", "divide"):
        return tuple(name for name in (op.a, op.b) if name is not None)
    if op.op in ("copy", "reduce_broadcast"):
        return (op.a,) if op.a is not None else ()
    if op.op == "mask_padding":
        # Reads and rewrites its destination in place.
        return (op.dest,) if op.dest is not None else ()
    return ()


def _op_writes(op: PlanOp) -> Tuple[str, ...]:
    """Field names one lowered instruction writes."""
    if op.op == "subtract":
        return (op.a,)
    if op.op == "add":
        return (op.b,)
    if op.op == "divide":
        return tuple(name for name in (op.dest, op.remainder) if name is not None)
    return (op.dest,) if op.dest is not None else ()


@dataclass(frozen=True)
class BufferPlan:
    """The lowering layer's buffer-liveness result: fields -> arena slots.

    Computed once per compiled plan from the lowered :class:`PlanOp` list:
    every *vector* field (one word per AP row) gets a first/last-use
    interval and a slot in a preallocated scratch arena, assigned by linear
    scan so fields with disjoint live ranges share storage.  The peak slot
    count ``num_slots`` is the number of field rows a compiled executor's
    arena holds (it adds its own temp rows on top).

    Three field classes never consume a slot:

    * ``scalar_fields`` — fields whose only writes are ``write_const`` and
      that are never mutated row-wise (``mu``/``vln2``/``vc``): their value
      is one compile-time constant, folded into the consuming instructions.
    * ``dead_fields`` — fields written but never read and not the program
      result (the division ``rem`` scratch): a word-level executor never
      materialises them (the bit-serial AP needs the physical columns, a
      numpy ``floor_divide`` does not).
    * fields absent from the program entirely.

    Slot assignment is conservative: a destination never shares a slot with
    an operand of the same instruction (a freed interval becomes reusable
    only *after* the instruction that last reads it), so in-place execution
    against the arena can never read a half-overwritten operand.
    """

    slots: Dict[str, int]
    num_slots: int
    scalar_fields: Tuple[str, ...]
    dead_fields: Tuple[str, ...]
    first_use: Dict[str, int]
    last_use: Dict[str, int]


def plan_buffers(
    program: Tuple[PlanOp, ...],
    fields: Tuple[PlanField, ...],
    result: str = "out",
) -> BufferPlan:
    """Run the buffer-liveness pass over one lowered program.

    ``result`` names the field whose final value is the program output; it
    is kept live through the end of the program regardless of its last
    textual read.
    """
    field_names = {field.name for field in fields}
    writes_by_field: Dict[str, List[str]] = {}
    read_fields: set = set()
    for op in program:
        for name in _op_writes(op):
            writes_by_field.setdefault(name, []).append(op.op)
        read_fields.update(_op_reads(op))

    scalar_fields = tuple(
        name
        for name in (field.name for field in fields)
        if writes_by_field.get(name) and
        all(write == "write_const" for write in writes_by_field[name])
    )
    scalar_set = set(scalar_fields)
    dead_fields = tuple(
        name
        for name in (field.name for field in fields)
        if name in writes_by_field
        and name not in read_fields
        and name != result
        and name not in scalar_set
    )
    dead_set = set(dead_fields)

    first_use: Dict[str, int] = {}
    last_use: Dict[str, int] = {}
    for index, op in enumerate(program):
        for name in (*_op_reads(op), *_op_writes(op)):
            if name in scalar_set or name in dead_set:
                continue
            if name not in field_names:
                raise ValueError(f"op {index} references unknown field {name!r}")
            first_use.setdefault(name, index)
            last_use[name] = index
    if result in last_use:
        # The result is read by whoever executes the plan, after the
        # program's final instruction.
        last_use[result] = len(program)

    # Linear scan over the op list: release a field's slot only after the
    # instruction that last touches it, so a same-instruction destination
    # can never alias a live operand.
    slots: Dict[str, int] = {}
    free: List[int] = []
    num_slots = 0
    expiring: Dict[int, List[str]] = {}
    for name, end in last_use.items():
        expiring.setdefault(end, []).append(name)
    starting: Dict[int, List[str]] = {}
    for name, start in first_use.items():
        starting.setdefault(start, []).append(name)
    for index in range(len(program) + 1):
        for name in starting.get(index, ()):
            if free:
                slots[name] = free.pop()
            else:
                slots[name] = num_slots
                num_slots += 1
        for name in expiring.get(index, ()):
            free.append(slots[name])
    return BufferPlan(
        slots=slots,
        num_slots=num_slots,
        scalar_fields=scalar_fields,
        dead_fields=dead_fields,
        first_use=first_use,
        last_use=last_use,
    )


# --------------------------------------------------------------------------- #
# Workload tiling                                                              #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkloadPass:
    """One planner-produced chunk of a fused workload.

    ``start``/``vectors`` index softmax vectors (segments) of the head-major
    row space; ``words`` is the number of AP words the pass occupies
    (``vectors * segment_length``).
    """

    start: int
    vectors: int
    words: int


@dataclass(frozen=True)
class PlanTelemetry:
    """Plan-level execution telemetry attached to a ``SoftmaxResult``.

    Records how the runtime executed a call: whether the fused plan path
    ran, on which engine, how the planner tiled the workload into priced
    passes, and the scratch-arena footprint of the execution.

    ``arena_slots`` is the row count of the executing engine's scratch
    arena (the compiled engine's buffer-plan slots plus its temp rows) and
    ``arena_bytes`` the bytes it has allocated for arenas; both are 0 for
    engines without an arena (the packed path allocates per call, the
    reference engine interprets on the AP).

    The record also describes cluster-wide utilization: ``row_budget`` is
    the ``pass_row_budget`` the planner tiled against (0 when unbudgeted —
    one pass holds the whole workload).  :attr:`words_total` /
    :attr:`occupancy` derive the rows-used-vs-budget report from those.
    Serving facts (the tick's coalesced requests, retries, backoff) live
    on :class:`~repro.serve.server.ServeResponse`, not here.
    """

    fused: bool
    engine: str
    passes: int
    vectors: int
    segment_length: int
    words_per_pass: Tuple[int, ...]
    arena_slots: int = 0
    arena_bytes: int = 0
    row_budget: int = 0

    @property
    def words_total(self) -> int:
        """AP words occupied across every planner pass of the execution."""
        return sum(self.words_per_pass)

    @property
    def occupancy(self) -> float:
        """Fraction of the provisioned pass rows the workload actually used.

        ``words_total / (passes * row_budget)`` under a ``pass_row_budget``;
        1.0 when unbudgeted (a single fused pass is exactly as wide as its
        workload, so the row space has no idle provisioned rows).
        """
        if self.row_budget <= 0 or self.passes == 0:
            return 1.0
        return self.words_total / (self.passes * self.row_budget)


def plan_passes(
    vectors: int, segment_length: int, row_budget: Optional[int] = None
) -> List[WorkloadPass]:
    """Tile ``vectors`` softmax vectors of ``segment_length`` words each.

    With no ``row_budget`` the whole workload is one fused pass.  With a
    budget, as many whole vectors as fit the budget are packed per pass
    (a vector's segmented reduction cannot straddle passes, so one segment
    must fit: ``segment_length <= row_budget``).
    """
    check_positive_int(vectors, "vectors")
    check_positive_int(segment_length, "segment_length")
    if row_budget is None:
        return [WorkloadPass(0, vectors, vectors * segment_length)]
    check_positive_int(row_budget, "row_budget")
    if segment_length > row_budget:
        raise ValueError(
            f"one {segment_length}-word segment does not fit the "
            f"{row_budget}-word pass budget (a softmax vector cannot be "
            f"split across passes)"
        )
    per_pass = row_budget // segment_length
    passes: List[WorkloadPass] = []
    for start in range(0, vectors, per_pass):
        count = min(per_pass, vectors - start)
        passes.append(WorkloadPass(start, count, count * segment_length))
    return passes


# --------------------------------------------------------------------------- #
# The compiled plan                                                            #
# --------------------------------------------------------------------------- #
class ExecutionPlan:
    """The SoftmAP dataflow lowered for one (precision, sequence) shape.

    Instances are immutable after construction and shared freely: the
    cluster keeps **one** plan per runtime sequence length regardless of
    head count.  Construction *is* compilation — constants, field layout,
    lowered program and per-step analytical costs are all resolved here.

    Parameters mirror :class:`~repro.mapping.softmap.SoftmAPMapping` (which
    caches plans per runtime shape); ``output_fraction_bits`` defaults to
    the ``2M + 12`` result-column width.
    """

    def __init__(
        self,
        precision: PrecisionConfig = BEST_PRECISION,
        sequence_length: int = 2048,
        words_per_row: int = 2,
        columns: int = 64,
        tech: TechnologyParameters = TECH_16NM,
        division: str = "restoring",
        clip_threshold: Optional[float] = None,
        engine: str = "vectorized",
        output_fraction_bits: Optional[int] = None,
    ) -> None:
        self.precision = precision
        self.sequence_length = check_positive_int(sequence_length, "sequence_length")
        self.words_per_row = check_positive_int(words_per_row, "words_per_row")
        self.division = division
        self.engine = canonical_engine_name(engine)
        self.quantizer = ClippedSoftmaxInputQuantizer(
            bits=precision.input_bits, clip_threshold=clip_threshold
        )
        self.polynomial = IExpPolynomial(
            input_bits=precision.input_bits, barrett_correction=False
        )
        self.constants = self.polynomial.constants(self.quantizer.scale)
        if output_fraction_bits is None:
            output_fraction_bits = precision.result_column_bits
        self.output_fraction_bits = check_positive_int(
            output_fraction_bits, "output_fraction_bits"
        )

        # ---- analytical view: the 16 costed dataflow steps ---------------- #
        # Ceil division: an odd sequence length still occupies a final,
        # partly filled row (floor division would silently drop its word).
        self.rows = -(-self.sequence_length // self.words_per_row)
        self.cost_columns = check_positive_int(columns, "columns")
        self.cost_model = ApCostModel(
            rows=self.rows, columns=self.cost_columns, tech=tech
        )
        self.dataflow_steps: Tuple[DataflowStep, ...] = tuple(
            softmax_dataflow(precision, self.sequence_length, vln2=self.constants.vln2)
        )
        step_costs: List[StepCost] = []
        for step in self.dataflow_steps:
            cost = _analytic_step_cost(
                step, self.cost_model, self.words_per_row, self.division, precision
            )
            if step.elementwise and self.words_per_row > 1:
                cost = cost.scaled(self.words_per_row, name=cost.name)
            step_costs.append(StepCost(step=step, cost=cost))
        self.step_costs: Tuple[StepCost, ...] = tuple(step_costs)
        self._cost: Optional[MappingCost] = None

        # ---- functional view: resolved layout + lowered program ----------- #
        constants = self.constants
        m = precision.input_bits
        n = self.sequence_length
        shift_bits = max(
            1, bits_for_unsigned(max_shift_amount(precision, constants.vln2))
        )
        mu_bits = max(1, bits_for_unsigned(constants.mu))
        product_bits = m + mu_bits
        q_bits = max(1, product_bits - 2 * m) + 1
        vb_bits = max(1, bits_for_unsigned(constants.vb))
        vc_bits = max(1, bits_for_unsigned(constants.vc))
        poly_bits = 2 * (vb_bits + 1) + max(vc_bits - 2 * vb_bits, 0) + 2
        vapprox_bits = poly_bits
        sum_bits = vapprox_bits + max(1, bits_for_unsigned(max(n - 1, 1)))
        out_bits = vapprox_bits + self.output_fraction_bits
        vln2_bits = max(4, bits_for_unsigned(constants.vln2))
        stages = min(shift_bits, q_bits)

        self.columns_needed = (
            m                      # z
            + m                    # max / vln2 scratch
            + mu_bits              # mu
            + product_bits         # z * mu
            + q_bits * 2 + 4       # q and q * vln2
            + 2 * (vb_bits + 1)    # vb - r and its copy
            + poly_bits            # polynomial
            + vc_bits
            + vapprox_bits
            + sum_bits * 2
            + out_bits
            + sum_bits + 2         # division remainder
            + 8
        )
        self.fields: Tuple[PlanField, ...] = (
            PlanField("z", m),
            PlanField("mu", mu_bits),
            PlanField("z_mu", product_bits),
            PlanField("vln2", vln2_bits),
            PlanField("q", q_bits),
            PlanField("q_vln2", q_bits + vln2_bits),
            PlanField("r", m),
            PlanField("w", vb_bits + 1),
            PlanField("w_copy", vb_bits + 1),
            PlanField("w_sq", poly_bits),
            PlanField("vc", vc_bits),
            PlanField("vapprox", vapprox_bits),
            PlanField("sum", sum_bits),
            PlanField("out", out_bits),
            PlanField("rem", sum_bits + 1),
        )
        self._bits: Dict[str, int] = {f.name: f.bits for f in self.fields}
        self.program: Tuple[PlanOp, ...] = (
            # Step 1: write v (as z = max(v) - v); step 2 is folded into z
            # because the functional mapping tracks the magnitude.
            PlanOp("write_input", dest="z", step=1),
            # Steps 3-4: Barrett quotient q = (z * mu) >> 2M.
            PlanOp("write_const", dest="mu", value=constants.mu, step=3),
            PlanOp("multiply", a="z", b="mu", dest="z_mu", step=4),
            PlanOp("write_const", dest="vln2", value=constants.vln2, step=5),
            PlanOp("copy", a="z_mu", dest="q", shift=2 * m, step=4),
            # Step 6: q * vln2.
            PlanOp("multiply", a="q", b="vln2", dest="q_vln2", step=6),
            # Step 7: r = z - q*vln2 = z mod vln2 (so vcorr = -r).
            PlanOp("copy", a="z", dest="r", step=7),
            PlanOp("subtract", a="r", b="q_vln2", step=7),
            # Steps 8-9: w = vb - r (= vcorr + vb).
            PlanOp("write_const", dest="w", value=constants.vb, step=8),
            PlanOp("subtract", a="w", b="r", step=9),
            # Steps 10-11: copy w, then square it (multiplicand and
            # multiplier predicate must live in different columns).
            PlanOp("copy", a="w", dest="w_copy", step=10),
            PlanOp("multiply", a="w_copy", b="w", dest="w_sq", step=11),
            # Steps 12-13: add vc, then shift right by q.
            PlanOp("write_const", dest="vc", value=constants.vc, step=12),
            PlanOp("add", a="vc", b="w_sq", step=13),
            PlanOp("shift_right", a="w_sq", b="q", dest="vapprox",
                   stages=stages, step=13),
            # Null padding words so they contribute nothing to the segmented
            # sum and divide to an all-zero output word.  Only the padded AP
            # holds padding words; the plan executors run valid words only.
            PlanOp("mask_padding", dest="vapprox"),
            # Steps 14-15: segmented reduction + broadcast of the sum.
            PlanOp("reduce_broadcast", a="vapprox", dest="sum", step=14),
            # Step 16: divide (fixed point with output_fraction_bits).
            PlanOp("divide", a="vapprox", b="sum", dest="out", remainder="rem",
                   fraction_bits=self.output_fraction_bits, step=16),
        )
        #: Whether every field fits the packed-word representation; when it
        #: does not (exotic custom widths), no plan executor runs and the
        #: program interprets on the functional AP (see plan_executor).
        self.packable = all(f.bits <= MAX_FIELD_BITS for f in self.fields)
        #: Buffer-liveness result: vector fields assigned to scratch-arena
        #: slots, scalar constants folded out, dead scratch dropped.
        self.buffers: BufferPlan = plan_buffers(self.program, self.fields)
        # Plan executors (engine name -> executor instance), built lazily on
        # first dispatch.  Plain-dict access is safe under concurrent
        # passes: a rare double construction just discards one instance.
        self._executors: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Analytical cost                                                      #
    # ------------------------------------------------------------------ #
    def cost(self) -> MappingCost:
        """The compiled Table II / technology cost of one pass."""
        if self._cost is None:
            total = OperationCost.zero("softmap")
            for step_cost in self.step_costs:
                total = total + step_cost.cost
            total = OperationCost(
                name="softmap-pass",
                cycles=total.cycles,
                latency_s=total.latency_s,
                energy_j=total.energy_j,
            )
            self._cost = MappingCost(
                steps=list(self.step_costs),
                total=total,
                rows=self.rows,
                columns=self.cost_columns,
                area_mm2=self.cost_model.area_mm2(),
            )
        return self._cost

    # ------------------------------------------------------------------ #
    # Execution                                                            #
    # ------------------------------------------------------------------ #
    def execute(
        self,
        scores: np.ndarray,
        valid_lengths: Optional[np.ndarray] = None,
        engine: Optional[str] = None,
    ) -> np.ndarray:
        """Run the plan over a ``(vectors, segment_length)`` score tensor.

        The modeled hardware runs the row space as one fused pass; the
        simulator runs only its valid words, as tiles of whole vectors
        holding at most ``_TILE_WORDS`` valid words (one vector per tile
        when a vector alone is longer).  The call is validated once, then
        each tile's valid prefixes are gathered into one flat word array,
        quantized, run through the engine's plan executor
        (``"vectorized"``'s fused packed path, ``"compiled"``'s
        scratch-arena executor) or, without one (see
        :meth:`plan_executor`), interpreted on the functional AP, and
        scaled into a zeroed output.  Results are bit-identical across
        every engine and tile size, and to the pre-plan per-head loop.
        """
        engine = canonical_engine_name(engine) if engine is not None else self.engine
        faults.fire(f"engine:{engine}")
        scores, lengths = self._validate(scores, valid_lengths)
        run = self._tile_runner(engine)
        out = np.zeros(scores.shape)
        ends = np.cumsum(lengths)
        start = 0
        while start < len(lengths):
            limit = (ends[start - 1] if start else 0) + _TILE_WORDS
            stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
            rows = slice(start, stop)
            self._run_tile(scores[rows], lengths[rows], run, out[rows])
            start = stop
        return out

    def plan_executor(self, engine: Optional[str] = None):
        """The (cached) plan executor ``engine`` runs this plan with.

        ``None`` when the plan interprets its program on the functional AP
        instead: always for ``"reference"``, and for every engine when a
        field is too wide to pack (``packable`` is false).  Otherwise one
        executor is built per (plan, engine) pair
        (:class:`PackedExecutor` for ``"vectorized"``,
        :class:`~repro.ap.compiled.CompiledEngine` for ``"compiled"``) and
        holds the engine's reusable execution state (the compiled engine's
        scratch-arena pool).
        """
        engine = canonical_engine_name(engine) if engine is not None else self.engine
        factory = _PLAN_EXECUTORS.get(engine) if self.packable else None
        if factory is None:
            return None
        executor = self._executors.get(engine)
        if executor is None:
            executor = self._executors.setdefault(engine, factory(self))
        return executor

    def execute_on_ap(
        self,
        scores: np.ndarray,
        valid_lengths: Optional[np.ndarray] = None,
        engine: Optional[str] = None,
    ) -> np.ndarray:
        """Interpret the lowered program on the functional AP.

        This is the pre-plan execution mode — every instruction issued as
        CAM compare/write sweeps through the selected per-operation engine.
        It is the ground-truth substrate the fused path is pinned against
        (and the PR 2 baseline of the fused-vs-loop benchmark).  Plan-only
        engines (``"compiled"``) have no per-operation mode and are
        rejected with a did-you-mean suggestion.
        """
        engine = engine if engine is not None else self.engine
        engine = canonical_engine_name(engine, processor=True)
        scores, lengths = self._validate(scores, valid_lengths)
        out = np.zeros(scores.shape)
        self._run_tile(scores, lengths, partial(self._run_ap, engine=engine), out)
        return out

    # ------------------------------------------------------------------ #
    # Internals                                                            #
    # ------------------------------------------------------------------ #
    def _validate(
        self, scores: np.ndarray, valid_lengths: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Check one call's score tensor and ``valid_lengths``.

        Returns the scores as float64 and every vector's valid length as
        int64 (``segment_length`` for each vector when no lengths are
        given).
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError("the plan executes a (batch, seq) score tensor")
        if scores.shape[1] != self.sequence_length:
            raise ValueError(
                f"plan compiled for sequence length {self.sequence_length}, "
                f"got {scores.shape[1]}"
            )
        if valid_lengths is None:
            lengths = np.full(scores.shape[0], self.sequence_length, dtype=np.int64)
            return scores, lengths
        valid_lengths = check_integer_lengths(valid_lengths)
        if valid_lengths.shape != (scores.shape[0],):
            raise ValueError(
                f"valid_lengths must have shape ({scores.shape[0]},), "
                f"got {valid_lengths.shape}"
            )
        if np.any(valid_lengths < 1) or np.any(valid_lengths > scores.shape[1]):
            raise ValueError("valid_lengths must lie in 1..seq for every vector")
        return scores, valid_lengths

    def _tile_runner(self, engine: str):
        """``run(z, starts, lengths)`` for ``engine``: its plan executor, or
        the program interpreted on the functional AP."""
        executor = self.plan_executor(engine)
        if executor is not None:
            return executor.run
        # "compiled" has no per-operation mode: a layout too wide to pack
        # interprets on the packed-word AP engine instead.
        ap_engine = engine if engine in PROCESSOR_ENGINES else "vectorized"
        return partial(self._run_ap, engine=ap_engine)

    def _run_tile(
        self,
        scores: np.ndarray,
        lengths: np.ndarray,
        run,
        out: np.ndarray,
    ) -> None:
        """Run one tile of whole vectors, scaling its valid words into ``out``.

        The valid prefixes are gathered into one flat word array, vector
        after vector; a tile with no padded vector is that array already,
        so it is raveled, not gathered.
        """
        starts = np.cumsum(lengths) - lengths
        valid = None
        if lengths.min() < self.sequence_length:
            valid = np.arange(self.sequence_length) < lengths[:, None]
            words = scores[valid]
        else:
            words = scores.ravel()
        part = run(self._quantize(words, starts, lengths), starts, lengths)
        scale = 2.0 ** -self.output_fraction_bits
        if valid is None:
            np.multiply(part.reshape(out.shape), scale, out=out)
        else:
            out[valid] = np.multiply(part, scale, out=part)

    def _quantize(
        self, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Stabilise and quantize concatenated vectors into ``z`` words."""
        # Each vector minus its own maximum: the per-word subtraction the
        # quantizer's stabilise=True makes, so the bits are the same.
        stable = np.repeat(np.maximum.reduceat(words, starts), lengths)
        np.subtract(words, stable, out=stable)
        z = self.quantizer.quantize(stable, stabilise=False).values
        np.negative(z, out=z)  # z = -vstable >= 0, in the quantizer's buffer
        return z

    def _run_packed(
        self, z: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """The fused wide pass: the whole program on packed uint64 words.

        ``z`` holds the concatenated vectors, vector ``i`` the
        ``lengths[i]`` words from ``starts[i]``.  Field values stay in the
        engine's packed representation end to end; each opcode reproduces
        the corresponding engine primitive's modulo semantics exactly
        (truncating multiplies, wrapping subtracts, the divisor-zero
        saturation of restoring division), so the result is bit-identical
        to the per-operation AP execution.  Returns the flat ``out`` words.
        """
        bits = self._bits
        state: Dict[str, np.ndarray] = {}
        for op in self.program:
            if op.op == "write_input":
                state[op.dest] = z.astype(np.uint64)
            elif op.op == "write_const":
                state[op.dest] = np.uint64(op.value)
            elif op.op == "multiply":
                state[op.dest] = (state[op.a] * state[op.b]) & _mask(bits[op.dest])
            elif op.op == "copy":
                value = state[op.a]
                if op.shift:
                    value = value >> np.uint64(op.shift)
                state[op.dest] = value & _mask(bits[op.dest])
            elif op.op == "subtract":
                width = bits[op.a]
                state[op.a] = (
                    state[op.a] - (state[op.b] & _mask(width))
                ) & _mask(width)
            elif op.op == "add":
                width = bits[op.b]
                state[op.b] = (
                    state[op.b] + (state[op.a] & _mask(width))
                ) & _mask(width)
            elif op.op == "shift_right":
                current = state[op.a] & _mask(bits[op.dest])
                shift = state[op.b]
                for k in range(op.stages):
                    offset = 1 << k
                    predicate = ((shift >> np.uint64(k)) & _ONE).astype(bool)
                    if offset >= 64:
                        shifted = np.zeros_like(current)
                    else:
                        shifted = current >> np.uint64(offset)
                    current = np.where(predicate, shifted, current)
                state[op.dest] = current
            elif op.op == "mask_padding":
                pass  # no padding word reaches an executor
            elif op.op == "reduce_broadcast":
                totals = np.add.reduceat(state[op.a], starts)
                state[op.dest] = np.repeat(totals & _mask(bits[op.dest]), lengths)
            elif op.op == "divide":
                dividend = state[op.a]
                divisor = state[op.b]
                total_bits = bits[op.a] + op.fraction_bits
                numerator = dividend << np.uint64(op.fraction_bits)
                quotient = numerator // np.maximum(divisor, _ONE)
                quotient = np.where(divisor > 0, quotient, _mask(total_bits))
                state[op.dest] = quotient & _mask(bits[op.dest])
            else:  # pragma: no cover - lowering and executor move together
                raise ValueError(f"unknown plan opcode {op.op!r}")
        return state["out"].astype(np.float64)

    def _run_ap(
        self,
        z: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        engine: str,
    ) -> np.ndarray:
        """Interpret the program on one wide functional 2D AP.

        The AP holds the modeled hardware's padded layout: vector ``i`` is
        the ``segment_length``-row block ``i``, its valid words first, and
        ``mask_padding`` clears the padding rows before the segmented
        reduction.  Returns the valid rows' ``out`` words, concatenated as
        ``z`` is.
        """
        n = self.sequence_length
        valid = np.arange(n) < lengths[:, None]
        padded = np.zeros(valid.shape, dtype=np.int64)
        padded[valid] = z
        ap = AssociativeProcessor2D(
            rows=valid.size, columns=self.columns_needed, engine=engine
        )
        fields = {
            spec.name: ap.allocate_field(spec.name, spec.bits)
            for spec in self.fields
        }
        for op in self.program:
            if op.op == "write_input":
                ap.write_field(fields[op.dest], padded.ravel())
            elif op.op == "write_const":
                ap.write_constant(fields[op.dest], op.value)
            elif op.op == "multiply":
                ap.multiply(fields[op.a], fields[op.b], fields[op.dest])
            elif op.op == "copy":
                source = fields[op.a]
                if op.shift:
                    source = ap.shifted_view(source, op.shift)
                ap.copy(source, fields[op.dest])
            elif op.op == "subtract":
                ap.subtract(fields[op.a], fields[op.b])
            elif op.op == "add":
                ap.add(fields[op.a], fields[op.b])
            elif op.op == "shift_right":
                ap.shift_right_variable(
                    fields[op.a], fields[op.b], fields[op.dest],
                    max_shift_bits=op.stages,
                )
            elif op.op == "mask_padding":
                if not valid.all():
                    ap.clear_rows(fields[op.dest], ~valid.ravel())
            elif op.op == "reduce_broadcast":
                ap.reduce_and_broadcast_segments(
                    fields[op.a], fields[op.dest], n
                )
            elif op.op == "divide":
                ap.divide(
                    fields[op.a], fields[op.b], fields[op.dest],
                    fields[op.remainder], fraction_bits=op.fraction_bits,
                )
            else:  # pragma: no cover - lowering and executor move together
                raise ValueError(f"unknown plan opcode {op.op!r}")
        return ap.read_field(fields["out"]).astype(np.float64)[valid.ravel()]


# --------------------------------------------------------------------------- #
# Plan executors                                                               #
# --------------------------------------------------------------------------- #
class PackedExecutor:
    """The ``"vectorized"`` engine's plan executor: the fused packed path.

    A thin adapter with the plan-executor shape
    (``factory(plan) -> object with run(z, starts, lengths)`` plus the
    ``arena_slots``/``arena_bytes`` telemetry) over
    :meth:`ExecutionPlan._run_packed` — the dict-of-arrays interpreter that
    allocates fresh temporaries per instruction.  The ``"compiled"``
    engine (:class:`repro.ap.compiled.CompiledEngine`) is the
    buffer-planned, allocation-free successor.
    """

    #: Allocates per call; no preallocated scratch arena to report.
    arena_slots = 0
    arena_bytes = 0

    def __init__(self, plan: ExecutionPlan) -> None:
        self._plan = plan

    def run(
        self, z: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        return self._plan._run_packed(z, starts, lengths)


#: Engine name -> plan-executor factory; engines absent here (the
#: ``"reference"`` engine) interpret the program on the functional AP.
_PLAN_EXECUTORS = {"vectorized": PackedExecutor, "compiled": CompiledEngine}
