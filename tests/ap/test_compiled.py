"""Tests for the compiled engine tier: registry, buffer liveness, executor.

Three layers under test, matching the refactor's split:

* the engine **table** (``repro.ap.engine``) — the fixed name sets,
  did-you-mean validation, processor scoping, and which engines run a
  plan through an executor;
* the **buffer-liveness pass** (``repro.mapping.plan.plan_buffers``) —
  scalar folding, dead-write elimination, slot assignment invariants;
* the **scratch-arena executor** (``repro.ap.compiled.CompiledEngine``) —
  bit-identity against the packed interpreter and the bit-serial reference
  across odd shapes and ragged lengths, arena reuse, and thread safety.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ap.compiled import CompiledEngine
from repro.ap.engine import (
    ENGINES,
    PROCESSOR_ENGINES,
    UnknownEngineError,
    canonical_engine_name,
)
from repro.mapping.plan import ExecutionPlan, PackedExecutor, plan_buffers
from repro.mapping.softmap import SoftmAPMapping
from repro.quant.precision import BEST_PRECISION, PrecisionConfig


class TestEngineRegistry:
    def test_builtin_engines_are_registered_in_order(self):
        assert ENGINES == ("reference", "vectorized", "compiled")

    def test_processor_engines_exclude_plan_only_entries(self):
        assert PROCESSOR_ENGINES == ("reference", "vectorized")

    def test_plan_executor_flags(self):
        plan = ExecutionPlan(sequence_length=8)
        assert plan.plan_executor("reference") is None
        assert isinstance(plan.plan_executor("vectorized"), PackedExecutor)
        assert isinstance(plan.plan_executor("compiled"), CompiledEngine)

    def test_canonical_name_scopes_to_processor_engines(self):
        assert canonical_engine_name("compiled") == "compiled"
        with pytest.raises(UnknownEngineError) as excinfo:
            canonical_engine_name("compiled", processor=True)
        assert "reference" in str(excinfo.value)
        # A real engine is not reported as unknown: it lacks a per-op mode.
        message = str(excinfo.value)
        assert "'compiled' has no per-operation mode" in message
        assert "unknown" not in message and "did you mean" not in message
        assert "reference, vectorized" in message
        assert excinfo.value.suggestion is None


class TestBufferLiveness:
    @pytest.fixture(scope="class")
    def plan(self):
        return ExecutionPlan(sequence_length=16)

    def test_twelve_vector_fields_fit_four_slots(self, plan):
        buffers = plan.buffers
        assert buffers.num_slots == 4
        vector_fields = (
            {f.name for f in plan.fields}
            - set(buffers.scalar_fields)
            - set(buffers.dead_fields)
        )
        assert set(buffers.slots) == vector_fields

    def test_scalar_constants_are_folded_out(self, plan):
        assert set(plan.buffers.scalar_fields) == {"mu", "vln2", "vc"}

    def test_division_remainder_is_dead(self, plan):
        assert plan.buffers.dead_fields == ("rem",)

    def test_result_field_lives_to_the_end(self, plan):
        assert plan.buffers.last_use["out"] == len(plan.program)

    def test_no_destination_aliases_a_same_op_operand(self, plan):
        """A slot freed at op i must only be reused from op i+1, or an
        in-place destination would clobber an operand it still reads."""
        slots = plan.buffers.slots
        scalars = set(plan.buffers.scalar_fields)
        for op in plan.program:
            operands = {
                name
                for name in (op.a, op.b)
                if name is not None and name not in scalars
            }
            if op.op in ("subtract", "add", "divide"):
                # These mutate an operand in place by design; the executor
                # replicates exactly that, so aliasing is the semantics.
                continue
            if op.dest in slots:
                for operand in operands - {op.dest}:
                    assert slots[op.dest] != slots[operand], op

    def test_liveness_is_consistent_across_precisions(self):
        for m in (4, 6, 8):
            plan = ExecutionPlan(
                precision=PrecisionConfig(m, 0, 16), sequence_length=8
            )
            buffers = plan_buffers(plan.program, plan.fields)
            assert buffers == plan.buffers
            assert buffers.num_slots <= len(buffers.slots)


class TestCompiledParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seq=st.integers(1, 33),          # includes 1 and odd lengths
        batch=st.integers(1, 5),
        ragged=st.booleans(),
        scale=st.sampled_from([0.5, 2.0, 8.0]),
        seed=st.integers(0, 2**16),
    )
    def test_compiled_equals_vectorized_and_reference(
        self, seq, batch, ragged, scale, seed
    ):
        rng = np.random.default_rng(seed)
        plan = ExecutionPlan(sequence_length=seq)
        scores = rng.normal(0.0, scale, size=(batch, seq))
        lengths = rng.integers(1, seq + 1, size=batch) if ragged else None
        compiled = plan.execute(scores, valid_lengths=lengths, engine="compiled")
        vectorized = plan.execute(
            scores, valid_lengths=lengths, engine="vectorized"
        )
        assert np.array_equal(compiled, vectorized)
        if seq <= 9 and batch <= 2:  # the bit-serial sweep is slow
            reference = plan.execute(
                scores, valid_lengths=lengths, engine="reference"
            )
            assert np.array_equal(compiled, reference)

    def test_decode_shape_sweep_is_bit_identical(self, rng):
        """Every 1..T plan shape of an autoregressive decode, on one shared
        mapping (the LRU the decode loop exercises)."""
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=16)
        for seq in range(1, 17):
            scores = rng.normal(0.0, 2.0, size=(3, seq))
            assert np.array_equal(
                mapping.execute_functional_batch(scores, engine="compiled"),
                mapping.execute_functional_batch(scores, engine="vectorized"),
            ), seq

    def test_extreme_scores_saturate_identically(self):
        plan = ExecutionPlan(
            precision=PrecisionConfig(8, 0, 8), sequence_length=8
        )
        scores = np.array(
            [[-40.0, 40.0, 0.0, 1e-9, -1e-9, 13.7, -13.7, 0.25]]
        )
        assert np.array_equal(
            plan.execute(scores, engine="compiled"),
            plan.execute(scores, engine="vectorized"),
        )


class TestCompiledEngineRuntime:
    def test_arena_is_reused_across_calls(self, rng):
        plan = ExecutionPlan(sequence_length=32)
        executor = plan.plan_executor("compiled")
        scores = rng.normal(0.0, 2.0, size=(4, 32))
        plan.execute(scores, engine="compiled")
        allocated = executor.arena_bytes
        assert allocated > 0
        for _ in range(5):
            plan.execute(scores, engine="compiled")
        assert executor.arena_bytes == allocated  # no reallocation, no growth
        assert plan.plan_executor("compiled").arena_bytes == allocated

    def test_arena_grows_geometrically_with_the_workload(self, rng):
        plan = ExecutionPlan(sequence_length=64)
        executor = plan.plan_executor("compiled")
        plan.execute(rng.normal(size=(1, 64)), engine="compiled")
        small = executor.arena_bytes
        plan.execute(rng.normal(size=(64, 64)), engine="compiled")
        grown = executor.arena_bytes
        assert grown > small
        plan.execute(rng.normal(size=(64, 64)), engine="compiled")
        assert executor.arena_bytes == grown

    def test_executor_is_cached_per_engine(self):
        plan = ExecutionPlan(sequence_length=8)
        assert plan.plan_executor("compiled") is plan.plan_executor("compiled")
        assert plan.plan_executor("compiled") is not plan.plan_executor(
            "vectorized"
        )

    def test_concurrent_runs_are_bit_identical(self, rng):
        """Worker threads borrow distinct arenas from the pool: concurrent
        executions must match the serial results exactly."""
        plan = ExecutionPlan(sequence_length=24)
        workloads = [rng.normal(0.0, 2.0, size=(6, 24)) for _ in range(16)]
        expected = [plan.execute(w, engine="vectorized") for w in workloads]

        def run(scores):
            return plan.execute(scores, engine="compiled")

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(run, workloads))
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    def test_threaded_cluster_passes_match_serial(self, rng):
        from repro.mapping.cluster import ApCluster

        scores = rng.normal(0.0, 2.0, size=(6, 2, 9))
        lengths = rng.integers(1, 10, size=6)
        serial = ApCluster(
            num_heads=2, sequence_length=9, pass_row_budget=3 * 9
        )
        threaded = ApCluster(
            num_heads=2,
            sequence_length=9,
            pass_row_budget=3 * 9,
            pass_workers=4,
            engine="compiled",
        )
        expected = serial.execute(scores, valid_lengths=lengths)
        got = threaded.execute(scores, valid_lengths=lengths)
        assert np.array_equal(got, expected)
        assert threaded.last_threaded_passes == len(
            threaded.workload_passes(12, 9)
        )
        assert serial.last_threaded_passes == 0

    def test_pass_list_is_cached(self):
        from repro.mapping.cluster import ApCluster

        cluster = ApCluster(num_heads=2, sequence_length=16)
        first = cluster.workload_passes(8, 16)
        assert cluster.workload_passes(8, 16) is first
        assert cluster.workload_passes(8, 8) is not first

    def test_non_packable_plan_falls_back_bit_identically(self, rng):
        """A layout the packed path cannot serve must still accept the
        plan-only engine by falling back to the packed-word AP sweep."""
        plan = ExecutionPlan(sequence_length=8)
        if plan.packable:
            plan.packable = False  # force the fallback path
        scores = rng.normal(0.0, 2.0, size=(2, 8))
        assert np.array_equal(
            plan.execute(scores, engine="compiled"),
            plan.execute(scores, engine="vectorized"),
        )
