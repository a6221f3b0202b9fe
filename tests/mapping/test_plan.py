"""Tests for the compiled execution-plan layer (repro.mapping.plan).

The centrepiece is the randomized property test pinning the tentpole
guarantee: fused cluster execution is bit-identical to the per-head loop
across odd sequence lengths, non-power-of-two head counts, ragged
``valid_lengths`` and both functional engines.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ap.compiled import TEMP_SLOTS, CompiledEngine
from repro.ap.engine import UnknownEngineError, canonical_engine_name
from repro.ap.processor import AssociativeProcessor
from repro.ap.processor2d import AssociativeProcessor2D
from repro.experiments.table2_runtime_formulas import run_table2
from repro.mapping.cluster import ApCluster
from repro.mapping import plan as plan_module
from repro.mapping.deployment import ApDeployment
from repro.mapping.plan import ExecutionPlan, WorkloadPass, plan_passes
from repro.mapping.softmap import SoftmAPMapping
from repro.quant.precision import BEST_PRECISION
from repro.runtime.backend import BackendSpec, resolve_backend
from repro.softmax.integer_softmax import IntegerSoftmax


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test; returns the list of its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestFusedParityProperty:
    """Fused execution == per-head loop, the tentpole's pinned invariant."""

    @settings(max_examples=20, deadline=None)
    @given(
        heads=st.integers(1, 3),          # includes the non-power-of-two 3
        batch=st.integers(1, 2),
        seq=st.integers(2, 9),            # includes odd lengths
        engine=st.sampled_from(["vectorized", "reference", "compiled"]),
        ragged=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_fused_cluster_matches_per_head_loop(
        self, heads, batch, seq, engine, ragged, seed
    ):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0.0, 2.0, size=(batch, heads, seq))
        lengths = rng.integers(1, seq + 1, size=(batch, heads)) if ragged else None

        cluster = ApCluster(num_heads=heads, sequence_length=seq)
        fused = cluster.execute(scores, valid_lengths=lengths, engine=engine)

        # The per-head loop on the functional AP (per-operation engine
        # sweeps): the execution mode the fused pass replaced.  The compiled
        # engine is plan-only, so its loop baseline runs the packed-word
        # processor (itself pinned bit-identical to the reference sweep).
        loop_engine = engine if engine != "compiled" else "vectorized"
        plan = cluster.mapping.plan(sequence_length=seq)
        looped = np.empty_like(scores)
        for h in range(heads):
            looped[:, h, :] = plan.execute_on_ap(
                scores[:, h, :],
                valid_lengths=None if lengths is None else lengths[:, h],
                engine=loop_engine,
            )
        assert np.array_equal(fused, looped)

    def test_fused_matches_software_pipeline(self, rng):
        scores = rng.normal(0.0, 2.0, size=(3, 5, 13))  # odd seq, odd heads
        cluster = ApCluster(num_heads=5, sequence_length=13)
        software = IntegerSoftmax(BEST_PRECISION, barrett_correction=False)(scores)
        assert np.array_equal(cluster.execute(scores), software)

    def test_engines_agree_on_the_fused_row_space(self, rng):
        scores = rng.normal(0.0, 2.0, size=(2, 3, 7))
        cluster = ApCluster(num_heads=3, sequence_length=7)
        vectorized = cluster.execute(scores, engine="vectorized")
        assert np.array_equal(
            vectorized, cluster.execute(scores, engine="reference")
        )
        assert np.array_equal(
            vectorized, cluster.execute(scores, engine="compiled")
        )


class TestCompilation:
    def test_plan_is_compiled_once_per_shape(self):
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=32)
        assert mapping.plan() is mapping.plan()
        assert mapping.plan(sequence_length=16) is mapping.plan(sequence_length=16)
        assert mapping.plan(sequence_length=16) is not mapping.plan()

    def test_cluster_shares_one_mapping_across_heads(self):
        """Heads are structurally identical: memory must not scale with the
        head count (the PR 2 cluster built one mapping per head)."""
        cluster = ApCluster(num_heads=7, sequence_length=16)
        mappings = [
            value for value in vars(cluster).values()
            if isinstance(value, SoftmAPMapping)
        ]
        assert mappings == [cluster.mapping]

    def test_lowered_program_has_resolved_fields_and_costs(self):
        plan = SoftmAPMapping(BEST_PRECISION, sequence_length=64).plan()
        field_names = {f.name for f in plan.fields}
        for op in plan.program:
            for operand in (op.dest, op.a, op.b, op.remainder):
                assert operand is None or operand in field_names
        assert len(plan.step_costs) == 16
        assert plan.cost().cycles == pytest.approx(
            sum(s.cost.cycles for s in plan.step_costs)
        )

    def test_plan_cost_is_the_mapping_cost(self):
        mapping = SoftmAPMapping(BEST_PRECISION, sequence_length=128)
        assert mapping.cost() is mapping.plan().cost()

    def test_execute_rejects_mismatched_shapes(self):
        plan = ExecutionPlan(sequence_length=8)
        with pytest.raises(ValueError):
            plan.execute(np.zeros(8))  # 1-D
        with pytest.raises(ValueError):
            plan.execute(np.zeros((2, 9)))  # compiled for seq=8


class TestPlanner:
    def test_no_budget_is_one_fused_pass(self):
        assert plan_passes(12, 16) == [WorkloadPass(0, 12, 192)]

    def test_budget_tiles_whole_vectors(self):
        passes = plan_passes(10, 16, row_budget=50)  # 3 vectors / pass
        assert [p.vectors for p in passes] == [3, 3, 3, 1]
        assert [p.start for p in passes] == [0, 3, 6, 9]
        assert all(p.words == p.vectors * 16 for p in passes)

    def test_segment_must_fit_one_pass(self):
        with pytest.raises(ValueError, match="segment does not fit"):
            plan_passes(4, 100, row_budget=64)

    def test_tiled_cluster_execution_is_bit_identical(self, rng):
        scores = rng.normal(0.0, 2.0, size=(4, 3, 11))
        lengths = rng.integers(1, 12, size=4)
        single = ApCluster(num_heads=3, sequence_length=11)
        tiled = ApCluster(
            num_heads=3, sequence_length=11, pass_row_budget=2 * 11
        )
        assert len(tiled.workload_passes(12, 11)) == 6
        assert np.array_equal(
            tiled.execute(scores, valid_lengths=lengths),
            single.execute(scores, valid_lengths=lengths),
        )

    def test_budget_opens_sequences_beyond_the_provisioned_length(self, rng):
        """The fused row space spans the whole cluster, so an explicit pass
        budget admits sequences one per-head AP could not hold."""
        scores = rng.normal(0.0, 2.0, size=(1, 2, 24))
        capped = ApCluster(num_heads=2, sequence_length=16)
        with pytest.raises(ValueError, match="exceeds the provisioned"):
            capped.execute(scores)
        budgeted = ApCluster(
            num_heads=2, sequence_length=16, pass_row_budget=32
        )
        software = IntegerSoftmax(BEST_PRECISION, barrett_correction=False)(scores)
        assert np.array_equal(budgeted.execute(scores), software)
        assert budgeted.cost(sequence_length=24).latency_s > 0


class TestEngineValidation:
    def test_unknown_engine_suggests_closest(self):
        with pytest.raises(UnknownEngineError, match="did you mean 'vectorized'"):
            canonical_engine_name("vectorised")
        with pytest.raises(UnknownEngineError, match="did you mean 'reference'"):
            canonical_engine_name("refrence")
        with pytest.raises(UnknownEngineError, match="did you mean 'compiled'"):
            canonical_engine_name("complied")

    def test_validation_is_eager_at_every_construction_seam(self):
        with pytest.raises(UnknownEngineError):
            SoftmAPMapping(BEST_PRECISION, 16, engine="vectorised")
        with pytest.raises(UnknownEngineError):
            ApCluster(num_heads=2, sequence_length=16, engine="vectorised")
        with pytest.raises(UnknownEngineError):
            ExecutionPlan(sequence_length=16, engine="cuda")
        with pytest.raises(UnknownEngineError):
            BackendSpec(name="ap-batch", engine="refrence")
        with pytest.raises(UnknownEngineError):
            AssociativeProcessor2D(rows=2, columns=8, engine="packed")

    def test_compiled_is_selectable_at_every_construction_seam(self):
        assert SoftmAPMapping(BEST_PRECISION, 16, engine="compiled").engine == (
            "compiled"
        )
        assert ApCluster(
            num_heads=2, sequence_length=16, engine="compiled"
        ).engine == "compiled"
        assert ExecutionPlan(sequence_length=16, engine="compiled").engine == (
            "compiled"
        )
        assert BackendSpec(name="ap-batch", engine="compiled").engine == "compiled"

    def test_processor_seams_reject_the_plan_only_engine(self):
        """The compiled engine has no per-operation CAM-sweep mode: the
        processor constructors and execute_on_ap must refuse it with the
        same did-you-mean error family as a typo."""
        with pytest.raises(UnknownEngineError):
            AssociativeProcessor2D(rows=2, columns=8, engine="compiled")
        with pytest.raises(UnknownEngineError):
            ExecutionPlan(sequence_length=8).execute_on_ap(
                np.zeros((1, 8)), engine="compiled"
            )

    def test_every_engine_seam_spells_the_keyword_engine(self):
        """One vocabulary: ``backend`` names a softmax backend only, so no
        seam that selects a functional AP engine may call it that."""
        seams = (
            AssociativeProcessor,
            AssociativeProcessor2D,
            SoftmAPMapping,
            SoftmAPMapping.execute_functional,
            SoftmAPMapping.execute_functional_batch,
            ApCluster,
            ApCluster.execute,
            ApCluster.execute_rows,
            ApDeployment.cluster,
            IntegerSoftmax.forward_on_ap,
            run_table2,
        )
        for seam in seams:
            parameters = inspect.signature(seam).parameters
            assert "engine" in parameters, seam
            assert "backend" not in parameters, seam

    def test_unknown_engine_is_a_value_error(self):
        """Callers catching the historical ValueError keep working."""
        assert issubclass(UnknownEngineError, ValueError)


class TestPlanTelemetry:
    def test_cluster_result_carries_plan_telemetry(self, rng):
        backend = resolve_backend("ap-cluster", num_heads=2, sequence_length=8)
        result = backend.run(rng.normal(0.0, 2.0, size=(2, 2, 8)))
        assert result.plan is not None
        assert result.plan.fused and result.plan.engine == "vectorized"
        assert result.plan.passes == 1
        assert result.plan.vectors == 4
        assert result.plan.segment_length == 8
        assert result.plan.words_per_pass == (32,)

    def test_ap_batch_result_carries_plan_telemetry(self, rng):
        backend = resolve_backend("ap-batch", sequence_length=8)
        result = backend.run(rng.normal(0.0, 2.0, size=(3, 8)))
        assert result.plan is not None
        assert result.plan.passes == 1 and result.plan.vectors == 3

    def test_fused_flag_reports_the_actual_execution_path(self, rng):
        """fused must be False when the reference engine interprets the
        program on the AP instead of the packed fast path running."""
        cluster = ApCluster(num_heads=2, sequence_length=8)
        assert cluster.plan_telemetry(4, 8).fused
        assert not cluster.plan_telemetry(4, 8, engine="reference").fused
        backend = resolve_backend(
            "ap-batch", sequence_length=8, engine="reference"
        )
        result = backend.run(rng.normal(0.0, 2.0, size=(2, 8)))
        assert result.plan is not None and not result.plan.fused

    def test_tiled_runs_flow_through_the_cluster_schedule(
        self, monkeypatch, rng
    ):
        """Planner passes are priced, not executed: a 3-pass run is one
        plan call and one compiled-engine run."""
        scores = rng.normal(0.0, 2.0, size=(3, 2, 8))
        unbudgeted = resolve_backend(
            "ap-cluster", num_heads=2, sequence_length=8, engine="compiled"
        ).run(scores)
        backend = resolve_backend(
            "ap-cluster",
            num_heads=2,
            sequence_length=8,
            engine="compiled",
            options={"pass_row_budget": 16},
        )
        executes = _count_calls(monkeypatch, ExecutionPlan, "execute")
        runs = _count_calls(monkeypatch, CompiledEngine, "run")
        result = backend.run(scores)
        assert (len(executes), len(runs)) == (1, 1)
        assert np.array_equal(result.probabilities, unbudgeted.probabilities)
        assert result.plan.passes == 3
        assert result.plan.words_per_pass == (16, 16, 16)
        schedule = backend.cluster.schedule(3, sequence_length=8)
        assert result.cost.latency_s == pytest.approx(schedule.latency_s)
        one_pass = backend.cluster.cost(sequence_length=8)
        assert result.cycles == 3 * one_pass.cycles
        # The pipeline overlaps load under compute, so three passes cost
        # less than three sequential passes but more than one.
        assert one_pass.latency_s < result.cost.latency_s
        assert result.cost.latency_s < 3 * one_pass.latency_s
        # Energy is workload-sized, not pass-sized: same vectors, same total.
        assert result.cost.energy_j == pytest.approx(one_pass.energy_j * 3)

    def test_one_dimensional_over_budget_vector_rejected_eagerly(
        self, monkeypatch
    ):
        """A 1-D vector that exceeds the pass budget must be rejected by
        the planner before any execution, like the fused 2-D/3-D paths."""
        backend = resolve_backend(
            "ap-cluster",
            num_heads=2,
            sequence_length=16,
            options={"pass_row_budget": 8},
        )
        executes = _count_calls(monkeypatch, ExecutionPlan, "execute")
        with pytest.raises(ValueError, match="segment does not fit"):
            backend.run(np.zeros(16))
        assert not executes
        assert backend.telemetry.calls == 0  # nothing executed or recorded

    def test_row_backend_has_no_plan(self, rng):
        result = resolve_backend("ap", sequence_length=8).run(
            rng.normal(0.0, 2.0, size=(2, 8))
        )
        assert result.plan is None

    def test_compiled_telemetry_reports_the_arena(self, rng):
        backend = resolve_backend(
            "ap-cluster", num_heads=2, sequence_length=8, engine="compiled"
        )
        result = backend.run(rng.normal(0.0, 2.0, size=(2, 2, 8)))
        assert result.plan.fused and result.plan.engine == "compiled"
        plan = backend.cluster.mapping.plan(sequence_length=8)
        # The arena that exists: the buffer-plan slots plus the temp rows,
        # each a row of uint64 words, plus one bool row (one 1024-word
        # allocation for this 32-word workload).
        assert result.plan.arena_slots == plan.buffers.num_slots + TEMP_SLOTS
        assert result.plan.arena_bytes == (
            result.plan.arena_slots * 1024 * 8 + 1024
        )
        # The packed path runs fused but allocates per call: no arena.
        vectorized = resolve_backend(
            "ap-cluster", num_heads=2, sequence_length=8, engine="vectorized"
        ).run(rng.normal(0.0, 2.0, size=(2, 2, 8)))
        assert vectorized.plan.fused
        assert vectorized.plan.arena_slots == 0
        assert vectorized.plan.arena_bytes == 0
        # The reference engine interprets on the AP: no arena, not fused.
        reference = resolve_backend(
            "ap-cluster", num_heads=2, sequence_length=8, engine="reference"
        ).run(rng.normal(0.0, 2.0, size=(2, 2, 8)))
        assert not reference.plan.fused
        assert reference.plan.arena_slots == 0
        assert reference.plan.arena_bytes == 0


class TestExecutionSubstrates:
    def test_execute_on_ap_matches_fused_packed_path(self, rng):
        plan = ExecutionPlan(sequence_length=12)
        scores = rng.normal(0.0, 2.0, size=(4, 12))
        lengths = np.array([1, 5, 12, 7])
        fused = plan.execute(scores, valid_lengths=lengths, engine="vectorized")
        on_ap = plan.execute_on_ap(
            scores, valid_lengths=lengths, engine="vectorized"
        )
        reference = plan.execute_on_ap(
            scores, valid_lengths=lengths, engine="reference"
        )
        assert np.array_equal(fused, on_ap)
        assert np.array_equal(fused, reference)


class TestCacheTiles:
    """``execute`` runs a call as cache tiles of whole segments; every tile
    size must give the bits of one tile larger than the whole call."""

    @staticmethod
    def tiled_and_whole(monkeypatch, plan, scores, lengths, engine, tile_words):
        monkeypatch.setattr(plan_module, "_TILE_WORDS", tile_words)
        tiled = plan.execute(scores, valid_lengths=lengths, engine=engine)
        monkeypatch.setattr(plan_module, "_TILE_WORDS", scores.size)
        whole = plan.execute(scores, valid_lengths=lengths, engine=engine)
        return tiled, whole

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "compiled"])
    @pytest.mark.parametrize(
        "rows, seq",
        [
            (21, 8),   # 64-word tiles of 8 rows: 8 + 8 + 5
            (10, 13),  # odd length, 4 rows per tile: 4 + 4 + 2
            (3, 80),   # a segment longer than the tile: one row per tile
        ],
    )
    def test_tiles_are_bit_identical_to_one_tile(
        self, monkeypatch, rng, engine, rows, seq
    ):
        plan = ExecutionPlan(sequence_length=seq)
        scores = rng.normal(0.0, 3.0, size=(rows, seq))
        lengths = rng.integers(1, seq + 1, size=rows)
        lengths[0], lengths[-1] = 1, seq
        for valid in (lengths, None):
            tiled, whole = self.tiled_and_whole(
                monkeypatch, plan, scores, valid, engine, 64
            )
            assert np.array_equal(tiled, whole)
            assert tiled.shape == (rows, seq)

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "compiled"])
    @pytest.mark.parametrize(
        "seq, lengths",
        [
            (12, np.tile(np.arange(1, 13), 3)),  # three causal 12x12 blocks
            (8, np.ones(150, dtype=np.int64)),    # length-1 rows: 64 + 64 + 22
            (80, np.array([80, 3, 70, 1, 80, 65, 10])),  # 80, 70, 65 > a tile
        ],
        ids=["causal", "length-one", "longer-than-a-tile"],
    )
    def test_ragged_rows_equal_each_row_run_alone(
        self, monkeypatch, rng, engine, seq, lengths
    ):
        """Each vector's output depends only on its valid prefix: a tiled
        ragged call equals one tile, and each row equals its prefix run
        unpadded in a plan of its own length, zeros beyond it."""
        plan = ExecutionPlan(sequence_length=seq)
        scores = rng.normal(0.0, 3.0, size=(len(lengths), seq))
        tiled, whole = self.tiled_and_whole(
            monkeypatch, plan, scores, lengths, engine, 64
        )
        assert np.array_equal(tiled, whole)
        for length in np.unique(lengths):
            rows = lengths == length
            alone = ExecutionPlan(sequence_length=int(length)).execute(
                scores[rows, :length], engine=engine
            )
            assert np.array_equal(tiled[rows, :length], alone)
            assert not tiled[rows, length:].any()

    def test_unpadded_and_padded_tiles_mix(self, monkeypatch, rng):
        """A tile whose rows are all full length is raveled, not gathered,
        while its neighbours are padded."""
        plan = ExecutionPlan(sequence_length=8)
        scores = rng.normal(0.0, 3.0, size=(20, 8))
        lengths = np.full(20, 8)
        lengths[9:] = rng.integers(1, 9, size=11)
        lengths[12] = 1
        for engine in ("reference", "vectorized", "compiled"):
            tiled, whole = self.tiled_and_whole(
                monkeypatch, plan, scores, lengths, engine, 64
            )
            assert np.array_equal(tiled, whole)

    @pytest.mark.parametrize("tile_words", [64, None])
    def test_compiled_engine_runs_once_per_tile(
        self, monkeypatch, rng, tile_words
    ):
        """Tiles are whole vectors holding at most ``_TILE_WORDS`` valid
        words, one vector alone when it is longer, each tile as full as the
        next vector allows."""
        if tile_words is not None:
            monkeypatch.setattr(plan_module, "_TILE_WORDS", tile_words)
        limit = plan_module._TILE_WORDS
        tiles = []
        run = CompiledEngine.run

        def counting(engine, z, starts, lengths):
            tiles.append(lengths.copy())
            return run(engine, z, starts, lengths)

        monkeypatch.setattr(CompiledEngine, "run", counting)
        for rows, seq, causal in (
            (1000, 128, False), (21, 8, False), (3, 40000, False), (5, 1, False),
            (768, 256, True), (40, 8, True),
        ):
            lengths = np.tile(np.arange(1, seq + 1), rows // seq) if causal else None
            plan = ExecutionPlan(sequence_length=seq)
            tiles.clear()
            plan.execute(
                rng.normal(0.0, 3.0, size=(rows, seq)),
                valid_lengths=lengths,
                engine="compiled",
            )
            expected = np.full(rows, seq) if lengths is None else lengths
            assert np.array_equal(np.concatenate(tiles), expected), (rows, seq)
            for tile, after in zip(tiles, tiles[1:] + [None]):
                assert tile.sum() <= limit or len(tile) == 1
                if after is not None:
                    assert tile.sum() + after[0] > limit
            if not causal:
                assert len(tiles) == math.ceil(rows / max(1, limit // seq))

    def test_compiled_engine_receives_only_valid_words(self, monkeypatch, rng):
        words = []
        run = CompiledEngine.run

        def counting(engine, z, *segments):
            words.append(z.size)
            return run(engine, z, *segments)

        monkeypatch.setattr(CompiledEngine, "run", counting)
        seq = 64
        plan = ExecutionPlan(sequence_length=seq)
        scores = rng.normal(0.0, 3.0, size=(4 * seq, seq))
        causal = np.tile(np.arange(1, seq + 1), 4)
        plan.execute(scores, valid_lengths=causal, engine="compiled")
        assert sum(words) == causal.sum()
        words.clear()
        plan.execute(scores, engine="compiled")
        assert sum(words) == scores.size

    def test_arena_holds_at_most_one_tile(self, monkeypatch, rng):
        monkeypatch.setattr(plan_module, "_TILE_WORDS", 1024)
        plan = ExecutionPlan(sequence_length=64)
        plan.execute(rng.normal(0.0, 3.0, size=(64, 64)), engine="compiled")
        executor = plan.plan_executor("compiled")
        assert executor.arena_slots == plan.buffers.num_slots + TEMP_SLOTS
        assert executor.arena_bytes == executor.arena_slots * 1024 * 8 + 1024

    def test_lengths_of_the_wrong_shape_raise_before_any_tile(
        self, monkeypatch, rng
    ):
        monkeypatch.setattr(plan_module, "_TILE_WORDS", 64)
        plan = ExecutionPlan(sequence_length=8)
        scores = rng.normal(0.0, 3.0, size=(21, 8))
        calls = []
        monkeypatch.setattr(
            CompiledEngine, "run", lambda *args: calls.append(args)
        )
        for lengths in (np.full(22, 8), np.full(20, 8)):
            with pytest.raises(ValueError, match="valid_lengths must have shape"):
                plan.execute(scores, valid_lengths=lengths, engine="compiled")
        lengths = np.full(21, 8)
        lengths[-1] = 9  # out of range in the last tile only
        with pytest.raises(ValueError, match="1..seq"):
            plan.execute(scores, valid_lengths=lengths, engine="compiled")
        assert calls == []

    def test_prefill_shape_matches_the_integer_pipeline(self, rng):
        """At the real tile size, perfbench's T = 256 prefill call (4 heads
        x 2 segments x 256 causal rows) crosses 16 tiles."""
        seq = 256
        scores = rng.standard_normal((8 * seq, seq)) * 3.0
        lengths = np.tile(np.arange(1, seq + 1), 8)
        assert 8 * seq > plan_module._TILE_WORDS // seq
        cluster = resolve_backend(
            "ap-cluster", num_heads=4, sequence_length=seq, engine="compiled"
        )
        integer = resolve_backend(
            "integer", options={"barrett_correction": False}
        )
        assert np.array_equal(
            cluster.run(scores, valid_lengths=lengths).probabilities,
            integer.run(scores, valid_lengths=lengths).probabilities,
        )
