"""Tests for the unified softmax-backend API (repro.runtime.backend)."""

import numpy as np
import pytest

from repro.gpu.softmax_model import GpuSoftmaxModel
from repro.gpu.spec import A100, RTX3090
from repro.llm.model import causal_batched_softmax
from repro.llm.perplexity import evaluate_perplexity
from repro.mapping.cluster import ApCluster
from repro.mapping.plan import ExecutionPlan
from repro.mapping.softmap import SoftmAPMapping
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.runtime.backend import (
    BACKEND_NAMES,
    BackendCost,
    BackendSpec,
    SoftmaxBackend,
    UnknownBackendError,
    canonical_backend_name,
    resolve_backend,
)
from repro.softmax.integer_softmax import IntegerSoftmax
from repro.softmax.reference import softmax


@pytest.fixture
def scores(rng):
    return rng.normal(0.0, 2.0, size=(6, 16))


@pytest.fixture
def lengths():
    return np.array([1, 5, 16, 3, 2, 8])


class TestResolution:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_name_resolves(self, name):
        backend = resolve_backend(name, num_heads=2, sequence_length=16)
        assert isinstance(backend, SoftmaxBackend)
        assert backend.spec.name == name

    def test_retired_aliases_are_unknown_names(self):
        for name in ("software", "software-batched", "fp", "fp32", "gpu"):
            with pytest.raises(UnknownBackendError):
                canonical_backend_name(name)

    def test_unknown_name_suggests_closest(self):
        with pytest.raises(UnknownBackendError, match="did you mean 'ap-cluster'"):
            resolve_backend("ap-clstr")
        with pytest.raises(UnknownBackendError, match="did you mean 'integer'"):
            canonical_backend_name("intger")

    def test_spec_round_trip_and_overrides(self):
        spec = BackendSpec(name="integer", precision=PrecisionConfig(8, 0, 16))
        backend = resolve_backend(spec)
        assert backend.spec is spec
        overridden = resolve_backend(spec, precision=PrecisionConfig(4, 0, 16))
        assert overridden.spec.precision.input_bits == 4

    def test_instances_pass_through(self):
        backend = resolve_backend("float")
        assert resolve_backend(backend) is backend
        with pytest.raises(ValueError):
            resolve_backend(backend, sequence_length=32)

    def test_third_party_protocol_backends_pass_through(self, scores):
        """Anything satisfying the SoftmaxBackend protocol must resolve —
        the protocol is the stated extension point for new backends."""
        from repro.runtime.backend import BackendTelemetry, SoftmaxResult

        class ConstantBackend:
            def __init__(self):
                self.spec = BackendSpec(name="float")
                self.telemetry = BackendTelemetry()

            def run(self, scores, valid_lengths=None):
                return SoftmaxResult(probabilities=np.asarray(scores) * 0.0)

            def softmax_fn(self):
                return lambda s: np.asarray(s) * 0.0

        backend = ConstantBackend()
        assert resolve_backend(backend) is backend

    def test_bad_engine_and_cluster_without_heads(self):
        with pytest.raises(ValueError):
            resolve_backend("ap-batch", engine="cuda")
        with pytest.raises(ValueError, match="num_heads"):
            resolve_backend("ap-cluster", sequence_length=16)


class TestProbabilityParity:
    """Every backend family must agree bit for bit with its legacy path."""

    def test_float_matches_reference_softmax(self, scores):
        result = resolve_backend("float").run(scores)
        assert np.array_equal(result.probabilities, softmax(scores))
        assert result.cost is None and result.cycles is None

    def test_integer_matches_software_pipeline(self, scores):
        backend = resolve_backend("integer", precision=BEST_PRECISION)
        expected = IntegerSoftmax(BEST_PRECISION)(scores)
        assert np.array_equal(backend.run(scores).probabilities, expected)

    def test_integer_masked_matches_per_row_prefixes(self, scores, lengths):
        backend = resolve_backend("integer")
        out = backend.run(scores, valid_lengths=lengths).probabilities
        software = IntegerSoftmax(BEST_PRECISION)
        for i, length in enumerate(lengths):
            assert np.array_equal(out[i, :length], software(scores[i, :length]))
            assert np.all(out[i, length:] == 0.0)

    def test_ap_batch_matches_mapping_and_raw_barrett(self, scores):
        backend = resolve_backend("ap-batch", sequence_length=16)
        out = backend.run(scores).probabilities
        mapping = SoftmAPMapping(
            BEST_PRECISION, sequence_length=16, engine="vectorized"
        )
        assert np.array_equal(out, mapping.execute_functional_batch(scores))
        raw = IntegerSoftmax(BEST_PRECISION, barrett_correction=False)(scores)
        assert np.array_equal(out, raw)

    def test_ap_row_matches_ap_batch(self, scores, lengths):
        row = resolve_backend("ap", sequence_length=16)
        batch = resolve_backend("ap-batch", sequence_length=16)
        assert np.array_equal(
            row.run(scores).probabilities, batch.run(scores).probabilities
        )
        assert np.array_equal(
            row.run(scores, valid_lengths=lengths).probabilities,
            batch.run(scores, valid_lengths=lengths).probabilities,
        )

    def test_ap_cluster_matches_legacy_adapter(self, rng):
        heads, batch, seq = 3, 4, 12
        tensor = rng.normal(0.0, 2.0, size=(batch, heads, seq))
        head_major = tensor.transpose(1, 0, 2).reshape(heads * batch, seq)
        cluster = ApCluster(num_heads=heads, sequence_length=seq)
        legacy = cluster.as_backend().softmax_fn()(head_major)
        backend = resolve_backend("ap-cluster", num_heads=heads, sequence_length=seq)
        assert np.array_equal(backend.run(head_major).probabilities, legacy)
        # The 3-D entry point agrees with the cluster's native execute().
        assert np.array_equal(
            backend.run(tensor).probabilities, cluster.execute(tensor)
        )

    def test_gpu_analytical_probabilities_are_float(self, scores):
        backend = resolve_backend("gpu-analytical", num_heads=2)
        result = backend.run(scores)
        assert np.array_equal(result.probabilities, softmax(scores))

    def test_one_dimensional_vectors(self, rng):
        vector = rng.normal(0.0, 2.0, size=11)
        raw = IntegerSoftmax(BEST_PRECISION, barrett_correction=False)(vector)
        for name in ("ap", "ap-batch"):
            out = resolve_backend(name, sequence_length=11).run(vector)
            assert out.probabilities.shape == vector.shape
            assert np.array_equal(out.probabilities, raw)
        cluster = resolve_backend("ap-cluster", num_heads=2, sequence_length=11)
        assert np.array_equal(cluster.run(vector).probabilities, raw)


class TestCostTelemetry:
    def test_ap_costs_attached(self, scores):
        backend = resolve_backend("ap-batch", sequence_length=16)
        result = backend.run(scores)
        assert result.cost is not None and result.cycles > 0
        assert result.cost.latency_s > 0 and result.cost.energy_j > 0
        assert result.cost.edp == pytest.approx(
            result.cost.latency_s * result.cost.energy_j
        )

    def test_ap_batch_energy_scales_with_rows_not_cycles(self, scores):
        backend = resolve_backend("ap-batch", sequence_length=16)
        one = backend.run(scores[:1])
        six = backend.run(scores)
        assert six.cycles == one.cycles
        assert six.cost.energy_j == pytest.approx(6 * one.cost.energy_j)

    def test_cluster_cost_uses_concurrency_accounting(self, rng):
        heads, batch, seq = 4, 2, 16
        tensor = rng.normal(0.0, 2.0, size=(batch, heads, seq))
        backend = resolve_backend("ap-cluster", num_heads=heads, sequence_length=seq)
        result = backend.run(tensor)
        expected = backend.cluster.cost(sequence_length=seq, batch=batch)
        assert result.cost.latency_s == pytest.approx(expected.latency_s)
        assert result.cost.energy_j == pytest.approx(expected.energy_j)

    def test_cluster_one_dimensional_charges_one_head_only(self, rng):
        """A 1-D vector executes on head 0 alone; its cost must be one
        per-head pass, independent of the cluster width."""
        vector = rng.normal(0.0, 2.0, size=16)
        wide = resolve_backend("ap-cluster", num_heads=4, sequence_length=16)
        narrow = resolve_backend("ap-cluster", num_heads=1, sequence_length=16)
        wide_result = wide.run(vector)
        narrow_result = narrow.run(vector)
        assert wide_result.cost.energy_j == pytest.approx(
            narrow_result.cost.energy_j
        )
        assert wide_result.cost.area_mm2 == pytest.approx(
            narrow_result.cost.area_mm2
        )
        assert wide_result.cycles == narrow_result.cycles

    def test_gpu_cost_matches_kernel_model(self, scores):
        backend = resolve_backend(
            "gpu-analytical", num_heads=2, options={"gpu": "RTX3090"}
        )
        result = backend.run(scores)
        kernel = GpuSoftmaxModel(RTX3090).decode_cost(3, 2, 16)
        assert result.cost.latency_s == pytest.approx(kernel.latency_s)
        assert result.cost.energy_j == pytest.approx(kernel.energy_j)

    def test_gpu_cost_exact_for_indivisible_row_counts(self, rng):
        """Rows not divisible by num_heads must still be costed exactly
        (no flooring): a (6, seq) tensor moves 6 rows, not 4."""
        backend = resolve_backend("gpu-analytical", num_heads=4)
        six = backend.run(rng.normal(0.0, 2.0, size=(6, 16)))
        kernel = GpuSoftmaxModel(A100).decode_cost(6, 1, 16)
        assert six.cost.energy_j == pytest.approx(kernel.energy_j)
        four = backend.run(rng.normal(0.0, 2.0, size=(4, 16)))
        assert six.cost.energy_j > four.cost.energy_j

    def test_telemetry_accumulates_and_resets(self, scores):
        backend = resolve_backend("ap-batch", sequence_length=16)
        backend.run(scores)
        backend.run(scores)
        assert backend.telemetry.calls == 2
        assert backend.telemetry.rows == 12
        assert backend.telemetry.energy_j > 0
        backend.telemetry.reset()
        assert backend.telemetry.calls == 0 and backend.telemetry.energy_j == 0.0

    def test_cluster_shim_exposes_runtime_telemetry(self, rng):
        backend = ApCluster(num_heads=2, sequence_length=8).as_backend()
        fn = backend.softmax_fn()
        fn(rng.normal(0.0, 2.0, size=(4, 8)))
        assert backend.telemetry.calls == 1 and backend.telemetry.energy_j > 0


class TestLegacyShims:
    """The parity the retired ``integer_softmax_fn`` /
    ``ap_cluster_softmax_fn`` shims promised, pinned on the backends'
    ``softmax_fn()`` adapters that replace them."""

    def test_integer_softmax_fn_batched_matches_unbatched(
        self, scores, lengths, per_prefix_reference
    ):
        config = PrecisionConfig(6, 0, 16)
        batched = resolve_backend("integer", precision=config).softmax_fn()
        reference = per_prefix_reference(IntegerSoftmax(config))
        assert np.array_equal(batched(scores), reference(scores))
        assert np.array_equal(
            batched(scores, valid_lengths=lengths),
            reference(scores, valid_lengths=lengths),
        )

    def test_ap_cluster_softmax_fn_matches_backend(self, rng):
        heads, t = 2, 6
        scores = rng.normal(0.0, 2.0, size=(heads * t, t))
        config = PrecisionConfig(6, 0, 16)
        backend = resolve_backend(
            "ap-cluster", num_heads=heads, precision=config, sequence_length=t
        )
        fn = backend.softmax_fn()
        assert np.array_equal(fn(scores), backend.run(scores).probabilities)
        with pytest.raises(ValueError, match="rows, seq"):
            fn(scores.reshape(heads, t, t))


class TestOneApCore:
    """ap-batch is the AP core on one AP, and ap one call over it priced
    per row."""

    ENGINES = ("reference", "vectorized", "compiled")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_ap_batch_run_equals_one_head_cluster_run_rows(
        self, scores, lengths, engine, masked
    ):
        valid = lengths if masked else None
        batch = resolve_backend("ap-batch", sequence_length=16, engine=engine)
        cluster = resolve_backend(
            "ap-cluster", num_heads=1, sequence_length=16, engine=engine
        )
        ours = batch.run(scores, valid_lengths=valid)
        theirs = cluster.run_rows(scores, valid_lengths=valid)
        assert np.array_equal(ours.probabilities, theirs.probabilities)
        assert ours.cost == theirs.cost
        assert ours.cycles == theirs.cycles
        assert ours.plan == theirs.plan

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_ap_run_equals_per_row_loop_over_the_core(
        self, monkeypatch, scores, lengths, engine, masked
    ):
        valid = lengths if masked else None
        row = resolve_backend("ap", sequence_length=16, engine=engine)
        cluster = resolve_backend(
            "ap-cluster", num_heads=1, sequence_length=16, engine=engine
        )
        calls = []
        execute = ExecutionPlan.execute

        def counting(*args, **kwargs):
            calls.append(args)
            return execute(*args, **kwargs)

        monkeypatch.setattr(ExecutionPlan, "execute", counting)
        ours = row.run(scores, valid_lengths=valid)
        assert len(calls) == 1  # all six rows in one ragged plan call
        expected = np.zeros_like(scores)
        latency = energy = cycles = 0.0
        for i in range(scores.shape[0]):
            n = 16 if valid is None else valid[i]
            part = cluster.run_rows(scores[i : i + 1, :n])
            expected[i, :n] = part.probabilities[0]
            latency += part.cost.latency_s
            energy += part.cost.energy_j
            cycles += part.cycles
        area = cluster.run_rows(scores[:1]).cost.area_mm2
        assert np.array_equal(ours.probabilities, expected)
        assert ours.cost == BackendCost(latency, energy, area)
        assert ours.cycles == cycles
        assert ours.plan is None

    @pytest.mark.parametrize("heads", [1, 4])
    def test_run_and_run_rows_cost_one_vector_alike(self, rng, heads):
        vector = rng.normal(0.0, 2.0, size=16)
        backend = resolve_backend(
            "ap-cluster", num_heads=heads, sequence_length=16
        )
        one = backend.run(vector)
        rows = backend.run_rows(vector[None])
        assert np.array_equal(one.probabilities, rows.probabilities[0])
        assert one.cost == rows.cost
        assert one.cycles == rows.cycles
        assert one.plan == rows.plan


class TestIntegerLengths:
    """A float, bool or string ``valid_lengths`` is refused at every library
    seam, not cast (a cast serves 2.7 as 2, True as 1 and "3" as 3)."""

    SEAMS = [
        f"{name}.{method}"
        for name in ("float", "integer", "ap", "ap-batch", "ap-cluster")
        for method in ("run", "run_rows")
    ] + [
        "ApCluster.execute",
        "ApCluster.execute_rows",
        "ExecutionPlan.execute",
        "IntegerSoftmax.forward",
        "causal_batched_softmax",
    ]

    @staticmethod
    def call(seam, scores, lengths):
        if seam == "ApCluster.execute":
            cluster = ApCluster(num_heads=1, sequence_length=4)
            return cluster.execute(scores[:, None, :], valid_lengths=lengths)
        if seam == "ApCluster.execute_rows":
            cluster = ApCluster(num_heads=1, sequence_length=4)
            return cluster.execute_rows(scores, valid_lengths=lengths)
        if seam == "ExecutionPlan.execute":
            plan = ExecutionPlan(sequence_length=4)
            return plan.execute(scores, valid_lengths=lengths)
        if seam == "IntegerSoftmax.forward":
            return IntegerSoftmax().forward(scores, valid_lengths=lengths)
        if seam == "causal_batched_softmax":
            return causal_batched_softmax(
                scores, lambda rows, valid_lengths: softmax(rows),
                valid_lengths=lengths,
            )
        name, method = seam.split(".")
        backend = resolve_backend(name, sequence_length=4, num_heads=1)
        return getattr(backend, method)(scores, valid_lengths=lengths)

    @pytest.mark.parametrize(
        "lengths", [[2.7], [True], ["3"]], ids=["float", "bool", "str"]
    )
    @pytest.mark.parametrize("seam", SEAMS)
    def test_non_integer_lengths_raise(self, seam, lengths):
        scores = np.array([[0.0, 1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="must be integers"):
            self.call(seam, scores, lengths)
        assert self.call(seam, scores, [3]) is not None


class TestModelIntegration:
    @pytest.fixture(scope="class")
    def trained(self):
        from repro.experiments.table3_4_perplexity import train_reference_model

        return train_reference_model(training_steps=40)

    def test_forward_backend_matches_softmax_fn(self, trained):
        model, corpus = trained
        tokens = corpus.validation_tokens[:24]
        config = PrecisionConfig(8, 0, 16)
        via_fn = model.forward(
            tokens,
            softmax_fn=resolve_backend("integer", precision=config).softmax_fn(),
        ).numpy()
        via_backend = model.forward(
            tokens, backend=BackendSpec(name="integer", precision=config)
        ).numpy()
        assert np.array_equal(via_fn, via_backend)
        with pytest.raises(ValueError):
            model.forward(
                tokens,
                softmax_fn=resolve_backend("integer").softmax_fn(),
                backend="integer",
            )

    def test_perplexity_ap_cluster_backend_parity_pinned(self, trained):
        """Acceptance pin: the 'ap-cluster' backend selected by name must be
        bit-identical (identical perplexity float) to the same backend
        resolved by hand and passed as a softmax_fn."""
        model, corpus = trained
        tokens = corpus.validation_tokens[:97]
        config = PrecisionConfig(8, 0, 16)
        legacy = evaluate_perplexity(
            model,
            tokens,
            segment_length=48,
            softmax_fn=resolve_backend(
                "ap-cluster",
                num_heads=model.config.num_heads,
                precision=config,
                sequence_length=model.config.max_context,
            ).softmax_fn(),
        )
        unified = evaluate_perplexity(
            model,
            tokens,
            segment_length=48,
            backend=BackendSpec(name="ap-cluster", precision=config),
        )
        assert unified == legacy  # exact float equality, not approx

    def test_perplexity_sweep_rejects_precision_ignoring_backends(self):
        """The Tables III/IV sweep varies PrecisionConfig per row; backends
        that ignore it (float, gpu-analytical) would silently report the FP
        baseline everywhere and must be rejected before training starts."""
        from repro.experiments.table3_4_perplexity import run_perplexity_sweep

        for name in ("float", "gpu-analytical"):
            with pytest.raises(ValueError, match="ignores the per-point"):
                run_perplexity_sweep(softmax_backend=name)
        with pytest.raises(UnknownBackendError):
            run_perplexity_sweep(softmax_backend="fp")

    def test_perplexity_rejects_both_selectors(self, trained):
        model, corpus = trained
        with pytest.raises(ValueError):
            evaluate_perplexity(
                model,
                corpus.validation_tokens[:10],
                segment_length=8,
                softmax_fn=resolve_backend("integer").softmax_fn(),
                backend="integer",
            )
