"""The benchmark's workloads, driven through the public ``repro`` APIs.

Every workload pins the ``compiled`` AP engine and derives all of its
inputs from the ``--seed``.  Each one provides:

* ``setup()`` — construction plus the first cold call (timed by ``run.py``),
  undone by ``release(state)`` and ``close()``;
* ``measure(state, seconds)`` — the untraced timed window, returning a
  :class:`Measurement` whose outputs are checked outside the timed calls;
* ``traced(state, seconds)`` — a fixed amount of work run untraced and
  traced twice each (interleaved), returning per-layer metrics.

Workloads
---------
``prefill``
    Closed loop, one caller: causal head-major score matrices (4 heads x
    2 segments x T rows of length T, T drawn uniformly from 64/128/256,
    tiled causal ``valid_lengths``) run through ``ap-cluster`` backends at
    all six paper precisions.
``decode``
    Closed loop, one caller: ``TinyLlamaModel.generate`` (8 prompts x 96
    tokens + 64 new, 2 layers, 4 heads, hidden 128) with the ``ap-cluster``
    attention softmax.
``serve``
    A ``SoftmaxServer`` with the ``repro serve`` defaults, fed seeded
    Poisson arrivals (500 requests/s, open loop) followed by a closed loop
    of 128 outstanding requests that measures capacity.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import statistics
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.llm.config import LlamaConfig
from repro.llm.model import TinyLlamaModel
from repro.quant.precision import PrecisionConfig
from repro.runtime.backend import BackendSpec, resolve_backend
from repro.serve.server import SoftmaxServer

from tracing import Tracer, instrument

ENGINE = "compiled"
SCORE_SCALE = 3.0
HEADS = 4

#: Counts that must repeat exactly between two runs of the same code on the
#: same inputs (flagged when they do not).
EXACT_COUNTS = (
    "sim.cycles", "sim.energy_j", "mapping.plan.compiles", "runtime.calls",
    "ap.compiled.calls", "ap.compiled.words",
)

#: Per-layer metric -> unit, reported by every workload's traced run.  Times
#: that only some workloads can spend (plan compiles, the LLM and serving
#: layers) are reported as shares so that an idle layer reads as 0 of a
#: ratio rather than as a zero time.
LAYER_UNITS: Dict[str, str] = {
    "runtime.calls": "count",
    "runtime.self_s": "s",
    "mapping.cluster.passes": "count",
    "mapping.cluster.self_s": "s",
    "mapping.plan.lookups": "count",
    "mapping.plan.compiles": "count",
    "mapping.plan.hit_ratio": "ratio",
    "mapping.plan.lookup_s": "s",
    "mapping.plan.compile_frac": "ratio",
    "mapping.plan.execute_self_s": "s",
    "quant.quantize_s": "s",
    "ap.compiled.calls": "count",
    "ap.compiled.s": "s",
    "ap.compiled.words": "count",
    "ap.compiled.ns_per_word": "ns",
    "ap.compiled.arena_bytes": "B",
    "ap.compiled.arena_grows": "count",
    "sim.cycles": "cycles",
    "sim.energy_j": "J",
    "llm.softmax_calls": "count",
    "llm.softmax_frac": "ratio",
    "llm.self_frac": "ratio",
    "serve.ticks": "count",
    "serve.requests_per_tick": "req/tick",
    "serve.rows_per_tick": "rows/tick",
    "serve.pad_efficiency": "ratio",
    "serve.worker_busy_frac": "ratio",
    "serve.ticks.capacity": "count",
    "serve.requests_per_tick.capacity": "req/tick",
    "serve.rows_per_tick.capacity": "rows/tick",
    "serve.pad_efficiency.capacity": "ratio",
    "serve.worker_busy_frac.capacity": "ratio",
    "serve.gen_late_frac": "ratio",
    "serve.queue_wait_frac": "ratio",
    "serve.service_frac": "ratio",
    "serve.handoff_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


# --------------------------------------------------------------------------- #
# Shared helpers                                                               #
# --------------------------------------------------------------------------- #
def digest(array_: np.ndarray) -> int:
    """A bit-exact fingerprint of an output array (shape and bytes)."""
    return hash((array_.shape, array_.dtype.str, array_.tobytes()))


@dataclass
class Measurement:
    """What one untraced timed window produced."""

    attempted: int = 0
    failed: int = 0
    #: Units of work per second of timed work (rows, tokens or requests).
    throughput: float = 0.0
    #: Per-operation latencies in seconds, in the order sent (inf = failed).
    latencies: List[float] = field(default_factory=list)
    #: Extra reported values: name -> (value, unit).
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)


@dataclass
class TraceResult:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    extras: Dict[str, Tuple[float, str]]
    flags: List[str]
    tracer: Tracer


def inputs_digest(arrays) -> str:
    """A stable fingerprint of a workload's generated inputs, comparable
    across processes: the same seed must give the same digest."""
    hasher = hashlib.sha256()
    for item in arrays:
        item = np.ascontiguousarray(item)
        hasher.update(str(item.shape).encode())
        hasher.update(item.tobytes())
    return hasher.hexdigest()[:16]


def percentile(values, q: float) -> float:
    data = np.asarray(values, dtype=np.float64)
    return float(np.percentile(data, q)) if data.size else 0.0


def common_layer_metrics(tracer: Tracer, e2e_s: float) -> Dict[str, float]:
    """Per-layer metrics of the layers every workload goes through."""
    self_s = tracer.self_seconds()
    counts, totals = tracer.counts, tracer.totals
    lookups = counts["mapping.plan.lookups"]
    compiles = counts["mapping.plan.compiles"]
    words = counts["ap.compiled.words"]
    return {
        "runtime.calls": counts["runtime.calls"],
        "runtime.self_s": self_s["runtime"],
        "mapping.cluster.passes": counts["mapping.cluster.passes"],
        "mapping.cluster.self_s": self_s["mapping.cluster"],
        "mapping.plan.lookups": lookups,
        "mapping.plan.compiles": compiles,
        "mapping.plan.hit_ratio": 1.0 - compiles / lookups if lookups else 0.0,
        "mapping.plan.lookup_s": self_s["mapping.plan"],
        "mapping.plan.compile_s": self_s["mapping.plan.compile"],
        "mapping.plan.compile_frac": self_s["mapping.plan.compile"] / e2e_s,
        "mapping.plan.execute_self_s": self_s["mapping.plan.execute"],
        "quant.quantize_s": self_s["quant.quantize"],
        "ap.compiled.calls": counts["ap.compiled.calls"],
        "ap.compiled.s": self_s["ap.compiled"],
        "ap.compiled.words": words,
        "ap.compiled.ns_per_word": self_s["ap.compiled"] * 1e9 / words if words else 0.0,
        "ap.compiled.arena_bytes": totals["ap.compiled.arena_bytes"],
        "ap.compiled.arena_grows": counts["ap.compiled.arena_grows"],
        "sim.cycles": counts["sim.cycles"],
        "sim.energy_j": totals["sim.energy_j"],
    }


def idle_layers(metrics: Dict[str, float], *prefixes: str) -> None:
    """Zero the metrics of layers this workload never enters."""
    for name in LAYER_UNITS:
        if name.startswith(prefixes):
            metrics[name] = 0


def merge_reps(
    reps: List[Dict[str, float]], untraced_s: List[float], traced_s: List[float],
    compare: bool,
) -> Tuple[Dict[str, float], List[str]]:
    """Combine two traced reps: counts from the first, everything else as
    the mean; flag exact counts that differ between the reps."""
    first, second = reps
    merged = {}
    for name, value in first.items():
        if LAYER_UNITS.get(name) == "count":
            merged[name] = value
        else:
            merged[name] = (value + second[name]) / 2.0
    flags = []
    if compare:
        for name in EXACT_COUNTS:
            if first[name] != second[name]:
                flags.append(f"{name} differs between traced runs: {first[name]!r} vs {second[name]!r}")
    merged["trace.overhead_frac"] = sum(traced_s) / sum(untraced_s) - 1.0
    return merged, flags


class _Workload:
    """Workloads whose set-up state needs no explicit release."""

    def release(self, state) -> None:
        pass

    def close(self) -> None:
        pass


def interleaved(
    run_once: Callable[[Optional[Tracer]], Tuple[Any, float]],
) -> Tuple[List[float], List[float], List[Tuple[Tracer, Any, float]]]:
    """Run the fixed trace script untraced, traced, untraced, traced.

    ``run_once`` returns its outputs and the seconds it spent checking them;
    each rep's wall time excludes those seconds.  Returns the untraced and
    traced wall times and, per traced rep, its tracer, outputs and wall time.
    """
    untraced, traced, results = [], [], []
    for _ in range(2):
        start = time.perf_counter()
        _, check_s = run_once(None)
        untraced.append(time.perf_counter() - start - check_s)
        tracer = Tracer()
        with instrument(tracer):
            start = time.perf_counter()
            outputs, check_s = run_once(tracer)
            traced.append(time.perf_counter() - start - check_s)
        results.append((tracer, outputs, traced[-1]))
    return untraced, traced, results


def coverage(tracer: Tracer, wall_s: float) -> float:
    """Share of a traced rep's wall time that the layers' self times explain;
    time spent outside every wrapped layer lowers it."""
    return sum(tracer.self_seconds().values()) / wall_s


# --------------------------------------------------------------------------- #
# prefill                                                                      #
# --------------------------------------------------------------------------- #
PREFILL_SEGMENTS = 2
#: Each call draws its T uniformly from these lengths.
PREFILL_LENGTHS = (64, 128, 256)
PREFILL_POOL = 2
PRECISIONS = tuple(
    PrecisionConfig(input_bits=m, sum_extra_bits=n) for m in (4, 6, 8) for n in (8, 16)
)


class Prefill(_Workload):
    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0])
        self.seed = seed
        self.pool = {
            t: [
                (
                    rng.standard_normal((HEADS * PREFILL_SEGMENTS * t, t)) * SCORE_SCALE,
                    np.tile(np.arange(1, t + 1), HEADS * PREFILL_SEGMENTS),
                )
                for _ in range(PREFILL_POOL)
            ]
            for t in PREFILL_LENGTHS
        }
        self._references: Dict[Tuple[int, int, int], int] = {}

    def inputs_digest(self) -> str:
        return inputs_digest(a for t in PREFILL_LENGTHS for pair in self.pool[t] for a in pair)

    def setup(self):
        backends = [
            resolve_backend(
                "ap-cluster", precision=p, num_heads=HEADS,
                sequence_length=max(PREFILL_LENGTHS), engine=ENGINE,
            )
            for p in PRECISIONS
        ]
        for backend in backends:
            for t in PREFILL_LENGTHS:
                scores, lengths = self.pool[t][0]
                backend.run(scores, valid_lengths=lengths)
        return backends

    def _ops(self, stream: int) -> Iterator[Tuple[int, int]]:
        rng = np.random.default_rng([self.seed, stream])
        while True:
            t = PREFILL_LENGTHS[int(rng.integers(len(PREFILL_LENGTHS)))]
            yield t, int(rng.integers(PREFILL_POOL))

    def _reference(self, t: int, index: int, precision: int) -> int:
        key = (t, index, precision)
        if key not in self._references:
            scores, lengths = self.pool[t][index]
            reference = resolve_backend(
                "integer", precision=PRECISIONS[precision],
                options={"barrett_correction": False},
            )
            probabilities = reference.run(scores, valid_lengths=lengths).probabilities
            self._references[key] = digest(probabilities)
        return self._references[key]

    def measure(self, backends, seconds: float) -> Measurement:
        for t in PREFILL_LENGTHS:
            for index in range(PREFILL_POOL):
                for precision in range(len(PRECISIONS)):
                    self._reference(t, index, precision)
        result = Measurement()
        by_shape: Dict[Tuple[int, int], List[float]] = {}
        ops = self._ops(1)
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            t, index = next(ops)
            scores, lengths = self.pool[t][index]
            for precision, backend in enumerate(backends):
                result.attempted += 1
                start = time.perf_counter()
                try:
                    probabilities = backend.run(scores, valid_lengths=lengths).probabilities
                except Exception:  # noqa: BLE001 - a failed call is a counted failure
                    result.failed += 1
                    result.latencies.append(math.inf)
                    continue
                elapsed = time.perf_counter() - start
                result.latencies.append(elapsed)
                by_shape.setdefault((t, precision), []).append(elapsed)
                if digest(probabilities) != self._reference(t, index, precision):
                    result.failed += 1
        # Each call shape at its median time, weighted by how often the loop
        # ran it: a burst of host contention moves a median less than a sum.
        rows = sum(HEADS * PREFILL_SEGMENTS * t * len(v) for (t, _), v in by_shape.items())
        busy = sum(statistics.median(v) * len(v) for v in by_shape.values())
        result.throughput = rows / busy if busy else 0.0
        return result

    def traced(self, backends, seconds: float) -> TraceResult:
        ops = self._ops(2)
        script = [next(ops) for _ in range(max(4, int(3 * seconds)))]

        def run_once(tracer: Optional[Tracer]):
            outputs, check_s = [], 0.0
            for t, index in script:
                scores, lengths = self.pool[t][index]
                for precision, backend in enumerate(backends):
                    probabilities = backend.run(scores, valid_lengths=lengths).probabilities
                    start = time.perf_counter()
                    outputs.append((t, index, precision, digest(probabilities)))
                    check_s += time.perf_counter() - start
            return outputs, check_s

        untraced, traced, results = interleaved(run_once)
        reps, failed = [], 0
        for tracer, outputs, wall_s in results:
            failed += sum(d != self._reference(t, i, p) for t, i, p, d in outputs)
            metrics = common_layer_metrics(tracer, wall_s)
            idle_layers(metrics, "llm.", "serve.")
            metrics["trace.coverage"] = coverage(tracer, wall_s)
            reps.append(metrics)
        merged, flags = merge_reps(reps, untraced, traced, compare=True)
        return TraceResult(
            attempted=2 * len(script) * len(backends), failed=failed, metrics=merged,
            extras={"mapping.plan.compile_s": (merged["mapping.plan.compile_s"], "s")},
            flags=flags, tracer=results[0][0],
        )


# --------------------------------------------------------------------------- #
# decode                                                                       #
# --------------------------------------------------------------------------- #
DECODE_CONFIG = LlamaConfig(
    name="perfbench-decode", num_layers=2, num_heads=HEADS, num_kv_heads=HEADS,
    hidden_size=128, intermediate_size=256, vocab_size=128, max_context=256,
)
DECODE_BATCH = 8
DECODE_PROMPT = 96
DECODE_NEW_TOKENS = 64
DECODE_POOL = 3
DECODE_WARMUP = 2


class _StampedSoftmax:
    """The backend's batched ``softmax_fn`` plus one timestamp per call, so
    the gaps between decode steps are visible from outside ``generate``."""

    supports_batch = True

    def __init__(self, backend) -> None:
        self.backend = backend
        self.stamps: List[float] = []

    def __call__(self, scores, valid_lengths=None):
        self.stamps.append(time.perf_counter())
        return self.backend.run(scores, valid_lengths=valid_lengths).probabilities


class _TracedSoftmax:
    """The LLM layer's view of the softmax: one ``llm.softmax`` span per call."""

    supports_batch = True

    def __init__(self, backend, tracer: Tracer) -> None:
        self.backend = backend
        self.tracer = tracer

    def __call__(self, scores, valid_lengths=None):
        with self.tracer.span("llm.softmax"):
            self.tracer.counts["llm.softmax_calls"] += 1
            return self.backend.run(scores, valid_lengths=valid_lengths).probabilities


class Decode(_Workload):
    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0])
        self.seed = seed
        self.prompts = [
            rng.integers(0, DECODE_CONFIG.vocab_size, size=(DECODE_BATCH, DECODE_PROMPT))
            for _ in range(DECODE_POOL)
        ]
        self._references: Dict[int, np.ndarray] = {}

    def inputs_digest(self) -> str:
        weights = TinyLlamaModel(DECODE_CONFIG, seed=self.seed).state_dict()
        return inputs_digest(self.prompts + [weights[k] for k in sorted(weights)])

    def setup(self):
        model = TinyLlamaModel(DECODE_CONFIG, seed=self.seed)
        backend = resolve_backend(
            "ap-cluster", num_heads=HEADS, sequence_length=DECODE_CONFIG.max_context,
            engine=ENGINE,
        )
        model.generate(self.prompts[0], DECODE_NEW_TOKENS, softmax_fn=backend.softmax_fn())
        return model, backend

    def _reference(self, model, index: int) -> np.ndarray:
        if index not in self._references:
            self._references[index] = model.generate(
                self.prompts[index], DECODE_NEW_TOKENS,
                backend=resolve_backend("integer", options={"barrett_correction": False}),
            )
        return self._references[index]

    def measure(self, state, seconds: float) -> Measurement:
        model, backend = state
        softmax = _StampedSoftmax(backend)
        for index in range(DECODE_POOL):
            self._reference(model, index)
        for index in range(DECODE_WARMUP):
            model.generate(self.prompts[index % DECODE_POOL], DECODE_NEW_TOKENS, softmax_fn=softmax)
        result = Measurement()
        generate_s, index = [], 0
        layers = DECODE_CONFIG.num_layers
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            prompts = self.prompts[index % DECODE_POOL]
            softmax.stamps.clear()
            result.attempted += 1
            start = time.perf_counter()
            try:
                generated = model.generate(prompts, DECODE_NEW_TOKENS, softmax_fn=softmax)
            except Exception:  # noqa: BLE001 - a failed call is a counted failure
                result.failed += 1
                result.latencies.append(math.inf)
                index += 1
                continue
            generate_s.append(time.perf_counter() - start)
            # Calls 0..layers-1 are the prefill; then one call per layer per
            # step.  The gap between consecutive first-layer calls is the
            # time one decode step takes (one token for every prompt).
            step_starts = softmax.stamps[layers::layers]
            result.latencies.extend(np.diff(step_starts).tolist())
            if not np.array_equal(generated, self._reference(model, index % DECODE_POOL)):
                result.failed += 1
            index += 1
        tokens = DECODE_BATCH * DECODE_NEW_TOKENS
        result.throughput = tokens / statistics.median(generate_s) if generate_s else 0.0
        return result

    def traced(self, state, seconds: float) -> TraceResult:
        model, backend = state
        script = [i % DECODE_POOL for i in range(max(2, round(0.5 * seconds)))]

        def run_once(tracer: Optional[Tracer]):
            softmax = backend.softmax_fn() if tracer is None else _TracedSoftmax(backend, tracer)
            outputs = []
            for index in script:
                with nullcontext() if tracer is None else tracer.span("llm.generate"):
                    generated = model.generate(self.prompts[index], DECODE_NEW_TOKENS, softmax_fn=softmax)
                outputs.append((index, generated))
            return outputs, 0.0  # tokens are compared after the rep

        untraced, traced, results = interleaved(run_once)
        reps, failed = [], 0
        extras: Dict[str, Tuple[float, str]] = {}
        for tracer, outputs, wall_s in results:
            failed += sum(
                not np.array_equal(tokens, self._reference(model, i)) for i, tokens in outputs
            )
            metrics = common_layer_metrics(tracer, wall_s)
            idle_layers(metrics, "serve.")
            softmax_s = tracer.total_seconds("llm.softmax")
            generate_s = tracer.total_seconds("llm.generate")
            metrics["llm.softmax_calls"] = tracer.counts["llm.softmax_calls"]
            metrics["llm.softmax_frac"] = softmax_s / generate_s
            metrics["llm.self_frac"] = (generate_s - softmax_s) / generate_s
            metrics["trace.coverage"] = coverage(tracer, wall_s)
            metrics["llm.softmax_s"] = softmax_s
            metrics["llm.self_s"] = generate_s - softmax_s
            reps.append(metrics)
        merged, flags = merge_reps(reps, untraced, traced, compare=True)
        for name in ("mapping.plan.compile_s", "llm.softmax_s", "llm.self_s"):
            extras[name] = (merged[name], "s")
        return TraceResult(
            attempted=2 * len(script), failed=failed, metrics=merged, extras=extras,
            flags=flags, tracer=results[0][0],
        )


# --------------------------------------------------------------------------- #
# serve                                                                        #
# --------------------------------------------------------------------------- #
SERVE_SPEC = BackendSpec(
    name="ap-cluster", num_heads=HEADS, sequence_length=64, engine=ENGINE,
    options={"pass_row_budget": 4096},
)
#: Open-loop arrival rate.  At 2000 requests/s the 95th-percentile latency
#: spread over 0.25 of its median between runs on a shared 2-core host.
SERVE_RATE = 500.0
SERVE_MAX_WAIT_MS = 2.0
SERVE_MAX_BATCH_ROWS = 256
SERVE_ROWS = (1, 4)
SERVE_LENGTHS = (16, 32, 64)
SERVE_RAGGED = 0.5
SERVE_CLIENTS = 128
#: Share of ``--seconds`` spent in the closed capacity loop (the rest is the
#: open loop at the workload's arrival rate).  Every request is checked
#: afterwards, and the capacity loop sends the most requests per second.
SERVE_CAPACITY_SHARE = 0.1
SERVE_CAPACITY_CHUNK = 1000
SERVE_WARMUP_REQUESTS = 1000


def draw_request(rng: np.random.Generator) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One request of the ``LoadProfile`` default mix: 1-4 rows, length
    16/32/64, half of them with ragged per-row ``valid_lengths``."""
    rows = int(rng.integers(SERVE_ROWS[0], SERVE_ROWS[1] + 1))
    seq = SERVE_LENGTHS[int(rng.integers(len(SERVE_LENGTHS)))]
    scores = rng.standard_normal((rows, seq)) * SCORE_SCALE
    lengths = rng.integers(1, seq + 1, size=rows) if rng.random() < SERVE_RAGGED else None
    return scores, lengths


class _Sink:
    """Per-request outcomes in the order sent, kept compact: latency, generator
    lateness, completion time and a digest of the response (0 when the
    request failed)."""

    def __init__(self) -> None:
        self.latency = array("d")
        self.late = array("d")
        self.done = array("d")
        self.digests = array("q")
        self.failed = 0
        self.responses: Optional[List[Any]] = None

    def add(self, late: float) -> int:
        self.latency.append(math.inf)
        self.late.append(late)
        self.done.append(math.inf)
        self.digests.append(0)
        if self.responses is not None:
            self.responses.append(None)
        return len(self.latency) - 1


class _Tick:
    """One server tick as the traced run saw it on the worker thread."""

    __slots__ = ("trace_id", "start_ns", "end_ns", "coalesce_ns", "execute_ns",
                 "split_ns", "requests", "rows", "words", "request_words")

    def __init__(self) -> None:
        self.trace_id = None
        self.start_ns = self.end_ns = 0
        self.coalesce_ns = self.execute_ns = self.split_ns = 0
        self.requests = self.rows = self.words = self.request_words = 0


class _TracedServeBackend:
    """Proxy backend handed to the server in traced runs: each tick's
    execution becomes a ``serve.execute`` span on the worker thread."""

    def __init__(self, backend, tracer: Tracer, ticks: List[_Tick]) -> None:
        self.backend = backend
        self.spec = backend.spec
        self.telemetry = backend.telemetry
        self.tracer = tracer
        self.ticks = ticks

    def run(self, scores, valid_lengths=None):
        return self.backend.run(scores, valid_lengths=valid_lengths)

    def softmax_fn(self):
        return self.backend.softmax_fn()

    def run_rows(self, rows, valid_lengths=None):
        if not self.ticks:  # set-up requests, before the tick hooks exist
            return self.backend.run_rows(rows, valid_lengths=valid_lengths)
        tick = self.ticks[-1]
        with self.tracer.span("serve.execute", trace_id=tick.trace_id) as span:
            result = self.backend.run_rows(rows, valid_lengths=valid_lengths)
        tick.execute_ns = span.duration_ns
        return result


@contextmanager
def _tick_hooks(tracer: Tracer, ticks: List[_Tick]) -> Iterator[None]:
    """Wrap the server's ``coalesce``/``split`` calls while tracing."""
    import repro.serve.server as server_module

    coalesce, split = server_module.coalesce, server_module.split

    def traced_coalesce(requests):
        tick = _Tick()
        with tracer.span("serve.coalesce") as span:
            fused = coalesce(requests)
        tick.trace_id = span.trace_id
        tick.start_ns = span.start_ns
        tick.coalesce_ns = span.duration_ns
        tick.requests = fused.requests
        tick.rows = fused.rows
        tick.words = fused.rows * fused.sequence_length
        tick.request_words = sum(
            int(lengths.sum()) if lengths is not None else matrix.size
            for matrix, lengths in requests
        )
        ticks.append(tick)
        return fused

    def traced_split(batch, probabilities):
        tick = ticks[-1]
        with tracer.span("serve.split", trace_id=tick.trace_id) as span:
            parts = split(batch, probabilities)
        tick.split_ns = span.duration_ns
        tick.end_ns = span.end_ns
        return parts

    server_module.coalesce, server_module.split = traced_coalesce, traced_split
    try:
        yield
    finally:
        server_module.coalesce, server_module.split = coalesce, split


def _tick_metrics(ticks: List[_Tick], wall_s: float, suffix: str) -> Dict[str, float]:
    """Batch shape and worker occupancy of one phase's ticks."""
    return {
        "serve.ticks" + suffix: len(ticks),
        "serve.requests_per_tick" + suffix: sum(t.requests for t in ticks) / len(ticks),
        "serve.rows_per_tick" + suffix: sum(t.rows for t in ticks) / len(ticks),
        "serve.pad_efficiency" + suffix:
            sum(t.request_words for t in ticks) / sum(t.words for t in ticks),
        "serve.worker_busy_frac" + suffix:
            sum(t.end_ns - t.start_ns for t in ticks) * 1e-9 / wall_s,
    }


class Serve:
    """``serve``: one event loop owns every server the workload builds, so
    ``setup``/``measure``/``traced`` run on it in turn."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.loop = asyncio.new_event_loop()

    # -- lifecycle -------------------------------------------------------- #
    def _server(self, backend) -> SoftmaxServer:
        return SoftmaxServer(
            backend, max_wait_ms=SERVE_MAX_WAIT_MS, max_batch_rows=SERVE_MAX_BATCH_ROWS
        )

    def inputs_digest(self) -> str:
        """The first 256 open-loop requests (arrival gaps and payloads)."""
        rng = np.random.default_rng([self.seed, 1])
        arrays = []
        for _ in range(256):
            arrays.append(np.array([rng.exponential(1.0 / SERVE_RATE)]))
            scores, lengths = draw_request(rng)
            arrays += [scores, np.zeros(0) if lengths is None else lengths]
        return inputs_digest(arrays)

    def setup(self) -> SoftmaxServer:
        return self._start(self._server(SERVE_SPEC))

    def _start(self, server: SoftmaxServer) -> SoftmaxServer:
        async def start():
            await server.start()
            rng = np.random.default_rng([self.seed, 9])
            for seq in SERVE_LENGTHS:  # first cold call of every request length
                await server.submit(rng.standard_normal((1, seq)) * SCORE_SCALE)

        self.loop.run_until_complete(start())
        return server

    def release(self, server: SoftmaxServer) -> None:
        self.loop.run_until_complete(server.close())

    def close(self) -> None:
        self.loop.close()

    # -- load generators -------------------------------------------------- #
    async def _request(self, server, scores, lengths, due: float, index: int, sink: _Sink):
        loop = asyncio.get_running_loop()
        try:
            response = await server.submit(scores, valid_lengths=lengths)
        except Exception:  # noqa: BLE001 - a failed request counts, latency inf
            sink.failed += 1
            return
        sink.done[index] = loop.time()
        sink.latency[index] = sink.done[index] - due
        sink.digests[index] = digest(response.probabilities)
        if sink.responses is not None:
            sink.responses[index] = (response, time.perf_counter_ns())

    async def open_loop(self, server, stream: int, sink: _Sink,
                        seconds: Optional[float] = None, count: Optional[int] = None) -> float:
        """Poisson arrivals at ``SERVE_RATE``.  Each request is drawn from the
        seeded stream when it is due and timed from its due time, so a
        stalled generator shows up as latency (and as lateness)."""
        loop = asyncio.get_running_loop()
        rng = np.random.default_rng([self.seed, stream])
        tasks = set()
        start = due = loop.time()
        while True:
            due += rng.exponential(1.0 / SERVE_RATE)
            if (seconds is not None and due - start > seconds) or (
                count is not None and len(sink.latency) >= count
            ):
                break
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            scores, lengths = draw_request(rng)
            index = sink.add(loop.time() - due)
            task = loop.create_task(self._request(server, scores, lengths, due, index, sink))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        while tasks:
            await asyncio.gather(*list(tasks))
        return loop.time() - start

    async def closed_loop(self, server, stream: int, sink: _Sink,
                          seconds: Optional[float] = None, count: Optional[int] = None) -> float:
        """``SERVE_CLIENTS`` callers, each sending its next request as soon
        as the previous one returns; returns the wall time."""
        loop = asyncio.get_running_loop()
        rng = np.random.default_rng([self.seed, stream])
        start = loop.time()
        stop = None if seconds is None else start + seconds

        async def client():
            while (stop is None or loop.time() < stop) and (
                count is None or len(sink.latency) < count
            ):
                scores, lengths = draw_request(rng)
                due = loop.time()
                index = sink.add(0.0)
                await self._request(server, scores, lengths, due, index, sink)

        await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))
        return loop.time() - start

    def _check(self, stream: int, sink: _Sink, open_loop: bool) -> int:
        """Replay the seeded stream and run every request alone through a
        second backend; count responses that are not bit-identical."""
        rng = np.random.default_rng([self.seed, stream])
        check_backend = resolve_backend(SERVE_SPEC)
        mismatches = 0
        for index in range(len(sink.latency)):
            if open_loop:
                rng.exponential(1.0 / SERVE_RATE)
            scores, lengths = draw_request(rng)
            if sink.digests[index] == 0:
                continue  # already counted as failed
            expected = check_backend.run_rows(scores, valid_lengths=lengths).probabilities
            mismatches += digest(expected) != sink.digests[index]
        return mismatches

    # -- untraced window --------------------------------------------------- #
    def measure(self, server: SoftmaxServer, seconds: float) -> Measurement:
        capacity_s = SERVE_CAPACITY_SHARE * seconds
        arrivals, capacity = _Sink(), _Sink()

        async def phases():
            await self.closed_loop(server, 8, _Sink(), count=SERVE_WARMUP_REQUESTS)
            await self.open_loop(server, 1, arrivals, seconds=seconds - capacity_s)
            start = asyncio.get_running_loop().time()
            await self.closed_loop(server, 2, capacity, seconds=capacity_s)
            return start

        start = self.loop.run_until_complete(phases())
        result = Measurement()
        result.attempted = len(arrivals.latency) + len(capacity.latency)
        result.failed = (
            arrivals.failed + capacity.failed
            + self._check(1, arrivals, open_loop=True)
            + self._check(2, capacity, open_loop=False)
        )
        result.latencies = list(arrivals.latency)
        # The completion rate over each run of SERVE_CAPACITY_CHUNK
        # consecutive completions, median chunk: a burst of host contention
        # moves a median less than a total.
        done = np.sort(np.asarray(capacity.done))
        done = done[(done >= start) & (done <= start + capacity_s)]
        edges = done[::SERVE_CAPACITY_CHUNK]
        if edges.size >= 2:
            result.throughput = float(np.median(SERVE_CAPACITY_CHUNK / np.diff(edges)))
        else:  # fewer than two chunks completed: the plain completion rate
            result.throughput = done.size / capacity_s
        result.extras["serve.gen_late_ms_p99"] = (percentile(arrivals.late, 99) * 1e3, "ms")
        result.extras["serve.open_loop_requests"] = (len(arrivals.latency), "count")
        return result

    # -- traced run ---------------------------------------------------------- #
    def traced(self, server: SoftmaxServer, seconds: float) -> TraceResult:
        """The same fixed stream (an open loop of 1000 requests, then 2000
        closed-loop requests) served untraced by the
        set-up server and traced by a server built on a proxy backend."""
        open_count = 1000
        capacity_count = 2000

        def phases(target, arrivals: _Sink, capacity: _Sink, ticks: List[_Tick]):
            async def run():
                open_s = await self.open_loop(target, 3, arrivals, count=open_count)
                open_ticks = len(ticks)
                capacity_s = await self.closed_loop(target, 4, capacity, count=capacity_count)
                return open_s, capacity_s, open_ticks

            return self.loop.run_until_complete(run())

        untraced, traced, reps, extras = [], [], [], {}
        attempted = failed = 0
        first_tracer = None
        for _ in range(2):
            untraced.append(phases(server, _Sink(), _Sink(), [])[1])
            tracer, ticks = Tracer(), []
            proxied = self._start(self._server(_TracedServeBackend(server.backend, tracer, ticks)))
            first_tick = proxied.stats().ticks + 1
            arrivals, capacity = _Sink(), _Sink()
            arrivals.responses = []
            with instrument(tracer), _tick_hooks(tracer, ticks):
                open_s, capacity_s, open_ticks = phases(proxied, arrivals, capacity, ticks)
            self.release(proxied)
            traced.append(capacity_s)
            attempted += len(arrivals.latency) + len(capacity.latency)
            failed += arrivals.failed + capacity.failed
            failed += self._check(3, arrivals, open_loop=True)
            failed += self._check(4, capacity, open_loop=False)
            metrics, rep_extras = self._serve_layers(
                tracer, arrivals, ticks, first_tick, open_ticks, open_s, capacity_s
            )
            reps.append(metrics)
            for name, (value, unit) in rep_extras.items():
                extras[name] = (extras.get(name, (0.0, unit))[0] + value / 2.0, unit)
            first_tracer = first_tracer or tracer
        merged, flags = merge_reps(reps, untraced, traced, compare=False)
        extras["mapping.plan.compile_s"] = (merged["mapping.plan.compile_s"], "s")
        return TraceResult(
            attempted=attempted, failed=failed, metrics=merged, extras=extras,
            flags=flags, tracer=first_tracer,
        )

    def _serve_layers(self, tracer: Tracer, arrivals: _Sink, ticks: List[_Tick],
                      first_tick: int, open_ticks: int, open_s: float, capacity_s: float):
        """The serving layer's per-tick and per-request breakdown.  Each
        open-loop request's latency splits into generator lateness, queue
        wait, its tick's coalesce + execute + split, and the rest (handoff
        between the event loop and the worker thread)."""
        by_tick = {first_tick + i: tick for i, tick in enumerate(ticks)}
        gen_late, queue, service, handoff, latency = [], [], [], [], []
        for index, entry in enumerate(arrivals.responses):
            if entry is None:
                continue
            response, done_ns = entry
            tick = by_tick[response.tick]
            total = arrivals.latency[index]
            served = (tick.coalesce_ns + tick.execute_ns + tick.split_ns) * 1e-9
            gen_late.append(arrivals.late[index])
            queue.append(response.queue_wait_s)
            service.append(served)
            handoff.append(total - arrivals.late[index] - response.queue_wait_s - served)
            latency.append(total)
            tracer.record(
                "serve.request", done_ns - int(total * 1e9), done_ns,
                tick_trace_id=tick.trace_id, queue_wait_ms=response.queue_wait_s * 1e3,
            )
        worker_s = sum(t.end_ns - t.start_ns for t in ticks) * 1e-9
        self_s = tracer.self_seconds()
        metrics = common_layer_metrics(tracer, worker_s)
        idle_layers(metrics, "llm.")
        metrics.update(_tick_metrics(ticks[:open_ticks], open_s, ""))
        metrics.update(_tick_metrics(ticks[open_ticks:], capacity_s, ".capacity"))
        total_latency = sum(latency)
        metrics.update({
            "serve.gen_late_frac": sum(gen_late) / total_latency,
            "serve.queue_wait_frac": sum(queue) / total_latency,
            "serve.service_frac": sum(service) / total_latency,
            "serve.handoff_frac": sum(handoff) / total_latency,
            # Worker-side spans only: how much of each tick's wall time the
            # traced layers explain.
            "trace.coverage": (sum(self_s.values()) - self_s["serve.request"]) / worker_s,
        })
        extras = {
            "serve.queue_wait_ms_p50": (percentile(queue, 50) * 1e3, "ms"),
            "serve.queue_wait_ms_p99": (percentile(queue, 99) * 1e3, "ms"),
            "serve.execute_s": (sum(t.execute_ns for t in ticks) * 1e-9, "s"),
            "serve.coalesce_s": (sum(t.coalesce_ns for t in ticks) * 1e-9, "s"),
            "serve.split_s": (sum(t.split_ns for t in ticks) * 1e-9, "s"),
            "serve.handoff_ms_p50": (percentile(handoff, 50) * 1e3, "ms"),
            "serve.gen_late_ms_p99": (percentile(gen_late, 99) * 1e3, "ms"),
        }
        return metrics, extras


WORKLOADS: Dict[str, Callable[[int], Any]] = {
    "prefill": Prefill,
    "decode": Decode,
    "serve": Serve,
}
