"""Serving benchmark: continuous batching's pinned throughput floor.

The acceptance workload (``SERVE_WORKLOAD`` in :mod:`floors`) is a
saturating burst of single-row softmax requests served by the fused
``ap-cluster`` path: the admission loop coalesces the queue into fused
row spaces of at most 128 rows, so tick ``k + 1`` forms while tick ``k``
executes on the worker thread.  Two pins:

* the served deployment must sustain at least **3x** the throughput of
  the serial one-request-per-pass baseline on the identical request
  stream (asyncio scheduling is noisy, so the floor applies to the best
  of up to three attempts);
* every coalesced response must be **bit-identical** to running its
  request alone — checked here across every precision-sweep backend and
  all three plan engines on a ragged mixed-shape stream.

The throughput test is ``perf``-marked: tier-1 deselects it, and the CI
``benchmark-smoke`` job runs it with ``-m perf``.  With ``REPRO_PERF_DIR``
set, it writes its measured point as ``serve-load.json``.  The bit-identity
test stays in tier-1.
"""

import numpy as np
import pytest

from floors import SERVE_SPEEDUP_FLOOR, SERVE_WORKLOAD
from repro.experiments.table3_4_perplexity import PRECISION_SWEEP_BACKENDS
from repro.runtime import get_experiment
from repro.runtime.backend import BackendSpec, resolve_backend
from repro.serve.loadgen import LoadProfile, run_load, run_serial_baseline
from repro.serve.server import SoftmaxServer

#: Noise guard: the speedup floor applies to the best of this many runs.
MAX_ATTEMPTS = 3


@pytest.mark.perf
def test_continuous_batching_beats_serial_baseline(perf_artifact):
    """Pin: served throughput >= 3x serial at saturation, bit-identical."""
    experiment = get_experiment("serve-load")
    best = experiment.run(dict(SERVE_WORKLOAD))[-1]
    attempts = 1
    while best.speedup < SERVE_SPEEDUP_FLOOR and attempts < MAX_ATTEMPTS:
        candidate = experiment.run(dict(SERVE_WORKLOAD))[-1]
        if candidate.speedup > best.speedup:
            best = candidate
        attempts += 1
    print()
    print(experiment.render([best]))
    perf_artifact(
        experiment, [best], speedup=(best.speedup, SERVE_SPEEDUP_FLOOR)
    )
    assert best.responses_identical, (
        "a coalesced response diverged from its standalone execution"
    )
    assert best.speedup >= SERVE_SPEEDUP_FLOOR, (
        f"continuous batching only {best.speedup:.2f}x over the serial "
        f"baseline (floor {SERVE_SPEEDUP_FLOOR:.0f}x, {attempts} attempts)"
    )


def _identity_cases():
    for backend in PRECISION_SWEEP_BACKENDS:
        if backend.startswith("ap"):
            for engine in ("reference", "vectorized", "compiled"):
                yield pytest.param(backend, engine, id=f"{backend}-{engine}")
        else:
            yield pytest.param(backend, None, id=backend)


@pytest.mark.parametrize("backend,engine", list(_identity_cases()))
def test_coalesced_responses_bit_identical(backend, engine):
    """Every sweep backend x engine: served responses == standalone runs."""
    spec = BackendSpec(
        name=backend,
        num_heads=2,
        sequence_length=16,
        engine=engine,
        options={"pass_row_budget": 64} if backend == "ap-cluster" else {},
    )
    profile = LoadProfile(
        rate_rps=5000.0,
        num_requests=16,
        rows=(1, 3),
        sequence_lengths=(8, 16),
        ragged_fraction=0.5,
        seed=7,
    )
    requests = profile.requests()
    server = SoftmaxServer(spec, max_wait_ms=2.0, max_batch_rows=24)
    report = run_load(server, requests)
    serial, _ = run_serial_baseline(resolve_backend(spec), requests)
    assert report.num_requests == len(requests)
    for alone, outcome in zip(serial, report.outcomes):
        np.testing.assert_array_equal(
            outcome.response.probabilities,
            alone,
            err_msg=f"coalesced response diverged on {backend}/{engine}",
        )
