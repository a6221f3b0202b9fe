"""Fused-vs-loop benchmark: the compiled-plan layer's pinned speedups.

The acceptance workload is the Tables III/IV cluster shape — a
``(batch, heads, seq)`` attention-score tensor executed on the
:class:`~repro.mapping.cluster.ApCluster`.  Two pins:

* the fused compiled-plan pass (one wide head-major row space, fields kept
  packed end to end) must be **bit-identical** to the pure-software
  IntegerSoftmax pipeline and to both AP loop baselines, at least **3x
  faster** wall-clock than the per-head loop (one per-operation engine
  execution per head), and at least **5x faster** than the row-by-row
  replacement path (one per-vector AP execution per row); in practice the
  gaps are an order of magnitude or more;
* the scratch-arena ``"compiled"`` engine must be **bit-identical** to the
  fused (vectorized) pass and at least **1.5x faster** on the 64-vector x
  256-seq shape — the win of buffer-planned, allocation-free execution
  over the packed interpreter.

Both tests are ``perf``-marked: tier-1 deselects them, and the CI
``benchmark-smoke`` job runs them with ``-m perf``.  With
``REPRO_PERF_DIR`` set, each writes its measured report as JSON.
"""

import pytest

from floors import (
    COMPILED_SPEEDUP_FLOOR,
    COMPILED_WORKLOAD,
    FUSED_SPEEDUP_FLOOR,
    ROW_BY_ROW_SPEEDUP_FLOOR,
)
from repro.runtime import get_experiment

#: Noise guard for the sub-millisecond compiled-vs-vectorized legs: on a
#: loaded single-core runner one measurement window can land under the
#: floor, so it applies to the best of this many attempts (the same
#: practice as the serving benchmark).
MAX_ATTEMPTS = 3


@pytest.mark.perf
def test_fused_cluster_pass_beats_per_head_loop(perf_artifact):
    """Pin: fused >= 3x over the per-head loop and >= 5x over the
    row-by-row path, bit-identical to the software pipeline and both."""
    experiment = get_experiment("cluster-parity")
    report = experiment.run()
    print()
    print(experiment.render(report))
    perf_artifact(
        experiment,
        report,
        fused_speedup=(report.fused_speedup, FUSED_SPEEDUP_FLOOR),
        speedup=(report.speedup, ROW_BY_ROW_SPEEDUP_FLOOR),
    )
    assert report.bit_identical, "fused pass diverged from the loop baselines"
    assert report.fused_speedup >= FUSED_SPEEDUP_FLOOR, (
        f"fused pass only {report.fused_speedup:.1f}x faster than the "
        f"per-head loop (floor {FUSED_SPEEDUP_FLOOR:.0f}x)"
    )
    assert report.speedup >= ROW_BY_ROW_SPEEDUP_FLOOR, (
        f"fused pass only {report.speedup:.1f}x faster than the row-by-row "
        f"path (floor {ROW_BY_ROW_SPEEDUP_FLOOR:.0f}x)"
    )


@pytest.mark.perf
def test_compiled_engine_beats_vectorized(perf_artifact):
    """Pin: compiled >= 1.5x over vectorized on 64x256, bit-identical."""
    experiment = get_experiment("cluster-parity")
    report = experiment.run(dict(COMPILED_WORKLOAD))
    attempts = 1
    while report.compiled_speedup < COMPILED_SPEEDUP_FLOOR and attempts < MAX_ATTEMPTS:
        candidate = experiment.run(dict(COMPILED_WORKLOAD))
        if candidate.compiled_speedup > report.compiled_speedup:
            report = candidate
        attempts += 1
    print()
    print(experiment.render(report))
    perf_artifact(
        experiment,
        report,
        name="cluster-parity-compiled",
        compiled_speedup=(report.compiled_speedup, COMPILED_SPEEDUP_FLOOR),
    )
    assert report.bit_identical, "fused pass diverged from the loop baselines"
    assert report.compiled_identical, (
        "compiled engine diverged from the vectorized fused pass"
    )
    assert report.compiled_speedup >= COMPILED_SPEEDUP_FLOOR, (
        f"compiled engine only {report.compiled_speedup:.2f}x faster than "
        f"the vectorized engine (floor {COMPILED_SPEEDUP_FLOOR:.1f}x)"
    )
