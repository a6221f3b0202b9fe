"""Batched-inference benchmark: the LLM fast path's pinned sweep speedup.

The acceptance workload is the Tables III/IV perplexity sweep on the
trained substitute model with the ``integer`` attention-softmax backend:
every precision configuration evaluated through the graph-free batched
``model.infer`` path (stacked-head attention, ``max_batch`` segments per
forward call, one head-major softmax call per layer) versus the **seed**
implementation — the per-segment autograd-forward loop with the
per-distinct-causal-length integer grouping.  Single worker on both sides,
same machine, same trained weights; training time is excluded.  The two
paths must produce **bit-identical** perplexities and the batched path
must be at least **5x** faster end to end.

The test is ``perf``-marked: tier-1 deselects it, and the CI
``benchmark-smoke`` job runs it with ``-m perf``.  With ``REPRO_PERF_DIR``
set, it writes its measured report as ``llm-speed.json``.
"""

import pytest

from floors import LLM_SPEED_WORKLOAD, SWEEP_SPEEDUP_FLOOR
from repro.runtime import get_experiment


@pytest.mark.perf
def test_batched_inference_sweep_beats_seed_loop(perf_artifact):
    """Pin: batched sweep >= 5x over the seed loop, bit-identical."""
    experiment = get_experiment("llm-speed")
    report = experiment.run(dict(LLM_SPEED_WORKLOAD))
    print()
    print(experiment.render(report))
    perf_artifact(
        experiment, report, speedup=(report.speedup, SWEEP_SPEEDUP_FLOOR)
    )
    assert report.bit_identical, (
        "batched inference path diverged from the seed per-segment loop"
    )
    assert report.speedup >= SWEEP_SPEEDUP_FLOOR, (
        f"batched sweep only {report.speedup:.1f}x faster than the seed "
        f"loop (floor {SWEEP_SPEEDUP_FLOOR:.0f}x)"
    )
