"""Decode benchmark: the KV-cache generation path's pinned speedup.

The acceptance workload is autoregressive generation on a compute-bound
model shape (8 prompts x 96 tokens, 64 new tokens each, hidden 128): the
incremental KV-cache decode versus the naive baseline that re-prefills the
whole growing sequence every step.  Same weights, same prompts, same
seeded RNG stream on both sides; the two paths must emit **identical
tokens** and the cached path must decode at least **3x** more tokens per
second.

The test is ``perf``-marked: tier-1 deselects it, and the CI
``benchmark-smoke`` job runs it with ``-m perf``.  With ``REPRO_PERF_DIR``
set, it writes its measured report as ``llm-generate.json``.
"""

import pytest

from floors import GENERATE_SPEEDUP_FLOOR
from repro.runtime import get_experiment


@pytest.mark.perf
def test_kv_cache_decode_beats_reprefill(perf_artifact):
    """Pin: KV-cache decode >= 3x tokens/sec over re-prefill, same tokens."""
    experiment = get_experiment("llm-generate")
    report = experiment.run()
    print()
    print(experiment.render(report))
    perf_artifact(
        experiment, report, speedup=(report.speedup, GENERATE_SPEEDUP_FLOOR)
    )
    assert report.tokens_match, (
        "KV-cache decode emitted different tokens than the re-prefill "
        "baseline"
    )
    assert report.speedup >= GENERATE_SPEEDUP_FLOOR, (
        f"KV-cache decode only {report.speedup:.1f}x faster than re-prefill "
        f"(floor {GENERATE_SPEEDUP_FLOOR:.0f}x)"
    )
