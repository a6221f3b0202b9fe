"""Pinned wall-clock floors and the headline workloads they are measured on.

The ``perf``-marked benchmarks assert these ratios.  Tier-1 deselects them
(``addopts = -m "not perf"`` in ``pytest.ini``); the CI ``engine-smoke``
and ``benchmark-smoke`` jobs run them with ``-m perf``.  Tier-1 pins the
same paths bit for bit instead, which does not depend on machine load.
"""

#: Vectorized engine over the bit-serial reference on one 64 x 256 batch.
ENGINE_SPEEDUP_FLOOR = 5.0

#: Batched vectorized throughput over the per-vector reference rate.
ENGINE_THROUGHPUT_FLOOR = 8.0

#: Pinned wall-clock floor of the batched sweep over the seed loop.
SWEEP_SPEEDUP_FLOOR = 5.0

#: The batched-inference acceptance workload (Tables III/IV shape).
LLM_SPEED_WORKLOAD = {
    "m_values": (4, 6, 8),
    "n_values": (8, 16),
    "training_steps": 120,
}

#: Pinned tokens/sec floor of KV-cache decode over naive re-prefill.
GENERATE_SPEEDUP_FLOOR = 3.0

#: Pinned wall-clock floor of the fused pass over the per-head loop.
FUSED_SPEEDUP_FLOOR = 3.0

#: Pinned wall-clock floor of the fused pass over the row-by-row
#: replacement path (one per-vector AP execution per row).
ROW_BY_ROW_SPEEDUP_FLOOR = 5.0

#: Pinned wall-clock floor of the compiled engine over the vectorized
#: (packed-interpreter) engine on the 64-vector x 256-seq shape.
COMPILED_SPEEDUP_FLOOR = 1.5

#: The compiled-vs-vectorized acceptance shape: 16 batch x 4 heads = 64
#: fused vectors of 256 elements.  The fast legs finish in well under a
#: millisecond, so they are averaged over extra iterations for a stable
#: ratio on noisy CI runners.
COMPILED_WORKLOAD = {
    "sequence_length": 256,
    "batch": 16,
    "heads": 4,
    "fast_iterations": 10,
}

#: Pinned throughput floor of the continuous-batching server over the
#: serial one-request-per-pass baseline at a saturating arrival rate.
SERVE_SPEEDUP_FLOOR = 3.0

#: The serving acceptance workload: a saturating burst of single-row
#: requests (the regime where per-pass overhead dominates and coalescing
#: pays), served by the fused ``ap-cluster`` path with an admission cap
#: low enough that tick ``k + 1`` forms while tick ``k`` executes.
SERVE_WORKLOAD = {
    "rates": (1_000_000.0,),
    "num_requests": 256,
    "rows": (1, 1),
    "sequence_lengths": (32,),
    "ragged_fraction": 0.0,
    "max_wait_ms": 2.0,
    "max_batch_rows": 128,
}
