"""Engine speed: fused vectorized execution vs bit-serial reference.

The acceptance workload is a 64-row batch of 256-element integer softmax
vectors executed end to end through the compiled plan (quantize, Barrett
range reduction, polynomial, variable shift, segmented reduction, restoring
division).  Both engines run the *same* lowered program over the same
16384-word row space: ``"reference"`` interprets it as bit-serial
compare/write sweeps on the functional CAM, ``"vectorized"`` executes the
fused packed-word pass.  Results must be bit-identical and the vectorized
engine must be at least 5x faster (in practice it is orders of magnitude
faster, and far more against the seed's only option, a per-vector Python
loop).
"""

import time

import numpy as np

from repro.mapping.softmap import SoftmAPMapping

BATCH = 64
SEQ = 256


def _best_of(callable_, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_vectorized_backend_speedup_on_64x256_softmax():
    rng = np.random.default_rng(7)
    scores = rng.normal(0.0, 2.0, size=(BATCH, SEQ))
    mapping = SoftmAPMapping(sequence_length=SEQ)

    fast_s, fast = _best_of(
        lambda: mapping.execute_functional_batch(scores, engine="vectorized"), 2
    )
    ref_s, reference = _best_of(
        lambda: mapping.execute_functional_batch(scores, engine="reference"), 1
    )

    assert np.array_equal(fast, reference), "backends disagree on the workload"
    speedup = ref_s / fast_s
    print(
        f"\n{BATCH}x{SEQ} integer softmax on the functional AP: "
        f"reference {ref_s:.3f}s, vectorized {fast_s:.3f}s "
        f"-> {speedup:.1f}x speedup"
    )
    assert speedup >= 5.0, f"vectorized backend only {speedup:.1f}x faster"


def test_vectorized_backend_scales_past_reference_single_vector_rate():
    """Batched vectorized throughput dwarfs the per-vector reference rate.

    The seed code base could only evaluate a (batch, seq) tensor one vector
    at a time; this pins that one vectorized call over the whole 64-vector
    batch delivers at least 8x the per-vector throughput of the bit-serial
    reference (in practice the whole batch costs about as much as a single
    reference vector, i.e. ~64x, but the assertion keeps headroom against
    machine noise).
    """
    rng = np.random.default_rng(11)
    scores = rng.normal(0.0, 2.0, size=(BATCH, SEQ))
    mapping = SoftmAPMapping(sequence_length=SEQ)

    batch_s, batched = _best_of(
        lambda: mapping.execute_functional_batch(scores, engine="vectorized"), 2
    )
    single_s, single = _best_of(
        lambda: mapping.execute_functional(scores[0], engine="reference"), 1
    )

    assert np.array_equal(batched[0], single)
    throughput_gain = (single_s * BATCH) / batch_s
    print(
        f"\nvectorized batch of {BATCH}: {batch_s:.3f}s vs one reference "
        f"vector: {single_s:.3f}s ({throughput_gain:.0f}x per-vector rate)"
    )
    assert throughput_gain >= 8.0
