"""Ablation benchmarks for the design choices called out in DESIGN.md §6.

* Barrett reduction vs exact division for the range-reduction quotient.
* Restoring division vs reciprocal-multiply for dataflow step 16.
* One vs two words packed per AP row.
"""

import numpy as np

from repro.quant.precision import BEST_PRECISION
from repro.mapping.softmap import SoftmAPMapping
from repro.softmax.barrett import BarrettReducer
from repro.softmax.integer_softmax import IntegerSoftmax


def test_ablation_barrett_vs_exact():
    """Barrett reduction (multiply + shift) matches exact division on the
    operand range Algorithm 1 uses, with and without the correction step."""
    reducer = BarrettReducer(divisor=6, shift_bits=12, correct=False)
    z = np.arange(0, 64)
    estimate = np.asarray(reducer.quotient(z))
    exact = z // 6
    # The raw estimate never overshoots and undershoots by at most one (at
    # exact multiples of the divisor); the correction step removes even that.
    assert np.all(estimate <= exact)
    assert np.all(exact - estimate <= 1)
    corrected = BarrettReducer(divisor=6, shift_bits=12, correct=True)
    assert np.array_equal(np.asarray(corrected.quotient(z)), exact)

    with_correction = IntegerSoftmax(BEST_PRECISION, barrett_correction=True)
    without_correction = IntegerSoftmax(BEST_PRECISION, barrett_correction=False)
    x = np.random.default_rng(0).normal(0, 2, (4, 256))
    difference = np.max(np.abs(with_correction(x) - without_correction(x)))
    assert difference < 0.05


def test_ablation_division_mode():
    """Reciprocal-multiply trades the expensive bit-serial restoring division
    for one multiplication, cutting the pass latency substantially."""
    restoring = SoftmAPMapping(BEST_PRECISION, 4096, division="restoring")
    reciprocal = SoftmAPMapping(BEST_PRECISION, 4096, division="reciprocal")
    cost_restoring = restoring.cost()
    cost_reciprocal = reciprocal.cost()
    assert cost_reciprocal.cycles < 0.7 * cost_restoring.cycles


def test_ablation_words_per_row():
    """Packing two words per row halves the rows (and the area) at the price
    of running every element-wise step twice."""
    packed = SoftmAPMapping(BEST_PRECISION, 2048, words_per_row=2)
    unpacked = SoftmAPMapping(BEST_PRECISION, 2048, words_per_row=1)
    cost_packed = packed.cost()
    cost_unpacked = unpacked.cost()
    assert cost_packed.rows == cost_unpacked.rows // 2
    assert cost_packed.cycles > cost_unpacked.cycles
    assert packed.cost_model.area_mm2() < unpacked.cost_model.area_mm2()
