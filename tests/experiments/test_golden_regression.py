"""Golden regression pins for the paper tables.

Every constant below was produced by the seed code base; the tests exist so
that future refactors (backend rewrites, cost-model cleanups) cannot
silently drift the numbers the paper reproduction reports.  If one of these
fails, either the change is a bug or the golden must be *deliberately*
updated with a note in EXPERIMENTS/CHANGES.
"""

import pytest

from repro.experiments.table2_runtime_formulas import run_table2
from repro.quant.precision import PrecisionConfig, table_i

#: Table I derived widths for the delta = 0 (vcorr = M) column family,
#: exactly as the seed produces them (N fixed at 8 for the width rows).
TABLE1_GOLDEN_DELTA0 = {
    4: {"M": 4, "v": 4, "vstable": 4, "vln2": 4, "vb": 4, "vc": 8,
        "vcorr": 4, "(vcorr+vb)^2+vc": 11, "vapprox": 10, "N": 8, "sum": 18},
    6: {"M": 6, "v": 6, "vstable": 6, "vln2": 4, "vb": 6, "vc": 12,
        "vcorr": 6, "(vcorr+vb)^2+vc": 15, "vapprox": 12, "N": 8, "sum": 20},
    8: {"M": 8, "v": 8, "vstable": 8, "vln2": 4, "vb": 8, "vc": 16,
        "vcorr": 8, "(vcorr+vb)^2+vc": 19, "vapprox": 14, "N": 8, "sum": 22},
}

#: ``sum`` width at N = 16 for every (M, vcorr_delta) pair of Table I.
TABLE1_GOLDEN_SUM_N16 = {
    (4, 0): 26, (6, 0): 28, (8, 0): 30,
    (4, 1): 28, (6, 1): 30, (8, 1): 32,
    (4, 2): 30, (6, 2): 32, (8, 2): 34,
}

#: Table II formula cycles per (operation, M), seed-produced.
TABLE2_GOLDEN_CYCLES = {
    ("addition", 4): 45, ("subtraction", 4): 45,
    ("multiplication", 4): 144, ("reduction", 4): 121,
    ("matrix-matrix multiplication", 4): 198,
    ("addition", 6): 67, ("subtraction", 6): 67,
    ("multiplication", 6): 312, ("reduction", 6): 141,
    ("matrix-matrix multiplication", 6): 366,
    ("addition", 8): 89, ("subtraction", 8): 89,
    ("multiplication", 8): 544, ("reduction", 8): 161,
    ("matrix-matrix multiplication", 8): 598,
}


class TestTable1Golden:
    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_delta0_widths_pinned(self, m):
        config = PrecisionConfig(input_bits=m, vcorr_delta=0, sum_extra_bits=8)
        assert config.as_dict() == TABLE1_GOLDEN_DELTA0[m]

    def test_sum_widths_at_n16_pinned(self):
        produced = {
            (entry.config.input_bits, entry.config.vcorr_delta):
                entry.widths["sum(N=16)"]
            for entry in table_i()
        }
        assert produced == TABLE1_GOLDEN_SUM_N16

    def test_best_precision_result_column(self):
        best = PrecisionConfig(6, 0, 16)
        assert best.result_column_bits == 24  # the paper's 2M + 12


class TestTable2Golden:
    def test_formula_cycles_pinned(self):
        produced = {
            (row.operation, row.precision): row.formula_cycles
            for row in run_table2(simulate=False)
        }
        assert produced == TABLE2_GOLDEN_CYCLES

    #: Cycles the functional simulator issues (per operation, M), pinned
    #: from the seed's bit-serial backend.  The formulas include operand
    #: write/result-handling terms the functional measurement excludes, so
    #: these differ from ``TABLE2_GOLDEN_CYCLES`` by design.
    TABLE2_GOLDEN_SIMULATED = {
        ("addition", 4): 33, ("subtraction", 4): 33, ("multiplication", 4): 220,
        ("addition", 6): 49, ("subtraction", 6): 49, ("multiplication", 6): 474,
        ("addition", 8): 65, ("subtraction", 8): 65, ("multiplication", 8): 824,
    }

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_simulated_cycles_pinned_on_both_backends(self, engine):
        """Both backends must issue exactly the seed's simulated cycle
        counts — the vectorized engine is cycle-accounting-exact."""
        produced = {
            (row.operation, row.precision): row.simulated_cycles
            for row in run_table2(simulate=True, engine=engine)
            if row.simulated_cycles is not None
        }
        assert produced == self.TABLE2_GOLDEN_SIMULATED
