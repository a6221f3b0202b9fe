"""Table II — 2D AP runtime formulas, cross-checked against the functional
simulator.

The experiment evaluates the Table II cycle formulas for the studied
precisions and, for addition/subtraction/multiplication, also measures the
compare/write cycles the functional bit-serial simulator actually issues, so
the analytical and functional views of the AP can be compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.ap.cost import ApCostModel
from repro.ap.engine import canonical_engine_name
from repro.ap.processor2d import AssociativeProcessor2D
from repro.runtime.registry import Experiment, register
from repro.utils.tables import TextTable

__all__ = ["Table2Experiment", "Table2Row", "run_table2", "render_table2"]


@dataclass(frozen=True)
class Table2Row:
    """One operation at one precision: formula cycles vs simulated cycles."""

    operation: str
    precision: int
    formula_cycles: int
    simulated_cycles: Optional[int]


def _simulate(
    operation: str, precision: int, rows: int = 8, engine: str = "vectorized"
) -> int:
    """Measure the compare/write cycles of one functional operation.

    The vectorized engine is the default because it issues exactly the
    same compare/write cycles as the bit-serial reference (checked by the
    engine parity suite) at a fraction of the wall-clock cost.
    """
    rng = np.random.default_rng(precision)
    ap = AssociativeProcessor2D(rows=rows, columns=6 * precision + 16, engine=engine)
    a = ap.allocate_field("a", precision)
    b = ap.allocate_field("b", precision)
    limit = (1 << precision) - 1
    ap.write_field(a, rng.integers(0, limit + 1, rows))
    ap.write_field(b, rng.integers(0, limit + 1, rows))
    if operation == "addition":
        ap.reset_stats()
        ap.add(a, b)
    elif operation == "subtraction":
        ap.reset_stats()
        ap.subtract(a, b)
    elif operation == "multiplication":
        r = ap.allocate_field("r", 2 * precision)
        ap.reset_stats()
        ap.multiply(a, b, r)
    elif operation == "reduction":
        r = ap.allocate_field("r", precision + 8)
        ap.reset_stats()
        ap.reduce_sum(a, r)
    else:
        raise ValueError(f"unknown operation {operation!r}")
    return int(ap.stats.total_cycles)


def run_table2(
    precisions=(4, 6, 8),
    reduction_words: int = 2048,
    simulate: bool = True,
    engine: str = "vectorized",
) -> List[Table2Row]:
    """Evaluate the Table II formulas (and optionally the functional sim).

    ``engine`` is the processor engine (``"reference"`` or
    ``"vectorized"``) the functional cross-check runs on.
    """
    engine = canonical_engine_name(engine, processor=True)
    rows: List[Table2Row] = []
    for precision in precisions:
        model = ApCostModel(rows=max(2, reduction_words // 2))
        entries = [
            ("addition", model.addition_cycles(precision)),
            ("subtraction", model.subtraction_cycles(precision)),
            ("multiplication", model.multiplication_cycles(precision)),
            ("reduction", model.reduction_cycles(precision, reduction_words)),
            ("matrix-matrix multiplication", model.matmul_cycles(precision, 64)),
        ]
        for operation, cycles in entries:
            simulated = None
            if simulate and operation in ("addition", "subtraction", "multiplication"):
                simulated = _simulate(operation, precision, engine=engine)
            rows.append(
                Table2Row(
                    operation=operation,
                    precision=precision,
                    formula_cycles=int(cycles),
                    simulated_cycles=simulated,
                )
            )
    return rows


def render_table2(rows: List[Table2Row]) -> str:
    """Render the Table II comparison."""
    table = TextTable(
        ["operation", "M", "formula cycles", "functional-sim cycles"],
        title="Table II — 2D AP runtime formulas vs functional simulator",
    )
    for row in rows:
        table.add_row(
            [
                row.operation,
                row.precision,
                row.formula_cycles,
                "-" if row.simulated_cycles is None else row.simulated_cycles,
            ]
        )
    return table.render()


@register("table2")
class Table2Experiment(Experiment):
    """Registry wrapper: Table II through the uniform runtime contract.

    ``--set engine=...`` selects the functional AP engine cross-checking
    the formulas (``"vectorized"`` or ``"reference"``); the experiment runs
    no softmax backend, so it takes no ``--backend``.
    """

    title = "Table II"
    description = "2D AP runtime formulas vs the functional simulator"
    row_type = Table2Row
    fast_config = {"precisions": (6,)}

    def run(self, config=None):
        kwargs = self._config_kwargs(config)
        if "precisions" in kwargs:
            kwargs["precisions"] = tuple(kwargs["precisions"])
        return run_table2(**kwargs)

    def render(self, result):
        return render_table2(result)
