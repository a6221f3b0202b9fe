"""Table VI — comparison with related softmax accelerators.

ConSmax and Softermax report their process node, maximum frequency and
optimum energy per operation; those published numbers are constants here.
The SoftmAP row is measured from this reproduction's AP cost model (per-word
energy of one elementary operation at the best precision).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.ap.cost import ApCostModel
from repro.ap.tech import TECH_16NM
from repro.quant.precision import BEST_PRECISION
from repro.runtime.registry import Experiment, register
from repro.utils.tables import TextTable

__all__ = [
    "RelatedWork",
    "Table6Experiment",
    "run_table6",
    "render_table6",
    "RELATED_WORKS",
]


@dataclass(frozen=True)
class RelatedWork:
    """One row of Table VI."""

    method: str
    approximation: str
    process: str
    max_frequency_mhz: float
    energy_per_op_pj: float


#: Published numbers of the two related accelerators (Table VI of the paper).
RELATED_WORKS: List[RelatedWork] = [
    RelatedWork(
        method="ConSmax",
        approximation="Learnable LUTs",
        process="16nm",
        max_frequency_mhz=1250.0,
        energy_per_op_pj=0.2,
    ),
    RelatedWork(
        method="Softermax",
        approximation="Base replacement + online normalization",
        process="16nm",
        max_frequency_mhz=1111.0,
        energy_per_op_pj=0.7,
    ),
]


def run_table6(rows: int = 2048, include_row_access: bool = False) -> List[RelatedWork]:
    """Build Table VI with the measured SoftmAP row appended."""
    model = ApCostModel(rows=rows, tech=TECH_16NM)
    energy_per_op = model.energy_per_elementary_op_pj(
        BEST_PRECISION.input_bits, include_row_access=include_row_access
    )
    softmap = RelatedWork(
        method="SoftmAP (this reproduction)",
        approximation="Integer polynomial",
        process=TECH_16NM.name,
        max_frequency_mhz=TECH_16NM.frequency_hz / 1e6,
        energy_per_op_pj=energy_per_op,
    )
    return RELATED_WORKS + [softmap]


def render_table6(entries: List[RelatedWork]) -> str:
    """Render Table VI."""
    table = TextTable(
        ["method", "softmax approximation", "process", "max freq (MHz)", "energy/op (pJ)"],
        title="Table VI — comparison with related works",
        float_digits=4,
    )
    for entry in entries:
        table.add_row(
            [
                entry.method,
                entry.approximation,
                entry.process,
                entry.max_frequency_mhz,
                entry.energy_per_op_pj,
            ]
        )
    return table.render()


@register("table6")
class Table6Experiment(Experiment):
    """Registry wrapper: Table VI through the uniform runtime contract."""

    title = "Table VI"
    description = "energy/op comparison with ConSmax and Softermax"
    row_type = RelatedWork
    runner = staticmethod(run_table6)

    def render(self, result):
        return render_table6(result)
