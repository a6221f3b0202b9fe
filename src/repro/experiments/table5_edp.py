"""Table V — highest normalized energy-delay-product ratios per model/GPU."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.normalized_comparison import (
    ComparisonPoint,
    run_normalized_comparison,
)
from repro.runtime.registry import Experiment, register
from repro.utils.tables import TextTable

__all__ = ["Table5Entry", "Table5Experiment", "run_table5", "render_table5"]


@dataclass(frozen=True)
class Table5Entry:
    """Highest EDP ratio for one (model, GPU) pair."""

    model: str
    gpu: str
    highest_edp_ratio: float
    at_sequence_length: int
    at_batch_size: int


def run_table5(points: Optional[List[ComparisonPoint]] = None) -> List[Table5Entry]:
    """Find the maximum normalized EDP per (model, GPU) pair."""
    if points is None:
        points = run_normalized_comparison()
    best: Dict[Tuple[str, str], ComparisonPoint] = {}
    for point in points:
        key = (point.model, point.gpu)
        if key not in best or point.normalized_edp > best[key].normalized_edp:
            best[key] = point
    entries = [
        Table5Entry(
            model=point.model,
            gpu=point.gpu,
            highest_edp_ratio=point.normalized_edp,
            at_sequence_length=point.sequence_length,
            at_batch_size=point.batch_size,
        )
        for point in best.values()
    ]
    return sorted(entries, key=lambda e: (e.gpu, e.model))


def render_table5(entries: List[Table5Entry]) -> str:
    """Render Table V."""
    table = TextTable(
        ["GPU", "model", "highest EDP_GPU / EDP_AP", "at sequence", "at batch"],
        title="Table V — highest normalized EDP ratios",
    )
    for entry in entries:
        table.add_row(
            [
                entry.gpu,
                entry.model,
                entry.highest_edp_ratio,
                entry.at_sequence_length,
                entry.at_batch_size,
            ]
        )
    return table.render()


@register("table5")
class Table5Experiment(Experiment):
    """Registry wrapper: Table V through the uniform runtime contract."""

    title = "Table V"
    description = "highest normalized EDP ratio per (model, GPU) pair"
    row_type = Table5Entry
    runner = staticmethod(run_table5)

    def render(self, result):
        return render_table5(result)
