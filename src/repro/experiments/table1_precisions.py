"""Table I — mixed-precision bit widths of the integer softmax."""

from __future__ import annotations

from typing import List

from repro.quant.precision import PrecisionTableEntry, table_i
from repro.runtime.registry import Experiment, register
from repro.utils.tables import TextTable

__all__ = ["Table1Experiment", "run_table1", "render_table1"]


def run_table1() -> List[PrecisionTableEntry]:
    """Regenerate every column of Table I."""
    return table_i()


def render_table1(entries: List[PrecisionTableEntry]) -> str:
    """Render Table I (rows = quantities, columns = (vcorr, M) pairs)."""
    if not entries:
        raise ValueError("no Table I entries to render")
    row_names = list(entries[0].widths.keys())
    headers = ["quantity"] + [
        f"vcorr=M+{e.config.vcorr_delta}, M={e.config.input_bits}" for e in entries
    ]
    table = TextTable(headers, title="Table I — bit widths per mixed-precision configuration")
    for name in row_names:
        table.add_row([name] + [e.widths[name] for e in entries])
    return table.render()


@register("table1")
class Table1Experiment(Experiment):
    """Registry wrapper: Table I through the uniform runtime contract."""

    title = "Table I"
    description = "mixed-precision bit widths of the integer softmax"
    row_type = PrecisionTableEntry
    runner = staticmethod(run_table1)

    def render(self, result):
        return render_table1(result)
