"""Fig. 1 — softmax runtime proportion of Llama2-7b on an A100.

The paper characterises how much of the model runtime is spent in softmax as
the sequence length grows (about 3 % at and below 1024, rising to 38 % at
16384).  The reproduction uses the analytical prefill runtime model of
:class:`~repro.gpu.transformer_model.GpuTransformerModel`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.gpu.spec import A100, GPUS, GpuSpec
from repro.gpu.transformer_model import GpuTransformerModel
from repro.llm.config import LLAMA2_7B, LLAMA2_MODELS, LlamaConfig
from repro.runtime.registry import Experiment, register
from repro.utils.tables import TextTable
from repro.utils.validation import check_in_choices

__all__ = [
    "Fig1Experiment",
    "run_fig1_softmax_proportion",
    "render_fig1",
    "FIG1_SEQUENCE_LENGTHS",
]

#: Sequence lengths reported on the Fig. 1 x-axis.
FIG1_SEQUENCE_LENGTHS: Tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096, 8192, 16384)


def run_fig1_softmax_proportion(
    gpu: GpuSpec = A100,
    model: LlamaConfig = LLAMA2_7B,
    sequence_lengths: Iterable[int] = FIG1_SEQUENCE_LENGTHS,
    batch_size: int = 1,
) -> List[Dict[str, float]]:
    """Softmax runtime share per sequence length (one dict per point)."""
    runtime_model = GpuTransformerModel(gpu, model)
    results = []
    for sequence_length in sequence_lengths:
        breakdown = runtime_model.prefill(batch_size, sequence_length)
        results.append(
            {
                "sequence_length": float(sequence_length),
                "softmax_fraction": breakdown.softmax_fraction,
                "softmax_time_s": breakdown.softmax_time_s,
                "total_time_s": breakdown.total_s,
            }
        )
    return results


def render_fig1(results: List[Dict[str, float]]) -> str:
    """Render the Fig. 1 series as a table."""
    table = TextTable(
        ["sequence length", "softmax share (%)", "softmax time (ms)", "total time (ms)"],
        title="Fig. 1 — softmax runtime proportion (Llama2-7b, A100, prefill)",
    )
    for point in results:
        table.add_row(
            [
                int(point["sequence_length"]),
                100.0 * point["softmax_fraction"],
                1e3 * point["softmax_time_s"],
                1e3 * point["total_time_s"],
            ]
        )
    return table.render()


@register("fig1")
class Fig1Experiment(Experiment):
    """Registry wrapper: Fig. 1 through the uniform runtime contract.

    Config accepts ``gpu`` / ``model`` by *name* (so the CLI can set them
    with ``--set gpu=RTX3090``) in addition to the programmatic spec
    objects, plus ``sequence_lengths`` and ``batch_size``.
    """

    title = "Fig. 1"
    description = "softmax share of Llama2 runtime vs sequence length"
    row_type = None  # rows are plain dicts
    fast_config = {"sequence_lengths": (128, 1024, 16384)}
    runner = staticmethod(run_fig1_softmax_proportion)

    def run(self, config=None):
        kwargs = self._config_kwargs(config)
        if isinstance(kwargs.get("gpu"), str):
            kwargs["gpu"] = GPUS[check_in_choices(kwargs["gpu"], tuple(GPUS), "gpu")]
        if isinstance(kwargs.get("model"), str):
            kwargs["model"] = LLAMA2_MODELS[
                check_in_choices(kwargs["model"], tuple(LLAMA2_MODELS), "model")
            ]
        if "sequence_lengths" in kwargs:
            kwargs["sequence_lengths"] = tuple(kwargs["sequence_lengths"])
        return self.runner(**kwargs)

    def render(self, result):
        return render_fig1(result)
