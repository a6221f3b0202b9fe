"""Normalized AP-vs-GPU comparison (Figs. 6, 7, 8 and Table V).

For every (model, GPU, sequence length, batch size) point the paper plots

* normalized energy  = ``Energy_GPU / Energy_AP``  (Fig. 6),
* normalized latency = ``Latency_GPU / Latency_AP`` (Fig. 7),
* normalized EDP     = the product of the two       (Fig. 8, Table V),

with the integer softmax at the best precision combination (``M=6``,
``vcorr=M``, ``N=16``).  The GPU side is the softmax operator over the
decode-step score tensor ``[batch, heads, seq]`` (analytical model); the AP
side is one pass of the 16-step dataflow on the per-head AP, with energy
scaled by the batch size (each batch element needs its own pass) — see
DESIGN.md §4 and EXPERIMENTS.md for the discussion of this accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.gpu.softmax_model import GpuSoftmaxModel
from repro.gpu.spec import GPUS, GpuSpec
from repro.llm.config import LLAMA2_MODELS, LlamaConfig
from repro.mapping.deployment import ApDeployment
from repro.quant.precision import BEST_PRECISION, PrecisionConfig
from repro.runtime.registry import Experiment, register
from repro.utils.tables import TextTable

__all__ = [
    "ComparisonPoint",
    "NormalizedComparisonExperiment",
    "run_normalized_comparison",
    "render_comparison",
    "SEQUENCE_LENGTHS",
    "BATCH_SIZES",
]

#: Sequence lengths swept by Figs. 6-8.
SEQUENCE_LENGTHS: Tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096)
#: Batch sizes swept by Figs. 6-8.
BATCH_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class ComparisonPoint:
    """One point of the normalized sweep."""

    model: str
    gpu: str
    sequence_length: int
    batch_size: int
    gpu_latency_s: float
    gpu_energy_j: float
    ap_latency_s: float
    ap_energy_j: float

    @property
    def normalized_energy(self) -> float:
        """``Energy_GPU / Energy_AP`` (Fig. 6)."""
        return self.gpu_energy_j / self.ap_energy_j

    @property
    def normalized_latency(self) -> float:
        """``Latency_GPU / Latency_AP`` (Fig. 7; above 1 favours the AP)."""
        return self.gpu_latency_s / self.ap_latency_s

    @property
    def normalized_edp(self) -> float:
        """Normalized energy-delay product (Fig. 8, Table V)."""
        return self.normalized_energy * self.normalized_latency


def run_normalized_comparison(
    models: Optional[Dict[str, LlamaConfig]] = None,
    gpus: Optional[Dict[str, GpuSpec]] = None,
    sequence_lengths: Iterable[int] = SEQUENCE_LENGTHS,
    batch_sizes: Iterable[int] = BATCH_SIZES,
    precision: PrecisionConfig = BEST_PRECISION,
) -> List[ComparisonPoint]:
    """Run the full sweep behind Figs. 6-8 and Table V."""
    models = models if models is not None else LLAMA2_MODELS
    gpus = gpus if gpus is not None else GPUS
    points: List[ComparisonPoint] = []
    for model in models.values():
        deployment = ApDeployment(model, precision=precision)
        # AP pass cost depends only on the sequence length; cache per length.
        ap_costs = {
            seq: deployment.pass_cost(seq) for seq in sequence_lengths
        }
        for gpu in gpus.values():
            softmax_model = GpuSoftmaxModel(gpu)
            for seq in sequence_lengths:
                ap_cost = ap_costs[seq]
                for batch in batch_sizes:
                    gpu_cost = softmax_model.decode_cost(batch, model.num_heads, seq)
                    points.append(
                        ComparisonPoint(
                            model=model.name,
                            gpu=gpu.name,
                            sequence_length=seq,
                            batch_size=batch,
                            gpu_latency_s=gpu_cost.latency_s,
                            gpu_energy_j=gpu_cost.energy_j,
                            ap_latency_s=ap_cost.latency_s,
                            ap_energy_j=ap_cost.energy_j * batch,
                        )
                    )
    return points


def render_comparison(
    points: List[ComparisonPoint], metric: str = "energy"
) -> str:
    """Render one metric of the sweep as a table (one row per model/GPU/seq,
    one column per batch size)."""
    if metric not in ("energy", "latency", "edp"):
        raise ValueError("metric must be 'energy', 'latency' or 'edp'")
    batches = sorted({p.batch_size for p in points})
    table = TextTable(
        ["model", "gpu", "seq"] + [f"batch {b}" for b in batches],
        title=f"Normalized {metric} (GPU / AP)",
    )
    keys = sorted({(p.model, p.gpu, p.sequence_length) for p in points},
                  key=lambda k: (k[0], k[1], k[2]))
    index = {(p.model, p.gpu, p.sequence_length, p.batch_size): p for p in points}
    for model, gpu, seq in keys:
        row = [model, gpu, seq]
        for batch in batches:
            point = index[(model, gpu, seq, batch)]
            value = {
                "energy": point.normalized_energy,
                "latency": point.normalized_latency,
                "edp": point.normalized_edp,
            }[metric]
            row.append(value)
        table.add_row(row)
    return table.render()


@register("figs6_8")
class NormalizedComparisonExperiment(Experiment):
    """Registry wrapper: the Figs. 6/7/8 sweep behind Table V.

    ``render`` emits all three normalized views (energy, latency, EDP);
    config accepts ``sequence_lengths`` / ``batch_sizes`` tuples plus
    ``models`` / ``gpus`` restricted by name (``--set models="['7b']"``).
    """

    title = "Figs. 6-8"
    description = "normalized AP-vs-GPU energy / latency / EDP sweep"
    row_type = ComparisonPoint
    fast_config = {"sequence_lengths": (128, 1024, 4096), "batch_sizes": (1, 8, 32)}
    runner = staticmethod(run_normalized_comparison)

    def run(self, config=None):
        kwargs = self._config_kwargs(config)
        for key in ("sequence_lengths", "batch_sizes"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if "models" in kwargs and not isinstance(kwargs["models"], dict):
            kwargs["models"] = {
                name: LLAMA2_MODELS[name] for name in kwargs["models"]
            }
        if "gpus" in kwargs and not isinstance(kwargs["gpus"], dict):
            kwargs["gpus"] = {name: GPUS[name] for name in kwargs["gpus"]}
        return self.runner(**kwargs)

    def render(self, result):
        return "\n\n".join(
            render_comparison(result, metric) for metric in ("energy", "latency", "edp")
        )
