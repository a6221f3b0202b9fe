"""AP area figures (Section V-B).

The paper reports the silicon area of the APs needed to accelerate softmax
for Llama2-7b, 13b and 70b as 0.64, 0.81 and 1.28 mm^2 respectively (one AP
per attention head, 16 nm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.llm.config import LLAMA2_MODELS, LlamaConfig
from repro.mapping.deployment import ApDeployment
from repro.runtime.registry import Experiment, register
from repro.utils.tables import TextTable

__all__ = ["AreaEntry", "AreaExperiment", "run_area", "render_area", "PAPER_AREAS_MM2"]

#: Area figures reported by the paper.
PAPER_AREAS_MM2: Dict[str, float] = {
    "Llama2-7b": 0.64,
    "Llama2-13b": 0.81,
    "Llama2-70b": 1.28,
}


@dataclass(frozen=True)
class AreaEntry:
    """Measured vs reported AP area for one model."""

    model: str
    num_aps: int
    measured_area_mm2: float
    paper_area_mm2: float


def run_area(models: Optional[Dict[str, LlamaConfig]] = None) -> List[AreaEntry]:
    """Compute the deployment area for each Llama2 model."""
    models = models if models is not None else LLAMA2_MODELS
    entries = []
    for model in models.values():
        deployment = ApDeployment(model)
        entries.append(
            AreaEntry(
                model=model.name,
                num_aps=deployment.num_aps,
                measured_area_mm2=deployment.total_area_mm2(),
                paper_area_mm2=PAPER_AREAS_MM2.get(model.name, float("nan")),
            )
        )
    return entries


def render_area(entries: List[AreaEntry]) -> str:
    """Render the area comparison."""
    table = TextTable(
        ["model", "APs (one per head)", "measured area (mm^2)", "paper area (mm^2)"],
        title="AP area for softmax acceleration",
    )
    for entry in entries:
        table.add_row(
            [entry.model, entry.num_aps, entry.measured_area_mm2, entry.paper_area_mm2]
        )
    return table.render()


@register("area")
class AreaExperiment(Experiment):
    """Registry wrapper: the Section V-B area figures."""

    title = "Area"
    description = "per-model AP silicon area vs the paper's mm^2 figures"
    row_type = AreaEntry
    runner = staticmethod(run_area)

    def run(self, config=None):
        kwargs = self._config_kwargs(config)
        if "models" in kwargs and not isinstance(kwargs["models"], dict):
            kwargs["models"] = {
                name: LLAMA2_MODELS[name] for name in kwargs["models"]
            }
        return self.runner(**kwargs)

    def render(self, result):
        return render_area(result)
