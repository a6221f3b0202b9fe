"""Experiment harness: one module per table/figure of the paper.

Every experiment module exposes its legacy ``run_*``/``render_*`` functions
*and* registers an :class:`repro.runtime.registry.Experiment` under the
artefact's registry name (``table1``, ``fig1``, ``figs6_8``, ...), so each
table/figure is reproducible three ways:

* programmatically — ``get_experiment("table2").run({...})`` (uniform
  ``run``/``render``/``to_dict``/``from_dict`` contract);
* from the command line — ``python -m repro run table2 --json out.json``;
* through the legacy functions (``run_table2`` / ``render_table2``), kept
  as thin, stable entry points.

The benchmark suite (``benchmarks/``) drives the registry, so
regenerating an artefact is a single test invocation, and EXPERIMENTS.md
records the registry name for every table/figure.

Importing this package registers every experiment (the registry's lookup
functions import it lazily for exactly that reason).
"""

from repro.experiments.fig1_softmax_proportion import (
    Fig1Experiment,
    run_fig1_softmax_proportion,
    render_fig1,
)
from repro.experiments.table1_precisions import (
    Table1Experiment,
    run_table1,
    render_table1,
)
from repro.experiments.table2_runtime_formulas import (
    Table2Experiment,
    run_table2,
    render_table2,
)
from repro.experiments.table3_4_perplexity import (
    ClusterParityExperiment,
    InferenceSpeedExperiment,
    FidelityExperiment,
    PerplexityExperiment,
    run_ap_cluster_equivalence,
    run_inference_speed,
    run_perplexity_sweep,
    run_softmax_fidelity_sweep,
    render_cluster_equivalence,
    render_fidelity_table,
    render_inference_speed,
    render_perplexity_table,
)
from repro.experiments.normalized_comparison import (
    ComparisonPoint,
    NormalizedComparisonExperiment,
    run_normalized_comparison,
    render_comparison,
    SEQUENCE_LENGTHS,
    BATCH_SIZES,
)
from repro.experiments.table5_edp import Table5Experiment, run_table5, render_table5
from repro.experiments.table6_related_works import (
    Table6Experiment,
    run_table6,
    render_table6,
)
from repro.experiments.area import AreaExperiment, run_area, render_area
from repro.experiments.llm_generate import (
    GenerateSpeedExperiment,
    GenerateSpeedReport,
    run_generate_speed,
    render_generate_speed,
)
from repro.experiments.serve_load import (
    ServeLoadExperiment,
    ServeLoadPoint,
    run_serve_load,
    render_serve_load,
)
from repro.experiments.chaos_load import (
    ChaosLoadExperiment,
    ChaosLoadReport,
    run_chaos_load,
    render_chaos_load,
)

__all__ = [
    "Fig1Experiment",
    "run_fig1_softmax_proportion",
    "render_fig1",
    "Table1Experiment",
    "run_table1",
    "render_table1",
    "Table2Experiment",
    "run_table2",
    "render_table2",
    "ClusterParityExperiment",
    "InferenceSpeedExperiment",
    "FidelityExperiment",
    "PerplexityExperiment",
    "run_ap_cluster_equivalence",
    "run_inference_speed",
    "run_perplexity_sweep",
    "run_softmax_fidelity_sweep",
    "render_cluster_equivalence",
    "render_fidelity_table",
    "render_inference_speed",
    "render_perplexity_table",
    "ComparisonPoint",
    "NormalizedComparisonExperiment",
    "run_normalized_comparison",
    "render_comparison",
    "SEQUENCE_LENGTHS",
    "BATCH_SIZES",
    "Table5Experiment",
    "run_table5",
    "render_table5",
    "Table6Experiment",
    "run_table6",
    "render_table6",
    "AreaExperiment",
    "run_area",
    "render_area",
    "GenerateSpeedExperiment",
    "GenerateSpeedReport",
    "run_generate_speed",
    "render_generate_speed",
    "ServeLoadExperiment",
    "ServeLoadPoint",
    "run_serve_load",
    "render_serve_load",
    "ChaosLoadExperiment",
    "ChaosLoadReport",
    "run_chaos_load",
    "render_chaos_load",
]
