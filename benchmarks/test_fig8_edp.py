"""Benchmark regenerating Fig. 8 — normalized energy-delay product
(Llama2-13b shown in the paper; all models produced here)."""

from repro.experiments import render_comparison  # registry: "figs6_8"


def test_fig8_normalized_edp(comparison_points):
    points_13b = [p for p in comparison_points if p.model == "Llama2-13b"]
    print()
    print(render_comparison(points_13b, "edp"))
    # Paper: the normalized EDP is always greater than 1 — the AP always has
    # the best energy-delay product.
    assert all(p.normalized_edp > 1 for p in comparison_points)
