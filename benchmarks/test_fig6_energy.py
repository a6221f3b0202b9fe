"""Benchmark regenerating Fig. 6 — normalized energy (GPU / AP) for
Llama2-7b/13b/70b across sequence lengths and batch sizes."""

from repro.experiments import render_comparison  # registry: "figs6_8"


def test_fig6_normalized_energy(comparison_points):
    print()
    print(render_comparison(comparison_points, "energy"))
    # Paper: the AP is more energy efficient than both GPUs for all models,
    # sequence lengths and batch sizes, with the highest savings at
    # batch 1 / sequence 128 and the ratio flattening as the tensor grows.
    assert all(p.normalized_energy > 10 for p in comparison_points)
    a100_7b_batch1 = {
        p.sequence_length: p.normalized_energy
        for p in comparison_points
        if p.gpu == "A100" and p.model == "Llama2-7b" and p.batch_size == 1
    }
    assert a100_7b_batch1[128] == max(a100_7b_batch1.values())
