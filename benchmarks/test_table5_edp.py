"""Benchmark regenerating Table V — highest EDP ratios per model and GPU."""

from repro.runtime import get_experiment


def test_table5_highest_edp(comparison_points):
    experiment = get_experiment("table5")
    entries = experiment.run({"points": comparison_points})
    print()
    print(experiment.render(entries))
    by_key = {(e.gpu, e.model): e.highest_edp_ratio for e in entries}
    # Paper: RTX3090 ratios exceed A100 ratios, 70b exceeds 7b, and the
    # maxima land at sequence length 4096 with large batches (order of
    # magnitude 10^3).
    assert by_key[("RTX3090", "Llama2-7b")] > by_key[("A100", "Llama2-7b")]
    assert by_key[("A100", "Llama2-70b")] > by_key[("A100", "Llama2-7b")]
    assert all(200 < v < 50000 for v in by_key.values())
    assert all(e.at_sequence_length == 4096 for e in entries)
