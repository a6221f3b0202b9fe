"""Benchmark regenerating Fig. 1 — softmax runtime proportion (Llama2-7b on
A100) versus sequence length."""

from repro.runtime import get_experiment


def test_fig1_softmax_proportion():
    experiment = get_experiment("fig1")
    results = experiment.run()
    print()
    print(experiment.render(results))
    fractions = {int(r["sequence_length"]): r["softmax_fraction"] for r in results}
    # Paper: ~3% at 1024 and below, up to 38% at 16384.
    assert fractions[1024] < 0.10
    assert fractions[16384] > 0.20
    assert fractions[16384] > fractions[1024]
