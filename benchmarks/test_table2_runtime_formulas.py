"""Benchmark regenerating Table II — 2D AP runtime of elementary operations,
cross-checked against the functional bit-serial simulator."""

from repro.runtime import get_experiment


def test_table2_runtime_formulas():
    experiment = get_experiment("table2")
    rows = experiment.run()
    print()
    print(experiment.render(rows))
    assert any(r.simulated_cycles is not None for r in rows)
