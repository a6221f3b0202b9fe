"""Benchmark regenerating Table I — mixed-precision bit widths."""

from repro.runtime import get_experiment


def test_table1_precisions():
    experiment = get_experiment("table1")
    entries = experiment.run()
    print()
    print(experiment.render(entries))
    assert len(entries) == 9
