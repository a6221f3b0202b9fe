"""Benchmark regenerating Table VI — comparison with ConSmax / Softermax."""

from repro.runtime import get_experiment


def test_table6_related_works():
    experiment = get_experiment("table6")
    entries = experiment.run()
    print()
    print(experiment.render(entries))
    softmap = entries[-1]
    assert softmap.energy_per_op_pj < min(e.energy_per_op_pj for e in entries[:-1])
