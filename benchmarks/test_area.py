"""Benchmark regenerating the AP area figures (0.64 / 0.81 / 1.28 mm^2)."""

from repro.runtime import get_experiment


def test_ap_area():
    experiment = get_experiment("area")
    entries = experiment.run()
    print()
    print(experiment.render(entries))
    for entry in entries:
        assert abs(entry.measured_area_mm2 - entry.paper_area_mm2) / entry.paper_area_mm2 < 0.10
