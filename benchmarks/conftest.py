"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper through the
experiment registry (:mod:`repro.runtime.registry` — the same uniform
contract the ``python -m repro`` CLI drives) and prints the rendered table
so the numbers can be compared against the paper (they are also recorded
in EXPERIMENTS.md).  The ``perf``-marked benchmarks pin wall-clock ratios
(:mod:`floors`) and record what they measured through ``perf_artifact``.
"""

import json
import os
import pathlib

import pytest

from repro.runtime import get_experiment


BENCHMARKS_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Tag every test under ``benchmarks/`` with the ``bench`` marker so CI
    tiers can select or deselect the whole table/figure-regeneration tree
    with ``-m bench`` / ``-m "not bench"`` without listing paths.  (The hook
    receives the entire session's items, so filter by path.)"""
    for item in items:
        if BENCHMARKS_DIR in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def comparison_points():
    """The Figs. 6-8 sweep, shared by several benchmarks."""
    return get_experiment("figs6_8").run()


@pytest.fixture
def perf_artifact():
    """``write(experiment, result, name=None, **floors)`` records one
    measurement when ``REPRO_PERF_DIR`` is set.

    It writes ``$REPRO_PERF_DIR/<name>.json`` (``name`` defaults to the
    experiment's registry name): ``experiment.to_dict(result)`` plus a
    ``floors`` map of each ``key=(measured, floor)``.  Benchmarks call it
    before asserting, so a missed floor still leaves its numbers behind.
    """

    def write(experiment, result, name=None, **floors):
        perf_dir = os.environ.get("REPRO_PERF_DIR")
        if not perf_dir:
            return
        payload = experiment.to_dict(result)
        payload["floors"] = {
            key: {"measured": measured, "floor": floor}
            for key, (measured, floor) in floors.items()
        }
        path = pathlib.Path(perf_dir)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / f"{name or experiment.name}.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    return write
