"""Tests for the experiment registry and the JSON round trip of every
registered experiment result."""

import json

import pytest

import repro.experiments  # noqa: F401  (registers every experiment)
from repro.runtime.registry import (
    Experiment,
    UnknownExperimentError,
    experiment_names,
    get_experiment,
    iter_experiments,
    register,
)

#: Registry names every paper artefact must be reachable under.
EXPECTED_NAMES = {
    "fig1",
    "table1",
    "table2",
    "table3_4",
    "fidelity",
    "cluster-parity",
    "llm-speed",
    "llm-generate",
    "figs6_8",
    "table5",
    "table6",
    "area",
}


class TestRegistry:
    def test_every_paper_artefact_is_registered(self):
        assert EXPECTED_NAMES <= set(experiment_names())

    def test_get_experiment_returns_singletons(self):
        assert get_experiment("table1") is get_experiment("table1")

    def test_unknown_name_suggests_closest(self):
        with pytest.raises(UnknownExperimentError, match="did you mean 'table2'"):
            get_experiment("tabel2")

    def test_every_experiment_has_metadata(self):
        for experiment in iter_experiments():
            assert experiment.name
            assert experiment.title
            assert experiment.description

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register("table1")
            class Clash(Experiment):  # pragma: no cover - never runs
                def run(self, config=None):
                    return []

                def render(self, result):
                    return ""


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_json_round_trip_renders_identically(name):
    """Result -> to_dict -> json -> from_dict -> render must be identical
    to rendering the original result, for every registered experiment."""
    experiment = get_experiment(name)
    result = experiment.run(experiment.fast_config)
    rendered = experiment.render(result)
    assert rendered  # every experiment renders something

    payload = json.loads(json.dumps(experiment.to_dict(result)))
    assert payload["experiment"] == name
    restored = experiment.from_dict(payload)
    assert experiment.render(restored) == rendered


def test_round_trip_preserves_precision_configs():
    experiment = get_experiment("fidelity")
    result = experiment.run(experiment.fast_config)
    restored = experiment.from_dict(
        json.loads(json.dumps(experiment.to_dict(result)))
    )
    for original, rebuilt in zip(result, restored):
        assert rebuilt.precision == original.precision
        assert rebuilt.kl_to_fp == original.kl_to_fp  # exact float round trip


def test_fidelity_render_names_the_length_it_ran():
    experiment = get_experiment("fidelity")
    result = experiment.run(experiment.fast_config)
    assert {point.sequence_length for point in result} == {512}
    rendered = experiment.render(
        experiment.from_dict(json.loads(json.dumps(experiment.to_dict(result))))
    )
    assert "sequence length 512" in rendered
    assert "2048" not in rendered


def test_scalar_result_round_trip():
    experiment = get_experiment("cluster-parity")
    result = experiment.run(experiment.fast_config)
    restored = experiment.from_dict(
        json.loads(json.dumps(experiment.to_dict(result)))
    )
    assert restored == result  # frozen dataclass: field-wise equality
    assert restored.bit_identical
