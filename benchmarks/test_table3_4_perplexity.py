"""Benchmarks regenerating Tables III & IV — precision sensitivity of the
integer-only softmax, driven through the experiment registry.

Three views are produced (see DESIGN.md §4):

* the end-to-end perplexity sweep on the trained substitute model
  (registry ``table3_4``);
* the softmax-fidelity sweep at the paper's 2048-token row length, which
  exposes the ``N`` (sum headroom) effect directly (registry ``fidelity``);
* the AP-cluster path (a ``table3_4`` run with
  ``softmax_backend="ap-cluster"``): the same perplexity evaluation with
  the attention softmax executed entirely on the functional multi-AP
  cluster.  Its parity and speed pins against the software pipeline and
  the row-by-row path live in ``test_plan_fusion.py``.
"""

from repro.experiments.table3_4_perplexity import train_reference_model
from repro.runtime import get_experiment


def test_table3_4_perplexity_sweep():
    experiment = get_experiment("table3_4")
    points = experiment.run(
        {"m_values": (6, 8), "n_values": (8, 16), "vcorr_deltas": (0,),
         "include_m4": True, "training_steps": 200}
    )
    print()
    print(experiment.render(points))
    values = {p.label: p.perplexity for p in points}
    fp = values["FP softmax"]
    # Integer softmax never improves on the FP baseline beyond noise.  At
    # this reduced scale the absolute gaps are small (EXPERIMENTS.md
    # discusses the muted sensitivity of the tiny substitute model); the
    # companion fidelity sweep below reproduces the paper's ordering.
    assert all(v >= fp - 0.05 for label, v in values.items() if label != "FP softmax")
    assert values["M=4, vcorr=M, N=16"] >= values["M=8, vcorr=M, N=16"] - 0.05


def test_table3_4_perplexity_runs_ap_backed_end_to_end():
    """The perplexity study itself (not just the softmax kernel) runs with
    every attention probability produced by the simulated AP cluster."""
    model, corpus = train_reference_model(seed=0, training_steps=120)
    experiment = get_experiment("table3_4")
    points = experiment.run(
        {"model": model, "corpus": corpus, "m_values": (6,),
         "n_values": (16,), "include_m4": False,
         "softmax_backend": "ap-cluster"}
    )
    print()
    print(experiment.render(points))
    values = {p.label: p.perplexity for p in points}
    fp = values.pop("FP softmax")
    assert values, "sweep produced no AP-backed configurations"
    # The AP-backed integer softmax degrades (never beats) the FP baseline,
    # like every other replacement path.
    assert all(v >= fp - 0.05 for v in values.values())


def test_table3_4_softmax_fidelity():
    experiment = get_experiment("fidelity")
    points = experiment.run({"sequence_length": 2048, "rows": 32})
    print()
    print(experiment.render(points))
    by_key = {(p.precision.input_bits, p.precision.vcorr_delta,
               p.precision.sum_extra_bits): p for p in points}
    # N = 8 truncates the sum at 2048 tokens; N >= 16 does not (Table III).
    assert by_key[(6, 0, 8)].mass_error > by_key[(6, 0, 16)].mass_error
    assert by_key[(6, 0, 16)].mass_error == by_key[(6, 0, 20)].mass_error
    # vcorr width never matters (Table III columns are identical).
    assert by_key[(6, 1, 16)].kl_to_fp == by_key[(6, 0, 16)].kl_to_fp
    # M = 8 tracks the FP softmax better than M = 6, which beats M = 4.
    assert by_key[(8, 0, 16)].kl_to_fp < by_key[(6, 0, 16)].kl_to_fp < by_key[(4, 0, 16)].kl_to_fp
