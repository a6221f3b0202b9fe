"""Chaos benchmark: the pinned reliability floor under injected faults.

The default ``chaos-load`` schedule stages a compiled-engine outage plus
seeded tick-latency spikes against the full reliability stack (deadlines,
retries with capped backoff, the engine-fallback chain).  Three pins, all
asserted here and in the CI ``chaos-smoke`` job:

* availability >= 0.99 on the seeded request stream;
* every successful response bit-identical to the fault-free serial run;
* the breaker story actually happened — at least one degrade *and* one
  recovery in the chain's transition log.

With ``REPRO_PERF_DIR`` set the full chaos report lands in
``chaos-load.json`` (the CI job uploads it as an artifact).
"""

from repro.runtime import get_experiment

#: The pinned availability floor under the default fault schedule.
CHAOS_AVAILABILITY_FLOOR = 0.99


def test_chaos_load_availability_and_bit_identity(perf_artifact):
    """Pin: the default seeded outage never costs availability or bits."""
    experiment = get_experiment("chaos-load")
    rows = experiment.run()
    report = rows[0]
    print()
    print(experiment.render(rows))
    perf_artifact(
        experiment,
        rows,
        availability=(report.availability, CHAOS_AVAILABILITY_FLOOR),
    )
    assert report.fault_events > 0, "the fault schedule never fired"
    assert report.availability >= CHAOS_AVAILABILITY_FLOOR, (
        f"availability {report.availability:.4f} under the default fault "
        f"schedule (floor {CHAOS_AVAILABILITY_FLOOR})"
    )
    assert report.successes_identical, (
        "a response served under faults diverged from the fault-free run"
    )
    assert report.degrades >= 1, "the breaker never degraded the chain"
    assert report.recoveries >= 1, "the chain never recovered to primary"
