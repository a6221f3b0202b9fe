"""Sustained-load serving experiment: throughput/latency vs arrival rate.

The ``serve-load`` experiment drives the same seeded Poisson request
stream (:class:`~repro.serve.loadgen.LoadProfile`: mixed row counts,
ragged sequence lengths) through two deployments at each arrival rate:

* **served** — the :class:`~repro.serve.server.SoftmaxServer` admission
  loop, coalescing concurrent requests into one fused head-major row
  space per scheduling tick within the ``max_wait_ms`` /
  ``max_batch_rows`` budget;
* **serial** — the one-request-per-pass baseline: every request executes
  its own standalone backend pass, back to back.

Each :class:`ServeLoadPoint` reports the achieved throughput, the
p50/p99/mean client-observed latency, the admission-loop batch
composition (requests and rows per tick, pass-row-budget occupancy), the
serial sweep's wall-clock, and ``responses_identical`` — every coalesced
response must be **bit-identical** to its standalone execution, which is
the serving layer's correctness contract
(``benchmarks/test_serve_load.py`` pins it across every sweep backend and
engine, together with the >= 3x saturated-throughput floor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.ap.engine import canonical_engine_name
from repro.runtime.backend import (
    BackendSpec,
    canonical_backend_name,
    resolve_backend,
    rows_runner,
)
from repro.runtime.registry import Experiment, register
from repro.serve.loadgen import LoadProfile, run_load, run_serial_baseline
from repro.serve.server import SoftmaxServer

__all__ = [
    "ServeLoadPoint",
    "run_serve_load",
    "render_serve_load",
    "ServeLoadExperiment",
]


@dataclass(frozen=True)
class ServeLoadPoint:
    """One arrival rate's serving-vs-serial measurements."""

    rate_rps: float
    num_requests: int
    backend: str
    engine: Optional[str]
    max_wait_ms: float
    max_batch_rows: Optional[int]
    throughput_rps: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    mean_batch_requests: float
    max_batch_requests: int
    mean_batch_rows: float
    mean_occupancy: float
    serve_seconds: float
    serial_seconds: float
    responses_identical: bool

    @property
    def serial_throughput_rps(self) -> float:
        """Requests/sec of the one-request-per-pass baseline."""
        return (
            self.num_requests / self.serial_seconds if self.serial_seconds else 0.0
        )

    @property
    def speedup(self) -> float:
        """Served over serial throughput (>= 1 once arrivals saturate)."""
        serial = self.serial_throughput_rps
        return self.throughput_rps / serial if serial else 0.0


def _backend_spec(
    backend: str,
    engine: Optional[str],
    num_heads: int,
    sequence_length: int,
    pass_row_budget: Optional[int],
) -> BackendSpec:
    options = {}
    if pass_row_budget:
        if backend != "ap-cluster":
            raise ValueError(
                "pass_row_budget is an ap-cluster knob (the planner tiles "
                f"the cluster's fused row space); backend is {backend!r}"
            )
        options["pass_row_budget"] = pass_row_budget
    return BackendSpec(
        name=backend,
        num_heads=num_heads,
        sequence_length=sequence_length,
        engine=engine,
        options=options,
    )


def _warm(backend, sequence_lengths: Tuple[int, ...]) -> None:
    """Compile every plan shape outside the timed windows.

    Both deployments execute the same per-length plans; warming them keeps
    the measurement about serving, not first-touch plan compilation (the
    same practice as the other speed experiments).
    """
    run_rows = rows_runner(backend)
    for seq in sorted(set(sequence_lengths)):
        run_rows(np.zeros((1, seq)))


def run_serve_load(
    rates: Tuple[float, ...] = (50.0, 200.0, 1000.0),
    num_requests: int = 96,
    backend: str = "ap-cluster",
    engine: Optional[str] = None,
    num_heads: int = 4,
    sequence_lengths: Tuple[int, ...] = (16, 32, 64),
    rows: Tuple[int, int] = (1, 4),
    ragged_fraction: float = 0.5,
    max_wait_ms: float = 2.0,
    max_batch_rows: Optional[int] = 256,
    pass_row_budget: Optional[int] = None,
    seed: int = 0,
):
    """Sweep arrival rates; serve and serially replay the same stream.

    Defaults exercise the fused cluster path: an ``ap-cluster`` backend
    with a ``pass_row_budget`` (auto-selected as 4096 when left ``None``),
    so coalesced ticks flow through the planner's tiling and the two-stage
    pipeline schedule.  Pass ``pass_row_budget=0`` to disable the tiling
    budget; a non-zero budget on a non-cluster backend is an error.
    """
    canonical = canonical_backend_name(backend)
    if engine is not None:
        engine = canonical_engine_name(engine)
    if pass_row_budget is None and canonical == "ap-cluster":
        pass_row_budget = 4096
    sequence_length = max(sequence_lengths)
    points = []
    for rate in rates:
        profile = LoadProfile(
            rate_rps=rate,
            num_requests=num_requests,
            rows=rows,
            sequence_lengths=tuple(sequence_lengths),
            ragged_fraction=ragged_fraction,
            seed=seed,
        )
        requests = profile.requests()
        spec = _backend_spec(
            canonical, engine, num_heads, sequence_length, pass_row_budget
        )
        served_backend = resolve_backend(spec)
        _warm(served_backend, tuple(sequence_lengths))
        server = SoftmaxServer(
            served_backend,
            max_wait_ms=max_wait_ms,
            max_batch_rows=max_batch_rows,
        )
        report = run_load(server, requests)
        serial_backend = resolve_backend(spec)
        _warm(serial_backend, tuple(sequence_lengths))
        serial_probabilities, serial_seconds = run_serial_baseline(
            serial_backend, requests
        )
        identical = all(
            np.array_equal(alone, outcome.response.probabilities)
            for alone, outcome in zip(serial_probabilities, report.outcomes)
        )
        points.append(
            ServeLoadPoint(
                rate_rps=rate,
                num_requests=num_requests,
                backend=canonical,
                engine=engine,
                max_wait_ms=max_wait_ms,
                max_batch_rows=max_batch_rows,
                throughput_rps=report.throughput_rps,
                p50_ms=report.p50_ms,
                p99_ms=report.p99_ms,
                mean_ms=report.mean_ms,
                mean_batch_requests=report.mean_batch_requests,
                max_batch_requests=report.max_batch_requests,
                mean_batch_rows=report.mean_batch_rows,
                mean_occupancy=report.mean_occupancy,
                serve_seconds=report.makespan_s,
                serial_seconds=serial_seconds,
                responses_identical=identical,
            )
        )
    return points


def render_serve_load(points) -> str:
    """Render the throughput/latency curve as a text table."""
    if not points:
        return "serve-load: no points"
    first = points[0]
    engine = first.engine or "default"
    header = (
        f"Serving sweep: backend {first.backend} (engine {engine}), "
        f"{first.num_requests} requests/rate, max_wait "
        f"{first.max_wait_ms:g} ms, max_batch_rows {first.max_batch_rows}"
    )
    lines = [
        header,
        f"{'rate':>8}  {'served':>8}  {'p50 ms':>8}  {'p99 ms':>8}  "
        f"{'req/tick':>8}  {'occup':>6}  {'serial':>8}  {'speedup':>8}  "
        f"identical",
    ]
    for p in points:
        lines.append(
            f"{p.rate_rps:>8.0f}  {p.throughput_rps:>8.1f}  {p.p50_ms:>8.2f}  "
            f"{p.p99_ms:>8.2f}  {p.mean_batch_requests:>8.1f}  "
            f"{p.mean_occupancy:>6.2f}  {p.serial_throughput_rps:>8.1f}  "
            f"{p.speedup:>7.1f}x  {'yes' if p.responses_identical else 'NO'}"
        )
    return "\n".join(lines)


@register("serve-load")
class ServeLoadExperiment(Experiment):
    """Registry wrapper: the serving layer's throughput/latency curves.

    ``--backend`` selects the softmax backend the server coalesces onto
    (default ``ap-cluster`` — the fused cluster path); ``--set
    engine=compiled`` etc. picks the functional AP engine underneath.
    """

    title = "Serving"
    description = "continuous-batching throughput + p50/p99 latency vs serial"
    row_type = ServeLoadPoint
    backend_config_key = "backend"
    fast_config = {
        "rates": (400.0,),
        "num_requests": 16,
        "num_heads": 2,
        "sequence_lengths": (8, 16),
        "max_wait_ms": 1.0,
    }
    runner = staticmethod(run_serve_load)

    def run(self, config=None):
        kwargs = self._config_kwargs(config)
        for key in ("rates", "sequence_lengths", "rows"):
            if key in kwargs and isinstance(kwargs[key], list):
                kwargs[key] = tuple(kwargs[key])
        return self.runner(**kwargs)

    def render(self, result):
        return render_serve_load(result)
