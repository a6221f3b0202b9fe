"""Closed-loop load generator for the serving layer.

Generates deterministic, seeded request streams — Poisson arrivals at a
configurable rate, ragged request shapes (mixed row counts, mixed
sequence lengths, a fraction with explicit per-row causal
``valid_lengths``) — and drives them through a
:class:`~repro.serve.server.SoftmaxServer`, recording per-request latency
and batch-composition telemetry.

The same request stream can be replayed through
:func:`run_serial_baseline` — one standalone backend pass per request, the
"serial one-request-per-pass" deployment the server's continuous batching
is measured against — so the ``serve-load`` experiment can report both a
throughput/latency curve *and* bit-identity of every coalesced response
against its standalone execution.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.runtime.backend import (
    BackendSpec,
    SoftmaxBackend,
    resolve_backend,
    rows_runner,
)
from repro.serve.server import ServeResponse, SoftmaxServer
from repro.utils.validation import check_positive_int

__all__ = [
    "LoadProfile",
    "LoadReport",
    "LoadRequest",
    "RequestOutcome",
    "drive_load",
    "drive_waves",
    "run_load",
    "run_serial_baseline",
]


@dataclass(frozen=True)
class LoadRequest:
    """One generated request: arrival offset plus payload."""

    arrival_s: float
    scores: np.ndarray
    valid_lengths: Optional[np.ndarray]


@dataclass(frozen=True)
class LoadProfile:
    """Deterministic description of one request stream.

    Inter-arrival times are exponential (Poisson arrivals) at
    ``rate_rps``; each request draws a row count uniformly from ``rows``
    (inclusive), a sequence length from ``sequence_lengths``, and — with
    probability ``ragged_fraction`` — explicit per-row ``valid_lengths``
    (causally ragged prefixes).  Scores are standard-normal times
    ``score_scale``.  The stream is a pure function of the profile: the
    same profile always generates the same requests, so the serving run
    and the serial baseline see identical workloads.
    """

    rate_rps: float
    num_requests: int = 64
    rows: Tuple[int, int] = (1, 4)
    sequence_lengths: Tuple[int, ...] = (16, 32, 64)
    ragged_fraction: float = 0.5
    score_scale: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be > 0, got {self.rate_rps}")
        check_positive_int(self.num_requests, "num_requests")
        if not (1 <= self.rows[0] <= self.rows[1]):
            raise ValueError(f"rows must be an increasing range, got {self.rows}")
        if not self.sequence_lengths:
            raise ValueError("sequence_lengths must not be empty")
        if not 0.0 <= self.ragged_fraction <= 1.0:
            raise ValueError(
                f"ragged_fraction must lie in [0, 1], got {self.ragged_fraction}"
            )

    @property
    def max_sequence_length(self) -> int:
        return max(self.sequence_lengths)

    def requests(self) -> List[LoadRequest]:
        """Generate the stream (same profile -> same requests, always)."""
        rng = np.random.default_rng(self.seed)
        arrivals = np.cumsum(
            rng.exponential(1.0 / self.rate_rps, size=self.num_requests)
        )
        stream: List[LoadRequest] = []
        for arrival in arrivals:
            rows = int(rng.integers(self.rows[0], self.rows[1] + 1))
            seq = int(rng.choice(np.asarray(self.sequence_lengths)))
            scores = rng.standard_normal((rows, seq)) * self.score_scale
            lengths: Optional[np.ndarray] = None
            if rng.random() < self.ragged_fraction:
                lengths = rng.integers(1, seq + 1, size=rows)
            stream.append(
                LoadRequest(
                    arrival_s=float(arrival), scores=scores, valid_lengths=lengths
                )
            )
        return stream


@dataclass(frozen=True)
class RequestOutcome:
    """One served request's client-side measurements.

    ``response`` is ``None`` when the request failed (``error`` holds the
    exception — e.g. an exhausted retry budget or a missed deadline under
    a chaos run); a fault-free load run has ``ok`` outcomes only.
    """

    request: LoadRequest
    response: Optional[ServeResponse]
    latency_s: float
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.response is not None


@dataclass(frozen=True)
class LoadReport:
    """Aggregate latency/throughput statistics of one load run."""

    outcomes: List[RequestOutcome] = field(repr=False)
    makespan_s: float

    @property
    def num_requests(self) -> int:
        return len(self.outcomes)

    @property
    def successes(self) -> List[RequestOutcome]:
        """Outcomes that got a response (all of them, fault-free)."""
        return [o for o in self.outcomes if o.ok]

    @property
    def failures(self) -> List[RequestOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def availability(self) -> float:
        """Fraction of the stream that got a response (1.0 fault-free)."""
        return len(self.successes) / self.num_requests if self.outcomes else 1.0

    @property
    def throughput_rps(self) -> float:
        return self.num_requests / self.makespan_s if self.makespan_s else 0.0

    @property
    def latencies_ms(self) -> np.ndarray:
        """Client-observed latencies of the *successful* requests."""
        return np.asarray([o.latency_s * 1000.0 for o in self.successes])

    @property
    def p50_ms(self) -> float:
        return float(np.percentile(self.latencies_ms, 50))

    @property
    def p99_ms(self) -> float:
        return float(np.percentile(self.latencies_ms, 99))

    @property
    def mean_ms(self) -> float:
        return float(np.mean(self.latencies_ms))

    @property
    def total_retries(self) -> int:
        """Serving-side retry attempts across the successful responses."""
        return sum(o.response.retries for o in self.successes)

    @property
    def mean_batch_requests(self) -> float:
        """Mean coalesced requests per tick, weighted per request."""
        return float(
            np.mean([o.response.batch_requests for o in self.successes])
        )

    @property
    def max_batch_requests(self) -> int:
        return max(o.response.batch_requests for o in self.successes)

    @property
    def mean_batch_rows(self) -> float:
        return float(np.mean([o.response.batch_rows for o in self.successes]))

    @property
    def mean_occupancy(self) -> float:
        """Mean pass-row-budget occupancy over plan-carrying responses
        (1.0 when no response carried plan telemetry)."""
        values = [
            o.response.result.plan.occupancy
            for o in self.successes
            if o.response.result.plan is not None
        ]
        return float(np.mean(values)) if values else 1.0


async def _submit_timed(
    server: SoftmaxServer, request: LoadRequest
) -> RequestOutcome:
    """Submit one request and time it until its response arrives."""
    loop = asyncio.get_running_loop()
    sent = loop.time()
    try:
        response = await server.submit(
            request.scores, valid_lengths=request.valid_lengths
        )
    except Exception as error:  # noqa: BLE001 — a chaos run's failures
        # become per-request outcomes, not a failed load run
        return RequestOutcome(
            request=request,
            response=None,
            latency_s=loop.time() - sent,
            error=error,
        )
    return RequestOutcome(
        request=request, response=response, latency_s=loop.time() - sent
    )


async def drive_load(
    server: SoftmaxServer, requests: Sequence[LoadRequest]
) -> LoadReport:
    """Fire a request stream at the server on its arrival schedule.

    Each request sleeps until its Poisson arrival offset, submits, and
    awaits its response; the report's makespan runs from the stream start
    to the last completion.
    """
    await server.start()
    loop = asyncio.get_running_loop()
    epoch = loop.time()

    async def fire(request: LoadRequest) -> RequestOutcome:
        delay = epoch + request.arrival_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        return await _submit_timed(server, request)

    outcomes = await asyncio.gather(*(fire(r) for r in requests))
    return LoadReport(outcomes=list(outcomes), makespan_s=loop.time() - epoch)


async def drive_waves(
    server: SoftmaxServer, requests: Sequence[LoadRequest], window_s: float
) -> LoadReport:
    """Fire a request stream in waves whose composition follows the seed.

    A wave is the requests whose arrivals fall within ``window_s`` (the
    server's admission wait) of the wave's first request.  Each wave is
    submitted at once at its first arrival and awaited before the next is
    sent, so no tick mixes waves: which requests share a tick — and so
    what a failed tick retries — depends on the stream alone, not on
    wall-clock arrival timing.
    """
    waves: List[List[LoadRequest]] = []
    for request in requests:
        if waves and request.arrival_s - waves[-1][0].arrival_s <= window_s:
            waves[-1].append(request)
        else:
            waves.append([request])
    await server.start()
    loop = asyncio.get_running_loop()
    epoch = loop.time()
    outcomes: List[RequestOutcome] = []
    for wave in waves:
        delay = epoch + wave[0].arrival_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        outcomes.extend(
            await asyncio.gather(*(_submit_timed(server, r) for r in wave))
        )
    return LoadReport(outcomes=outcomes, makespan_s=loop.time() - epoch)


def run_load(
    server: SoftmaxServer,
    profile_or_requests: Union[LoadProfile, Sequence[LoadRequest]],
) -> LoadReport:
    """Synchronous front end: run one load profile to completion.

    Owns the event loop for the duration of the run and closes the server
    afterwards (the server's asyncio plumbing is bound to the loop that
    ran it, so it cannot be reused across ``run_load`` calls).
    """
    requests = (
        profile_or_requests.requests()
        if isinstance(profile_or_requests, LoadProfile)
        else list(profile_or_requests)
    )

    async def _run() -> LoadReport:
        async with server:
            return await drive_load(server, requests)

    return asyncio.run(_run())


def run_serial_baseline(
    backend: Union[str, BackendSpec, SoftmaxBackend],
    requests: Sequence[LoadRequest],
) -> Tuple[List[np.ndarray], float]:
    """One standalone backend pass per request, back to back.

    This is the deployment the serving layer replaces: every request pays
    its own full pass, no coalescing.  Returns the per-request probability
    matrices (the bit-identity references for the coalesced responses) and
    the total wall-clock of the sweep.
    """
    run_rows = rows_runner(resolve_backend(backend))
    probabilities: List[np.ndarray] = []
    start = time.perf_counter()
    for request in requests:
        probabilities.append(
            run_rows(
                request.scores, valid_lengths=request.valid_lengths
            ).probabilities
        )
    return probabilities, time.perf_counter() - start
