"""SoftmaxServer reliability: deadlines, retries, breakers, hardened TCP.

Everything here runs with a :class:`FaultInjector` installed for a
bounded window and asserts the serving contract survives: every request
gets exactly one outcome, and every *successful* response stays
bit-identical to standalone execution on the fault-free backend.
"""

import asyncio
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability.faults import FaultInjector, FaultSpec, InjectedFault
from repro.reliability.retry import DeadlineExceeded, RetryPolicy
from repro.runtime.backend import (
    BackendSpec,
    BackendTelemetry,
    SoftmaxResult,
    resolve_backend,
)
from repro.serve.server import ServerClosed, SoftmaxServer

SPEC = BackendSpec(name="ap-cluster", num_heads=2, sequence_length=16)


def _standalone(scores, lengths=None, spec=SPEC):
    return resolve_backend(spec).run_rows(
        scores, valid_lengths=lengths
    ).probabilities


class TestDeadlines:
    def test_backlogged_request_expires_with_structured_error(self):
        async def scenario():
            # The admission window (200 ms) dwarfs the deadline (10 ms):
            # the lone request dies in the backlog, not on the worker.
            async with SoftmaxServer(SPEC, max_wait_ms=200.0) as server:
                with pytest.raises(DeadlineExceeded) as info:
                    await server.submit(np.zeros((1, 8)), deadline_ms=10.0)
                return info.value, server.health()

        error, health = asyncio.run(scenario())
        assert error.deadline_ms == 10.0
        assert error.waited_ms >= 10.0
        assert health.deadline_expired == 1
        assert health.requests_failed == 1

    def test_default_deadline_applies_to_every_request(self):
        async def scenario():
            async with SoftmaxServer(
                SPEC, max_wait_ms=200.0, default_deadline_ms=10.0
            ) as server:
                with pytest.raises(DeadlineExceeded):
                    await server.submit(np.zeros((1, 8)))

        asyncio.run(scenario())

    def test_invalid_deadline_rejected_at_submit(self):
        async def scenario():
            async with SoftmaxServer(SPEC, max_wait_ms=1.0) as server:
                with pytest.raises(ValueError, match="deadline_ms"):
                    await server.submit(np.zeros((1, 8)), deadline_ms=0.0)

        asyncio.run(scenario())

    def test_generous_deadline_serves_normally(self):
        async def scenario():
            async with SoftmaxServer(SPEC, max_wait_ms=1.0) as server:
                return await server.submit(
                    np.arange(8.0), deadline_ms=60_000.0
                )

        response = asyncio.run(scenario())
        assert not response.deadline_missed
        np.testing.assert_array_equal(
            response.probabilities, _standalone(np.arange(8.0).reshape(1, 8))[0]
        )


class TestRetries:
    def test_transient_engine_fault_is_retried_to_success(self):
        # The tick fails once (fire 1), the per-request fallback fails
        # once more (fire 2), the retry succeeds: retries == 1.
        injector = FaultInjector(
            [FaultSpec(site="engine:compiled", count=2, name="blip")]
        )
        scores = np.random.default_rng(0).standard_normal((2, 16))

        async def scenario():
            async with SoftmaxServer(
                SPEC,
                max_wait_ms=1.0,
                retry_policy=RetryPolicy(max_retries=3, jitter_ms=0.0),
                engine_chain=("compiled",),
                breaker_failure_threshold=10,
            ) as server:
                response = await server.submit(scores)
                return response, server.health()

        with injector.install():
            response, health = asyncio.run(scenario())
        assert injector.fired("blip") == 2
        assert response.retries == 1
        assert response.backoff_ms > 0.0
        assert response.engine == "compiled"
        assert health.retries == 1
        assert health.backoff_ms == response.backoff_ms
        np.testing.assert_array_equal(
            response.probabilities, _standalone(scores)
        )

    def test_exhausted_retry_budget_surfaces_the_fault(self):
        injector = FaultInjector([FaultSpec(site="engine:compiled")])

        async def scenario():
            async with SoftmaxServer(
                SPEC,
                max_wait_ms=1.0,
                retry_policy=RetryPolicy(
                    max_retries=1, base_backoff_ms=0.1, jitter_ms=0.0
                ),
                engine_chain=("compiled",),
                breaker_failure_threshold=100,
            ) as server:
                with pytest.raises(InjectedFault):
                    await server.submit(np.zeros((1, 8)))
                return server.health()

        with injector.install():
            health = asyncio.run(scenario())
        assert health.requests_failed == 1
        assert health.retries == 1  # the budget was spent before giving up

    def test_without_policy_transient_faults_fail_fast(self):
        injector = FaultInjector([FaultSpec(site="engine:compiled", count=2)])

        async def scenario():
            async with SoftmaxServer(
                SPEC,
                max_wait_ms=1.0,
                engine_chain=("compiled",),
                breaker_failure_threshold=100,
            ) as server:
                with pytest.raises(InjectedFault):
                    await server.submit(np.zeros((1, 8)))
                return server.health()

        with injector.install():
            health = asyncio.run(scenario())
        assert health.retries == 0


class TestEngineFallback:
    def test_outage_degrades_then_recovers_bit_identically(self):
        # Trip threshold 1 + probe interval 1: the first compiled fault
        # degrades the chain; the second (a failed probe) re-opens it;
        # the third probe outlives the fault budget and recovers.
        injector = FaultInjector(
            [FaultSpec(site="engine:compiled", count=2, name="outage")]
        )
        rng = np.random.default_rng(4)
        requests = [rng.standard_normal((1, 16)) * 3 for _ in range(5)]

        async def scenario():
            async with SoftmaxServer(
                SPEC,
                max_wait_ms=1.0,
                retry_policy=RetryPolicy(max_retries=3, jitter_ms=0.0),
                engine_chain=("compiled", "vectorized"),
                breaker_failure_threshold=1,
                breaker_probe_interval=1,
            ) as server:
                responses = []
                for scores in requests:  # sequential: one tick each
                    responses.append(await server.submit(scores))
                return responses, server.health()

        with injector.install():
            responses, health = asyncio.run(scenario())
        engines = {r.engine for r in responses}
        assert "vectorized" in engines  # somebody was served degraded
        assert health.degrades >= 1
        assert health.recoveries >= 1
        assert health.engine == "compiled"  # recovered by the end
        assert health.breaker_state == "closed"
        assert any("->" in t for t in health.transitions)
        assert any("=>" in t for t in health.transitions)
        assert health.availability == 1.0
        # Degradation is invisible in the bits.
        for scores, response in zip(requests, responses):
            np.testing.assert_array_equal(
                response.probabilities, _standalone(scores)
            )

    @pytest.mark.parametrize("name", ["ap", "ap-batch", "ap-cluster"])
    def test_degraded_engine_serves_the_same_backend(self, name):
        """A fallback engine runs the primary's backend kind (one AP core,
        same cost rule), only on another engine."""
        spec = BackendSpec(name=name, num_heads=2, sequence_length=16)
        injector = FaultInjector([FaultSpec(site="engine:compiled")])
        scores = np.random.default_rng(5).standard_normal((2, 16))

        async def scenario():
            async with SoftmaxServer(
                spec,
                max_wait_ms=1.0,
                retry_policy=RetryPolicy(max_retries=2, jitter_ms=0.0),
                engine_chain=("compiled", "vectorized"),
                breaker_failure_threshold=1,
            ) as server:
                return await server.submit(scores)

        with injector.install():
            response = asyncio.run(scenario())
        alone = resolve_backend(spec).run_rows(scores)
        assert response.engine == "vectorized"
        assert response.result.backend == name
        assert response.result.cost == alone.cost
        np.testing.assert_array_equal(response.probabilities, alone.probabilities)

    def test_engine_chain_requires_spec_backend(self):
        backend = resolve_backend(SPEC)
        with pytest.raises(ValueError, match="engine_chain"):
            SoftmaxServer(backend, engine_chain=("compiled", "vectorized"))

    def test_client_errors_do_not_trip_the_breaker(self):
        async def scenario():
            async with SoftmaxServer(
                SPEC,
                max_wait_ms=1.0,
                engine_chain=("compiled", "vectorized"),
                breaker_failure_threshold=1,
            ) as server:
                for _ in range(3):
                    with pytest.raises(ValueError, match="1..seq"):
                        await server.submit(
                            np.zeros((1, 8)), valid_lengths=[99]
                        )
                good = await server.submit(np.arange(8.0))
                return good, server.health()

        good, health = asyncio.run(scenario())
        assert health.degrades == 0
        assert health.engine == "compiled"
        assert good.engine == "compiled"


class TestHealthSnapshot:
    def test_disabled_reliability_reports_cleanly(self):
        async def scenario():
            async with SoftmaxServer(SPEC, max_wait_ms=1.0) as server:
                await server.submit(np.arange(8.0))
                return server.health()

        health = asyncio.run(scenario())
        assert health.requests_completed == 1
        assert health.availability == 1.0
        assert health.error_rate == 0.0
        assert health.engine is None
        assert health.breaker_state == "disabled"
        round_trip = json.loads(json.dumps(health.to_dict()))
        assert round_trip["availability"] == 1.0
        assert round_trip["transitions"] == []


class _SlowBackend:
    """Run-only backend that stalls: pins close() against in-flight ticks."""

    def __init__(self, delay_s=0.2):
        self.spec = BackendSpec(name="float")
        self.telemetry = BackendTelemetry()
        self.delay_s = delay_s

    def run(self, scores, valid_lengths=None):
        time.sleep(self.delay_s)
        return SoftmaxResult(probabilities=np.asarray(scores, dtype=float))

    def softmax_fn(self):
        return lambda s: np.asarray(s)


class TestCloseDrain:
    def test_in_flight_tick_requests_get_server_closed(self):
        async def scenario():
            server = SoftmaxServer(_SlowBackend(), max_wait_ms=1.0)
            await server.start()
            pending = asyncio.ensure_future(server.submit(np.arange(4.0)))
            await asyncio.sleep(0.05)  # the tick is now on the worker
            start = time.monotonic()
            await server.close()
            elapsed = time.monotonic() - start
            with pytest.raises(ServerClosed):
                await pending
            return elapsed, server.health()

        elapsed, health = asyncio.run(scenario())
        assert elapsed < 5.0  # close() joined the worker, no hang
        assert health.requests_failed == 1

    def test_close_is_idempotent_and_final(self):
        async def scenario():
            server = SoftmaxServer("float", max_wait_ms=1.0)
            await server.start()
            await server.close()
            await server.close()
            with pytest.raises(ServerClosed):
                await server.submit(np.arange(4.0))

        asyncio.run(scenario())


class TestFaultedCoalescingProperty:
    @given(
        rows=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=8),
        max_batch_rows=st.sampled_from([None, 2, 4]),
        tick_fault_ratio=st.sampled_from([0.0, 0.3, 0.7]),
        fault_seed=st.integers(min_value=0, max_value=3),
        data_seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_request_resolves_once_bit_identically(
        self, rows, max_batch_rows, tick_fault_ratio, fault_seed, data_seed
    ):
        """Injected tick faults x coalesce/take_admissible/carry-over:
        no request is dropped or duplicated, and every response matches
        standalone execution bit for bit (failed ticks fall back to
        per-request execution, so all requests still succeed)."""
        rng = np.random.default_rng(data_seed)
        requests = [rng.standard_normal((r, 16)) * 3 for r in rows]
        injector = FaultInjector(
            [
                FaultSpec(
                    site="serve:tick",
                    probability=tick_fault_ratio,
                    name="tick-chaos",
                )
            ]
            if tick_fault_ratio
            else [],
            seed=fault_seed,
        )

        async def scenario():
            async with SoftmaxServer(
                SPEC, max_wait_ms=5.0, max_batch_rows=max_batch_rows
            ) as server:
                responses = await asyncio.gather(
                    *(server.submit(scores) for scores in requests)
                )
                return responses, server.stats()

        with injector.install():
            responses, stats = asyncio.run(scenario())
        assert len(responses) == len(requests)
        assert stats.requests == len(requests)  # admitted exactly once each
        if max_batch_rows is not None:
            # An oversized request becomes a tick of its own; any
            # coalesced tick respects the admission cap.
            assert all(
                r.batch_rows <= max_batch_rows or r.batch_requests == 1
                for r in responses
            )
        for scores, response in zip(requests, responses):
            assert response.probabilities.shape == scores.shape
            np.testing.assert_array_equal(
                response.probabilities, _standalone(scores)
            )


class TestHardenedTcp:
    @staticmethod
    async def _round_trip(writer, reader, payload):
        if isinstance(payload, bytes):
            writer.write(payload + b"\n")
        else:
            writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    def _serve(self, scenario_fn, **server_kwargs):
        async def runner():
            server_kwargs.setdefault("max_wait_ms", 1.0)
            tcp_kwargs = server_kwargs.pop("tcp_kwargs", {})
            async with SoftmaxServer(SPEC, **server_kwargs) as server:
                tcp = await server.serve_tcp(port=0, **tcp_kwargs)
                host, port = tcp.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    return await scenario_fn(reader, writer)
                finally:
                    writer.close()
                    await writer.wait_closed()
                    tcp.close()
                    await tcp.wait_closed()

        return asyncio.run(runner())

    def test_malformed_json_keeps_the_connection_serving(self):
        async def scenario(reader, writer):
            bad = await self._round_trip(writer, reader, b"{not json")
            good = await self._round_trip(
                writer, reader, {"id": 7, "scores": [[0.0] * 8]}
            )
            return bad, good

        bad, good = self._serve(scenario)
        assert bad["code"] == "bad-json"
        assert bad["id"] is None
        assert good["id"] == 7
        assert "probabilities" in good

    def test_unknown_fields_report_with_request_id(self):
        async def scenario(reader, writer):
            return await self._round_trip(
                writer,
                reader,
                {"id": 3, "scores": [[0.0] * 8], "priority": "high"},
            )

        reply = self._serve(scenario)
        assert reply["code"] == "bad-request"
        assert reply["id"] == 3
        assert "priority" in reply["error"]

    def test_non_integer_lengths_are_a_bad_request(self):
        async def scenario(reader, writer):
            bad = await self._round_trip(
                writer,
                reader,
                {"id": 5, "scores": [[0, 1, 2, 3]], "valid_lengths": [2.7]},
            )
            good = await self._round_trip(
                writer, reader, {"id": 6, "scores": [[0.0] * 8]}
            )
            return bad, good

        bad, good = self._serve(scenario)
        assert bad["code"] == "bad-request"
        assert bad["id"] == 5
        assert "integers" in bad["error"]
        assert good["id"] == 6
        assert "probabilities" in good

    def test_non_object_and_missing_scores_are_structured(self):
        async def scenario(reader, writer):
            array = await self._round_trip(writer, reader, [1, 2, 3])
            naked = await self._round_trip(writer, reader, {"id": 9})
            return array, naked

        array, naked = self._serve(scenario)
        assert array["code"] == "bad-request" and array["id"] is None
        assert naked["code"] == "bad-request" and naked["id"] == 9
        assert "scores" in naked["error"]

    def test_oversized_line_is_discarded_not_fatal(self):
        async def scenario(reader, writer):
            huge = {"id": 1, "scores": [[0.0] * 4096]}
            oversized = await self._round_trip(writer, reader, huge)
            survivor = await self._round_trip(
                writer, reader, {"id": 2, "scores": [[0.0] * 8]}
            )
            return oversized, survivor

        oversized, survivor = self._serve(
            scenario, tcp_kwargs={"max_line_bytes": 1024}
        )
        assert oversized["code"] == "oversized"
        assert "1024" in oversized["error"]
        assert survivor["id"] == 2
        assert "probabilities" in survivor

    def test_max_line_bytes_validated(self):
        async def runner():
            async with SoftmaxServer(SPEC, max_wait_ms=1.0) as server:
                with pytest.raises(ValueError, match="max_line_bytes"):
                    await server.serve_tcp(port=0, max_line_bytes=0)

        asyncio.run(runner())

    def test_health_op_returns_snapshot(self):
        async def scenario(reader, writer):
            await self._round_trip(
                writer, reader, {"id": 1, "scores": [[0.0] * 8]}
            )
            health = await self._round_trip(
                writer, reader, {"id": 2, "op": "health"}
            )
            unknown = await self._round_trip(
                writer, reader, {"id": 3, "op": "dance"}
            )
            return health, unknown

        health, unknown = self._serve(
            scenario, engine_chain=("compiled", "vectorized")
        )
        assert health["id"] == 2
        assert health["health"]["requests_completed"] == 1
        assert health["health"]["availability"] == 1.0
        assert health["health"]["engine"] == "compiled"
        assert health["health"]["breaker_state"] == "closed"
        assert unknown["code"] == "bad-request"

    def test_deadline_ms_rides_the_wire(self):
        async def scenario(reader, writer):
            return await self._round_trip(
                writer,
                reader,
                {"id": 4, "scores": [[0.0] * 8], "deadline_ms": 5.0},
            )

        reply = self._serve(scenario, max_wait_ms=200.0)
        assert reply["code"] == "deadline"
        assert reply["id"] == 4

    def test_successful_reply_carries_reliability_fields(self):
        async def scenario(reader, writer):
            return await self._round_trip(
                writer, reader, {"id": 5, "scores": [[0.5] * 8]}
            )

        reply = self._serve(scenario)
        assert reply["retries"] == 0
        assert reply["deadline_missed"] is False
