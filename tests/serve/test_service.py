"""End-to-end service behaviour: correctness, shedding, deadlines,
retry-with-degradation, caching, TCP transport.

Slow or faulty compute is injected through the service's
``machine_factory`` — the same seam the chaos harness uses — so every
scenario here is deterministic.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.ppa import FaultKind, FaultPlan, PPAConfig, PPAMachine
from repro.resilience import BackoffPolicy
from repro.serve import (
    PathQueryService,
    ServeClient,
    ServiceConfig,
)
from repro.serve.oracle import bellman_reference
from repro.serve.service import default_machine_factory

MAXINT = (1 << 16) - 1

WIRE = [
    [0, 2, None, 4, None, None],
    [None, 0, 1, None, 7, None],
    [None, None, 0, 3, None, None],
    [1, None, None, 0, None, 2],
    [None, None, None, None, 0, 1],
    [None, 3, None, None, None, 0],
]
GRID = np.asarray(
    [[MAXINT if v is None else v for v in row] for row in WIRE],
    dtype=np.int64,
)


def run(coro):
    return asyncio.run(coro)


def fast_config(**overrides) -> ServiceConfig:
    base = dict(
        workers=1,
        backoff=BackoffPolicy(base=0.001, cap=0.01, max_attempts=2),
        breaker_cooldown_s=0.2,
        recovery_successes=2,
    )
    base.update(overrides)
    return ServiceConfig(**base)


async def put(service, name="g", wire=WIRE):
    resp = await service.handle_request({
        "id": "put", "op": "put_graph", "graph": name, "weights": wire,
    })
    assert resp.status == "ok", resp.error
    return resp


class TestQueries:
    def test_point_matches_reference(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            for source in range(6):
                for dest in range(6):
                    resp = await service.handle_request({
                        "id": f"{source}-{dest}", "op": "point",
                        "graph": "g", "source": source, "dest": dest,
                    })
                    assert resp.status == "ok"
                    expect = int(bellman_reference(GRID, dest,
                                                   MAXINT)[source])
                    if expect >= MAXINT:
                        assert not resp.result["reachable"]
                        assert resp.result["cost"] is None
                    else:
                        assert resp.result["cost"] == expect
            await service.stop()

        run(main())

    def test_point_path_is_walkable(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "point", "graph": "g",
                "source": 0, "dest": 5, "want_path": True,
            })
            path = resp.result["path"]
            assert path[0] == 0 and path[-1] == 5
            cost = sum(int(GRID[a, b]) for a, b in zip(path, path[1:]))
            assert cost == resp.result["cost"]
            await service.stop()

        run(main())

    def test_dest_returns_whole_column(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "dest", "graph": "g", "dest": 3,
            })
            want = [int(v) for v in bellman_reference(GRID, 3, MAXINT)]
            assert resp.result["sow"] == want
            await service.stop()

        run(main())

    def test_apsp_summary_and_column_reuse(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "apsp", "graph": "g",
            })
            assert resp.status == "ok"
            assert resp.result["n"] == 6
            assert len(resp.result["digest"]) == 32
            # point queries now come straight from the APSP cache
            hits_before = service.counters["cache_hits"]
            resp = await service.handle_request({
                "id": 2, "op": "point", "graph": "g",
                "source": 0, "dest": 1,
            })
            assert resp.status == "ok"
            assert resp.timing.get("cached")
            assert service.counters["cache_hits"] == hits_before + 1
            await service.stop()

        run(main())

    def test_repeated_dest_is_cached(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            first = await service.handle_request({
                "id": 1, "op": "dest", "graph": "g", "dest": 2,
            })
            second = await service.handle_request({
                "id": 2, "op": "dest", "graph": "g", "dest": 2,
            })
            assert second.timing.get("cached")
            assert second.result["sow"] == first.result["sow"]
            await service.stop()

        run(main())

    def test_put_graph_bumps_version_and_invalidates(self):
        async def main():
            service = PathQueryService(fast_config())
            first = await put(service)
            assert first.result["version"] == 1
            await service.handle_request({
                "id": 1, "op": "dest", "graph": "g", "dest": 0,
            })
            shorter = [[0, 1], [None, 0]]
            second = await put(service, wire=shorter)
            assert second.result["version"] == 2
            resp = await service.handle_request({
                "id": 2, "op": "dest", "graph": "g", "dest": 0,
            })
            assert not resp.timing.get("cached")
            assert resp.result["sow"] == [0, MAXINT]
            await service.stop()

        run(main())


class TestValidation:
    @pytest.mark.parametrize("body, fragment", [
        ({"op": "point", "graph": "nope", "source": 0, "dest": 1},
         "unknown graph"),
        ({"op": "point", "graph": "g", "source": 99, "dest": 1},
         "source"),
        ({"op": "point", "graph": "g", "source": 0, "dest": 99}, "dest"),
        ({"op": "dest", "graph": "g"}, "dest"),
        ({"op": "apsp"}, "graph"),
        ({"op": "put_graph", "graph": "x"}, "weights"),
        ({"op": "put_graph", "graph": "x", "weights": [[0]]}, "square"),
        ({"op": "nonsense"}, "unknown op"),
    ])
    def test_bad_requests_get_error_responses(self, body, fragment):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request(dict(body, id="bad"))
            assert resp.status == "error"
            assert fragment in resp.error
            await service.stop()

        run(main())

    def test_del_graph(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "del_graph", "graph": "g",
            })
            assert resp.result["deleted"]
            resp = await service.handle_request({
                "id": 2, "op": "point", "graph": "g",
                "source": 0, "dest": 1,
            })
            assert resp.status == "error"
            await service.stop()

        run(main())


class _GateFactory:
    """Machine factory whose compute blocks until released (via a
    threading event checked inside a fake machine build)."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.calls = 0

    def __call__(self, n: int, word_bits: int) -> PPAMachine:
        self.calls += 1
        time.sleep(self.delay_s)
        return default_machine_factory(n, word_bits)


class TestOverload:
    def test_shed_with_backpressure_signal(self):
        async def main():
            factory = _GateFactory(0.3)
            # coalescing would fold these six distinct-dest requests into
            # one admission slot; this test pins the *per-request*
            # admission path, so run with it off
            service = PathQueryService(
                fast_config(max_inflight=1, max_queue=1, coalesce=False),
                machine_factory=factory,
            )
            await put(service)
            bodies = [{"id": f"q{i}", "op": "dest", "graph": "g",
                       "dest": i % 6, "deadline_ms": 5_000}
                      for i in range(6)]
            responses = await asyncio.gather(*(
                service.handle_request(b) for b in bodies
            ))
            statuses = [r.status for r in responses]
            assert statuses.count("shed") >= 3
            for r in responses:
                if r.status == "shed":
                    assert r.retry_after_ms is not None
                    assert r.retry_after_ms > 0
            assert service.counters["shed"] >= 3
            await service.stop()

        run(main())

    def test_deadline_in_queue_and_during_compute(self):
        async def main():
            factory = _GateFactory(0.4)
            service = PathQueryService(
                fast_config(max_inflight=1, max_queue=4),
                machine_factory=factory,
            )
            await put(service)
            responses = await asyncio.gather(*(
                service.handle_request({
                    "id": f"q{i}", "op": "dest", "graph": "g",
                    "dest": i % 6, "deadline_ms": 120,
                }) for i in range(3)
            ))
            assert {r.status for r in responses} == {"deadline"}
            assert service.counters["deadline"] == 3
            # abandoned compute still finished and released its slot
            await service.stop()
            assert service.admission.inflight == 0

        run(main())


class _FaultyFactory:
    """Every machine carries a stuck-open bus fault — the analytic tiers
    refuse it, the cycle engine computes garbage the verifier rejects,
    and only the resilient rung (with spare PEs) recovers."""

    def __call__(self, n: int, word_bits: int) -> PPAMachine:
        machine = default_machine_factory(n, word_bits)
        machine.inject_faults(
            FaultPlan().add(1, 3, FaultKind.STUCK_OPEN, axis=0)
        )
        return machine


class TestDegradation:
    def test_bus_fault_degrades_to_resilient_rung(self):
        async def main():
            service = PathQueryService(fast_config(),
                                       machine_factory=_FaultyFactory())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "dest", "graph": "g", "dest": 0,
            })
            assert resp.status == "ok"
            want = [int(v) for v in bellman_reference(GRID, 0, MAXINT)]
            assert resp.result["sow"] == want
            # the downgrade is recorded, machine-readably
            assert resp.degraded is not None
            assert resp.degraded["rung"] == 3
            assert resp.degraded["label"] == "cycle-resilient"
            assert resp.degraded["resilient"]
            assert resp.degraded["reasons"]
            assert service.counters["verify_rejections"] >= 1
            assert resp.timing["attempts"] > 1
            await service.stop()

        run(main())

    def test_ladder_is_sticky_then_recovers(self):
        async def main():
            service = PathQueryService(fast_config(),
                                       machine_factory=_FaultyFactory())
            await put(service)
            first = await service.handle_request({
                "id": 1, "op": "dest", "graph": "g", "dest": 0,
            })
            attempts_first = first.timing["attempts"]
            second = await service.handle_request({
                "id": 2, "op": "dest", "graph": "g", "dest": 1,
            })
            # sticky level: no ladder re-walk on the next request
            assert second.timing["attempts"] < attempts_first
            assert second.degraded is not None
            await service.stop()

        run(main())

    def test_breaker_open_floors_the_ladder(self):
        async def main():
            service = PathQueryService(fast_config(workers=2))
            await put(service)
            for _ in range(service.config.breaker_failure_threshold):
                service.breaker.record_failure("induced")
            resp = await service.handle_request({
                "id": 1, "op": "apsp", "graph": "g",
            })
            assert resp.status == "ok"
            assert resp.degraded is not None
            assert resp.degraded["rung"] >= 1
            assert any("breaker" in r for r in resp.degraded["reasons"])
            assert resp.result["workers"] == 1
            await service.stop()

        run(main())

    def test_healthy_response_carries_no_degraded_stamp(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            resp = await service.handle_request({
                "id": 1, "op": "point", "graph": "g",
                "source": 0, "dest": 1,
            })
            assert resp.status == "ok"
            assert resp.degraded is None
            await service.stop()

        run(main())


class TestIntrospection:
    def test_stats_and_health_and_profile(self):
        async def main():
            service = PathQueryService(fast_config())
            await put(service)
            await service.handle_request({
                "id": 1, "op": "point", "graph": "g",
                "source": 0, "dest": 1,
            })
            stats = (await service.handle_request(
                {"id": 2, "op": "stats"})).result
            assert stats["graphs"]["g"]["n"] == 6
            assert stats["counters"]["ok"] >= 2
            health = (await service.handle_request(
                {"id": 3, "op": "health"})).result
            assert health["status"] == "healthy"
            profile = service.profile()
            names = [s.name for s in profile.spans]
            assert "serve.request" in names
            assert profile.find("serve.attempt")
            await service.stop()

        run(main())


class TestTcpTransport:
    def test_client_roundtrip_and_multiplexing(self):
        async def main():
            service = PathQueryService(fast_config())
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with ServeClient("127.0.0.1", port) as client:
                assert (await client.ping()).result["pong"]
                await client.put_graph("g", WIRE)
                futures = [client.submit("point", graph="g",
                                         source=s, dest=d)
                           for s in range(6) for d in range(6)]
                await client.drain()
                responses = await asyncio.gather(*futures)
                assert all(r.status == "ok" for r in responses)
                costs = {(r.result["source"], r.result["dest"]):
                         r.result["cost"] for r in responses}
                assert costs[(0, 2)] == 3
            await service.stop()

        run(main())

    def test_malformed_line_gets_error_response(self):
        async def main():
            service = PathQueryService(fast_config())
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 5)
            assert b'"error"' in line and b"malformed" in line
            writer.close()
            await writer.wait_closed()
            await service.stop()

        run(main())
