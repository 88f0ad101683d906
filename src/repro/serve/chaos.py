"""Deterministic service-level chaos harness.

Runs the *whole* service — admission, ladder, breaker, worker pool,
resilient executor — under seeded failure injection and checks the two
robustness invariants the PR's acceptance bar names:

* **0 silent-wrong**: every ``ok`` answer is re-validated here against a
  plain-numpy Bellman solution, independently of the service's own
  verifier and of every engine;
* **0 leaked shared memory**: ``/dev/shm`` is snapshotted around every
  run — worker crashes included, nothing may remain.

Injection kinds (one per run, round-robin over the campaign):

``healthy``
    Control group — no injection; also pins the determinism digest.
``worker-kill``
    The first APSP shard worker is SIGKILLed on its first attempt
    (:func:`repro.engine.shard.set_shard_chaos`); the pool must respawn
    and the answer must still verify.
``worker-slow``
    The first shard stalls past ``shard_timeout``; the pool must detect
    the deadline, kill, and recover.
``overload``
    Admission is squeezed (``max_inflight=1``, tiny queue) under a
    burst; requests must resolve fast as ``shed`` (with
    ``retry_after_ms``) or complete — never hang.
``bus-fault``
    Every machine the service builds carries a PR 3
    :class:`~repro.ppa.faults.FaultPlan` (a stuck-open row bus). The
    analytic engine refuses faulted machines, the cycle engine computes
    corrupted answers that the verifier rejects, and the ladder must
    walk down to the resilient rung — whose spare PEs quarantine the
    fault — before an ``ok`` can be served.
``update-storm``
    Strictly sequential stream interleaving sparse edge-delta
    ``put_graph`` updates with queries. Every answer must carry the
    *current* graph version and match the local reference for that
    version — a stale surviving column or an unsoundly-kept cache entry
    counts as silent-wrong. Sequential issuance keeps version
    assignment (and hence the campaign digest) deterministic.

Everything is a function of the campaign seed: graphs, query streams,
fault placement. The campaign digest covers the scenario stream and all
verified costs, so two runs of the same seed must agree on it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.shard import clear_shard_chaos, set_shard_chaos
from repro.errors import ConfigurationError
from repro.ppa.faults import FaultKind, FaultPlan
from repro.resilience import BackoffPolicy
from repro.serve.loadgen import random_graph
from repro.serve.oracle import bellman_reference
from repro.serve.service import (
    PathQueryService,
    ServiceConfig,
    default_machine_factory,
)

__all__ = ["CHAOS_KINDS", "ChaosScenario", "run_chaos_campaign",
           "run_scenario"]

CHAOS_KINDS = ("healthy", "worker-kill", "worker-slow", "overload",
               "bus-fault", "update-storm")


@dataclass
class ChaosScenario:
    """One seeded chaos run: an injection kind plus a query stream."""

    name: str
    kind: str
    seed: int
    n: int = 12
    requests: int = 20
    density: float = 0.35
    word_bits: int = 16
    deadline_ms: float = 20_000.0
    workers: int = 2
    #: service-side request coalescing. Not part of ``to_dict`` — the
    #: campaign digest must be identical with it on or off (coalescing
    #: changes throughput, never answers), and the coalescing test pins
    #: exactly that.
    coalesce: bool = True
    #: leak-sanitizer mode: None defers to REPRO_SANITIZE. Also not part
    #: of ``to_dict`` — instrumentation must never change an answer.
    sanitize: "bool | None" = None

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "seed": self.seed,
                "n": self.n, "requests": self.requests,
                "density": self.density, "workers": self.workers}


def _list_shm() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return set()


def _config_for(sc: ChaosScenario) -> ServiceConfig:
    fast_backoff = BackoffPolicy(base=0.005, multiplier=2.0, cap=0.05,
                                 max_attempts=2)
    if sc.kind == "overload":
        return ServiceConfig(
            max_inflight=1, max_queue=2, workers=1,
            default_deadline_ms=sc.deadline_ms, backoff=fast_backoff,
            breaker_cooldown_s=0.2, recovery_successes=2, seed=sc.seed,
            coalesce=sc.coalesce,
        )
    if sc.kind in ("worker-kill", "worker-slow"):
        return ServiceConfig(
            max_inflight=4, max_queue=64, workers=sc.workers,
            shard_timeout=0.25 if sc.kind == "worker-slow" else 10.0,
            default_deadline_ms=sc.deadline_ms, backoff=fast_backoff,
            breaker_cooldown_s=0.2, recovery_successes=2, seed=sc.seed,
            coalesce=sc.coalesce,
        )
    # healthy, bus-fault, update-storm: inline compute, generous queue
    return ServiceConfig(
        max_inflight=4, max_queue=64, workers=1,
        default_deadline_ms=sc.deadline_ms, backoff=fast_backoff,
        breaker_cooldown_s=0.2, recovery_successes=2, seed=sc.seed,
        coalesce=sc.coalesce,
    )


def _machine_factory_for(sc: ChaosScenario):
    if sc.kind != "bus-fault":
        return default_machine_factory
    rng = np.random.default_rng(sc.seed)
    row = int(rng.integers(1, sc.n - 1))
    col = int(rng.integers(1, sc.n - 1))

    def faulty_factory(n: int, word_bits: int):
        machine = default_machine_factory(n, word_bits)
        machine.inject_faults(
            FaultPlan().add(row, col, FaultKind.STUCK_OPEN, axis=0)
        )
        return machine

    return faulty_factory


async def run_scenario(sc: ChaosScenario) -> dict:
    """Execute one scenario in-process; returns its outcome record."""
    if sc.kind not in CHAOS_KINDS:
        raise ConfigurationError(f"unknown chaos kind {sc.kind!r}")
    rng = np.random.default_rng(sc.seed)
    wire = random_graph(sc.n, sc.density, rng)
    maxint = (1 << sc.word_bits) - 1
    grid = np.asarray(
        [[maxint if v is None else v for v in row] for row in wire],
        dtype=np.int64,
    )
    reference: dict[tuple[int, int], np.ndarray] = {}
    state = {"version": 1}  # the service-side version the stream is at

    async def expect_column(dest: int) -> np.ndarray:
        # The oracle pass is a full O(n^2) numpy sweep: run it on a
        # worker thread so the loop keeps serving while we validate
        # (host-blocking-compute).
        key = (state["version"], dest)
        if key not in reference:
            loop = asyncio.get_running_loop()
            reference[key] = await loop.run_in_executor(
                None, bellman_reference, grid, dest, maxint)
        return reference[key]

    service = PathQueryService(_config_for(sc),
                               machine_factory=_machine_factory_for(sc),
                               sanitize=sc.sanitize)

    if sc.kind == "worker-kill":
        set_shard_chaos(kill_shards={0: 1})
    elif sc.kind == "worker-slow":
        set_shard_chaos(slow_shards={0: 1}, slow_seconds=2.0)

    outcome = {
        "scenario": sc.to_dict(),
        "by_status": {},
        "wrong": 0,
        "degraded": 0,
        "updates": 0,
        "latency_ms": [],
        "ok_answers": [],
    }
    try:
        put = await service.handle_request({
            "id": "setup", "op": "put_graph", "graph": "chaos",
            "weights": wire, "word_bits": sc.word_bits,
        })
        if put.status != "ok":
            raise RuntimeError(f"chaos setup failed: {put.error}")

        plan = []
        for i in range(sc.requests):
            if sc.kind == "update-storm" and i % 4 == 3:
                op = "update"
            elif sc.kind in ("worker-kill", "worker-slow") and i % 7 == 0:
                op = "apsp"
            elif i % 9 == 5:
                op = "dest"
            else:
                op = "point"
            plan.append((i, op, int(rng.integers(0, sc.n)),
                         int(rng.integers(0, sc.n))))

        async def one(i: int, op: str, source: int, dest: int) -> None:
            body = {"id": f"q{i}", "op": op, "graph": "chaos",
                    "deadline_ms": sc.deadline_ms}
            if op != "apsp":
                body["dest"] = dest
            if op == "point":
                body["source"] = source
            t0 = time.monotonic()
            resp = await service.handle_request(body)
            outcome["latency_ms"].append((time.monotonic() - t0) * 1e3)
            outcome["by_status"][resp.status] = \
                outcome["by_status"].get(resp.status, 0) + 1
            if resp.degraded is not None:
                outcome["degraded"] += 1
                if not resp.degraded.get("reasons") \
                        and resp.degraded.get("rung", 0) == 0:
                    outcome["wrong"] += 1  # degraded stamp with no record
            if resp.status == "shed" and resp.retry_after_ms is None:
                outcome["wrong"] += 1  # shed without backpressure signal
            if resp.status != "ok":
                return
            if (sc.kind == "update-storm" and op in ("point", "dest")
                    and resp.result.get("version") != state["version"]):
                outcome["wrong"] += 1  # a stale version IS a wrong answer
                return
            if op == "point":
                expect = int((await expect_column(dest))[source])
                expected = None if expect >= maxint else expect
                got = resp.result.get("cost")
                if got != expected:
                    outcome["wrong"] += 1
                else:
                    outcome["ok_answers"].append((i, op, got))
            elif op == "dest":
                want = [int(v) for v in await expect_column(dest)]
                if resp.result.get("sow") != want:
                    outcome["wrong"] += 1
                else:
                    outcome["ok_answers"].append((i, op, sum(
                        v for v in want if v < maxint)))
            else:  # apsp: independent reachability cross-check
                want = 0
                for d in range(sc.n):
                    want += int(((await expect_column(d)) < maxint).sum())
                if resp.result.get("reachable_pairs") != want:
                    outcome["wrong"] += 1
                else:
                    outcome["ok_answers"].append((i, op, want))

        if sc.kind == "update-storm":
            # strictly sequential: deterministic version assignment,
            # every query validated against exactly one reference grid
            upd_rng = np.random.default_rng(sc.seed ^ 0xDE17A)
            for i, op, source, dest in plan:
                if op != "update":
                    await one(i, op, source, dest)
                    continue
                edges = []
                for _ in range(max(1, sc.n // 6)):
                    u = int(upd_rng.integers(0, sc.n))
                    v = int(upd_rng.integers(0, sc.n - 1))
                    if v >= u:
                        v += 1
                    w = None if upd_rng.random() < 0.2 \
                        else int(upd_rng.integers(1, 10))
                    edges.append([u, v, w])
                resp = await service.handle_request({
                    "id": f"u{i}", "op": "put_graph", "graph": "chaos",
                    "edges": edges, "base_version": state["version"],
                })
                outcome["by_status"][resp.status] = \
                    outcome["by_status"].get(resp.status, 0) + 1
                if resp.status != "ok":
                    outcome["wrong"] += 1  # conditional delta must apply
                    continue
                for u, v, w in edges:
                    grid[u, v] = maxint if w is None else w
                state["version"] += 1
                outcome["updates"] += 1
                # survivor count pins delta migration determinism
                outcome["ok_answers"].append(
                    (i, op, resp.result["delta"]["columns_kept"])
                )
        elif sc.kind == "overload":
            # full burst: everything at once against 1 slot + 2 queue
            await asyncio.gather(*(one(*spec) for spec in plan))
        else:
            gate = asyncio.Semaphore(4)

            async def bounded(spec):
                async with gate:
                    await one(*spec)

            await asyncio.gather(*(bounded(spec) for spec in plan))
    finally:
        clear_shard_chaos()
        # With the sanitizer armed, stop() raises SanitizerViolation on
        # any leaked task/shm/slot — a chaos scenario that leaks fails
        # loudly, it does not degrade into a flaky later run.
        await service.stop()

    stats = service.stats()
    if service.last_census is not None:
        outcome["sanitizer"] = service.last_census.to_dict()
    outcome["ladder"] = stats["ladder"]
    outcome["breaker"] = {k: stats["breaker"][k]
                          for k in ("state", "trips", "rejections")}
    outcome["admission"] = {k: stats["admission"][k]
                            for k in ("admitted", "shed")}
    outcome["verify_rejections"] = stats["counters"]["verify_rejections"]
    return outcome


def run_chaos_campaign(
    runs: int = 50,
    *,
    seed: int = 0,
    n: int = 10,
    requests_per_run: int = 12,
    kinds: tuple = CHAOS_KINDS,
    coalesce: bool = True,
    sanitize: "bool | None" = None,
) -> dict:
    """Run ``runs`` seeded scenarios (round-robin over ``kinds``) and
    aggregate the campaign-level invariants. Synchronous entry point —
    owns its own event loop. ``coalesce`` toggles request coalescing in
    every scenario's service; the campaign digest must be invariant
    under it (asserted by ``benchmarks/bench_p20_coalescing.py``)."""
    scenarios = [
        ChaosScenario(
            name=f"run{i:03d}-{kinds[i % len(kinds)]}",
            kind=kinds[i % len(kinds)],
            seed=seed * 10_000 + i,
            n=n,
            requests=requests_per_run,
            coalesce=coalesce,
            sanitize=sanitize,
        )
        for i in range(runs)
    ]
    report: dict = {
        "seed": seed,
        "runs": runs,
        "kinds": list(kinds),
        "by_kind": {},
        "by_status": {},
        "silent_wrong": 0,
        "validated": 0,
        "updates": 0,
        "degraded_responses": 0,
        "verify_rejections": 0,
        "breaker_trips": 0,
        "ladder_downgrades": 0,
        "leaked_shm": [],
        "latency_ms": {},
    }
    latencies: list[float] = []
    digest = hashlib.blake2b(digest_size=16)
    shm_before = _list_shm()
    t0 = time.monotonic()
    for sc in scenarios:
        outcome = asyncio.run(run_scenario(sc))
        digest.update(json.dumps(
            [sc.to_dict(), sorted(outcome["ok_answers"])],
            sort_keys=True, separators=(",", ":"),
        ).encode())
        kind_bucket = report["by_kind"].setdefault(sc.kind, {
            "runs": 0, "ok": 0, "wrong": 0, "degraded": 0,
        })
        kind_bucket["runs"] += 1
        kind_bucket["ok"] += outcome["by_status"].get("ok", 0)
        kind_bucket["wrong"] += outcome["wrong"]
        kind_bucket["degraded"] += outcome["degraded"]
        for status, count in outcome["by_status"].items():
            report["by_status"][status] = \
                report["by_status"].get(status, 0) + count
        report["silent_wrong"] += outcome["wrong"]
        report["validated"] += len(outcome["ok_answers"])
        report["updates"] += outcome.get("updates", 0)
        report["degraded_responses"] += outcome["degraded"]
        report["verify_rejections"] += outcome["verify_rejections"]
        report["breaker_trips"] += outcome["breaker"]["trips"]
        report["ladder_downgrades"] += outcome["ladder"]["downgrades"]
        latencies.extend(outcome["latency_ms"])
        leaked = _list_shm() - shm_before
        if leaked:
            report["leaked_shm"].extend(
                sorted(f"{sc.name}:{name}" for name in leaked)
            )
            shm_before |= leaked  # report each leak once
    report["wall_s"] = round(time.monotonic() - t0, 3)
    if latencies:
        arr = np.asarray(latencies)
        report["latency_ms"] = {
            "p50": round(float(np.percentile(arr, 50)), 3),
            "p99": round(float(np.percentile(arr, 99)), 3),
            "max": round(float(arr.max()), 3),
        }
    report["digest"] = digest.hexdigest()
    return report
