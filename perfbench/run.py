"""Benchmark of the PPA minimum-cost-path program, run from a checkout root.

``python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1``
    One run. The last stdout line is the result JSON (``correct``,
    ``attempted``, ``failed``, ``metrics``); the line before it records
    the host fingerprint and the CPU steal share during the run.
    ``--trace 0`` reports the end-to-end metrics,
    ``--trace 1`` the per-layer ones.

``python3 perfbench/run.py --report --workload W [--runs 10] [--seed N]``
    Steadiness report: repeats untraced runs on seeds N, N+1, ... and
    prints each end-to-end metric's median, quartiles and spread against
    its bound in BENCHMARK.json.

Workloads, metrics and the layer map are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from calibrate import REF_S
from check import check_apsp, check_read, reference_apsp
from inputs import (
    APSP_DEGREE,
    APSP_N,
    SERVE_DEGREE,
    SERVE_N,
    DeltaStream,
    ReadStream,
    gnp_weights,
    weights_to_wire,
)
from wire import Conn, closed_loop

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("apsp-offline", "serve-read", "serve-update")

GRAPH = "bench"
#: connections (= nproc of the reference host) and total requests in
#: flight (= ServiceConfig.max_inflight).
CONNECTIONS, DEPTH = 2, 8
#: reads per timed pass; every pass replays one seeded schedule shape.
PASS_READS = 2048
#: serve-update sends one edge delta after every this many reads. At
#: n=64 a delta of n/8 edges dirties about half the cached columns, so
#: about half the reads miss and run the compute path.
UPDATE_EVERY = 32
#: set-ups per untraced run, spread over it; set-up time is their median.
SERVE_SETUP_REPS = 25
#: a run that is still going after this many seconds gives up, so a
#: stuck run still ends within three minutes.
WATCHDOG_S = 160
#: passes each timed phase runs at least (the exact-count guard
#: compares passes with each other).
MIN_PASSES = 2

END_TO_END = {
    "op_cpu_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "rss_mb": "MB",
}

PER_LAYER = {
    "op_p50_ms": "ms",
    "op_rate": "1/s",
    "engine.kernel_s": "s",
    "engine.kernel_calls": "count",
    "engine.kernel_gb_computed": "GB",
    "engine.iterations": "count",
    "engine.cost_probe_s": "s",
    "engine.cost_cache_misses": "count",
    "engine.reconstruct_s": "s",
    "engine.reconstruct_calls": "count",
    "ref.scipy_apsp_s": "s",
    "ref.apsp_vs_scipy": "x",
    "core.batched_s": "s",
    "core.batched_self_s": "s",
    "core.batched_calls": "count",
    "core.lanes_per_call": "count",
    "serve.protocol.decode_s": "s",
    "serve.protocol.encode_s": "s",
    "serve.protocol.bytes_out": "bytes",
    "serve.request_s": "s",
    "serve.request_self_s": "s",
    "serve.cache_hit_frac": "frac",
    "serve.admission.wait_s": "s",
    "serve.admission.admitted": "count",
    "serve.admission.shed": "count",
    "serve.coalesce.batches": "count",
    "serve.coalesce.lanes_per_batch": "count",
    "serve.coalesce.single_flight_hits": "count",
    "serve.coalesce.window_flush_frac": "frac",
    "serve.oracle.verify_s": "s",
    "serve.oracle.verify_calls": "count",
    "serve.delta.dirty_s": "s",
    "serve.delta.certify_s": "s",
    "serve.delta.dirty_frac": "frac",
    "serve.write_p50_ms": "ms",
    "serve.read_p99_ms": "ms",
    "serve.read_p99_samples": "count",
    "trace.traced_op_p50_ms": "ms",
    "trace.overhead_op_p50_frac": "frac",
    "trace.overhead_op_cpu_frac": "frac",
    "host.cal_ms": "ms",
}


class RunFailure(Exception):
    """The run could not produce a result (no metrics are printed)."""


# ----------------------------------------------------------------------
# Program host process
# ----------------------------------------------------------------------


class Host:
    """The program's process, driven over its stdin/stdout."""

    def __init__(self, *args: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "host.py"), *args],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RunFailure(f"program host exited ({self.proc.wait()})")
        return json.loads(line)

    def call(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        reply = self.read()
        if "error" in reply:
            raise RunFailure(f"program host: {reply['error']}")
        return reply

    def close(self) -> None:
        """Wait briefly for the host to finish, then kill it."""
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------------
# apsp-offline
# ----------------------------------------------------------------------


def run_apsp(seed: int, seconds: float, traced: bool) -> dict:
    os.makedirs(WORK, exist_ok=True)
    out_dir = os.path.join(WORK, f"apsp-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        host = Host("apsp", "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(int(traced)), "--out", out_dir)
        try:
            summary = host.read()
        finally:
            host.close()
        W = gnp_weights(APSP_N, APSP_DEGREE, seed)
        ref = reference_apsp(W)
        ok = []
        for k, solve in enumerate(summary["solves"]):
            data = np.load(os.path.join(out_dir, f"solve{k}.npz"))
            problems = check_apsp(W, data["dist"], data["succ"],
                                  solve["maxint"], ref)
            for p in problems:
                print(f"apsp solve {k}: {p}", file=sys.stderr)
            ok.append(not problems)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)

    solves = summary["solves"]
    guard = _same("iterations per solve", [s["iterations"] for s in solves])
    traced_solves = [s for s in solves if s["phase"] == "traced"]
    if traced_solves:
        guard += _same("kernel calls per solve",
                       [s["kernel_calls"] for s in traced_solves])

    def e2e(phase: str) -> dict:
        walls = [s["wall_s"] for s, good in zip(solves, ok)
                 if s["phase"] == phase and good]
        if not walls:
            return {"op_p50_ms": float("nan"), "op_rate": 0.0,
                    "op_cpu_ms": float("nan")}
        cpus = [s["cpu_s"] for s, good in zip(solves, ok)
                if s["phase"] == phase and good]
        return {"op_p50_ms": statistics.median(walls) * 1e3,
                "op_rate": statistics.median(1 / w for w in walls),
                "op_cpu_ms": statistics.median(cpus) * 1e3}

    result = {"attempted": len(solves), "failed": ok.count(False),
              "guard": guard, "host": summary["host"]}
    cal = statistics.median(summary["cal_s"])
    if not traced:
        result["metrics"] = {
            "ok_frac": ok.count(True) / len(solves),
            "rss_mb": summary["rss_mb"],
            **_at_reference_speed(e2e("timed")["op_cpu_ms"],
                                  statistics.median(summary["setup_s"]),
                                  cal, result),
        }
        return result

    untraced, traced_e2e = e2e("untraced"), e2e("traced")
    scipy_s = statistics.median(_timed(reference_apsp, W) for _ in range(5))
    trace = summary["trace"]
    per_pass = _per_pass(trace["traced"], len(traced_solves))
    layers = {
        **_engine_layers(per_pass),
        "engine.iterations": statistics.median(
            s["iterations"] for s in traced_solves),
        "engine.cost_probe_s": _whole_run(trace, "engine.cost_probe"),
        "engine.cost_cache_misses": summary["cost_cache_misses"],
        "ref.scipy_apsp_s": scipy_s,
        "ref.apsp_vs_scipy": untraced["op_p50_ms"] / 1e3 / scipy_s,
        **_overhead(untraced, traced_e2e),
        "host.cal_ms": cal * 1e3,
    }
    result["metrics"] = layers
    return result


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# serve-read / serve-update
# ----------------------------------------------------------------------


class ServeRun:
    """Closed-loop load from this process against the program host."""

    def __init__(self, workload: str, seed: int, traced: bool):
        self.update = workload == "serve-update"
        self.seed = seed
        self.traced = traced
        self.stream = ReadStream(SERVE_N, seed)
        self.reads: list[tuple] = []
        self.writes: list[tuple] = []
        self.passes: list[dict] = []
        #: CPU seconds of the host's calibration work, one per pass
        self.cals: list[float] = []
        #: graph per (service epoch, version); every set-up starts a
        #: fresh service, whose versions count from the start again
        self.versions: dict[tuple[int, int], np.ndarray] = {}
        self.version = 0
        self.epoch = 0
        self.W0: np.ndarray | None = None
        self.last_write: asyncio.Event | None = None
        self.deltas: DeltaStream | None = None
        self.conns: list[Conn] = []
        self.last_stats: dict = {}
        self.tracing = False

    async def setup_once(self, host: Host) -> float:
        """Start a fresh service, register the graph, fill the cache.
        Returns the program's CPU seconds for it."""
        self.W0 = gnp_weights(SERVE_N, SERVE_DEGREE, self.seed)
        self.epoch += 1
        cpu0 = host.call(cmd="cpu")["cpu_s"]
        port = host.call(cmd="start")["port"]
        self.conns = [await Conn.open(port) for _ in range(CONNECTIONS)]
        await self.register_and_warm()
        return host.call(cmd="cpu")["cpu_s"] - cpu0

    async def setup_again(self, host: Host) -> float:
        """Replace the service with a fresh one, set up like the first."""
        await self.close_conns()
        host.call(cmd="stop")
        return await self.setup_once(host)

    async def register_and_warm(self) -> None:
        """Register ``W0`` as a new version and read every column once."""
        reply, _, _ = await self.conns[0].call({
            "op": "put_graph", "graph": GRAPH,
            "weights": weights_to_wire(self.W0), "word_bits": 16})
        if reply.get("status") != "ok":
            raise RunFailure(f"put_graph failed: {reply}")
        self.version = reply["result"]["version"]
        self.versions[self.epoch, self.version] = self.W0

        async def warm(conn: Conn, d: int) -> None:
            r, _, _ = await conn.call({"op": "dest", "graph": GRAPH,
                                       "dest": d})
            if r.get("status") != "ok":
                raise RunFailure(f"warm-up read failed: {r}")

        await closed_loop(self.conns, DEPTH, SERVE_N, warm)

    async def close_conns(self) -> None:
        for conn in self.conns:
            await conn.close()
        self.conns = []

    async def _read(self, conn: Conn, op: tuple, k: int) -> None:
        kind, source, dest = op
        msg = {"op": kind, "graph": GRAPH, "dest": dest}
        if kind == "point":
            msg.update(source=source, want_path=True)
        floor = self.version
        reply, t0, t1 = await conn.call(msg)
        self.reads.append((k, kind, source, dest, floor, t1 - t0,
                           reply.get("status"), reply.get("result", {})))

    async def _write(self, conn: Conn, k: int) -> None:
        previous, done = self.last_write, asyncio.Event()
        self.last_write = done
        try:
            if previous is not None:
                await previous.wait()
            edges, W_after = self.deltas.next()
            want = self.version + 1
            self.versions[self.epoch, want] = W_after
            reply, t0, t1 = await conn.call({
                "op": "put_graph", "graph": GRAPH, "edges": edges,
                "base_version": self.version})
            result = reply.get("result", {})
            ok = reply.get("status") == "ok" and result.get("version") == want
            if ok:
                self.version = want
            self.writes.append((k, t1 - t0, ok, result.get("delta", {})))
        finally:
            done.set()

    def trace_phase(self, phase: str) -> None:
        """Label the host's following spans with *phase* (traced runs)."""
        if self.traced:
            self.host.call(cmd="trace", on=self.tracing, phase=phase)

    async def stats(self) -> dict:
        reply, _, _ = await self.conns[0].call({"op": "stats"})
        return reply["result"]

    async def run_pass(self, k: int, phase: str) -> None:
        if self.update:
            # every pass replays its deltas from the registered graph, so
            # passes stay alike however long the run is
            if k > 0:
                # re-warming is set-up, so its spans stay out of the pass
                self.trace_phase("setup")
                await self.register_and_warm()
                self.trace_phase(phase)
            self.deltas = DeltaStream(self.W0, self.seed, k)
        ops = self.stream.pass_ops(k, PASS_READS)
        schedule: list[tuple | None] = []
        for i, op in enumerate(ops, 1):
            schedule.append(op)
            if self.update and i % UPDATE_EVERY == 0:
                schedule.append(None)
        n_reads = len(self.reads)

        async def issue(conn: Conn, i: int) -> None:
            op = schedule[i]
            if op is None:
                await self._write(conn, k)
            else:
                await self._read(conn, op, k)

        self.cals.append(self.host.call(cmd="cal")["cal_s"])
        before = await self.stats()
        cpu0 = self.host.call(cmd="cpu")["cpu_s"]
        t0 = time.perf_counter()
        await closed_loop(self.conns, DEPTH, len(schedule), issue)
        wall = time.perf_counter() - t0
        cpu = self.host.call(cmd="cpu")["cpu_s"] - cpu0
        after = self.last_stats = await self.stats()
        record = {"phase": phase, "epoch": self.epoch,
                  "wall_s": wall, "cpu_s": cpu,
                  "reads": len(self.reads) - n_reads,
                  "stats": _stats_delta(before, after)}
        self.passes.append(record)

    async def run(self, seconds: float) -> dict:
        host = self.host = Host("serve", "--trace", str(int(self.traced)))
        try:
            host_info = host.read()["host"]
            setup = [await self.setup_once(host)]
            phases = [("timed", seconds)]
            if self.traced:
                # untraced first, so traced minus untraced is the
                # tracing overhead
                phases = [("untraced", seconds / 2), ("traced", seconds / 2)]
            k = 0
            for phase, budget in phases:
                self.tracing = phase == "traced"
                self.trace_phase(phase)
                start, count = time.perf_counter(), 0
                while count < MIN_PASSES or \
                        time.perf_counter() - start < budget:
                    if phase == "timed":
                        # set-ups are spread over the run, so their
                        # median sees the same host conditions as the
                        # passes
                        due = 1 + int((SERVE_SETUP_REPS - 1) * min(
                            1.0, (time.perf_counter() - start) / budget))
                        while len(setup) < due:
                            setup.append(await self.setup_again(host))
                    await self.run_pass(k, phase)
                    k += 1
                    count += 1
            while not self.traced and len(setup) < SERVE_SETUP_REPS:
                setup.append(await self.setup_again(host))
            await self.close_conns()
            final = host.call(cmd="exit")
        finally:
            for conn in self.conns:
                conn.writer.close()
            host.proc.stdin.close()
            host.close()
        return self.report(setup, final, host_info)

    # -- results ---------------------------------------------------------

    def check(self) -> list[bool]:
        """Per read: ok status, not stale, equal to the scipy reference
        for the version it claims."""
        refs: dict[tuple[int, int], np.ndarray] = {}
        verdicts = []
        for k, kind, source, dest, floor, _lat, status, result \
                in self.reads:
            why = None
            version = result.get("version")
            key = (self.passes[k]["epoch"], version)
            if status != "ok":
                why = f"status {status}"
            elif key not in self.versions:
                why = f"claims unknown version {version}"
            elif version < floor:
                why = f"stale: version {version} after {floor} was acked"
            else:
                if key not in refs:
                    refs[key] = reference_apsp(self.versions[key])
                why = check_read(self.versions[key], refs[key],
                                 kind, source, dest, result)
            if why is not None and verdicts.count(False) < 10:
                print(f"{kind} read: {why}", file=sys.stderr)
            verdicts.append(why is None)
        return verdicts

    def report(self, setup: list, final: dict, host_info: dict) -> dict:
        verdicts = self.check()
        write_ok = [w[2] for w in self.writes]
        attempted = len(verdicts) + len(write_ok)
        good = verdicts.count(True) + write_ok.count(True)
        lookups = [p["stats"]["cache_hits"] + p["stats"]["cache_misses"]
                   for p in self.passes]
        guard = []
        if lookups != [p["reads"] for p in self.passes]:
            guard.append(f"cache lookups per pass {lookups} differ from "
                         f"the reads sent")
        if not self.update:
            misses = [p["stats"]["cache_misses"] for p in self.passes]
            if any(misses):
                guard.append(f"serve-read cache misses after warm-up: "
                             f"{misses}")
        result = {"attempted": attempted, "failed": attempted - good,
                  "guard": guard, "host": host_info}

        ok_reads = [0] * len(self.passes)
        for r, ok in zip(self.reads, verdicts):
            ok_reads[r[0]] += ok

        def e2e(phase: str) -> dict:
            lat = [r[5] for r, ok in zip(self.reads, verdicts)
                   if ok and self.passes[r[0]]["phase"] == phase]
            rates = [ok_reads[k] / p["wall_s"]
                     for k, p in enumerate(self.passes)
                     if p["phase"] == phase]
            cpu = [p["cpu_s"] / ok_reads[k] * 1e3
                   for k, p in enumerate(self.passes)
                   if p["phase"] == phase and ok_reads[k]]
            return {"op_p50_ms": statistics.median(lat) * 1e3 if lat
                    else float("nan"),
                    "op_rate": statistics.median(rates),
                    "op_cpu_ms": statistics.median(cpu)}

        cal = statistics.median(self.cals)
        if not self.traced:
            result["metrics"] = {
                "ok_frac": good / attempted,
                "rss_mb": final["rss_mb"],
                **_at_reference_speed(e2e("timed")["op_cpu_ms"],
                                      statistics.median(setup), cal, result),
            }
            return result

        passes = [p for p in self.passes if p["phase"] == "traced"]
        st = _sum_stats(p["stats"] for p in passes)
        trace = final["trace"]
        per_pass = _per_pass(trace.get("traced", {}), len(passes))
        lookups = st["cache_hits"] + st["cache_misses"]
        traced = {k for k, p in enumerate(self.passes)
                  if p["phase"] == "traced"}
        lat = np.array([r[5] for r, ok in zip(self.reads, verdicts)
                        if ok and r[0] in traced]) * 1e3
        writes = [w[1] * 1e3 for w in self.writes if w[0] in traced and w[2]]
        deltas = [w[3] for w in self.writes if w[0] in traced and w[2]]
        touched = sum(d.get("columns_kept", 0) + d.get("columns_dirtied", 0)
                      for d in deltas)
        n = max(1, len(passes))

        def span(name: str, key: str = "total_s"):
            return per_pass.get(name, {}).get(key, 0)

        result["metrics"] = {
            **_engine_layers(per_pass),
            "engine.cost_probe_s": _whole_run(trace, "engine.cost_probe"),
            "engine.cost_cache_misses":
                self.last_stats["engine"]["cost_cache"]["misses"],
            "serve.protocol.decode_s": span("serve.protocol.decode"),
            "serve.protocol.encode_s": span("serve.protocol.encode"),
            "serve.protocol.bytes_out": span("serve.protocol.encode",
                                             "value"),
            "serve.request_s": span("serve.request"),
            "serve.request_self_s": span("serve.request", "self_s"),
            "serve.cache_hit_frac": st["cache_hits"] / lookups
            if lookups else 0.0,
            "serve.admission.wait_s": span("serve.admission.wait"),
            "serve.admission.admitted": st["admitted"] / n,
            "serve.admission.shed": st["shed"] / n,
            "serve.coalesce.batches": st["batches"] / n,
            "serve.coalesce.lanes_per_batch":
                st["lanes"] / st["batches"] if st["batches"] else 0.0,
            "serve.coalesce.single_flight_hits":
                st["single_flight_hits"] / n,
            "serve.coalesce.window_flush_frac":
                st["flushed_window"] / st["batches"] if st["batches"]
                else 0.0,
            "serve.oracle.verify_s": span("serve.oracle.verify"),
            "serve.oracle.verify_calls": span("serve.oracle.verify", "calls"),
            "serve.delta.dirty_s": span("serve.delta.dirty"),
            "serve.delta.certify_s": span("serve.delta.certify"),
            "serve.delta.dirty_frac": sum(
                d.get("columns_dirtied", 0) for d in deltas) / touched
            if touched else 0.0,
            "serve.write_p50_ms": statistics.median(writes) if writes
            else 0.0,
            "serve.read_p99_ms": float(np.percentile(lat, 99)),
            "serve.read_p99_samples": int(lat.size),
            **_overhead(e2e("untraced"), e2e("traced")),
            "host.cal_ms": cal * 1e3,
        }
        return result


def _stats_delta(before: dict, after: dict) -> dict:
    """Per-pass counter movement from two ``stats`` replies."""
    def get(s, *path):
        for key in path:
            s = s[key]
        return s

    def lanes(s):
        fill = get(s, "coalescer", "lane_fill")
        return sum(int(k) * v for k, v in fill.items())

    out = {}
    for name, path in {
        "cache_hits": ("counters", "cache_hits"),
        "cache_misses": ("counters", "cache_misses"),
        "admitted": ("admission", "admitted"),
        "shed": ("admission", "shed"),
        "batches": ("coalescer", "batches"),
        "single_flight_hits": ("coalescer", "single_flight_hits"),
        "flushed_window": ("coalescer", "flushed_window"),
    }.items():
        out[name] = get(after, *path) - get(before, *path)
    out["lanes"] = lanes(after) - lanes(before)
    return out


def _sum_stats(records) -> dict:
    total: dict = {}
    for rec in records:
        for key, value in rec.items():
            total[key] = total.get(key, 0) + value
    return total


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _same(what: str, values: list) -> list[str]:
    """Exact-count guard: *values* (one per pass) must all be equal."""
    if len(set(map(str, values))) > 1:
        return [f"{what} differ between passes: {values}"]
    return []


def _whole_run(trace: dict, name: str) -> float:
    """Seconds in span *name* over every traced phase, set-up included."""
    return sum(phase.get(name, {}).get("total_s", 0.0)
               for phase in trace.values())


def _per_pass(summary: dict, passes: int) -> dict:
    n = max(1, passes)
    return {name: {k: v / n for k, v in row.items()}
            for name, row in summary.items()}


def _engine_layers(per_pass: dict) -> dict:
    def get(name, key="total_s"):
        return per_pass.get(name, {}).get(key, 0)

    calls = get("core.batched", "calls")
    return {
        "engine.kernel_s": get("engine.kernel"),
        "engine.kernel_calls": get("engine.kernel", "calls"),
        "engine.kernel_gb_computed": get("engine.kernel", "value") / 1e9,
        "engine.reconstruct_s": get("engine.reconstruct"),
        "engine.reconstruct_calls": get("engine.reconstruct", "calls"),
        "core.batched_s": get("core.batched"),
        "core.batched_self_s": get("core.batched", "self_s"),
        "core.batched_calls": calls,
        "core.lanes_per_call":
            get("core.batched", "value") / calls if calls else 0.0,
    }


def _at_reference_speed(op_cpu_ms: float, setup_s: float, cal_s: float,
                        result: dict) -> dict:
    """The gated CPU times, scaled from this run's host speed to the
    reference host's: the host's speed drifts by up to ±20% over minutes,
    and the calibration work run beside the timed operations drifts with
    it. The measured figures go into the run's record line."""
    scale = REF_S / cal_s
    result["calibration"] = {"cal_ms": cal_s * 1e3,
                             "measured_op_cpu_ms": op_cpu_ms,
                             "measured_setup_s": setup_s}
    return {"op_cpu_ms": op_cpu_ms * scale, "setup_s": setup_s * scale}


def _overhead(untraced: dict, traced: dict) -> dict:
    """Tracing overhead, and the untraced wall-clock latency and
    throughput. Those two are ungated: CPU steal on a shared virtual host
    moves them by up to 2.8x from one run to the next."""
    return {
        "op_p50_ms": untraced["op_p50_ms"],
        "op_rate": untraced["op_rate"],
        "trace.traced_op_p50_ms": traced["op_p50_ms"],
        "trace.overhead_op_p50_frac":
            traced["op_p50_ms"] / untraced["op_p50_ms"] - 1.0,
        "trace.overhead_op_cpu_frac":
            traced["op_cpu_ms"] / untraced["op_cpu_ms"] - 1.0,
    }


def _cpu_times() -> list[int] | None:
    """Aggregate CPU tick counters from ``/proc/stat`` (Linux only)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_frac(before, after) -> float | None:
    """Share of CPU time the hypervisor took from this VM in between.

    Steal is the main source of run-to-run noise on a shared virtual
    host, so every result records it next to the host fingerprint."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if workload == "apsp-offline":
        result = run_apsp(seed, seconds, traced)
    else:
        result = asyncio.run(ServeRun(workload, seed, traced).run(seconds))
    units = PER_LAYER if traced else END_TO_END
    metrics = result["metrics"]
    unlisted = sorted(set(metrics) - set(units))
    if unlisted:
        raise RunFailure(f"unlisted metrics {unlisted}")
    for name in units:
        metrics.setdefault(name, 0)  # a layer that did no work here
    return result


# ----------------------------------------------------------------------
# steadiness report
# ----------------------------------------------------------------------


def report(workload: str, runs: int, seed: int, seconds: float) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    host = None
    for s in range(seed, seed + runs):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(s), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {s}: run failed ({proc.returncode})\n{proc.stderr}")
            return 1
        record = json.loads(lines[-2])
        host = record["host"]
        result = json.loads(lines[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        steal = record.get("steal_frac")
        print(f"seed {s}: correct={result['correct']} " + " ".join(
            f"{k}={row[k]:.6g}" for k in bounds)
            + " cal_ms={cal_ms:.1f}"
            " measured_op_cpu_ms={measured_op_cpu_ms:.6g}"
            " measured_setup_s={measured_setup_s:.6g}".format_map(
                record["calibration"])
            + (f" steal={steal:.3f}" if steal is not None else ""),
            flush=True)
        for name in bounds:
            values[name].append(row[name])
    print(f"host: {json.dumps(host)}")
    print(f"{'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    worst = 0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        verdict = "ok" if spread <= bound / 3 else (
            "within bound" if spread <= bound else "TOO NOISY")
        if spread > bound:
            worst = 1
        print(f"{name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound:>6}  {verdict}")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="See perfbench/README.md.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="steadiness report over --runs seeds")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout of the program "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
    if args.report:
        if args.runs < 2:
            parser.error("--report needs --runs 2 or more for quartiles")
        return report(args.workload, args.runs, args.seed, seconds)

    def give_up(_signum, _frame):
        raise RunFailure(f"run still going after {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(WATCHDOG_S)
    cpu_before = _cpu_times()
    try:
        result = run_once(args.workload, args.seed, seconds, bool(args.trace))
    except RunFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in result["guard"]:
        print(f"exact-count guard: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"host": result["host"], "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "steal_frac": _steal_frac(cpu_before, _cpu_times()),
                      "calibration": result.get("calibration")}))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["guard"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
