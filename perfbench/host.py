"""Process that hosts the program under test for one benchmark run.

Run from the root of a checkout (the benchmark starts it; it is not a
user-facing tool):

``python3 perfbench/host.py apsp --seed S --seconds T --trace 0|1 --out DIR``
    Offline engine workload: solve full APSP repeatedly for about *T*
    seconds, saving each answer under *DIR* for the independent check,
    with ``SETUP_REPS`` set-ups spread over that time (one, in a traced
    run). Before each solve it runs the benchmark's fixed calibration
    work (``calibrate.py``). Prints one JSON summary line.

``python3 perfbench/host.py serve --trace 0|1``
    Serving workload: reads one JSON command per stdin line and answers
    with one JSON line on stdout. Commands: ``start`` (fresh
    ``PathQueryService`` with the default ``ServiceConfig`` on port 0,
    starting from a cold cost-vector cache as a new process does),
    ``stop``, ``cpu`` (the program's CPU seconds so far), ``cal`` (CPU
    seconds of one run of the fixed calibration work), ``trace``
    (``on`` true/false, ``phase`` name) and ``exit`` (final summary: peak
    RSS and per-phase trace totals).

The first serving reply and the final summary carry the host fingerprint
of the program side. Imports happen before any timing starts.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import repro.core.apsp  # noqa: E402
import repro.engine._loop  # noqa: E402
import repro.engine.compiled  # noqa: E402
import repro.engine.costs  # noqa: E402
import repro.serve.service  # noqa: E402
from repro.core import all_pairs_minimum_cost  # noqa: E402
from repro.ppa.machine import PPAMachine  # noqa: E402
from repro.ppa.topology import PPAConfig  # noqa: E402
from repro.serve.admission import AdmissionController  # noqa: E402
from repro.serve.service import PathQueryService, ServiceConfig  # noqa: E402

from calibrate import calibrate  # noqa: E402
from inputs import (  # noqa: E402
    APSP_DEGREE,
    APSP_N,
    APSP_WORD_BITS,
    gnp_weights,
)
from tracer import Tracer  # noqa: E402

#: set-up repetitions per untraced run; set-up time is their median.
SETUP_REPS = 25


def _kernel_bytes(args, _kwargs, out) -> int:
    """Bytes of the kernel's operands and results, from their shapes."""
    return int(args[0].nbytes + args[1].nbytes + out[0].nbytes
               + out[1].nbytes)


def _lanes(args, _kwargs, _out) -> int:
    return int(np.asarray(args[2]).size)


def _nbytes(_args, _kwargs, out) -> int:
    return len(out)


def trace_targets() -> list[tuple]:
    """Each layer entry point, patched where its caller looks it up."""
    service = repro.serve.service
    loop = repro.engine._loop
    return [
        (repro.engine.compiled, "blocked_relax", "engine.kernel", False,
         _kernel_bytes),
        (loop, "reconstruct_cold_mcp", "engine.reconstruct", False, None),
        (loop, "mcp_cost_vector", "engine.cost_probe", False, None),
        (repro.engine.costs, "mcp_cost_vector", "engine.cost_probe", False,
         None),
        (repro.core.apsp, "batched_minimum_cost_path", "core.batched",
         False, _lanes),
        (service, "batched_minimum_cost_path", "core.batched", False,
         _lanes),
        (service, "decode_line", "serve.protocol.decode", False, None),
        (service, "encode_message", "serve.protocol.encode", False,
         _nbytes),
        (PathQueryService, "handle_request", "serve.request", True, None),
        (AdmissionController, "acquire", "serve.admission.wait", True,
         None),
        (service, "verify_mcp", "serve.oracle.verify", False, None),
        (service, "column_is_dirty", "serve.delta.dirty", False, None),
        (service, "certify_warm_column", "serve.delta.certify", False,
         None),
    ]


def fingerprint() -> dict:
    import platform
    from importlib.metadata import version

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "compiled_kernel": repro.engine.compiled.compiled_kernel_info(),
    }


def cpu_s() -> float:
    """CPU seconds of this process, plus those of its finished child
    processes (shard workers), so work moved into children still counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# Offline APSP
# ----------------------------------------------------------------------


def run_apsp(seed: int, seconds: float, traced: bool, out_dir: str) -> None:
    tracer = Tracer()
    if traced:
        tracer.install(trace_targets())
    misses0 = repro.engine.costs.cost_cache_stats()["misses"]

    setup: list[float] = []

    def set_up() -> tuple:
        c0 = cpu_s()
        W = gnp_weights(APSP_N, APSP_DEGREE, seed)
        machine = PPAMachine(PPAConfig(n=APSP_N, word_bits=APSP_WORD_BITS))
        repro.engine.costs.clear_cost_cache()
        repro.engine.costs.mcp_cost_vector(machine.config)
        setup.append(cpu_s() - c0)
        return W, machine

    W, machine = set_up()

    def solve(phase: str) -> dict:
        cal.append(calibrate())
        tracer.phase = phase
        kernel_before = len(tracer.spans)
        t0, c0 = time.perf_counter(), cpu_s()
        res = all_pairs_minimum_cost(machine, W)
        wall, cpu = time.perf_counter() - t0, cpu_s() - c0
        k = len(solves)
        np.savez(os.path.join(out_dir, f"solve{k}.npz"),
                 dist=res.dist, succ=res.succ)
        kernel_calls = sum(1 for s in tracer.spans[kernel_before:]
                           if s[0] == "engine.kernel")
        return {"phase": phase, "wall_s": wall, "cpu_s": cpu,
                "maxint": res.maxint,
                "iterations": int(res.iterations.sum()),
                "kernel_calls": kernel_calls}

    # In a traced run, half the time runs untraced first: the traced
    # minus untraced difference is the tracing overhead.
    phases = [("timed", seconds, 2)]
    if traced:
        phases = [("untraced", seconds / 2, 1), ("traced", seconds / 2, 2)]
    solves: list[dict] = []
    cal: list[float] = []
    for phase, budget, minimum in phases:
        if phase == "untraced":
            tracer.uninstall()
        elif phase == "traced":
            tracer.install(trace_targets())
        start, count = time.perf_counter(), 0
        while count < minimum or time.perf_counter() - start < budget:
            if phase == "timed":
                # set-ups are spread over the run, so their median sees
                # the same host conditions as the solves
                due = 1 + int((SETUP_REPS - 1)
                              * min(1.0, (time.perf_counter() - start)
                                    / budget))
                while len(setup) < due:
                    W, machine = set_up()
            solves.append(solve(phase))
            count += 1
    while not traced and len(setup) < SETUP_REPS:
        set_up()
    tracer.uninstall()
    emit({
        "setup_s": setup,
        "solves": solves,
        "cal_s": cal,
        "cost_cache_misses":
            repro.engine.costs.cost_cache_stats()["misses"] - misses0,
        "rss_mb": peak_rss_mb(),
        "trace": {p: tracer.summary(p) for p in ("setup", "traced")},
        "host": fingerprint(),
    })


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


async def serve_commands(traced: bool) -> None:
    tracer = Tracer()
    if traced:
        tracer.install(trace_targets())
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    service: PathQueryService | None = None
    host = fingerprint()
    emit({"ready": True, "host": host})
    while True:
        line = await reader.readline()
        cmd = json.loads(line) if line else {"cmd": "exit"}
        name = cmd.get("cmd")
        if name == "start":
            repro.engine.costs.clear_cost_cache()
            service = PathQueryService(ServiceConfig())
            server = await service.start(port=0)
            emit({"port": server.sockets[0].getsockname()[1]})
        elif name == "cpu":
            emit({"cpu_s": cpu_s()})
        elif name == "cal":
            emit({"cal_s": calibrate()})
        elif name == "stop":
            if service is not None:
                await service.stop()
                service = None
            emit({"stopped": True})
        elif name == "trace":
            tracer.phase = cmd["phase"]
            if not cmd["on"]:
                tracer.uninstall()
            elif not tracer.installed:
                tracer.install(trace_targets())
            emit({"phase": tracer.phase})
        elif name == "exit":
            if service is not None:
                await service.stop()
            tracer.uninstall()
            phases = sorted({s[5] for s in tracer.spans})
            emit({"rss_mb": peak_rss_mb(),
                  "trace": {p: tracer.summary(p) for p in phases},
                  "host": host})
            return
        else:
            emit({"error": f"unknown command {name!r}"})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("apsp", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".")
    args = parser.parse_args()
    if args.mode == "apsp":
        run_apsp(args.seed, args.seconds, bool(args.trace), args.out)
    else:
        asyncio.run(serve_commands(bool(args.trace)))


if __name__ == "__main__":
    main()
