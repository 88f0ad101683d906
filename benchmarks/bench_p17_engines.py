"""P17 — compiled analytic engine vs the cycle engine.

The headline artefact of the engine axis (docs/performance.md, "Choosing
an engine"): whole MCP relaxation rounds computed as cache-blocked numpy
kernels with the counter book replayed from the analytic per-iteration
cost vector. The compiled engine must be

* **bit-identical** — SOW/PTN (dist/succ), iteration counts, the scalar
  counter book and every per-lane serial-equivalent ledger equal to the
  cycle engine's, at every size measured, and
* **>= 10x faster** wall-clock on the batched n=64 APSP, and
* able to complete a single-destination n=512 MCP (out of reach for
  interactive use of the cycle engine's per-transaction simulation).

``BENCH_p17_engines.json`` records the measurement. Counter fields are
deterministic and drift-guarded by ``benchmarks/check_drift.py``;
wall-times are environment-dependent and excluded from the guard.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core import all_pairs_minimum_cost, minimum_cost_path
from repro.engine import mcp_cost_vector
from repro.ppa import PPAConfig, PPAMachine
from repro.workloads import WeightSpec, gnp_digraph

WORD_BITS = 16
INF16 = (1 << WORD_BITS) - 1

APSP_N = 64
APSP_SEED = 4
APSP_DENSITY = 0.12

MCP_N = 512
MCP_SEED = 7
MCP_DENSITY = 0.02
MCP_DEST = 0

ROUNDS = 3
MIN_SPEEDUP = 10.0

_ARTIFACT = Path(__file__).parent / "profiles" / "BENCH_p17_engines.json"


def _apsp_workload() -> np.ndarray:
    return gnp_digraph(APSP_N, APSP_DENSITY, seed=APSP_SEED,
                       weights=WeightSpec(1, 9), inf_value=INF16)


def _mcp_workload() -> np.ndarray:
    return gnp_digraph(MCP_N, MCP_DENSITY, seed=MCP_SEED,
                       weights=WeightSpec(1, 9), inf_value=INF16)


def _timed(fn, rounds: int = ROUNDS):
    """Best-of-*rounds* wall time (noise floor) plus the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_p17_engines_headline():
    # --- batched APSP, n=64: compiled vs cycle, every ledger compared --
    W = _apsp_workload()

    def cycle():
        return all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=APSP_N)), W, engine="cycle"
        )

    def compiled():
        return all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=APSP_N)), W, engine="compiled"
        )

    compiled()  # warm the cost-vector probe and plan caches
    cycle()  # warm the bus-plan caches for the cycle side alike
    t_compiled, res_comp = _timed(compiled)
    t_cycle, res_c = _timed(cycle)

    assert np.array_equal(res_comp.dist, res_c.dist)
    assert np.array_equal(res_comp.succ, res_c.succ)
    assert np.array_equal(res_comp.iterations, res_c.iterations)
    assert res_comp.counters == res_c.counters
    assert res_comp.machine_counters == res_c.machine_counters
    for name in res_c.lane_counters:
        assert np.array_equal(
            res_comp.lane_counters[name], res_c.lane_counters[name]
        ), name

    speedup = t_cycle / t_compiled
    assert speedup >= MIN_SPEEDUP, (
        f"compiled APSP speedup {speedup:.2f}x below the {MIN_SPEEDUP}x bar "
        f"(cycle {t_cycle:.3f}s, compiled {t_compiled:.3f}s)"
    )

    # --- single-destination MCP, n=512: compiled completes, and is still
    # bit-identical to one (slow) cycle reference run ------------------
    W512 = _mcp_workload()
    t_compiled512, res_comp512 = _timed(
        lambda: minimum_cost_path(
            PPAMachine(PPAConfig(n=MCP_N)), W512, MCP_DEST, engine="compiled"
        )
    )
    res_c512 = minimum_cost_path(
        PPAMachine(PPAConfig(n=MCP_N)), W512, MCP_DEST, engine="cycle"
    )
    assert np.array_equal(res_comp512.sow, res_c512.sow)
    assert np.array_equal(res_comp512.ptn, res_c512.ptn)
    assert res_comp512.iterations == res_c512.iterations
    assert res_comp512.counters == res_c512.counters

    _ARTIFACT.parent.mkdir(exist_ok=True)
    _ARTIFACT.write_text(json.dumps({
        "schema": "repro-bench-p17-v2",
        "apsp": {
            "workload": {
                "family": "gnp", "n": APSP_N, "seed": APSP_SEED,
                "density": APSP_DENSITY, "word_bits": WORD_BITS,
            },
            "rounds": ROUNDS,
            "cycle_seconds": round(t_cycle, 4),
            "compiled_seconds": round(t_compiled, 4),
            "speedup": round(speedup, 2),
            "iterations": [int(i) for i in res_comp.iterations],
            "counters_serial_equivalent": {
                k: int(v) for k, v in res_comp.counters.items()
            },
            "machine_counters_batched": {
                k: int(v) for k, v in res_comp.machine_counters.items()
            },
        },
        "mcp_n512": {
            "workload": {
                "family": "gnp", "n": MCP_N, "seed": MCP_SEED,
                "density": MCP_DENSITY, "word_bits": WORD_BITS,
                "destination": MCP_DEST,
            },
            "compiled_seconds": round(t_compiled512, 4),
            "iterations": int(res_comp512.iterations),
            "counters": {k: int(v) for k, v in res_comp512.counters.items()},
        },
    }, indent=2) + "\n")


def test_p17_counter_replay_exact_across_sizes():
    """Compiled counters == analytic cost vector replay, n up to 512."""
    for n, density, seed in ((16, 0.3, 1), (64, 0.12, 4), (128, 0.06, 2),
                             (512, 0.02, 7)):
        config = PPAConfig(n=n, word_bits=WORD_BITS)
        W = gnp_digraph(n, density, seed=seed, weights=WeightSpec(1, 9),
                        inf_value=INF16)
        res = minimum_cost_path(PPAMachine(config), W, 0, engine="compiled")
        assert res.counters == mcp_cost_vector(config).total(res.iterations)


def test_p17_apsp_n64_compiled(benchmark):
    W = _apsp_workload()
    benchmark.pedantic(
        lambda: all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=APSP_N)), W, engine="compiled"
        ),
        rounds=3, iterations=1,
    )


def test_p17_mcp_n512_compiled(benchmark):
    W = _mcp_workload()
    benchmark.pedantic(
        lambda: minimum_cost_path(
            PPAMachine(PPAConfig(n=MCP_N)), W, MCP_DEST, engine="compiled"
        ),
        rounds=3, iterations=1,
    )
