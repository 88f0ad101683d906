"""P18 — tiled compiled engine + sharded workers vs whole-array relaxation,
with a native roofline.

The compiled engine's headline artefact (docs/performance.md, "The
compiled tier and the native roofline"): cache-blocked min-plus kernels
(:mod:`repro.engine.compiled`) driven through process-sharded APSP
(``all_pairs_minimum_cost(workers=...)``), judged two ways on the same
instances:

* **against whole-array relaxation** — the same compiled APSP with
  :func:`~repro.engine.compiled.blocked_relax` patched to a dense
  reference that computes the full ``(lanes, n, n)`` candidate array in
  one pass. The default kernel (whichever layout it picks) plus
  ``workers > 1`` must be bit-identical on
  every ledger (and, through the differential suite, to ``cycle``) and
  at least ``MIN_SPEEDUP``x faster on the batched n=1024 APSP — a
  same-host ratio;
* **against a native CPU baseline** — Δ-stepping
  (:mod:`repro.baselines.delta_stepping`), the standard parallel
  shortest-path algorithm, sharded over the same worker processes. This
  is the *roofline*: the gap between ``compiled_workers_seconds`` and
  ``delta_seconds`` is the price of faithful PPA counter semantics, and
  the curve out to n=2048 shows how that price scales.

``BENCH_p18_compiled.json`` records the measurement. Counter fields are
deterministic and drift-guarded by ``benchmarks/check_drift.py`` (entries
with ``n <= DRIFT_GUARD_MAX_N`` — the larger entries' counters are
pinned by the in-run equality assertions instead, to keep the CI guard
fast); wall-times are environment-dependent and excluded. The full
artefact run takes several minutes — the n=1024 whole-array reference
sweep dominates, which is precisely the point being measured.
"""

import json
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.baselines import delta_stepping, delta_stepping_all_pairs
from repro.core import all_pairs_minimum_cost
from repro.core.batched import batched_minimum_cost_path
from repro.engine import compiled, compiled_kernel_info
from repro.ppa import PPAConfig, PPAMachine
from repro.workloads import WeightSpec, gnp_digraph

WORD_BITS = 16
INF16 = (1 << WORD_BITS) - 1
SEED = 5
DEGREE = 16  # gnp density DEGREE / n: constant average degree across sizes
WORKERS = 2
LANES = 16

#: Full-sweep roofline sizes. n=1024 is the acceptance point; 2048 is
#: measured on a destination subset (a full whole-array sweep there would
#: take an hour for no extra information).
FULL_SIZES = (256, 512, 1024)
SUBSET_N = 2048
SUBSET_DESTS = 32

EQUIV_N = 128  # cheap drift-guarded equivalence instance
DRIFT_GUARD_MAX_N = 512

MIN_SPEEDUP = 3.0
SPEEDUP_AT_N = 1024

_ARTIFACT = Path(__file__).parent / "profiles" / "BENCH_p18_compiled.json"


def _workload(n: int) -> np.ndarray:
    return gnp_digraph(n, DEGREE / n, seed=SEED, weights=WeightSpec(1, 9),
                       inf_value=INF16)


def _timed(fn, rounds: int):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _whole_array_relax(sow, W, maxint):
    """Dense whole-array reference kernel: the full ``(lanes, n, n)``
    candidate array in one pass, whatever layout the engine would pick."""
    cand = np.minimum(sow[..., None, :] + W, maxint)
    return cand.min(axis=-1), cand.argmin(axis=-1)


def _whole_array(fn):
    """Run *fn* with the dense whole-array reference as the kernel."""
    def run():
        with mock.patch.object(compiled, "blocked_relax", _whole_array_relax):
            return fn()
    return run


def _assert_apsp_equal(a, b, context: str) -> None:
    assert np.array_equal(a.dist, b.dist), context
    assert np.array_equal(a.succ, b.succ), context
    assert np.array_equal(a.iterations, b.iterations), context
    assert a.counters == b.counters, context
    for name in a.lane_counters:
        assert np.array_equal(
            a.lane_counters[name], b.lane_counters[name]
        ), f"{context}: {name}"


def test_p18_compiled_headline():
    entries = []
    for n in FULL_SIZES:
        W = _workload(n)
        rounds = 2 if n <= 512 else 1

        def sweep(engine, workers=None):
            return lambda: all_pairs_minimum_cost(
                PPAMachine(PPAConfig(n=n, word_bits=WORD_BITS)), W,
                engine=engine, lanes=LANES, workers=workers,
            )

        sweep("compiled")()  # warm cost-vector probe + allocator
        t_whole, res_whole = _timed(_whole_array(sweep("compiled")), rounds)
        t_compiled, res_compiled = _timed(sweep("compiled"), rounds)
        t_workers, res_workers = _timed(
            sweep("compiled", workers=WORKERS), rounds
        )
        t_delta, res_delta = _timed(
            lambda: delta_stepping_all_pairs(W, maxint=INF16,
                                             workers=WORKERS),
            rounds,
        )

        _assert_apsp_equal(res_compiled, res_whole, f"compiled@{n}")
        _assert_apsp_equal(res_workers, res_whole, f"workers@{n}")
        assert res_workers.shard_report["workers"] == WORKERS
        assert np.array_equal(res_delta.dist, res_compiled.dist), n

        entries.append({
            "n": n,
            "destinations": n,
            "lanes": LANES,
            "workers": WORKERS,
            "rounds": rounds,
            "whole_array_seconds": round(t_whole, 4),
            "compiled_seconds": round(t_compiled, 4),
            "compiled_workers_seconds": round(t_workers, 4),
            "delta_seconds": round(t_delta, 4),
            "speedup_workers_vs_whole_array": round(t_whole / t_workers, 2),
            "iterations_total": int(res_whole.iterations.sum()),
            "counters_serial_equivalent": {
                k: int(v) for k, v in res_whole.counters.items()
            },
        })

    at = {e["n"]: e for e in entries}[SPEEDUP_AT_N]
    assert at["speedup_workers_vs_whole_array"] >= MIN_SPEEDUP, (
        f"compiled+workers speedup {at['speedup_workers_vs_whole_array']}x "
        f"at n={SPEEDUP_AT_N} below the {MIN_SPEEDUP}x bar "
        f"(whole-array {at['whole_array_seconds']}s, "
        f"workers {at['compiled_workers_seconds']}s)"
    )

    # --- n=2048: destination subset, compiled vs the native baseline ---
    W = _workload(SUBSET_N)
    dests_all = np.arange(SUBSET_DESTS)

    def compiled_subset():
        machine = PPAMachine(PPAConfig(n=SUBSET_N, word_bits=WORD_BITS))
        dist = np.empty((SUBSET_N, SUBSET_DESTS), dtype=np.int64)
        for start in range(0, SUBSET_DESTS, LANES):
            dests = dests_all[start:start + LANES]
            res = batched_minimum_cost_path(
                machine.lanes(int(dests.size)), W, dests, engine="compiled"
            )
            dist[:, dests] = res.sow.T
        return dist

    def delta_subset():
        cols = [
            delta_stepping(W, int(d), maxint=INF16).sow for d in dests_all
        ]
        return np.stack(cols, axis=1)

    compiled_subset()  # warm the n=2048 cost-vector probe
    t_compiled_sub, dist_compiled = _timed(compiled_subset, 1)
    t_delta_sub, dist_delta = _timed(delta_subset, 1)
    assert np.array_equal(dist_compiled, dist_delta)

    subset_entry = {
        "n": SUBSET_N,
        "destinations": SUBSET_DESTS,
        "lanes": LANES,
        "workers": 1,
        "rounds": 1,
        "whole_array_seconds": None,
        "compiled_seconds": round(t_compiled_sub, 4),
        "delta_seconds": round(t_delta_sub, 4),
        "note": "destination subset; whole-array omitted (a full "
                "whole-array sweep at n=2048 adds nothing but hours)",
    }

    # --- cheap equivalence instance for the CI drift guard -------------
    W_eq = _workload(EQUIV_N)
    res_eq = all_pairs_minimum_cost(
        PPAMachine(PPAConfig(n=EQUIV_N, word_bits=WORD_BITS)), W_eq,
        engine="compiled", lanes=LANES,
    )
    res_eq_whole = _whole_array(lambda: all_pairs_minimum_cost(
        PPAMachine(PPAConfig(n=EQUIV_N, word_bits=WORD_BITS)), W_eq,
        engine="compiled", lanes=LANES,
    ))()
    _assert_apsp_equal(res_eq, res_eq_whole, "equivalence")

    _ARTIFACT.parent.mkdir(exist_ok=True)
    _ARTIFACT.write_text(json.dumps({
        "schema": "repro-bench-p18-v2",
        "workload": {
            "family": "gnp", "seed": SEED, "degree": DEGREE,
            "word_bits": WORD_BITS, "weights": [1, 9],
        },
        "drift_guard_max_n": DRIFT_GUARD_MAX_N,
        "kernel": compiled_kernel_info(),  # informational; host-dependent
        "roofline": entries + [subset_entry],
        "equivalence": {
            "n": EQUIV_N,
            "lanes": LANES,
            "iterations": [int(i) for i in res_eq.iterations],
            "counters_serial_equivalent": {
                k: int(v) for k, v in res_eq.counters.items()
            },
            "machine_counters_batched": {
                k: int(v) for k, v in res_eq.machine_counters.items()
            },
        },
    }, indent=2) + "\n")


def test_p18_worker_counter_invariance():
    """Serial-equivalent counters are invariant across worker counts."""
    W = _workload(EQUIV_N)
    base = all_pairs_minimum_cost(
        PPAMachine(PPAConfig(n=EQUIV_N)), W, engine="compiled", lanes=LANES,
    )
    for workers in (2, 3):
        res = all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=EQUIV_N)), W, engine="compiled",
            lanes=LANES, workers=workers,
        )
        _assert_apsp_equal(res, base, f"workers={workers}")


def test_p18_apsp_n256_compiled_workers(benchmark):
    W = _workload(256)
    benchmark.pedantic(
        lambda: all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=256)), W, engine="compiled",
            lanes=LANES, workers=WORKERS,
        ),
        rounds=2, iterations=1,
    )


def test_p18_delta_stepping_n256(benchmark):
    W = _workload(256)
    benchmark.pedantic(
        lambda: delta_stepping_all_pairs(W, maxint=INF16, workers=WORKERS),
        rounds=2, iterations=1,
    )
