"""Crossover sweep: dense row tiles against the neighbour-list layout.

Times one batched compiled solve (``batched_minimum_cost_path`` over ``B``
destinations) three ways on seeded gnp digraphs — with the relaxation
kernel forced to the dense tiles, forced to the neighbour list, and left
to :func:`repro.engine.compiled.blocked_relax`'s own layout rule — and
prints a markdown table of median CPU milliseconds per solve. Each
repetition times all three back to back; ``rule/dense`` is the median of
the per-repetition ratios and ``spread`` their interquartile range, the
run-to-run noise a difference has to beat. The rule's contract is that
``rule/dense`` never exceeds 1 by more than that spread.

Run from the repository root (about ten minutes; the n=512, B=512 cells
dominate):

    PYTHONPATH=src python benchmarks/sweep_kernel_layouts.py

``--quick`` sweeps only n <= 64 for a smoke check.
"""

from __future__ import annotations

import argparse
import itertools
import os
import platform
import statistics
import sys
import time
from unittest import mock

import numpy as np

from repro.core.batched import batched_minimum_cost_path
from repro.engine import compiled
from repro.ppa import PPAConfig, PPAMachine
from repro.workloads import WeightSpec, gnp_digraph

WORD_BITS = 16
INF16 = (1 << WORD_BITS) - 1
SEED = 3
SIZES = (32, 64, 256, 512)
#: Timed repetitions per cell and layout: at least MIN_REPS, then more
#: (up to MAX_REPS) until the cell has spent CELL_BUDGET_S CPU seconds.
MIN_REPS, MAX_REPS, CELL_BUDGET_S = 6, 300, 1.5


def degrees(n: int) -> list[int]:
    return sorted({4, n // 8, n // 2, n - 1})


def batches(n: int) -> list[int]:
    # 16 is P18's lane count (benchmarks/bench_p18_compiled.py).
    return sorted({1, 2, 8, 16, 32, n})


def _forced_neighbour(sow, W, maxint):
    """The neighbour-list layout regardless of the rule (2-D state)."""
    real = W < maxint
    counts = np.count_nonzero(real, axis=1)
    k = max(1, int(counts.max()))
    return compiled._neighbour_relax(sow, W, maxint, real, counts, k)


LAYOUTS = {
    "dense": compiled._dense_relax,
    "neighbour": _forced_neighbour,
    "rule": compiled.blocked_relax,
}


def _cpu_ms(machine, W, dests) -> dict[str, list[float]]:
    """CPU milliseconds per solve for every layout, interleaved run by run
    and cycling through every order of the layouts, so that drift in the
    host's speed and the cache state one layout leaves for the next hit
    all layouts alike."""
    orders = list(itertools.permutations(LAYOUTS))
    samples: dict[str, list[float]] = {name: [] for name in LAYOUTS}
    spent = 0.0
    rep = 0
    while rep < MIN_REPS or (spent < CELL_BUDGET_S and rep < MAX_REPS):
        order = orders[rep % len(orders)]
        rep += 1
        for name in order:
            with mock.patch.object(compiled, "blocked_relax", LAYOUTS[name]):
                c0 = time.process_time()
                batched_minimum_cost_path(machine, W, dests,
                                          engine="compiled")
                dt = time.process_time() - c0
            samples[name].append(dt * 1e3)
            spent += dt
    return samples


def sweep(sizes) -> list[dict]:
    rows = []
    for n in sizes:
        for degree in degrees(n):
            W = gnp_digraph(n, min(1.0, degree / (n - 1)), seed=SEED,
                            weights=WeightSpec(1, 9), inf_value=INF16)
            k = int(np.count_nonzero(W < INF16, axis=1).max())
            for batch in batches(n):
                dests = np.linspace(0, n - 1, batch).astype(np.int64)
                machine = PPAMachine(
                    PPAConfig(n=n, word_bits=WORD_BITS)
                ).lanes(batch)
                batched_minimum_cost_path(machine, W, dests,
                                          engine="compiled")  # warm probe
                ms = _cpu_ms(machine, W, dests)
                paired = [r / d for r, d in zip(ms["rule"], ms["dense"])]
                q1, ratio, q3 = statistics.quantiles(paired, n=4)
                rows.append({
                    "n": n, "degree": degree, "k": k, "B": batch,
                    "picks": ("neighbour"
                              if compiled.uses_neighbour_list(batch, n, k)
                              else "dense"),
                    **{name: statistics.median(v) for name, v in ms.items()},
                    "ratio": ratio,
                    "spread": q3 - q1,
                })
                print(_format_row(rows[-1]), flush=True)
    return rows


def _format_row(r: dict) -> str:
    return (
        f"| {r['n']} | {r['degree']} | {r['k']} | {r['B']} "
        f"| {r['dense']:.2f} | {r['neighbour']:.2f} | {r['rule']:.2f} "
        f"| {r['picks']} | {r['ratio']:.2f} | {r['spread']:.2f} |"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="sweep n <= 64 only")
    args = parser.parse_args(argv)
    sizes = tuple(n for n in SIZES if not args.quick or n <= 64)
    info = compiled.compiled_kernel_info()
    tiers = " or ".join(
        f"(B >= {t['min_batch']} and k <= n*{t['max_fill']:g})"
        for t in info["neighbour_tiers"]
    )
    print(f"host: {os.cpu_count()} cores, python "
          f"{platform.python_version()}, numpy {np.__version__}; "
          f"neighbour list when B*n >= {info['neighbour_min_state']} and "
          f"{tiers}")
    print("| n | degree | k | B | dense ms | neighbour ms | rule ms "
          "| picks | rule/dense | spread |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    rows = sweep(sizes)
    worst = max(rows, key=lambda r: r["ratio"] - 1 - r["spread"])
    print(f"\nworst rule/dense {worst['ratio']:.2f} (spread "
          f"{worst['spread']:.2f}) at n={worst['n']} "
          f"degree={worst['degree']} B={worst['B']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
