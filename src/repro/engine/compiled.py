"""The compiled (cache-blocked) analytic MCP engine.

One relaxation round of the paper's Section 3 loop — row-``d`` broadcast +
saturating add, wired-OR minimum, selected-min PTN recovery, diagonal
writeback, convergence test — collapses into a handful of whole-array
numpy kernels, because the algorithm's *live* state is only the ``d``-th
row of ``SOW``/``PTN`` (everything else is recomputed from it each round):

====================================  =====================================
cycle engine (per round)              compiled kernel
====================================  =====================================
broadcast row d + ``sat_add``         ``cand = min(sow[j] + W[i, j], MAXINT)``
``h``-round bit-serial wired-OR min   ``cand.min(axis=-1)``
selected-min over ``COL``             ``cand.argmin(axis=-1)`` (first
                                      occurrence == smallest column index,
                                      the bit-serial tie-break)
diagonal writeback, masked PTN store  ``where(changed, arg, ptn)`` with
                                      ``new_sow[d] = 0`` (the never-stored
                                      ``MIN_SOW[d, d] = 0`` invariant)
controller ``global_or``              ``changed.any()``
====================================  =====================================

The candidate matrix is computed in row tiles sized to stay
cache-resident: a tile ``min(sow[..., None, :] + W[i0:i1], MAXINT)`` holds
only ``B x rows x n`` words, with ``rows`` chosen so the tile is ~1 MiB
(:func:`row_block`); min/argmin run per tile while it is still hot. When
one tile covers every row the kernel computes the whole array in one
pass, with no preallocation and no copy. Every tiling is bit-identical:
numpy's ``argmin`` keeps the smallest-index tie-break within a tile, and
tiles cover disjoint rows, so each row's argmin is taken over its full
candidate vector exactly as in the bit-serial ``selected_min``.

Counters are not simulated — they are **replayed**: every round charges
the exact per-iteration delta probed once per machine configuration by
:mod:`repro.engine.costs` (and the init phase charges the probed init
delta), through the shared loop in :mod:`repro.engine._loop`. Because one
MCP round issues a fixed, data-independent instruction stream, the
replayed totals are bit-identical to the cycle engine's on *every*
ledger: scalar counters, and — via the machine's lane mask — each lane's
serial-equivalent ledger. The differential suite in ``tests/engine/``
pins this across graphs, word widths, lane counts and tile sizes.

Eligibility is the caller's job (:func:`repro.engine.select.resolve_engine`
— no fault plan, tracer, bus trace, or non-default reduction routines);
the entry points here re-check and raise :class:`~repro.errors.EngineError`
if invoked directly on an ineligible machine. Process-parallel APSP
destination sharding rides on this tier — see :mod:`repro.engine.shard`.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import MCPResult
from repro.engine._loop import run_analytic_batched_mcp, run_analytic_mcp
from repro.engine.select import resolve_engine
from repro.ppa.machine import PPAMachine

__all__ = [
    "row_block",
    "blocked_relax",
    "compiled_kernel_info",
    "compiled_minimum_cost_path",
    "compiled_batched_minimum_cost_path",
]

#: Target byte size of one candidate tile (``B x rows x n`` int64). ~1 MiB
#: keeps the tile L2-resident on every CPU this is likely to meet; measured
#: best on the P18 workloads (see benchmarks/bench_p18_compiled.py).
_BLOCK_TARGET_BYTES = 1 << 20

#: Floor on rows per tile: below this the Python loop overhead dominates.
_MIN_BLOCK_ROWS = 16


def row_block(batch: int, n: int) -> int:
    """Rows per candidate tile for a ``(batch, n)`` state relaxation.

    Sized so one ``batch x rows x n`` int64 tile is ~`_BLOCK_TARGET_BYTES`,
    floored at ``_MIN_BLOCK_ROWS`` and capped at ``n``.
    """
    rows = _BLOCK_TARGET_BYTES // (max(1, batch) * max(1, n) * 8)
    return max(_MIN_BLOCK_ROWS, min(int(rows), n))


def blocked_relax(sow: np.ndarray, W: np.ndarray, maxint: int):
    """One relaxation: candidates, row minima, best successors.

    ``sow`` is the row-``d`` state — ``(n,)`` serial or ``(B, n)`` batched;
    ``W`` is ``(n, n)`` (shared) or ``(B, n, n)`` (per lane). Returns
    ``(new_sow, arg)`` where ``arg`` is the smallest-index argmin per row,
    matching the bit-serial ``selected_min`` tie-break over ``COL``.
    """
    n = sow.shape[-1]
    batch = 1 if sow.ndim == 1 else sow.shape[0]
    step = row_block(batch, n)
    # cand[..., i, j] = min(sow[..., j] + W[..., i, j], MAXINT): the cost of
    # "go first to j" from node i — statement 10's broadcast + sat_add.
    sow_b = sow[..., None, :]
    if step >= n:
        cand = np.minimum(sow_b + W, maxint)
        return cand.min(axis=-1), cand.argmin(axis=-1)
    best = np.empty(sow.shape, dtype=np.int64)
    arg = np.empty(sow.shape, dtype=np.int64)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        cand = np.minimum(sow_b + W[..., i0:i1, :], maxint)
        best[..., i0:i1] = cand.min(axis=-1)
        arg[..., i0:i1] = cand.argmin(axis=-1)
    return best, arg


def compiled_kernel_info() -> dict:
    """Introspection for docs/benchmarks: the kernel's backend and tile size."""
    return {
        "backend": "numpy-blocked",
        "block_target_bytes": _BLOCK_TARGET_BYTES,
    }


def compiled_minimum_cost_path(
    machine: PPAMachine,
    W,
    d: int,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
    warm_sow=None,
) -> MCPResult:
    """Single-destination MCP on the compiled engine.

    Bit-identical to :func:`repro.core.mcp.minimum_cost_path` with
    ``engine="cycle"`` in result *and* counters; callers normally reach it
    through ``engine="auto"``/``"compiled"`` dispatch rather than directly.
    """
    resolve_engine(machine, "compiled")  # raises EngineError when ineligible
    return run_analytic_mcp(
        machine,
        W,
        d,
        blocked_relax,
        zero_diagonal=zero_diagonal,
        max_iterations=max_iterations,
        warm_sow=warm_sow,
    )


def compiled_batched_minimum_cost_path(
    machine: PPAMachine,
    W,
    destinations,
    *,
    zero_diagonal: str = "require",
    max_iterations: int | None = None,
    warm_sow=None,
):
    """Batched multi-destination MCP on the compiled engine.

    Bit-identical to :func:`repro.core.batched.batched_minimum_cost_path`
    with ``engine="cycle"``: per-lane SOW/PTN/iterations, the batched-stream
    scalar counter delta *and* every lane's serial-equivalent ledger. Lane
    convergence masking happens on the host: a converged lane's state rows
    freeze and its ledger stops accruing (``set_active_lanes``), exactly as
    in the cycle loop.
    """
    resolve_engine(machine, "compiled")  # raises EngineError when ineligible
    return run_analytic_batched_mcp(
        machine,
        W,
        destinations,
        blocked_relax,
        zero_diagonal=zero_diagonal,
        max_iterations=max_iterations,
        warm_sow=warm_sow,
    )
