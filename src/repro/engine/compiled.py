"""The compiled (cache-blocked) analytic MCP engine.

One relaxation round of the paper's Section 3 loop — row-``d`` broadcast +
saturating add, wired-OR minimum, selected-min PTN recovery, diagonal
writeback, convergence test — collapses into a handful of whole-array
numpy kernels, because the algorithm's *live* state is only the ``d``-th
row of ``SOW``/``PTN`` (everything else is recomputed from it each round):

======================================  ====================================
cycle engine (per round)                compiled kernel
======================================  ====================================
broadcast row d + ``sat_add``           ``cand = sow[j] + W[i, j]``, over
                                        every column (dense tiles) or only
                                        the real ones (neighbour list)
``h``-round bit-serial wired-OR min     ``cand.min`` per row, then one
                                        clip to ``MAXINT``
selected-min over ``COL``               ``cand.argmin`` per row (first
                                        occurrence == smallest column
                                        index, the bit-serial tie-break);
                                        0 on an all-``MAXINT`` row
diagonal writeback, masked PTN store    ``where(changed, arg, ptn)`` with
                                        ``new_sow[d] = 0`` (the never-stored
                                        ``MIN_SOW[d, d] = 0`` invariant)
controller ``global_or``                ``changed.any()``
======================================  ====================================

Saturating after the reduction is exact: ``min_j min(c_j, M) ==
min(min_j c_j, M)``, a row whose raw minimum is below ``M`` has the same
winners either way, and a row whose raw minimum is not has only ``M``
candidates once saturated, whose first is column 0.

:func:`blocked_relax` lays the candidates out one of two ways, chosen by
the input's shape alone (:func:`uses_neighbour_list`):

==============  ====================================  =================
layout          tile (``rows`` of it per step)        taken for
==============  ====================================  =================
dense row       ``sow[..., None, :] + W[i0:i1]``:     serial state,
tiles           ``B x rows x n`` words                per-lane planes,
                                                      few lanes, dense
                                                      planes
neighbour       ``state[nbr[i0:i1]] + wk[i0:i1]``:    a shared plane,
list,           ``rows x k x B`` words                many lanes, few
lane-minor                                            real entries per
                                                      row
==============  ====================================  =================

Both size ``rows`` by :func:`row_block` so a tile is ~1 MiB and
min/argmin run while it is still hot. The neighbour list ``nbr[i, :]``
holds row ``i``'s columns with ``W[i, j] < MAXINT`` in ascending order,
padded to the fullest row's count ``k`` with a sentinel state row that
holds ``MAXINT``; it is rebuilt inside every call, so the kernel keeps no
state between calls. Every layout and tiling is bit-identical: tiles
cover disjoint rows, each row's argmin is taken over its full candidate
vector in ascending column order, and a column the neighbour list skips
only ever offers ``MAXINT``.

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
    "uses_neighbour_list",
    "blocked_relax",
    "compiled_kernel_info",
    "compiled_minimum_cost_path",
    "compiled_batched_minimum_cost_path",
]

#: Target byte size of one candidate tile (``B x rows x n`` int64, or
#: ``rows x k x B`` on the neighbour list). ~1 MiB keeps the tile
#: L2-resident on every CPU this is likely to meet; measured best on the
#: P18 workloads (see benchmarks/bench_p18_compiled.py).
_BLOCK_TARGET_BYTES = 1 << 20

#: Floor on rows per tile: below this the Python loop overhead dominates.
_MIN_BLOCK_ROWS = 16

#: When a shared-plane relaxation takes the neighbour-list layout: its
#: state must hold at least ``_NEIGHBOUR_MIN_STATE`` words (``B * n``),
#: and some tier of (min lanes ``B``, max fill ``k / n``) must admit it.
#: Many lanes amortise the per-call list build over a plane up to a
#: quarter full; fewer lanes pay only on a very sparse plane. Everywhere
#: else the contiguous dense tiles are as fast or faster (the crossover
#: sweep in docs/performance.md, "Choosing an engine").
_NEIGHBOUR_MIN_STATE = 4096
_NEIGHBOUR_TIERS = ((32, 1 / 4), (16, 1 / 16))


def row_block(batch: int, n: int) -> int:
    """Rows per candidate tile for a ``(batch, n)`` state relaxation.

    Sized so one ``batch x rows x n`` int64 tile is ~`_BLOCK_TARGET_BYTES`,
    floored at ``_MIN_BLOCK_ROWS`` and capped at ``n``. The neighbour-list
    layout asks for ``row_block(batch, k)``: its tile is ``rows x k x B``.
    """
    rows = _BLOCK_TARGET_BYTES // (max(1, batch) * max(1, n) * 8)
    return max(_MIN_BLOCK_ROWS, min(int(rows), n))


def uses_neighbour_list(batch: int, n: int, k: int) -> bool:
    """Whether a shared-plane relaxation of ``batch`` lanes over ``n``
    vertices, whose fullest row has ``k`` real entries, takes the
    neighbour-list layout (per-lane planes always take the dense tiles)."""
    return batch * n >= _NEIGHBOUR_MIN_STATE and any(
        batch >= min_batch and k <= fill * n
        for min_batch, fill in _NEIGHBOUR_TIERS
    )


def blocked_relax(sow: np.ndarray, W: np.ndarray, maxint: int):
    """One relaxation: candidates, row minima, best successors.

    ``sow`` is the row-``d`` state — ``(n,)`` serial or ``(B, n)`` batched;
    ``W`` is ``(n, n)`` (shared) or ``(B, n, n)`` (per lane). Returns
    ``(new_sow, arg)`` where ``arg`` is the smallest-index argmin per row,
    matching the bit-serial ``selected_min`` tie-break over ``COL``. The
    layout — dense tiles or neighbour list — follows from the input's
    shape alone (:func:`uses_neighbour_list`); both are bit-identical.
    """
    n = sow.shape[-1]
    batch = 1 if sow.ndim == 1 else sow.shape[0]
    if W.ndim == 2 and sow.ndim == 2 and uses_neighbour_list(batch, n, 1):
        # k is at least any one row's count: a sample of rows turns a
        # dense plane away before the full count.
        sample = np.count_nonzero(W[:: max(1, n // 8)] < maxint, axis=1)
        if uses_neighbour_list(batch, n, int(sample.max())):
            real = W < maxint
            counts = np.count_nonzero(real, axis=1)
            k = max(1, int(counts.max()))
            if uses_neighbour_list(batch, n, k):
                return _neighbour_relax(sow, W, maxint, real, counts, k)
    return _dense_relax(sow, W, maxint)


def _dense_relax(sow: np.ndarray, W: np.ndarray, maxint: int):
    """:func:`blocked_relax` over dense row tiles of the full candidate
    array — any shape of ``sow`` and ``W``."""
    n = sow.shape[-1]
    batch = 1 if sow.ndim == 1 else sow.shape[0]
    step = row_block(batch, n)
    # cand[..., i, j] = sow[..., j] + W[..., i, j]: the cost of "go first
    # to j" from node i — statement 10's broadcast + sat_add, saturated
    # after the reduction (see _saturate).
    sow_b = sow[..., None, :]
    best = np.empty(sow.shape, dtype=np.int64)
    arg = np.empty(sow.shape, dtype=np.int64)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        cand = sow_b + W[..., i0:i1, :]
        cand.min(axis=-1, out=best[..., i0:i1])
        arg[..., i0:i1] = cand.argmin(axis=-1)
    return _saturate(best, arg, maxint)


def _neighbour_relax(sow, W, maxint, real, counts, k):
    """:func:`blocked_relax` over a padded neighbour list of the shared
    plane, lane-minor: only the real entries (``W < maxint``) are added.

    ``nbr[i, :counts[i]]`` lists row ``i``'s real columns in ascending
    order; padding points at a sentinel state row ``n`` holding
    ``maxint``. The first minimum along ``k`` is therefore the smallest
    winning column — the dense ``argmin`` tie-break — and a non-real
    column only ever offers ``maxint``, which :func:`_saturate` handles.
    """
    batch, n = sow.shape
    # Row i's slots [0, counts[i]) take its real entries in row-major
    # (ascending column) order; the rest stay padding.
    flat = np.flatnonzero(real)
    slots = np.arange(k) < counts[:, None]
    nbr = np.full((n, k), n, dtype=np.int64)
    nbr[slots] = flat % n
    wk = np.zeros((n, k), dtype=np.int64)
    wk[slots] = W.ravel()[flat]
    state = np.empty((n + 1, batch), dtype=np.int64)
    state[:n] = sow.T
    state[n] = maxint
    best = np.empty((n, batch), dtype=np.int64)
    arg = np.empty((n, batch), dtype=np.int64)
    step = row_block(batch, k)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        cand = state[nbr[i0:i1]]  # (rows, k, B)
        cand += wk[i0:i1, :, None]
        first = cand.argmin(axis=1)
        best[i0:i1] = np.take_along_axis(cand, first[:, None], axis=1)[:, 0]
        arg[i0:i1] = np.take_along_axis(nbr[i0:i1], first, axis=1)
    best, arg = _saturate(best, arg, maxint)
    return np.ascontiguousarray(best.T), np.ascontiguousarray(arg.T)


def _saturate(best, arg, maxint):
    """Saturate raw row minima to ``maxint`` in place; a saturated row's
    winner is column 0 (exact — see the module docstring)."""
    sat = best >= maxint
    best[sat] = maxint
    arg[sat] = 0
    return best, arg


def compiled_kernel_info() -> dict:
    """Introspection for docs/benchmarks: the kernel's backend, tile size
    and the rule choosing its layout."""
    return {
        "backend": "numpy-blocked",
        "block_target_bytes": _BLOCK_TARGET_BYTES,
        "neighbour_min_state": _NEIGHBOUR_MIN_STATE,
        "neighbour_tiers": [
            {"min_batch": b, "max_fill": f} for b, f in _NEIGHBOUR_TIERS
        ],
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
