"""Analytic per-iteration cost vectors for the compiled engine.

The paper's MCP loop issues a **fixed, data-independent** instruction
stream: below the controller's do-while test there is no data-dependent
branch, so every iteration charges the machine counters the *same* delta
(the batched lane ledger of PR 2 already relies on this). The compiled
engine exploits it in the other direction: instead of executing ~35
Python-level machine primitives per round it executes a handful of numpy
kernels and charges the counters from a cost vector measured **once**.

Derivation — replay, not hand-derivation
----------------------------------------
Hand-deriving the constants (``5h + ...`` ALU ops per round, etc.) would
silently drift the day anyone touches the cycle engine's accounting. So
the vector is *replayed*: a scratch cycle machine with the **same**
:class:`~repro.ppa.topology.PPAConfig` runs one tiny deterministic MCP
under the span tracer, and the ``mcp.init`` / ``mcp.iteration`` span
counters — exact partitions of the run's totals, by the telemetry
exactness invariant — become the init and per-iteration deltas. Any
change to the cycle engine's charging is therefore picked up
automatically, and the differential suite in ``tests/engine/`` pins
compiled == cycle bit-for-bit on every ledger.

Cache key
---------
The vector depends only on the machine configuration (``n`` enters
through the LINEAR bus-cost model, ``h`` through per-bit loops and
``bit_cycles`` weighting). It does **not** depend on the lane count
``B``: a batched machine charges its scalar counters once per SIMD
instruction — the same increments a serial machine charges — and its
per-lane ledger replicates those increments into each active lane
(see :meth:`repro.ppa.machine.PPAMachine._charge`). The compiled engine
therefore applies ``init + iterations[b] * iteration`` per lane and
``init + rounds * iteration`` to the scalar book, which the differential
tests verify lane-for-lane against the batched cycle engine. Probes are
cached in a small LRU keyed on the full (frozen, hashable) config.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import EngineError
from repro.ppa.topology import PPAConfig

__all__ = [
    "MCPCostVector",
    "mcp_cost_vector",
    "clear_cost_cache",
    "cost_cache_size",
    "cost_cache_stats",
    "reset_cost_cache_stats",
    "export_cost_cache",
    "install_cost_cache",
]

_COST_CACHE_SIZE = 32
_cache: "OrderedDict[PPAConfig, MCPCostVector]" = OrderedDict()
# Host-side metric (mirrors the bus-plan cache stats convention): never
# part of the machine cost model or any golden snapshot.
_stats = {"hits": 0, "misses": 0}


@dataclass(frozen=True)
class MCPCostVector:
    """One machine configuration's exact MCP cost profile.

    Attributes
    ----------
    config
        The :class:`PPAConfig` the vector was probed on.
    init
        Counter delta of the init phase (statements 4-7 plus the
        directed-graph init transposition), charged once per run.
    iteration
        Counter delta of one full do-while round (statements 9-20),
        charged once per executed round.
    probe_iterations
        How many rounds the probe workload executed (1 or 2); with two,
        the per-round constancy was verified directly.
    """

    config: PPAConfig
    init: dict[str, int]
    iteration: dict[str, int]
    probe_iterations: int

    def total(self, iterations: int) -> dict[str, int]:
        """The exact counter delta of a run with *iterations* rounds."""
        return {
            k: v + iterations * self.iteration[k]
            for k, v in self.init.items()
        }


def _probe_weights(config: PPAConfig) -> tuple[np.ndarray, int]:
    """A deterministic workload with a known iteration count.

    Prefers a 2-hop chain toward destination 0 (exactly two rounds: one
    productive, one no-change) so per-round constancy can be asserted;
    falls back to the edgeless graph (exactly one round) when the grid or
    word width cannot host it.
    """
    n, maxint = config.n, config.maxint
    W = np.full((n, n), maxint, dtype=np.int64)
    np.fill_diagonal(W, 0)
    if n >= 3 and (n - 1) < maxint:  # weight-1 edges pass the headroom check
        W[1, 0] = 1
        W[2, 1] = 1
        return W, 2
    return W, 1


def _probe(config: PPAConfig) -> MCPCostVector:
    """Run the cycle engine once under the tracer and split its phases."""
    from repro.core.mcp import minimum_cost_path
    from repro.ppa.machine import PPAMachine

    W, expected_rounds = _probe_weights(config)
    scratch = PPAMachine(config)
    with scratch.telemetry.capture():
        result = minimum_cost_path(scratch, W, 0, engine="cycle")
    if result.iterations != expected_rounds:  # pragma: no cover - invariant
        raise EngineError(
            f"cost probe executed {result.iterations} rounds, expected "
            f"{expected_rounds}; the cycle engine changed shape"
        )
    (root,) = scratch.telemetry.roots
    (init_span,) = root.find("mcp.init")
    iter_spans = root.find("mcp.iteration")
    deltas = [dict(s.counters) for s in iter_spans]
    if any(d != deltas[0] for d in deltas[1:]):  # pragma: no cover - invariant
        raise EngineError(
            "cycle-engine iterations are no longer cost-constant; the "
            "compiled engine's analytic replay is invalid for this config"
        )
    init = dict(init_span.counters)
    iteration = deltas[0]
    # Partition sanity: init + rounds * iteration must equal the run total.
    total = {
        k: init.get(k, 0) + len(iter_spans) * iteration.get(k, 0)
        for k in result.counters
    }
    if total != result.counters:  # pragma: no cover - invariant
        raise EngineError(
            "cost probe phases do not partition the run total; charges "
            "exist outside the init/iteration spans"
        )
    return MCPCostVector(
        config=config,
        init=init,
        iteration=iteration,
        probe_iterations=len(iter_spans),
    )


def mcp_cost_vector(config: PPAConfig) -> MCPCostVector:
    """The (cached) exact MCP cost vector for *config*.

    The first call per configuration replays one tiny MCP on a scratch
    cycle machine (milliseconds, even at ``n = 512``); later calls are a
    dictionary lookup. The probe may warm the module-wide bus-plan caches
    exactly as any cycle run would — plan-cache state never affects
    counters (host-side metric), which ``tests/engine/`` pins.
    """
    vector = _cache.pop(config, None)
    if vector is not None:
        _cache[config] = vector  # refresh LRU position
        _stats["hits"] += 1
        return vector
    _stats["misses"] += 1
    vector = _probe(config)
    _cache[config] = vector
    while len(_cache) > _COST_CACHE_SIZE:
        _cache.popitem(last=False)
    return vector


def export_cost_cache() -> tuple[MCPCostVector, ...]:
    """Every cached cost vector, oldest-first — a picklable snapshot.

    :class:`MCPCostVector` is a frozen dataclass of a frozen
    :class:`PPAConfig` plus plain dicts, so the tuple pickles cleanly.
    The APSP shard runner (:mod:`repro.engine.shard`) probes the parent
    process once, exports, and ships the vectors to every worker through
    the pool initializer — workers then *hit* the cache instead of
    silently re-probing (and re-tracing) per process; the worker-side
    hit/miss stats are asserted in ``tests/engine/test_shard.py``.
    """
    return tuple(_cache.values())


def install_cost_cache(vectors) -> None:
    """Install pre-probed cost vectors (e.g. in a worker process at fork).

    Installation counts as neither hit nor miss — the stats measure lookup
    traffic, and shipped vectors exist precisely so the first worker
    lookup is a hit. Unknown objects are rejected loudly: a silently
    dropped vector would reintroduce the per-worker re-probe this API
    exists to prevent.
    """
    for vector in vectors:
        if not isinstance(vector, MCPCostVector):
            raise EngineError(
                f"install_cost_cache() takes MCPCostVector instances, got "
                f"{type(vector).__name__}"
            )
        _cache.pop(vector.config, None)
        _cache[vector.config] = vector
    while len(_cache) > _COST_CACHE_SIZE:
        _cache.popitem(last=False)


def clear_cost_cache() -> None:
    """Drop every cached cost vector (hit/miss stats are kept)."""
    _cache.clear()


def cost_cache_size() -> int:
    """Current number of cached cost vectors (bounded by the LRU cap)."""
    return len(_cache)


def cost_cache_stats() -> dict[str, int]:
    """Host-side hit/miss tallies of the cost-vector cache (copy)."""
    return dict(_stats)


def reset_cost_cache_stats() -> None:
    _stats["hits"] = 0
    _stats["misses"] = 0
