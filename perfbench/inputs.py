"""Seeded workload inputs: graphs, read streams and edge deltas.

Everything here is a pure function of the ``--seed`` the benchmark is
given. The program under test only ever sees the arrays and requests
these functions produce, so a change to ``repro.workloads`` cannot move
the yardstick.
"""

from __future__ import annotations

import numpy as np

#: apsp-offline graph: vertices, average out-degree, machine word width.
APSP_N, APSP_DEGREE, APSP_WORD_BITS = 256, 32, 16

#: serving graph: vertices and average out-degree.
SERVE_N, SERVE_DEGREE = 64, 8

#: weight range of every generated edge (inclusive).
W_LO, W_HI = 1, 9

#: Zipf exponent of the destination popularity in the read stream.
ZIPF_S = 1.1

#: one ``dest`` read for every nine ``point`` reads.
DEST_SHARE = 0.1


def gnp_weights(n: int, out_degree: float, seed) -> np.ndarray:
    """Directed G(n, p) graph with ``p = out_degree / (n - 1)``.

    Returns an ``(n, n)`` float matrix: ``W[i, j]`` is the weight of edge
    ``i -> j`` (an integer in ``[W_LO, W_HI]``), ``inf`` where no edge
    exists, and a zero diagonal.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < out_degree / (n - 1)
    np.fill_diagonal(mask, False)
    W = np.full((n, n), np.inf)
    W[mask] = rng.integers(W_LO, W_HI + 1, size=int(mask.sum()))
    np.fill_diagonal(W, 0.0)
    return W


def weights_to_wire(W: np.ndarray) -> list:
    """Nested-list form of *W* for ``put_graph`` (``None`` = no edge)."""
    return [[None if not np.isfinite(v) else int(v) for v in row]
            for row in W]


class ReadStream:
    """The seeded read mix: Zipf(``ZIPF_S``) destinations over a seeded
    popularity order, uniform sources, ``DEST_SHARE`` of ``dest`` reads.

    ``pass_ops(k)`` is the op list of timed pass *k*; it depends only on
    the seed and *k*, so every pass of a run replays an identical
    schedule shape and two runs with one seed issue identical streams.
    """

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        order = np.random.default_rng([seed, 17]).permutation(n)
        weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
        self.dest_p = np.empty(n)
        self.dest_p[order] = weights / weights.sum()

    def pass_ops(self, k: int, reads: int) -> list[tuple]:
        """``[("point", source, dest) | ("dest", None, dest), ...]``."""
        rng = np.random.default_rng([self.seed, 29, k])
        dests = rng.choice(self.n, size=reads, p=self.dest_p)
        sources = rng.integers(0, self.n, size=reads)
        is_dest = rng.random(reads) < DEST_SHARE
        return [("dest", None, int(d)) if col else ("point", int(s), int(d))
                for s, d, col in zip(sources, dests, is_dest)]


class DeltaStream:
    """Seeded sparse edge deltas against an evolving graph.

    Each delta touches ``n // 8`` edges: 20% remove an existing edge, the
    rest set a uniformly drawn off-diagonal pair to a weight in
    ``[W_LO, W_HI]`` (mostly new edges on a sparse graph). The stream
    keeps its own copy of the graph, so delta ``k`` of stream ``s`` is a
    function of the seed, ``s`` and ``k`` alone.
    """

    def __init__(self, W: np.ndarray, seed: int, stream: int):
        self.W = W.copy()
        self.n = W.shape[0]
        self.key = [seed, 31, stream]
        self.count = 0

    def next(self) -> tuple[list, np.ndarray]:
        """``(edges, W_after)``: the wire edge list and the graph it
        produces (a fresh array the caller may keep)."""
        rng = np.random.default_rng([*self.key, self.count])
        self.count += 1
        n, W = self.n, self.W
        edges: dict[tuple[int, int], int | None] = {}
        for _ in range(max(1, n // 8)):
            if rng.random() < 0.2:
                live = np.argwhere(np.isfinite(W) & ~np.eye(n, dtype=bool))
                u, v = (int(x) for x in live[rng.integers(len(live))])
                W[u, v] = np.inf
                edges[(u, v)] = None
            else:
                u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
                w = int(rng.integers(W_LO, W_HI + 1))
                W[u, v] = w
                edges[(u, v)] = w
        return [[u, v, w] for (u, v), w in edges.items()], W.copy()
