"""Independent answer checks against scipy's exact shortest paths.

Nothing here imports the program: the reference is
``scipy.sparse.csgraph`` Dijkstra on the benchmark's own copy of the
graph, so a bug shared by the program's engines and its oracle still
shows. All checks run after the timed region.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


def reference_apsp(W: np.ndarray) -> np.ndarray:
    """``ref[i, j]`` = cost of a shortest ``i -> j`` path (``inf`` when
    unreachable) for the float matrix *W* (``inf`` = no edge)."""
    finite = np.isfinite(W)
    np.fill_diagonal(finite, False)
    rows, cols = np.nonzero(finite)
    graph = csr_matrix((W[rows, cols], (rows, cols)), shape=W.shape)
    return shortest_path(graph, method="D", directed=True)


def _hops_realise(W: np.ndarray, ref: np.ndarray, src: np.ndarray,
                  nxt: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per triple: ``src -> nxt`` is an edge and ``W[src, nxt] +
    ref[nxt, dst] == ref[src, dst]``."""
    ok = (nxt >= 0) & (nxt < W.shape[0]) & (nxt != src)
    nxt = np.where(ok, nxt, 0)
    w = W[src, nxt]
    return ok & np.isfinite(w) & (w + ref[nxt, dst] == ref[src, dst])


def check_apsp(W: np.ndarray, dist: np.ndarray, succ: np.ndarray,
               maxint: int, ref: np.ndarray | None = None) -> list[str]:
    """Problems with an all-pairs answer (empty list = correct).

    ``dist`` must equal the exact distances (``maxint`` where
    unreachable) and every ``succ`` hop must realise its distance."""
    if ref is None:
        ref = reference_apsp(W)
    problems = []
    want = np.where(np.isfinite(ref), ref, maxint).astype(np.int64)
    bad = np.argwhere(dist != want)
    if bad.size:
        i, j = bad[0]
        problems.append(f"{len(bad)} wrong distances, e.g. dist[{i},{j}]="
                        f"{dist[i, j]} want {want[i, j]}")
    src, dst = np.nonzero(np.isfinite(ref) & ~np.eye(len(W), dtype=bool))
    hops = _hops_realise(W, ref, src, succ[src, dst].astype(np.int64), dst)
    if not hops.all():
        k = int(np.flatnonzero(~hops)[0])
        problems.append(f"{int((~hops).sum())} successor hops do not "
                        f"realise their distance, e.g. succ[{src[k]},"
                        f"{dst[k]}]={succ[src[k], dst[k]]}")
    return problems


def check_read(W: np.ndarray, ref: np.ndarray, op: str, source, dest: int,
               result: dict) -> str | None:
    """Why one ``point``/``dest`` answer is wrong, or ``None``.

    *W* and *ref* belong to the graph version the answer claims."""
    n = W.shape[0]
    maxint = int(result.get("maxint", 0)) if op == "dest" else None
    if op == "dest":
        sow = np.asarray(result.get("sow", ()), dtype=np.int64)
        ptn = np.asarray(result.get("ptn", ()), dtype=np.int64)
        if sow.shape != (n,) or ptn.shape != (n,):
            return "dest answer has the wrong length"
        col = ref[:, dest]
        want = np.where(np.isfinite(col), col, maxint)
        if not np.array_equal(sow, want):
            return f"dest {dest}: sow differs from the reference"
        src = np.flatnonzero(np.isfinite(col) & (np.arange(n) != dest))
        dst = np.full(src.shape, dest)
        if not _hops_realise(W, ref, src, ptn[src], dst).all():
            return f"dest {dest}: a ptn hop does not realise its distance"
        return None
    want = ref[source, dest]
    if not np.isfinite(want):
        return None if result.get("reachable") is False else \
            f"point {source}->{dest}: reported reachable, it is not"
    if result.get("reachable") is not True or result.get("cost") != want:
        return (f"point {source}->{dest}: cost {result.get('cost')} "
                f"want {want:g}")
    path = result.get("path")
    if source == dest:
        return None if path in (None, [source]) else \
            f"point {source}->{dest}: bad trivial path {path}"
    if not isinstance(path, list) or len(path) < 2 or path[0] != source \
            or path[-1] != dest or path[1] != result.get("next"):
        return f"point {source}->{dest}: malformed path {path}"
    hops = np.asarray(path, dtype=np.int64)
    if ((hops < 0) | (hops >= n)).any():
        return f"point {source}->{dest}: path leaves the graph"
    cost = W[hops[:-1], hops[1:]].sum()
    if cost != want:
        return f"point {source}->{dest}: path costs {cost:g} want {want:g}"
    return None
