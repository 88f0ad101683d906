"""Shows that the independent check counts wrong and stale answers.

``python3 perfbench/check_selftest.py`` builds correct answers from the
scipy reference, corrupts them one way at a time, and exits non-zero
unless every corruption is counted as failed and every correct answer
passes. It needs only numpy and scipy, not the program.
"""

from __future__ import annotations

import sys

import numpy as np

from check import check_apsp, check_read, reference_apsp
from inputs import DeltaStream, gnp_weights
from run import ServeRun

MAXINT = 2 ** 16 - 1


def exact_answers(W: np.ndarray):
    """Correct ``(dist, succ)`` derived from the reference alone."""
    ref = reference_apsp(W)
    n = len(W)
    dist = np.where(np.isfinite(ref), ref, MAXINT).astype(np.int64)
    succ = np.tile(np.arange(n), (n, 1))
    for i in range(n):
        for j in range(n):
            if i != j and np.isfinite(ref[i, j]):
                via = W[i] + ref[:, j]
                via[i] = np.inf
                succ[i, j] = int(np.argmin(via))
    return ref, dist, succ


def point(dist, succ, s, d, version):
    path = [s]
    while path[-1] != d:
        path.append(int(succ[path[-1], d]))
    return {"version": version, "reachable": True, "cost": int(dist[s, d]),
            "next": path[1] if len(path) > 1 else None, "path": path}


def main() -> int:
    failures = []

    def expect(label: str, problems, want_wrong: bool) -> None:
        if bool(problems) != want_wrong:
            failures.append(f"{label}: got {problems!r}")

    W = gnp_weights(24, 4, 7)
    ref, dist, succ = exact_answers(W)
    expect("apsp correct", check_apsp(W, dist, succ, MAXINT), False)
    bad = dist.copy()
    bad[0, 5] += 1
    expect("apsp wrong distance", check_apsp(W, bad, succ, MAXINT), True)
    i, j = np.argwhere(np.isfinite(ref) & (ref > 0))[3]
    bad = succ.copy()
    bad[i, j] = (succ[i, j] + 1) % len(W)
    expect("apsp wrong successor", check_apsp(W, dist, bad, MAXINT), True)

    s, d = int(i), int(j)
    good = point(dist, succ, s, d, 1)
    expect("point correct", check_read(W, ref, "point", s, d, good), False)
    expect("point wrong cost", check_read(
        W, ref, "point", s, d, {**good, "cost": good["cost"] - 1}), True)
    expect("point wrong path", check_read(
        W, ref, "point", s, d, {**good, "path": [s, d]}), True)
    col = {"version": 1, "maxint": MAXINT, "sow": dist[:, d].tolist(),
           "ptn": succ[:, d].tolist()}
    expect("dest correct", check_read(W, ref, "dest", None, d, col), False)
    expect("dest wrong sow", check_read(W, ref, "dest", None, d, {
        **col, "sow": [v + 1 for v in col["sow"]]}), True)

    # ServeRun.check(): a stale version and a wrong version both count.
    run = ServeRun("serve-update", 7, False)
    _, W2 = DeltaStream(W, 7, 0).next()
    ref2, dist2, succ2 = exact_answers(W2)
    # Pass 0 ran on a service with versions 1 and 2, pass 1 on a fresh
    # service that only has version 1.
    run.versions = {(1, 1): W, (1, 2): W2, (2, 1): W}
    run.passes = [{"epoch": 1}, {"epoch": 2}]
    moved = next((a, b) for a, b in np.argwhere(ref2 != ref)
                 if np.isfinite(ref[a, b]) and np.isfinite(ref2[a, b]))
    a, b = int(moved[0]), int(moved[1])
    run.reads = [
        (0, "point", a, b, 2, 0.0, "ok",
         point(dist2, succ2, a, b, 2)),
        (0, "point", a, b, 2, 0.0, "ok",
         point(dist, succ, a, b, 1)),  # stale: version 2 was acked
        (0, "point", a, b, 1, 0.0, "ok",
         {**point(dist, succ, a, b, 1), "version": 2}),  # wrong
        (0, "point", a, b, 1, 0.0, "error", {}),
        (1, "point", a, b, 1, 0.0, "ok",
         point(dist2, succ2, a, b, 2)),  # a version of the old service
    ]
    verdicts = run.check()
    if verdicts != [True, False, False, False, False]:
        failures.append(f"serve verdicts {verdicts}")

    for f in failures:
        print(f"check self-test FAILED: {f}")
    print("check self-test:", "ok" if not failures else "FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
