"""Fixed calibration work that measures how fast the host is right now.

On a shared virtual host the CPU time of identical work drifts by up to
±20% over minutes as the neighbours' load changes. The program host runs
:func:`calibrate` next to its timed operations, and each gated time is
scaled by ``REF_S / median(calibration CPU of the run)``: it is reported
at the reference host's speed. The calibration is the benchmark's own
code and never calls the program, so a change to the program cannot
move it.
"""

from __future__ import annotations

import time

import numpy as np

#: median CPU seconds of one :func:`calibrate` on the reference host
#: (2-vCPU "Intel(R) Xeon(R) Processor", python 3.11.7, numpy 2.4.6).
REF_S = 0.15

_rng = np.random.default_rng(0)
_TILE_W = _rng.integers(1, 10, (256, 256))
_TILE_S = _rng.integers(0, 100, (256, 256))


def calibrate() -> float:
    """CPU seconds of one fixed unit of work: a blocked min-plus sweep in
    numpy with the tile shapes of the engine's kernel on apsp-offline.
    Its 8 MB temporaries make it feel the contention for the shared
    caches and memory that slows every workload on this host."""
    c0 = time.process_time()
    for i0 in range(0, 256, 16):
        cand = np.minimum(_TILE_S[:, None, :] + _TILE_W[i0:i0 + 16], 1000)
        cand.min(axis=-1)
        cand.argmin(axis=-1)
    return time.process_time() - c0
