"""Host-speed probe: a fixed piece of work timed between ops.

On a shared host the speed of one core drifts by 20% or more over minutes,
as other tenants come and go, and a run of 20 seconds sees one such spell.
The probe runs the same work every time, with the same mix as the program:
numpy calls on an 8x3 array (per-call overhead, as in anneal and schur),
an interpreter loop (as in chord marching and the per-edge arc loop) and
arithmetic on a 384x384 pair table (as in the pair scans).  Its time over
REF_S is how much slower the host runs now than the host it was sized on,
and run.py divides every op and set-up time by that factor, so the
end-to-end times are given in seconds of the reference host.

The probe allocates nothing larger than a few hundred bytes, so what the
program leaves in the allocator or the garbage collector does not change
its time.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's time on the reference host, in seconds: roughly its time on
# the 2-vCPU Xeon guest it was sized on; only the ratio between runs matters
REF_S = 0.1

_SMALL = np.linspace(0.0, 1.0, 24).reshape(8, 3)
_POINTS = np.random.default_rng(0).normal(size=(384, 3))
_DIFF = np.empty((384, 384, 3))
_DIST = np.empty((384, 384))


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    a = _SMALL
    for _ in range(640):
        d = np.roll(a, -1, axis=0) - a
        n = np.linalg.norm(d, axis=1)
        c = np.cross(d, np.roll(d, -1, axis=0))
        float(n.min()) + float(np.einsum("ij,ij->i", c, d).sum())
    total, table = 0, {}
    for i in range(160_000):
        total += (i * 7) % 13
        table[i & 255] = total
    for _ in range(10):
        np.subtract(_POINTS[:, None, :], _POINTS[None, :, :], out=_DIFF)
        np.einsum("ijk,ijk->ij", _DIFF, _DIFF, out=_DIST)
        np.sqrt(_DIST, out=_DIST)
        float(_DIST.min(axis=1).sum())
    return time.perf_counter() - t0


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference host the host ran between two
    probes (above 1 when slower)."""
    return (before + after) / 2.0 / REF_S
