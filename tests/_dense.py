"""Dense edge-gap reference for the tests.

The library measures the edge gap only on gathered pairs
(thickness._gathered_gap): the pairs a midpoint tree finds for is_simple
and the objective, the pairs a crankshaft move can bring closer for the
sweep check.  _edge_gap measures every pair of every frame instead.
"""

from __future__ import annotations

import numpy as np

from polythick.thickness import _BLOCK, _dot, _gap2, _pair_ok, _quadratic


def _edge_gap(V: np.ndarray):
    """Minimum distance between non-adjacent edges of the closed polyline V
    over all n^2 pairs, a row block against every column at a time.

    V is (n, 3), or a stack (..., n, 3) of polylines sharing n, in which
    case the result has the stack's shape.  +inf when no such pair exists.
    It forms its own products, b as a row-block matmul, and shares _gap2
    with the library, so it checks which pairs the library gathers, not
    _gap2 itself; _brute_edge_gap in test_thickness.py, which takes
    geom.segment_min_distance over every pair, is the independent check.
    """
    n = V.shape[-2]
    E = np.roll(V, -1, axis=-2) - V
    lens2 = _dot(E, E)
    idx = np.arange(n)
    best2 = np.full(V.shape[:-2], np.inf)
    for r0 in range(0, n, _BLOCK):
        rows = slice(r0, r0 + _BLOCK)
        Ei, Ej = E[..., rows, None, :], E[..., None, :, :]
        w0, w2, c1, c2 = _quadratic(V[..., rows, None, :], V[..., None, :, :], Ei, Ej)
        # matmul rounds differently when its operands share a start address
        b = np.matmul(E[..., rows, :].copy(), np.swapaxes(E, -1, -2))
        d2 = _gap2(np.broadcast_to(Ei, w0.shape), np.broadcast_to(Ej, w0.shape),
                   lens2[..., rows, None], lens2[..., None, :],
                   _pair_ok(idx[rows, None], idx[None, :], n), w0, b, w2, c1, c2)
        best2 = np.minimum(best2, d2.min(axis=(-2, -1)))
    return np.sqrt(np.maximum(best2, 0.0))
