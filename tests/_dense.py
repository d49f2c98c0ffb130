"""Dense edge-gap reference for the tests.

The library measures the edge gap only on gathered pairs
(thickness._gathered_gap): the pairs whose edge midpoints lie within reach
of a clearance, gathered by thickness._near_pairs from one frame for
is_simple and the objective and from every frame of a crankshaft sweep
for the sweep check.  _edge_gap and _pair_gaps measure every pair of
every frame instead.
"""

from __future__ import annotations

import numpy as np

from polythick.thickness import _BLOCK, _dot, _gap2, _pair_ok, _quadratic


def _gap_blocks(V: np.ndarray):
    """Squared gaps of each row block of the closed polyline V against
    every column, +inf for the pairs that are not i < j non-adjacent ones;
    V is (n, 3), or a stack (..., n, 3) of polylines sharing n.

    It forms its own products, b as a row-block matmul, and shares _gap2
    with the library, so it checks which pairs the library gathers, not
    _gap2 itself; _brute_edge_gap in test_thickness.py, which takes
    geom.segment_min_distance over every pair, is the independent check.
    """
    n = V.shape[-2]
    E = np.roll(V, -1, axis=-2) - V
    lens2 = _dot(E, E)
    idx = np.arange(n)
    for r0 in range(0, n, _BLOCK):
        rows = slice(r0, r0 + _BLOCK)
        Ei, Ej = E[..., rows, None, :], E[..., None, :, :]
        w0, w2, c1, c2 = _quadratic(V[..., rows, None, :], V[..., None, :, :], Ei, Ej)
        # matmul rounds differently when its operands share a start address
        b = np.matmul(E[..., rows, :].copy(), np.swapaxes(E, -1, -2))
        yield _gap2(np.broadcast_to(Ei, w0.shape), np.broadcast_to(Ej, w0.shape),
                    lens2[..., rows, None], lens2[..., None, :],
                    _pair_ok(idx[rows, None], idx[None, :], n), w0, b, w2, c1, c2)


def _edge_gap(V: np.ndarray):
    """Minimum distance between non-adjacent edges of the closed polyline V
    over all n^2 pairs, a row block against every column at a time.

    V is (n, 3), or a stack (..., n, 3) of polylines sharing n, in which
    case the result has the stack's shape.  +inf when no such pair exists.
    """
    best2 = np.full(V.shape[:-2], np.inf)
    for d2 in _gap_blocks(V):
        best2 = np.minimum(best2, d2.min(axis=(-2, -1)))
    return np.sqrt(np.maximum(best2, 0.0))


def _pair_gaps(V: np.ndarray):
    """(..., n, n) distances between edges i and j of each polyline of V,
    for the non-adjacent pairs i < j, +inf for the others."""
    return np.sqrt(np.maximum(np.concatenate(list(_gap_blocks(V)), axis=-2), 0.0))
