"""Dense references for the tests: the edge gap and the annealing chain.

The library measures the edge gap only on gathered pairs
(thickness._gathered_gap): the pairs whose edge midpoints lie within reach
of a clearance, gathered by thickness._near_pairs from one frame for
is_simple and the objective and from every frame of a crankshaft sweep
for the sweep check.  _edge_gap and _pair_gaps measure every pair of
every frame instead.

The annealer scores a candidate's curvature first and skips the pair scan
when the Metropolis draw already rejects it.  _anneal_fully_scored is the
loop that scores every candidate in full before its Metropolis test.
"""

from __future__ import annotations

import math

import numpy as np

from polythick.anneal import (_CLEARANCE_FACTOR, _THETA_MAX, AnnealConfig, AnnealTrace,
                              crankshaft_move, move_is_admissible)
from polythick.polygon import Polygon
from polythick.thickness import (_BLOCK, _dot, _gap2, _pair_ok, _quadratic,
                                 inv_delta_objective)


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


def _anneal_fully_scored(p0: Polygon, cfg: AnnealConfig):
    """anneal(p0, cfg) with every candidate's objective computed before its
    Metropolis test: the same proposals, draws, checks and trace."""
    n, L = p0.n, p0.length
    clearance = _CLEARANCE_FACTOR * L
    f0 = inv_delta_objective(p0, clearance)
    if not math.isfinite(f0):
        raise ValueError("start polygon must be simple with positive thickness")
    lower_bound = 2.0 * n * math.tan(math.pi / n) / L - 1e-9
    angle_floor = 2.0 * math.pi / n - 1e-12
    rng = np.random.default_rng(cfg.seed)
    current = best = Polygon(p0.vertices)
    f = f_best = f0
    T = 0.5 * f0 if cfg.t0 is None else cfg.t0
    rows, step = [], 0
    while T >= cfg.t_min:
        for _ in range(cfg.steps_per_temp):
            i = int(rng.integers(n))
            gap = int(rng.integers(2, n - 1)) if n > 3 else 2
            j = (i + gap) % n
            theta = float(rng.uniform(-_THETA_MAX, _THETA_MAX))
            accepted = 0
            try:
                cand = crankshaft_move(current, i, j, theta)
            except ValueError:
                cand = None
            if cand is not None:
                f_cand = inv_delta_objective(cand, clearance)
                if math.isfinite(f_cand):
                    if f_cand < lower_bound:
                        raise RuntimeError(f"objective {f_cand:.17g} under the n-gon bound")
                    if float(cand.exterior_angles().max()) < angle_floor:
                        raise RuntimeError("no exterior angle reaches 2*pi/n")
                    if f_cand <= f or rng.random() < math.exp(-(f_cand - f) / T):
                        if move_is_admissible(current, i, j, theta, clearance=clearance):
                            current, f, accepted = cand, f_cand, 1
                            if f < f_best:
                                f_best, best = f, cand
            rows.append((step, T, f, accepted, i, j, theta, f_best))
            step += 1
        T *= cfg.cooling
    col = np.array(rows, dtype=float).reshape(-1, 8).T
    return best, AnnealTrace(
        step=col[0].astype(int), temperature=col[1], objective=col[2],
        accepted=col[3].astype(int), i=col[4].astype(int), j=col[5].astype(int),
        theta=col[6], best_objective=col[7], best_vertices=best.vertices.copy())
