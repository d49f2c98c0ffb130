"""Chord comparison against circular arcs, and the tangent-sphere exclusion.

A polygonal arc whose angle-based curvature stays below K and whose length
obeys the admissibility bound has a strictly longer endpoint chord than the
circle of curvature K with the same arc length.  The corollary checked here:
an equilateral arc touching a sphere of curvature K tangentially at one
endpoint keeps every other vertex strictly outside the sphere.

Both checks measure a stack of arcs at once, a campaign's chunk or a stack
of one; the sphere is centred at V_0 + w/K, w in closed form, so no arc is
rotated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polygon import PolyArc, _angles_from_dirs, _integral, _seed
# not called here; kept as a module attribute that perfbench/spans.py rebinds
from .polygon import max_curv2  # noqa: F401

__all__ = [
    "SchurCase",
    "SphereExclusionReport",
    "circle_chord",
    "schur_check",
    "sphere_exclusion_check",
    "random_bounded_arc",
]

_PRE_TOL = 1e-12


def circle_chord(K, L):
    """Endpoint chord of an arc of length L on the circle of curvature K.

    Elementwise when K and L are arrays.
    """
    if not np.all((0.0 < K) & (K < math.inf) & (0.0 < L) & (L < math.inf)):
        raise ValueError(f"need finite K > 0 and L > 0, got K = {K}, L = {L}")
    return (2.0 / K) * np.sin(0.5 * K * L)


def _at(cases, i: int) -> str:
    return "" if cases is None else f" at case {cases[i]}"


def _check_curvature(V: np.ndarray, n: np.ndarray, K: np.ndarray, cases=None):
    """The precondition both checks share, on a stack of arcs.

    Arc b has the vertices V[b, :n[b] + 1]; the rows past them are padding.
    Each arc needs a finite K[b] > 0 and max_curv2 <= K[b].  Returns the
    edge lengths of all arcs, flat and case-major, the end of each arc's
    slice of them, each arc's max_curv2 and each arc's length, all computed
    as PolyArc computes them for the arc alone, so bitwise the same.  An
    error names the first failing arc, as case cases[b] when cases is given.
    """
    bad = ~((0.0 < K) & (K < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"need finite K > 0{_at(cases, i)}, got K = {K[i]}")
    E = np.diff(V, axis=1)[np.arange(V.shape[1] - 1) < n[:, None]]
    lens = np.linalg.norm(E, axis=1)
    ends = np.cumsum(n)
    inner = np.ones(len(E), dtype=bool)
    inner[ends - 1] = False
    k = np.flatnonzero(inner)         # the edge into each interior vertex
    D = E / lens[:, None]
    kappa = (_angles_from_dirs(D[k], D[k + 1])
             / (0.5 * (lens[k] + lens[k + 1])))
    # arc b owns the n[b] - 1 interior vertices from ends[b] - n[b] - b on;
    # the -inf sentinel lets an arc with none end the stack, and such an
    # arc reads 0, as max_curv2 does, not its neighbour's first vertex
    kc = np.maximum.reduceat(np.append(kappa, -math.inf), ends - n - np.arange(len(n)))
    kc = np.where(n > 1, kc, 0.0)
    over = kc > K + _PRE_TOL
    if over.any():
        i = int(np.argmax(over))
        raise ValueError(f"curvature bound violated{_at(cases, i)}: "
                         f"max_curv2 = {kc[i]:.17g} > K = {K[i]:.17g}")
    # numpy's pairwise sum blocks by length, so each arc sums its own edges:
    # the arcs of m edges as the rows of one (arcs, m) gather
    starts, L = ends - n, np.empty(len(n))
    for m in set(n.tolist()):
        k = np.flatnonzero(n == m)
        L[k] = lens[starts[k, None] + np.arange(m)].sum(axis=1)
    return lens, ends, kc, L


@dataclass(frozen=True)
class SchurCase:
    arc: PolyArc
    K: float
    L: float
    mode: str
    circle_chord: float
    polygon_chord: float

    @property
    def margin(self) -> float:
        return self.polygon_chord - self.circle_chord


@dataclass(frozen=True)
class SphereExclusionReport:
    K: float
    # per non-initial vertex V_k, against the sphere centred at V_0 + w/K
    distances: np.ndarray      # |V_k - V_0 - w/K| - 1/K
    anchor_lhs: np.ndarray     # <V_k - V_0, -w/K>, that is <p(a_k) - p(0), p(0)>
    anchor_rhs: np.ndarray     # <eta(a_k) - eta(0), eta(0)> on the circle

    @property
    def min_distance(self) -> float:
        return float(self.distances.min())


def _chord_check(V: np.ndarray, n: np.ndarray, K: np.ndarray, mode: str,
                 cases=None):
    """(L, circle chord, polygon chord) per arc of a stack laid out as for
    _check_curvature, after both preconditions of schur_check."""
    lens, ends, _, L = _check_curvature(V, n, K, cases)
    budget = np.full_like(K, math.pi)
    if mode == "relaxed":
        budget += 0.5 * K * (lens[ends - n] + lens[ends - 1])
    over = K * L > budget + _PRE_TOL
    if over.any():
        i = int(np.argmax(over))
        raise ValueError(f"length bound violated{_at(cases, i)}: "
                         f"K*L = {K[i] * L[i]:.17g} > {budget[i]:.17g} ({mode})")
    poly = _norms(V[np.arange(len(n)), n] - V[:, 0])
    return L, circle_chord(K, L), poly


def schur_check(arc: PolyArc, K: float, mode: str = "strict") -> SchurCase:
    """Compare the arc's endpoint chord with the equal-length circle chord.

    strict mode requires K*L <= pi; relaxed mode extends the budget by half
    of K times the two end edge lengths.  Curvature admissibility always
    means max_curv2(arc) <= K.  Whenever the preconditions hold the margin
    is strictly positive; no tolerance is folded into the comparison itself.
    The arc is measured as a stack of one, as the campaigns measure theirs.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")
    L, circle, poly = _chord_check(arc.vertices[None], np.array([arc.m]),
                                   np.array([K], dtype=float), mode)
    return SchurCase(arc=arc, K=K, L=float(L[0]), mode=mode,
                     circle_chord=float(circle[0]), polygon_chord=float(poly[0]))


def _sphere_check(V: np.ndarray, n: np.ndarray, K: np.ndarray, cases=None):
    """(distances, anchor_lhs, anchor_rhs) of SphereExclusionReport for each
    arc of a stack laid out as for _check_curvature, after the preconditions
    of sphere_exclusion_check, as (B, max n) rows padded past each arc's end
    with +inf, 0 and 0."""
    lens, ends, _, L = _check_curvature(V, n, K, cases)
    ell = np.repeat(L / n, n)
    uneven = np.abs(lens - ell) > 1e-9 * ell
    if uneven.any():
        i = int(np.searchsorted(ends, np.argmax(uneven), side="right"))
        raise ValueError(f"sphere exclusion needs an equilateral arc{_at(cases, i)}")
    over = K * L > 0.5 * math.pi + _PRE_TOL
    if over.any():
        i = int(np.argmax(over))
        raise ValueError(f"length bound violated{_at(cases, i)}: "
                         f"K*L = {K[i] * L[i]:.17g} > pi/2")
    # w = R^T e2 for the minimal rotation R taking the first direction d to
    # e1, in closed form; R is the identity or a half-turn about e2 if d = ±e1
    dx, dy, dz = ((V[:, 1] - V[:, 0]) / lens[ends - n, None]).T
    s2 = dy * dy + dz * dz
    aligned = np.sqrt(s2) < 1e-15
    t = (1.0 - dx) / np.where(aligned, 1.0, s2)
    w = np.where(aligned[:, None], [0.0, 1.0, 0.0],
                 np.stack([-dy, 1.0 - t * dy * dy, -t * dy * dz], axis=1))
    r = (1.0 / K)[:, None]
    X = V[:, 1:] - V[:, :1]
    inside = np.arange(X.shape[1]) < n[:, None]
    dists = np.linalg.norm(X - (w / K[:, None])[:, None], axis=2) - r
    lhs = -np.einsum("bkj,bj->bk", X, w) / K[:, None]
    a_k = np.zeros(inside.shape)
    a_k[inside] = lens
    a_k = np.cumsum(a_k, axis=1)      # arc length at each non-initial vertex
    rhs = -r * r * (1.0 - np.cos(K[:, None] * a_k))
    return (np.where(inside, dists, math.inf), np.where(inside, lhs, 0.0),
            np.where(inside, rhs, 0.0))


def sphere_exclusion_check(arc: PolyArc, K: float) -> SphereExclusionReport:
    """Signed vertex distances to the sphere the arc touches at its start.

    The sphere of radius 1/K is tangent to the first edge at V_0 and
    centred at V_0 + w/K, where w = R^T e2 for the minimal rotation R taking
    the first direction to e1.  Requires an equilateral arc with max_curv2
    <= K and K*L <= pi/2.  Also reports both sides of the anchor inequality
    <p(a_k)-p(0), p(0)> >= <eta(a_k)-eta(0), eta(0)> against the tangent
    great circle eta, where p = R(V - V_0) - e2/K.  The arc is measured as
    a stack of one, as sphere_campaign measures its arcs.
    """
    dists, lhs, rhs = _sphere_check(arc.vertices[None], np.array([arc.m]),
                                    np.array([K], dtype=float))
    return SphereExclusionReport(K=K, distances=dists[0],
                                 anchor_lhs=lhs[0], anchor_rhs=rhs[0])


# The arc walk steps every arc of a stack at once, one edge index per step,
# on (B, 3) direction rows.  _cross_rows keeps np.cross's operation order and
# _norms takes each norm from a BLAS dot, as np.linalg.norm of one vector
# does, so every row is bitwise the arc that a walk of it alone would draw.


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c = np.empty_like(a)
    c[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    c[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    c[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return c


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / _norms(v)[:, None]


def _bounded_arcs(n: np.ndarray, K: np.ndarray, L: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Vertices of the arcs random_bounded_arc draws from these numbers.

    Arc b turns by the 2(n[b] - 1) numbers U[b, :2 n[b] - 2], the first that
    random_bounded_arc(n[b], K[b], L[b], seed) draws from default_rng(seed)
    with one rng.random call; they are the same stream as alternating
    rng.uniform(0, K*ell) and rng.uniform(0, 2 pi) calls.  U is
    (B, 2 max n - 2), zero past each arc's numbers, as a campaign's chunk
    draws it in one stack (experiments._campaign_draws) and as
    random_bounded_arc passes its one row; the padded steps turn by 0 and
    are dropped with the rows they make.  Arc b is V[b, :n[b] + 1] of the
    returned (B, max n + 1, 3) array.
    """
    B, N = len(n), int(n.max())
    ell = L / n
    theta = (K * ell)[:, None] * U[:, 0::2]
    psi = (2.0 * math.pi) * U[:, 1::2]
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(psi), np.sin(psi)
    rows = np.arange(B)
    D = np.zeros((B, N, 3))
    D[:, 0, 0] = 1.0
    for j in range(N - 1):
        d = D[:, j]
        # orthonormal pair normal to d
        helper = np.zeros((B, 3))
        helper[rows, np.argmin(np.abs(d), axis=1)] = 1.0
        n1 = _unit_rows(_cross_rows(d, helper))
        axis = cp[:, j, None] * n1 + sp[:, j, None] * _cross_rows(d, n1)
        # Rodrigues rotation of d about axis (axis is orthogonal to d)
        D[:, j + 1] = _unit_rows(ct[:, j, None] * d
                                 + st[:, j, None] * _cross_rows(axis, d))
    V = np.zeros((B, N + 1, 3))
    V[:, 1:] = ell[:, None, None] * D
    return np.cumsum(V, axis=1)


def random_bounded_arc(n: int, K: float, L: float, seed: int) -> PolyArc:
    """Equilateral n-edge arc with angle-based curvature at most K.

    Each step turns the current direction by an angle drawn uniformly from
    [0, K * L/n] about a uniformly random axis orthogonal to it, which
    saturates the curvature budget without favouring planar shapes.
    Deterministic for a fixed seed.  The arc is walked as a stack of one,
    by the walk that draws the campaigns' arcs.
    """
    if _integral("n", n) < 2:
        raise ValueError("need at least 2 edges")
    if not (0.0 <= K < math.inf and 0.0 < L < math.inf):
        raise ValueError(f"need finite K >= 0 and L > 0, got K = {K}, L = {L}")
    u = np.random.default_rng(_seed(seed)).random(2 * n - 2)
    return PolyArc(_bounded_arcs(np.array([n]), np.array([K], dtype=float),
                                 np.array([L], dtype=float), u[None])[0])
