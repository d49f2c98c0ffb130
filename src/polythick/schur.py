"""Chord comparison against circular arcs, and the tangent-sphere exclusion.

A polygonal arc whose angle-based curvature stays below K and whose length
obeys the admissibility bound has a strictly longer endpoint chord than the
circle of curvature K with the same arc length.  The corollary checked here:
an equilateral arc touching a sphere of curvature K tangentially at one
endpoint keeps every other vertex strictly outside the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polygon import PolyArc, _angles_from_dirs
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
    slice of them, and each arc's max_curv2, all computed as PolyArc
    computes them for the arc alone, so bitwise the same.  An error names
    the first failing arc, as case cases[b] when cases is given.
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
    # arc b owns n[b] - 1 interior vertices, at least one
    kc = np.maximum.reduceat(kappa, ends - n - np.arange(len(n)))
    over = kc > K + _PRE_TOL
    if over.any():
        i = int(np.argmax(over))
        raise ValueError(f"curvature bound violated{_at(cases, i)}: "
                         f"max_curv2 = {kc[i]:.17g} > K = {K[i]:.17g}")
    return lens, ends, kc


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
    distances: np.ndarray      # |p(a_k)| - 1/K for each non-initial vertex
    anchor_lhs: np.ndarray     # <p(a_k) - p(0), p(0)>
    anchor_rhs: np.ndarray     # <eta(a_k) - eta(0), eta(0)> on the circle

    @property
    def min_distance(self) -> float:
        return float(self.distances.min())


def _chord_check(V: np.ndarray, n: np.ndarray, K: np.ndarray, mode: str,
                 cases=None):
    """(L, circle chord, polygon chord) per arc of a stack laid out as for
    _check_curvature, after both preconditions of schur_check."""
    lens, ends, _ = _check_curvature(V, n, K, cases)
    starts = ends - n
    # numpy's pairwise sum blocks by length, so each arc sums its own edges
    L = np.array([lens[a:b].sum() for a, b in zip(starts.tolist(), ends.tolist())])
    budget = np.full_like(K, math.pi)
    if mode == "relaxed":
        budget += 0.5 * K * (lens[starts] + lens[ends - 1])
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


def _canonical_frame(arc: PolyArc, K: float) -> np.ndarray:
    """Vertices moved so the arc starts at -e2/K with first direction e1."""
    r = 1.0 / K
    v = arc.vertices - arc.vertices[0]
    d0 = arc.directions()[0]
    e1 = np.array([1.0, 0.0, 0.0])
    # minimal rotation taking d0 to e1
    c = float(d0 @ e1)
    axis = np.cross(d0, e1)
    s = float(np.linalg.norm(axis))
    if s < 1e-15:
        if c > 0.0:
            R = np.eye(3)
        else:
            R = np.diag([-1.0, 1.0, -1.0])  # d0 = -e1: half-turn about e2
    else:
        axis = axis / s
        Kx = np.array([[0.0, -axis[2], axis[1]],
                       [axis[2], 0.0, -axis[0]],
                       [-axis[1], axis[0], 0.0]])
        R = np.eye(3) + s * Kx + (1.0 - c) * (Kx @ Kx)
    return v @ R.T + np.array([0.0, -r, 0.0])


def sphere_exclusion_check(arc: PolyArc, K: float) -> SphereExclusionReport:
    """Signed vertex distances to the sphere the arc touches at its start.

    The arc is moved rigidly so its start point sits at -e2/K with initial
    direction e1; the sphere of radius 1/K is centered at the origin and
    tangent to the first edge there.  Requires an equilateral arc with
    max_curv2 <= K and K*L <= pi/2.  Also reports both sides of the anchor
    inequality <p(a_k)-p(0), p(0)> >= <eta(a_k)-eta(0), eta(0)> against the
    tangent great circle eta.
    """
    _check_curvature(arc.vertices[None], np.array([arc.m]),
                     np.array([K], dtype=float))
    lens = arc.edge_lengths
    ell = float(lens.mean())
    if np.any(np.abs(lens - ell) > 1e-9 * ell):
        raise ValueError("sphere exclusion needs an equilateral arc")
    L = arc.length
    if K * L > 0.5 * math.pi + _PRE_TOL:
        raise ValueError(
            f"length bound violated: K*L = {K * L:.17g} > pi/2"
        )
    r = 1.0 / K
    v = _canonical_frame(arc, K)
    p0 = v[0]
    others = v[1:]
    dists = np.linalg.norm(others, axis=1) - r
    a_k = np.cumsum(lens)  # arc length at each non-initial vertex
    lhs = (others - p0) @ p0
    rhs = -r * r * (1.0 - np.cos(K * a_k))
    return SphereExclusionReport(K=K, distances=dists,
                                 anchor_lhs=lhs, anchor_rhs=rhs)


# The arc walk steps every arc of a stack at once, one edge index per step,
# on (B, 3) direction rows.  _cross_rows keeps np.cross's operation order and
# _norms takes each norm from a BLAS dot, as np.linalg.norm of one vector
# does, so every row is bitwise the arc that a walk of it alone would draw.


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
                     a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
                     a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]], axis=1)


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / _norms(v)[:, None]


def _bounded_arcs(n: np.ndarray, K: np.ndarray, L: np.ndarray, uniforms) -> np.ndarray:
    """Vertices of the arcs random_bounded_arc draws from these numbers.

    Arc b turns by the 2(n[b] - 1) numbers uniforms[b], the first that
    random_bounded_arc(n[b], K[b], L[b], seed) draws from default_rng(seed)
    with one rng.random call; they are the same stream as alternating
    rng.uniform(0, K*ell) and rng.uniform(0, 2 pi) calls.  Arc b is
    V[b, :n[b] + 1] of the returned (B, max n + 1, 3) array.  The uniforms
    past arc b's are 0, so its padded steps turn by 0 and are dropped with
    the rows they make.
    """
    B, N = len(n), int(n.max())
    U = np.zeros((B, 2 * N - 2))
    for b, u in enumerate(uniforms):
        U[b, :len(u)] = u
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
    if n < 2:
        raise ValueError("need at least 2 edges")
    if not (0.0 <= K < math.inf and 0.0 < L < math.inf):
        raise ValueError(f"need finite K >= 0 and L > 0, got K = {K}, L = {L}")
    u = np.random.default_rng(seed).random(2 * n - 2)
    return PolyArc(_bounded_arcs(np.array([n]), np.array([K], dtype=float),
                                 np.array([L], dtype=float), [u])[0])
