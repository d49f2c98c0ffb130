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

from .polygon import PolyArc, max_curv2

__all__ = [
    "SchurCase",
    "SphereExclusionReport",
    "circle_chord",
    "schur_check",
    "sphere_exclusion_check",
    "random_bounded_arc",
]

_PRE_TOL = 1e-12


def circle_chord(K: float, L: float) -> float:
    """Endpoint chord of an arc of length L on the circle of curvature K."""
    if not (0.0 < K < math.inf and 0.0 < L < math.inf):
        raise ValueError(f"need finite K > 0 and L > 0, got K = {K}, L = {L}")
    return (2.0 / K) * math.sin(0.5 * K * L)


def _check_curvature(arc: PolyArc, K: float) -> None:
    """The precondition both checks share: finite K > 0 and max_curv2(arc) <= K."""
    if not 0.0 < K < math.inf:
        raise ValueError(f"need finite K > 0, got K = {K}")
    kc = max_curv2(arc)
    if kc > K + _PRE_TOL:
        raise ValueError(
            f"curvature bound violated: max_curv2 = {kc:.17g} > K = {K:.17g}"
        )


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


def schur_check(arc: PolyArc, K: float, mode: str = "strict") -> SchurCase:
    """Compare the arc's endpoint chord with the equal-length circle chord.

    strict mode requires K*L <= pi; relaxed mode extends the budget by half
    of K times the two end edge lengths.  Curvature admissibility always
    means max_curv2(arc) <= K.  Whenever the preconditions hold the margin
    is strictly positive; no tolerance is folded into the comparison itself.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")
    _check_curvature(arc, K)
    L = arc.length
    lens = arc.edge_lengths
    budget = math.pi if mode == "strict" else math.pi + 0.5 * K * (lens[0] + lens[-1])
    if K * L > budget + _PRE_TOL:
        raise ValueError(
            f"length bound violated: K*L = {K * L:.17g} > {budget:.17g} ({mode})"
        )
    poly_chord = float(np.linalg.norm(arc.vertices[-1] - arc.vertices[0]))
    return SchurCase(arc=arc, K=K, L=L, mode=mode,
                     circle_chord=circle_chord(K, L), polygon_chord=poly_chord)


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
    _check_curvature(arc, K)
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


# The arc walk runs on 3-tuples of floats: numpy's per-call overhead on
# 3-vectors was most of a campaign case.  _cross keeps np.cross's operation
# order and _unit np.linalg.norm's dot product, so the arcs are bitwise the
# same as with the numpy calls.

def _cross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _unit(v) -> tuple[float, float, float]:
    a = np.array(v)
    r = math.sqrt(a.dot(a))
    return (v[0] / r, v[1] / r, v[2] / r)


def random_bounded_arc(n: int, K: float, L: float, seed: int) -> PolyArc:
    """Equilateral n-edge arc with angle-based curvature at most K.

    Each step turns the current direction by an angle drawn uniformly from
    [0, K * L/n] about a uniformly random axis orthogonal to it, which
    saturates the curvature budget without favouring planar shapes.
    Deterministic for a fixed seed.
    """
    if n < 2:
        raise ValueError("need at least 2 edges")
    if not (0.0 <= K < math.inf and 0.0 < L < math.inf):
        raise ValueError(f"need finite K >= 0 and L > 0, got K = {K}, L = {L}")
    rng = np.random.default_rng(seed)
    ell = L / n
    d = (1.0, 0.0, 0.0)
    pts = np.zeros((n + 1, 3))
    for k in range(1, n + 1):
        pts[k] = [x + ell * dx for x, dx in zip(pts[k - 1].tolist(), d)]
        if k == n:
            break
        theta = rng.uniform(0.0, K * ell)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        # orthonormal pair normal to d
        mags = [abs(x) for x in d]
        helper = [0.0, 0.0, 0.0]
        helper[mags.index(min(mags))] = 1.0
        n1 = _unit(_cross(d, helper))
        n2 = _cross(d, n1)
        c, s = math.cos(psi), math.sin(psi)
        axis = [c * a + s * b for a, b in zip(n1, n2)]
        # Rodrigues rotation of d about axis (axis is orthogonal to d)
        c, s = math.cos(theta), math.sin(theta)
        d = _unit([c * a + s * b for a, b in zip(d, _cross(axis, d))])
    return PolyArc(pts)
