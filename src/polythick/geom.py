"""Low-level Euclidean primitives shared by the polygon and curve modules.

Everything here works on plain numpy arrays of shape (3,) (or broadcastable
stacks where noted) and returns floats.  No module in this package defines a
vector class; a point is an ndarray and callers are expected to pass float64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "circumradius",
    "exterior_angle",
    "sphere_distance",
    "segment_min_distance",
]

# Relative area cutoff below which three points count as collinear.  The area
# is compared against this times the square of the largest pairwise distance,
# so the test is scale invariant.
COLLINEAR_AREA_EPS = 1e-14

# Unit-vector tolerance for sphere_distance inputs.
_UNIT_NORM_TOL = 1e-9


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


def circumradius(x, y, z) -> float:
    """Radius of the circle through three points, +inf when collinear.

    Uses R = |x-y| |y-z| |z-x| / (4 A) with A the triangle area from a cross
    product.  Points whose area is below COLLINEAR_AREA_EPS relative to the
    squared diameter of the triple are treated as collinear and give +inf,
    which downstream code reads as "locally straight".
    """
    x, y, z = _as_vec3(x), _as_vec3(y), _as_vec3(z)
    a = x - y
    b = z - y
    c = x - z
    la, lb, lc = np.linalg.norm(a), np.linalg.norm(b), np.linalg.norm(c)
    scale = max(la, lb, lc)
    if scale == 0.0:
        return float("inf")  # all three coincident: no bend, treat as straight
    area2 = np.linalg.norm(np.cross(a, b))  # = 2 * triangle area
    if area2 <= 2.0 * COLLINEAR_AREA_EPS * scale * scale:
        return float("inf")
    return float(la * lb * lc / (2.0 * area2))


def exterior_angle(x, y, z) -> float:
    """Turning angle at y of the path x -> y -> z, in [0, pi].

    Computed as atan2(|u x v|, u.v) for the incoming and outgoing edge
    vectors, which stays accurate for nearly straight and nearly reversed
    configurations where acos of a clamped dot product loses digits.
    A zero-length edge (x == y or z == y) is an error.
    """
    x, y, z = _as_vec3(x), _as_vec3(y), _as_vec3(z)
    u = y - x
    v = z - y
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("exterior_angle needs distinct neighbours at the vertex")
    return float(np.arctan2(np.linalg.norm(np.cross(u, v)), float(np.dot(u, v))))


def sphere_distance(u, v) -> float:
    """Great-circle distance between two unit vectors, in [0, pi].

    Uses atan2(|u x v|, u.v).  Inputs farther than 1e-9 from unit length are
    rejected rather than silently normalised.
    """
    u, v = _as_vec3(u), _as_vec3(v)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if abs(nu - 1.0) > _UNIT_NORM_TOL or abs(nv - 1.0) > _UNIT_NORM_TOL:
        raise ValueError("sphere_distance expects unit vectors")
    return float(np.arctan2(np.linalg.norm(np.cross(u, v)), float(np.dot(u, v))))


def segment_min_distance(a0, a1, b0, b1) -> tuple[float, float, float]:
    """Minimum distance between segments [a0,a1] and [b0,b1].

    Returns (distance, s, t) where the closest points are a0 + s*(a1-a0) and
    b0 + t*(b1-b0) with s, t in [0, 1].  Exact for every configuration,
    including parallel and degenerate (zero-length) segments: the squared
    distance is a convex quadratic on the unit square, so its minimum is
    either the unconstrained stationary point or lies on one of the four
    boundary edges, each of which reduces to a clamped 1-d projection.
    """
    a0, a1, b0, b1 = _as_vec3(a0), _as_vec3(a1), _as_vec3(b0), _as_vec3(b1)
    u = a1 - a0
    v = b1 - b0
    w = a0 - b0
    a = float(np.dot(u, u))
    b = float(np.dot(u, v))
    c = float(np.dot(v, v))
    d = float(np.dot(u, w))
    e = float(np.dot(v, w))

    def _closest_t(s: float) -> float:
        # foot of a0 + s*u on the b line, clamped
        if c <= 0.0:
            return 0.0
        return min(1.0, max(0.0, (b * s + e) / c))

    def _closest_s(t: float) -> float:
        if a <= 0.0:
            return 0.0
        return min(1.0, max(0.0, (b * t - d) / a))

    candidates: list[tuple[float, float]] = []
    # the interior foot on [a0,a1] from cross products, which lose eps/sin of
    # the angle between the segments where the normal equations lose eps/sin^2,
    # and its foot on [b0,b1]: segments that cross at any angle read 0
    n = np.cross(u, v)
    n2 = float(np.dot(n, n))
    if n2 > 0.0:
        s_int = min(1.0, max(0.0, -float(np.dot(np.cross(w, v), n)) / n2))
        candidates.append((s_int, _closest_t(s_int)))
    # boundary edges of the (s, t) square
    for s_fix in (0.0, 1.0):
        candidates.append((s_fix, _closest_t(s_fix)))
    for t_fix in (0.0, 1.0):
        candidates.append((_closest_s(t_fix), t_fix))

    best = None
    for s, t in candidates:
        diff = w + s * u - t * v
        dist2 = float(np.dot(diff, diff))
        if best is None or dist2 < best[0]:
            best = (dist2, s, t)
    dist2, s, t = best
    return float(np.sqrt(max(dist2, 0.0))), float(s), float(t)
