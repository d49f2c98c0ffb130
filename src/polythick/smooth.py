"""Smooth closed curves and their polygonal approximations.

A curve enters as a dense table of raw parametric samples, is
reparametrized by arc length and rescaled to total length 1, and from then
on lives as an ArcLengthCurve: a uniform table of positions and unit
tangents with cubic position interpolation between samples.  On top of
that sit the equilateral inscription (chord marching plus a closure root
solve), the unit-length rescale, a thickness estimate, and the W^{1,inf}
distance between a polygon and a curve.

Three-point circumradii of consecutive samples come from one helper, used
both for the sagitta correction of the arc-length quadrature and for the
radius part of the thickness estimate.  Curve tables are stored in the
polygon text format of polygon.py, one 'x y z' row per sample.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .polygon import Polygon, _format_rows, _parse_rows
from .thickness import dcsd as _polygon_dcsd

__all__ = [
    "ArcLengthCurve",
    "arc_length_reparam",
    "circle_samples",
    "torus_knot_samples",
    "preset_curve",
    "inscribe_equilateral",
    "rescale_unit",
    "smooth_thickness_proxy",
    "w1inf_distance",
    "write_curve",
    "read_curve",
]

# Raw polyline closure heuristic: the wrap-around chord may not exceed this
# multiple of the median sample spacing, else the input is not a closed loop.
_CLOSURE_FACTOR = 10.0

_TANGENT_NORM_TOL = 1e-8


class ArcLengthCurve:
    """Closed unit-length curve sampled uniformly in arc length.

    positions[k] = gamma(k/m) and tangents[k] = gamma'(k/m) with |tangent|=1.
    Between samples, positions interpolate with a periodic cubic spline and
    tangents linearly (renormalized), so evaluation error decays like m^-4
    for positions and m^-2 for tangent directions.
    """

    def __init__(self, positions: np.ndarray, tangents: np.ndarray):
        P = np.asarray(positions, dtype=float)
        T = np.asarray(tangents, dtype=float)
        if P.ndim != 2 or P.shape[1] != 3 or P.shape[0] < 8:
            raise ValueError("need an (m, 3) position table with m >= 8")
        if T.shape != P.shape:
            raise ValueError("tangent table must match position table shape")
        norms = np.linalg.norm(T, axis=1)
        if np.any(np.abs(norms - 1.0) > _TANGENT_NORM_TOL):
            raise ValueError("tangents must be unit length within 1e-8")
        gaps = np.linalg.norm(np.roll(P, -1, axis=0) - P, axis=1)
        if gaps[-1] > _CLOSURE_FACTOR * np.median(gaps[:-1]):
            raise ValueError("position table does not wrap around cyclically")
        m = P.shape[0]
        self._m = m
        self._P = P
        self._P.setflags(write=False)
        self._T = T
        self._T.setflags(write=False)
        knots = np.arange(m + 1) / m
        spline = CubicSpline(knots, np.vstack([P, P[:1]]),
                             bc_type="periodic", axis=0)
        self._spline = spline
        # raw coefficient view for the scalar fast path used by marching
        self._coef = spline.c  # (4, m, 3)

    @property
    def m(self) -> int:
        return self._m

    @property
    def positions(self) -> np.ndarray:
        return self._P

    @property
    def tangents(self) -> np.ndarray:
        return self._T

    @property
    def length(self) -> float:
        return 1.0

    def position(self, t) -> np.ndarray:
        """gamma(t), t taken mod 1; accepts scalars or arrays."""
        return self._spline(np.mod(t, 1.0))

    def position_scalar(self, t: float) -> np.ndarray:
        """Scalar gamma(t) via direct Horner evaluation (marching hot path)."""
        u = t - math.floor(t)
        k = int(u * self._m)
        if k >= self._m:
            k = self._m - 1
        dt = u - k / self._m
        c = self._coef
        return ((c[0, k] * dt + c[1, k]) * dt + c[2, k]) * dt + c[3, k]

    def tangent(self, t) -> np.ndarray:
        """Unit tangent at t: linear interpolation of the table, renormalized."""
        u = np.mod(np.asarray(t, dtype=float), 1.0) * self._m
        k = np.minimum(u.astype(int), self._m - 1)
        frac = (u - k)[..., None]
        T = (1.0 - frac) * self._T[k] + frac * self._T[(k + 1) % self._m]
        return T / np.linalg.norm(T, axis=-1, keepdims=True)

    def tangent_scalar(self, t: float) -> np.ndarray:
        u = (t - math.floor(t)) * self._m
        k = int(u)
        if k >= self._m:
            k = self._m - 1
        frac = u - k
        T = (1.0 - frac) * self._T[k] + frac * self._T[(k + 1) % self._m]
        return T / np.linalg.norm(T)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ArcLengthCurve(m={self._m})"


def _unit_tangents(table: np.ndarray) -> np.ndarray:
    """Unit tangents of a closed table sampled uniformly in arc length:
    five-point centered differences, normalized."""
    m = table.shape[0]
    if m < 8:
        raise ValueError(f"need at least 8 curve samples, got {m}")
    h = 1.0 / m
    T = (-np.roll(table, -2, axis=0) + 8.0 * np.roll(table, -1, axis=0)
         - 8.0 * np.roll(table, 1, axis=0) + np.roll(table, 2, axis=0)) / (12.0 * h)
    T /= np.linalg.norm(T, axis=1, keepdims=True)
    return T


def _triple_terms(P: np.ndarray):
    """Circumradius terms of each closed triple (P[k-1], P[k], P[k+1]):
    twice its area and the product of its three side lengths, whose ratio
    sides / (2 * area2) is the circumradius."""
    prv = np.roll(P, 1, axis=0)
    nxt = np.roll(P, -1, axis=0)
    a = prv - P
    b = nxt - P
    area2 = np.linalg.norm(np.cross(a, b), axis=1)
    la = np.linalg.norm(a, axis=1)
    lb = np.linalg.norm(b, axis=1)
    lc = np.linalg.norm(prv - nxt, axis=1)
    return area2, la * lb * lc


def _parse_raw_samples(samples) -> np.ndarray:
    """Accept a list of (u, point) pairs or a plain (N, 3) position array."""
    if isinstance(samples, np.ndarray) and samples.ndim == 2 and samples.shape[1] == 3:
        return np.asarray(samples, dtype=float)
    us = []
    pts = []
    for item in samples:
        u, p = item
        us.append(float(u))
        pts.append(np.asarray(p, dtype=float))
    order = np.argsort(us)
    return np.asarray(pts, dtype=float)[order]


def arc_length_reparam(samples, m: int = 4096) -> ArcLengthCurve:
    """Build a unit-length arc-length curve from dense raw parametric samples.

    Cumulative length comes from chord quadrature with a circumradius-based
    sagitta correction (arc = chord * (1 + chord^2/(24 r^2) + ...)), which
    removes the O(h^2) chord bias; positions are then resampled at m uniform
    arc parameters through a periodic cubic spline, and tangents come from
    five-point centered differences on the resampled table, normalized.
    """
    P = _parse_raw_samples(samples)
    N = P.shape[0]
    if N < 16:
        raise ValueError("need at least 16 raw samples")
    chords_open = np.linalg.norm(np.diff(P, axis=0), axis=1)
    if np.any(chords_open == 0.0):
        k = int(np.nonzero(chords_open == 0.0)[0][0])
        raise ValueError(f"coincident consecutive samples at index {k}")
    wrap = float(np.linalg.norm(P[0] - P[-1]))
    if wrap > _CLOSURE_FACTOR * float(np.median(chords_open)):
        raise ValueError("raw samples do not close up into a loop")
    if wrap == 0.0:
        P = P[:-1]  # explicit duplicate of the start: drop it
        N -= 1
        chords_open = chords_open[:-1]

    chords = np.linalg.norm(np.roll(P, -1, axis=0) - P, axis=1)
    # squared curvature at each raw vertex from the circumradius of the
    # neighbouring triple; collinear triples contribute zero
    area2, sides = _triple_terms(P)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa2 = np.where(area2 > 0.0, (2.0 * area2 / sides) ** 2, 0.0)
    k2_chord = 0.5 * (kappa2 + np.roll(kappa2, -1))
    arcs = chords * (1.0 + chords * chords * k2_chord / 24.0)
    total = float(arcs.sum())
    s = np.concatenate([[0.0], np.cumsum(arcs)]) / total

    spline = CubicSpline(s, np.vstack([P, P[:1]]) / total,
                         bc_type="periodic", axis=0)
    table = spline(np.arange(m) / m)
    return ArcLengthCurve(table, _unit_tangents(table))


# -- presets ----------------------------------------------------------------


def circle_samples(radius: float = 1.0, count: int = 16384) -> list:
    u = np.arange(count) * (2.0 * np.pi / count)
    pts = radius * np.column_stack([np.cos(u), np.sin(u), np.zeros(count)])
    return list(zip(u, pts))


def torus_knot_samples(a: int, b: int, R: float = 2.0, rho: float = 1.0,
                       count: int = 16384) -> list:
    """(a, b) curve on the torus of radii (R, rho); embedded for gcd(a,b)=1."""
    if math.gcd(abs(a), abs(b)) != 1:
        raise ValueError("torus knot parameters must be coprime")
    u = np.arange(count) * (2.0 * np.pi / count)
    w = R + rho * np.cos(b * u)
    pts = np.column_stack([w * np.cos(a * u), w * np.sin(a * u),
                           rho * np.sin(b * u)])
    return list(zip(u, pts))


def preset_curve(spec: str, m: int = 4096) -> ArcLengthCurve:
    """Build a named curve: "circle" or "torus:a,b[,R,rho]"."""
    raw_count = max(4 * m, 16384)
    if spec == "circle":
        return arc_length_reparam(circle_samples(1.0, raw_count), m)
    if spec.startswith("torus:"):
        parts = spec[len("torus:"):].split(",")
        if len(parts) not in (2, 4):
            raise ValueError("torus spec needs 'torus:a,b' or 'torus:a,b,R,rho'")
        a, b = int(parts[0]), int(parts[1])
        R, rho = (float(parts[2]), float(parts[3])) if len(parts) == 4 else (2.0, 1.0)
        return arc_length_reparam(torus_knot_samples(a, b, R, rho, raw_count), m)
    raise ValueError(f"unknown curve preset {spec!r}")


# -- inscription ------------------------------------------------------------


def _march_step(curve: ArcLengthCurve, u: float, c: float) -> float:
    """First parameter v > u with |gamma(v) - gamma(u)| = c.

    Newton iteration on the chord length starting from v = u + c (arc is a
    good initial guess for the chord), with a bracketed bisection fallback
    when Newton wanders outside (u + c/5, u + 5c).
    """
    base = curve.position_scalar(u)
    lo, hi = u + 0.2 * c, u + 5.0 * c
    v = u + c
    for _ in range(40):
        d = curve.position_scalar(v) - base
        dist = math.sqrt(float(d @ d))
        f = dist - c
        if abs(f) < 1e-14:
            return v
        slope = float(curve.tangent_scalar(v) @ d) / dist
        if slope <= 0.0:
            break
        v_new = v - f / slope
        if not lo < v_new < hi:
            break
        v = v_new
    # fallback: scan for a sign change, then bisect
    f_of = lambda w: math.sqrt(float(np.sum((curve.position_scalar(w) - base) ** 2))) - c
    step = 0.25 * c
    w0 = u + step
    f0 = f_of(w0)
    while w0 < u + 6.0 * c:
        w1 = w0 + step
        f1 = f_of(w1)
        if f0 <= 0.0 <= f1:
            return float(brentq(f_of, w0, w1, xtol=1e-15, maxiter=200))
        w0, f0 = w1, f1
    raise RuntimeError(
        f"chord marching found no crossing at chord {c:g} from parameter {u:g}"
    )


def _march_closure(curve: ArcLengthCurve, n: int, c: float) -> float:
    u = 0.0
    for _ in range(n):
        u = _march_step(curve, u, c)
    return u


def inscribe_equilateral(curve: ArcLengthCurve, n: int) -> Polygon:
    """Equilateral n-gon with all vertices on the curve, in cyclic order.

    March n chords of trial length c from gamma(0) and solve for the c whose
    total consumed arc is exactly 1: then the n-th chord ends at the start
    point and all n chords have length c, so the polygon closes equilateral.
    The polygon keeps its inscribed length n*c; see rescale_unit.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    lo, hi = 0.5 / n, 1.0 / n

    def gap(c: float) -> float:
        return _march_closure(curve, n, c) - 1.0

    try:
        g_lo, g_hi = gap(lo), gap(hi)
    except RuntimeError as exc:
        raise ValueError(f"n={n} too small for this curve ({exc})") from None
    if not (g_lo < 0.0 < g_hi):
        raise ValueError(
            f"n={n} too small for this curve: closure gap does not change sign "
            f"on the chord bracket ({g_lo:.3g}, {g_hi:.3g})"
        )
    c_star = float(brentq(gap, lo, hi, xtol=1e-16, rtol=8.9e-16, maxiter=200))

    verts = np.empty((n, 3))
    u = 0.0
    for k in range(n):
        verts[k] = curve.position_scalar(u)
        u = _march_step(curve, u, c_star)
    return Polygon(verts)


def rescale_unit(p: Polygon) -> Polygon:
    """Homothety about the vertex centroid taking the polygon to length 1."""
    centroid = p.vertices.mean(axis=0)
    return Polygon(centroid + (p.vertices - centroid) / p.length)


# -- smooth thickness and distance ------------------------------------------


def smooth_thickness_proxy(curve: ArcLengthCurve, m: int = 2048) -> float:
    """Estimate of the curve's thickness min(minRad, dcsd/2).

    minRad from three-point circumradii over the curve's sample table;
    dcsd from the pair machinery applied to a fine inscribed equilateral
    m-gon.  Both parts converge as the resolution grows; a curve that is
    not embedded drives the dcsd part (and the result) to zero.
    """
    area2, sides = _triple_terms(curve.positions)
    with np.errstate(divide="ignore"):
        radii = np.where(area2 > 0.0, sides / (2.0 * area2), np.inf)
    min_rad_est = float(radii.min())

    fine = inscribe_equilateral(curve, m)
    dcsd_est = _polygon_dcsd(fine)
    return min(min_rad_est, 0.5 * dcsd_est)


def w1inf_distance(p: Polygon, curve: ArcLengthCurve, grid: int):
    """(position sup, derivative sup) between p and the curve at equal params.

    Both maps are evaluated at the uniform grid plus all polygon vertex
    parameters.  The polygon derivative is length * unit edge direction;
    at vertex parameters both one-sided directions are tried and the larger
    mismatch kept.
    """
    if grid < 10 * p.n:
        raise ValueError("grid must be at least 10 * n")
    tv = np.arange(p.n) / p.n
    ts = np.unique(np.concatenate([np.arange(grid) / grid, tv]))

    pos_sup = float(np.max(np.linalg.norm(p.arc_point(ts) - curve.position(ts),
                                          axis=1)))

    gamma_d = curve.tangent(ts)
    right = p.length * p.arc_dir(ts, side="right")
    left = p.length * p.arc_dir(ts, side="left")
    dev = np.maximum(np.linalg.norm(right - gamma_d, axis=1),
                     np.linalg.norm(left - gamma_d, axis=1))
    return pos_sup, float(dev.max())


# -- text I/O ----------------------------------------------------------------


def write_curve(curve: ArcLengthCurve, path) -> None:
    """The position table in the polygon text format, after a samples= line."""
    with open(path, "w") as fh:
        fh.write(_format_rows(curve.positions, f"samples={curve.m}"))


def read_curve(path) -> ArcLengthCurve:
    """A curve written by write_curve (or any uniform arc-length table)."""
    with open(path) as fh:
        table = _parse_rows(fh)
    return ArcLengthCurve(table, _unit_tangents(table))
