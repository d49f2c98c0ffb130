"""Smooth closed curves and their polygonal approximations.

A curve enters as a dense table of raw parametric samples, is
reparametrized by arc length and rescaled to total length 1, and from then
on lives as an ArcLengthCurve: a uniform table of positions and unit
tangents with cubic position interpolation between samples.  On top of
that sit the equilateral inscription (one Newton solve of the closure
system for all vertex parameters and the chord at once), the unit-length
rescale, a thickness estimate, and the W^{1,inf} distance between a polygon
and a curve.

Three-point circumradii of consecutive samples come from one helper, used
both for the sagitta correction of the arc-length quadrature and for the
radius part of the thickness estimate.  Curve tables are stored in the
polygon text format of polygon.py, one 'x y z' row per sample.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import MatrixRankWarning, spsolve

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


class ArcLengthCurve:
    """Closed unit-length curve sampled uniformly in arc length.

    Built from the table positions[k] = gamma(k/m), m >= 8, alone: the unit
    tangents tangents[k] = gamma'(k/m) come from five-point centered
    differences of the positions, normalized.  Between samples, positions
    interpolate with a periodic cubic spline and tangents linearly
    (renormalized), so evaluation error decays like m^-4 for positions and
    m^-2 for tangent directions.
    """

    def __init__(self, positions: np.ndarray):
        P = np.array(positions, dtype=float)   # a copy: frozen below
        if P.ndim != 2 or P.shape[1] != 3:
            raise ValueError(f"need an (m, 3) position table, got shape {P.shape}")
        finite = np.isfinite(P).all(axis=1)
        if not finite.all():
            raise ValueError(f"position {int(np.argmin(finite))} is not finite")
        T = _unit_tangents(P)
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
        # gamma' of the interpolant itself: the inscription's Newton Jacobian
        self._dspline = spline.derivative()

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

    def tangent(self, t) -> np.ndarray:
        """Unit tangent at t: linear interpolation of the table, renormalized."""
        u = np.mod(np.asarray(t, dtype=float), 1.0) * self._m
        k = np.minimum(u.astype(int), self._m - 1)
        frac = (u - k)[..., None]
        T = (1.0 - frac) * self._T[k] + frac * self._T[(k + 1) % self._m]
        return T / np.linalg.norm(T, axis=-1, keepdims=True)

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
    norms = np.linalg.norm(T, axis=1, keepdims=True)
    if not np.all(norms > 0.0):
        raise ValueError(f"curve sample {int(np.argmin(norms))} has a zero tangent")
    return T / norms


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


def arc_length_reparam(samples, m: int = 4096) -> ArcLengthCurve:
    """Build a unit-length arc-length curve from dense raw parametric samples.

    samples is an (N, 3) array of points in parameter order around the
    loop; the last point may repeat the first.  Cumulative length comes
    from chord quadrature with a circumradius-based sagitta correction
    (arc = chord * (1 + chord^2/(24 r^2) + ...)), which
    removes the O(h^2) chord bias; positions are then resampled at m uniform
    arc parameters through a periodic cubic spline, and tangents come from
    five-point centered differences on the resampled table, normalized.
    """
    P = np.asarray(samples, dtype=float)
    if P.ndim != 2 or P.shape[1] != 3:
        raise ValueError(
            f"expected an (N, 3) array of curve samples, got shape {P.shape}")
    finite = np.isfinite(P).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample {int(np.argmin(finite))} is not finite")
    if P.shape[0] < 16:
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
    return ArcLengthCurve(table)


# -- presets ----------------------------------------------------------------


def circle_samples(count: int = 16384) -> np.ndarray:
    """(count, 3) samples of the unit circle in the xy-plane."""
    u = np.arange(count) * (2.0 * np.pi / count)
    return np.column_stack([np.cos(u), np.sin(u), np.zeros(count)])


def torus_knot_samples(a: int, b: int, R: float = 2.0, rho: float = 1.0,
                       count: int = 16384) -> np.ndarray:
    """(a, b) curve on the torus of radii (R, rho); embedded for gcd(a,b)=1."""
    if math.gcd(abs(a), abs(b)) != 1:
        raise ValueError("torus knot parameters must be coprime")
    u = np.arange(count) * (2.0 * np.pi / count)
    w = R + rho * np.cos(b * u)
    return np.column_stack([w * np.cos(a * u), w * np.sin(a * u),
                            rho * np.sin(b * u)])


def preset_curve(spec: str, m: int = 4096) -> ArcLengthCurve:
    """Build a named curve: "circle" or "torus:a,b[,R,rho]"."""
    raw_count = max(4 * m, 16384)
    if spec == "circle":
        return arc_length_reparam(circle_samples(raw_count), m)
    if spec.startswith("torus:"):
        parts = spec[len("torus:"):].split(",")
        if len(parts) not in (2, 4):
            raise ValueError("torus spec needs 'torus:a,b' or 'torus:a,b,R,rho'")
        a, b = int(parts[0]), int(parts[1])
        R, rho = (float(parts[2]), float(parts[3])) if len(parts) == 4 else (2.0, 1.0)
        return arc_length_reparam(torus_knot_samples(a, b, R, rho, raw_count), m)
    raise ValueError(f"unknown curve preset {spec!r}")


# -- inscription ------------------------------------------------------------


# Newton on the closure system converges once every chord equals c to the
# rounding of unit-length positions (scaled for tables far from the origin).
_NEWTON_TOL = 1e-15
_NEWTON_STEPS = 50  # n >= 64 needs 2-4; coarse knotted polygons a few dozen
_NEWTON_HALVINGS = 10  # a step that puts u out of order is halved this often


def inscribe_equilateral(curve: ArcLengthCurve, n: int) -> Polygon:
    """Equilateral n-gon with all vertices on the curve, in cyclic order.

    With u_0 = 0 and u_n = 1, Newton's method solves the n closure equations
    F_k = |gamma(u_{k+1}) - gamma(u_k)| - c = 0 for u_1..u_{n-1} and the
    chord c, from u_k = k/n and c the mean chord.  Its Jacobian is
    bidiagonal plus a column of -1, so each step is one sparse solve.  A
    step that leaves u_0 < u_1 < ... < u_n out of order is halved, up to
    _NEWTON_HALVINGS times; a step that keeps it ordered is taken whole.
    The vertices are gamma(u_k), vertex 0 is gamma(0), and the polygon
    keeps its inscribed length n*c; see rescale_unit.

    Failure rule: Newton stops after the first step that starts and ends
    with max|F| <= 1e-15 (times the largest position coordinate if above 1),
    which leaves the chords equal to the rounding of the positions.  A
    ValueError naming n and the reason is raised if that takes more than
    _NEWTON_STEPS steps, if a step is not finite (two vertices coincide, or
    the Jacobian is singular), or if the last halving still leaves u out of
    order.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    tol = _NEWTON_TOL * max(1.0, float(np.abs(curve.positions).max()))
    # column j < n-1 is u_{j+1}, set in rows j and j+1; column n-1 is c
    indptr = np.r_[0:2 * n - 1:2, 3 * n - 2]
    indices = np.r_[np.arange(1, 2 * n - 1) // 2, 0:n]
    data = np.full(3 * n - 2, -1.0)
    u, c, converged = np.arange(n + 1) / n, None, False
    for _ in range(_NEWTON_STEPS):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", MatrixRankWarning)
            P = curve.position(u[:n])
            D = np.roll(P, -1, axis=0) - P
            L = np.linalg.norm(D, axis=1)
            c = float(L.mean()) if c is None else c
            prev, converged = converged, float(np.abs(L - c).max()) <= tol
            if prev and converged:
                return Polygon(P)
            E, G = D / L[:, None], curve._dspline(u[1:n])
            data[0:2 * n - 2:2] = np.einsum("ij,ij->i", E[:-1], G)
            data[1:2 * n - 2:2] = -np.einsum("ij,ij->i", E[1:], G)
            step = spsolve(csc_matrix((data, indices, indptr), shape=(n, n)),
                           L - c)
        if not np.all(np.isfinite(step)):
            zero = np.flatnonzero(L == 0.0)
            if zero.size:
                k = int(zero[0])
                raise ValueError(f"n={n}: inscription vertices {k} and {(k + 1) % n} "
                                 "coincide (a zero chord has no direction)")
            raise ValueError(f"n={n}: inscription Newton step is not finite "
                             "(singular closure Jacobian)")
        for _ in range(_NEWTON_HALVINGS + 1):
            trial = u.copy()
            trial[1:n] -= step[:-1]
            if np.all(np.diff(trial) > 0.0):
                break
            step = 0.5 * step
        else:
            raise ValueError(f"n={n}: inscription parameters are not strictly "
                             f"increasing after {_NEWTON_HALVINGS} step halvings")
        u, c = trial, c - float(step[-1])
    raise ValueError(f"n={n}: inscription Newton did not converge "
                     f"in {_NEWTON_STEPS} steps")


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
    if m < 3:
        raise ValueError(f"proxy resolution must be at least 3, got {m}")
    area2, sides = _triple_terms(curve.positions)
    with np.errstate(divide="ignore"):
        radii = np.where(area2 > 0.0, sides / (2.0 * area2), np.inf)
    return min(float(radii.min()),
               0.5 * _polygon_dcsd(inscribe_equilateral(curve, m)))


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
        return ArcLengthCurve(_parse_rows(fh))
