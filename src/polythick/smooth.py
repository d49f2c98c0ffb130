"""Smooth closed curves and their polygonal approximations.

A curve lives as an ArcLengthCurve: a table of positions uniform in arc
length at total length 1, unit tangents from the table, and cubic position
interpolation between samples.  User curves enter as a dense table of raw
parametric samples, reparametrized by chord quadrature; the presets, a
circle and torus knots, are closed forms whose arc length is integrated
spectrally from their exact speed (preset_curve).  On top of
that sit the equilateral inscription (Newton on the closure system for all
vertex parameters and the chord at once, one banded solve a step), the
unit-length rescale, a thickness estimate, and the W^{1,inf} distance
between a polygon and a curve.

Three-point circumradii of consecutive samples come from one helper, used
both for the sagitta correction of the chord quadrature and for the
radius part of the thickness estimate.  Curve tables are stored in the
polygon text format of polygon.py, one 'x y z' row per sample.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dtbtrs

from .polygon import Polygon, _arc_parameter, _format_rows, _integral, _parse_rows
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
# read_curve's bound on a table's closed chord sum against 1 and on its chord
# spread against the mean chord.  The circle and torus:2,3, 2,5, 3,2, 3,4,
# 3,1, 4,1, 5,1 and 5,2 read at most 4.7e-4 of either from m = 512 on
# (torus:5,1's spread), and within it from m = 128 on (64 for all but
# torus:4,1, 5,1 and 5,2)
_UNIT_TOL = 1e-2


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
        """gamma(t), t taken mod 1; accepts scalars or arrays.  A t that is
        not finite is a ValueError."""
        return self._spline(np.mod(_arc_parameter("t", t), 1.0))

    def tangent(self, t) -> np.ndarray:
        """Unit tangent at t: linear interpolation of the table, renormalized.
        A t that is not finite is a ValueError."""
        u = np.mod(_arc_parameter("t", t), 1.0) * self._m
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
    m = _integral("m", m)
    P = np.asarray(samples, dtype=float)
    if P.ndim != 2 or P.shape[1] != 3:
        raise ValueError(
            f"expected an (N, 3) array of curve samples, got shape {P.shape}")
    finite = np.isfinite(P).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample {int(np.argmin(finite))} is not finite")
    if P.shape[0] < 16:
        raise ValueError("need at least 16 raw samples")
    # a power of two brings every coordinate within 1, so no chord, area or
    # side product overflows, and the quadrature and P / total round as at
    # the samples' own scale
    P = np.ldexp(P, -math.frexp(float(np.abs(P).max()))[1])
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
    """(count, 3) samples of the unit circle in the xy-plane; count must be
    a positive integer."""
    if _integral("count", count) < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    u = np.arange(count) * (2.0 * np.pi / count)
    return np.column_stack([np.cos(u), np.sin(u), np.zeros(count)])


def _check_torus(a: int, b: int, R: float, rho: float) -> None:
    """ValueError unless the (a, b) curve on the torus of radii (R, rho) is
    embedded: a and b coprime, 0 < |rho| < |R|, and rho not lost in the
    rounding of R."""
    if math.gcd(abs(a), abs(b)) != 1:
        raise ValueError("torus knot parameters must be coprime")
    if not (math.isfinite(R) and math.isfinite(rho) and 0.0 < abs(rho) < abs(R)):
        raise ValueError(f"torus radii must be finite with 0 < |rho| < |R|, "
                         f"got R={R:g}, rho={rho:g}")
    if abs(R) + abs(rho) == abs(R):
        raise ValueError(f"torus radius rho={rho:g} is lost in the rounding "
                         f"of R={R:g}")


def _torus_points(a: int, b: int, R: float, rho: float, u: np.ndarray) -> np.ndarray:
    """gamma(u) = ((R + rho cos bu) cos au, (R + rho cos bu) sin au, rho sin bu)."""
    w = R + rho * np.cos(b * u)
    return np.column_stack([w * np.cos(a * u), w * np.sin(a * u),
                            rho * np.sin(b * u)])


def torus_knot_samples(a: int, b: int, R: float = 2.0, rho: float = 1.0,
                       count: int = 16384) -> np.ndarray:
    """(a, b) curve on the torus of radii (R, rho), 0 < |rho| < |R|, on
    which the torus is embedded; the curve is embedded for gcd(a,b)=1.
    rho must survive R's rounding, or the samples trace one circle twice.
    count must be a positive integer."""
    _check_torus(a, b, R, rho)
    if _integral("count", count) < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    return _torus_points(a, b, R, rho, np.arange(count) * (2.0 * np.pi / count))


def _arc_parameters(speed: np.ndarray, m: int):
    """(u, L): the parameters u_k in [0, 2 pi) at arc length S(u_k) = k L / m,
    k = 0..m-1, of a curve whose periodic speed |gamma'| is given on the grid
    u_j = 2 pi j / N, and its length L.

    S on the grid is the speed's mean times u plus the termwise integral of
    its rfft, which is the periodic trapezoid rule and spectrally accurate
    for an analytic speed.  Each u_k starts from linear interpolation of S
    on the grid and takes Newton steps on the cubic Hermite interpolant of
    S, whose slopes are the speed itself, so its error is O(h^4) in the
    grid step h.  On the presets one step leaves at most 3e-16 of u and two
    reach rounding; the third is margin.
    """
    N = speed.size
    h = 2.0 * np.pi / N
    F = np.fft.rfft(speed)
    mean = F[0].real / N
    # the mean integrates to the linear term below; irfft drops the
    # imaginary Nyquist term, the sine that cos(N u / 2) integrates to,
    # which vanishes on the grid
    F[1:] /= 1j * np.arange(1, F.size)
    F[0] = 0.0
    g = np.fft.irfft(F, N)
    L = 2.0 * np.pi * mean
    # S(0) = 0 exactly, so u_0 = 0 and the table starts at gamma(0)
    S = np.append(mean * (np.arange(N) * h) + (g - g[0]), L)
    slope = h * np.append(speed, speed[0])
    s = np.arange(m) * (L / m)
    j = np.searchsorted(S, s, side="right") - 1
    # H(t) = S[j] + f0 t + c2 t^2 + c3 t^3 on t in [0, 1], with H(1) = S[j+1]
    # and slopes f0, f1 at the ends
    d, f0, f1 = S[j + 1] - S[j], slope[j], slope[j + 1]
    c2, c3 = 3.0 * d - 2.0 * f0 - f1, f0 + f1 - 2.0 * d
    r0 = S[j] - s
    t = -r0 / d
    for _ in range(3):
        t -= (r0 + t * (f0 + t * (c2 + t * c3))) / (f0 + t * (2.0 * c2 + 3.0 * t * c3))
    return (j + t) * h, L


def preset_curve(spec: str, m: int = 4096) -> ArcLengthCurve:
    """Build a named curve of m samples: "circle" or "torus:a,b[,R,rho]".

    Each preset is the closed form gamma(u), u in [0, 2 pi), of
    _torus_points: the unit circle is its (1, 0) curve with R = 1 and
    rho = 0.  Its speed |gamma'(u)|, sqrt((rho b)^2 + a^2 (R + rho cos bu)^2),
    is sampled on N = max(4m, 16384) uniform points, and _arc_parameters
    integrates it to the length L and the parameters u_k at arc length
    k L / m.  The table is gamma(u_k) / L, k = 0..m-1, and ArcLengthCurve
    takes its tangents from the table, as for any other.
    """
    if _integral("m", m) < 8:
        raise ValueError(f"need at least 8 curve samples, got m={m}")
    if spec == "circle":
        a, b, R, rho = 1, 0, 1.0, 0.0
    elif spec.startswith("torus:"):
        parts = spec[len("torus:"):].split(",")
        if len(parts) not in (2, 4):
            raise ValueError(f"torus spec {spec!r} needs 'torus:a,b' or 'torus:a,b,R,rho'")
        try:
            a, b = int(parts[0]), int(parts[1])
            R, rho = (float(parts[2]), float(parts[3])) if len(parts) == 4 else (2.0, 1.0)
        except ValueError:
            raise ValueError(f"torus spec {spec!r} needs integers a, b and numbers "
                             f"R, rho") from None
        _check_torus(a, b, R, rho)
    else:
        raise ValueError(f"unknown curve preset {spec!r}")
    # a power of two brings the radii within 1 exactly, so no square of the
    # speed overflows and the table rounds as at the radii's own scale
    e = math.frexp(R)[1]
    R, rho = math.ldexp(R, -e), math.ldexp(rho, -e)
    N = max(4 * m, 16384)
    w = R + rho * np.cos(b * (np.arange(N) * (2.0 * np.pi / N)))
    u, L = _arc_parameters(np.sqrt((rho * b) ** 2 + (a * w) ** 2), m)
    return ArcLengthCurve(_torus_points(a, b, R, rho, u) / L)


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
    chord c, from u_k = k/n and c the mean chord.  Its Jacobian is a lower
    bidiagonal block in u_1..u_{n-1} plus the chord's column of -1, so each
    step is one banded triangular solve with two right-hand sides and the
    scalar Schur complement of the last row.  A step that leaves
    u_0 < u_1 < ... < u_n out of order is halved, up to _NEWTON_HALVINGS
    times; a step that keeps it ordered is taken whole.  The vertices are
    gamma(u_k), vertex 0 is gamma(0), and the polygon keeps its inscribed
    length n*c; see rescale_unit.

    Failure rule: Newton stops after the first step that starts and ends
    with max|F| <= 1e-15 (times the largest position coordinate if above 1),
    which leaves the chords equal to the rounding of the positions.  A
    ValueError naming n and the reason is raised if that takes more than
    _NEWTON_STEPS steps, if a step is not finite (two vertices coincide, or
    the Jacobian is singular: a zero pivot of the block or a zero Schur
    complement), or if the last halving still leaves u out of order.
    """
    if _integral("n", n) < 3:
        raise ValueError("n must be at least 3")
    tol = _NEWTON_TOL * max(1.0, float(np.abs(curve.positions).max()))
    # the block's diagonal dF_j/du_{j+1} and subdiagonal dF_{j+1}/du_{j+1} in
    # LAPACK's lower band layout; band[1, -1], past the (n-1)-square block
    # and ignored by dtbtrs, is the last row's dF_{n-1}/du_{n-1}
    band = np.empty((2, n - 1))
    rhs = np.ones((n - 1, 2))
    u, c, converged = np.arange(n + 1) / n, None, False
    for _ in range(_NEWTON_STEPS):
        with np.errstate(all="ignore"):
            P = curve.position(u[:n])
            D = np.roll(P, -1, axis=0) - P
            L = np.linalg.norm(D, axis=1)
            c = float(L.mean()) if c is None else c
            prev, converged = converged, float(np.abs(L - c).max()) <= tol
            if prev and converged:
                return Polygon(P)
            E, G = D / L[:, None], curve._dspline(u[1:n])
            band[0] = np.einsum("ij,ij->i", E[:-1], G)
            band[1] = -np.einsum("ij,ij->i", E[1:], G)
            # the block solves for F[:-1] and for the chord's column at once,
            # and the last row's scalar Schur complement gives the chord step
            rhs[:, 0] = L[:-1] - c
            Z, info = dtbtrs(band, rhs, uplo="L")
            b = band[1, -1]
            dc = (L[-1] - c - b * Z[-1, 0]) / (b * Z[-1, 1] - 1.0)
            step = np.append(Z[:, 0] + dc * Z[:, 1], dc)
        if info or not np.all(np.isfinite(step)):
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
    if _integral("m", m) < 3:
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
    if _integral("grid", grid) < 10 * p.n:
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
    """A curve written by write_curve, or any closed table sampled uniformly
    in arc length at total length 1.  ValueError, naming the measured
    length, when the closed chord sum differs from 1, or a chord from the
    mean chord, by more than _UNIT_TOL relative."""
    with open(path) as fh:
        curve = ArcLengthCurve(_parse_rows(fh.read()))
    P = curve.positions
    chords = np.linalg.norm(np.roll(P, -1, axis=0) - P, axis=1)
    length = float(chords.sum())
    spread = float(np.ptp(chords)) * curve.m / length
    if not (abs(length - 1.0) <= _UNIT_TOL and spread <= _UNIT_TOL):
        raise ValueError(
            f"curve table has length {length:.6g} and chord spread {spread:.3g}; "
            f"need length 1 and uniform chords, within {_UNIT_TOL:g}")
    return curve
