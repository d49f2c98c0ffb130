"""Equilateral closed polygons, open polygonal arcs, and their text format.

A Polygon is an immutable list of n >= 3 vertices in R^3 whose consecutive
distances all agree to a relative tolerance; the closing edge from the last
vertex back to the first is implicit.  Arc-length parameters live in [0, 1)
and wrap, with t = k/n at vertex k.  A PolyArc is an open chain of m >= 1
edges of any lengths.  Both share one base, which owns the vertex and edge
tables and the curvature; the two differ only in which edges meet at a
vertex (cyclically, or at the m-1 interior vertices of the arc).

Two discrete curvatures are tracked at each vertex, both nonnegative:

  kappa_d(i)   = 2 tan(phi_i / 2) / ((|e_{i-1}| + |e_i|) / 2)
  kappa_d2(i)  =        phi_i      / ((|e_{i-1}| + |e_i|) / 2)

where phi_i is the exterior (turning) angle.  kappa_d2 <= kappa_d always,
with equality only at straight vertices; kappa_d blows up to +inf as the
polygon folds back (phi -> pi) while kappa_d2 stays bounded, which is why
the thickness radius uses kappa_d and the comparison checks use kappa_d2.

One text format, one 'x y z' row per vertex, serves polygons here and
curve tables in smooth.py: _format_rows writes it and _parse_rows reads it.
The CSV tables of the experiments, the campaigns and the anneal trace come
from _format_table, whose cells follow the same float rule (_fmt).
"""

from __future__ import annotations

import io
import math
import operator
import warnings
from typing import Iterable

import numpy as np

# not called here; kept as a module attribute that perfbench/spans.py rebinds
from .geom import exterior_angle  # noqa: F401

__all__ = [
    "Polygon",
    "PolyArc",
    "regular_ngon",
    "random_equilateral_polygon",
    "min_rad",
    "max_curv",
    "max_curv2",
    "total_curvature",
    "read_polygon",
    "write_polygon",
    "dumps_polygon",
    "loads_polygon",
]

DEFAULT_EDGE_TOL = 1e-9  # relative spread allowed among edge lengths
_FOLD_BACK = np.pi - 1e-15  # turning angles this large give kappa_d = +inf
# mean edge lengths a Polygon accepts: the pair scan's quadratics hold fourth
# powers of lengths, which leave the normal floats outside about 1e-80..1e80
_EDGE_RANGE = (1e-50, 1e50)


def _vertex_array(points) -> np.ndarray:
    # a copy: the polyline freezes its vertex array, not the caller's
    v = np.array(points, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) vertex array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vertex coordinates must be finite")
    return v


def _angles_from_dirs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Turning angles between the unit rows of a (incoming) and b (outgoing).

    The cross product is formed a component at a time in np.cross's
    operation order, and its norm as sqrt(c0 c0 + c1 c1 + c2 c2), as
    np.linalg.norm sums a row of three, so the angles are those of np.cross
    and np.linalg.norm bit for bit, without their per-call set-up."""
    c0 = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    c1 = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    c2 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return np.arctan2(np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), np.einsum("ij,ij->i", a, b))


class _Polyline:
    """Vertices, edges and turning-angle curvature of a closed or open chain.

    A subclass builds the edge vectors and supplies _at_vertices, which says
    where curvature lives: for an array with one row per edge it returns
    the rows of the edges coming into and going out of each such vertex.
    The per-vertex kappa_d(i) and kappa_d2(i) read the all-vertex arrays at
    the subclass's _index(i).
    """

    def __init__(self, v: np.ndarray, edges: np.ndarray):
        self._v = v
        self._edges = edges
        self._lens = np.linalg.norm(edges, axis=1)
        self._length = float(self._lens.sum())
        for a in (self._v, self._edges, self._lens):
            a.setflags(write=False)

    @property
    def vertices(self) -> np.ndarray:
        return self._v

    @property
    def length(self) -> float:
        return self._length

    @property
    def edge_lengths(self) -> np.ndarray:
        return self._lens

    def directions(self) -> np.ndarray:
        """Unit edge directions, cached."""
        d = getattr(self, "_dirs", None)
        if d is None:
            d = self._edges / self._lens[:, None]
            d.setflags(write=False)
            self._dirs = d
        return d

    def exterior_angles(self) -> np.ndarray:
        """Turning angle at each vertex that has one, in [0, pi], cached."""
        a = getattr(self, "_angles", None)
        if a is None:
            a = _angles_from_dirs(*self._at_vertices(self.directions()))
            a.setflags(write=False)
            self._angles = a
        return a

    def _half_lengths(self) -> np.ndarray:
        e_in, e_out = self._at_vertices(self._lens)
        return 0.5 * (e_in + e_out)

    def kappa_d_all(self) -> np.ndarray:
        """kappa_d at every vertex that has one; +inf at a fold-back."""
        phi = self.exterior_angles()
        with np.errstate(over="ignore"):
            out = 2.0 * np.tan(0.5 * phi) / self._half_lengths()
        return np.where(phi >= _FOLD_BACK, np.inf, out)

    def kappa_d2_all(self) -> np.ndarray:
        """kappa_d2 at every vertex that has one, always finite."""
        return self.exterior_angles() / self._half_lengths()

    def kappa_d(self, i: int) -> float:
        """Tangent-based discrete curvature at vertex i; +inf at a fold-back."""
        return float(self.kappa_d_all()[self._index(i)])

    def kappa_d2(self, i: int) -> float:
        """Angle-based discrete curvature at vertex i, always finite."""
        return float(self.kappa_d2_all()[self._index(i)])


class Polygon(_Polyline):
    """Closed equilateral polygon.

    Polygon(points, tolerance) validates the equilateral constraint: the
    implicit edge back to points[0] is included, and a ValueError names the
    first edge whose length leaves the mean by more than the relative
    tolerance.  The mean edge length must lie in 1e-50..1e50; a ValueError
    names it otherwise.
    """

    def __init__(self, vertices: np.ndarray, tolerance: float = DEFAULT_EDGE_TOL):
        v = _vertex_array(vertices)
        if v.shape[0] < 3:
            raise ValueError("a closed polygon needs at least 3 vertices")
        with np.errstate(over="ignore"):    # an overflow fails the range check
            super().__init__(v, np.concatenate((v[1:], v[:1])) - v)
        lens = self._lens
        mean = float(lens.mean())
        if not _EDGE_RANGE[0] <= mean <= _EDGE_RANGE[1]:
            raise ValueError(f"mean edge length {mean:.17g} is outside the supported "
                             f"range {_EDGE_RANGE[0]:g} to {_EDGE_RANGE[1]:g}")
        bad = np.nonzero(np.abs(lens - mean) > tolerance * mean)[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"edge {i} has length {lens[i]:.17g}, expected {mean:.17g} "
                f"within relative tolerance {tolerance:g}"
            )

    @staticmethod
    def _at_vertices(x: np.ndarray):
        # vertex i sits between edges i-1 and i, cyclically: np.roll(x, 1),
        # whose per-call set-up costs more than the copy on small polygons
        return np.concatenate((x[-1:], x[:-1])), x

    def _index(self, i: int) -> int:
        return i % self.n

    # -- basic shape -------------------------------------------------------

    @property
    def n(self) -> int:
        return self._v.shape[0]

    @property
    def edge_length(self) -> float:
        return self._length / self.n

    @property
    def edges(self) -> np.ndarray:
        """Edge vectors, row i from vertex i to vertex i+1 (cyclic)."""
        return self._edges

    # -- arc-length parametrisation ----------------------------------------

    def arc_point(self, t) -> np.ndarray:
        """Point at arc-length parameter t (mod 1).  Accepts scalars or
        arrays; a t that is not finite is a ValueError."""
        t = _arc_parameter("t", t)
        u = np.mod(t, 1.0) * self.n
        k = np.minimum(u.astype(int), self.n - 1)
        frac = u - k
        pt = self._v[k] + frac[..., None] * self._edges[k]
        return pt if t.ndim else pt.reshape(3)

    def arc_dir(self, t, side: str = "right") -> np.ndarray:
        """Unit tangent at parameter t.

        At vertex parameters the tangent jumps; side="right" (default) gives
        the outgoing edge direction, side="left" the incoming one.  Off the
        vertices both sides agree.  A t that is not finite is a ValueError.
        """
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        t = _arc_parameter("t", t)
        u = np.mod(t, 1.0) * self.n
        k = np.minimum(u.astype(int), self.n - 1)
        frac = u - k
        # a vertex parameter may round to either side of the knot
        eps = 1e-12 * self.n
        at_lo = np.abs(frac) < eps      # at vertex k
        at_hi = frac > 1.0 - eps        # at vertex k+1
        if side == "left":
            k = np.where(at_lo, (k - 1) % self.n, k)
        else:
            k = np.where(at_hi, (k + 1) % self.n, k)
        d = self.directions()[k]
        return d if t.ndim else d.reshape(3)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Polygon(n={self.n}, length={self.length:.6g})"


class PolyArc(_Polyline):
    """Open polygonal arc: m >= 1 edges, consecutive vertices distinct.

    Edges may have different lengths.  Curvatures are defined at the m-1
    interior vertices only, numbered 1..m-1.
    """

    def __init__(self, vertices: np.ndarray):
        v = _vertex_array(vertices)
        if v.shape[0] < 2:
            raise ValueError("an arc needs at least 2 vertices")
        super().__init__(v, v[1:] - v[:-1])
        if np.any(self._lens == 0.0):
            i = int(np.nonzero(self._lens == 0.0)[0][0])
            raise ValueError(f"consecutive vertices {i} and {i + 1} coincide")

    @staticmethod
    def _at_vertices(x: np.ndarray):
        # interior vertex k sits between edges k-1 and k
        return x[:-1], x[1:]

    def _index(self, i: int) -> int:
        if not 1 <= i <= self.m - 1:
            raise IndexError(
                f"interior vertex index must be in 1..{self.m - 1}, got {i}"
            )
        return i - 1

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._v.shape[0] - 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"PolyArc(m={self.m}, length={self.length:.6g})"


# -- constructors ------------------------------------------------------------


def regular_ngon(n: int) -> Polygon:
    """Planar regular n-gon of total length 1 in the xy-plane, centred at 0.

    Vertex k sits at angle 2 pi k / n on a circle of radius
    1 / (2 n sin(pi/n)), so every edge has length exactly 1/n up to rounding.
    """
    if _integral("n", n) < 3:
        raise ValueError("n must be at least 3")
    r = 1.0 / (2.0 * n * np.sin(np.pi / n))
    ang = 2.0 * np.pi * np.arange(n) / n
    v = np.stack([r * np.cos(ang), r * np.sin(ang), np.zeros(n)], axis=1)
    return Polygon(v)


def random_equilateral_polygon(n: int, rng) -> Polygon:
    """Random closed equilateral n-gon of total length 1, deterministic per rng.

    Draws n independent uniform directions and then alternates "subtract the
    mean" with "renormalise to unit length" until the directions sum to
    (nearly) zero.  The projection converges linearly for generic draws; the
    residual closure defect is folded into the last edge and is far below the
    equilateral tolerance.  The result may be non-simple; callers that need
    embedded polygons must filter.
    """
    if _integral("n", n) < 3:
        raise ValueError("n must be at least 3")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    for _attempt in range(16):
        e = rng.normal(size=(n, 3))
        e /= np.linalg.norm(e, axis=1)[:, None]
        ok = False
        for _ in range(400):
            s = e.sum(axis=0)
            if float(np.linalg.norm(s)) < 1e-12:
                ok = True
                break
            e -= s / n
            norms = np.linalg.norm(e, axis=1)
            if np.any(norms < 1e-8):  # a direction collapsed; redraw
                break
            e /= norms[:, None]
        if ok:
            v = np.vstack([np.zeros(3), np.cumsum(e[:-1], axis=0)]) / n
            return Polygon(v)
    raise RuntimeError("random polygon closure projection failed to converge")


# -- module-level curvature aggregates ---------------------------------------


def max_curv(p: Polygon | PolyArc) -> float:
    """Largest kappa_d over vertices (interior vertices for an arc)."""
    return float(np.max(p.kappa_d_all(), initial=0.0))


def max_curv2(p: Polygon | PolyArc) -> float:
    """Largest kappa_d2, always finite."""
    return float(np.max(p.kappa_d2_all(), initial=0.0))


def min_rad(p: Polygon | PolyArc) -> float:
    """Reciprocal of max_curv: the smallest local radius; 0 at a fold-back."""
    mc = max_curv(p)
    if mc == 0.0:
        return float("inf")
    if np.isinf(mc):
        return 0.0
    return 1.0 / mc


def total_curvature(p: Polygon | PolyArc) -> float:
    """Sum of turning angles (all vertices for a polygon, interior for an arc)."""
    return float(np.sum(p.exterior_angles()))


# -- text format --------------------------------------------------------------
#
# One vertex per line: three whitespace-separated floats at 17 significant
# digits.  '#' starts a comment and blank lines are skipped.  Polygons and
# curve tables share the format; a polygon's closing edge is implicit (the
# first vertex is not repeated).


def _integral(name: str, value):
    """value as an int, when it is one (operator.index), else ValueError:
    a float count would only fail later, inside range or np.arange."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _seed(value) -> int:
    """value as a seed for np.random, which takes non-negative integers only;
    else ValueError naming the setting, before any draw."""
    seed = _integral("seed", value)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value!r}")
    return seed


def _arc_parameter(name: str, value) -> np.ndarray:
    """value as a float array when every entry is finite, else ValueError
    naming it: mod 1 turns nan and inf into nan, which indexes no edge."""
    t = np.asarray(value, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"{name} must be finite, got {float(t[~np.isfinite(t)][0])!r}")
    return t


def _fmt(x) -> str:
    """A table cell: a float at 17 significant digits, None as empty."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


def _format_table(header, rows) -> str:
    """CSV text: the header's names, then one line of _fmt cells per row."""
    lines = [",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _format_rows(V: np.ndarray, comment: str | None = None) -> str:
    """The rows of V in the text format, after one '# ' line per comment line."""
    buf = io.StringIO()
    if comment:
        for line in comment.splitlines():
            buf.write(f"# {line}\n")
    for x, y, z in V:
        buf.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
    return buf.getvalue()


# the bytes of text that np.loadtxt reads as _parse_lines does
_PLAIN = bytes(range(0x20, 0x7f)) + b"\t\n"


def _parse_rows(text: str) -> np.ndarray:
    """The (k, 3) array of the rows of text, k possibly 0; errors name the
    line.  Text of tabs, newlines and printable ASCII only, which np.loadtxt
    splits into lines and fields as _parse_lines does, is parsed by
    np.loadtxt; its result stands when every row holds three finite
    coordinates.  Any other text, and every error, goes through
    _parse_lines."""
    if text.isascii() and not text.encode("ascii").translate(None, _PLAIN):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # loadtxt warns on no data
                V = np.loadtxt(io.StringIO(text), ndmin=2)
        except ValueError:
            pass
        else:
            if V.shape[1] == 3 and np.isfinite(V).all():
                return V
    return _parse_lines(text.splitlines())


def _parse_lines(lines: Iterable[str]) -> np.ndarray:
    """_parse_rows, one line at a time."""
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 coordinates, got {len(parts)}")
        try:
            row = [float(x) for x in parts]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {lineno}: coordinates must be finite, got {line!r}")
        rows.append(row)
    return np.asarray(rows, dtype=float).reshape(-1, 3)


def dumps_polygon(p: Polygon, comment: str | None = None) -> str:
    return _format_rows(p.vertices, comment)


def loads_polygon(text: str) -> Polygon:
    V = _parse_rows(text)
    if not V.shape[0]:
        raise ValueError("no vertices found")
    return Polygon(V)


def write_polygon(p: Polygon, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_polygon(p, comment=comment))


def read_polygon(path) -> Polygon:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_polygon(fh.read())
