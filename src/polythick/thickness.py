"""Self-distance machinery: critical pairs, dcsd/scsd, and discrete thickness.

The squared distance between two points sliding along the polygon is piecewise
quadratic; a pair is *doubly critical* when each point locally extremizes the
distance to the other (perpendicular-foot stationarity inside an edge,
one-sided derivative sign tests at a vertex), and *singly critical* when at
least one of the two directions is critical.  dcsd is the minimum distance
over doubly critical pairs.  scsd is the infimum over the singly critical
set: one-direction criticality admits one-parameter families of pairs whose
distance can decrease all the way to a boundary where the family stops
existing, so the boundary pairs are enumerated too.  The thickness radius is

    delta_n = min(min_rad, dcsd / 2),      delta_n = 0 when not embedded.

Every edge pair is described by one convex quadratic in the two foot
parameters.  One kernel, _families, reads every critical-pair family off
it.  Two enumerations feed it.  The dense scan (_scan) takes all n^2
pairs, a row block at a time; critical_pairs() uses it, and so do the
minima below _CROSSOVER edges.  From there on delta_n, dcsd, scsd and the
annealing objective take the pruned scan: only pairs whose two arcs can
both turn pi (pi/2 for the singly families), in one round.  It starts
from a bound r on dcsd: the doubly pairs next to the closest midpoints of
the turning window, found on a coarse grid and refined around its best
pair.  The window columns of a run of consecutive rows, a row block
included, form one cyclic range (_run_ranges), and one test (_meets)
says whether a run of columns meets it.  When the reach of r falls
short of the span, a ring round keeps the window pairs whose edge
midpoints lie within r + h_max.  The blocks whose range leaves out more
than two blocks of columns, as on finely inscribed smooth curves, take
them from one dual-tree descent per scan over runs of 96, 48, 24, 12, 6,
3 and 1 consecutive midpoints: a pair of runs is dropped when their
bounding spheres lie beyond reach or the column run misses the row
run's range.  A block whose range leaves out at most two blocks of
columns, as on crumpled polygons whose windows leave out only a few arc
neighbours, queries one k-d tree over all midpoints instead.
Otherwise, as for the regular n-gon whose dcsd is its diameter, a
covering round keeps the pairs that pass a perpendicularity filter: a
candidate critical at one end has its other point within reach of that
end's vertex, in one of its two edge slabs or its normal wedge, up to a
slack sigma = 1e-6 (span + h_max + |V|_max) for the kernel's tolerances
and rounding; near-parallel pairs, whose feet the quadratic fixes
poorly, are always kept.  A block whose window range is wider than two
blocks forms the filter only on the columns of the chunks it needs,
chunks being runs of isqrt(n) consecutive midpoints: the chunks its
range meets, less those that, judged on their bounding spheres, lie
wholly out of reach of the row's vertex, or whose vertices each find
the row's chunk out of reach, as the filter's mode asks, and that hold
no edge parallel to the row's.  _chunk_cull forms that mask for every
block at once.
Both enumerations take b = E_i . E_j from one matmul per row block and
form every other term per pair, so their minima agree bit for bit.  The
pruned scan hands its kept pairs to _families in batches: each block's
pairs, with b gathered from the block's own product, join a pending
batch, which goes to the kernel once it holds _BATCH pairs and once more
after the last block, as the kernel's per-call cost outweighs its
arithmetic on one block's few hundred pairs.
Every scan writes b into one workspace that lives for the scan, and the
covering round's filter works in the workspace's other two rows,
so no block allocates a float array of its size.
Every scan hands its candidates to a _Collector, which follows the minima
and keeps only what its caller can pick: every candidate for
critical_pairs(), the doubly ones within _TIE * L of the running doubly
minimum for delta_n(), whose achieving pair is picked among those within
_TIE * L of the last, and none for dcsd, scsd and the objective, which
read the minima alone.
Simplicity is separate, and one function tests it: _clear says whether
every frame of a stack of vertex frames keeps its non-adjacent edges
farther apart than a clearance.  It gathers the only pairs that can come
within it (_near_pairs: the non-adjacent pairs of each frame whose
midpoints one k-d tree over every frame finds within reach) and measures
them (_gathered_gap) in batches, calling no kernel when none is near.
is_simple and the objective call it on one frame, the annealer's sweep
check on every frame of a crankshaft sweep.  Python-level pair objects
are only materialised by critical_pairs() and delta_n().
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from functools import cache, reduce

import numpy as np
from scipy.spatial import cKDTree

from .polygon import Polygon, _arc_parameter, max_curv2, min_rad

__all__ = [
    "CriticalPair",
    "ThicknessReport",
    "critical_pairs",
    "dcsd",
    "scsd",
    "is_simple",
    "delta_n",
    "arc_total_curvature",
]

KIND_NAMES = ("vertex-vertex", "vertex-edge", "edge-edge")
_EXTREMAL_TOL = 1e-9      # extremality classification (normalized derivatives)
PARAM_TOL = 1e-9          # slack for foot parameters at edge ends
_MEMBER_EPS = 1e-9        # foot this close to an edge end counts as the vertex
_CONTACT = 1e-12          # simplicity clearance, relative to length
_BLOCK = 96               # row-block size for the O(n^2) scans
_BATCH = 4096             # kept pairs the pruned scan hands to _families per call
_TIE = 1e-12              # distances this close to the minimum tie, relative to length
_CROSSOVER = 96           # n from which the minima come from the pruned scan
_PAD = 1e-6               # radius slack for rounding, relative to r + 4 h_max
_TURN_SLACK = 1e-6        # turning slack of the pruned scan's arc filter
_PARALLEL = 1e-4          # pairs with b^2 >= (1 - _PARALLEL) a h_min^2 count as parallel


@dataclass(frozen=True)
class CriticalPair:
    """One critical pair, normalised so s < t.

    s, t are arc-length parameters in [0, 1); i, j identify the edge (or
    vertex, for a point sitting at one) that carries each point, used for
    deterministic tie-breaking.
    """

    s: float
    t: float
    distance: float
    kind: str           # vertex-vertex | vertex-edge | edge-edge
    criticality: str    # doubly | singly
    i: int
    j: int


@dataclass(frozen=True)
class ThicknessReport:
    min_rad: float
    max_curv: float
    max_curv2: float
    dcsd: float
    scsd: float
    delta_n: float
    inv_delta_n: float
    delta_n_alt: float          # min(min_rad, scsd); cross-form sanity value
    binding: str                # curvature | distance (ties -> curvature)
    achieving_vertex: int
    achieving_pair: CriticalPair | None
    simple: bool

    def to_json(self) -> str:
        d = asdict(self)
        pair = d.pop("achieving_pair")
        if pair is not None:
            for key, val in pair.items():
                d[f"pair_{key}"] = val
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ThicknessReport":
        d = json.loads(text)
        pair_keys = [k for k in d if k.startswith("pair_")]
        pair = None
        if pair_keys:
            pair = CriticalPair(**{k[len("pair_"):]: d.pop(k) for k in pair_keys})
        return cls(achieving_pair=pair, **d)


# ---------------------------------------------------------------------------
# candidate classification and collection
# ---------------------------------------------------------------------------


def _extremal(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Vertex extremality from normalized one-sided derivatives a (in), b (out).

    The squared distance curves upward along each edge, so a flat one-sided
    slope can only belong to a minimum; a strict maximum needs strictly
    opposite signs.  Hence: min iff a <= tol and b >= -tol, max iff a >= tol
    and b <= -tol.
    """
    return ((a <= tol) & (b >= -tol)) | ((a >= tol) & (b <= -tol))


class _Collector:
    """The minima of the accepted candidates of all enumeration families,
    and the candidates a minimum can pick.

    add() takes the row and column labels i, j of the evaluated pairs, as
    broadcast against the mask, with the edge fractions fs, ft of the two
    points, 0.0 at a vertex; min and doubly_min follow the smallest
    accepted distance.  It keeps i, j, dist, fs, ft of every accepted entry
    when window is None, as critical_pairs needs, and otherwise only of the
    doubly ones within window of the running doubly_min, none at -inf.  A
    family with no accepted entry keeps nothing, whatever the window.  The
    minimum only falls, so a candidate within window of the final
    doubly_min was within window of it when added, and _min_with_tiebreak
    finds every one it needs; kept candidates keep the order they were
    found in, which its tie-break reads.
    arrays() forms the flat columns of the kept candidates, with
    s = (cum[i] + fs * lens[i]) / L and t alike, wrapped into [0, 1): a
    foot at the end of edge n - 1 is vertex 0.  Labels are kept as found,
    s > t included; _pair_at swaps such a pair when it is reported.
    """

    def __init__(self, lens: np.ndarray, window: float | None = None):
        self._lens, self._window = lens, window
        self.min = self.doubly_min = np.inf
        z = np.zeros(0)   # a typed empty chunk, so a scan with no candidates works
        self._chunks = [(z.astype(int), z.astype(int), z, z, z, 0, False)]

    def add(self, i, j, mask, dist, fs, ft, kind: int, doubly: bool):
        dist = np.broadcast_to(dist, mask.shape)
        d = float(np.min(dist, where=mask, initial=np.inf))
        if d == np.inf:                                   # nothing accepted
            return
        self.min = min(self.min, d)
        if doubly:
            self.doubly_min = min(self.doubly_min, d)
        if self._window is not None:
            limit = self.doubly_min + self._window
            if not doubly or d > limit:
                return
            mask = mask & (dist <= limit)
        i, j, dist, fs, ft = (np.broadcast_to(x, mask.shape)[mask]
                              for x in (i, j, dist, fs, ft))
        self._chunks.append((i, j, dist, fs, ft, kind, doubly))

    def arrays(self) -> dict:
        i, j, dist, fs, ft, kind, doubly = zip(*self._chunks)
        i, j, fs, ft = (np.concatenate(x) for x in (i, j, fs, ft))
        sizes = [x.size for x in dist]
        cum, lens = np.concatenate([[0.0], np.cumsum(self._lens)]), self._lens
        return dict(dist=np.concatenate(dist), i=i, j=j,
                    kind=np.repeat(np.array(kind, dtype=np.int8), sizes),
                    s=(cum[i] + fs * lens[i]) / cum[-1] % 1.0,
                    t=(cum[j] + ft * lens[j]) / cum[-1] % 1.0,
                    doubly=np.repeat(np.array(doubly, dtype=bool), sizes))


# ---------------------------------------------------------------------------
# the edge-pair quadratic
# ---------------------------------------------------------------------------
#
# For row edges i and column edges j the squared distance between
# P_i + s E_i and P_j + t E_j is
#   d^2(s, t) = w2 + a s^2 + c t^2 + 2 (c1 s - c2 t - b s t)
# with a = |E_i|^2, c = |E_j|^2 and w0 = P_i - P_j contracted into w2, b,
# c1, c2, so no (rows, n, 3) displacement array outlives the row block.
# Pairs come as index arrays I, J that broadcast together: a row block
# against every column, or flat lists of kept pairs.  All of it is
# elementwise in the pair but the matmul b, formed by _gram for a whole row
# block against every column and then gathered, because a matmul over a
# subset of the columns may round differently and the scans' minima must
# agree bit for bit.  (An elementwise b would serve both scans alike, but
# near contact the quadratic form carries b's rounding into dcsd.)  The
# edge gap alone (_gathered_gap) takes b as an elementwise dot.


def _pair_ok(I, J, n: int):
    """Pairs i < j of non-adjacent edges (cyclic index gap at least 2)."""
    d = J - I
    return (d >= 2) & (d <= n - 2)


def _dot(x, y):
    return np.einsum("...k,...k->...", x, y)


def _workspace(n: int) -> np.ndarray:
    """A scan's scratch: three rows, each room for _BLOCK rows of up to
    n + _BLOCK - 1 columns, a covering-round window's width.  Arrays are
    carved from the start of a row, contiguous, as np.matmul and np.take
    write into a strided out through a temporary."""
    return np.empty((3, _BLOCK * (n + _BLOCK)))


def _gram(E, rows: slice, workspace):
    """b = E_i . E_j of a row block against every column, into workspace."""
    # matmul rounds differently when its operands share a start address, as
    # the first row block of E and E's transpose would; the copy avoids it
    Ei, n = E[rows].copy(), E.shape[0]
    return np.matmul(Ei, E.T, out=workspace[0, :len(Ei) * n].reshape(len(Ei), n))


def _quadratic(Vi, Vj, Ei, Ej):
    """(w0, w2, c1, c2) from the vertices and edges of rows and columns."""
    w0 = Vi - Vj
    return w0, _dot(w0, w0), _dot(Ei, w0), _dot(Ej, w0)


def _stationary(a, b, c, c1, c2, rel: float):
    """(s, t, ok): the quadratic's stationary point where ok, a c - b^2 >
    rel a c, and finite but meaningless values elsewhere."""
    denom = a * c - b * b
    ok = denom > rel * a * c
    safe_den = np.where(ok, denom, a * c)     # no overflow in the unused lanes
    return (b * c2 - c * c1) / safe_den, (a * c2 - b * c1) / safe_den, ok


def _square_min(d2_at, sides, inside, interior):
    """Minimum of a convex quadratic over the unit square, given its value
    function: the best of the four sides (each a clamped 1-d projection)
    and, where it lies inside, the stationary point."""
    d2 = reduce(np.minimum, [d2_at(s, t) for s, t in sides])
    return np.where(inside, np.minimum(d2, d2_at(*interior)), d2)


def _gap2(Ei, Ej, a, c, mask, w0, b, w2, c1, c2):
    """Squared distance between the edges of each pair in mask, +inf
    elsewhere; Ei, Ej are the pairs' edge vectors, shaped as w0, and a, c
    their E . E.  Edges that cross read a gap at rounding level at any
    angle between them."""
    sides = [(0.0, np.clip(c2 / c, 0.0, 1.0)), (1.0, np.clip((c2 + b) / c, 0.0, 1.0)),
             (np.clip(-c1 / a, 0.0, 1.0), 0.0), (np.clip((b - c1) / a, 0.0, 1.0), 1.0)]
    s_in, t_in, ok = _stationary(a, b, c, c1, c2, 1e-14)
    inside = ok & (s_in >= 0.0) & (s_in <= 1.0) & (t_in >= 0.0) & (t_in <= 1.0)
    d2 = _square_min(
        lambda s, t: w2 + a * s * s + c * t * t + 2.0 * (c1 * s - c2 * t - b * s * t),
        sides, inside, (s_in, t_in))
    d2 = np.where(mask, d2, np.inf)
    # the quadratic form loses sqrt(eps) of accuracy by cancellation where a
    # pair nearly touches; measure those pairs from displacement vectors, at
    # an interior foot on edge i from cross products, which lose eps/sin of
    # the edges' angle where the normal equations lose eps/sin^2 and drop
    # crossings below about 1e-7 rad as parallel, and that point's foot on j
    near = np.nonzero(d2 <= 1e-4 * (w2 + a + c))
    if near[0].size:
        W, Ei, Ej = w0[near], Ei[near], Ej[near]

        def at(x):
            return np.broadcast_to(x, d2.shape)[near]

        def exact(s, t):
            D = W + s[:, None] * Ei - t[:, None] * Ej
            return np.einsum("ik,ik->i", D, D)

        N = np.cross(Ei, Ej)
        N2 = _dot(N, N)
        s = np.clip(-_dot(np.cross(W, Ej), N) / np.where(N2 > 0.0, N2, 1.0), 0.0, 1.0)
        t = np.clip(_dot(W + s[:, None] * Ei, Ej) / at(c), 0.0, 1.0)
        d2[near] = _square_min(exact, [(at(x), at(y)) for x, y in sides], N2 > 0.0, (s, t))
    return d2


def _reach(r: float, h: float, length: float) -> float:
    """Midpoint distance within which edges no longer than h may come within
    r of each other, padded for the tie window at that length and rounding."""
    return r + _TIE * length + h + _PAD * (r + 4.0 * h)


def _midpoints(V: np.ndarray) -> np.ndarray:
    """Edge midpoints of each frame of the vertex stack V, (..., n, 3),
    centred on the frame's vertex mean: less rounding."""
    E = V.take(np.arange(1, V.shape[-2] + 1), axis=-2, mode="wrap") - V    # as Polygon.edges
    return V - V.mean(axis=-2, keepdims=True) + 0.5 * E


def _near_pairs(M: np.ndarray, reach: float):
    """(F, I, J): the non-adjacent pairs i < j of each frame f of the
    midpoint stack M, (frames, n, 3), whose midpoints lie within reach.
    Every edge's neighbours are within reach, and on a finely inscribed
    curve they are most of the pairs the tree finds, so they are dropped
    here.  One tree holds every frame, frame f shifted by f K along x,
    where K = 2 (|M|_max + reach) leaves twice the reach between frames,
    so that no pair joins two; the shift rounds a distance by about
    eps f K, far inside _reach's padding, and frame 0's is 0."""
    frames, n = M.shape[:2]
    M = M + np.arange(frames)[:, None, None] * [2.0 * (np.abs(M).max() + reach), 0.0, 0.0]
    I, J = cKDTree(M.reshape(-1, 3)).query_pairs(reach, output_type="ndarray").T   # I < J
    ok = _pair_ok(I, J, n)           # the pairs of one frame: J - I = j - i
    return I[ok] // n, I[ok] % n, J[ok] % n


def _gathered_gap(V: np.ndarray, F, I, J) -> float:
    """The smallest distance between edges I and J of frames F of the vertex
    stack V, (frames, n, 3), or +inf; every pair i < j must be non-adjacent,
    as _near_pairs gathers them.  Edge k runs from vertex k to k+1, as in
    Polygon.edges."""
    n = V.shape[1]
    Vi, Vj = V[F, I], V[F, J]
    Ei, Ej = V[F, (I + 1) % n] - Vi, V[F, (J + 1) % n] - Vj
    w0, w2, c1, c2 = _quadratic(Vi, Vj, Ei, Ej)
    d2 = _gap2(Ei, Ej, _dot(Ei, Ei), _dot(Ej, Ej), True, w0, _dot(Ei, Ej), w2, c1, c2)
    return math.sqrt(max(float(d2.min(initial=np.inf)), 0.0))


def _clear(p: Polygon, V: np.ndarray, clearance: float) -> bool:
    """True iff every frame of the vertex stack V, (frames, n, 3), of p or
    of p turned by rigid moves, keeps each pair of non-adjacent edges
    farther apart than clearance.  A pair whose edges come within it has
    its midpoints within _reach(clearance, h_max), h_max and the length
    being p's; _near_pairs gathers those from every frame at once, and
    _gathered_gap measures them _BATCH pairs at a time, which keeps the
    kernel's temporaries below glibc's 128 kB mmap threshold, so the heap
    reuses them.  It stops at the first batch at or under the clearance,
    and calls no kernel when no pair is near."""
    reach = _reach(clearance, float(p.edge_lengths.max()), p.length)
    F, I, J = _near_pairs(_midpoints(V), reach)
    return all(_gathered_gap(V, F[k:k + _BATCH], I[k:k + _BATCH], J[k:k + _BATCH])
               > clearance for k in range(0, F.size, _BATCH))


# ---------------------------------------------------------------------------
# the pair scan: one family kernel, two enumerations
# ---------------------------------------------------------------------------


def _families(out: _Collector, p: Polygon, I, J, b, singly: bool):
    """Evaluate every candidate family on the pairs (I, J) into out.

    Families:
      edge-edge      mutual perpendicular feet inside non-adjacent edges,
                     plus one representative per overlapping parallel pair;
                     always doubly.
      vertex-edge    perpendicular foot of a vertex inside a non-incident
                     edge; doubly iff the vertex-side sign test passes, else
                     singly (the edge side alone is critical).
      vertex-vertex  both vertex sign tests -> doubly, exactly one -> singly.
      family end     (singly mode only) edge points seen perpendicularly by
                     one one-sided direction of a vertex.  These close off the
                     one-parameter families of perpendicular-foot pairs whose
                     foot slides off an edge end, where the family distance
                     can keep decreasing right up to the (open) boundary.

    Row i stands for edge i and for its start vertex, column j likewise.
    Pairs whose two points share an edge are excluded (which also removes
    all arc-distance < edge-length configurations), as are edge-edge pairs
    on cyclically adjacent edges, whose minima collapse into the shared
    vertex.
    """
    V, E, lens, dirs = p.vertices, p.edges, p.edge_lengths, p.directions()
    n = V.shape[0]
    pair_ok = _pair_ok(I, J, n)
    Ei, Ej = E.take(I, axis=0), E.take(J, axis=0)
    w0, w2, c1, c2 = _quadratic(V.take(I, axis=0), V.take(J, axis=0), Ei, Ej)
    a, c = lens[I] * lens[I], lens[J] * lens[J]
    um, up = dirs.take((I - 1) % n, axis=0), dirs.take(I, axis=0)     # u-_i, u+_i
    um_w, up_w, um_E, up_E = _dot(um, w0), _dot(up, w0), _dot(um, Ej), _dot(up, Ej)
    vm_w = -_dot(dirs.take((J - 1) % n, axis=0), w0)    # <u-_j, -w0>
    vp_w = -_dot(dirs.take(J, axis=0), w0)              # <u+_j, -w0>
    del w0

    def d2_at(s, t):
        return w2 + a * s * s + c * t * t + 2.0 * (c1 * s - c2 * t - b * s * t)

    def foot_dist(f):      # row vertex to the point f along column edge
        return np.sqrt(np.maximum(w2 - 2.0 * f * c2 + f * f * c, 0.0))

    # ---- edge-edge -----------------------------------------------------
    s_star, t_star, skew = _stationary(a, b, c, c1, c2, 1e-12)
    inr = (pair_ok & skew
           & (s_star >= -PARAM_TOL) & (s_star <= 1.0 + PARAM_TOL)
           & (t_star >= -PARAM_TOL) & (t_star <= 1.0 + PARAM_TOL))
    sc = np.clip(s_star, 0.0, 1.0)
    tc = np.clip(t_star, 0.0, 1.0)
    dist = np.sqrt(np.maximum(d2_at(sc, tc), 0.0))
    out.add(I, J, inr, dist, sc, tc, 2, True)

    # parallel overlap representative: project edge-j ends on the i axis
    tau0 = -c1 / a
    tau1 = (b - c1) / a
    lo = np.maximum(np.minimum(tau0, tau1), 0.0)
    hi = np.minimum(np.maximum(tau0, tau1), 1.0)
    has = pair_ok & ~skew & (hi >= lo - PARAM_TOL)
    if np.any(has):
        smid = np.clip(0.5 * (lo + hi), 0.0, 1.0)
        tmid = np.clip((c2 + smid * b) / c, 0.0, 1.0)
        distp = np.sqrt(np.maximum(d2_at(smid, tmid), 0.0))
        out.add(I, J, has, distp, smid, tmid, 2, True)

    # ---- vertex(row) - edge(col): d^2(f) = w2 - 2 f c2 + f^2 c ----------
    foot = c2 / c
    not_incident = (J != I) & (J != (I - 1) % n)
    inr_f = (foot >= -PARAM_TOL) & (foot <= 1.0 + PARAM_TOL) & not_incident
    fc = np.clip(foot, 0.0, 1.0)
    # a foot at an edge end is that vertex; drop it when it shares an
    # edge with the row vertex (the vertex-vertex family owns the rest)
    at0 = fc <= _MEMBER_EPS
    at1 = fc >= 1.0 - _MEMBER_EPS
    inr_f &= ~(at0 & (J == (I + 1) % n))
    inr_f &= ~(at1 & (J == (I - 2) % n))
    dq = foot_dist(fc)
    safe = np.where(dq > 0.0, dq, 1.0)
    am = (um_w - fc * um_E) / safe
    ap = (up_w - fc * up_E) / safe
    vert_ok = _extremal(am, ap, _EXTREMAL_TOL)
    out.add(I, J, inr_f & vert_ok, dq, 0.0, fc, 1, True)
    if singly:
        out.add(I, J, inr_f & ~vert_ok, dq, 0.0, fc, 1, False)

    # ---- vertex - vertex -------------------------------------------------
    dvv = np.sqrt(w2)                                  # |V_k - V_j|
    safe_v = np.where(dvv > 0.0, dvv, 1.0)
    degenerate = dvv == 0.0
    e1 = _extremal(um_w / safe_v, up_w / safe_v, _EXTREMAL_TOL) | degenerate
    e2 = _extremal(vm_w / safe_v, vp_w / safe_v, _EXTREMAL_TOL) | degenerate
    out.add(I, J, pair_ok & e1 & e2, dvv, 0.0, 0.0, 0, True)
    if singly:
        out.add(I, J, pair_ok & (e1 ^ e2), dvv, 0.0, 0.0, 0, False)

    # ---- family ends: one-sided perpendicular sight from a vertex -------
    # An edge point y with (V_k - y) perpendicular to one of V_k's edge
    # directions bounds the continuum {(x, foot of x): foot interior} that
    # sweeps past V_k; the family's distances reach their infimum at this
    # boundary even when the boundary pair itself has a descending other
    # side, so no sign condition is applied here.
    if singly:
        for u_w, u_E in ((um_w, um_E), (up_w, up_E)):
            good = np.abs(u_E) > 1e-15 * lens[J]
            tm = np.where(good, u_w / np.where(good, u_E, 1.0), -1.0)
            interior = (tm >= PARAM_TOL) & (tm <= 1.0 - PARAM_TOL)
            keep0 = interior & not_incident
            if not np.any(keep0):
                continue
            tmc = np.clip(tm, 0.0, 1.0)
            out.add(I, J, keep0, foot_dist(tmc), 0.0, tmc, 1, False)


def _scan(p: Polygon, singly: bool, window: float | None = None) -> _Collector:
    """Every critical-pair candidate of p: _families over all n^2 pairs,
    one row block against every column at a time, into a _Collector with
    that window."""
    idx, out = np.arange(p.n), _Collector(p.edge_lengths, window)
    workspace = _workspace(p.n)
    for r0 in range(0, p.n, _BLOCK):
        rows = slice(r0, r0 + _BLOCK)
        _families(out, p, idx[rows, None], idx[None, :],
                  _gram(p.edges, rows, workspace), singly)
    return out


def _turning_window(p: Polygon, min_turn: float):
    """Per row i, the range lo..hi of m = (j - i) mod n for which both arcs
    joining edge i to edge j may turn min_turn.  Each arc is bounded by
    every vertex either of its points can sit at: i .. j+1 forward, which
    grows with m, and j .. i+1 back, which shrinks."""
    n = p.n
    A = np.concatenate([[0.0], np.cumsum(np.tile(p.exterior_angles(), 3))])
    i = np.arange(n)
    lo = np.searchsorted(A, A[i] + min_turn) - i - 2
    hi = np.searchsorted(A, A[i + n + 2] - min_turn, side="right") - 1 - i
    return lo, hi


def _spheres(X: np.ndarray, s: int, slack: float):
    """(centres, radii) of the bounding spheres of the chunks of s
    consecutive rows of X, the last one possibly shorter, each radius
    padded by slack for the spheres' rounding."""
    starts = np.arange(0, len(X), s)
    sizes = np.diff(starts, append=len(X))
    centres = np.add.reduceat(X, starts) / sizes[:, None]
    D = X - np.repeat(centres, sizes, axis=0)
    return centres, np.sqrt(np.maximum.reduceat(_dot(D, D), starts)) + slack


def _run_ranges(lo, hi, w: int):
    """(first, last) of each run of w consecutive rows, run k being rows
    k w .. (k + 1) w - 1 cut at n: the window columns i + lo_i .. i + hi_i
    of the run's rows lie in the cyclic range first .. last, taken mod n,
    which lies in 0 .. 2n - 2 when every lo_i .. hi_i lies in 0 .. n - 1."""
    idx = np.arange(len(lo))
    return np.minimum.reduceat(idx + lo, idx[::w]), np.maximum.reduceat(idx + hi, idx[::w])


def _meets(first, last, C, w: int, n: int):
    """Whether the runs C of w consecutive columns, cut at n, meet the
    cyclic ranges first .. last, taken mod n, of _run_ranges.  As a range
    lies in 0 .. 2n - 2, a run meets it as it is or shifted by n; a run
    wider than one may pass an empty range."""
    c0, c1 = C * w, np.minimum(C * w + w, n) - 1
    return ((c0 <= last) & (c1 >= first)) | ((c0 + n <= last) & (c1 + n >= first))


def _reach_bounds(p: Polygon, M: np.ndarray, span: float):
    """(u-, u+, fa, ga, gb, fb) of _perpendicular: a midpoint y is out of
    reach of vertex k when y . u-_k > fa_k and y . u+_k > ga_k, or
    y . u+_k < gb_k and y . u-_k < fb_k."""
    h, dirs = p.edge_lengths, p.directions()
    sigma = 1e-6 * (span + float(h.max()) + float(np.abs(p.vertices).max()))
    e = 0.5 * float(h.max()) + sigma
    um = np.roll(dirs, 1, axis=0)                      # u-_k = u+_(k-1)
    Vc = M - 0.5 * p.edges
    um_V, up_V = _dot(um, Vc), _dot(dirs, Vc)
    return um, dirs, um_V + e, up_V + h + e, up_V - e, um_V - np.roll(h, 1) - e


def _perpendicular(p: Polygon, singly: bool, M: np.ndarray, span: float,
                   workspace):
    """The perpendicularity filter of the pruned scan: keep(R, J, b) is the
    mask of pairs to keep among rows R and columns J, with b the rows' Gram
    block against every column.  M holds the edge midpoints, centred on
    the vertices' mean, and span is twice the largest of their norms.
    keep forms its midpoint projections and its columns of b in rows 1
    and 2 of workspace, and allocates boolean masks only.

    A point y is out of reach of vertex k when, with F = (y - V_k) . u-_k
    and G = (y - V_k) . u+_k, either F > 0 and G > h_k (past the far end of
    edge k, ahead of V_k) or G < 0 and F < -h_(k-1) (before the start of
    edge k-1, behind V_k).  Every candidate of _families that is critical
    at its row end (a vertex extremal toward the other point, a family end,
    or a mutual perpendicular foot inside edge i) has its column point
    within reach of i, and likewise at the column end.  The row side keeps
    pairs whose edge j may meet the reach of i, judged from its midpoint
    with slack h_max/2 + sigma; the column side swaps the roles.  Doubly
    candidates need both sides, singly ones either.  sigma covers the
    kernel's tolerances (PARAM_TOL h, _EXTREMAL_TOL d) and the rounding of
    both computations, which grows with the vertices' size.  Near-parallel
    pairs are always kept: there the quadratic's feet lose about
    eps d / (h sin^2 theta), so the kernel's verdict need not match the
    geometry.  The covering round calls keep only on the columns of the
    chunks that _chunk_cull's mask leaves to the row block, which hold
    every pair keep keeps; _reach_bounds forms the region bounds for both.
    """
    h = p.edge_lengths
    um, dirs, fa, ga, gb, fb = _reach_bounds(p, M, span)
    parallel = (1.0 - _PARALLEL) * h * h * float(h.min()) ** 2

    def out_of_reach(F, G, k):
        return ((F > fa[k]) & (G > ga[k])) | ((G < gb[k]) & (F < fb[k]))

    def keep(R, J, b):
        F, G = (workspace[k, :R.size * J.size].reshape(R.size, J.size) for k in (1, 2))
        out_row = out_of_reach(np.matmul(um[R], M[J].T, out=F),
                               np.matmul(dirs[R], M[J].T, out=G), (R, None))
        out_col = out_of_reach(np.matmul(M[R], um[J].T, out=F),
                               np.matmul(M[R], dirs[J].T, out=G), J)
        out = (out_row & out_col) if singly else (out_row | out_col)
        # b[:, J] reads slowly from the huge pages numpy advises here; mode
        # "clip" (J = U % n is in range) writes into F, "raise" buffers
        bj = np.take(b, J, axis=1, out=F, mode="clip")
        return ~out | (np.multiply(bj, bj, out=bj) >= parallel[R, None])

    return keep


def _chunks_out_of_reach(p: Polygon, M: np.ndarray, s: int, span: float) -> np.ndarray:
    """A[k, C], over vertices k and the chunks C of s consecutive midpoints
    M, the last possibly shorter: _perpendicular's row side rejects every
    pair (k, j) with j in C.

    It holds when C's bounding sphere, of centre c and radius rho, lies
    wholly in one of vertex k's out-of-reach regions, that is c . u -+ rho
    clears both bounds of the region, and no edge of C can be parallel to
    edge k.  With e and q the centre and radius of the sphere of C's edge
    vectors, |E_k x E_j| >= |E_k x e| - h_k q and |E_k x e|^2 >= h_min^2
    |e|^2 - (E_k . e)^2; a cross product above t, with t^2 = h_max^2
    (h_max^2 - (1 - _PARALLEL) h_min^2), puts b^2 below the parallel
    threshold of either edge.  The radii are padded by 1e-9 of the span
    and of 2 h_max, far above the rounding of either test."""
    n, h = p.n, p.edge_lengths
    hmax, hmin = float(h.max()), float(h.min())
    um, up, fa, ga, gb, fb = _reach_bounds(p, M, span)
    c, rho = _spheres(M, s, 1e-9 * span)
    sphere, Y = np.column_stack([c, np.ones(len(c)), rho]), np.empty((n, len(c)))

    def beyond(u, bound, sign):        # u_k . c_C - bound_k + sign rho_C, into Y
        return np.matmul(np.column_stack([u, -bound, np.full(n, sign)]), sphere.T, out=Y)

    A = (beyond(um, fa, -1.0) > 0.0) & (beyond(up, ga, -1.0) > 0.0)
    A |= (beyond(up, gb, 1.0) < 0.0) & (beyond(um, fb, 1.0) < 0.0)
    e, q = _spheres(p.edges, s, 2e-9 * hmax)
    t = math.sqrt(hmax * hmax * (hmax * hmax - (1.0 - _PARALLEL) * hmin * hmin))
    Ee = np.matmul(p.edges, e.T, out=Y)
    A &= np.multiply(Ee, Ee, out=Ee) < hmin * hmin * _dot(e, e) - (t + hmax * q) ** 2
    return A


def _chunk_cull(p: Polygon, singly: bool, M: np.ndarray, first, last, s: int,
                span: float) -> np.ndarray:
    """needed[q, Q], over the row blocks q and the chunks Q of s
    consecutive midpoints M: the chunks that block q's window range
    first[q] .. last[q] meets, less those in which _perpendicular rejects
    every pair of the block's rows.

    Row i's side of chunk Q is A[i, Q] of _chunks_out_of_reach.  Its
    column side is A[j, P] for every vertex j of Q, P being the chunk
    that holds midpoint i: one logical_and.reduceat of A over Q's rows.
    Row i drops Q when both sides hold (singly) or either does (doubly),
    as _perpendicular drops a pair, and a block drops Q when each of its
    rows does: one logical_and.reduceat over the block's rows."""
    idx = np.arange(p.n)
    A = _chunks_out_of_reach(p, M, s, span)
    B = np.logical_and.reduceat(A, idx[::s], axis=0)     # B[Q, P]
    drops = (np.logical_and if singly else np.logical_or)(A, B[:, idx // s].T)
    met = _meets(first[:, None], last[:, None], np.arange(len(B)), s, p.n)
    return met & ~np.logical_and.reduceat(drops, idx[::_BLOCK], axis=0)


def _doubly_seed(p: Polygon, M: np.ndarray, lo, hi, s: int, workspace) -> float:
    """An upper bound on dcsd read off the pairs near the closest window
    midpoints, or +inf.

    The midpoint pairs inside the turning window (lo, hi) are searched
    coarse to fine: a grid of stride s, the chunk size isqrt(n), then +-s
    around its nearest pair.  The doubly families of a +-4 patch around
    that pair, in both orientations as _families gives edge-edge pairs to
    the lower row, are evaluated on b formed as _scan forms it, into
    workspace, so the bound is the distance of a doubly candidate of the
    dense scan; +inf when the patch holds none."""
    n = p.n

    def nearest(I, J):
        I, J = I[:, None] % n, J[None, :] % n
        m, D = (J - I) % n, M[I] - M[J]
        d2 = np.where((m >= lo[I]) & (m <= hi[I]), _dot(D, D), np.inf)
        k, l = np.unravel_index(np.argmin(d2), d2.shape)
        return I[k, 0], J[0, l]

    grid = np.arange(0, n, s)
    i, j = nearest(grid, grid)
    i, j = nearest(np.arange(i - s, i + s + 1), np.arange(j - s, j + s + 1))
    a, c = (i + np.arange(-4, 5)) % n, (j + np.arange(-4, 5)) % n
    I = np.concatenate([np.repeat(a, a.size), np.repeat(c, c.size)])
    J = np.concatenate([np.tile(c, a.size), np.tile(a, c.size)])
    b, blocks = np.empty(I.size), I // _BLOCK
    for q in np.unique(blocks):
        k, r0 = blocks == q, q * _BLOCK
        b[k] = _gram(p.edges, slice(r0, r0 + _BLOCK), workspace)[I[k] - r0, J[k]]
    out = _Collector(p.edge_lengths, -math.inf)
    _families(out, p, I, J, b, False)
    return out.doubly_min


def _node_pairs(M: np.ndarray, lo, hi, w: int, R, C, reach: float, slack: float):
    """The pairs (R, C) of runs of w consecutive midpoints, run k being
    k w .. (k + 1) w - 1 cut at n, that survive one level of _ring_descent:
    column run C meets the cyclic range of row run R's window columns, and
    the runs' bounding spheres, padded by slack, come within reach.  Runs
    of one midpoint take the exact test |M_i - M_j|^2 <= reach^2, summed
    as cKDTree sums it; their pairs come back with that d2."""
    first, last = (x.take(R) for x in _run_ranges(lo, hi, w))
    near = _meets(first, last, C, w, len(M))
    R, C = R[near], C[near]
    if w > 1:
        centres, radii = _spheres(M, w, slack)
        D = centres.take(R, axis=0) - centres.take(C, axis=0)
        near = np.sqrt(_dot(D, D)) <= reach + radii.take(R) + radii.take(C)
        return R[near], C[near]
    D = M.take(R, axis=0) - M.take(C, axis=0)
    d2 = D[:, 0] * D[:, 0] + D[:, 1] * D[:, 1] + D[:, 2] * D[:, 2]
    near = d2 <= reach * reach
    return R[near], C[near], d2[near]


def _ring_descent(M: np.ndarray, lo, hi, blocks, reach: float, slack: float) -> dict:
    """{q: (i, j, d2)} for the row blocks q in blocks, ascending: the pairs
    of midpoints with i in block q, (j - i) mod n in lo_i .. hi_i and
    d2 = |M_i - M_j|^2 <= reach^2, as _node_pairs' exact test reads it.

    A level-synchronous dual-tree descent (Gray & Moore, NIPS 2000): its
    nodes are the runs of consecutive midpoints of _BLOCK, halved while
    the width is even, then 1, so 96, 48, 24, 12, 6, 3 and 1, each run
    nested in a row block.  It starts from each block against every run of
    _BLOCK columns, keeps the node pairs _node_pairs lets through, and
    splits those into their sub-runs' pairs for the next level.  The
    spheres of a level are formed once, as all of its pairs are tested at
    once, and children follow their parent, so each block's pairs come out
    together, in the order of blocks."""
    n, w, count = len(M), _BLOCK, -(-len(M) // _BLOCK)
    R, C = np.repeat(blocks, count), np.tile(np.arange(count), len(blocks))
    while True:
        pairs = _node_pairs(M, lo, hi, w, R, C, reach, slack)
        if w == 1:
            break
        f, (R, C) = (2 if w % 2 == 0 else w), pairs      # f sub-runs per run
        w, kids = w // f, np.arange(f)
        R = np.repeat(f * R, f * f) + np.tile(np.repeat(kids, f), R.size)
        C = np.repeat(f * C, f * f) + np.tile(kids, f * C.size)
        inside = (R < -(-n // w)) & (C < -(-n // w))    # the last run may hold fewer
        R, C = R[inside], C[inside]
    cuts = np.searchsorted(pairs[0] // _BLOCK, blocks[1:])
    return dict(zip(blocks.tolist(), zip(*(np.split(x, cuts) for x in pairs))))


def _ring_pairs(M: np.ndarray, tree: cKDTree, r0: int, reach: float):
    """(i, j) of the midpoint pairs within reach, i in the row block from
    r0: one query of the block's tree against the tree over all
    midpoints."""
    near = cKDTree(M[r0:r0 + _BLOCK]).sparse_distance_matrix(tree, reach,
                                                             output_type="ndarray")
    return near["i"] + r0, near["j"]


def _pruned_scan(p: Polygon, singly: bool, window: float | None = None) -> _Collector:
    """The candidates of _scan that can decide its minima, in one round,
    into a _Collector with that window.

    A candidate at distance d joins edges whose midpoints are at most
    d + h_max apart, and both arcs between a doubly critical pair turn at
    least pi (pi/2 for a singly critical one: its chord is perpendicular
    to a tangent or a one-sided vertex direction at one end).  r is
    _doubly_seed's bound on dcsd, found on a grid of stride s = isqrt(n).
    Both rounds work per row block q, whose window columns lie in one
    cyclic range first[q] .. last[q] of _run_ranges.  When the _reach of
    r falls short of the span, the ring round takes, per row block, the
    turning window's pairs whose midpoint distance is within _reach of
    r, or of the best doubly pair so far when that is closer.
    The blocks whose range leaves out more than two blocks of columns
    take them from one _ring_descent per scan, run at the reach of r
    before the first block; each block keeps those of its pairs within
    the reach of the moment.  Any other block queries one tree over all
    midpoints (_ring_pairs), built on first use, and its window drops the
    rest: such a range holds most of the rows' arc neighbours, where one
    query costs less than a descent.  _families sees the same pairs
    either way.
    The seed's own pair is in the window and within reach, so the round
    finds it again and ends with a doubly pair within r, which settles
    the minima, as scsd <= dcsd.  Otherwise, r being +inf included, the
    covering round takes the window columns that pass _perpendicular, and
    forms that filter only on the columns of the chunks of s midpoints
    that _chunk_cull's mask leaves to the block: the chunks out of reach
    of every row, which the filter would reject pair by pair, are dropped
    whole.  A block whose window range spans at most two blocks of
    columns, as every block of the regular n-gon's doubly round does,
    skips the cull, whose cost there exceeds what it could drop; the cull
    is built on first use.  b is formed per row block as in _scan, so the
    minima and the achieving pair are the dense scan's bit for bit.

    Either round adds each block's kept pairs, with b.take of them from
    that block's product, to a pending batch, and flushes it through
    _families once it holds _BATCH pairs, and once after the last block.
    A call so holds fewer than _BATCH pairs plus one block's, and a block
    is never split: one that fills a batch alone goes through alone.  The
    kernel is elementwise in the pair, and a full tie in
    _min_with_tiebreak joins candidates of one pair, whose family order a
    batch keeps, so batching moves no minimum and no achieving pair; nor
    does it move the collector's window, as the candidates within it of
    the final minimum are kept however the batches fall.  The
    ring's reach follows out.doubly_min as of the last flush; a pair it
    keeps that a fresher reach would drop lies beyond reach of a doubly
    pair already found, so it decides no minimum either.

    Each block's b goes to one workspace that lives for the scan, and the
    covering round's filter works in its other two rows: glibc hands a
    float array of that size back to the OS, to be faulted in afresh on
    every block, unless a larger freed block has raised its trim threshold
    (README has the measurements).
    """
    n, h, idx = p.n, float(p.edge_lengths.max()), np.arange(p.n)
    M = _midpoints(p.vertices)
    span = 2.0 * float(np.linalg.norm(M, axis=1).max())
    lo, hi = _turning_window(p, (0.5 if singly else 1.0) * math.pi - _TURN_SLACK)
    lo, hi = np.maximum(lo, 0), np.minimum(hi, n - 1)         # m lies in 0 .. n-1
    s, (first, last) = math.isqrt(n), _run_ranges(lo, hi, _BLOCK)
    workspace, out, pending = _workspace(n), _Collector(p.edge_lengths, window), []
    r = _doubly_seed(p, M, lo, hi, s, workspace)
    ring = _reach(r, h, p.length) < span                      # beyond span every pair is in
    if ring:
        narrow = np.flatnonzero(last - first + 1 < n - 2 * _BLOCK)
        near = _ring_descent(M, lo, hi, narrow, _reach(r, h, p.length),
                             1e-9 * span) if narrow.size else {}
        tree = cache(lambda: cKDTree(M))
    else:
        perpendicular = _perpendicular(p, singly, M, span, workspace)
        cull = cache(lambda: _chunk_cull(p, singly, M, first, last, s, span))

    def flush():     # a lone block goes as it is, uncopied
        batch = pending[0] if len(pending) == 1 else map(np.concatenate, zip(*pending))
        _families(out, p, *batch, singly)
        pending.clear()

    for r0 in range(0, n, _BLOCK):
        q, rows, b = r0 // _BLOCK, slice(r0, r0 + _BLOCK), None
        if ring:
            reach = _reach(min(r, out.doubly_min), h, p.length)
            if q in near:
                i, j, d2 = near[q]
                keep = d2 <= reach * reach
            else:
                i, j = _ring_pairs(M, tree(), r0, reach)
                m = (j - i) % n
                keep = (m >= lo[i]) & (m <= hi[i])
            flat = (i[keep] - r0) * n + j[keep]
        else:
            # columns i + lo .. i + hi of every row i, unrolled into U
            R, b = idx[rows], _gram(p.edges, rows, workspace)
            U = np.arange(first[q], last[q] + 1)
            if U.size > 2 * _BLOCK:     # a narrower range leaves the cull little to drop
                U = U[cull()[q, U % n // s]]
            ri, k = np.nonzero((U >= (R + lo[rows])[:, None]) & (U <= (R + hi[rows])[:, None])
                               & perpendicular(R, U % n, b))
            flat = ri * n + U[k] % n
        if flat.size:
            b = _gram(p.edges, rows, workspace) if b is None else b
            pending.append((flat // n + r0, flat % n, b.take(flat)))
            if sum(I.size for I, _, _ in pending) >= _BATCH:
                flush()
    if pending:
        flush()
    return out


def _minimum_scan(p: Polygon, singly: bool, window: float) -> _Collector:
    """The scan behind delta_n, dcsd, scsd and the objective: dense below
    _CROSSOVER edges, pruned from there on; the results agree bitwise.
    Its _Collector has that window, -inf to keep no candidate."""
    if p.n < _CROSSOVER:
        return _scan(p, singly, window)
    return _pruned_scan(p, singly, window)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def _pair_at(arr: dict, k: int) -> CriticalPair:
    """Candidate k of a scan as a CriticalPair, normalised so s <= t."""
    s, t = float(arr["s"][k]), float(arr["t"][k])
    i, j = int(arr["i"][k]), int(arr["j"][k])
    if s > t:
        s, t, i, j = t, s, j, i
    return CriticalPair(s=s, t=t, distance=float(arr["dist"][k]),
                        kind=KIND_NAMES[int(arr["kind"][k])],
                        criticality="doubly" if arr["doubly"][k] else "singly",
                        i=i, j=j)


def critical_pairs(p: Polygon, mode: str = "doubly") -> list[CriticalPair]:
    """Critical pairs of p, sorted by (distance, i, j).

    mode="doubly" returns only doubly critical pairs; mode="singly" returns
    every pair critical in at least one direction, with the criticality field
    distinguishing the two.  Duplicate detections of one geometric pair (a
    perpendicular foot landing exactly on a vertex is found by two families)
    are merged, keeping the doubly-critical classification when either
    witness provides it.
    """
    if mode not in ("doubly", "singly"):
        raise ValueError(f"mode must be 'doubly' or 'singly', got {mode!r}")
    arr = _scan(p, singly=(mode == "singly")).arrays()
    order = np.lexsort((arr["kind"], arr["j"], arr["i"], ~arr["doubly"]))
    seen: set[tuple] = set()
    pairs: list[CriticalPair] = []
    for k in order:
        q = _pair_at(arr, k)
        key = (round(q.s, 9), round(q.t, 9))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(q)
    pairs.sort(key=lambda q: (q.distance, q.i, q.j))
    return pairs


def _min_with_tiebreak(arr: dict, mask: np.ndarray, tie: float):
    """(min distance, winning index) with lexicographic (i, j) tie-break
    among the distances within tie of the minimum."""
    if not np.any(mask):
        return float("inf"), None
    cand = np.nonzero(mask)[0]
    d = arr["dist"][cand]
    dmin = float(d.min())
    near = cand[d <= dmin + tie]
    ii, jj = arr["i"][near], arr["j"][near]
    ss, tt = arr["s"][near], arr["t"][near]
    # normalise labels the way critical_pairs() reports them
    swap = ss > tt
    ii2 = np.where(swap, jj, ii)
    jj2 = np.where(swap, ii, jj)
    # a vertex and the edge it sees, found from either end, tie on every
    # label; the finding row decides, as it comes first in the dense scan
    pick = near[np.lexsort((ii, arr["kind"][near], jj2, ii2))[0]]
    return dmin, int(pick)


def dcsd(p: Polygon) -> float:
    """Doubly critical self distance; +inf when no doubly critical pair
    exists.  From _CROSSOVER edges on it comes from the pruned scan."""
    return _minimum_scan(p, False, -math.inf).min


def scsd(p: Polygon) -> float:
    """Infimum of distance over pairs critical in at least one direction.

    Pairs critical in exactly one direction come in one-parameter families;
    where such a family terminates (its perpendicular foot sliding off an
    edge end) the infimum may sit on the boundary, so boundary pairs count.
    From _CROSSOVER edges on only pairs within the dcsd radius are scanned.
    """
    return _minimum_scan(p, True, -math.inf).min


def is_simple(p: Polygon) -> bool:
    """True iff no two non-adjacent edges, and so no two vertices, come
    within 1e-12 * length of each other: exact-contact detection only.
    _clear measures the few pairs that could come that close, and none
    when no midpoints are that near.  Edges that cross are found at any
    angle between them, as _gap2 takes the feet of near-contact pairs from
    cross products."""
    return _clear(p, p.vertices[None], _CONTACT * p.length)


# ---------------------------------------------------------------------------
# the report and the annealing objective
# ---------------------------------------------------------------------------


def delta_n(p: Polygon) -> ThicknessReport:
    """Full thickness report for a closed equilateral polygon.

    delta_n = min(min_rad, dcsd/2) for embedded polygons and exactly 0
    otherwise (coincident vertices or crossing edges).  binding says which of
    the two mechanisms attains the minimum, with ties reported as curvature;
    delta_n_alt = min(min_rad, scsd) is carried for cross-checking the
    alternative representation.  The critical pairs come from one scan,
    pruned from _CROSSOVER edges on; simple is is_simple's verdict, which
    measures only the edge pairs that could come within its clearance.
    """
    kappas = p.kappa_d_all()
    mc = float(np.max(kappas))
    # the window of an infinite mc (a fold-back) would be nan
    window = mc - 1e-12 * mc if math.isfinite(mc) else mc
    achieving_vertex = int(np.flatnonzero(kappas >= window)[0])
    mc2 = max_curv2(p)
    mr = min_rad(p)

    out = _minimum_scan(p, True, _TIE * p.length)
    arr = out.arrays()
    d_val, d_idx = _min_with_tiebreak(arr, arr["doubly"], _TIE * p.length)
    s_val = out.min

    pair = None if d_idx is None else _pair_at(arr, d_idx)

    simple = is_simple(p)
    binding = "curvature" if mr <= d_val / 2.0 else "distance"
    if simple:
        delta = min(mr, d_val / 2.0)
        alt = min(mr, s_val)
    else:
        delta = 0.0
        alt = 0.0
    inv = 1.0 / delta if delta > 0.0 else float("inf")
    return ThicknessReport(
        min_rad=mr, max_curv=mc, max_curv2=mc2, dcsd=d_val, scsd=s_val,
        delta_n=delta, inv_delta_n=inv, delta_n_alt=alt, binding=binding,
        achieving_vertex=achieving_vertex, achieving_pair=pair, simple=simple)


def inv_delta_objective(p: Polygon, clearance: float) -> float:
    """max(max_curv, 2/dcsd) of p, +inf when p is within clearance of
    self-contact or folds back.  This is the annealing objective: identical
    to 1/delta_n up to floating-point reciprocal rounding, but skips the
    singly families, pair materialisation and the report."""
    mc = float(np.max(p.kappa_d_all()))
    if math.isinf(mc) or not _clear(p, p.vertices[None], clearance):
        return float("inf")
    dv = _minimum_scan(p, False, -math.inf).min
    if dv <= 0.0:
        return float("inf")
    return max(mc, 2.0 / dv)


# ---------------------------------------------------------------------------
# curvature between pair parameters
# ---------------------------------------------------------------------------


def arc_total_curvature(p: Polygon, s: float, t: float) -> float:
    """Smaller total turning of the two polygon arcs joining parameters s, t.

    Sums the full exterior angle of every vertex strictly between the two
    points along each arc; when an endpoint sits exactly at a vertex that
    vertex's angle is included in both arcs (the turning at the pair point
    itself separates the outgoing from the incoming strand).  An s or t
    that is not finite is a ValueError.
    """
    n = p.n
    angles = p.exterior_angles()
    s, t = float(_arc_parameter("s", s)) % 1.0, float(_arc_parameter("t", t)) % 1.0
    if s > t:
        s, t = t, s
    eps = 1e-9 / n
    params = np.arange(n) / n      # equilateral: vertex k at k/n
    at_s = np.abs(params - s) < eps
    at_t = np.abs(params - t) < eps
    inside_fwd = (params > s + eps) & (params < t - eps)
    inside_bwd = ((params < s - eps) | (params > t + eps)) & ~at_s & ~at_t
    bonus = float(angles[at_s].sum() + angles[at_t].sum())
    fwd = float(angles[inside_fwd].sum()) + bonus
    bwd = float(angles[inside_bwd].sum()) + bonus
    return min(fwd, bwd)
