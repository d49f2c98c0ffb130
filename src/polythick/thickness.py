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
parameters, built once per row block by _quadratic.  The critical-pair
families are read off it, and so is the edge gap (the minimum distance
between non-adjacent edges) that decides simplicity: delta_n and the
annealing objective take both from the same pass, and _edge_gap runs the
gap alone over an optional leading batch axis for is_simple and the
annealer's sweep check.  The scan is O(n^2), blocked over rows so n = 4096
stays within a few seconds and a few hundred MB.  All candidate families
are enumerated with numpy; Python-level pair objects are only materialised
by critical_pairs().
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from functools import reduce

import numpy as np

from .polygon import Polygon, max_curv2, min_rad

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
_CONTACT = 1e-12          # default simplicity clearance, relative to length
_BLOCK = 96               # row-block size for the O(n^2) scans


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
# geometry tables
# ---------------------------------------------------------------------------


def _tables(V: np.ndarray):
    """Edge vectors, lengths, unit directions, cumulative arc lengths."""
    E = np.roll(V, -1, axis=0) - V
    lens = np.linalg.norm(E, axis=1)
    dirs = E / lens[:, None]
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    return E, lens, dirs, cum


def _extremal(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Vertex extremality from normalized one-sided derivatives a (in), b (out).

    The squared distance curves upward along each edge, so a flat one-sided
    slope can only belong to a minimum; a strict maximum needs strictly
    opposite signs.  Hence: min iff a <= tol and b >= -tol, max iff a >= tol
    and b <= -tol.
    """
    return ((a <= tol) & (b >= -tol)) | ((a >= tol) & (b <= -tol))


class _Collector:
    """Flat arrays of accepted candidates from all enumeration families."""

    def __init__(self):
        self._cols = {k: [] for k in ("dist", "i", "j", "kind", "s", "t", "doubly")}

    def add(self, mask, dist, i, j, kind, s, t, doubly: bool):
        if not np.any(mask):
            return
        cols = self._cols
        cols["dist"].append(np.broadcast_to(dist, mask.shape)[mask])
        cols["i"].append(np.broadcast_to(i, mask.shape)[mask])
        cols["j"].append(np.broadcast_to(j, mask.shape)[mask])
        count = int(mask.sum())
        cols["kind"].append(np.full(count, kind, dtype=np.int8))
        cols["s"].append(np.broadcast_to(s, mask.shape)[mask])
        cols["t"].append(np.broadcast_to(t, mask.shape)[mask])
        cols["doubly"].append(np.full(count, doubly, dtype=bool))

    def arrays(self):
        cols = self._cols
        if not cols["dist"]:
            z = np.zeros(0)
            return dict(dist=z, i=z.astype(int), j=z.astype(int),
                        kind=z.astype(np.int8), s=z, t=z, doubly=z.astype(bool))
        return dict(
            dist=np.concatenate(cols["dist"]),
            i=np.concatenate(cols["i"]).astype(int),
            j=np.concatenate(cols["j"]).astype(int),
            kind=np.concatenate(cols["kind"]),
            s=np.concatenate(cols["s"]),
            t=np.concatenate(cols["t"]),
            doubly=np.concatenate(cols["doubly"]),
        )


# ---------------------------------------------------------------------------
# the edge-pair quadratic
# ---------------------------------------------------------------------------
#
# For rows i and columns j the squared distance between P_i + s E_i and
# P_j + t E_j is
#   d^2(s, t) = w2 + a s^2 + c t^2 + 2 (c1 s - c2 t - b s t)
# with a = |E_i|^2, c = |E_j|^2 and w0 = P_i - P_j contracted into w2, b,
# c1, c2, so no (rows, n, 3) displacement array outlives the row block.
# Every function here accepts an optional leading batch axis.


def _pair_mask(n: int, rows: slice) -> np.ndarray:
    """Pairs i < j of non-adjacent edges (cyclic index gap at least 2)."""
    d = np.arange(n)[None, :] - np.arange(n)[rows, None]
    return (d >= 2) & (d <= n - 2)


def _quadratic(V: np.ndarray, E: np.ndarray, rows: slice):
    """(w0, b, w2, c1, c2) for the edges in rows against every edge."""
    w0 = V[..., rows, None, :] - V[..., None, :, :]
    # matmul rounds differently when its operands share a start address, as
    # the first row block of E and E's transpose would; the copy avoids it
    b = E[..., rows, :].copy() @ np.swapaxes(E, -1, -2)
    w2 = np.einsum("...ijk,...ijk->...ij", w0, w0)
    c1 = np.einsum("...ik,...ijk->...ij", E[..., rows, :], w0)
    c2 = np.einsum("...jk,...ijk->...ij", E, w0)
    return w0, b, w2, c1, c2


def _square_min(d2_at, sides, inside, interior):
    """Minimum of a convex quadratic over the unit square, given its value
    function: the best of the four sides (each a clamped 1-d projection)
    and, where it lies inside, the stationary point."""
    d2 = reduce(np.minimum, [d2_at(s, t) for s, t in sides])
    return np.where(inside, np.minimum(d2, d2_at(*interior)), d2)


def _block_gap2(E, lens2, rows, mask, w0, b, w2, c1, c2):
    """Smallest squared distance over the masked edge pairs of a block."""
    a = lens2[..., rows, None]
    c = lens2[..., None, :]
    sides = [(0.0, np.clip(c2 / c, 0.0, 1.0)), (1.0, np.clip((c2 + b) / c, 0.0, 1.0)),
             (np.clip(-c1 / a, 0.0, 1.0), 0.0), (np.clip((b - c1) / a, 0.0, 1.0), 1.0)]
    denom = a * c - b * b
    ok = denom > 1e-14 * a * c
    safe_den = np.where(ok, denom, 1.0)
    s_in = (b * c2 - c * c1) / safe_den
    t_in = (a * c2 - b * c1) / safe_den
    inside = ok & (s_in >= 0.0) & (s_in <= 1.0) & (t_in >= 0.0) & (t_in <= 1.0)
    d2 = _square_min(
        lambda s, t: w2 + a * s * s + c * t * t + 2.0 * (c1 * s - c2 * t - b * s * t),
        sides, inside, (s_in, t_in))
    d2 = np.where(mask, d2, np.inf)
    # the quadratic form loses sqrt(eps) of accuracy by cancellation where a
    # pair nearly touches; measure those pairs from displacement vectors
    near = np.nonzero(d2 <= 1e-4 * (w2 + a + c))
    if near[0].size:
        W, Ei, Ej = w0[near], E[..., rows, :][near[:-1]], E[near[:-2] + near[-1:]]

        def exact(s, t):
            D = (W + np.broadcast_to(s, d2.shape)[near][:, None] * Ei
                 - np.broadcast_to(t, d2.shape)[near][:, None] * Ej)
            return np.einsum("ik,ik->i", D, D)

        d2[near] = _square_min(exact, sides, inside[near], (s_in, t_in))
    return d2.min(axis=(-2, -1))


def _edge_gap(V: np.ndarray):
    """Minimum distance between non-adjacent edges of the closed polyline V.

    V is (n, 3), or a stack (..., n, 3) of polylines sharing n, in which
    case the result has the stack's shape.  +inf when no such pair exists.
    """
    n = V.shape[-2]
    E = np.roll(V, -1, axis=-2) - V
    lens2 = np.einsum("...ik,...ik->...i", E, E)
    best2 = np.full(V.shape[:-2], np.inf)
    for r0 in range(0, n, _BLOCK):
        rows = slice(r0, r0 + _BLOCK)
        best2 = np.minimum(best2, _block_gap2(E, lens2, rows, _pair_mask(n, rows),
                                              *_quadratic(V, E, rows)))
    return np.sqrt(np.maximum(best2, 0.0))


# ---------------------------------------------------------------------------
# the pair scan
# ---------------------------------------------------------------------------


def _scan(V: np.ndarray, singly: bool, gap: bool = False) -> dict:
    """Enumerate critical-pair candidates on a closed polyline.

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

    Pairs whose two points share an edge are excluded (which also removes all
    arc-distance < edge-length configurations), as are edge-edge pairs on
    cyclically adjacent edges, whose minima collapse into the shared vertex.

    With gap=True the result also holds "gap", the edge gap of V (as
    _edge_gap computes it), taken from the same row blocks.
    """
    n = V.shape[0]
    E, lens, dirs, cum = _tables(V)
    L = cum[-1]
    idx = np.arange(n)
    out = _Collector()

    def arc(edge_idx, frac):
        return (cum[edge_idx] + frac * lens[edge_idx]) / L

    Jrow = idx[None, :]
    # |E|^2 is lens * lens in the critical families and E . E in the edge
    # gap, as in _edge_gap; the two round differently
    c = (lens * lens)[None, :]                             # (1, n)
    lens2 = np.einsum("ij,ij->i", E, E)
    best2 = np.inf

    for r0 in range(0, n, _BLOCK):
        rows = slice(r0, r0 + _BLOCK)
        R = idx[rows]
        Ri = R[:, None]
        pair_ok = _pair_mask(n, rows)

        a = (lens[R] * lens[R])[:, None]                   # (bi, 1)
        w0, b, w2, c1, c2 = _quadratic(V, E, rows)
        if gap:
            best2 = min(best2, float(_block_gap2(E, lens2, rows, pair_ok,
                                                 w0, b, w2, c1, c2)))
        um_w = np.einsum("bk,bjk->bj", dirs[(R - 1) % n], w0)   # <u-_k, w0>
        up_w = np.einsum("bk,bjk->bj", dirs[R], w0)             # <u+_k, w0>
        vm_w = -np.einsum("jk,bjk->bj", dirs[(idx - 1) % n], w0)  # <u-_j, -w0>
        vp_w = -np.einsum("jk,bjk->bj", dirs, w0)                 # <u+_j, -w0>
        um_E = dirs[(R - 1) % n] @ E.T
        up_E = dirs[R] @ E.T
        del w0

        def d2_at(s, t):
            return w2 + a * s * s + c * t * t + 2.0 * (c1 * s - c2 * t - b * s * t)

        # ---- edge-edge -----------------------------------------------------
        denom = a * c - b * b
        parallel = denom <= 1e-12 * a * c
        safe_den = np.where(parallel, 1.0, denom)
        s_star = np.where(parallel, -1.0, (b * c2 - c * c1) / safe_den)
        t_star = np.where(parallel, -1.0, (a * c2 - b * c1) / safe_den)
        inr = (pair_ok & ~parallel
               & (s_star >= -PARAM_TOL) & (s_star <= 1.0 + PARAM_TOL)
               & (t_star >= -PARAM_TOL) & (t_star <= 1.0 + PARAM_TOL))
        sc = np.clip(s_star, 0.0, 1.0)
        tc = np.clip(t_star, 0.0, 1.0)
        dist = np.sqrt(np.maximum(d2_at(sc, tc), 0.0))
        out.add(inr, dist, Ri, Jrow, 2, arc(Ri, sc), arc(Jrow, tc), True)

        # parallel overlap representative: project edge-j ends on the i axis
        tau0 = -c1 / a
        tau1 = (b - c1) / a
        lo = np.maximum(np.minimum(tau0, tau1), 0.0)
        hi = np.minimum(np.maximum(tau0, tau1), 1.0)
        has = pair_ok & parallel & (hi >= lo - PARAM_TOL)
        if np.any(has):
            smid = np.clip(0.5 * (lo + hi), 0.0, 1.0)
            tmid = np.clip((c2 + smid * b) / c, 0.0, 1.0)
            distp = np.sqrt(np.maximum(d2_at(smid, tmid), 0.0))
            out.add(has, distp, Ri, Jrow, 2, arc(Ri, smid), arc(Jrow, tmid), True)

        # ---- vertex(row) - edge(col): d^2(f) = w2 - 2 f c2 + f^2 c ----------
        foot = c2 / c
        not_incident = (Jrow != Ri) & (Jrow != (Ri - 1) % n)
        inr_f = (foot >= -PARAM_TOL) & (foot <= 1.0 + PARAM_TOL) & not_incident
        fc = np.clip(foot, 0.0, 1.0)
        # a foot at an edge end is that vertex; drop it when it shares an
        # edge with the row vertex (the vertex-vertex family owns the rest)
        at0 = fc <= _MEMBER_EPS
        at1 = fc >= 1.0 - _MEMBER_EPS
        inr_f &= ~(at0 & (Jrow == (Ri + 1) % n))
        inr_f &= ~(at1 & (Jrow == (Ri - 2) % n))
        dq = np.sqrt(np.maximum(w2 - 2.0 * fc * c2 + fc * fc * c, 0.0))
        safe = np.where(dq > 0.0, dq, 1.0)
        am = (um_w - fc * um_E) / safe
        ap = (up_w - fc * up_E) / safe
        vert_ok = _extremal(am, ap, _EXTREMAL_TOL)
        s_arc = np.broadcast_to((cum[R] / L)[:, None], dq.shape)
        out.add(inr_f & vert_ok, dq, Ri, Jrow, 1, s_arc, arc(Jrow, fc), True)
        if singly:
            out.add(inr_f & ~vert_ok, dq, Ri, Jrow, 1, s_arc, arc(Jrow, fc), False)

        # ---- vertex - vertex -------------------------------------------------
        dvv = np.sqrt(w2)                                  # |V_k - V_j|
        safe_v = np.where(dvv > 0.0, dvv, 1.0)
        degenerate = dvv == 0.0
        e1 = _extremal(um_w / safe_v, up_w / safe_v, _EXTREMAL_TOL) | degenerate
        e2 = _extremal(vm_w / safe_v, vp_w / safe_v, _EXTREMAL_TOL) | degenerate
        svv = np.broadcast_to((cum[R] / L)[:, None], dvv.shape)
        tvv = np.broadcast_to((cum[:n] / L)[None, :], dvv.shape)
        out.add(pair_ok & e1 & e2, dvv, Ri, Jrow, 0, svv, tvv, True)
        if singly:
            out.add(pair_ok & (e1 ^ e2), dvv, Ri, Jrow, 0, svv, tvv, False)

        # ---- family ends: one-sided perpendicular sight from a vertex -------
        # An edge point y with (V_k - y) perpendicular to one of V_k's edge
        # directions bounds the continuum {(x, foot of x): foot interior} that
        # sweeps past V_k; the family's distances reach their infimum at this
        # boundary even when the boundary pair itself has a descending other
        # side, so no sign condition is applied here.
        if singly:
            for u_w, u_E in ((um_w, um_E), (up_w, up_E)):
                good = np.abs(u_E) > 1e-15 * lens[None, :]
                tm = np.where(good, u_w / np.where(good, u_E, 1.0), -1.0)
                interior = (tm >= PARAM_TOL) & (tm <= 1.0 - PARAM_TOL)
                keep0 = interior & not_incident
                if not np.any(keep0):
                    continue
                tmc = np.clip(tm, 0.0, 1.0)
                dm = np.sqrt(np.maximum(w2 - 2.0 * tmc * c2 + tmc * tmc * c, 0.0))
                out.add(keep0, dm, Ri, Jrow, 1,
                        np.broadcast_to((cum[R] / L)[:, None], dm.shape),
                        arc(Jrow, tmc), False)

    arr = out.arrays()
    if gap:
        arr["gap"] = float(np.sqrt(max(best2, 0.0)))
    return arr


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
    arr = _scan(p.vertices, singly=(mode == "singly"))
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


def _min_distance(arr: dict) -> float:
    """Smallest candidate distance of a scan; +inf when it found none."""
    d = arr["dist"]
    return float(d.min()) if d.size else float("inf")


def _min_with_tiebreak(arr: dict, mask: np.ndarray):
    """(min distance, winning index) with lexicographic (i, j) tie-break."""
    if not np.any(mask):
        return float("inf"), None
    cand = np.nonzero(mask)[0]
    d = arr["dist"][cand]
    dmin = float(d.min())
    near = cand[d <= dmin + 1e-12]
    ii, jj = arr["i"][near], arr["j"][near]
    ss, tt = arr["s"][near], arr["t"][near]
    # normalise labels the way critical_pairs() reports them
    swap = ss > tt
    ii2 = np.where(swap, jj, ii)
    jj2 = np.where(swap, ii, jj)
    pick = near[np.lexsort((arr["kind"][near], jj2, ii2))[0]]
    return dmin, int(pick)


def dcsd(p: Polygon) -> float:
    """Doubly critical self distance; +inf when no doubly critical pair exists."""
    return _min_distance(_scan(p.vertices, singly=False))


def scsd(p: Polygon) -> float:
    """Infimum of distance over pairs critical in at least one direction.

    Pairs critical in exactly one direction come in one-parameter families;
    where such a family terminates (its perpendicular foot sliding off an
    edge end) the infimum may sit on the boundary, so boundary pairs count.
    """
    return _min_distance(_scan(p.vertices, singly=True))


def is_simple(p: Polygon, clearance: float | None = None) -> bool:
    """True iff no two non-adjacent edges come within clearance of each other
    and no two vertices coincide within clearance.  Default clearance is
    1e-12 * length: exact-contact detection only.
    """
    if clearance is None:
        clearance = _CONTACT * p.length
    return bool(_edge_gap(p.vertices) > clearance)


# ---------------------------------------------------------------------------
# the report and the annealing objective
# ---------------------------------------------------------------------------


def delta_n(p: Polygon) -> ThicknessReport:
    """Full thickness report for a closed equilateral polygon.

    delta_n = min(min_rad, dcsd/2) for embedded polygons and exactly 0
    otherwise (coincident vertices or crossing edges).  binding says which of
    the two mechanisms attains the minimum, with ties reported as curvature;
    delta_n_alt = min(min_rad, scsd) is carried for cross-checking the
    alternative representation.
    """
    kappas = p.kappa_d_all()
    mc = float(np.max(kappas))
    winners = np.nonzero(kappas >= mc - 1e-12 * max(mc, 1.0))[0]
    achieving_vertex = int(winners[0]) if winners.size else 0
    mc2 = max_curv2(p)
    mr = min_rad(p)

    arr = _scan(p.vertices, singly=True, gap=True)
    d_val, d_idx = _min_with_tiebreak(arr, arr["doubly"])
    s_val = _min_distance(arr)

    pair = None if d_idx is None else _pair_at(arr, d_idx)

    simple = arr["gap"] > _CONTACT * p.length
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
    if math.isinf(mc):
        return float("inf")
    arr = _scan(p.vertices, singly=False, gap=True)
    dv = _min_distance(arr)
    if arr["gap"] <= clearance or dv <= 0.0:
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
    itself separates the outgoing from the incoming strand).
    """
    n = p.n
    angles = p.exterior_angles()
    s, t = float(s) % 1.0, float(t) % 1.0
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
