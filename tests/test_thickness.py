"""Tests for the critical-pair kernel and discrete thickness."""

import functools
import importlib.util
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree
from hypothesis import given, settings
from hypothesis import strategies as st

from polythick import (
    CriticalPair,
    ThicknessReport,
    arc_total_curvature,
    critical_pairs,
    dcsd,
    delta_n,
    is_simple,
    inscribe_equilateral,
    min_rad,
    preset_curve,
    random_equilateral_polygon,
    read_polygon,
    regular_ngon,
    rescale_unit,
    scsd,
)
from polythick import thickness
from polythick.anneal import _swept, crankshaft_move, move_is_admissible
from polythick.geom import segment_min_distance
from polythick.polygon import Polygon
from polythick.thickness import (_clear, _gathered_gap, _scan, _turning_window,
                                 inv_delta_objective)

from _dense import _edge_gap, _pair_gaps
from _gen import crossing_hexagon, perturbed_regular
from _oracle import double_grid_scan


def closed_form_inv(n: int) -> float:
    return 2.0 * n * math.tan(math.pi / n)


class TestRegularPolygons:
    def test_square_dcsd(self):
        assert dcsd(regular_ngon(4)) == pytest.approx(0.25, abs=1e-12)

    def test_square_pair_structure(self):
        pairs = critical_pairs(regular_ngon(4), "doubly")
        assert len(pairs) == 4
        by_kind = {}
        for q in pairs:
            by_kind.setdefault(q.kind, []).append(q)
        # opposite-edge midpoints at the circumscribed-circle diameter gap
        ee = sorted((q.i, q.j) for q in by_kind["edge-edge"])
        assert ee == [(0, 2), (1, 3)]
        for q in by_kind["edge-edge"]:
            assert q.distance == pytest.approx(0.25, abs=1e-12)
            assert q.s % 0.125 == pytest.approx(0.0, abs=1e-12)
        # the two diagonals
        for q in by_kind["vertex-vertex"]:
            assert q.distance == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-12)

    def test_hexagon_matches_triangle_dcsd(self):
        # both realize the same width: parallel opposite edges (g6) and
        # vertex against opposite edge (g3) sit at sqrt(3)/6 for length 1
        target = math.sqrt(3.0) / 6.0
        assert dcsd(regular_ngon(3)) == pytest.approx(target, abs=1e-12)
        assert dcsd(regular_ngon(6)) == pytest.approx(target, abs=1e-12)

    def test_closed_form_small_n(self):
        for n in range(3, 41):
            r = delta_n(regular_ngon(n))
            assert r.inv_delta_n * (1.0 / closed_form_inv(n)) == pytest.approx(
                1.0, abs=1e-10
            )
            assert r.binding == "curvature"

    def test_even_ngon_scsd_equals_dcsd(self):
        for n in (4, 6, 8, 10, 12):
            p = regular_ngon(n)
            assert scsd(p) == pytest.approx(dcsd(p), abs=1e-12)

    def test_pentagon_family_end_value(self):
        # The closest singly critical approach of the regular pentagon is
        # not a mutual local minimum: from vertex V0 the perpendicular
        # sight onto a far edge exits that edge at another vertex, and the
        # infimum is taken at the boundary of that sliding family.  The
        # boundary point cuts the far edge at the golden section, giving
        # an exact closed form.
        p = regular_ngon(5)
        R = 1.0 / (10.0 * math.sin(math.pi / 5.0))
        expected = R * (5.0 - math.sqrt(5.0)) / 2.0
        got = scsd(p)
        assert got == pytest.approx(expected, abs=1e-14)

        # independent reconstruction: the point x on edge (V1, V2) whose
        # offset from V0 is perpendicular to the edge arriving at V0
        V = p.vertices
        u = V[0] - V[4]
        u = u / np.linalg.norm(u)
        a, b = V[1], V[2]
        # x = a + t (b - a) with (x - V0) . u = 0
        t = -float((a - V[0]) @ u) / float((b - a) @ u)
        assert 0.0 < t < 1.0
        x = a + t * (b - a)
        assert np.linalg.norm(x - V[0]) == pytest.approx(got, abs=1e-14)
        # the foot divides the edge in the golden ratio
        assert t == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
        assert (1.0 - t) / t == pytest.approx(
            (1.0 + math.sqrt(5.0)) / 2.0, abs=1e-10
        )

    def test_odd_ngon_scsd_below_dcsd(self):
        # no parallel opposite edges, so the closest singly critical
        # approach undercuts the doubly critical one
        frozen = {
            5: 0.23511410091698923,
            7: 0.2785508320519495,
            9: 0.29485064363063923,
            11: 0.30279664903795933,
        }
        for n, val in frozen.items():
            p = regular_ngon(n)
            s = scsd(p)
            assert s == pytest.approx(val, abs=1e-12)
            assert s < dcsd(p)

    def test_odd_ngon_thickness_still_curvature_bound(self):
        # scsd < dcsd/2 never happens here, so both definitions of the
        # thickness agree even where the singly distance dips
        for n in range(3, 26):
            r = delta_n(regular_ngon(n))
            assert r.delta_n == pytest.approx(r.delta_n_alt, abs=1e-15)
            assert r.delta_n == pytest.approx(r.min_rad, abs=1e-15)


class TestRegularNgonUniqueness:
    """The regular n-gon is the unique minimizer of L / delta_n, tested next
    to it: a crankshaft move by eps raises the value by at least 1.9 eps^2,
    and direction noise by a multiple of its largest angle deviation^2.

    A scan of 60 random pivot pairs per n, eps in {1e-4, 1e-3, 1e-2, 0.1}
    and both signs read a smallest excess / eps^2 of 2.000 at n = 4, 2.245
    at n = 5, 2.339 at n = 8 and 2.350 from n = 16 on, every perturbed
    polygon curvature-bound; 1.9 leaves 5% of room at n = 4.  At eps = 1e-4
    the bound, 1.9e-8, stands five orders above the regular n-gon's own
    rounding.
    """

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_crankshaft_moves_cost_eps_squared(self, data):
        n = data.draw(st.integers(4, 64), label="n")
        i = data.draw(st.integers(0, n - 1), label="i")
        j = (i + data.draw(st.integers(2, n - 2), label="gap")) % n
        eps = data.draw(st.floats(1e-4, 0.1), label="eps") * data.draw(
            st.sampled_from([1.0, -1.0]), label="sign")
        q = crankshaft_move(regular_ngon(n), i, j, eps)
        excess = q.length * delta_n(q).inv_delta_n - closed_form_inv(n)
        assert excess >= 1.9 * eps * eps

    @given(n=st.integers(4, 64), sigma=st.floats(1e-4, 3e-2), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_perturbed_regular_costs_its_angle_deviation_squared(self, n, sigma, seed):
        # beyond crankshaft moves: direction noise of size sigma, re-closed,
        # moves every exterior angle phi_i, and the excess must be positive
        # and at least 20 max_i |phi_i - 2 pi/n|^2.  A scan over n = 4..64
        # of seeds 0-39 at sigma in {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2}
        # and seeds 40-239 at sigma in {2e-2, 3e-2} (39,040 polygons) read
        # every excess positive and a smallest excess / deviation^2 of 37.9
        # (n = 10, sigma = 3e-2, seed 29); the ratio only falls as sigma
        # grows, since the excess is first order in the deviation (at
        # least 4.2 times it in the scan), so 20 leaves about half of the
        # smallest reading as room
        p = perturbed_regular(n, sigma, np.random.default_rng(seed))
        deviation = float(np.abs(p.exterior_angles() - 2.0 * math.pi / n).max())
        excess = p.length * delta_n(p).inv_delta_n - closed_form_inv(n)
        assert excess > 0.0 and excess >= 20.0 * deviation * deviation


class TestCriticalPairGeometry:
    def test_reported_distance_matches_points(self):
        rng = np.random.default_rng(7)
        for n in (6, 9, 14):
            p = perturbed_regular(n, 0.12, rng)
            for q in critical_pairs(p, "singly"):
                x = p.arc_point(q.s)
                y = p.arc_point(q.t)
                assert np.linalg.norm(x - y) == pytest.approx(
                    q.distance, abs=1e-12
                )

    def test_pair_params_ordered_and_wrapped(self):
        # a foot at the end of edge n - 1 is vertex 0, at t = 0.0, not 1.0
        for p in [perturbed_regular(10, 0.15, np.random.default_rng(3))] + [
                regular_ngon(n) for n in range(4, 13)]:
            for q in critical_pairs(p, "singly"):
                assert 0.0 <= q.s < 1.0
                assert 0.0 <= q.t < 1.0
                assert q.s <= q.t
        # (1/3, 1.0) would repeat (0, 1/3)
        assert len(critical_pairs(regular_ngon(6), "singly")) == 12

    def test_doubly_subset_of_singly(self):
        p = perturbed_regular(9, 0.1, np.random.default_rng(11))
        singly = {(round(q.s, 9), round(q.t, 9)) for q in critical_pairs(p, "singly")}
        for q in critical_pairs(p, "doubly"):
            assert (round(q.s, 9), round(q.t, 9)) in singly

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            critical_pairs(regular_ngon(5), "sideways")

    def test_nonadjacent_only(self):
        p = perturbed_regular(12, 0.2, np.random.default_rng(5))
        n = p.n
        for q in critical_pairs(p, "singly"):
            gap = min((q.j - q.i) % n, (q.i - q.j) % n)
            assert gap >= 2


class TestThicknessReport:
    def test_square_report(self):
        r = delta_n(regular_ngon(4))
        assert r.min_rad == pytest.approx(0.125, abs=1e-12)
        assert r.dcsd == pytest.approx(0.25, abs=1e-12)
        assert r.delta_n == pytest.approx(0.125, abs=1e-12)
        assert r.inv_delta_n == pytest.approx(8.0, abs=1e-9)
        assert r.binding == "curvature"
        assert r.simple

    def test_achieving_pair_square(self):
        r = delta_n(regular_ngon(4))
        q = r.achieving_pair
        assert q is not None
        assert (q.i, q.j) == (0, 2)
        assert q.kind == "edge-edge"
        assert q.s == pytest.approx(0.125, abs=1e-9)
        assert q.t == pytest.approx(0.625, abs=1e-9)

    def test_json_round_trip(self):
        r = delta_n(perturbed_regular(8, 0.1, np.random.default_rng(2)))
        r2 = ThicknessReport.from_json(r.to_json())
        assert r2.min_rad == r.min_rad
        assert r2.dcsd == r.dcsd
        assert r2.scsd == r.scsd
        assert r2.delta_n == r.delta_n
        assert r2.binding == r.binding
        assert r2.achieving_vertex == r.achieving_vertex
        assert r2.simple == r.simple
        assert r2.achieving_pair == r.achieving_pair

    def test_json_round_trip_nonsimple(self):
        r = delta_n(read_polygon("tests/data/pentagram10.txt"))
        r2 = ThicknessReport.from_json(r.to_json())
        assert r2.delta_n == 0.0
        assert math.isinf(r2.inv_delta_n)
        assert not r2.simple


class TestInvariance:
    @staticmethod
    def rigid(p: Polygon, rng) -> Polygon:
        A = rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(A)
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        return Polygon(p.vertices @ Q.T + rng.normal(size=3))

    def test_rigid_motion(self):
        rng = np.random.default_rng(17)
        p = perturbed_regular(11, 0.15, rng)
        r0 = delta_n(p)
        for _ in range(3):
            r1 = delta_n(self.rigid(p, rng))
            assert r1.dcsd == pytest.approx(r0.dcsd, abs=1e-12)
            assert r1.scsd == pytest.approx(r0.scsd, abs=1e-12)
            assert r1.delta_n == pytest.approx(r0.delta_n, abs=1e-12)

    def test_vertex_relabel(self):
        p = perturbed_regular(9, 0.12, np.random.default_rng(23))
        r0 = delta_n(p)
        for k in (1, 4):
            q = Polygon(np.roll(p.vertices, -k, axis=0))
            r1 = delta_n(q)
            assert r1.dcsd == pytest.approx(r0.dcsd, abs=1e-12)
            assert r1.scsd == pytest.approx(r0.scsd, abs=1e-12)

    def test_orientation_reversal(self):
        p = perturbed_regular(10, 0.1, np.random.default_rng(29))
        q = Polygon(p.vertices[::-1].copy())
        assert dcsd(q) == pytest.approx(dcsd(p), abs=1e-12)
        assert scsd(q) == pytest.approx(scsd(p), abs=1e-12)

    @given(st.integers(min_value=5, max_value=16), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_scale_covariance(self, n, seed):
        p = perturbed_regular(n, 0.1, np.random.default_rng(seed))
        c = 3.5
        q = Polygon(c * p.vertices)
        r0, r1 = delta_n(p), delta_n(q)
        if r0.simple:
            assert r1.delta_n == pytest.approx(c * r0.delta_n, rel=1e-12)
            assert r1.dcsd == pytest.approx(c * r0.dcsd, rel=1e-12)

    @given(st.sampled_from(["regular", "perturbed"]), st.integers(min_value=5, max_value=16),
           st.integers(min_value=0, max_value=10**6), st.sampled_from([-50, 50]))
    @settings(max_examples=40, deadline=None)
    def test_scale_covariance_at_range_ends(self, kind, n, seed, exponent):
        # mean edge lengths just inside 1e-50 and 1e50, the ends Polygon
        # accepts; at 1e-80 and 1e80 the quadratic's fourth powers leave
        # the normal floats and both values drift silently
        p = (regular_ngon(n) if kind == "regular"
             else perturbed_regular(n, 0.1, np.random.default_rng(seed)))
        s = 10.0 ** exponent * (1.0 - 1e-6 * math.copysign(1.0, exponent)) / p.edge_length
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r0, r1 = delta_n(p), delta_n(Polygon(s * p.vertices))
        assert r1.inv_delta_n * s == pytest.approx(r0.inv_delta_n, rel=1e-12)
        assert r1.dcsd / s == pytest.approx(r0.dcsd, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-40, 1e-11, 1e6, 1e13, 1e20])
    def test_achieving_pair_and_vertex_scale_free(self, scale):
        # an absolute tie window of 1e-12 picks the 40-gon's pair (0, 3), at
        # 150 times its dcsd, from a scale of 1e-11 down, and ties every
        # vertex of the 12-gon from a scale of 1e13 up
        for p in (random_equilateral_polygon(40, np.random.default_rng(3)),
                  perturbed_regular(12, 0.1, np.random.default_rng(4))):
            r0, r1 = delta_n(p), delta_n(Polygon(scale * p.vertices))
            q0, q1 = r0.achieving_pair, r1.achieving_pair
            assert (q1.i, q1.j) == (q0.i, q0.j)
            assert q1.distance / scale == pytest.approx(q0.distance, rel=1e-12)
            assert r1.achieving_vertex == r0.achieving_vertex


class TestFoldBack:
    def test_achieving_vertex_at_infinite_curvature(self):
        # kappa_d = [2, inf, 2, inf]: a window of mc - 1e-12 mc is nan there
        p = Polygon(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        r = delta_n(p)
        assert math.isinf(r.max_curv)
        assert r.achieving_vertex == 1


class TestSimplicity:
    def test_pentagram_not_simple(self):
        p = read_polygon("tests/data/pentagram10.txt")
        assert not is_simple(p)
        r = delta_n(p)
        assert r.delta_n == 0.0
        assert math.isinf(r.inv_delta_n)
        # curvature data still reported for diagnostics
        assert r.min_rad == pytest.approx(0.01624598481164532, abs=1e-12)

    def test_fixtures_simple(self):
        for name in ("crumpled10", "crumpled12", "trefoil32", "strand20"):
            assert is_simple(read_polygon(f"tests/data/{name}.txt"))

    def test_regular_ngons_simple(self):
        for n in (3, 4, 7, 50):
            assert is_simple(regular_ngon(n))

    @pytest.mark.parametrize("theta", [1e-6, 1e-7, 1e-8])
    def test_small_angle_crossing_not_simple(self, theta):
        # edges 0 and 3 cross at the origin at angle theta; the normal
        # equations of the edge gap's quadratic lose eps/sin^2 theta in their
        # feet and read a gap of 1.1e-10, 1e-7 and 1e-8 here, against a
        # clearance of 1.2e-11, and delta_n read 1.49e-8 at 1e-7
        p = crossing_hexagon(theta)
        assert not is_simple(p)
        assert _near_gap(p, 1e-12 * p.length) <= 1e-15 * p.length
        for clearance in (1e-12 * p.length, 1e-6 * p.length):
            assert not _clear(p, p.vertices[None], clearance)
        r = delta_n(p)
        assert not r.simple and r.delta_n == 0.0


class TestSmallAngleCrossings:
    """Two edges of length 2 that cross at a small angle, turned and moved
    off the origin: the library's edge gap and the tests' oracle both read
    the crossing, within rounding of the edges' length."""

    @pytest.mark.parametrize("theta", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
    def test_gap_reads_the_crossing(self, theta):
        rng = np.random.default_rng(int(-math.log10(theta)))
        Ei = np.array([2.0, 0.0, 0.0])
        Ej = 2.0 * np.array([math.cos(theta), math.sin(theta), 0.0])
        for _ in range(40):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            offset = rng.uniform(-1.0, 1.0, size=3)
            s, t = rng.uniform(0.05, 0.95, size=2)   # the crossing's feet
            V = np.array([-s * Ei, (1.0 - s) * Ei, -t * Ej, (1.0 - t) * Ej]) @ Q.T + offset
            assert _gathered_gap(V[None], 0, np.array([0]), np.array([2])) <= 2e-15
            assert segment_min_distance(*V)[0] <= 2e-15


def _brute_edge_gap(V: np.ndarray) -> float:
    """Minimum of geom.segment_min_distance over every non-adjacent edge pair."""
    n = len(V)
    best = math.inf
    for i in range(n):
        for j in range(i + 2, min(n, i + n - 1)):
            d, _, _ = segment_min_distance(V[i], V[(i + 1) % n], V[j], V[(j + 1) % n])
            best = min(best, d)
    return best


def _sweep_frames(p: Polygon, i: int, j: int, theta: float, frames: int) -> np.ndarray:
    """Vertex stack of a crankshaft sweep, the batch shape the annealer uses."""
    return np.stack([crankshaft_move(p, i, j, theta * k / (frames - 1)).vertices
                     for k in range(frames)])


def _near_gap(p: Polygon, clearance: float) -> float:
    """The edge gap of p over the pairs _near_pairs gathers within the reach
    of clearance, in one _gathered_gap call: what _clear measures."""
    V = p.vertices[None]
    reach = thickness._reach(clearance, float(p.edge_lengths.max()), p.length)
    return _gathered_gap(V, *thickness._near_pairs(thickness._midpoints(V), reach))


def _check_gap_within(p: Polygon, gap: float) -> None:
    """The gathered edge gap and _clear's verdict against the dense edge
    gap of p: the same verdict at 1e-12 L and 1e-6 L, and the same value
    within 1e-12 L at or below the clearance (its b is an elementwise dot,
    not a row-block matmul)."""
    for clearance in (1e-12 * p.length, 1e-6 * p.length):
        near = _near_gap(p, clearance)
        assert (near <= clearance) == (gap <= clearance)
        assert _clear(p, p.vertices[None], clearance) == (gap > clearance)
        if gap <= clearance:
            assert abs(near - gap) <= 1e-12 * p.length


class TestEdgeGapKernel:
    """The dense reference edge gap on the frames of crankshaft sweeps:
    batched and single gaps agree exactly, the brute-force gap within
    rounding, the tree-pruned gap in its verdict."""

    @staticmethod
    def check(Vb: np.ndarray) -> None:
        batched = _edge_gap(Vb)
        assert batched.shape == Vb.shape[:1]
        for k, V in enumerate(Vb):
            single = _edge_gap(V)
            assert batched[k].tobytes() == single.tobytes()
            p = Polygon(V)
            assert abs(float(single) - _brute_edge_gap(V)) <= 1e-12 * p.length
            _check_gap_within(p, float(single))
            assert is_simple(p) == bool(single > 1e-12 * p.length)
            assert delta_n(p).simple == is_simple(p)

    @given(st.integers(min_value=4, max_value=40),
           st.integers(min_value=0, max_value=10**6),
           st.one_of(st.none(), st.floats(0.01, 0.3)),
           st.floats(-math.pi, math.pi))
    @settings(max_examples=40, deadline=None)
    def test_random_and_perturbed(self, n, seed, sigma, theta):
        rng = np.random.default_rng(seed)
        if sigma is None:
            p = random_equilateral_polygon(n, rng)
        else:
            p = perturbed_regular(n, sigma, rng)
        i = int(rng.integers(n))
        j = (i + int(rng.integers(2, n - 1))) % n
        self.check(_sweep_frames(p, i, j, theta, 4))

    def test_pentagram(self):
        # turning half the star about the axis through vertices 0 and 5 keeps
        # its crossings on the axis, so every frame touches itself; at theta
        # 0.4 the quadratic form alone reads that contact as 1.3e-9
        p = read_polygon("tests/data/pentagram10.txt")
        frames = _sweep_frames(p, 0, 5, 0.4, 3)
        self.check(frames)
        assert not any(is_simple(Polygon(V)) for V in frames)

    def test_hexagon_flip(self):
        # the sweep ends with vertices 1, 2 landing on 5, 4: exact contact
        frames = _sweep_frames(regular_ngon(6), 0, 3, math.pi, 9)
        self.check(frames)
        assert _edge_gap(frames)[-1] <= 1e-12


class TestRepresentationEquivalence:
    # min(minRad, dcsd/2) and min(minRad, scsd) agree whenever the
    # curvature term is the binding one; all fixtures and moderately
    # perturbed regular polygons live in that regime

    def test_fixtures(self):
        for name in ("crumpled10", "crumpled12", "trefoil32", "strand20"):
            r = delta_n(read_polygon(f"tests/data/{name}.txt"))
            assert r.delta_n == pytest.approx(r.delta_n_alt, abs=1e-9)

    def test_perturbed_population(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 150:
            n = int(rng.integers(5, 26))
            sigma = float(rng.uniform(0.01, 0.25))
            p = perturbed_regular(n, sigma, rng)
            r = delta_n(p)
            if not r.simple:
                continue
            assert r.delta_n == pytest.approx(r.delta_n_alt, abs=1e-9)
            checked += 1


class TestFixtureValues:
    def test_crumpled10(self):
        r = delta_n(read_polygon("tests/data/crumpled10.txt"))
        assert r.inv_delta_n == pytest.approx(166.60103925959578, rel=1e-12)
        assert r.binding == "curvature"

    def test_crumpled12(self):
        r = delta_n(read_polygon("tests/data/crumpled12.txt"))
        assert r.min_rad == pytest.approx(0.01739598915795561, rel=1e-12)
        assert r.dcsd == pytest.approx(0.07319959404346246, rel=1e-12)
        assert r.scsd == pytest.approx(0.059255216936144973, rel=1e-12)
        # scsd < dcsd here yet the thickness is still the curvature term
        assert r.scsd < r.dcsd
        assert r.delta_n == pytest.approx(r.min_rad, abs=1e-15)

    def test_trefoil32(self):
        r = delta_n(read_polygon("tests/data/trefoil32.txt"))
        assert r.inv_delta_n == pytest.approx(67.19342760257722, rel=1e-12)
        assert r.binding == "curvature"

    def test_strand20_crossing_gap(self):
        # two skew perpendicular strands pass at distance 0.02 exactly
        p = read_polygon("tests/data/strand20.txt")
        r = delta_n(p)
        assert r.dcsd == pytest.approx(0.02, abs=1e-6)
        assert r.scsd == pytest.approx(0.02, abs=1e-6)
        assert r.min_rad == pytest.approx(0.009148279785405642, rel=1e-9)
        assert r.binding == "curvature"
        q = r.achieving_pair
        assert q.kind == "edge-edge"
        assert (q.i, q.j) == (2, 12)
        # crossing at the middle-edge midpoints of both strands
        assert q.s == pytest.approx(0.125, abs=1e-9)
        assert q.t == pytest.approx(0.625, abs=1e-9)


class TestArcCurvatureAtPairs:
    def test_square_edge_pairs_turn_exactly_pi(self):
        p = regular_ngon(4)
        for q in critical_pairs(p, "doubly"):
            if q.kind == "edge-edge":
                assert arc_total_curvature(p, q.s, q.t) == pytest.approx(
                    math.pi, abs=1e-12
                )

    def test_fixture_pairs_turn_at_least_pi(self):
        for name in ("crumpled10", "crumpled12", "trefoil32", "strand20"):
            p = read_polygon(f"tests/data/{name}.txt")
            for q in critical_pairs(p, "doubly"):
                assert arc_total_curvature(p, q.s, q.t) >= math.pi - 1e-6

    def test_strand20_minimum_arc(self):
        p = read_polygon("tests/data/strand20.txt")
        m = min(
            arc_total_curvature(p, q.s, q.t)
            for q in critical_pairs(p, "doubly")
        )
        assert m == pytest.approx(3.560776213478751, rel=1e-9)

    def test_symmetric_in_arguments(self):
        p = perturbed_regular(8, 0.1, np.random.default_rng(41))
        for q in critical_pairs(p, "doubly"):
            a = arc_total_curvature(p, q.s, q.t)
            b = arc_total_curvature(p, q.t, q.s)
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("s, t, name", [(math.nan, 0.5, "s"), (0.5, math.inf, "t"),
                                            (-math.inf, math.nan, "s")])
    def test_non_finite_parameter_rejected(self, s, t, name):
        # a nan s matched no vertex and summed the angles of one side, pi/3
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            arc_total_curvature(regular_ngon(6), s, t)


class TestOracleAgreement:
    # independent double-grid scan with window refinement; the kernel and
    # the scan share no geometry code beyond the Polygon container

    @pytest.mark.parametrize("n", [5, 7, 10])
    def test_regular_ngons(self, n):
        p = regular_ngon(n)
        d_est, s_est = double_grid_scan(p, samples=2000)
        assert abs(d_est - dcsd(p)) < 1e-4
        assert abs(s_est - scsd(p)) < 1e-4

    @pytest.mark.parametrize("name", ["crumpled10", "crumpled12", "strand20", "trefoil32"])
    def test_fixtures(self, name):
        p = read_polygon(f"tests/data/{name}.txt")
        d_est, s_est = double_grid_scan(p, samples=2000)
        assert abs(d_est - dcsd(p)) < 1e-4
        assert abs(s_est - scsd(p)) < 1e-4


class TestRandomPolygons:
    def test_regular_is_floor(self):
        # closed-form floor over a quick random draw; the full-scale run
        # lives in the acceptance suite
        rng = np.random.default_rng(53)
        done = 0
        while done < 200:
            n = int(rng.integers(4, 33))
            p = random_equilateral_polygon(n, rng)
            r = delta_n(p)
            if not r.simple:
                continue
            assert r.inv_delta_n >= closed_form_inv(n) - 1e-9
            done += 1

    def test_min_rad_positive(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            p = random_equilateral_polygon(12, rng)
            assert min_rad(p) > 0.0


class TestPerformance:
    def test_large_polygon(self):
        p = regular_ngon(4096)
        t0 = time.perf_counter()
        r = delta_n(p)
        dt = time.perf_counter() - t0
        assert r.inv_delta_n == pytest.approx(closed_form_inv(4096), rel=1e-9)
        assert dt < 30.0


# ---------------------------------------------------------------------------
# the pruned scan: the turning lemma it rests on, and parity with the dense scan
# ---------------------------------------------------------------------------

SUBJECT_KINDS = ("random", "perturbed", "cranked", "torus", "near-contact",
                 "pentagram", "strand20", "regular", "convex")


@functools.lru_cache(maxsize=None)
def _torus_curve(spec: str):
    return preset_curve(spec, m=512)


def _subject(kind: str, n: int, seed: int, x: float) -> Polygon:
    """A polygon of the given kind with about n edges, drawn from seed; x in
    [0, 1] sets its perturbation, its turn or its closeness to contact."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_equilateral_polygon(n, rng)
    if kind == "perturbed":
        return perturbed_regular(n, 0.01 + 0.3 * x, rng)
    if kind == "cranked":
        p = random_equilateral_polygon(n, rng)
        i = int(rng.integers(n))
        j = (i + int(rng.integers(2, n - 1))) % n
        return crankshaft_move(p, i, j, math.pi * (2.0 * x - 1.0))
    if kind == "torus":
        spec = ("torus:2,3", "torus:3,2", "torus:2,5", "torus:3,4")[seed % 4]
        return inscribe_equilateral(_torus_curve(spec), 32 + n)
    if kind == "near-contact":
        # half of a regular polygon turned almost onto the other half
        m = 2 * (n // 2 + 2)
        return crankshaft_move(regular_ngon(m), 0, m // 2,
                               math.pi * (1.0 - 10.0 ** (-2.0 - 8.0 * x)))
    if kind == "regular":
        return regular_ngon(n)
    if kind == "convex":
        # nearly regular, so the filter prunes the round that covers the span
        if seed % 2:
            return perturbed_regular(n, 1e-3 * x, rng)
        i = int(rng.integers(n))
        j = (i + int(rng.integers(2, n - 1))) % n
        return crankshaft_move(regular_ngon(n), i, j, 0.05 * (2.0 * x - 1.0))
    if kind == "pentagram":
        # a sweep frame of the star: self-touching on the axis at every angle
        return crankshaft_move(read_polygon("tests/data/pentagram10.txt"), 0, 5,
                               math.pi * (2.0 * x - 1.0))
    return read_polygon("tests/data/strand20.txt")


def _in_window(p: Polygon, i, j, min_turn):
    lo, hi = _turning_window(p, min_turn)
    m = (j - i) % p.n
    return (m >= lo[i]) & (m <= hi[i])


class TestTurningLemma:
    """The pruned scan drops a pair when the smaller of its two arcs cannot
    turn pi (doubly families) or pi/2 (singly families).  Every candidate
    the dense scan finds must pass its filter."""

    @given(kind=st.sampled_from(SUBJECT_KINDS), n=st.integers(4, 120),
           seed=st.integers(0, 10**6), x=st.floats(0.0, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_dense_candidates(self, kind, n, seed, x):
        p = _subject(kind, n, seed, x)
        arr = _scan(p, singly=True).arrays()
        i, j, doubly = arr["i"], arr["j"], arr["doubly"]
        assert np.all(_in_window(p, i[doubly], j[doubly], math.pi - 1e-6))
        assert np.all(_in_window(p, i, j, 0.5 * math.pi - 1e-6))
        # the window is conservative: it holds a pair at its measured turning
        rng = np.random.default_rng(seed)
        for k in rng.choice(i.size, size=min(i.size, 20), replace=False):
            turn = arc_total_curvature(p, arr["s"][k], arr["t"][k])
            assert _in_window(p, i[k], j[k], turn - 1e-9)


def _perpendicular_mask(p: Polygon, singly: bool) -> np.ndarray:
    """The pruned scan's perpendicularity filter over all n^2 pairs, formed
    per row block as the scan forms it."""
    M, workspace = thickness._midpoints(p.vertices), thickness._workspace(p.n)
    span = 2.0 * float(np.linalg.norm(M, axis=1).max())
    keep, idx = thickness._perpendicular(p, singly, M, span, workspace), np.arange(p.n)
    return np.vstack([keep(idx[r0:r0 + thickness._BLOCK], idx,
                           thickness._gram(p.edges, slice(r0, r0 + thickness._BLOCK),
                                           workspace))
                      for r0 in range(0, p.n, thickness._BLOCK)])


# the covering rounds of regular-130 and regular-200 end in partial blocks
# of 34 and 8 rows, which fill the workspace in part; crumpled-1024 is the
# covering round with the most pairs per row
NAMED_2048 = ["trefoil", "random", "regular", "near-regular", "cranked", "crumpled",
              "cranked-0.05", "regular-130", "regular-200", "crumpled-1024", "cranked-0.002"]


def _named_2048(name: str) -> Polygon:
    """The named polygons of the pruned scan's parity tests, most of them
    2048-gons."""
    if name == "trefoil":
        return _report_large_trefoil()
    if name == "regular":
        return regular_ngon(2048)
    if name == "near-regular":
        return perturbed_regular(2048, 1e-3, np.random.default_rng(1))
    if name == "cranked":
        return crankshaft_move(regular_ngon(2048), 0, 700, 0.01)
    if name == "crumpled":
        return perturbed_regular(2048, 0.1, np.random.default_rng(1))
    if name == "crumpled-1024":
        return perturbed_regular(1024, 0.3, np.random.default_rng(0))
    if name.startswith("cranked-"):
        return crankshaft_move(regular_ngon(2048), 0, 1024, float(name[len("cranked-"):]))
    if name.startswith("regular-"):
        return regular_ngon(int(name[len("regular-"):]))
    if name == "random-00":     # the benchmark's, beside NAMED_2048's random
        return random_equilateral_polygon(2048, np.random.default_rng(0))
    return random_equilateral_polygon(2048, np.random.default_rng(3))


def _cull_mask(p: Polygon, singly: bool, window: bool = False) -> np.ndarray:
    """The columns of the chunks each row block needs under the covering
    round's drop test, spread over all n^2 pairs.  The block ranges come
    from the scan's turning window when window is set, and hold every
    column otherwise, so that the drop test is checked on every pair."""
    M, idx, n = thickness._midpoints(p.vertices), np.arange(p.n), p.n
    span = 2.0 * float(np.linalg.norm(M, axis=1).max())
    lo, hi = np.zeros(n, int), np.full(n, n - 1)
    if window:
        lo, hi = _turning_window(p, (0.5 if singly else 1.0) * math.pi - thickness._TURN_SLACK)
        lo, hi = np.maximum(lo, 0), np.minimum(hi, n - 1)
    s, starts = math.isqrt(n), idx[::thickness._BLOCK]
    needed = thickness._chunk_cull(p, singly, M, *thickness._run_ranges(lo, hi, thickness._BLOCK),
                                   s, span)
    return np.repeat(needed[:, idx // s], np.diff(starts, append=n), axis=0)


class TestPerpendicularityLemma:
    """Where the search ring covers every pair, the pruned scan drops a pair
    unless one edge can meet the reach of the other's start vertex: its two
    edge slabs and its normal wedge.  Every candidate the dense scan finds
    must pass: doubly candidates on both sides, singly ones on at least one
    side, near-parallel pairs always."""

    @given(kind=st.sampled_from(SUBJECT_KINDS), n=st.integers(4, 120),
           seed=st.integers(0, 10**6), x=st.floats(0.0, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_dense_candidates(self, kind, n, seed, x):
        p = _subject(kind, n, seed, x)
        arr = _scan(p, singly=True).arrays()
        i, j, doubly = arr["i"], arr["j"], arr["doubly"]
        assert np.all(_perpendicular_mask(p, False)[i[doubly], j[doubly]])
        assert np.all(_perpendicular_mask(p, True)[i, j])

    @pytest.mark.parametrize("n", [128, 512, 2048])
    def test_regular_keeps_few_pairs_per_row(self, n):
        assert _pairs_per_row(regular_ngon(n), singly=True).max() <= 8

    @pytest.mark.parametrize("name", ["cranked", "cranked-0.05", "cranked-0.002",
                                      "near-regular"])
    def test_near_regular_few_pairs_per_row(self, name):
        # these take the covering round, whose filter must keep few pairs
        # per row; a ring at 2 min_rad, which falls short of the span here,
        # handed 574k pairs to _families on cranked-0.002
        if name == "cranked":
            p, singly = crankshaft_move(regular_ngon(2048), 0, 700, 0.01), True
        elif name == "cranked-0.05":
            p, singly = crankshaft_move(regular_ngon(2048), 0, 1024, 0.05), True
        elif name == "cranked-0.002":
            p, singly = crankshaft_move(regular_ngon(2048), 0, 1024, 0.002), True
        else:
            p, singly = perturbed_regular(2048, 1e-3, np.random.default_rng(1)), False
        assert _pairs_per_row(p, singly).max() <= 8

    @given(kind=st.sampled_from(SUBJECT_KINDS), n=st.integers(4, 120),
           seed=st.integers(0, 10**6), x=st.floats(0.0, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_cull_keeps_every_filtered_pair(self, kind, n, seed, x):
        # a row block needs every chunk in which the filter keeps a pair
        # of one of its rows
        p = _subject(kind, n, seed, x)
        for singly in (False, True):
            assert not np.any(_perpendicular_mask(p, singly) & ~_cull_mask(p, singly))

    @given(kind=st.sampled_from(SUBJECT_KINDS), n=st.integers(4, 120),
           seed=st.integers(0, 10**6), x=st.floats(0.0, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_chunks_out_of_reach_reject_every_pair(self, kind, n, seed, x):
        # a chunk out of reach of vertex k holds no point in reach of k and
        # no edge parallel to k's, by the filter's own tests; the midpoints
        # are jittered by up to 4 edges, so spheres straddle the regions
        p = _subject(kind, n, seed, x)
        h = p.edge_lengths
        jitter = np.random.default_rng(seed).uniform(-1.0, 1.0, (p.n, 3))
        M = thickness._midpoints(p.vertices) + 4.0 * x * float(h.max()) * jitter
        span, s = 2.0 * float(np.linalg.norm(M, axis=1).max()), math.isqrt(p.n)
        A = thickness._chunks_out_of_reach(p, M, s, span)[:, np.arange(p.n) // s]
        um, up, fa, ga, gb, fb = thickness._reach_bounds(p, M, span)
        F, G = um @ M.T, up @ M.T
        out = ((F > fa[:, None]) & (G > ga[:, None])) | ((G < gb[:, None]) & (F < fb[:, None]))
        b2 = (p.edges @ p.edges.T) ** 2
        threshold = (1.0 - thickness._PARALLEL) * h * h * float(h.min()) ** 2
        parallel = (b2 >= threshold[:, None]) | (b2 >= threshold[None, :])
        assert np.all(out[A]) and not np.any(parallel[A])

    @pytest.mark.parametrize("singly", [False, True])
    @pytest.mark.parametrize("name", NAMED_2048)
    def test_cull_keeps_every_filtered_pair_at_2048(self, name, singly):
        # and, on the block ranges of the scan, every kept window pair
        p = _named_2048(name)
        kept = _perpendicular_mask(p, singly)
        assert not np.any(kept & ~_cull_mask(p, singly))
        idx = np.arange(p.n)
        window = _in_window(p, idx[:, None], idx[None, :],
                            (0.5 if singly else 1.0) * math.pi - thickness._TURN_SLACK)
        assert not np.any(kept & window & ~_cull_mask(p, singly, window=True))

    def test_regular_filter_forms_few_window_pairs(self):
        # the window columns of every row came to 2.30M pairs; the chunks
        # some row of the block needs, 372k
        assert sum(_window_pairs(regular_ngon(2048), singly=True)) <= 500_000

    @pytest.mark.parametrize("singly", [False, True])
    def test_cull_built_once_for_wide_ranges(self, singly):
        # the regular n-gon's doubly windows hold a few columns per row, so
        # every block range spans at most two blocks and skips the cull;
        # its singly ranges span about n/2 columns
        built, cull = [], thickness._chunk_cull

        def recording(*args):
            built.append(args)
            return cull(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thickness, "_chunk_cull", recording)
            thickness._pruned_scan(regular_ngon(2048), singly)
        assert len(built) == int(singly)

    def test_crumpled_takes_one_round(self):
        # 2 min_rad lies far below dcsd here; the seeded scan runs one
        # round, which calls _families once per batch of kept pairs
        p = perturbed_regular(512, 0.1, np.random.default_rng(1))
        calls = _families_rows(p, singly=True)
        pairs = sum(I.size for I in calls)
        assert len(calls) <= math.ceil(pairs / thickness._BATCH) + 1


def _families_rows(p: Polygon, singly: bool) -> list:
    """The row labels of each batch of pairs the pruned scan's round hands
    to _families, one array per call; the seed's patch, which _doubly_seed
    evaluates into a collector of its own, is left out."""
    calls = []
    families, seed = thickness._families, thickness._doubly_seed

    def counting(out, q, I, J, *args):
        calls.append(I)
        return families(out, q, I, J, *args)

    def seeding(*args):
        bound = seed(*args)
        calls.clear()
        return bound

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thickness, "_families", counting)
        mp.setattr(thickness, "_doubly_seed", seeding)
        thickness._pruned_scan(p, singly)
    return calls


def _gap_calls(p: Polygon) -> list:
    """(I, J) of each batch of pairs is_simple hands to _gathered_gap, one
    pair of arrays per kernel call."""
    calls, gathered = [], thickness._gathered_gap

    def recording(V, F, I, J):
        calls.append((I, J))
        return gathered(V, F, I, J)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thickness, "_gathered_gap", recording)
        is_simple(p)
    return calls


def _tree_queries(p: Polygon, singly: bool) -> list:
    """(tree size, pairs returned) of each sparse_distance_matrix call the
    pruned scan makes, its ring round's midpoint queries.  The calls are
    counted by a cKDTree subclass put into thickness, as the type's own
    methods cannot be patched."""
    calls = []

    class Counting(cKDTree):
        def sparse_distance_matrix(self, other, *args, **kwargs):
            near = super().sparse_distance_matrix(other, *args, **kwargs)
            calls.append((other.n, near.size))
            return near

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thickness, "cKDTree", Counting)
        thickness._pruned_scan(p, singly)
    return calls


def _descent_levels(p: Polygon, singly: bool) -> list:
    """(run width, node pairs tested, node pairs kept) of each level of the
    pruned scan's ring descent, from runs of _BLOCK midpoints down to the
    leaves, runs of one, whose kept pairs are the pairs the descent
    returns; empty when no block takes the descent."""
    levels, node_pairs = [], getattr(thickness, "_node_pairs", None)
    if node_pairs is None:      # tools/scan_parity.py --checkout of a library without it
        return levels

    def recording(M, lo, hi, w, R, *args):
        kept = node_pairs(M, lo, hi, w, R, *args)
        levels.append((w, R.size, kept[0].size))
        return kept

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thickness, "_node_pairs", recording)
        thickness._pruned_scan(p, singly)
    return levels


def _window_pairs(p: Polygon, singly: bool) -> list | None:
    """The window pairs, rows times columns, that each call of the covering
    round's filter forms, or None when the scan takes the ring round."""
    calls, perpendicular = None, thickness._perpendicular

    def recording(*args):
        nonlocal calls
        keep, calls = perpendicular(*args), []

        def counting(R, J, b):
            calls.append(R.size * J.size)
            return keep(R, J, b)

        return counting

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thickness, "_perpendicular", recording)
        thickness._pruned_scan(p, singly)
    return calls


def test_scan_parity_counts_both_rounds():
    # tools/scan_parity.py --faults counts the pruned scan's pairs with this
    # module's _families_rows, _tree_queries, _descent_levels and
    # _window_pairs, and is_simple's with _gap_calls.  The trefoil 512-gon's
    # ring queries the one tree in every block; the 2048-gon's takes the
    # descent, and its is_simple finds no pair to measure
    path = Path(__file__).resolve().parents[1] / "tools" / "scan_parity.py"
    spec = importlib.util.spec_from_file_location("scan_parity", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    curve, blocks = preset_curve("torus:2,3", m=4096), math.ceil(512 / thickness._BLOCK)
    c = tool._scan_pairs(rescale_unit(inscribe_equilateral(curve, 512)))
    assert (c["round"], c["pairs"] > 0, c["tree"] > 0, c["leaf"], c["window"]) == (
        "ring", True, True, 0, 0)
    assert 0 < c["kept"] <= 4
    assert 0 < c["calls"] <= blocks and c["levels"] == []
    c = tool._scan_pairs(_report_large_trefoil())
    w, _, kept = c["levels"][-1]
    assert (c["round"], c["tree"], c["window"], w) == ("ring", 0, 0, 1)
    assert kept == c["leaf"] >= c["pairs"] > 0 and c["simple"] == "0/0"
    c = tool._scan_pairs(regular_ngon(512))
    assert (c["round"], c["pairs"] > 0, c["tree"], c["leaf"], c["window"] > 0) == (
        "covering", True, 0, 0, True)
    assert 0 < c["calls"] <= blocks


def _pairs_per_row(p: Polygon, singly: bool) -> np.ndarray:
    """How many pairs of each row the pruned scan hands to _families."""
    return np.bincount(np.concatenate(_families_rows(p, singly)), minlength=p.n)


@functools.lru_cache(maxsize=None)
def _report_large_trefoil() -> Polygon:
    """The 2048-gon trefoil of the benchmark's report-large workload."""
    return rescale_unit(inscribe_equilateral(preset_curve("torus:2,3", m=4096), 2048))


@functools.lru_cache(maxsize=None)
def _trefoil_proxy() -> Polygon:
    """The 4096-gon whose dcsd is the benchmark's sweep-trefoil proxy."""
    return inscribe_equilateral(preset_curve("torus:2,3", m=4096), 4096)


def _results(p: Polygon, crossover: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thickness, "_CROSSOVER", crossover)
        return (delta_n(p).to_json(), dcsd(p).hex(), scsd(p).hex(),
                inv_delta_objective(p, 1e-6 * p.length).hex())


class TestPrunedScan:
    """delta_n, dcsd, scsd and the annealing objective agree bitwise whether
    they come from the dense scan or the pruned one; a crossover of 0 sends
    every n through the pruned scan."""

    @given(kind=st.sampled_from(SUBJECT_KINDS), n=st.integers(4, 160),
           seed=st.integers(0, 10**6), x=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense(self, kind, n, seed, x):
        p = _subject(kind, n, seed, x)
        assert _results(p, 0) == _results(p, 10**9)

    @pytest.mark.parametrize("name", NAMED_2048)
    def test_matches_dense_at_2048(self, name):
        p = _named_2048(name)
        assert p.n >= thickness._CROSSOVER
        assert _results(p, thickness._CROSSOVER) == _results(p, 10**9)

    @pytest.mark.parametrize("singly", [False, True])
    def test_covering_round_reuses_one_workspace(self, singly):
        # the regular n-gon takes the covering round after the seed; a
        # fresh (96, n) b per block would be page-faulted afresh on every
        # block
        p, seen, seeded = regular_ngon(2048), [], []
        gram, seed = thickness._gram, thickness._doubly_seed

        def recording(*args):
            seen.append(gram(*args))
            return seen[-1]

        def seeding(*args):
            bound = seed(*args)
            seeded.append(len(seen))
            return bound

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thickness, "_gram", recording)
            mp.setattr(thickness, "_doubly_seed", seeding)
            thickness._pruned_scan(p, singly)
        assert len(seen) - seeded[0] == math.ceil(p.n / thickness._BLOCK)
        assert all(np.shares_memory(b, seen[0]) for b in seen[1:])

    @pytest.mark.parametrize("singly", [False, True])
    def test_ring_round_reuses_the_workspace(self, singly):
        # the trefoil settles in the ring round; its b, and the seed's, go
        # to the one workspace of the scan
        seen = []
        gram = thickness._gram

        def recording(*args):
            seen.append(gram(*args))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thickness, "_gram", recording)
            thickness._pruned_scan(_report_large_trefoil(), singly)
        assert len(seen) > 1
        assert all(np.shares_memory(b, seen[0]) for b in seen[1:])

    @pytest.mark.parametrize("r0", [0, 960])
    def test_filter_allocates_no_window_array(self, r0):
        # the filter forms its four midpoint projections and its window
        # gather of b in the workspace's rows 1 and 2, so a call allocates
        # only boolean masks, 1/8 of a (rows, window) float64 array each.
        # The peak reads 0.75 such arrays, against 2.63 with the projections
        # as fresh arrays and 1.38 with np.take's buffering mode="raise";
        # the bound of one array fails on any float temporary of that size,
        # which glibc may hand back to the OS and fault in on every block.
        p, idx = regular_ngon(2048), np.arange(2048)
        M, workspace = thickness._midpoints(p.vertices), thickness._workspace(p.n)
        span = 2.0 * float(np.linalg.norm(M, axis=1).max())
        lo, hi = _turning_window(p, 0.5 * math.pi - thickness._TURN_SLACK)
        R = idx[r0:r0 + thickness._BLOCK]
        J = np.arange((R + np.maximum(lo[R], 0)).min(),
                      (R + np.minimum(hi[R], p.n - 1)).max() + 1) % p.n
        keep = thickness._perpendicular(p, True, M, span, workspace)
        b = thickness._gram(p.edges, slice(r0, r0 + thickness._BLOCK), workspace)
        keep(R, J, b)
        tracemalloc.start()
        try:
            keep(R, J, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < R.size * J.size * 8

    @pytest.mark.parametrize("singly", [False, True])
    def test_seeded_ring_hands_few_pairs_to_families(self, singly):
        # a ring of radius 2 min_rad, 0.48 of the span, hands 95k-99k
        # pairs to _families; one seeded at dcsd, 0.28 of it, 3.8k
        calls = _families_rows(_report_large_trefoil(), singly)
        assert sum(I.size for I in calls) <= 8000

    @pytest.mark.parametrize("name", ["trefoil", "random-00", "regular", "crumpled-1024"])
    def test_batches_match_per_block_calls(self, name):
        # a batch of one pair sends every block to _families alone, as the
        # scan did before it batched; the trefoil and random-00 take the
        # ring round, the regular 2048-gon and the crumpled 1024-gon, whose
        # blocks each keep more pairs than a batch, the covering round
        p = _named_2048(name)

        def results():
            scans = [thickness._pruned_scan(p, singly) for singly in (False, True)]
            return [(out.min, out.doubly_min) for out in scans], delta_n(p).to_json()

        batched = results()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thickness, "_BATCH", 1)
            assert results() == batched

    def test_random_round_calls_families_per_batch(self):
        # one call per row block made 22 calls of 500-1,100 pairs; a batch
        # flushes once it holds _BATCH pairs, so a call holds fewer before
        # its last block, and no block is split between calls
        p = _named_2048("random-00")
        calls = _families_rows(p, singly=True)
        blocks = [np.unique(I // thickness._BLOCK) for I in calls]
        sizes = np.bincount(np.concatenate(calls) // thickness._BLOCK)
        assert np.unique(np.concatenate(blocks)).size == sum(q.size for q in blocks)
        assert len(calls) <= math.ceil(sizes.sum() / thickness._BATCH) + 1
        assert all(I.size - sizes[I[-1] // thickness._BLOCK] < thickness._BATCH
                   for I in calls)

    def test_proxy_ring_tree_returns_few_pairs(self):
        # the window drops arc neighbours; a query over every midpoint
        # returned 1.83M pairs for the 7.1k that pass it.  Every block of
        # the proxy takes the descent, which queries no tree: its leaves
        # are the 7,130 window pairs within the seed's reach, and its leaf
        # level tests 21,744 pairs of midpoints
        p = _trefoil_proxy()
        levels = _descent_levels(p, False)
        kept = sum(I.size for I in _families_rows(p, False))
        (w, tested, leaf) = levels[-1]
        assert w == 1 and leaf <= 2 * kept and tested <= 4 * kept
        assert _tree_queries(p, False) == []

    def test_report_large_ring_tree_returns_few_pairs(self):
        # a query over every midpoint returned 462k pairs, the chunk trees
        # 70k; the descent's leaves are the 3,608 window pairs within reach
        p = _report_large_trefoil()
        (w, _, leaf), = _descent_levels(p, True)[-1:]
        assert w == 1 and leaf <= 8_000
        assert _tree_queries(p, True) == []

    @pytest.mark.parametrize("singly", [False, True])
    def test_random_queries_one_tree_per_block(self, singly):
        # a random polygon's window leaves out only a few arc neighbours,
        # so every block meets every chunk and queries the one full tree
        p = random_equilateral_polygon(2048, np.random.default_rng(3))
        calls = _tree_queries(p, singly)
        assert len(calls) == math.ceil(p.n / thickness._BLOCK)
        assert all(size == p.n for size, _ in calls)

    @pytest.mark.parametrize("name", ["proxy", "report-large"])
    def test_chunks_cover_the_block_range(self, name):
        # the descent returns every pair of a block's rows within reach
        # whose column lies in the row's window, as the full tree finds
        # them; every block of these two takes the descent
        if name == "proxy":
            p, singly = _trefoil_proxy(), False
        else:
            p, singly = _report_large_trefoil(), True
        descent, full = thickness._ring_descent, cKDTree(thickness._midpoints(p.vertices))
        found = []

        def checking(M, lo, hi, blocks, reach, slack):
            near = descent(M, lo, hi, blocks, reach, slack)
            for q, (i, j, _) in near.items():
                rows = range(q * thickness._BLOCK, min((q + 1) * thickness._BLOCK, p.n))
                every = full.query_ball_point(M[rows.start:rows.stop], reach)
                in_window = {(r, k) for r, ks in zip(rows, every)
                             for k in ks if lo[r] <= (k - r) % p.n <= hi[r]}
                assert in_window <= set(zip(i.tolist(), j.tolist()))
                found.append(len(in_window))
            return near

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thickness, "_ring_descent", checking)
            thickness._pruned_scan(p, singly)
        assert len(found) == math.ceil(p.n / thickness._BLOCK) and sum(found) > 0

    @given(source=st.sampled_from(("torus:2,3", "torus:2,5", "torus:3,4", "random",
                                   "perturbed", "cranked", "torus", "near-contact",
                                   "regular", "convex")),
           n=st.integers(96, 1200), seed=st.integers(0, 10**6), x=st.floats(0.0, 1.0),
           reach=st.one_of(st.none(), st.floats(0.0, 1.0)), singly=st.booleans(),
           every=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_descent_matches_brute_force(self, source, n, seed, x, reach, singly, every):
        # the descent returns exactly the pairs of its blocks' rows within
        # reach whose column lies in the row's window, with their d2, at the
        # seed's reach (None) or a random share of the span, for the narrow
        # blocks of the scan or every block; n = 96 .. 1200 ends in partial
        # runs at every width when n is not a multiple of 96
        if source.startswith("torus:"):
            p = inscribe_equilateral(preset_curve(source, m=4096), n)
        else:
            p = _subject(source, n, seed, x)
        n, M, B = p.n, thickness._midpoints(p.vertices), thickness._BLOCK
        span = 2.0 * float(np.linalg.norm(M, axis=1).max())
        lo, hi = _turning_window(p, (0.5 if singly else 1.0) * math.pi - thickness._TURN_SLACK)
        lo, hi = np.maximum(lo, 0), np.minimum(hi, n - 1)
        if reach is None:
            r = thickness._doubly_seed(p, M, lo, hi, math.isqrt(n), thickness._workspace(n))
            reach = thickness._reach(r, float(p.edge_lengths.max()), p.length)
        else:
            reach *= span
        first, last = thickness._run_ranges(lo, hi, B)
        blocks = np.flatnonzero(every | (last - first + 1 < n - 2 * B))
        near = thickness._ring_descent(M, lo, hi, blocks, reach, 1e-9 * span)
        assert list(near) == blocks.tolist()
        for q, (i, j, d2) in near.items():
            rows = np.arange(q * B, min((q + 1) * B, n))
            D = M[rows, None] - M[None, :]
            every_d2 = D[..., 0] * D[..., 0] + D[..., 1] * D[..., 1] + D[..., 2] * D[..., 2]
            m = (np.arange(n) - rows[:, None]) % n
            ri, k = np.nonzero((every_d2 <= reach * reach)
                               & (m >= lo[rows, None]) & (m <= hi[rows, None]))
            order = np.lexsort((j, i))
            assert np.array_equal(i[order], rows[ri]) and np.array_equal(j[order], k)
            assert np.array_equal(d2[order], every_d2[ri, k])

    @pytest.mark.parametrize("name, singly, widths, trees", [
        ("proxy", False, (96, 48, 24, 12, 6, 3), 0),
        ("report-large", True, (96, 48, 24, 12, 6, 3), 0), ("random", True, (), 1),
        ("regular", True, (45,), 0), ("regular", False, (), 0)],
        ids=["proxy", "report-large", "random", "regular-singly", "regular-doubly"])
    def test_cover_forms_each_part_once(self, name, singly, widths, trees):
        # one scan forms the midpoint spheres of each run width at most
        # once, for every node pair of a descent level or for both rounds'
        # chunks of isqrt(n), and builds the tree it queries once.  The
        # trefoils' rings take the descent, whose leaves, runs of one,
        # need no spheres; the random polygon's ring queries the full tree
        # only; the regular n-gon takes the covering round, whose doubly
        # ranges skip the cull
        p = {"proxy": _trefoil_proxy, "report-large": _report_large_trefoil,
             "random": lambda: random_equilateral_polygon(2048, np.random.default_rng(3)),
             "regular": lambda: regular_ngon(2048)}[name]()
        M, formed, queried = thickness._midpoints(p.vertices), [], []
        spheres_of = thickness._spheres

        def recording(X, s, slack):
            if X.shape == M.shape and np.array_equal(X, M):
                formed.append(s)
            return spheres_of(X, s, slack)

        class Recording(cKDTree):
            def sparse_distance_matrix(self, other, *args, **kwargs):
                queried.append(other)
                return super().sparse_distance_matrix(other, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thickness, "_spheres", recording)
            mp.setattr(thickness, "cKDTree", Recording)
            thickness._pruned_scan(p, singly)
        assert tuple(formed) == widths
        # a tree built twice over the same midpoints shows as two objects
        assert len({id(t) for t in queried}) == len({t.data.tobytes() for t in queried}) == trees

    @pytest.mark.parametrize("n", [96, 97, 191])
    def test_meets_is_cyclic_membership(self, n):
        # every range first .. last with first in 0 .. 2n - 2 and last in
        # first - 1 .. 2n - 2, empty ranges and ranges that wrap past n
        # included, against the runs of every width the scan uses: the
        # descent's and the cull's, isqrt(n).  97 and 191 end in a partial
        # run at every width, 96 at isqrt(n) = 9 only.  A run meets a
        # range when it holds a column k mod n of it; a run of one never
        # meets an empty range, and a wider run may
        a, b = np.triu_indices(2 * n)
        first, last = a[a < 2 * n - 1], b[a < 2 * n - 1] - 1     # last from first - 1 up
        k = np.arange(2 * n - 1)
        inside = (first[:, None] <= k) & (k <= last[:, None])
        cover = inside[:, :n].copy()
        cover[:, :n - 1] |= inside[:, n:]
        empty = last < first
        assert np.array_equal(cover.any(axis=1), ~empty)
        for w in (96, 48, 24, 12, 6, 3, 1, math.isqrt(n)):
            starts = np.arange(0, n, w)
            holds = np.logical_or.reduceat(cover, starts, axis=1)
            meets = thickness._meets(first[:, None], last[:, None],
                                     np.arange(starts.size), w, n)
            assert np.array_equal(meets[~empty], holds[~empty])
            assert w > 1 or not np.any(meets[empty])

    @pytest.mark.parametrize("n", [96, 97, 191])
    def test_run_ranges_hold_every_window_column(self, n):
        # each run's range is the hull of its rows' window columns i + lo_i
        # .. i + hi_i, lo_i > hi_i (an empty window) included, and every
        # window column of a row lies in a column run that meets its row
        # run's range
        idx = np.arange(n)
        for lo, hi in np.random.default_rng(n).integers(0, n, (40, 2, n)):
            i, m = np.nonzero((idx >= lo[:, None]) & (idx <= hi[:, None]))
            for w in (96, 48, 24, 12, 6, 3, 1, math.isqrt(n)):
                first, last = thickness._run_ranges(lo, hi, w)
                runs = [slice(q, q + w) for q in range(0, n, w)]
                assert first.tolist() == [min(idx[r] + lo[r]) for r in runs]
                assert last.tolist() == [max(idx[r] + hi[r]) for r in runs]
                C = (i + m) % n // w
                assert np.all(thickness._meets(first[i // w], last[i // w], C, w, n))

    @pytest.mark.parametrize("spec", ["torus:2,3", "torus:2,5", "torus:3,4"])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_chunked_ring_matches_dense(self, spec, n):
        # the doubly rings of two knots at n = 1024 take the descent; the
        # other rings' block ranges leave out at most two blocks of columns
        # and query the full tree
        p = rescale_unit(inscribe_equilateral(preset_curve(spec, m=4096), n))
        descended = [bool(_descent_levels(p, singly)) for singly in (False, True)]
        assert descended == [(spec, n) in {("torus:2,3", 1024), ("torus:3,4", 1024)}, False]
        assert _results(p, thickness._CROSSOVER) == _results(p, 10**9)

    @given(kind=st.sampled_from(SUBJECT_KINDS), n=st.integers(4, 160),
           seed=st.integers(0, 10**6), x=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_seed_is_a_dense_candidate(self, kind, n, seed, x):
        # the seed's bound is the distance of a doubly candidate of _scan
        p = _subject(kind, n, seed, x)
        lo, hi = _turning_window(p, math.pi - thickness._TURN_SLACK)
        bound = thickness._doubly_seed(p, thickness._midpoints(p.vertices), lo, hi,
                                       math.isqrt(p.n), thickness._workspace(p.n))
        arr = _scan(p, singly=False).arrays()
        assert bound == math.inf or np.any(arr["dist"][arr["doubly"]] == bound)


class _KeepAll(thickness._Collector):
    """A collector that keeps every accepted candidate, as critical_pairs'
    does, whatever window its scan asks for."""

    def __init__(self, lens, window=None):
        super().__init__(lens)


def _window_results(p: Polygon, crossover: int, keep_all: bool):
    """The minima of the scans behind dcsd, scsd and delta_n, delta_n's
    report and the objective's bits, from the dense scan (a crossover above
    n) or the pruned one (0), with each collector keeping its window or,
    under keep_all, every candidate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thickness, "_CROSSOVER", crossover)
        if keep_all:
            mp.setattr(thickness, "_Collector", _KeepAll)
        scans = [thickness._minimum_scan(p, singly, window) for singly, window in
                 ((False, -math.inf), (True, -math.inf), (True, thickness._TIE * p.length))]
        return ([(out.min, out.doubly_min) for out in scans], delta_n(p).to_json(),
                inv_delta_objective(p, 1e-6 * p.length).hex())


def _gathered(out) -> int:
    """How many candidates a collector has gathered."""
    return sum(chunk[2].size for chunk in out._chunks)


def _delta_n_collector(p: Polygon):
    """The collector of the scan behind delta_n(p)."""
    seen, scan = [], thickness._minimum_scan

    def recording(*args, **kwargs):
        seen.append(scan(*args, **kwargs))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thickness, "_minimum_scan", recording)
        delta_n(p)
    (out,) = seen
    return out


class TestMinimumOnlyCollector:
    """The minima's collectors keep only what a minimum can pick: delta_n's
    the doubly candidates within _TIE * L of the running doubly minimum,
    dcsd's, scsd's and the objective's none.  Every result matches a
    collector that keeps every candidate, bit for bit."""

    @given(kind=st.sampled_from(["random", "perturbed", "crossing-hexagon", "regular"]),
           n=st.integers(4, 160), seed=st.integers(0, 10**6), x=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_keep_all(self, kind, n, seed, x):
        # the regular n-gons tie every diameter or width candidate
        p = (crossing_hexagon(10.0 ** (-2.0 - 7.0 * x)) if kind == "crossing-hexagon"
             else _subject(kind, n, seed, x))
        for crossover in (0, 10**9):
            assert _window_results(p, crossover, False) == _window_results(p, crossover, True)

    @pytest.mark.parametrize("name", ["regular", "trefoil", "random-00", "crumpled-1024"])
    def test_matches_keep_all_at_2048(self, name):
        # the regular 2048-gon's pruned scan ties 1,024 width candidates
        p = _named_2048(name)
        crossover = thickness._CROSSOVER
        assert _window_results(p, crossover, False) == _window_results(p, crossover, True)

    def test_family_without_candidates_keeps_nothing(self):
        # a family with no accepted entry has masked minimum +inf, and the
        # doubly minimum stays +inf until a doubly entry is accepted: a
        # window about +inf must keep none of the entries, however close
        ij, dist = np.arange(4), np.array([0.1, 0.2, 0.3, 0.4])
        out, every = thickness._Collector(np.ones(4), 1e-12), thickness._Collector(np.ones(4))
        for mask, kind, doubly in (([0, 0, 0, 0], 2, True), ([0, 0, 1, 1], 1, False),
                                   ([0, 1, 1, 0], 0, True)):
            for c in (out, every):
                c.add(ij, ij[::-1], np.array(mask, dtype=bool), dist, 0.0, 0.0, kind, doubly)
            if doubly:
                assert (out.min, out.doubly_min) == (every.min, every.doubly_min)
        arr = out.arrays()
        assert (out.min, out.doubly_min, _gathered(out), _gathered(every)) == (0.2, 0.2, 1, 4)
        assert (arr["dist"].tolist(), arr["i"].tolist(), arr["doubly"].tolist()) == (
            [0.2], [1], [True])

    @pytest.mark.parametrize("name", ["regular", "trefoil", "random-00", "crumpled"])
    def test_delta_n_keeps_the_tie_window(self, name):
        # delta_n's collector holds the keep-all scan's doubly candidates
        # within _TIE * L of dcsd, in order, and a few more, each within the
        # window of the minimum as it stood then
        p = _named_2048(name)
        tie = thickness._TIE * p.length
        out, every = _delta_n_collector(p), thickness._pruned_scan(p, True)
        full, arr = every.arrays(), out.arrays()
        window = full["doubly"] & (full["dist"] <= every.doubly_min + tie)
        final = arr["dist"] <= out.doubly_min + tie
        assert out.doubly_min == every.doubly_min and arr["doubly"].all()
        assert all(np.array_equal(arr[key][final], full[key][window]) for key in full)
        assert window.sum() <= arr["dist"].size <= window.sum() + 4

    @pytest.mark.parametrize("n", [40, 2048])
    def test_minima_keep_no_candidate(self, n):
        p = random_equilateral_polygon(n, np.random.default_rng(5))
        for singly in (False, True):
            out = thickness._minimum_scan(p, singly, -math.inf)
            assert out.min < math.inf and _gathered(out) == 0


class TestGapWithin:
    """The tree-pruned edge gap behind is_simple, delta_n and the objective
    against the dense _edge_gap, and the pairs it measures."""

    @given(kind=st.sampled_from(SUBJECT_KINDS), n=st.integers(4, 160),
           seed=st.integers(0, 10**6), x=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense(self, kind, n, seed, x):
        p = _subject(kind, n, seed, x)
        _check_gap_within(p, float(_edge_gap(p.vertices)))

    @pytest.mark.parametrize("name", ["regular", "random"])
    def test_measures_few_pairs(self, name):
        p = (regular_ngon(2048) if name == "regular"
             else random_equilateral_polygon(2048, np.random.default_rng(3)))
        measured = []
        gap2 = thickness._gap2

        def counting(Ei, Ej, a, c, mask, *args):
            measured.append(np.size(a))
            return gap2(Ei, Ej, a, c, mask, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thickness, "_gap2", counting)
            assert is_simple(p)
        assert sum(measured) <= 4 * p.n

    @pytest.mark.parametrize("name", ["trefoil", "random-00"])
    def test_measures_non_adjacent_pairs_only(self, name):
        # the tree finds every edge's neighbours; the trefoil's 2,048 pairs
        # are all adjacent, so no kernel runs, and random-00's leave 4,913
        # of 6,961, fewer than _GAP_BATCH, measured in one call
        p = _named_2048(name)
        assert is_simple(p)
        seen = _gap_calls(p)
        assert all(np.all(thickness._pair_ok(I, J, p.n)) for I, J in seen)
        assert [I.size for I, _ in seen] == {"trefoil": [], "random-00": [4913]}[name]

    def test_octagon_starts_call_no_kernel(self):
        # the annealing benchmark's 32 perturbed octagons: no non-adjacent
        # midpoints lie within reach of either clearance, so is_simple and
        # the objective read their verdicts off the gather alone
        calls, gathered = [], thickness._gathered_gap

        def recording(*args):
            calls.append(args)
            return gathered(*args)

        for j in range(32):
            p = perturbed_regular(8, 0.18, np.random.default_rng(j))
            gap = float(_edge_gap(p.vertices))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(thickness, "_gathered_gap", recording)
                simple = is_simple(p)
                objective = inv_delta_objective(p, 1e-6 * p.length)
            assert calls == []
            assert simple == (gap > 1e-12 * p.length)
            assert math.isfinite(objective) == (gap > 1e-6 * p.length)


def _gather_verdicts(p: Polygon, frames: np.ndarray, clearance: float, move):
    """What the two gathers must agree on, under the gather the current
    _DENSE_PAIRS selects: _clear of p and of its sweep frames, is_simple,
    move_is_admissible, and the sets (f, i, j) that _near_pairs gathers
    from the one-frame stack and from the frames."""
    reach = thickness._reach(clearance, float(p.edge_lengths.max()), p.length)
    gathered = [set(zip(*(x.tolist() for x in thickness._near_pairs(
        thickness._midpoints(V), reach)))) for V in (p.vertices[None], frames)]
    return ((_clear(p, p.vertices[None], clearance), _clear(p, frames, clearance),
             is_simple(p), move_is_admissible(p, *move, clearance=clearance)), gathered)


class TestGathers:
    """_near_pairs' dense test and its tree, selected by the stack's size
    (_DENSE_PAIRS), and forced here by setting it to either extreme."""

    @given(kind=st.sampled_from(["random", "perturbed", "crumpled10", "crossing-hexagon"]),
           n=st.integers(4, 95), seed=st.integers(0, 10**6), x=st.floats(0.0, 1.0),
           i=st.integers(0, 94), gap=st.integers(0, 92), theta=st.floats(-math.pi, math.pi))
    @settings(max_examples=80, deadline=None)
    def test_gathers_agree(self, kind, n, seed, x, i, gap, theta):
        if kind == "crumpled10":
            p = read_polygon("tests/data/crumpled10.txt")
        elif kind == "crossing-hexagon":
            p = crossing_hexagon(10.0 ** (-2.0 - 7.0 * x))
        else:
            p = _subject(kind, n, seed, x)
        n = p.n
        move = (i % n, (i % n + 2 + gap % (n - 3)) % n, theta)
        frames = _swept(p, move[0], move[1], np.arange(17) / 16 * theta)
        for clearance in (1e-12 * p.length, 1e-6 * p.length, x * p.length / n):
            seen = []
            for dense_pairs in (10**9, -1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(thickness, "_DENSE_PAIRS", dense_pairs)
                    seen.append(_gather_verdicts(p, frames, clearance, move))
            (dense, (one_d, stack_d)), (tree, (one_t, stack_t)) = seen
            assert dense == tree
            assert one_d == one_t
            assert {q for q in stack_d if q[0] == 0} == {q for q in stack_t if q[0] == 0}
            close = set(zip(*(a.tolist() for a in np.nonzero(_pair_gaps(frames) <= clearance))))
            assert close <= stack_d and close <= stack_t
            assert {q for q in close if q[0] == 0} <= one_d


class TestPerNCaches:
    """The non-adjacent pair lists of the dense gather and the index
    tables of the one-block scan are formed once per n and shared."""

    def test_read_only(self):
        for n in (4, 8, 64, 96):
            cached = thickness._pairs(n) + thickness._square_index(n)
            idx = np.arange(n)
            fresh = thickness._index(idx[:, None], idx[None, :], n)
            for x, y in zip(thickness._square_index(n), fresh):
                assert x.dtype == y.dtype and np.array_equal(x, y)
            for x in cached:
                assert not x.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    x[...] = 0

    def test_interleaved_calls_match_a_cleared_cache(self):
        def results(n):
            p = random_equilateral_polygon(n, np.random.default_rng(n))
            V, reach = p.vertices[None], 0.5 * p.length / n
            scans = [_scan(p, singly).arrays() for singly in (False, True)]
            return ([{k: v.tobytes() for k, v in arr.items()} for arr in scans],
                    critical_pairs(p, "doubly"), critical_pairs(p, "singly"),
                    [_clear(p, V, c * p.length / n) for c in (1e-6, 0.05, 0.25)],
                    [x.tobytes() for x in thickness._near_pairs(thickness._midpoints(V), reach)])

        sequence = (5, 8, 24, 8, 64, 5)
        warm = [results(n) for n in sequence]
        for n, seen in zip(sequence, warm):
            thickness._pairs.cache_clear()
            thickness._square_index.cache_clear()
            assert results(n) == seen

    def test_unit_is_clip(self):
        # _families and _gap2 clamp to [0, 1] with _unit; -0.0 stays -0.0
        rng = np.random.default_rng(0)
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1e-300])
        for size in (1, 7, 64, 1001):
            x = np.concatenate([rng.choice(special, size), rng.normal(0.5, 1.0, size)])
            assert thickness._unit(x).tobytes() == np.clip(x, 0.0, 1.0).tobytes()
        assert math.copysign(1.0, thickness._unit(-0.0)) == -1.0
