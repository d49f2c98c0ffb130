"""Tests for chord comparison and the tangent-sphere exclusion."""

import math
import re

import numpy as np
import pytest

from polythick import (
    circle_chord,
    max_curv,
    max_curv2,
    random_bounded_arc,
    schur_check,
    sphere_exclusion_check,
)
from polythick.polygon import PolyArc
from polythick.schur import _check_curvature


def constant_turn_arc(n_edges: int, phi: float, ell: float = 1.0) -> PolyArc:
    """Planar equilateral arc turning by phi at every interior vertex."""
    d = np.array([1.0, 0.0, 0.0])
    pts = [np.zeros(3)]
    for _ in range(n_edges):
        pts.append(pts[-1] + ell * d)
        c, s = math.cos(phi), math.sin(phi)
        d = np.array([c * d[0] - s * d[1], s * d[0] + c * d[1], 0.0])
    return PolyArc(np.asarray(pts))


def straight_arc(n_edges: int, ell: float = 0.3) -> PolyArc:
    pts = np.zeros((n_edges + 1, 3))
    pts[:, 0] = ell * np.arange(n_edges + 1)
    return PolyArc(pts)


def rotated_frame_report(arc: PolyArc, K: float):
    """Distances and both anchor sides of the sphere exclusion, measured as
    it once was: the arc rotated by a 3x3 matrix, the minimal rotation R
    taking its first direction to e1, and moved to start at -e2/K, against
    the sphere of radius 1/K about the origin."""
    r = 1.0 / K
    v = arc.vertices - arc.vertices[0]
    d0 = arc.directions()[0]
    e1 = np.array([1.0, 0.0, 0.0])
    c = float(d0 @ e1)
    axis = np.cross(d0, e1)
    s = float(np.linalg.norm(axis))
    if s < 1e-15:
        R = np.eye(3) if c > 0.0 else np.diag([-1.0, 1.0, -1.0])
    else:
        axis = axis / s
        Kx = np.array([[0.0, -axis[2], axis[1]],
                       [axis[2], 0.0, -axis[0]],
                       [-axis[1], axis[0], 0.0]])
        R = np.eye(3) + s * Kx + (1.0 - c) * (Kx @ Kx)
    v = v @ R.T + np.array([0.0, -r, 0.0])
    p0, others = v[0], v[1:]
    a_k = np.cumsum(arc.edge_lengths)
    return (np.linalg.norm(others, axis=1) - r, (others - p0) @ p0,
            -r * r * (1.0 - np.cos(K * a_k)))


def frame_with_first_column(d: np.ndarray) -> np.ndarray:
    """A rotation matrix whose first column is the unit vector d."""
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(d)))] = 1.0
    u = np.cross(d, helper)
    u /= np.linalg.norm(u)
    return np.column_stack([d, u, np.cross(d, u)])


class TestCircleChord:
    def test_semicircle(self):
        # length pi on the unit circle closes a diameter
        assert circle_chord(1.0, math.pi) == pytest.approx(2.0, abs=1e-15)

    def test_scaling(self):
        # chord(K, L) = chord(1, K L) / K
        for K, L in ((0.5, 2.0), (2.0, 1.0), (3.0, 0.7)):
            assert circle_chord(K, L) == pytest.approx(
                circle_chord(1.0, K * L) / K, rel=1e-15
            )

    def test_short_arc_is_nearly_straight(self):
        assert circle_chord(1.0, 1e-6) == pytest.approx(1e-6, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            circle_chord(0.0, 1.0)
        with pytest.raises(ValueError):
            circle_chord(1.0, -1.0)
        for K, L in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                circle_chord(K, L)


class TestSchurCheck:
    def test_single_bend(self):
        # two unit edges turning 0.5 at the middle vertex, against the unit
        # circle: chord 2 cos(1/4) beats 2 sin(1)
        case = schur_check(constant_turn_arc(2, 0.5), 1.0)
        assert case.polygon_chord == pytest.approx(2.0 * math.cos(0.25),
                                                   abs=1e-12)
        assert case.circle_chord == pytest.approx(2.0 * math.sin(1.0),
                                                  abs=1e-12)
        assert case.margin == pytest.approx(0.2548828738054967, abs=1e-12)

    def test_straight_arc_margin(self):
        case = schur_check(straight_arc(5), 1.0)
        L = case.L
        assert case.margin == pytest.approx(L - 2.0 * math.sin(L / 2.0),
                                            abs=1e-12)
        assert case.margin > 0.0

    def test_margin_shrinks_with_refinement(self):
        # constant-turn arcs at the curvature budget approach the circle
        # from outside; the margin decreases toward zero but stays positive
        K, L = 1.0, 2.0
        margins = []
        for n in (2, 4, 8, 16):
            arc = constant_turn_arc(n, K * L / n, L / n)
            margins.append(schur_check(arc, K).margin)
        assert all(m > 0.0 for m in margins)
        assert all(a > b for a, b in zip(margins, margins[1:]))
        assert margins[-1] < 2e-3

    def test_margin_grows_with_budget(self):
        # a larger allowed curvature compares against a tighter circle
        arc = constant_turn_arc(4, 0.2, 0.5)
        m1 = schur_check(arc, 0.5).margin
        m2 = schur_check(arc, 1.0).margin
        m3 = schur_check(arc, 1.5).margin
        assert m1 < m2 < m3

    def test_curvature_precondition(self):
        arc = constant_turn_arc(3, 0.8)
        with pytest.raises(ValueError, match="curvature bound"):
            schur_check(arc, 0.5)
        # a non-finite K would give a NaN margin or a math domain error
        for K in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"finite K > 0, got K = {K}"):
                schur_check(arc, K)

    def test_length_precondition_strict(self):
        arc = straight_arc(7, 0.5)  # L = 3.5, K*L > pi
        with pytest.raises(ValueError, match="length bound"):
            schur_check(arc, 1.0, mode="strict")

    def test_relaxed_budget_extends_strict(self):
        # K*L just over pi: rejected strictly, accepted with the end-edge
        # allowance, and the margin is still positive
        n, K = 8, 1.0
        L = math.pi + 0.2        # within pi + K * ell for ell = L / n
        arc = constant_turn_arc(n, 0.3 / n, L / n)
        with pytest.raises(ValueError, match="length bound"):
            schur_check(arc, K, mode="strict")
        case = schur_check(arc, K, mode="relaxed")
        assert case.mode == "relaxed"
        assert case.margin > 0.0

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            schur_check(straight_arc(3), 1.0, mode="loose")
        with pytest.raises(ValueError):
            schur_check(straight_arc(3), -1.0)

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    def test_one_edge_arc(self, mode):
        # an arc of one edge has no interior vertex and max_curv2 0; the
        # stacked check raised IndexError from maximum.reduceat
        arc = straight_arc(1, 0.7)
        assert max_curv2(arc) == 0.0
        case = schur_check(arc, 2.0, mode)
        assert (case.L, case.polygon_chord) == (0.7, 0.7)
        assert case.circle_chord == math.sin(0.7)
        assert case.margin > 0.0

    def test_stacked_max_curv2_with_one_edge_arcs(self):
        # a one-edge arc between two others, and one ending the stack,
        # read max_curv2 0, and their neighbours their own
        arcs = [constant_turn_arc(2, 0.3), straight_arc(1), constant_turn_arc(3, 0.5),
                straight_arc(1)]
        n = np.array([arc.m for arc in arcs])
        V = np.zeros((len(arcs), n.max() + 1, 3))
        for b, arc in enumerate(arcs):
            V[b, :arc.m + 1] = arc.vertices
        _, _, kc, _ = _check_curvature(V, n, np.full(len(arcs), 1.0))
        assert kc.tolist() == [max_curv2(arc) for arc in arcs]
        assert kc[[1, 3]].tolist() == [0.0, 0.0] and kc[0] > 0.0 and kc[2] > 0.0

    def test_case_records_inputs(self):
        arc = straight_arc(4)
        case = schur_check(arc, 2.0)
        assert case.K == 2.0
        assert case.L == pytest.approx(arc.length)
        assert case.mode == "strict"


class TestSphereExclusion:
    def test_straight_arc_closed_form(self):
        # tangent at the start, so vertex k sits at distance
        # sqrt((k ell)^2 + r^2) - r from the sphere surface
        arc = straight_arc(5, 0.3)
        rep = sphere_exclusion_check(arc, 1.0)
        a = 0.3 * np.arange(1, 6)
        expect = np.sqrt(a * a + 1.0) - 1.0
        assert np.max(np.abs(rep.distances - expect)) < 1e-12
        assert rep.min_distance > 0.0

    def test_one_edge_arc(self):
        # the closed form above at k = 1: the stacked check raised
        # IndexError on an arc with no interior vertex
        rep = sphere_exclusion_check(straight_arc(1, 0.3), 1.0)
        assert rep.distances.shape == (1,)
        assert abs(rep.distances[0] - (math.sqrt(1.09) - 1.0)) < 1e-12
        assert np.min(rep.anchor_lhs - rep.anchor_rhs) >= -1e-12

    def test_anchor_inequality(self):
        arc = straight_arc(5, 0.3)
        rep = sphere_exclusion_check(arc, 1.0)
        assert np.min(rep.anchor_lhs - rep.anchor_rhs) >= -1e-12

    def test_budget_arcs_stay_outside(self):
        # arcs at the full curvature budget hug the sphere most closely;
        # refinement drives the clearance to zero without ever reaching it
        dists = []
        for n in (4, 8, 16):
            step = 0.45 * math.pi / n
            rep = sphere_exclusion_check(constant_turn_arc(n, step, step), 1.0)
            assert np.min(rep.anchor_lhs - rep.anchor_rhs) >= -1e-12
            dists.append(rep.min_distance)
        assert all(d > 0.0 for d in dists)
        assert dists[0] > dists[1] > dists[2]

    def test_translation_invariance(self):
        # the arc is re-anchored before measuring, so a shifted copy
        # reports identical distances
        arc = constant_turn_arc(6, 0.1, 0.2)
        rep0 = sphere_exclusion_check(arc, 1.0)
        moved = PolyArc(arc.vertices + np.array([3.0, -1.0, 2.0]))
        rep1 = sphere_exclusion_check(moved, 1.0)
        assert np.max(np.abs(rep1.distances - rep0.distances)) < 1e-12

    def test_rotation_preserves_exclusion(self):
        # rotating the input changes its roll about the anchored tangent
        # direction (the tangent sphere is a convention, not intrinsic),
        # yet every vertex stays outside for any roll
        arc = constant_turn_arc(6, 0.1, 0.2)
        rng = np.random.default_rng(8)
        for _ in range(5):
            A = rng.normal(size=(3, 3))
            Q, _ = np.linalg.qr(A)
            if np.linalg.det(Q) < 0:
                Q[:, 0] = -Q[:, 0]
            moved = PolyArc(arc.vertices @ Q.T + rng.normal(size=3))
            rep = sphere_exclusion_check(moved, 1.0)
            assert rep.min_distance > 0.0
            assert np.min(rep.anchor_lhs - rep.anchor_rhs) >= -1e-12

    def test_reversed_initial_direction(self):
        # first direction -e1 exercises the degenerate alignment of the
        # closed-form sphere centre
        pts = np.zeros((4, 3))
        pts[:, 0] = -0.3 * np.arange(4)
        rep = sphere_exclusion_check(PolyArc(pts), 1.0)
        a = 0.3 * np.arange(1, 4)
        expect = np.sqrt(a * a + 1.0) - 1.0
        assert np.max(np.abs(rep.distances - expect)) < 1e-12

    @pytest.mark.parametrize("first", ["random", "e1", "-e1", "1e-8 off -e1",
                                       "1e-16 off -e1"])
    def test_matches_rotated_frame(self, first):
        # the sphere centre V_0 + w/K in closed form against the rotation
        # matrix it replaced; the degenerate branch takes d within 1e-15 of
        # +-e1, and 1e-8 off -e1 is the worst-conditioned regular case
        rng = np.random.default_rng(24)
        for seed in range(60):
            n = int(rng.integers(2, 25))
            K = float(rng.uniform(0.2, 5.0))
            L = float(rng.uniform(0.1, 0.98 * 0.5 * math.pi)) / K
            if first == "random":
                d = rng.normal(size=3)
                d /= np.linalg.norm(d)
                Q = frame_with_first_column(d)
            elif first == "e1":
                Q = np.eye(3)
            elif first == "-e1":
                Q = np.diag([-1.0, -1.0, 1.0])
            else:
                eps = 1e-8 if first.startswith("1e-8") else 1e-16
                psi = rng.uniform(0.0, 2.0 * math.pi)
                d = np.array([-math.cos(eps), math.sin(eps) * math.cos(psi),
                              math.sin(eps) * math.sin(psi)])
                Q = frame_with_first_column(d / np.linalg.norm(d))
            arc = random_bounded_arc(n, K, L, seed=seed)
            # a shift would blur the first direction by rounding, so only
            # the random directions move off the origin
            shift = rng.normal(size=3) if first == "random" else np.zeros(3)
            moved = PolyArc(arc.vertices @ Q.T + shift)
            rep = sphere_exclusion_check(moved, K)
            dists, lhs, rhs = rotated_frame_report(moved, K)
            assert np.max(np.abs(rep.distances - dists)) <= 2e-15 / K
            assert np.max(np.abs(rep.anchor_lhs - lhs)) <= 2e-15 / K
            assert np.max(np.abs(rep.anchor_rhs - rhs)) <= 2e-15 / K

    def test_requires_equilateral(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.5, 0, 0]])
        with pytest.raises(ValueError, match="equilateral"):
            sphere_exclusion_check(PolyArc(pts), 1.0)

    def test_length_budget(self):
        arc = straight_arc(6, 0.3)   # K*L = 1.8 > pi/2
        with pytest.raises(ValueError, match="length bound"):
            sphere_exclusion_check(arc, 1.0)

    def test_curvature_budget(self):
        arc = constant_turn_arc(3, 0.5, 0.4)
        with pytest.raises(ValueError, match="curvature bound"):
            sphere_exclusion_check(arc, 1.0)
        for K in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"finite K > 0, got K = {K}"):
                sphere_exclusion_check(arc, K)

    def test_random_arcs_stay_outside(self):
        # boundary-hugging random draws: K*L at 98% of the admissible cap
        K = 1.0
        L = 0.98 * 0.5 * math.pi
        worst = math.inf
        for seed in range(200):
            arc = random_bounded_arc(12, K, L, seed=seed)
            rep = sphere_exclusion_check(arc, K)
            worst = min(worst, rep.min_distance)
            assert np.min(rep.anchor_lhs - rep.anchor_rhs) >= -1e-12
        assert worst > 0.0


class TestRandomBoundedArc:
    def test_deterministic(self):
        a = random_bounded_arc(16, 2.0, 1.0, seed=5)
        b = random_bounded_arc(16, 2.0, 1.0, seed=5)
        assert np.array_equal(a.vertices, b.vertices)
        c = random_bounded_arc(16, 2.0, 1.0, seed=6)
        assert not np.array_equal(a.vertices, c.vertices)

    def test_budget_respected(self):
        for seed in range(30):
            arc = random_bounded_arc(10, 2.0, 1.5, seed=seed)
            assert max_curv2(arc) <= 2.0 + 1e-12
            assert arc.length == pytest.approx(1.5, abs=1e-12)
            lens = arc.edge_lengths
            assert np.max(np.abs(lens - 0.15)) < 1e-15

    def test_bitwise_equal_to_numpy_walk(self):
        # the walk steps a stack of arcs at once for speed; it must draw the
        # same arcs as the plain numpy formulation of one arc, to the last bit
        def numpy_walk(n, K, L, seed):
            rng = np.random.default_rng(seed)
            ell = L / n
            d = np.array([1.0, 0.0, 0.0])
            pts = np.zeros((n + 1, 3))
            for k in range(1, n + 1):
                pts[k] = pts[k - 1] + ell * d
                if k == n:
                    break
                theta = rng.uniform(0.0, K * ell)
                psi = rng.uniform(0.0, 2.0 * math.pi)
                helper = np.zeros(3)
                helper[int(np.argmin(np.abs(d)))] = 1.0
                n1 = np.cross(d, helper)
                n1 /= np.linalg.norm(n1)
                n2 = np.cross(d, n1)
                axis = math.cos(psi) * n1 + math.sin(psi) * n2
                d = math.cos(theta) * d + math.sin(theta) * np.cross(axis, d)
                d /= np.linalg.norm(d)
            return pts

        rng = np.random.default_rng(11)
        for seed in range(200):
            n = int(rng.integers(2, 30))
            K = float(rng.uniform(0.0, 6.0))
            L = float(rng.uniform(0.05, 4.0))
            arc = random_bounded_arc(n, K, L, seed=seed)
            ref = numpy_walk(n, K, L, seed)
            assert arc.vertices.tobytes() == ref.tobytes()

    def test_max_curv2_matches_per_vertex(self):
        for seed in range(50):
            arc = random_bounded_arc(3 + seed % 20, 3.0, 2.0, seed=seed)
            per_vertex = max(arc.kappa_d2(i) for i in range(1, arc.m))
            assert max_curv2(arc) == per_vertex
            # both curvatures: per-vertex values are the arrays at i - 1
            kd = [arc.kappa_d(i) for i in range(1, arc.m)]
            kd2 = [arc.kappa_d2(i) for i in range(1, arc.m)]
            assert kd == arc.kappa_d_all().tolist()
            assert kd2 == arc.kappa_d2_all().tolist()
            assert max_curv(arc) == max(kd)

    def test_zero_curvature_is_straight(self):
        arc = random_bounded_arc(8, 0.0, 1.0, seed=1)
        assert max_curv2(arc) == pytest.approx(0.0, abs=1e-12)
        chord = np.linalg.norm(arc.vertices[-1] - arc.vertices[0])
        assert chord == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_bounded_arc(1, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            random_bounded_arc(4, -1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            random_bounded_arc(4, 1.0, 0.0, seed=0)
        for K, L in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                random_bounded_arc(4, K, L, seed=0)

    @pytest.mark.parametrize("n, seed, message", [
        (4.5, 0, "n must be an integer, got 4.5"),
        (4, -1, "seed must be a non-negative integer, got -1"),
        (4, 1.5, "seed must be an integer, got 1.5")])
    def test_count_and_seed_validation(self, n, seed, message):
        # these failed in numpy with messages that named no argument
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_bounded_arc(n, 1.0, 1.0, seed)

    def test_feeds_schur_check(self):
        K = 1.0
        L = 0.98 * math.pi
        for seed in range(50):
            case = schur_check(random_bounded_arc(10, K, L, seed=seed), K)
            assert case.margin > 0.0
