import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polythick import polygon
from polythick.geom import circumradius
from polythick.polygon import (
    PolyArc,
    Polygon,
    dumps_polygon,
    loads_polygon,
    max_curv,
    max_curv2,
    min_rad,
    random_equilateral_polygon,
    read_polygon,
    regular_ngon,
    total_curvature,
    write_polygon,
)

from _gen import perturbed_regular


class TestConstruction:
    def test_square_side_quarter(self):
        s = 0.25
        p = Polygon([(0, 0, 0), (s, 0, 0), (s, s, 0), (0, s, 0)])
        assert p.n == 4
        assert p.length == pytest.approx(1.0, abs=1e-15)
        assert p.edge_length == pytest.approx(0.25, abs=1e-15)

    def test_unequal_triangle_rejected_with_edge_index(self):
        # degenerate sides 1, 1, 2: first offending edge is reported
        with pytest.raises(ValueError, match="edge 0"):
            Polygon([(0, 0, 0), (1, 0, 0), (2, 0, 0)])

    def test_regular_hexagon_side_sixth(self):
        s = 1.0 / 6.0
        pts = [
            (s * math.cos(k * math.pi / 3), s * math.sin(k * math.pi / 3), 0)
            for k in range(6)
        ]
        p = Polygon(pts)
        assert p.length == pytest.approx(1.0, rel=1e-12)

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0, 0), (1, 0, 0)])

    def test_vertex_array_shape_and_finiteness_named(self):
        with pytest.raises(ValueError, match=r"\(n, 3\) vertex array, got shape \(4, 2\)"):
            Polygon(np.zeros((4, 2)))
        V = regular_ngon(5).vertices.copy()
        V[2, 1] = np.inf
        with pytest.raises(ValueError, match="vertex coordinates must be finite"):
            Polygon(V)

    def test_random_polygon_needs_three_edges(self):
        with pytest.raises(ValueError, match="n must be at least 3"):
            random_equilateral_polygon(2, np.random.default_rng(0))

    @pytest.mark.parametrize("scale", [0.0, 3e-200, 1e-80, 1e80, 1e160, 1e300])
    def test_mean_edge_outside_range_rejected(self, scale):
        # zero, underflowing and overflowing lengths included, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mean edge length .* outside the supported"):
                Polygon(regular_ngon(7).vertices * scale)

    def test_vertices_read_only(self):
        p = regular_ngon(5)
        with pytest.raises(ValueError):
            p.vertices[0, 0] = 99.0

    def test_caller_array_stays_writable(self):
        # the constructors freeze their own copy, never the caller's array
        V = regular_ngon(5).vertices.copy()
        for make in (Polygon, PolyArc):
            q = make(V)
            before = q.vertices.copy()
            V[0, 0] += 1.0
            assert np.array_equal(q.vertices, before)


class TestRegularNgon:
    def test_square_circumradius(self):
        p = regular_ngon(4)
        r = np.linalg.norm(p.vertices[0])
        assert r == pytest.approx(0.25 / (2 * math.sin(math.pi / 4)), abs=1e-15)

    def test_triangle_side(self):
        p = regular_ngon(3)
        assert p.edge_length == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 100])
    def test_unit_length_and_planarity(self, n):
        p = regular_ngon(n)
        assert abs(p.length - 1.0) < 1e-12
        assert np.all(p.vertices[:, 2] == 0.0)
        assert np.allclose(p.vertices.mean(axis=0), 0.0, atol=1e-15)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            regular_ngon(2)

    def test_non_integer_n_rejected(self):
        # failed in np.arange with a TypeError
        with pytest.raises(ValueError, match="^n must be an integer, got 8.0$"):
            regular_ngon(8.0)


def test_random_polygon_non_integer_n_rejected():
    # failed in numpy's draw with a TypeError
    with pytest.raises(ValueError, match="^n must be an integer, got 8.5$"):
        random_equilateral_polygon(8.5, 0)


class TestArcParametrization:
    def test_t_zero_is_first_vertex(self):
        p = regular_ngon(4)
        assert np.allclose(p.arc_point(0.0), p.vertices[0], atol=1e-15)

    def test_edge_midpoint(self):
        p = regular_ngon(4)
        mid = p.arc_point(0.125)  # halfway along the first edge
        assert np.allclose(mid, 0.5 * (p.vertices[0] + p.vertices[1]), atol=1e-14)

    def test_wraps_mod_one(self):
        p = regular_ngon(5)
        assert np.allclose(p.arc_point(1.3), p.arc_point(0.3), atol=1e-12)
        assert np.allclose(p.arc_point(-0.2), p.arc_point(0.8), atol=1e-12)

    def test_unit_speed(self):
        p = perturbed_regular(9, 0.1, np.random.default_rng(0))
        h = 1e-7
        for t in (0.05, 0.37, 0.91):
            v = (p.arc_point(t + h) - p.arc_point(t)) / h
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-6)

    def test_arc_dir_jump_at_square_vertex(self):
        p = regular_ngon(4)
        right = p.arc_dir(0.25)
        left = p.arc_dir(0.25, side="left")
        angle = math.atan2(
            np.linalg.norm(np.cross(left, right)), float(np.dot(left, right))
        )
        assert angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_arc_dir_side_named(self):
        with pytest.raises(ValueError, match="side must be 'right' or 'left', got 'up'"):
            regular_ngon(4).arc_dir(0.25, side="up")

    def test_arc_dir_unit_and_matches_edge(self):
        p = regular_ngon(6)
        d = p.arc_dir(0.1)  # interior of first edge
        e = p.vertices[1] - p.vertices[0]
        assert np.allclose(d, e / np.linalg.norm(e), atol=1e-14)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, [0.25, math.nan]])
    def test_non_finite_parameter_rejected(self, t):
        # mod 1 read nan, whose int cast indexed far outside the edge table
        p = regular_ngon(6)
        for f in (p.arc_point, p.arc_dir, lambda t: p.arc_dir(t, side="left")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="t must be finite, got (nan|inf|-inf)"):
                    f(t)

    def test_finite_parameters_keep_their_values(self):
        p = perturbed_regular(9, 0.1, np.random.default_rng(0))
        ts = np.array([0.0, 0.05, 1.0 / 9.0, 0.5, 0.91, 1.3, -0.2])
        u = np.mod(ts, 1.0) * p.n
        k = np.minimum(u.astype(int), p.n - 1)
        expect = p.vertices[k] + (u - k)[:, None] * p.edges[k]
        assert np.array_equal(p.arc_point(ts), expect)
        assert np.array_equal(p.arc_point(0.37), p.arc_point(np.array([0.37]))[0])


class TestDiscreteCurvature:
    def test_square_kappa_d(self):
        p = regular_ngon(4)
        for i in range(4):
            assert p.kappa_d(i) == pytest.approx(8.0, rel=1e-13)

    def test_square_kappa_d2(self):
        p = regular_ngon(4)
        assert p.kappa_d2(0) == pytest.approx(2 * math.pi, rel=1e-13)

    def test_straight_vertex_zero(self):
        arc = PolyArc([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert arc.kappa_d(1) == 0.0
        assert arc.kappa_d2(1) == 0.0

    def test_doubled_back_vertex_infinite(self):
        arc = PolyArc([(0, 0, 0), (1, 0, 0), (0, 0, 0)])
        assert arc.kappa_d(1) == math.inf
        assert arc.kappa_d2(1) == pytest.approx(math.pi, rel=1e-15)
        assert arc.kappa_d_all().tolist() == [math.inf]
        assert arc.kappa_d2_all().tolist() == [arc.kappa_d2(1)]
        assert max_curv(arc) == math.inf

    @given(st.integers(4, 40), st.floats(0.0, 0.3), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kappa_d2_below_kappa_d(self, n, sigma, seed):
        p = perturbed_regular(n, sigma, np.random.default_rng(seed))
        kd = p.kappa_d_all()
        kd2 = p.kappa_d2_all()
        assert np.all(kd2 <= kd + 1e-12)
        # the per-vertex values are the arrays read at i mod n, bit for bit
        for i in range(-1, n + 1):
            assert p.kappa_d(i) == kd[i % n]
            assert p.kappa_d2(i) == kd2[i % n]
        assert max_curv(p) == max(p.kappa_d(i) for i in range(n))

    def test_aggregates_on_regular_ngons(self):
        g6 = regular_ngon(6)
        assert max_curv(g6) == pytest.approx(12 * math.tan(math.pi / 6), rel=1e-13)
        g4 = regular_ngon(4)
        assert min_rad(g4) == pytest.approx(0.125, rel=1e-13)
        assert max_curv2(g4) == pytest.approx(2 * math.pi, rel=1e-13)

    def test_doubled_back_polygon_minrad_zero(self):
        # equilateral quadrilateral folded flat: vertex 2 doubles back
        p = Polygon([(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 0, 0)], tolerance=1e-6)
        assert max_curv(p) == math.inf
        assert min_rad(p) == 0.0
        assert p.kappa_d_all().tolist() == [math.inf, 0.0, math.inf, 0.0]
        assert [p.kappa_d(i) for i in range(4)] == p.kappa_d_all().tolist()
        assert [p.kappa_d2(i) for i in range(4)] == p.kappa_d2_all().tolist()


class TestCircumradiusAngleIdentity:
    def test_identity_on_random_triples(self):
        # place y between x and z on a circle of radius rho, with half-angles
        # a, b subtended by the two chords; then with phi measured directly,
        # kappa_d(x,y,z) * circumradius(x,y,z) = 2 tan((a+b)/2)/(sin a + sin b)
        from polythick.geom import exterior_angle

        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b = rng.uniform(1e-3, math.pi / 2 - 1e-3, size=2)
            rho = rng.uniform(0.1, 5.0)
            angles = np.array([-2 * a, 0.0, 2 * b])
            pts = rho * np.column_stack(
                [np.cos(angles), np.sin(angles), np.zeros(3)]
            )
            # random rotation + shift so nothing is axis-aligned
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            x, y, z = pts @ q.T + rng.normal(size=3)
            r = circumradius(x, y, z)
            assert r == pytest.approx(rho, rel=1e-9)
            la = np.linalg.norm(y - x)
            lb = np.linalg.norm(z - y)
            assert la == pytest.approx(2 * rho * math.sin(a), rel=1e-9)
            phi = exterior_angle(x, y, z)
            assert phi == pytest.approx(a + b, rel=1e-9)
            kd = 2 * math.tan(phi / 2) / ((la + lb) / 2)
            rhs = 2 * math.tan((a + b) / 2) / (math.sin(a) + math.sin(b))
            assert kd * r == pytest.approx(rhs, rel=1e-8)

    def test_ratio_bound_on_grid(self):
        # 2 tan((a+b)/2)/(sin a + sin b) is 1 at the origin and exceeds 1 by
        # at most (a+b)^2 on [0, pi/6]^2
        grid = np.linspace(1e-6, math.pi / 6, 60)
        for a in grid:
            for b in grid:
                ratio = 2 * math.tan((a + b) / 2) / (math.sin(a) + math.sin(b))
                excess = ratio - 1.0
                assert -1e-12 <= excess <= (a + b) ** 2


class TestTotalCurvature:
    @pytest.mark.parametrize("n", [3, 4, 5, 17, 64])
    def test_regular_ngon_total_is_two_pi(self, n):
        assert total_curvature(regular_ngon(n)) == pytest.approx(
            2 * math.pi, abs=1e-12
        )

    def test_planar_convex_nonregular_total_is_two_pi(self):
        # equilateral planar hexagon squashed along y, still convex
        s = 1.0 / 6.0
        dirs_angles = [0.2, 0.9, 2.0, math.pi + 0.2, math.pi + 0.9, math.pi + 2.0]
        dirs = np.array([(math.cos(a), math.sin(a), 0.0) for a in dirs_angles])
        assert np.allclose(dirs.sum(axis=0), 0, atol=1e-15)
        verts = np.vstack([np.zeros(3), np.cumsum(dirs[:-1], axis=0)]) * s
        p = Polygon(verts)
        assert total_curvature(p) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_fenchel_lower_bound_random(self):
        rng = np.random.default_rng(1)
        for k in range(25):
            p = perturbed_regular(int(rng.integers(4, 30)), 0.3, rng)
            assert total_curvature(p) >= 2 * math.pi - 1e-9

    def test_knotted_fixture_exceeds_two_pi(self, data_dir):
        p = read_polygon(data_dir / "trefoil32.txt")
        assert total_curvature(p) > 2 * math.pi + 0.1


class TestRigidMotionInvariance:
    def test_curvatures_invariant(self):
        rng = np.random.default_rng(9)
        p = perturbed_regular(11, 0.2, rng)
        c, s = math.cos(1.1), math.sin(1.1)
        R = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        q = Polygon(p.vertices @ R.T + np.array([0.3, -0.7, 2.0]))
        assert np.allclose(p.kappa_d_all(), q.kappa_d_all(), rtol=1e-9)
        assert np.allclose(p.kappa_d2_all(), q.kappa_d2_all(), rtol=1e-9)
        assert total_curvature(p) == pytest.approx(total_curvature(q), rel=1e-11)


class TestPolyArc:
    def test_interior_curvature_indices(self):
        arc = PolyArc([(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)])
        assert arc.m == 3
        assert arc.kappa_d(1) == pytest.approx(2 * math.tan(math.pi / 4), rel=1e-13)
        with pytest.raises(IndexError):
            arc.kappa_d(0)
        with pytest.raises(IndexError):
            arc.kappa_d(3)
        # a single edge has no interior vertex: no index is valid and every
        # aggregate is that of an empty set of vertices
        one = PolyArc([(0, 0, 0), (1, 0, 0)])
        assert one.m == 1
        for i in (0, 1):
            with pytest.raises(IndexError):
                one.kappa_d(i)
            with pytest.raises(IndexError):
                one.kappa_d2(i)
        assert one.kappa_d_all().size == 0
        assert max_curv(one) == max_curv2(one) == total_curvature(one) == 0.0
        assert min_rad(one) == math.inf

    def test_unequal_edges_allowed(self):
        arc = PolyArc([(0, 0, 0), (1, 0, 0), (1, 3, 0)])
        assert arc.edge_lengths == pytest.approx([1.0, 3.0])

    def test_coincident_consecutive_rejected(self):
        with pytest.raises(ValueError):
            PolyArc([(0, 0, 0), (0, 0, 0), (1, 0, 0)])

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            PolyArc([(0, 0, 0)])


class TestTextFormat:
    def test_round_trip_exact(self):
        p = perturbed_regular(13, 0.15, np.random.default_rng(2))
        q = loads_polygon(dumps_polygon(p))
        assert np.array_equal(p.vertices, q.vertices)

    def test_comments_and_blank_lines(self):
        text = """# a square of side .25
0 0 0

0.25 0 0
0.25 0.25 0   # corner
0 0.25 0
"""
        p = loads_polygon(text)
        assert p.n == 4

    def test_bad_line_reports_number(self):
        for bad in ("1 nope 0", "inf 0 0"):
            with pytest.raises(ValueError, match="line 3"):
                loads_polygon(f"0 0 0\n1 0 0\n{bad}\n")

    def test_comments_only_rejected(self):
        with pytest.raises(ValueError, match="no vertices found"):
            loads_polygon("# a header\n\n   # and nothing else\n")

    def test_file_round_trip(self, tmp_path):
        p = regular_ngon(7)
        path = tmp_path / "heptagon.txt"
        write_polygon(p, path)
        q = read_polygon(path)
        assert np.array_equal(p.vertices, q.vertices)


def _parsed(parse, text):
    """The array parse makes of text, or the text of its ValueError."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


class TestParseRows:
    """_parse_rows reads plain text with np.loadtxt and falls back to the
    per-line loop for everything else: both give the same array, bit for
    bit, or the same error naming the same line."""

    @pytest.mark.parametrize("text", [
        "1 2 3\n4 5 6\n",
        "# header\n\n1 2 3   # trailing comment\n\n 4 5 6\t \n",
        "0.1000000000000000055511151231257827 4.9e-324 -1.7976931348623157e308\n",
        "1 2 3",
        "1\t2\t3\n+.5e-3 -0 5.\n",
        "",
        "# only a comment\n   # and another\n",
        "\n  \n\t\n",
        "1 2 3\nnan 0 0\n",
        "1 2 3\n0 inf 0\n",
        "1 2 3\n0 0 -Infinity\n",
        "1e400 0 0\n",
        "1_0 2 3\n",
        "1 2 3\n0x1p3 0 0\n",
        "1 2\n",
        "1 2 3\n4 5 6 7\n",
        "1 2\n3 4\n5 6\n",
        "1 2 3 4\n5 6 7 8\n",
        "1 2 3\n1,2,3\n",
        "1 2 3 \r\n4 5 6\r\n",
        "1 2\x0c3\n",
        "1 2 3\x0c4 5 6\n",
        "1\xa02 3\n",
        "1 2 3 # caf\xe9\n",
        "1 2 3\x00\n",
    ])
    def test_fast_path_matches_loop(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _parsed(polygon._parse_rows, text)
        want = _parsed(lambda t: polygon._parse_lines(t.splitlines()), text)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_written_polygon_skips_the_loop(self, monkeypatch):
        p = random_equilateral_polygon(256, np.random.default_rng(5))
        monkeypatch.setattr(polygon, "_parse_lines", None)
        assert np.array_equal(loads_polygon(dumps_polygon(p, "a comment")).vertices,
                              p.vertices)
