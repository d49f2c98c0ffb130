import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polythick.geom import (
    circumradius,
    exterior_angle,
    segment_min_distance,
    sphere_distance,
)

from _oracle import grid_min_segment_distance


def _vec(x, y, z):
    return np.array([x, y, z], dtype=float)


coords = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(coords, coords, coords).map(lambda t: np.array(t))


class TestCircumradius:
    def test_equilateral_triangle(self):
        r = circumradius(_vec(0, 0, 0), _vec(1, 0, 0), _vec(0.5, math.sqrt(3) / 2, 0))
        assert r == pytest.approx(1 / math.sqrt(3), abs=1e-14)

    def test_collinear_is_infinite(self):
        assert circumradius(_vec(0, 0, 0), _vec(1, 0, 0), _vec(2, 0, 0)) == math.inf

    def test_coincident_is_infinite(self):
        p = _vec(0.3, -1.0, 2.0)
        assert circumradius(p, p, _vec(1, 0, 0)) == math.inf
        assert circumradius(p, p, p) == math.inf

    def test_right_triangle_half_hypotenuse(self):
        r = circumradius(_vec(0, 0, 0), _vec(1, 0, 0), _vec(1, 1, 0))
        assert r == pytest.approx(math.sqrt(2) / 2, abs=1e-14)

    def test_symmetric_in_arguments(self):
        x, y, z = _vec(0, 0, 0), _vec(1, 0.2, 0), _vec(0.4, 1, 0.3)
        rs = {
            circumradius(x, y, z), circumradius(y, z, x), circumradius(z, x, y),
            circumradius(z, y, x), circumradius(x, z, y), circumradius(y, x, z),
        }
        assert max(rs) - min(rs) < 1e-14

    @given(vec3, vec3, vec3, st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_rigid_motion_and_dilation(self, x, y, z, scale):
        # translation destroys the low bits of a tiny or sliver triangle, so
        # no implementation can be invariant there; keep the property on
        # well-conditioned triples (degenerate ones have exact tests above)
        assume(min(np.linalg.norm(y - x), np.linalg.norm(z - y),
                   np.linalg.norm(x - z)) > 0.1)
        assume(np.linalg.norm(np.cross(y - x, z - x)) > 0.05)
        r = circumradius(x, y, z)
        # fixed rotation (about z by 0.7) plus translation
        c, s = math.cos(0.7), math.sin(0.7)
        R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        t = _vec(1.5, -2.0, 0.25)
        moved = circumradius(R @ x + t, R @ y + t, R @ z + t)
        assert moved == pytest.approx(r, rel=1e-9)
        assert circumradius(scale * x, scale * y, scale * z) == pytest.approx(
            scale * r, rel=1e-9
        )


class TestExteriorAngle:
    def test_straight(self):
        assert exterior_angle(_vec(0, 0, 0), _vec(1, 0, 0), _vec(2, 0, 0)) == 0.0

    def test_right_angle(self):
        a = exterior_angle(_vec(0, 0, 0), _vec(1, 0, 0), _vec(1, 1, 0))
        assert a == pytest.approx(math.pi / 2, abs=1e-15)

    def test_reversal(self):
        a = exterior_angle(_vec(0, 0, 0), _vec(1, 0, 0), _vec(0, 0, 0))
        assert a == pytest.approx(math.pi, abs=1e-15)

    def test_degenerate_rejected(self):
        p = _vec(1, 2, 3)
        with pytest.raises(ValueError):
            exterior_angle(p, p, _vec(0, 0, 0))
        with pytest.raises(ValueError):
            exterior_angle(_vec(0, 0, 0), p, p)

    def test_interior_plus_exterior_is_pi(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = rng.normal(size=(3, 2))
            x, y, z = (np.append(p, 0.0) for p in pts)
            if np.linalg.norm(y - x) < 1e-6 or np.linalg.norm(z - y) < 1e-6:
                continue
            ext = exterior_angle(x, y, z)
            interior = math.atan2(
                np.linalg.norm(np.cross(x - y, z - y)), float(np.dot(x - y, z - y))
            )
            assert ext + interior == pytest.approx(math.pi, abs=1e-12)


class TestSphereDistance:
    def test_equal_vectors(self):
        u = _vec(0, 0, 1)
        assert sphere_distance(u, u) == 0.0

    def test_orthogonal_basis_vectors(self):
        assert sphere_distance(_vec(1, 0, 0), _vec(0, 1, 0)) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    def test_antipodal(self):
        u = _vec(0.6, 0.8, 0)
        assert sphere_distance(u, -u) == pytest.approx(math.pi, abs=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            sphere_distance(_vec(2, 0, 0), _vec(0, 1, 0))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u, v, w = rng.normal(size=(3, 3))
            u, v, w = u / np.linalg.norm(u), v / np.linalg.norm(v), w / np.linalg.norm(w)
            assert sphere_distance(u, w) <= (
                sphere_distance(u, v) + sphere_distance(v, w) + 1e-12
            )


class TestVectorInput:
    def test_shape_named(self):
        with pytest.raises(ValueError, match=r"expected a 3-vector, got shape \(2,\)"):
            circumradius([0.0, 0.0], _vec(1, 0, 0), _vec(0, 1, 0))
        with pytest.raises(ValueError, match=r"expected a 3-vector, got shape \(2, 3\)"):
            segment_min_distance(np.zeros((2, 3)), _vec(1, 0, 0), _vec(0, 1, 0), _vec(0, 0, 1))


class TestSegmentMinDistance:
    def test_parallel_unit_segments(self):
        d, s, t = segment_min_distance(
            _vec(0, 0, 0), _vec(1, 0, 0), _vec(0, 1, 0), _vec(1, 1, 0)
        )
        assert d == pytest.approx(1.0, abs=1e-14)

    def test_intersecting_segments(self):
        d, s, t = segment_min_distance(
            _vec(-1, 0, 0), _vec(1, 0, 0), _vec(0, -1, 0), _vec(0, 1, 0)
        )
        assert d == pytest.approx(0.0, abs=1e-14)
        assert s == pytest.approx(0.5, abs=1e-12)
        assert t == pytest.approx(0.5, abs=1e-12)

    def test_skew_segments(self):
        d, s, t = segment_min_distance(
            _vec(0, 0, 0), _vec(1, 0, 0), _vec(0, 0, 1), _vec(0, 1, 1)
        )
        assert d == pytest.approx(1.0, abs=1e-14)
        assert s == pytest.approx(0.0, abs=1e-12)
        assert t == pytest.approx(0.0, abs=1e-12)

    def test_achieving_parameters_realize_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a0, a1, b0, b1 = rng.normal(size=(4, 3))
            d, s, t = segment_min_distance(a0, a1, b0, b1)
            pa = a0 + s * (a1 - a0)
            pb = b0 + t * (b1 - b0)
            assert np.linalg.norm(pa - pb) == pytest.approx(d, abs=1e-12)
            assert 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0

    def test_lower_bounds_grid_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a0, a1, b0, b1 = rng.normal(size=(4, 3))
            d, _, _ = segment_min_distance(a0, a1, b0, b1)
            gm = grid_min_segment_distance(a0, a1, b0, b1, samples=100)
            assert d <= gm + 1e-12
            # the true argmin sits within half a grid step per parameter and
            # the distance is 1-Lipschitz in each endpoint position
            step = (np.linalg.norm(a1 - a0) + np.linalg.norm(b1 - b0)) / (2 * 99)
            assert gm - d <= step

    def test_degenerate_point_segments(self):
        p = _vec(0.5, 0.5, 0.5)
        d, s, t = segment_min_distance(p, p, _vec(0, 0, 0), _vec(1, 0, 0))
        assert d == pytest.approx(math.sqrt(0.5), abs=1e-14)
        d2, _, _ = segment_min_distance(p, p, p, p)
        assert d2 == 0.0
