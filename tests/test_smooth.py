"""Tests for smooth curves, inscription, and polygon-curve distance."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polythick import (
    arc_length_reparam,
    delta_n,
    gamma_series,
    inscribe_equilateral,
    is_simple,
    preset_curve,
    read_curve,
    rescale_unit,
    smooth_thickness_proxy,
    w1inf_distance,
    write_curve,
)
from polythick.smooth import (ArcLengthCurve, _arc_parameters, circle_samples,
                              torus_knot_samples)


def _limacon(j2: int) -> np.ndarray:
    """(3 j2, 3) table of the limacon r = 1/2 + cos(theta), whose double
    point, the origin, is sample 0 and sample j2: the inner loop takes the
    j2 samples in between."""
    th_in = 2.0 * np.pi / 3.0 * (1.0 + np.arange(j2) / j2)
    th_out = 4.0 * np.pi / 3.0 * (1.0 + np.arange(2 * j2) / (2 * j2))
    th = np.concatenate([th_in, th_out])
    r = 0.5 + np.cos(th)
    P = np.column_stack([r * np.cos(th), r * np.sin(th), np.zeros(3 * j2)])
    P[0] = P[j2] = 0.0
    return P


def _stalling_ellipse(n: int, m: int) -> np.ndarray:
    """(m, 3) table of the ellipse (cos phi, 0.3 sin phi) at phi(k/m), where
    phi(u) = 2 pi u - sin(2 pi n u) / n stalls at every u = k/n."""
    u = np.arange(m) / m
    phi = 2.0 * np.pi * u - np.sin(2.0 * np.pi * n * u) / n
    return np.column_stack([np.cos(phi), 0.3 * np.sin(phi), np.zeros(m)])


@pytest.fixture(scope="module")
def circle():
    return preset_curve("circle", m=2048)


@pytest.fixture(scope="module")
def trefoil():
    return preset_curve("torus:2,3", m=2048)


class TestArcLengthReparam:
    def test_circle_basics(self, circle):
        assert circle.length == 1.0
        assert circle.m == 2048
        r = np.linalg.norm(circle.positions - circle.positions.mean(axis=0),
                           axis=1)
        assert np.max(np.abs(r - 1.0 / (2.0 * math.pi))) < 1e-10
        assert np.max(np.abs(np.linalg.norm(circle.tangents, axis=1) - 1.0)) < 1e-12

    def test_circle_closed_form_evaluation(self, circle):
        # gamma(t) = centroid + r (cos 2 pi t, sin 2 pi t, 0) for the
        # preset's sample phase; compare at off-grid parameters
        ctr = circle.positions.mean(axis=0)
        r = 1.0 / (2.0 * math.pi)
        ts = np.linspace(0.0, 1.0, 211, endpoint=False) + 1e-4
        expect = ctr + r * np.stack(
            [np.cos(2 * math.pi * ts), np.sin(2 * math.pi * ts),
             np.zeros_like(ts)], axis=1)
        got = circle.position(ts)
        assert np.max(np.linalg.norm(got - expect, axis=1)) < 1e-9

    def test_parametrization_invariance(self):
        # the same circle sampled non-uniformly reparametrizes to the same
        # arc-length table
        u = np.arange(8192) / 8192
        warped = u + 0.1 * np.sin(2 * math.pi * u) / (2 * math.pi)
        pts = np.stack([np.cos(2 * math.pi * warped),
                        np.sin(2 * math.pi * warped),
                        np.zeros_like(warped)], axis=1)
        c1 = arc_length_reparam(pts, m=1024)
        c2 = arc_length_reparam(circle_samples(8192), m=1024)
        # both start at the same point (warp fixes u=0), so tables align
        assert np.max(np.linalg.norm(c1.positions - c2.positions, axis=1)) < 1e-6

    def test_tangents_match_positions(self, circle):
        # finite difference of the position table against stored tangents
        h = 1.0 / circle.m
        fd = (np.roll(circle.positions, -1, axis=0) - circle.positions) / h
        mid = circle.tangent((np.arange(circle.m) + 0.5) / circle.m)
        assert np.max(np.linalg.norm(fd - mid, axis=1)) < 1e-4

    def test_rejects_non_finite_sample(self):
        pts = circle_samples(64)
        pts[3, 0] = np.nan
        with pytest.raises(ValueError, match="sample 3 is not finite"):
            arc_length_reparam(pts, m=64)

    def test_rejects_open_polyline(self):
        t = np.linspace(0.0, 0.7, 512)   # an arc, not a loop
        pts = np.stack([np.cos(2 * math.pi * t), np.sin(2 * math.pi * t),
                        np.zeros_like(t)], axis=1)
        with pytest.raises(ValueError):
            arc_length_reparam(pts, m=256)

    def test_samples_are_one_n_by_3_array(self):
        # rows given as a list are the same samples; any other shape is
        # refused by name instead of failing inside numpy
        pts = circle_samples(64)
        c1 = arc_length_reparam(pts, m=64)
        c2 = arc_length_reparam(pts.tolist(), m=64)
        assert c1.positions.tobytes() == c2.positions.tobytes()
        for bad in (pts[:, :2], pts.ravel(), pts[None]):
            with pytest.raises(ValueError, match=r"\(N, 3\) array of curve samples"):
                arc_length_reparam(bad, m=64)

    def test_rejects_few_or_repeated_samples(self):
        with pytest.raises(ValueError, match="at least 16 raw samples"):
            arc_length_reparam(circle_samples(15), m=64)
        pts = circle_samples(64)
        pts[6] = pts[5]
        with pytest.raises(ValueError, match="coincident consecutive samples at index 5"):
            arc_length_reparam(pts, m=64)

    def test_repeated_start_sample_dropped(self):
        # the last sample may repeat the first; the curve is the same, bit
        # for bit, as the one built without the repeat
        pts = circle_samples(64)
        c1 = arc_length_reparam(pts, m=64)
        c2 = arc_length_reparam(np.vstack([pts, pts[:1]]), m=64)
        assert c1.positions.tobytes() == c2.positions.tobytes()
        assert c1.tangents.tobytes() == c2.tangents.tobytes()

    def test_rejects_table_of_wrong_shape(self):
        for bad in (np.zeros((16, 2)), np.zeros(48)):
            with pytest.raises(ValueError, match=rf"\(m, 3\) position table, got shape "
                                                 rf"\({bad.shape[0]},"):
                ArcLengthCurve(bad)

    def test_rejects_table_that_does_not_wrap(self):
        # three quarters of a circle: the closing step is 24 times a sample step
        P = preset_curve("circle", m=64).positions[:48]
        with pytest.raises(ValueError, match="does not wrap around cyclically"):
            ArcLengthCurve(P)

    def test_rejects_tiny_tables(self):
        with pytest.raises(ValueError, match="need at least 8 curve samples, got 4"):
            ArcLengthCurve(np.zeros((4, 3)))

    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array([0.5, -math.inf])])
    def test_rejects_non_finite_parameter(self, circle, t):
        # position read nan and tangent indexed outside its table
        for f in (circle.position, circle.tangent):
            with pytest.raises(ValueError, match="t must be finite"):
                f(t)

    def test_finite_parameters_keep_their_values(self, circle):
        ts = np.array([0.0, 1e-4, 0.3, 0.999, 1.25, -0.5])
        assert np.array_equal(circle.position(ts), circle._spline(np.mod(ts, 1.0)))
        assert np.array_equal(circle.position(0.3), circle._spline(0.3))

    def test_rejects_nan_position(self):
        # the tangent table is built from the positions, so a nan row would
        # otherwise spread into nan tangents around it
        P = preset_curve("circle", m=64).positions.copy()
        P[5, 0] = np.nan
        with pytest.raises(ValueError, match="position 5 is not finite"):
            ArcLengthCurve(P)

    def test_rejects_degenerate_table(self):
        # a constant table has zero difference tangents, which would
        # normalise to nan
        with pytest.raises(ValueError, match="curve sample 0 has a zero tangent"):
            ArcLengthCurve(np.zeros((8, 3)))

    def test_keeps_callers_table_writable(self):
        P = preset_curve("circle", m=64).positions.copy()
        curve = ArcLengthCurve(P)
        P[0, 0] = 2.0
        assert curve.positions[0, 0] != 2.0


# the presets of the inscription scan, a thin torus, a negative rho and radii
# near overflow, with the sampler arguments of their dense references
DENSE_PRESETS = [("circle", None)] + [
    (f"torus:{a},{b}", (a, b)) for a, b in
    ((2, 3), (2, 5), (3, 2), (3, 4), (3, 1), (4, 1), (5, 1), (5, 2))] + [
    ("torus:2,1,2.0,0.3", (2, 1, 2.0, 0.3)), ("torus:2,3,2.0,-1.0", (2, 3, 2.0, -1.0)),
    ("torus:2,3,2e300,1e300", (2, 3, 2e300, 1e300))]


def _chord_spread(P: np.ndarray) -> float:
    """read_curve's chord spread: the chords' range over their mean."""
    chords = np.linalg.norm(np.roll(P, -1, axis=0) - P, axis=1)
    return float(np.ptp(chords)) * P.shape[0] / float(chords.sum())


class TestPresets:
    def test_torus_knot_coprime_check(self):
        with pytest.raises(ValueError):
            torus_knot_samples(2, 4)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            preset_curve("lemniscate")
        with pytest.raises(ValueError):
            preset_curve("torus:2")

    @pytest.mark.parametrize("spec", ["circle", "torus:2,3"])
    @pytest.mark.parametrize("m", [-5, 0, 7])
    def test_too_few_samples_names_m(self, spec, m):
        # m = -5 used to build the raw grid and fail in the table as "got 0"
        with pytest.raises(ValueError, match=f"^need at least 8 curve samples, got m={m}$"):
            preset_curve(spec, m)

    @pytest.mark.parametrize("m", [100.5, 512.0, "512", None])
    def test_m_not_an_integer_rejected(self, m):
        # m = 100.5 built a 101-row table whose closing chord was half the others
        with pytest.raises(ValueError, match=f"^m must be an integer, got {re.escape(repr(m))}$"):
            preset_curve("torus:2,3", m)

    @pytest.mark.parametrize("spec", ["torus:2.5,3", "torus:2,x", "torus:2,3,2.0,wide"])
    def test_unparsable_spec_is_named(self, spec):
        # int("2.5") raised a bare "invalid literal for int()"
        with pytest.raises(ValueError, match=f"^torus spec {re.escape(repr(spec))} needs "):
            preset_curve(spec)

    @pytest.mark.parametrize("m", [64, 512, 4096])
    @pytest.mark.parametrize("spec, args", DENSE_PRESETS)
    def test_matches_dense_reference(self, spec, args, m):
        # the chord quadrature through max(4m, 16384) raw samples is the
        # reference; the tables read within 8.0e-15 of it.  Their chords are
        # as uniform as its, up to m * 1e-14 of spread, which a chord moved
        # by 1e-14 could add; the largest excess is 1.6e-15 m (torus:2,5, m = 64)
        count = max(4 * m, 16384)
        samples = circle_samples(count) if args is None else torus_knot_samples(*args, count=count)
        dense = arc_length_reparam(samples, m).positions
        P = preset_curve(spec, m).positions
        assert np.abs(P - dense).max() <= 3e-14
        assert _chord_spread(P) <= _chord_spread(dense) + m * 1e-14

    @pytest.mark.parametrize("m", [8, 64, 512, 4096])
    def test_circle_table_is_closed_form(self, m):
        # the circle's speed is constant, so u_k = 2 pi k / m
        u = 2.0 * np.pi * np.arange(m) / m
        exact = np.column_stack([np.cos(u), np.sin(u), np.zeros(m)]) / (2.0 * np.pi)
        assert np.abs(preset_curve("circle", m).positions - exact).max() <= \
            2.0 * np.spacing(1.0 / (2.0 * np.pi))

    @pytest.mark.parametrize("m", [8, 64, 4096])
    def test_arc_parameters_invert_a_closed_form_length(self, m):
        # speed 2 + sin u + cos 3u / 2 is not even in u, so its periodic
        # antiderivative is not 0 at u = 0: S(u) = 2u + 1 - cos u + sin(3u) / 6
        N = max(4 * m, 16384)
        u = 2.0 * np.pi * np.arange(N) / N
        uk, L = _arc_parameters(2.0 + np.sin(u) + 0.5 * np.cos(3.0 * u), m)
        assert uk[0] == 0.0 and L == pytest.approx(4.0 * np.pi, abs=1e-14)
        S = 2.0 * uk + (1.0 - np.cos(uk)) + np.sin(3.0 * uk) / 6.0
        assert np.abs(S - np.arange(m) * (L / m)).max() <= 4.0 * np.finfo(float).eps * L

    @pytest.mark.parametrize("m", [64, 512])
    @pytest.mark.parametrize("a, b, R, rho", [(2, 3, 2.0, 1.0), (5, 1, 2.0, 1.0),
                                              (5, 2, 2.0, 1.0), (2, 1, 2.0, 0.3)])
    def test_newton_residual_at_rounding(self, a, b, R, rho, m):
        # S(u_k) summed from the speed's Fourier series at each u_k, off the
        # grid, against k L / m: at most 1.5 eps L
        N = max(4 * m, 16384)
        f = np.hypot(rho * b, a * (R + rho * np.cos(b * 2.0 * np.pi * np.arange(N) / N)))
        u, L = _arc_parameters(f, m)
        F, k = np.fft.rfft(f), np.arange(1, N // 2)
        S = F[0].real / N * u + (2.0 / N) * ((np.exp(1j * np.outer(u, k)) - 1.0)
                                             @ (F[1:N // 2] / (1j * k))).real
        assert np.abs(S - np.arange(m) * (L / m)).max() <= 4.0 * np.finfo(float).eps * L

    def test_trefoil_is_unit_length(self, trefoil):
        assert trefoil.length == 1.0
        assert trefoil.m == 2048

    def test_custom_torus_radii(self):
        c = preset_curve("torus:2,1,2.0,0.3", m=512)
        assert c.length == 1.0

    @pytest.mark.parametrize("R, rho", [(math.inf, 1.0), (2.0, math.nan), (2.0, 0.0),
                                        (1.0, 1.0), (1.0, -2.0)])
    def test_torus_radii_of_an_embedded_torus(self, R, rho):
        # a torus with |rho| >= |R| meets its own axis; at rho = 0 the knot
        # is a circle covered a times
        with pytest.raises(ValueError, match=re.escape("0 < |rho| < |R|")):
            torus_knot_samples(2, 3, R, rho)

    @pytest.mark.parametrize("scale", [1e-300, 1e100, 1e160, 1e300, 1e307])
    def test_scaled_samples_inscribe_alike(self, scale):
        # unscaled, the chords overflowed from 1e160 on, the sagitta terms
        # from 1e100 on, and 1e-300 chords had norm 0; the 64-gons read
        # within 1e-16 of each other, and 1e-14 is 100 ulps of unit length
        samples = torus_knot_samples(2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = inscribe_equilateral(arc_length_reparam(scale * samples), 64)
        plain = inscribe_equilateral(arc_length_reparam(samples), 64)
        assert np.abs(scaled.vertices - plain.vertices).max() <= 1e-14


class TestInscription:
    def test_square_in_circle(self, circle):
        p = inscribe_equilateral(circle, 4)
        assert p.n == 4
        lens = np.linalg.norm(np.roll(p.vertices, -1, axis=0) - p.vertices,
                              axis=1)
        assert np.max(np.abs(lens - lens[0])) < 1e-12
        assert p.length == pytest.approx(2.0 * math.sqrt(2.0) / math.pi,
                                         abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 64, 257])
    def test_octagon_in_circle(self, circle, n):
        # the regular n-gon inscribed in a circle of length 1, including the
        # triangle of side sqrt(3)/(2 pi)
        p = inscribe_equilateral(circle, n)
        assert p.length == pytest.approx((n / math.pi) * math.sin(math.pi / n),
                                         abs=1e-12)
        assert np.ptp(p.edge_lengths) <= 1e-15

    def test_vertices_lie_on_curve(self, circle):
        p = inscribe_equilateral(circle, 16)
        ctr = circle.positions.mean(axis=0)
        r = np.linalg.norm(p.vertices - ctr, axis=1)
        assert np.max(np.abs(r - 1.0 / (2.0 * math.pi))) < 1e-9

    def test_length_grows_toward_curve_length(self, circle):
        lengths = [inscribe_equilateral(circle, n).length
                   for n in (4, 8, 16, 32)]
        assert all(a < b for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] < 1.0

    def test_rescaled_octagon_matches_closed_form(self, circle):
        r = delta_n(rescale_unit(inscribe_equilateral(circle, 8)))
        assert r.inv_delta_n == pytest.approx(16.0 * math.tan(math.pi / 8),
                                              abs=1e-8)

    def test_n_validation(self, circle):
        with pytest.raises(ValueError):
            inscribe_equilateral(circle, 2)

    def test_too_coarse_for_curve(self):
        # a 5-gon on the four-times-winding (4, 1) torus curve: from uniform
        # parameters even the damped Newton iteration does not settle
        with pytest.raises(ValueError, match="n=5: .*did not converge"):
            inscribe_equilateral(preset_curve("torus:4,1", m=2048), 5)

    def test_zero_chord_makes_the_step_not_finite(self):
        # a limacon whose double point is sample 0 and sample m/3: the
        # uniform start puts vertices 0 and 1 on it, and the chord between
        # them has no direction
        with pytest.raises(ValueError, match="n=3: inscription vertices 0 and 1 coincide"):
            inscribe_equilateral(ArcLengthCurve(_limacon(32)), 3)

    def test_zero_pivot_is_a_singular_jacobian(self):
        # gamma' zeroed at u_1 zeroes the first pivot of the bidiagonal
        # block, which the banded solve reports through its info alone
        curve = preset_curve("circle", m=512)
        dspline = curve._dspline
        curve._dspline = lambda t: dspline(t) * (np.arange(len(t)) > 0)[:, None]
        with pytest.raises(ValueError, match=r"n=8: inscription Newton step is not "
                                             r"finite \(singular closure Jacobian\)"):
            inscribe_equilateral(curve, 8)

    def test_stalled_parameter_exhausts_the_halvings(self):
        # an ellipse whose parametrisation stalls at every u = k/3: the
        # Jacobian there is nearly singular, and even a step halved ten
        # times puts the parameters out of order
        with pytest.raises(ValueError, match="n=3: .* not strictly increasing after 10 "
                                             "step halvings"):
            inscribe_equilateral(ArcLengthCurve(_stalling_ellipse(3, 256)), 3)

    @pytest.mark.parametrize("spec, m, n", [
        ("torus:2,3", 2048, 4), ("torus:3,1", 512, 8), ("torus:3,1", 4096, 10),
        ("torus:4,1", 1024, 14), ("torus:5,1", 512, 24), ("torus:5,1", 4096, 21)])
    def test_damped_step_recovers(self, spec, m, n):
        # full Newton steps from uniform parameters put these vertices out
        # of order; halved steps keep them ordered and still converge
        curve = preset_curve(spec, m=m)
        p = inscribe_equilateral(curve, n)
        assert p.n == n
        assert np.ptp(p.edge_lengths) <= 2e-15
        assert np.array_equal(p.vertices[0], curve.position(0.0))
        assert is_simple(p)

    @settings(max_examples=40, deadline=None)
    @given(ab=st.sampled_from([(a, b) for a in range(1, 6) for b in range(1, 6)
                               if math.gcd(a, b) == 1]),
           R=st.floats(1.2, 5.0), rho=st.floats(0.2, 1.0),
           n=st.integers(3, 64))
    def test_inscribes_or_raises_value_error(self, ab, R, rho, n):
        curve = preset_curve(f"torus:{ab[0]},{ab[1]},{R!r},{rho!r}", m=512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                p = inscribe_equilateral(curve, n)
            except ValueError as exc:
                assert str(exc).startswith(f"n={n}: ")
                return
        # the stopping rule holds every chord within 1e-15 of c
        assert p.n == n
        assert np.ptp(p.edge_lengths) <= 2e-15
        assert np.array_equal(p.vertices[0], curve.position(0.0))


class TestRescale:
    def test_unit_length_and_shape(self):
        rng = np.random.default_rng(4)
        from _gen import perturbed_regular
        p = perturbed_regular(9, 0.1, rng)
        q = rescale_unit(Polygon := p.__class__(3.7 * p.vertices + 2.0))
        assert q.length == pytest.approx(1.0, abs=1e-12)
        # shape preserved: pairwise distance ratios
        d0 = np.linalg.norm(p.vertices[0] - p.vertices[4])
        d1 = np.linalg.norm(p.vertices[2] - p.vertices[6])
        e0 = np.linalg.norm(q.vertices[0] - q.vertices[4])
        e1 = np.linalg.norm(q.vertices[2] - q.vertices[6])
        assert e0 / e1 == pytest.approx(d0 / d1, rel=1e-12)


class TestThicknessProxy:
    def test_circle(self, circle):
        inv = 1.0 / smooth_thickness_proxy(circle, 512)
        assert inv == pytest.approx(2.0 * math.pi, abs=2e-4)
        assert inv == pytest.approx(6.2833035885939745, rel=1e-12)

    def test_resolution_refines(self, circle):
        coarse = 1.0 / smooth_thickness_proxy(circle, 256)
        fine = 1.0 / smooth_thickness_proxy(circle, 1024)
        two_pi = 2.0 * math.pi
        assert abs(fine - two_pi) < abs(coarse - two_pi)

    def test_thin_torus_is_distance_bound(self):
        # two longitudinal passes 0.6 apart on a tube that turns with
        # radius about 2: self-distance binds, not curvature
        c = preset_curve("torus:2,1,2.0,0.3", m=2048)
        r = delta_n(rescale_unit(inscribe_equilateral(c, 64)))
        assert r.binding == "distance"
        assert r.dcsd / 2.0 < r.min_rad


class TestW1InfDistance:
    def test_circle_16(self, circle):
        p = inscribe_equilateral(circle, 16)
        pos_sup, deriv_sup = w1inf_distance(p, circle, grid=4096)
        assert pos_sup == pytest.approx(0.0030581176039506173, rel=1e-9)
        assert pos_sup <= 2.0 / 16**2
        assert deriv_sup <= 4.0 / 16

    def test_decays_with_n(self, circle):
        sups = []
        for n in (8, 16, 32):
            p = inscribe_equilateral(circle, n)
            sups.append(w1inf_distance(p, circle, grid=max(4096, 10 * n)))
        pos, der = zip(*sups)
        assert pos[0] > pos[1] > pos[2]
        assert der[0] > der[1] > der[2]

    def test_grid_validation(self, circle):
        p = inscribe_equilateral(circle, 16)
        with pytest.raises(ValueError):
            w1inf_distance(p, circle, grid=100)


class TestGammaSeries:
    def test_circle_rows(self, circle):
        rows = gamma_series(circle, [16, 8], m_proxy=512)
        assert [r.n for r in rows] == [8, 16]
        assert all(not r.failed for r in rows)
        assert rows[0].inv_delta == pytest.approx(16.0 * math.tan(math.pi / 8),
                                                  abs=1e-8)
        assert rows[1].inv_delta == pytest.approx(32.0 * math.tan(math.pi / 16),
                                                  abs=1e-8)
        assert rows[0].length_tilde < rows[1].length_tilde < 1.0
        for r in rows:
            assert r.proxy == pytest.approx(6.2833035885939745, rel=1e-12)
            assert r.binding == "curvature"

    def test_failed_row_keeps_sweep_alive(self):
        rows = gamma_series(preset_curve("torus:4,1", m=2048), [5, 8], m_proxy=512)
        assert rows[0].n == 5 and rows[0].failed
        assert math.isnan(rows[0].inv_delta)
        assert rows[1].n == 8 and not rows[1].failed

    def test_no_resolutions_no_rows(self, circle):
        assert gamma_series(circle, []) == []

    def test_crossing_row_reads_not_embedded(self):
        # the (3, 4) torus knot's vertices at u = k/8 all lie at z = 0, on a
        # self-crossing planar octagon
        r = gamma_series(preset_curve("torus:3,4", m=512), [8], m_proxy=512)[0]
        assert r.failed == "inscribed polygon is not embedded"
        assert math.isnan(r.inv_delta) and r.binding == ""
        assert r.dcsd == 0.0 and r.length_tilde > 0.0

    def test_trefoil_row_sane(self, trefoil):
        rows = gamma_series(trefoil, [64], m_proxy=512)
        r = rows[0]
        assert not r.failed
        # sharper bends and closer passes than the circle, so only coarse
        # approximation bounds hold here
        assert r.pos_sup < 1.0 / 64
        assert r.deriv_sup < 1.0
        assert r.binding == "distance"
        assert r.inv_delta > 2.0 * math.pi   # any closed curve needs that much
        assert abs(r.inv_delta - r.proxy) / r.proxy < 0.05


@pytest.mark.parametrize("call, name, value", [
    # a 101-row table whose closing chord was 0.50 of the others
    (lambda c: arc_length_reparam(circle_samples(1024), m=100.5), "m", 100.5),
    # a non-uniform grid
    (lambda c: w1inf_distance(inscribe_equilateral(c, 8), c, grid=100.5), "grid", 100.5),
    # ran n = 8
    (lambda c: gamma_series(c, [8.7], m_proxy=512), "n", 8.7),
    # these failed in numpy with a TypeError
    (lambda c: inscribe_equilateral(c, 8.0), "n", 8.0),
    (lambda c: smooth_thickness_proxy(c, 64.5), "m", 64.5)],
    ids=["arc_length_reparam", "w1inf_distance", "gamma_series", "inscribe_equilateral",
         "smooth_thickness_proxy"])
def test_non_integer_count_rejected(circle, call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        call(circle)


@pytest.mark.parametrize("samples", [circle_samples,
                                     lambda count: torus_knot_samples(2, 3, count=count)],
                         ids=["circle_samples", "torus_knot_samples"])
@pytest.mark.parametrize("count, message", [
    # the torus knot took 101 samples, the circle failed with a TypeError
    (100.5, "count must be an integer, got 100.5"),
    # these divided by zero, or failed in numpy
    (0, "count must be at least 1, got 0"),
    (-4, "count must be at least 1, got -4")])
def test_sample_count_validation(samples, count, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        samples(count)


def test_integral_counts_accepted(circle):
    # numpy integers are counts too, and give the same results
    p = inscribe_equilateral(circle, np.int64(8))
    assert p.vertices.tobytes() == inscribe_equilateral(circle, 8).vertices.tobytes()
    assert w1inf_distance(p, circle, np.int64(100)) == w1inf_distance(p, circle, 100)
    assert (arc_length_reparam(circle_samples(1024), np.int32(64)).positions.tobytes()
            == arc_length_reparam(circle_samples(1024), 64).positions.tobytes())
    assert smooth_thickness_proxy(circle, np.int64(64)) == smooth_thickness_proxy(circle, 64)
    assert gamma_series(circle, [np.int64(8)], 64) == gamma_series(circle, [8], 64)
    assert circle_samples(np.int64(100)).tobytes() == circle_samples(100).tobytes()
    assert (torus_knot_samples(2, 3, count=np.int32(100)).tobytes()
            == torus_knot_samples(2, 3, count=100).tobytes())


class TestCurveIO:
    def test_round_trip(self, tmp_path, circle):
        path = tmp_path / "circle.curve"
        write_curve(circle, path)
        back = read_curve(path)
        assert back.m == circle.m
        assert np.max(np.abs(back.positions - circle.positions)) < 1e-15

    def test_rejects_table_of_other_length(self, tmp_path, circle):
        # a circle of radius 3 reads length 1.0 as an ArcLengthCurve
        path = tmp_path / "circle3.curve"
        write_curve(ArcLengthCurve(6.0 * math.pi * circle.positions), path)
        with pytest.raises(ValueError, match="length 18.8"):
            read_curve(path)

    def test_rejects_nonuniform_table(self, tmp_path):
        u = np.arange(512) / 512
        t = u + 0.02 * np.sin(2.0 * np.pi * u)
        P = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t), 0 * t], axis=1)
        path = tmp_path / "skewed.curve"
        write_curve(ArcLengthCurve(P / (2.0 * np.pi)), path)
        with pytest.raises(ValueError, match="chord spread"):
            read_curve(path)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.curve"
        path.write_text("0 0\n")
        with pytest.raises(ValueError, match="line 1"):
            read_curve(path)

    def test_unparsable_coordinate_names_line(self, tmp_path):
        path = tmp_path / "bad.curve"
        for bad in ("1 0 zero", "nan 0 0"):
            path.write_text(f"# header\n0 0 0\n{bad}\n")
            with pytest.raises(ValueError, match="line 3"):
                read_curve(path)

    @pytest.mark.parametrize("rows", [0, 2, 7])
    def test_too_few_rows(self, tmp_path, rows):
        path = tmp_path / "short.curve"
        path.write_text("# samples\n" + "".join(f"{k} {k * k} 0\n"
                                                 for k in range(rows)))
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="at least 8 curve samples"):
                read_curve(path)
