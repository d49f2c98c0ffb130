"""Tests for crankshaft moves, admissibility, and the annealing loop."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polythick import (
    AnnealConfig,
    anneal,
    crankshaft_move,
    delta_n,
    is_near_regular,
    move_is_admissible,
    random_equilateral_polygon,
    read_polygon,
    regular_ngon,
)
from polythick import thickness
from polythick.anneal import _SUBSTEPS, _THETA_MAX, _swept
from polythick.polygon import Polygon
from polythick.smooth import inscribe_equilateral, preset_curve, rescale_unit
from polythick.thickness import _BATCH, _midpoints, _near_pairs, _reach, inv_delta_objective

from _dense import _edge_gap, _pair_gaps
from _gen import perturbed_regular


class TestCrankshaftMove:
    def test_zero_angle_is_bitwise_identity(self):
        p = perturbed_regular(8, 0.15, np.random.default_rng(1))
        q = crankshaft_move(p, 2, 6, 0.0)
        assert np.array_equal(q.vertices, p.vertices)

    def test_full_turn_returns(self):
        p = perturbed_regular(8, 0.15, np.random.default_rng(2))
        q = crankshaft_move(p, 1, 5, 2.0 * math.pi)
        assert np.max(np.abs(q.vertices - p.vertices)) < 1e-12

    def test_pivots_fixed_subchain_moves(self):
        p = perturbed_regular(10, 0.1, np.random.default_rng(3))
        q = crankshaft_move(p, 2, 7, 0.7)
        assert np.array_equal(q.vertices[2], p.vertices[2])
        assert np.array_equal(q.vertices[7], p.vertices[7])
        moved = [3, 4, 5, 6]
        assert not np.allclose(q.vertices[moved], p.vertices[moved])
        still = [8, 9, 0, 1]
        assert np.array_equal(q.vertices[still], p.vertices[still])

    def test_edge_lengths_preserved(self):
        p = perturbed_regular(9, 0.2, np.random.default_rng(4))
        q = p
        for k, theta in enumerate((0.4, -1.1, 2.2, 0.9)):
            q = crankshaft_move(q, k, k + 4, theta)
        lens = np.linalg.norm(np.roll(q.vertices, -1, axis=0) - q.vertices,
                              axis=1)
        assert np.max(np.abs(lens - 1.0 / 9.0)) < 1e-14

    def test_wrapping_subchain(self):
        # i > j walks forward through the seam
        p = perturbed_regular(8, 0.1, np.random.default_rng(5))
        q = crankshaft_move(p, 6, 2, 0.5)
        assert np.array_equal(q.vertices[6], p.vertices[6])
        assert np.array_equal(q.vertices[2], p.vertices[2])
        assert not np.allclose(q.vertices[[7, 0, 1]], p.vertices[[7, 0, 1]])

    def test_triangle_spin(self):
        p = regular_ngon(3)
        q = crankshaft_move(p, 0, 2, 1.0)
        lens = np.linalg.norm(np.roll(q.vertices, -1, axis=0) - q.vertices,
                              axis=1)
        assert np.max(np.abs(lens - 1.0 / 3.0)) < 1e-15

    def test_equal_pivots_rejected(self):
        with pytest.raises(ValueError):
            crankshaft_move(regular_ngon(6), 2, 2, 0.3)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, theta):
        # refused before the trig, which warned, and before the Polygon
        # check, which named the vertices rather than the angle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"rotation angle must be finite, got {theta}"):
                crankshaft_move(regular_ngon(6), 0, 3, theta)

    @pytest.mark.parametrize("i, j, name", [(1.5, 4, "pivot i"), (1, 4.0, "pivot j"),
                                            ("1", 4, "pivot i")])
    def test_non_integer_pivot_rejected(self, i, j, name):
        # 1.5 failed inside numpy's indexing with an IndexError
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            crankshaft_move(regular_ngon(8), i, j, 0.1)

    def test_integral_pivots_accepted(self):
        p = regular_ngon(8)
        q = crankshaft_move(p, np.int64(1), np.int32(4), 0.1)
        assert q.vertices.tobytes() == crankshaft_move(p, 1, 4, 0.1).vertices.tobytes()


class TestMoveAdmissibility:
    @pytest.mark.parametrize("i, j, name", [(1.5, 4, "pivot i"), (1, 4.0, "pivot j")])
    def test_non_integer_pivot_rejected(self, i, j, name):
        # the caller's error, raised, not an inadmissible move
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            move_is_admissible(regular_ngon(8), i, j, 0.1)

    def test_small_move_admissible(self):
        assert move_is_admissible(regular_ngon(8), 0, 4, 0.3)

    def test_mirror_collision_blocked(self):
        # rotating half a regular hexagon by pi lands vertices 1, 2 exactly
        # on vertices 5, 4: the sweep end is degenerate and must be refused
        assert not move_is_admissible(regular_ngon(6), 0, 3, math.pi)

    def test_equal_pivots_inadmissible(self):
        assert not move_is_admissible(regular_ngon(6), 3, 3, 0.2)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_inadmissible(self, theta):
        # as coincident pivots are, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not move_is_admissible(regular_ngon(6), 0, 3, theta)

    def test_substeps_sample_the_sweep(self):
        # the hexagon flip stays clear of itself early in the sweep and
        # collapses only near the end; coarse and fine sampling must agree
        # on refusing it
        p = regular_ngon(6)
        assert not move_is_admissible(p, 0, 3, math.pi, substeps=4)
        assert not move_is_admissible(p, 0, 3, math.pi, substeps=64)

    @given(n=st.integers(4, 40), seed=st.integers(0, 2**31 - 1),
           perturbed=st.booleans(), i=st.integers(0, 39),
           gap=st.integers(0, 36), theta=st.floats(-_THETA_MAX, _THETA_MAX))
    @settings(max_examples=60, deadline=None)
    def test_sweep_ends_are_start_and_candidate(self, n, seed, perturbed,
                                                i, gap, theta):
        # the sweep check must see the polygon the chain commits: its first
        # frame is p and its last is crankshaft_move's candidate, bit for bit
        rng = np.random.default_rng(seed)
        p = (perturbed_regular(n, 0.15, rng) if perturbed
             else random_equilateral_polygon(n, rng))
        i = i % n
        j = (i + 2 + gap % (n - 3)) % n     # forward gap 2..n-2
        seen, midpoints = [], thickness._midpoints

        def capture(V):     # the frames on their way into the gatherer
            seen.append(V.copy())
            return midpoints(V)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thickness, "_midpoints", capture)
            admissible = move_is_admissible(p, i, j, theta)
        frames, = seen
        # a random polygon's move may come within the clearance: the verdict
        # is the dense one on these frames, not always True
        assert admissible == bool(np.all(_edge_gap(frames) > 1e-6 * p.length))
        assert frames.shape == (_SUBSTEPS + 1, n, 3)
        assert frames[0].tobytes() == p.vertices.tobytes()
        assert (frames[-1].tobytes()
                == crankshaft_move(p, i, j, theta).vertices.tobytes())

    @given(n=st.integers(3, 40), seed=st.integers(0, 2**31 - 1),
           perturbed=st.booleans(), i=st.integers(0, 39), gap=st.integers(0, 38),
           theta=st.floats(-math.pi, math.pi), substeps=st.integers(1, 32),
           clearance=st.one_of(st.none(), st.floats(0.0, 0.5)))
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_dense(self, n, seed, perturbed, i, gap, theta,
                                   substeps, clearance):
        # the check measures every pair of frame 0 and the pairs with one
        # edge on each side of the move on the others; the dense reference
        # measures every pair of every frame
        rng = np.random.default_rng(seed)
        p = (perturbed_regular(n, 0.15, rng) if perturbed
             else random_equilateral_polygon(n, rng))
        i = i % n
        j = (i + 1 + gap % (n - 1)) % n     # forward gap 1..n-1
        if clearance is not None:
            clearance /= n                   # up to half an edge
        angles = np.arange(substeps + 1) / substeps * theta
        dense = _edge_gap(_swept(p, i, j, angles))
        expected = bool(np.all(dense > (1e-6 * p.length if clearance is None else clearance)))
        assert move_is_admissible(p, i, j, theta, substeps, clearance) == expected

    def test_figure_eight_start_refused(self):
        # two unit squares sharing vertex 0 = vertex 4: p itself touches,
        # between edges that both stay fixed, so frame 0 must measure every
        # pair and not only those with one edge on each side of the move
        p = Polygon(np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0),
                              (-1, 0, 0), (-1, -1, 0), (0, -1, 0)], dtype=float))
        assert not move_is_admissible(p, 1, 3, 0.3)

    def test_coincident_pivots_refused(self):
        # the same two squares, turned about vertices 0 and 4, which are the
        # same point: the rotation axis is undefined
        p = Polygon(np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0),
                              (-1, 0, 0), (-1, -1, 0), (0, -1, 0)], dtype=float))
        with pytest.raises(ValueError, match="pivot vertices coincide"):
            crankshaft_move(p, 0, 4, 0.3)
        assert not move_is_admissible(p, 0, 4, 0.3)

    @staticmethod
    def _kernel_calls(monkeypatch, batch=None):
        """Record every call of the edge-gap kernel the sweep check makes,
        (F, I, J, gap), and check that each takes at most _BATCH pairs,
        batch pairs when given."""
        calls, gathered = [], thickness._gathered_gap
        if batch is not None:
            monkeypatch.setattr(thickness, "_BATCH", batch)

        def recording(V, F, I, J):
            assert F.size == I.size == J.size <= thickness._BATCH
            calls.append((F, I, J, gathered(V, F, I, J)))
            return calls[-1][-1]

        monkeypatch.setattr(thickness, "_gathered_gap", recording)
        return calls

    def test_flipped_regular_256gon_refused(self, monkeypatch):
        # flipping half the regular 256-gon by pi lands it on the other half
        # in the last frame only: the kernel takes at most _BATCH pairs a
        # call, and the check stops at the first call that reads a contact
        p, clearance = regular_ngon(256), 1e-6
        calls = self._kernel_calls(monkeypatch)
        assert not move_is_admissible(p, 0, 128, math.pi, clearance=clearance)
        gaps = [gap for *_, gap in calls]
        assert min(gaps[:-1], default=math.inf) > clearance >= gaps[-1]
        dense = _edge_gap(_swept(p, 0, 128, np.arange(_SUBSTEPS + 1) / _SUBSTEPS * math.pi))
        assert np.all(dense[:-1] > clearance) and dense[-1] <= clearance

    def test_batches_stop_at_the_first_contact(self, monkeypatch):
        # the same flip one pair a call: the calls before the last read
        # clear, the last reads a contact, and most of the 394 near pairs,
        # 380 of them in the last frame, are never measured
        p, clearance = regular_ngon(256), 1e-6
        calls = self._kernel_calls(monkeypatch, batch=1)
        assert not move_is_admissible(p, 0, 128, math.pi, clearance=clearance)
        frames = _swept(p, 0, 128, np.arange(_SUBSTEPS + 1) / _SUBSTEPS * math.pi)
        F, _, _ = _near_pairs(_midpoints(frames), _reach(clearance, 1.0 / 256, 1.0))
        assert F.size == 394 and 1 < len(calls) < F.size // 2
        assert min(gap for *_, gap in calls[:-1]) > clearance >= calls[-1][-1]

    def test_batches_cover_the_near_pairs(self, monkeypatch):
        # an admissible move measures every frame's non-adjacent pairs whose
        # midpoints lie within reach, each once: the random 300-gon's 9,571
        # near pairs in three calls, against a dense midpoint distance
        p = random_equilateral_polygon(300, np.random.default_rng(300))
        calls = self._kernel_calls(monkeypatch)
        assert move_is_admissible(p, 0, 150, 0.2)
        F, I, J = (np.concatenate(x) for x in list(zip(*calls))[:3])
        frames = _swept(p, 0, 150, np.arange(_SUBSTEPS + 1) / _SUBSTEPS * 0.2)
        M = _midpoints(frames)
        D = np.linalg.norm(M[:, :, None] - M[:, None, :], axis=-1)
        reach = _reach(1e-6 * p.length, float(p.edge_lengths.max()), p.length)
        f, i, j = np.nonzero((D <= reach) & np.isfinite(_pair_gaps(frames)))
        assert len(calls) == math.ceil(f.size / _BATCH) == 3
        assert sorted(zip(F.tolist(), I.tolist(), J.tolist())) == list(zip(f, i, j))

    def test_no_near_pair_no_kernel_call(self, monkeypatch):
        # the octagon's non-adjacent midpoints are 1.7 edges apart, beyond
        # the reach of the default clearance
        calls = self._kernel_calls(monkeypatch)
        assert move_is_admissible(regular_ngon(8), 0, 4, 0.3)
        assert calls == []

    @given(n=st.integers(4, 200), seed=st.integers(0, 2**31 - 1),
           perturbed=st.booleans(), i=st.integers(0, 199), gap=st.integers(0, 196),
           theta=st.floats(-math.pi, math.pi), substeps=st.integers(1, 16),
           x=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_near_pairs_hold_every_close_pair(self, n, seed, perturbed, i, gap,
                                             theta, substeps, x):
        # on every sampled frame, every non-adjacent pair whose dense gap is
        # at most the clearance, up to one edge, is among the near pairs
        rng = np.random.default_rng(seed)
        p = (perturbed_regular(n, 0.15, rng) if perturbed
             else random_equilateral_polygon(n, rng))
        i = i % n
        j = (i + 2 + gap % (n - 3)) % n     # forward gap 2..n-2
        clearance = x * p.length / n
        frames = _swept(p, i, j, np.arange(substeps + 1) / substeps * theta)
        F, I, J = _near_pairs(_midpoints(frames),
                              _reach(clearance, float(p.edge_lengths.max()), p.length))
        close = set(zip(*np.nonzero(_pair_gaps(frames) <= clearance)))
        assert close <= set(zip(F.tolist(), I.tolist(), J.tolist()))

    @pytest.mark.parametrize("name", ["trefoil-256", "random-300"])
    def test_fixed_verdicts_match_dense(self, name):
        p = (rescale_unit(inscribe_equilateral(preset_curve("torus:2,3", 4096), 256))
             if name == "trefoil-256"
             else random_equilateral_polygon(300, np.random.default_rng(300)))
        n, verdicts = p.n, []
        for i, j, theta in [(0, n // 2, 0.2), (n // 4, 3 * n // 4, -1.0),
                            (n // 8, n // 8 + 5, 2.5), (3, n // 2 + 3, math.pi)]:
            frames = _swept(p, i, j, np.arange(_SUBSTEPS + 1) / _SUBSTEPS * theta)
            for clearance in (1e-6 * p.length, 0.25 * p.length / n):
                verdict = move_is_admissible(p, i, j, theta, clearance=clearance)
                assert verdict == bool(np.all(_edge_gap(frames) > clearance))
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("substeps", [0, -1])
    def test_substeps_below_one_rejected(self, substeps):
        with pytest.raises(ValueError, match="substeps"):
            move_is_admissible(regular_ngon(8), 0, 4, 0.3, substeps=substeps)

    @pytest.mark.parametrize("substeps", [2.0, 2.5, "2", None])
    def test_substeps_not_an_integer_rejected(self, substeps):
        # a float count failed inside np.arange with a TypeError
        with pytest.raises(ValueError, match=f"substeps must be an integer, got {substeps!r}"):
            move_is_admissible(regular_ngon(8), 0, 4, 0.3, substeps=substeps)

    def test_integral_substeps_accepted(self):
        p = regular_ngon(8)
        assert move_is_admissible(p, 0, 4, 0.3, substeps=np.int64(4)) == \
            move_is_admissible(p, 0, 4, 0.3, substeps=4)

    def test_clearance_scales(self):
        p = regular_ngon(8)
        assert move_is_admissible(p, 0, 4, 0.3, clearance=1e-9)
        assert not move_is_admissible(p, 0, 4, 0.3, clearance=0.2)

    @pytest.mark.parametrize("clearance", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_clearance_rejected(self, clearance):
        # -1.0 admitted every move and nan refused every move, silently
        with pytest.raises(ValueError, match="clearance must be finite and non-negative"):
            move_is_admissible(regular_ngon(8), 0, 4, 0.3, clearance=clearance)

    def test_default_and_zero_clearance(self):
        p = regular_ngon(8)
        assert move_is_admissible(p, 0, 4, 0.3, clearance=None)
        assert move_is_admissible(p, 0, 4, 0.3, clearance=0.0)


class TestIsNearRegular:
    def test_regular_passes(self):
        for n in (4, 8, 16):
            assert is_near_regular(regular_ngon(n), 1e-9)

    def test_small_perturbation_passes_loose(self):
        p = perturbed_regular(8, 0.001, np.random.default_rng(6))
        assert is_near_regular(p, 0.05)

    def test_crumpled_fails(self):
        p = read_polygon("tests/data/crumpled10.txt")
        assert not is_near_regular(p, 0.02)

    def test_nonplanar_fails(self):
        # saddle warp of a 16-gon: angles drift at second order in the
        # height but the plane deviation grows at first order, so a tight
        # tolerance trips on planarity alone
        th = 2.0 * np.pi * np.arange(16) / 16
        V = np.stack([np.cos(th), np.sin(th), 0.04 * np.cos(2 * th)], axis=1)
        p = Polygon(V, tolerance=0.05)
        assert np.max(np.abs(p.exterior_angles() - 2 * np.pi / 16)) < 0.0055
        assert not is_near_regular(p, 0.0055)

    def test_planar_wrong_angles_fails(self):
        # flat equilateral hexagon running 2 + 1 + 2 + 1 edges around a
        # parallelogram: two vertices are straight, two turn hard
        c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
        V = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0],
                      [2 + c, s, 0], [1 + c, s, 0], [c, s, 0]])
        assert not is_near_regular(Polygon(V), 0.02)


class TestObjective:
    def test_matches_report(self):
        for seed in range(4):
            p = perturbed_regular(8, 0.15, np.random.default_rng(seed))
            r = delta_n(p)
            if not r.simple:
                continue
            f = inv_delta_objective(p, 1e-6 * p.length)
            assert f == pytest.approx(r.inv_delta_n, abs=1e-12)

    def test_infinite_for_nonsimple(self):
        p = read_polygon("tests/data/pentagram10.txt")
        assert math.isinf(inv_delta_objective(p, 1e-6 * p.length))


QUICK = AnnealConfig(seed=3, steps_per_temp=40, cooling=0.85, t_min=1e-3)


class TestAnneal:
    def test_deterministic(self):
        p = perturbed_regular(6, 0.15, np.random.default_rng(7))
        b1, t1 = anneal(p, QUICK)
        b2, t2 = anneal(p, QUICK)
        assert np.array_equal(b1.vertices, b2.vertices)
        assert np.array_equal(t1.objective, t2.objective)
        assert np.array_equal(t1.accepted, t2.accepted)

    def test_improves_and_stays_equilateral(self):
        p = perturbed_regular(6, 0.15, np.random.default_rng(8))
        best, trace = anneal(p, QUICK)
        assert trace.best_objective[-1] < trace.objective[0]
        lens = np.linalg.norm(np.roll(best.vertices, -1, axis=0) - best.vertices,
                              axis=1)
        assert np.max(np.abs(lens - 1.0 / 6.0)) < 1e-12
        # never below the regular floor
        floor = 12.0 * math.tan(math.pi / 6.0) - 1e-9
        assert trace.best_objective[-1] >= floor

    def test_trace_invariants(self):
        p = perturbed_regular(6, 0.12, np.random.default_rng(9))
        _, trace = anneal(p, QUICK)
        assert np.all(np.diff(trace.best_objective) <= 0.0)
        assert set(np.unique(trace.accepted)) <= {0, 1}
        assert np.all(np.diff(trace.step) == 1)
        # geometric cooling
        temps = np.unique(trace.temperature)[::-1]
        ratios = temps[1:] / temps[:-1]
        assert np.max(np.abs(ratios - QUICK.cooling)) < 1e-12
        assert len(trace) % QUICK.steps_per_temp == 0
        assert np.all(np.abs(trace.theta) <= _THETA_MAX)

    def test_csv_round_trip(self, tmp_path):
        p = perturbed_regular(6, 0.12, np.random.default_rng(10))
        _, trace = anneal(p, QUICK)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,temperature,objective,accepted,i,j,theta"
        assert len(lines) == len(trace) + 1
        first = lines[1].split(",")
        assert int(first[0]) == trace.step[0]
        assert float(first[2]) == trace.objective[0]
        assert int(first[3]) == trace.accepted[0]

    def test_empty_trace(self, tmp_path):
        # a start temperature below t_min runs no proposal at all
        p = perturbed_regular(6, 0.12, np.random.default_rng(10))
        best, trace = anneal(p, AnnealConfig(t0=1e-5, t_min=1e-4))
        assert len(trace) == 0
        assert trace.step.dtype.kind == "i" and trace.theta.dtype.kind == "f"
        assert np.array_equal(best.vertices, p.vertices)
        trace.to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text() == (
            "step,temperature,objective,accepted,i,j,theta\n")

    def test_rejects_nonsimple_start(self):
        p = read_polygon("tests/data/pentagram10.txt")
        with pytest.raises(ValueError):
            anneal(p, QUICK)

    def test_triangle_runs(self):
        best, trace = anneal(regular_ngon(3), AnnealConfig(
            seed=0, steps_per_temp=10, cooling=0.5, t_min=1e-2))
        # the triangle is already optimal; the floor tripwire must not fire
        assert best.n == 3
        assert trace.best_objective[-1] >= 6.0 * math.tan(math.pi / 3.0) - 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(cooling=1.5)
        with pytest.raises(ValueError):
            AnnealConfig(steps_per_temp=0)
        # a float count failed only in anneal, inside range, with a TypeError
        for bad in (2.5, 2.0, "200", None):
            with pytest.raises(ValueError, match=f"steps_per_temp must be an integer, got {bad!r}"):
                AnnealConfig(steps_per_temp=bad)
        AnnealConfig(steps_per_temp=np.int64(5))
        # a temperature of zero or below, or not finite, is refused before
        # it can reach the Metropolis test, where it would divide by zero
        for bad in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="t_min"):
                AnnealConfig(t_min=bad)
            with pytest.raises(ValueError, match="t0"):
                AnnealConfig(t0=bad)
        AnnealConfig(t0=None, t_min=1e-300)

    @pytest.mark.parametrize("seed, message", [
        (2.5, "seed must be an integer, got 2.5"),
        (-1, "seed must be a non-negative integer, got -1"),
        ("2", "seed must be an integer, got '2'"),
        (None, "seed must be an integer, got None")])
    def test_seed_validation(self, seed, message):
        # these failed only inside anneal, in numpy's seeding, naming no setting
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnnealConfig(seed=seed)
        AnnealConfig(seed=np.int64(5))
