"""Tests for the sweep, table, and campaign drivers."""

import math
import re

import numpy as np
import pytest

from polythick import (
    experiments,
    gamma_csv,
    gamma_series,
    max_curv2,
    ngon_csv,
    ngon_table,
    preset_curve,
    random_bounded_arc,
    schur,
    schur_campaign,
    schur_check,
    sphere_campaign,
    sphere_exclusion_check,
)


@pytest.fixture(scope="module")
def circle():
    return preset_curve("circle", m=1024)


class TestNgonTable:
    def test_measured_matches_closed_form(self):
        rows = ngon_table(3, 10)
        assert [r[0] for r in rows] == list(range(3, 11))
        for n, measured, formula, diff in rows:
            assert formula == pytest.approx(2.0 * n * math.tan(math.pi / n),
                                            rel=1e-15)
            assert diff == abs(measured - formula)
            assert diff < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ngon_table(2, 10)
        with pytest.raises(ValueError):
            ngon_table(8, 5)

    @pytest.mark.parametrize("n_min, n_max, name, value", [(3.5, 5, "n_min", 3.5),
                                                           (3, 5.0, "n_max", 5.0)])
    def test_non_integer_bounds_rejected(self, n_min, n_max, name, value):
        # these failed in range with a TypeError that named no bound
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            ngon_table(n_min, n_max)

    def test_csv_format(self):
        rows = ngon_table(3, 5)
        text = ngon_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "n,measured,closed_form,abs_diff"
        assert len(lines) == 4
        fields = lines[1].split(",")
        assert fields[0] == "3"
        # 17g output parses back to the exact double
        assert float(fields[1]) == rows[0][1]
        assert float(fields[2]) == rows[0][2]


class TestGammaCsv:
    def test_header_and_rows(self, circle):
        rows = gamma_series(circle, [8, 16], m_proxy=256)
        text = gamma_csv(rows)
        lines = text.splitlines()
        assert lines[0] == ("n,length_tilde,inv_delta,min_rad,dcsd,scsd,"
                            "binding,pos_sup,deriv_sup,proxy,failed")
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "8"
        assert float(fields[1]) == rows[0].length_tilde
        assert float(fields[2]) == rows[0].inv_delta
        assert fields[6] == "curvature"
        assert fields[10] == ""

    def test_failed_row_rendering(self):
        rows = gamma_series(preset_curve("torus:4,1", m=1024), [5], m_proxy=256)
        assert rows[0].failed
        line = gamma_csv(rows).splitlines()[1]
        fields = line.split(",")
        assert fields[0] == "5"
        assert fields[1] == "nan"
        assert "did not converge" in fields[10]


class TestSchurCampaign:
    def test_strict_clean(self):
        res = schur_campaign(300, seed=11, mode="strict")
        assert res.cases == 300
        assert res.mode == "strict"
        assert res.violations == 0
        assert res.min_margin > 0.0
        assert len(res.margins) == 300

    def test_relaxed_clean(self):
        res = schur_campaign(300, seed=17, mode="relaxed")
        assert res.violations == 0
        assert res.min_margin > 0.0

    def test_deterministic_and_shardable(self):
        a = schur_campaign(50, seed=23)
        b = schur_campaign(50, seed=23)
        assert np.array_equal(a.margins, b.margins)
        # case k uses seed + k, so a shifted start reproduces the overlap
        c = schur_campaign(40, seed=33)
        assert np.array_equal(a.margins[10:], c.margins[:40])

    def test_summary_text(self):
        res = schur_campaign(20, seed=3)
        s = res.summary()
        assert "strict" in s
        assert "20 cases" in s
        assert "0 violations" in s

    @pytest.mark.parametrize("mode, seed", [("strict", 11), ("relaxed", 17)])
    def test_min_case_replays(self, mode, seed):
        res = schur_campaign(300, seed=seed, mode=mode)
        k = res.min_case
        assert res.min_margin == res.margins[k] == res.margins.min()
        # case k is drawn with seed + k, so a campaign of one replays it
        replay = schur_campaign(1, seed=seed + k, mode=mode)
        assert replay.margins.tobytes() == res.margins[k:k + 1].tobytes()
        s = res.summary()
        assert f"min margin {res.min_margin:.6g} (case {k})," in s
        # the benchmark reads the violation count as the token before it
        assert int(s.split(" violations")[0].rsplit(" ", 1)[1]) == res.violations

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            schur_campaign(5, seed=0, mode="chaotic")

    @pytest.mark.parametrize("cases", [0, -3])
    def test_cases_validation(self, cases):
        with pytest.raises(ValueError, match="cases must be at least 1"):
            schur_campaign(cases, seed=0)


class TestSphereCampaign:
    def test_clean(self):
        res = sphere_campaign(300, seed=41)
        assert res.mode == "sphere"
        assert res.violations == 0
        assert res.min_margin > 0.0

    def test_deterministic(self):
        a = sphere_campaign(40, seed=7)
        b = sphere_campaign(40, seed=7)
        assert np.array_equal(a.margins, b.margins)

    @pytest.mark.parametrize("cases", [0, -3])
    def test_cases_validation(self, cases):
        with pytest.raises(ValueError, match="cases must be at least 1"):
            sphere_campaign(cases, seed=0)


@pytest.mark.parametrize("campaign", [schur_campaign, sphere_campaign])
@pytest.mark.parametrize("seed, message", [
    (2.5, "seed must be an integer, got 2.5"),
    (-1, "seed must be a non-negative integer, got -1"),
    ("2", "seed must be an integer, got '2'"),
    (None, "seed must be an integer, got None")])
def test_campaign_seed_validation(campaign, seed, message):
    # these failed in numpy's seeding, with messages that named no setting
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        campaign(3, seed)


@pytest.mark.parametrize("campaign", [schur_campaign, sphere_campaign])
def test_campaign_non_integer_cases_rejected(campaign):
    # failed in np.empty with a TypeError
    with pytest.raises(ValueError, match="^cases must be an integer, got 2.5$"):
        campaign(2.5, 0)


def _stack(mode, seed, cases):
    """The campaign's draws for cases seed .. seed + cases - 1, each drawn
    alone by _campaign_case, and their arcs walked as one stack."""
    n, K, L, u = zip(*(experiments._campaign_case(mode, seed + k) for k in range(cases)))
    n, K, L = np.array(n), np.array(K), np.array(L)
    U = np.zeros((cases, 2 * n.max() - 2))
    for b, row in enumerate(u):
        U[b, :len(row)] = row
    return n, K, L, schur._bounded_arcs(n, K, L, U)


def _draw_too_long(monkeypatch, seed):
    """Make the stacked draw give the case of this seed L = 4 pi / K."""
    draws = experiments._campaign_draws

    def drawing(mode, seeds):
        n, K, L, U = draws(mode, seeds)
        if seed in seeds:
            b = seeds.index(seed)
            L[b] = 4.0 * math.pi / K[b]
        return n, K, L, U

    monkeypatch.setattr(experiments, "_campaign_draws", drawing)


def _hex(x) -> str:
    return float(x).hex()


class TestCampaignStack:
    """The stacked walk and chord check against the one-arc entry points."""

    @pytest.mark.parametrize("mode, seed", [("strict", 0), ("relaxed", 250),
                                            ("sphere", 500)])
    def test_every_case_is_its_lone_arc(self, mode, seed):
        n, K, L, V = _stack(mode, seed, 250)
        curv = schur._check_curvature(V, n, np.full(250, 1e300))[2]
        if mode == "sphere":
            margins = sphere_campaign(250, seed).margins
        else:
            margins = schur_campaign(250, seed, mode).margins
            lengths, circles, polys = schur._chord_check(V, n, K, mode)
        for b in range(250):
            arc = random_bounded_arc(int(n[b]), float(K[b]), float(L[b]), seed + b)
            assert V[b, :n[b] + 1].tobytes() == arc.vertices.tobytes()
            assert _hex(curv[b]) == _hex(max_curv2(arc))
            if mode == "sphere":
                assert _hex(margins[b]) == _hex(sphere_exclusion_check(arc, K[b]).min_distance)
                continue
            assert _hex(margins[b]) == _hex(schur_check(arc, float(K[b]), mode).margin)
            # the stack's numbers are the one-arc formulas': PolyArc's
            # length, the norm of one chord vector, the circle's closed form
            assert _hex(lengths[b]) == _hex(arc.length)
            chord = np.linalg.norm(arc.vertices[-1] - arc.vertices[0])
            assert _hex(polys[b]) == _hex(chord)
            circle = (2.0 / float(K[b])) * math.sin(0.5 * float(K[b]) * arc.length)
            assert _hex(circles[b]) == _hex(circle)

    @pytest.mark.parametrize("mode", ["strict", "relaxed", "sphere"])
    @pytest.mark.parametrize("split", [experiments._CHUNK // 3, experiments._CHUNK])
    def test_chunked_campaign_is_its_shards(self, mode, split):
        # the split falls inside the first chunk or on its end
        def run(cases, seed):
            if mode == "sphere":
                return sphere_campaign(cases, seed)
            return schur_campaign(cases, seed, mode)

        cases = experiments._CHUNK + 300
        whole = run(cases, 7).margins
        shards = np.concatenate([run(split, 7).margins,
                                 run(cases - split, 7 + split).margins])
        assert whole.tobytes() == shards.tobytes()

    def test_length_violation_names_the_case(self, monkeypatch):
        # a case past the first chunk is drawn four times too long
        k = experiments._CHUNK + 5
        _draw_too_long(monkeypatch, 7 + k)
        with pytest.raises(ValueError, match=f"length bound violated at case {k}: K\\*L"):
            schur_campaign(k + 10, 7)

    def test_curvature_violation_names_the_case(self):
        n, K, L, V = _stack("relaxed", 40, 20)
        curv = schur._check_curvature(V, n, K)[2]
        K = np.where(np.arange(20) == 3, 0.5 * curv, K)
        with pytest.raises(ValueError, match="curvature bound violated at case 103: "):
            schur._chord_check(V, n, K, "relaxed", cases=np.arange(100, 120))
        # a lone arc's message names no case
        with pytest.raises(ValueError, match="curvature bound violated: "):
            schur._chord_check(V[3:4], n[3:4], K[3:4], "relaxed")

    def test_sphere_length_violation_names_the_case(self, monkeypatch):
        # as for the chord check: a case past the first chunk drawn too long
        k = experiments._CHUNK + 5
        _draw_too_long(monkeypatch, 7 + k)
        with pytest.raises(ValueError, match=f"length bound violated at case {k}: K\\*L"):
            sphere_campaign(k + 10, 7)

    def test_sphere_check_violations_name_the_case(self):
        n, K, L, V = _stack("sphere", 40, 20)
        # arc 5's first edge half again as long, along the same direction
        V[5, 0] -= 0.5 * (V[5, 1] - V[5, 0])
        with pytest.raises(ValueError, match="sphere exclusion needs an equilateral "
                                             "arc at case 105$"):
            schur._sphere_check(V, n, K, cases=np.arange(100, 120))
        with pytest.raises(ValueError, match="sphere exclusion needs an equilateral arc$"):
            schur._sphere_check(V[5:6], n[5:6], K[5:6])
        # arc 3 at K*L = 2 pi, with its curvature bound still met
        K = np.where(np.arange(20) == 3, 2.0 * math.pi / L, K)
        with pytest.raises(ValueError, match="length bound violated at case 103: K\\*L = "
                                             "6.28318530717958.* > pi/2$"):
            schur._sphere_check(V[:5], n[:5], K[:5], cases=np.arange(100, 105))
        with pytest.raises(ValueError, match="length bound violated: K\\*L"):
            schur._sphere_check(V[3:4], n[3:4], K[3:4])

    def test_anchor_failure_names_the_case_and_seed(self, monkeypatch):
        # the anchor left sides of the first chunk's case 3 pushed down by 1e-6
        check = schur._sphere_check

        def shifted(V, n, K, cases=None):
            dists, lhs, rhs = check(V, n, K, cases)
            lhs[cases == 3] -= 1e-6
            return dists, lhs, rhs

        monkeypatch.setattr(experiments, "_sphere_check", shifted)
        with pytest.raises(RuntimeError, match=r"anchor inequality failed by -1\.0\d\de-06 "
                                               r"at case 3 \(seed 10\)$"):
            sphere_campaign(20, 7)

    def test_sphere_stack_is_padded(self):
        # rows past an arc's end read +inf, 0 and 0, so row minima are the
        # margins and the anchor gaps
        n, K, L, V = _stack("sphere", 500, 50)
        dists, lhs, rhs = schur._sphere_check(V, n, K)
        past = np.arange(dists.shape[1]) >= n[:, None]
        assert past.any()
        assert np.all(dists[past] == math.inf)
        assert not np.any(lhs[past]) and not np.any(rhs[past])
        assert np.all(np.isfinite(dists[~past]))


# 0 and the seeds where a seed grows from one 32-bit word to two, from two to
# three and from four to five; five words overflow SeedSequence's pool, so
# lanes from 2**128 on take the scalar draw
_EDGES = (0, 2**32, 2**64, 2**128)


def _assert_draws_are_cases(mode, seeds, draws):
    n, K, L, U = draws
    for b, s in enumerate(seeds):
        n1, K1, L1, u1 = experiments._campaign_case(mode, s)
        assert (int(n[b]), _hex(K[b]), _hex(L[b])) == (n1, _hex(K1), _hex(L1)), s
        assert U[b, :len(u1)].tobytes() == u1.tobytes(), s
        assert not U[b, len(u1):].any(), s


def _crafted(first):
    """A PCG64 whose output 0 is first: its state steps to (0, first), which
    XSL-RR reads as first."""
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    bits = np.random.PCG64(0)
    inc = bits.state["state"]["inc"]
    start = (first - inc) * pow(mult, -1, 2**128) % 2**128
    bits.state = {"bit_generator": "PCG64", "state": {"state": start, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return bits


class TestCampaignDraws:
    """The stacked draw against numpy's own PCG64 and Generator, as installed:
    NEP 19 fixes the bit generator's stream but not Generator's methods, so
    a numpy that draws otherwise fails here."""

    @staticmethod
    def _raw(monkeypatch, seeds):
        outputs = experiments._pcg64_outputs
        raw = []

        def recording(*lanes):
            raw.append(outputs(*lanes).copy())
            return raw[-1]

        monkeypatch.setattr(experiments, "_pcg64_outputs", recording)
        experiments._campaign_draws("strict", seeds)
        return raw[0]

    def test_lanes_are_numpy_pcg64(self, monkeypatch):
        for first in _EDGES[:3] + (2**40 + 3, 2**128 - 32):
            seeds = range(max(0, first - 32), first + 32)
            raw = self._raw(monkeypatch, seeds)
            for b, s in enumerate(seeds):
                assert raw[b].tobytes() == np.random.PCG64(s).random_raw(46).tobytes(), s

    @pytest.mark.parametrize("mode", ["strict", "relaxed", "sphere"])
    def test_draws_are_cases(self, mode):
        # 8192 seeds a mode: 1024 on each side of every edge
        for edge in _EDGES:
            first = max(0, edge - 1024)
            seeds = range(first, edge + 1024)
            for start in range(0, len(seeds), experiments._CHUNK):
                chunk = seeds[start:start + experiments._CHUNK]
                draws = experiments._campaign_draws(mode, chunk)
                assert draws[3].shape == (len(chunk), 2 * draws[0].max() - 2)
                _assert_draws_are_cases(mode, chunk, draws)

    @pytest.mark.parametrize("mode", ["strict", "relaxed", "sphere"])
    def test_campaign_across_two_words(self, mode):
        # 250 cases from 2**64 - 100: seeds of two and three words in one chunk
        seed = 2**64 - 100
        n, K, L, V = _stack(mode, seed, 250)
        if mode == "sphere":
            margins = sphere_campaign(250, seed).margins
            expected = schur._sphere_check(V, n, K)[0].min(axis=1)
        else:
            margins = schur_campaign(250, seed, mode).margins
            _, circle, poly = schur._chord_check(V, n, K, mode)
            expected = poly - circle
        assert margins.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["strict", "relaxed", "sphere"])
    def test_rejected_lanes_take_the_scalar_draw(self, mode, monkeypatch):
        # output 0 of every seventh lane given a low word of 0, which
        # Generator.integers(2, 25) rejects; those lanes must be redrawn
        outputs = experiments._pcg64_outputs

        def rejecting(*lanes):
            raw = outputs(*lanes)
            raw[::7, 0] &= np.uint64(0xFFFFFFFF00000000)
            return raw

        monkeypatch.setattr(experiments, "_pcg64_outputs", rejecting)
        seeds = range(2**32 - 100, 2**32 + 100)
        _assert_draws_are_cases(mode, seeds, experiments._campaign_draws(mode, seeds))

    def test_rejection_threshold_is_numpys(self, monkeypatch):
        # low words whose Lemire leftover (23 low mod 2**32) is 11 and 12:
        # numpy draws again for 11, from output 0's high word, but keeps 12
        high = 2**31
        low = {r: r * pow(23, -1, 2**32) % 2**32 for r in (11, 12)}
        from_high = 2 + (high * 23 >> 32)
        assert all(2 + (w * 23 >> 32) != from_high for w in low.values())
        for r, w in low.items():
            n = np.random.Generator(_crafted(high << 32 | w)).integers(2, 25)
            assert n == (from_high if r == 11 else 2 + (w * 23 >> 32))
        # the stack keeps lane 0 (leftover 12) and redraws lane 1 (leftover 11)
        outputs = experiments._pcg64_outputs

        def crafted(*lanes):
            raw = outputs(*lanes)
            for b, r in ((0, 12), (1, 11)):
                raw[b] = _crafted(high << 32 | low[r]).random_raw(46)
            return raw

        monkeypatch.setattr(experiments, "_pcg64_outputs", crafted)
        seeds = range(500, 510)
        n, K, L, U = experiments._campaign_draws("strict", seeds)
        rng = np.random.Generator(_crafted(high << 32 | low[12]))
        n0 = int(rng.integers(2, 25))
        K0 = float(rng.uniform(0.2, 5.0))
        L0 = float(rng.uniform(0.1, 0.98 * math.pi)) / K0
        u0 = np.random.Generator(_crafted(high << 32 | low[12])).random(2 * n0 - 2)
        assert (int(n[0]), _hex(K[0]), _hex(L[0])) == (n0, _hex(K0), _hex(L0))
        assert U[0, :len(u0)].tobytes() == u0.tobytes() and not U[0, len(u0):].any()
        _assert_draws_are_cases("strict", seeds[1:], (n[1:], K[1:], L[1:], U[1:]))
