"""Tests for the sweep, table, and campaign drivers."""

import math

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


def _stack(mode, seed, cases):
    """The campaign's draws for cases seed .. seed + cases - 1, and their arcs
    walked as one stack."""
    n, K, L, U = zip(*(experiments._campaign_case(mode, seed + k) for k in range(cases)))
    n, K, L = np.array(n), np.array(K), np.array(L)
    return n, K, L, schur._bounded_arcs(n, K, L, U)


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
        draw = experiments._campaign_case

        def drawing(mode, seed):
            n, K, L, u = draw(mode, seed)
            return (n, K, 4.0 * math.pi / K, u) if seed == 7 + k else (n, K, L, u)

        monkeypatch.setattr(experiments, "_campaign_case", drawing)
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
