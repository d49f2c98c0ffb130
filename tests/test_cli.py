"""Tests for the command-line surface and its exit-code contract."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from polythick import ThicknessReport, read_polygon, regular_ngon, write_polygon
from polythick.cli import main
from polythick.polygon import loads_polygon
from polythick.experiments import SchurCampaignResult

from _gen import perturbed_regular


class TestThicknessCommand:
    def test_stdout_json(self, capsys):
        assert main(["thickness", "tests/data/crumpled10.txt"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inv_delta_n"] == pytest.approx(166.60103925959578,
                                                       rel=1e-12)
        assert payload["binding"] == "curvature"

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert main(["thickness", "tests/data/strand20.txt",
                     "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        report = ThicknessReport.from_json(dest.read_text())
        assert report.dcsd == pytest.approx(0.02, abs=1e-6)

    def test_missing_file(self, capsys):
        assert main(["thickness", "no/such/file.txt"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n1 0\n")
        assert main(["thickness", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_polygon_outside_scale_range(self, tmp_path, capsys):
        # coordinates of 1e160 used to reach the tree as "The value of p too
        # large for this dataset"; now one error line names the edge length
        src = tmp_path / "huge.txt"
        src.write_text("".join(f"{x:.17g} {y:.17g} {z:.17g}\n"
                               for x, y, z in regular_ngon(7).vertices * 1e160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["thickness", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: mean edge length")
        assert captured.err.count("\n") == 1


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "polythick" in capsys.readouterr().out

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["summon"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["ngon-table", "--frobnicate"]) == 1


class TestInscribeCommand:
    def test_vertices_to_stdout(self, capsys):
        assert main(["inscribe", "--curve", "circle", "--n", "8",
                     "--m", "512"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        V = np.array([[float(x) for x in ln.split()] for ln in lines])
        lens = np.linalg.norm(np.roll(V, -1, axis=0) - V, axis=1)
        assert np.max(np.abs(lens - lens[0])) < 1e-12

    def test_rescale_to_file(self, tmp_path, capsys):
        dest = tmp_path / "oct.txt"
        assert main(["inscribe", "--curve", "circle", "--n", "8",
                     "--m", "512", "--rescale", "--out", str(dest)]) == 0
        p = read_polygon(dest)
        assert p.length == pytest.approx(1.0, abs=1e-12)

    def test_curve_file_input(self, tmp_path, capsys):
        from polythick import preset_curve, write_curve
        cpath = tmp_path / "circle.curve"
        write_curve(preset_curve("circle", m=512), cpath)
        assert main(["inscribe", "--curve", str(cpath), "--n", "8"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 8

    def test_empty_curve_file(self, tmp_path, capsys):
        cpath = tmp_path / "empty.curve"
        cpath.write_text("")
        assert main(["inscribe", "--curve", str(cpath), "--n", "8"]) == 1
        err = capsys.readouterr().err
        assert err == "error: need at least 8 curve samples, got 0\n"

    def test_non_finite_curve_row(self, tmp_path, capsys):
        cpath = tmp_path / "nan.curve"
        cpath.write_text("# samples\n0 0 0\nnan 1 0\n" + "1 1 0\n" * 8)
        assert main(["inscribe", "--curve", str(cpath), "--n", "8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_impossible_n(self, capsys):
        assert main(["inscribe", "--curve", "torus:4,1", "--n", "5",
                     "--m", "512"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_coarse_knot_inscribes(self, capsys):
        assert main(["inscribe", "--curve", "torus:3,2", "--n", "8",
                     "--m", "1024"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        V = np.array([[float(x) for x in ln.split()] for ln in lines])
        lens = np.linalg.norm(np.roll(V, -1, axis=0) - V, axis=1)
        assert np.max(np.abs(lens - lens[0])) < 1e-12

    def test_unknown_preset(self, capsys):
        assert main(["inscribe", "--curve", "helix", "--n", "8"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("torus:2,3,inf,1", "torus radii must be finite with 0 < |rho| < |R|, got R=inf, rho=1"),
        ("torus:2,3,2,0", "torus radii must be finite with 0 < |rho| < |R|, got R=2, rho=0"),
        # rho = 1 vanishes in R = 1e300 + rho: the samples would trace a circle twice
        ("torus:2,3,1e300,1", "torus radius rho=1 is lost in the rounding of R=1e+300"),
        ("torus:2,3,1e16,1", "torus radius rho=1 is lost in the rounding of R=1e+16")])
    def test_degenerate_torus(self, spec, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inscribe", "--curve", spec, "--n", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_huge_torus_inscribes(self, capsys):
        # samples of size 1e300 inscribe as the default torus's do
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inscribe", "--curve", "torus:2,3,2e300,1e300", "--n", "8"]) == 0
            huge = capsys.readouterr().out
            assert main(["inscribe", "--curve", "torus:2,3", "--n", "8"]) == 0
        V, W = (loads_polygon(text).vertices for text in (huge, capsys.readouterr().out))
        assert V.shape == (8, 3) and np.abs(V - W).max() <= 1e-14


class TestGammaCommand:
    def test_csv_stdout(self, capsys):
        assert main(["gamma", "--curve", "circle", "--ns", "8,16",
                     "--m", "512", "--m-proxy", "256"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n,length_tilde,inv_delta")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "8"

    def test_bad_ns(self, capsys):
        assert main(["gamma", "--curve", "circle", "--ns", "8,x"]) == 1
        assert "comma-separated" in capsys.readouterr().err

    def test_ns_below_three(self, capsys):
        assert main(["gamma", "--curve", "circle", "--ns", "2,-3,8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --ns resolutions must be at least 3, got 2\n"

    def test_failed_inscription_keeps_its_row(self, capsys):
        # n = 5 is a valid resolution that the (4, 1) torus knot refuses
        assert main(["gamma", "--curve", "torus:4,1", "--ns", "5", "--m", "1024",
                     "--m-proxy", "256"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == "5" and "did not converge" in row[10]

    def test_empty_ns(self, capsys):
        assert main(["gamma", "--curve", "circle", "--ns", ","]) == 1

    def test_curve_file_of_other_length(self, tmp_path, capsys):
        from polythick import ArcLengthCurve, preset_curve, write_curve
        cpath = tmp_path / "circle3.curve"
        write_curve(ArcLengthCurve(6.0 * math.pi * preset_curve("circle", m=256).positions), cpath)
        assert main(["gamma", "--curve", str(cpath), "--ns", "16", "--m-proxy", "256"]) == 1
        assert capsys.readouterr().err.startswith("error: curve table has length 18.8")

    def test_bad_proxy_resolution(self, capsys):
        assert main(["gamma", "--curve", "torus:2,3", "--ns", "8", "--m-proxy", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "error: proxy resolution must be at least 3, got 0\n"


class TestNgonTableCommand:
    def test_default_range(self, capsys):
        assert main(["ngon-table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,measured,closed_form,abs_diff"
        assert len(lines) == 11   # n = 3..12
        for ln in lines[1:]:
            assert float(ln.split(",")[3]) < 1e-12

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "table.csv"
        assert main(["ngon-table", "--min", "3", "--max", "5",
                     "--out", str(dest)]) == 0
        assert len(dest.read_text().splitlines()) == 4

    def test_bad_range(self, capsys):
        assert main(["ngon-table", "--min", "9", "--max", "4"]) == 1


class TestSchurCommand:
    def test_campaign_runs(self, capsys, tmp_path):
        dest = tmp_path / "margins.csv"
        assert main(["schur-campaign", "--cases", "100", "--seed", "5",
                     "--out", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "100 cases" in out
        assert "0 violations" in out
        lines = dest.read_text().splitlines()
        assert lines[0] == "case,margin"
        assert len(lines) == 101

    def test_relaxed_mode(self, capsys):
        assert main(["schur-campaign", "--cases", "50", "--seed", "2",
                     "--mode", "relaxed"]) == 0
        assert "relaxed" in capsys.readouterr().out

    def test_negative_seed(self, capsys):
        assert main(["schur-campaign", "--cases", "5", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    def test_violations_exit_numerical(self, capsys, monkeypatch):
        # a sign violation would disprove the inequality; fabricate one to
        # pin the exit-code contract without waiting for a miracle
        fake = SchurCampaignResult(cases=1, mode="strict", min_margin=-0.1,
                                   min_case=0, violations=1, degenerate=0,
                                   margins=np.array([-0.1]))
        monkeypatch.setattr("polythick.cli.schur_campaign",
                            lambda *a, **k: fake)
        assert main(["schur-campaign", "--cases", "1"]) == 2
        assert "numerical failure" in capsys.readouterr().err


class TestAnnealCommand:
    def test_end_to_end(self, tmp_path, capsys):
        start = tmp_path / "start.txt"
        write_polygon(perturbed_regular(6, 0.1, np.random.default_rng(1)),
                      start)
        best = tmp_path / "best.txt"
        trace = tmp_path / "trace.csv"
        assert main(["anneal", "--input", str(start), "--seed", "0",
                     "--t0", "1.0", "--steps", "10", "--cool", "0.5",
                     "--t-min", "0.05", "--out", str(best),
                     "--trace", str(trace)]) == 0
        err = capsys.readouterr().err
        assert "proposals:" in err and "best 1/delta_n:" in err
        p = read_polygon(best)
        assert p.n == 6
        assert trace.read_text().startswith(
            "step,temperature,objective,accepted,i,j,theta")
        assert "annealed" in best.read_text().splitlines()[0]

    def test_polygon_to_stdout_without_out(self, tmp_path, capsys):
        start = tmp_path / "start.txt"
        write_polygon(perturbed_regular(6, 0.1, np.random.default_rng(1)), start)
        assert main(["anneal", "--input", str(start), "--seed", "0", "--t0", "1.0",
                     "--steps", "10", "--cool", "0.5", "--t-min", "0.05"]) == 0
        out = capsys.readouterr()
        assert loads_polygon(out.out).n == 6
        assert "proposals:" in out.err

    def test_negative_seed(self, capsys):
        assert main(["anneal", "--input", "tests/data/crumpled10.txt", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    def test_nonsimple_start(self, capsys):
        assert main(["anneal", "--input", "tests/data/pentagram10.txt",
                     "--steps", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_temperature(self, capsys):
        # a zero temperature is an input error, refused before the run starts
        for flag in ("--t-min", "--t0"):
            assert main(["anneal", "--input", "tests/data/crumpled10.txt",
                         flag, "0", "--cool", "0.01", "--steps", "1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from polythick.cli import main; "
             "sys.exit(main(['ngon-table', '--min', '3', '--max', '4']))"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,measured")
