"""The four benchmark workloads: inputs, CLI argv, output checks.

Each workload owns a fixed list of cases.  The run seed only decides the
order in which cases are visited, through a seeded permutation, so a seed
always gives the same inputs and every case has a reference output frozen
in refs.json.  An op is one call of `polythick.cli.main(argv)`; a round is
the group of ops whose costs are averaged together (one of each shape in
report-large, one of each mode in campaign-schur).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

from polythick import (Polygon, delta_n, inscribe_equilateral, is_simple,
                       preset_curve, random_equilateral_polygon, regular_ngon,
                       rescale_unit, write_polygon)


def _visit_order(seed: int, count: int):
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return itertools.cycle(order)


def close_to(observed, expected, rel: float) -> bool:
    """Floats within rel of the reference (inf and nan must match); other
    values must be equal."""
    if isinstance(expected, float):
        if not isinstance(observed, float):
            return False
        if math.isnan(expected) or math.isinf(expected):
            return observed == expected or (math.isnan(expected) and math.isnan(observed))
        return abs(observed - expected) <= rel * abs(expected)
    return observed == expected


class Workload:
    """One named input set; subclasses fill in the hooks."""

    name = ""
    # observed keys that refs.json does not freeze
    unfrozen: tuple = ()

    def cases(self) -> list[str]:
        raise NotImplementedError

    def rounds(self, seed: int):
        """Endless iterator of rounds (lists of case ids) for this seed."""
        raise NotImplementedError

    def setup(self, indir: Path) -> None:
        """Generate and write every input file the cases read."""

    def argv(self, case: str, indir: Path, outdir: Path) -> list[str]:
        raise NotImplementedError

    def observe(self, case: str, outdir: Path, stdout: str, stderr: str) -> dict:
        """The op's outputs, read back from the files it wrote."""
        raise NotImplementedError

    def invariants(self, case: str, obs: dict, tol: dict) -> list[str]:
        """Problems found by checks that need no stored reference."""
        return []

    def work(self, obs: dict) -> int:
        """Units of work one op completed (reports, sweeps, proposals, cases)."""
        return 1

    def check(self, case: str, obs: dict, ref: dict) -> list[str]:
        """Invariants plus equality with the frozen outputs of this case."""
        tol = ref["tolerance"]
        problems = self.invariants(case, obs, tol)
        for key, expected in ref["cases"][case].items():
            if key not in obs:
                problems.append(f"{key}: missing from the output")
            elif not close_to(obs[key], expected, tol["float_rel"]):
                problems.append(f"{key}: got {obs[key]!r}, reference {expected!r}")
        return problems


class ReportLarge(Workload):
    name = "report-large"
    N = 2048
    RANDOM = 16

    def cases(self):
        return ["trefoil", "regular"] + [f"random-{j:02d}" for j in range(self.RANDOM)]

    def rounds(self, seed):
        for j in _visit_order(seed, self.RANDOM):
            yield ["trefoil", "regular", f"random-{j:02d}"]

    def setup(self, indir):
        trefoil = rescale_unit(inscribe_equilateral(preset_curve("torus:2,3", 4096),
                                                    self.N))
        write_polygon(trefoil, indir / "trefoil.txt")
        write_polygon(regular_ngon(self.N), indir / "regular.txt")
        for j in range(self.RANDOM):
            p = random_equilateral_polygon(self.N, np.random.default_rng(j))
            write_polygon(p, indir / f"random-{j:02d}.txt")

    def argv(self, case, indir, outdir):
        return ["thickness", str(indir / f"{case}.txt"),
                "--out", str(outdir / "report.json")]

    def observe(self, case, outdir, stdout, stderr):
        report = json.loads((outdir / "report.json").read_text())
        keys = ("inv_delta_n", "min_rad", "dcsd", "scsd", "binding", "simple")
        return {k: report[k] for k in keys}

    def invariants(self, case, obs, tol):
        if case != "regular":
            return []
        closed = 2.0 * self.N * math.tan(math.pi / self.N)
        gap = abs(obs["inv_delta_n"] - closed)
        if gap > tol["closed_form_abs"]:
            return [f"inv_delta_n misses 2n tan(pi/n) = {closed!r} by {gap:.3g}"]
        return []


class SweepTrefoil(Workload):
    name = "sweep-trefoil"
    NS = (64, 128, 256, 512)
    FIELDS = ("length_tilde", "inv_delta", "min_rad", "dcsd", "scsd", "binding",
              "pos_sup", "deriv_sup", "proxy", "failed")

    def cases(self):
        return ["sweep"]

    def rounds(self, seed):
        while True:
            yield ["sweep"]

    def argv(self, case, indir, outdir):
        return ["gamma", "--curve", "torus:2,3",
                "--ns", ",".join(str(n) for n in self.NS), "--m-proxy", "4096",
                "--out", str(outdir / "gamma.csv")]

    def observe(self, case, outdir, stdout, stderr):
        lines = (outdir / "gamma.csv").read_text().splitlines()
        header = lines[0].split(",")
        obs = {}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            for f in self.FIELDS:
                text = row[f]
                obs[f"{row['n']}.{f}"] = text if f in ("binding", "failed") else float(text)
        return obs

    def invariants(self, case, obs, tol):
        problems = [f"row n={key.split('.')[0]} failed: {val}"
                    for key, val in obs.items() if key.endswith(".failed") and val]
        rows = sorted({int(key.split(".")[0]) for key in obs})
        if rows != list(self.NS):
            problems.append(f"rows {rows}, expected {list(self.NS)}")
        return problems


class AnnealOctagon(Workload):
    name = "anneal-octagon"
    N = 8
    SIGMA = 0.18
    STARTS = 32
    unfrozen = ("accepted", "vertices")
    # criterion-9 move settings with a shorter schedule (cooling 0.8, 20
    # proposals per temperature) so one op takes under two seconds
    SCHEDULE = ["--steps", "20", "--cool", "0.8", "--t-min", "1e-3"]

    def cases(self):
        return [f"octagon-{j:02d}" for j in range(self.STARTS)]

    def rounds(self, seed):
        for j in _visit_order(seed, self.STARTS):
            yield [f"octagon-{j:02d}"]

    def _start(self, j: int) -> Polygon:
        """Regular octagon with Gaussian direction noise, re-closed and
        re-equilateralised by alternating mean removal and normalisation."""
        rng = np.random.default_rng(j)
        dirs = np.asarray(regular_ngon(self.N).directions(), dtype=float).copy()
        dirs += self.SIGMA * rng.normal(size=dirs.shape)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for _ in range(400):
            dirs -= dirs.mean(axis=0)
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            if np.linalg.norm(dirs.sum(axis=0)) < 1e-13:
                break
        return Polygon(np.vstack([np.zeros(3), np.cumsum(dirs[:-1], axis=0)]) / self.N)

    def setup(self, indir):
        for j in range(self.STARTS):
            write_polygon(self._start(j), indir / f"start-{j:02d}.txt")

    def argv(self, case, indir, outdir):
        j = case.split("-")[1]
        return ["anneal", "--input", str(indir / f"start-{j}.txt"),
                "--seed", str(int(j)), *self.SCHEDULE,
                "--out", str(outdir / "best.txt"),
                "--trace", str(outdir / "trace.csv")]

    def observe(self, case, outdir, stdout, stderr):
        best = stderr.rsplit("best 1/delta_n:", 1)[1].split()[0]
        accepted = np.loadtxt(outdir / "trace.csv", delimiter=",", skiprows=1,
                              usecols=3, dtype=int, ndmin=1)
        return {"best_inv_delta": float(best),
                "proposals": int(accepted.size),
                "accepted": int(accepted.sum()),
                "vertices": np.loadtxt(outdir / "best.txt", ndmin=2)}

    def invariants(self, case, obs, tol):
        V = obs["vertices"]
        lens = np.linalg.norm(np.roll(V, -1, axis=0) - V, axis=1)
        if lens.max() - lens.min() > tol["equilateral_rel"] * lens.mean():
            return [f"edge lengths spread {lens.max() - lens.min():.3g}"]
        p = Polygon(V)
        if not is_simple(p):
            return ["annealed polygon is not simple"]
        bound = 2.0 * self.N * math.tan(math.pi / self.N) / p.length
        inv = delta_n(p).inv_delta_n
        if inv < bound - tol["bound_abs"]:
            return [f"1/delta_n = {inv!r} below the n-gon bound {bound!r}"]
        return []

    def work(self, obs):
        return obs["proposals"]


class CampaignSchur(Workload):
    name = "campaign-schur"
    CASES = 250
    BLOCKS = 16

    def cases(self):
        return [f"{mode}-{j:02d}" for j in range(self.BLOCKS)
                for mode in ("strict", "relaxed")]

    def rounds(self, seed):
        for j in _visit_order(seed, self.BLOCKS):
            yield [f"strict-{j:02d}", f"relaxed-{j:02d}"]

    def argv(self, case, indir, outdir):
        mode, j = case.split("-")
        # block j covers case seeds j*CASES .. (j+1)*CASES - 1
        return ["schur-campaign", "--cases", str(self.CASES),
                "--seed", str(int(j) * self.CASES), "--mode", mode,
                "--out", str(outdir / "margins.csv")]

    def observe(self, case, outdir, stdout, stderr):
        raw = (outdir / "margins.csv").read_bytes()
        margins = [float(line.split(b",")[1]) for line in raw.splitlines()[1:]]
        return {"violations": int(stdout.split(" violations")[0].rsplit(" ", 1)[1]),
                "cases": len(margins),
                "min_margin": min(margins),
                "margins_sha256": hashlib.sha256(raw).hexdigest()}

    def invariants(self, case, obs, tol):
        if obs["violations"]:
            return [f"{obs['violations']} sign violations"]
        return []

    def work(self, obs):
        return obs["cases"]


WORKLOADS = {w.name: w for w in (ReportLarge(), SweepTrefoil(), AnnealOctagon(),
                                 CampaignSchur())}
