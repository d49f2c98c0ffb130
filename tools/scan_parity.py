"""Record the pair scan's outputs on a fixed set of polygons, for parity checks.

For every input the JSON file holds delta_n(p).to_json() and the float.hex()
of dcsd, scsd and inv_delta_objective at clearances 1e-6 L and 1e-12 L.  For
the inputs with n <= 512 it also holds critical_pairs(p, mode) in both modes,
one line per pair with s, t and the distance as float.hex(), and the
move_is_admissible verdicts of a fixed list of crankshaft moves, as a string
of 0s and 1s, at the default clearance and at a quarter edge, which refuses
some of them.  Under "campaigns" it holds the margins, as float.hex(), of a
250-case strict and a relaxed Schur campaign and a sphere campaign.  Run it
once per checkout and compare the files byte for byte; a change that keeps
the scan's arithmetic, the sweep check's verdicts and the campaigns' draws
must leave them equal:

    python tools/scan_parity.py change.json
    python tools/scan_parity.py parent.json --checkout ../parent
    cmp parent.json change.json

The inputs cover both pruned-scan rounds and the dense scan's range: inscribed
torus knots at n = 128..512, random equilateral polygons (one of them a
384-gon whose ring at 2 min_rad fell short of dcsd), perturbed regular
1024-gons from nearly regular to crumpled, cranked and plain regular 2048-gons,
the 2048-gon trefoil of the benchmark's report-large workload and the 4096-gon
of its trefoil proxy, and three planar hexagons whose edges 0 and 3 cross at
1e-6, 1e-7 and 1e-8 rad, which the edge gap must see as crossings.  The
inputs and the pair counter of --faults come from this repository's tests/,
so only the library under test differs between checkouts.

--faults also prints, per input, the best of five delta_n timings and the
minor page faults of that call, each taken after malloc_trim (glibc only),
the number of pairs delta_n's pruned scan hands to _families, counted by
the tests' wrapper, and the round it ran: "covering" when it called
_perpendicular, which only the covering round does, "ring" otherwise.  It
then runs the op sequence of the benchmark's report-large workload, delta_n
of the trefoil, the regular and a random 2048-gon in turn, each after
malloc_trim, for 24 rounds, and prints each case's median time and minor
faults.  Per-block arrays that glibc hands back to the OS are faulted in
afresh on every block, and the order of the ops decides which ones it keeps,
so a regression of the allocator shows there first; run it also with
MALLOC_TRIM_THRESHOLD_=131072, which keeps fewer.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import resource
import sys
import time
from pathlib import Path


def _inputs():
    """(name, polygon) pairs, built from fixed seeds."""
    import numpy as np
    from _gen import crossing_hexagon, perturbed_regular
    from polythick.anneal import crankshaft_move
    from polythick.polygon import random_equilateral_polygon, regular_ngon
    from polythick.smooth import inscribe_equilateral, preset_curve, rescale_unit

    for spec in ("torus:2,3", "torus:2,5", "torus:3,4"):
        curve = preset_curve(spec, 4096)
        for n in (128, 256, 512):
            yield f"{spec}/{n}", rescale_unit(inscribe_equilateral(curve, n))
    for n in (512, 768, 1024, 1280):
        yield f"random/{n}", random_equilateral_polygon(n, np.random.default_rng(n))
    yield "random/384/384001", random_equilateral_polygon(384, np.random.default_rng(384001))
    for sigma in (0.003, 0.01, 0.03, 0.1, 0.3, 1.0):
        yield (f"perturbed-regular/1024/{sigma}",
               perturbed_regular(1024, sigma, np.random.default_rng(1)))
    for theta in (0.002, 0.05, 0.5):
        yield f"cranked-regular/2048/{theta}", crankshaft_move(regular_ngon(2048), 0, 1024, theta)
    yield "regular/2048", regular_ngon(2048)
    trefoil = preset_curve("torus:2,3", 4096)
    yield "report-large-trefoil/2048", rescale_unit(inscribe_equilateral(trefoil, 2048))
    yield "trefoil-proxy/4096", inscribe_equilateral(trefoil, 4096)
    for theta in (1e-6, 1e-7, 1e-8):
        yield f"crossing-hexagon/{theta}", crossing_hexagon(theta)


def _outputs(p) -> dict:
    from polythick.anneal import move_is_admissible
    from polythick.thickness import critical_pairs, dcsd, delta_n, inv_delta_objective, scsd

    out = {"delta_n": delta_n(p).to_json(), "dcsd": dcsd(p).hex(), "scsd": scsd(p).hex(),
           "objective_1e-6": inv_delta_objective(p, 1e-6 * p.length).hex(),
           "objective_1e-12": inv_delta_objective(p, 1e-12 * p.length).hex()}
    n = p.n
    if n <= 512:
        for mode in ("doubly", "singly"):
            out[f"critical_pairs_{mode}"] = [
                f"{q.s.hex()} {q.t.hex()} {q.distance.hex()} {q.kind} {q.criticality} "
                f"{q.i} {q.j}" for q in critical_pairs(p, mode)]
        moves = [(0, n // 2, 0.3), (n // 4, 3 * n // 4, -1.0), (n // 8, n // 8 + 5, 2.5),
                 (n - 7, n // 3, -0.05), (3, n // 2 + 3, math.pi)]
        for key, clearance in (("admissible", None),
                               ("admissible_quarter_edge", 0.25 * p.length / n)):
            out[key] = "".join(str(int(move_is_admissible(p, i, j, theta, clearance=clearance)))
                               for i, j, theta in moves)
    return out


def _campaigns() -> dict:
    from polythick.experiments import schur_campaign, sphere_campaign

    runs = {"strict/0": schur_campaign(250, 0, "strict"),
            "relaxed/250": schur_campaign(250, 250, "relaxed"),
            "sphere/500": sphere_campaign(250, 500)}
    return {name: [m.hex() for m in res.margins.tolist()] for name, res in runs.items()}


def _best_delta_n(p, trim) -> tuple[float, int]:
    """Fastest of five delta_n calls, in seconds, with its minor faults."""
    from polythick.thickness import delta_n

    best = (float("inf"), 0)
    for _ in range(5):
        trim(0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        delta_n(p)
        elapsed = time.perf_counter() - start
        best = min(best, (elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
    return best


def _report_sequence(trim, inputs: dict, rounds: int = 24) -> None:
    """Print the median delta_n time and minor faults of each case of the
    report-large op sequence, over rounds of trefoil, regular and random."""
    import numpy as np
    from polythick.polygon import random_equilateral_polygon
    from polythick.thickness import delta_n

    cases = {"trefoil": inputs["report-large-trefoil/2048"],
             "regular": inputs["regular/2048"],
             "random-00": random_equilateral_polygon(2048, np.random.default_rng(0))}
    samples = {name: [] for name in cases}
    for _ in range(rounds):
        for name, p in cases.items():
            trim(0)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            delta_n(p)
            elapsed = time.perf_counter() - start
            samples[name].append(
                (elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
    for name, runs in samples.items():
        seconds, faults = np.median(runs, axis=0)
        print(f"sequence {name}\t{seconds * 1e3:.1f} ms\t{faults:.0f} faults", flush=True)


def _families_pairs(p) -> tuple[int, str]:
    """Pairs the pruned scan of delta_n (singly mode) hands to _families,
    and the round that took them."""
    import pytest
    from polythick import thickness
    from test_thickness import _families_rows

    covering, perpendicular = [], thickness._perpendicular

    def recording(*args):
        covering.append(True)
        return perpendicular(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thickness, "_perpendicular", recording)
        pairs = sum(I.size for I in _families_rows(p, singly=True))
    return pairs, "covering" if covering else "ring"


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="JSON file to write")
    ap.add_argument("--checkout", type=Path, default=here,
                    help="repository whose src/ to import (default: this one)")
    ap.add_argument("--faults", action="store_true",
                    help="print best-of-5 delta_n time, minor faults, scanned pairs "
                         "and the round per input, then the report-large sequence")
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(here / "tests")]
    trim = ctypes.CDLL("libc.so.6").malloc_trim if args.faults else None

    results, inputs = {}, dict(_inputs())
    for name, p in inputs.items():
        results[name] = _outputs(p)
        if trim is not None:
            seconds, faults = _best_delta_n(p, trim)
            pairs, round_ = _families_pairs(p)
            print(f"{name}\t{seconds * 1e3:.1f} ms\t{faults} faults"
                  f"\t{pairs} pairs\t{round_}", flush=True)
    results["campaigns"] = _campaigns()
    if trim is not None:
        _report_sequence(trim, inputs)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
