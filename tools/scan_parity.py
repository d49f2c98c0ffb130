"""Record the pair scan's outputs on a fixed set of polygons, for parity checks.

For every input the JSON file holds delta_n(p).to_json() and the float.hex()
of dcsd, scsd and inv_delta_objective at clearances 1e-6 L and 1e-12 L.  For
the inputs with n <= 512 it also holds critical_pairs(p, mode) in both modes,
one line per pair with s, t and the distance as float.hex().  For those with
n <= 1280, every input but the 2048- and 4096-gons, it holds the
move_is_admissible verdicts of a fixed list of crankshaft moves, as a string
of 0s and 1s, at the default clearance and at a quarter edge, which refuses
some of them.  Under "campaigns" it holds the margins, as float.hex(), of a
250-case strict and a relaxed Schur campaign and a sphere campaign, and of
an 1100-case sphere campaign, whose stack crosses a chunk boundary.  Under
"anneal" it holds three short annealing chains on the schedule of the
benchmark's anneal-octagon workload (20 proposals per temperature, cooling
0.8, t_min 1e-3): that workload's octagon start 0 with seed 0,
tests/data/crumpled10.txt with seed 3 and a random 24-gon with seed 24.
For each it records the proposals, the accepted moves, the best objective
as float.hex() and, for every trace column and the best vertices, a
sha256 digest of their float.hex() strings.  Run it once per checkout and
compare the files byte for byte; a change that keeps the scan's
arithmetic, the sweep check's verdicts, the campaigns' draws and the
annealer's chains must leave them equal:

    python tools/scan_parity.py change.json
    python tools/scan_parity.py parent.json --checkout ../parent
    cmp parent.json change.json

A change that moves its inputs by design, as a new curve table moves the
inscribed polygons, cannot be checked with cmp.  Then

    python tools/scan_parity.py --compare parent.json change.json

prints, one tab-separated line each, every value that differs: its input,
its key, both values and their relative change |b - a| / |a|, or - for a
verdict, a kind or an index.  A key names a report field as delta_n.dcsd,
a list item as strict/0[17], and a pair's s, t or distance by the pair,
as critical_pairs_singly[edge-edge singly 3 67 #1].distance, so pairs
that swap places in the list still compare.  The output ends with the
largest relative change of each key, list items taken together, and the
input where it is, and exits 1; it prints identical and exits 0 when
nothing differs.

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
the number of pairs delta_n's pruned scan hands to _families, the
number of _families calls that take them, the candidates delta_n's
collector gathered (every accepted one, where it keeps them all, else
those near the running minimum), the pairs its ring round's
one-tree queries returned and the leaf pairs of its descent, the window
pairs its covering round's perpendicularity filter formed, the round it
ran ("covering" when it called _perpendicular, which only the covering
round does, "ring" otherwise) and, when the ring took the descent, the
node pairs that survived each level as width:kept/tested, and last the
edge pairs is_simple measured and the kernel calls it took them in, all
counted by the tests' wrappers.  It then runs the op sequence of the
benchmark's report-large workload, delta_n of the trefoil, the regular
and a random 2048-gon in turn, each after malloc_trim, for 24 rounds,
and prints each case's median time and minor faults.  Per-block arrays
that glibc hands back to the OS are faulted in afresh on every block, and
the order of the ops decides which ones it keeps, so a regression of the
allocator shows there first; run it also with
MALLOC_TRIM_THRESHOLD_=131072, which keeps fewer.

The lines are tab-separated.  The time and fault columns, the second and
third of each line, vary from run to run (fault counts are often bimodal,
as glibc keeps or returns a block); every later column is a count of the
scan's own work or its round, the same on every run of one library, so
two checkouts' --faults outputs compare as

    diff <(cut -f1,4- parent.txt) <(cut -f1,4- change.txt)

which leaves the report-large sequence lines with their names only.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import re
import resource
import sys
import time
from collections import Counter
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
    if n <= 1280:
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
            "sphere/500": sphere_campaign(250, 500),
            "sphere/1000": sphere_campaign(1100, 1000)}
    return {name: [m.hex() for m in res.margins.tolist()] for name, res in runs.items()}


def _anneals() -> dict:
    """Counts, best objective and float.hex() digests of three chains."""
    import hashlib

    import numpy as np
    from _gen import perturbed_regular
    from polythick.anneal import AnnealConfig, anneal
    from polythick.polygon import random_equilateral_polygon, read_polygon

    data = Path(__file__).resolve().parents[1] / "tests" / "data"
    chains = {"octagon-00/0": (perturbed_regular(8, 0.18, np.random.default_rng(0)), 0),
              "crumpled10/3": (read_polygon(data / "crumpled10.txt"), 3),
              "random-24/24": (random_equilateral_polygon(24, np.random.default_rng(24)), 24)}
    out = {}
    for name, (p0, seed) in chains.items():
        _, trace = anneal(p0, AnnealConfig(seed=seed, steps_per_temp=20, cooling=0.8,
                                           t_min=1e-3))
        out[f"{name}.proposals"] = len(trace)
        out[f"{name}.accepts"] = int(trace.accepted.sum())
        out[f"{name}.best"] = float(trace.best_objective[-1]).hex()
        for col in ("step", "temperature", "objective", "accepted", "i", "j", "theta",
                    "best_objective", "best_vertices"):
            text = " ".join(float(x).hex() for x in getattr(trace, col).ravel())
            out[f"{name}.{col}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


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


def _scan_pairs(p) -> dict:
    """What the pruned scan of delta_n (singly mode) does on p: the pairs it
    hands to _families, the calls of _families that take them, the
    candidates delta_n's collector gathered, the pairs
    its one-tree queries return, the leaf pairs of its ring descent, the
    window pairs its covering round's filter forms, the round it takes,
    "covering" when it called _perpendicular, which only the covering
    round does, "ring" otherwise, the descent's levels as (run width,
    node pairs tested, node pairs kept), and the edge pairs is_simple
    measures and its kernel calls."""
    from test_thickness import (_delta_n_collector, _descent_levels, _families_rows,
                                _gap_calls, _gathered, _tree_queries, _window_pairs)

    calls, levels = _families_rows(p, True), _descent_levels(p, True)
    window, gaps = _window_pairs(p, True), _gap_calls(p)
    return {"pairs": sum(I.size for I in calls), "calls": len(calls),
            "simple": f"{sum(I.size for I, _ in gaps)}/{len(gaps)}",
            "kept": _gathered(_delta_n_collector(p)),
            "tree": sum(size for _, size in _tree_queries(p, True)),
            "leaf": sum(kept for w, _, kept in levels if w == 1),
            "window": sum(window or []), "round": "ring" if window is None else "covering",
            "levels": levels}


# the columns of a critical_pairs line, as _outputs writes it
_PAIR_COLUMNS = ("s", "t", "distance", "kind", "criticality", "i", "j")


def _leaves(key: str, value):
    """(key, value) of each scalar in one recorded output: a delta_n
    report's fields, a list's length and items, and a pair line's s, t and
    distance.  A pair is named by its kind, criticality and edges, and two
    of one name by their order in s, not by their places in the list,
    which ties broken the other way change."""
    if key == "delta_n":
        for field, v in json.loads(value).items():
            yield f"delta_n.{field}", v
    elif isinstance(value, list):
        yield f"{key}.length", len(value)
        rows = [item.split() for item in value]
        if rows and len(rows[0]) == len(_PAIR_COLUMNS):
            seen = Counter()
            for cols in sorted(rows, key=lambda c: (c[3:], float.fromhex(c[0]))):
                pair = " ".join(cols[3:])
                seen[pair] += 1
                for col, v in zip(_PAIR_COLUMNS[:3], cols):
                    yield f"{key}[{pair} #{seen[pair]}].{col}", v
        else:
            yield from ((f"{key}[{k}]", item) for k, item in enumerate(value))
    else:
        yield key, value


def _number(value):
    """A recorded float (float.hex or a JSON number) as a float, else None."""
    if isinstance(value, str) and ("0x" in value or value in ("inf", "-inf", "nan")):
        return float.fromhex(value)
    if isinstance(value, float):
        return value
    return None


def _relative(x, y) -> str:
    """|y - x| / |x| of two recorded values, or - when either is no float."""
    x, y = _number(x), _number(y)
    if x is None or y is None:
        return "-"
    return format(abs(y - x) / abs(x) if x else math.inf, ".3g")


def compare(path_a: Path, path_b: Path) -> int:
    """Print every value that differs between two parity files, then the
    largest relative change per key; 0 when they are identical, else 1."""
    a, b = (json.loads(path.read_text()) for path in (path_a, path_b))
    largest, differs = {}, False
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{name}\tonly in {path_a if name in a else path_b}")
            differs = True
            continue
        leaves_a, leaves_b = (dict(leaf for key in sorted(side[name])
                                   for leaf in _leaves(key, side[name][key]))
                              for side in (a, b))
        for key in sorted(leaves_a.keys() | leaves_b.keys()):
            va, vb = leaves_a.get(key), leaves_b.get(key)
            if repr(va) == repr(vb):
                continue
            rel = _relative(va, vb)
            shown = [repr(_number(v)) if _number(v) is not None else v for v in (va, vb)]
            print(f"{name}\t{key}\t{shown[0]}\t{shown[1]}\t{rel}")
            differs = True
            group = re.sub(r"\[[^]]*\]", "[]", key)
            rank = -1.0 if rel == "-" else float(rel)
            if group not in largest or rank > largest[group][0]:
                largest[group] = (rank, rel, name)
    if not differs:
        print("identical")
        return 0
    for group, (_, rel, name) in sorted(largest.items()):
        print(f"largest\t{group}\t{rel}\t{name}")
    return 1


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, nargs="?", help="JSON file to write")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                    help="print every value that differs between parity files A and B")
    ap.add_argument("--checkout", type=Path, default=here,
                    help="repository whose src/ to import (default: this one)")
    ap.add_argument("--faults", action="store_true",
                    help="print best-of-5 delta_n time, minor faults, scanned pairs, "
                         "kernel calls, kept candidates, tree, leaf and window pairs, the "
                         "round, the descent's levels and is_simple's pairs/kernel calls "
                         "per input, then the report-large sequence")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        ap.error("name the JSON file to write, or --compare two of them")
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(here / "tests")]
    trim = ctypes.CDLL("libc.so.6").malloc_trim if args.faults else None

    results, inputs = {}, dict(_inputs())
    for name, p in inputs.items():
        results[name] = _outputs(p)
        if trim is not None:
            seconds, faults = _best_delta_n(p, trim)
            c = _scan_pairs(p)
            levels = " ".join(f"{w}:{kept}/{tested}" for w, tested, kept in c["levels"])
            print(f"{name}\t{seconds * 1e3:.1f} ms\t{faults} faults"
                  f"\t{c['pairs']} pairs\t{c['calls']} kernel calls\t{c['kept']} kept"
                  f"\t{c['tree']} tree pairs"
                  f"\t{c['leaf']} leaf pairs\t{c['window']} window pairs\t{c['round']}"
                  f"\t{levels or '-'}\t{c['simple']} is_simple pairs/calls", flush=True)
    results["campaigns"] = _campaigns()
    results["anneal"] = _anneals()
    if trim is not None:
        _report_sequence(trim, inputs)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
