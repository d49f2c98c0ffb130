"""Self-test of the benchmark harness; not part of the tier-1 suite.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for a single round, plain and traced
(about two minutes in all), and checks that

- every end-to-end and per-layer metric BENCHMARK.json names is emitted,
  with its unit, and no other;
- every op passes its checks, and a deliberately corrupted reference is
  reported as a failed op (failed_frac > 0);
- after a traced run every rebound name holds its original object again.

Exit status 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import run


def _metric_problems(label: str, metrics: dict, spec: list) -> list[str]:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    problems = [f"{label}: {name} missing" for name in want.keys() - got.keys()]
    problems += [f"{label}: {name} not in BENCHMARK.json" for name in got.keys() - want.keys()]
    problems += [f"{label}: {name} has unit {got[name]!r}, not {unit!r}"
                 for name, unit in want.items() if name in got and got[name] != unit]
    problems += [f"{label}: {name} = {m['value']!r} is not a finite number"
                 for name, m in metrics.items()
                 if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    return problems


def main() -> int:
    program = run.load_program()
    import spans
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    refs = json.loads(run.REFS.read_text())
    originals = spans.bindings()
    problems = []

    for wl in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            label = f"{wl['name']} trace={int(trace)}"
            rec = run.run_workload(wl["name"], 0, 0, trace, program, refs)
            print(f"{label}: {rec['attempted']} ops, {rec['failed']} failed", flush=True)
            problems += _metric_problems(label, rec["metrics"], spec[key])
            problems += [f"{label}: {op['case']}: {p}" for op in rec["ops"]
                         for p in op["problems"]]

    problems += [f"{mod.__name__}.{attr} still wrapped after a traced run"
                 for mod, attr, obj in originals if getattr(mod, attr) is not obj]

    corrupted = copy.deepcopy(refs)
    for case in corrupted["campaign-schur"]["cases"].values():
        case["min_margin"] *= 1.0 + 1e-6
    rec = run.run_workload("campaign-schur", 0, 0, False, program, corrupted)
    print(f"corrupted reference: {rec['failed']}/{rec['attempted']} ops failed")
    if not rec["failed"] or rec["correct"]:
        problems.append("a corrupted reference was not reported as a failed op")

    for p in problems:
        print("PROBLEM", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
