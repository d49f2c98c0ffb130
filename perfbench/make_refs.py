"""Freeze the reference outputs the benchmark checks every op against.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every case of each named workload (default: all) once through the CLI
and writes its observed outputs, with the tolerance each check uses, to
perfbench/refs.json.  Invariant checks (closed forms, equilateral, simple,
no violations) must already pass.  Regenerate only when an output is meant
to change, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# float_rel: relative tolerance of every frozen float (0 = bitwise);
# the others belong to the invariant checks in workloads.py
TOLERANCE = {
    "report-large": {"float_rel": 1e-9, "closed_form_abs": 1e-8},
    "sweep-trefoil": {"float_rel": 1e-9},
    "anneal-octagon": {"float_rel": 1e-9, "equilateral_rel": 1e-9, "bound_abs": 1e-9},
    "campaign-schur": {"float_rel": 0.0},
}


def main(names) -> int:
    run.load_program()
    from workloads import WORKLOADS
    refs = json.loads(run.REFS.read_text()) if run.REFS.exists() else {}
    workdir = run.OUT / "refs"
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        indir, outdir = run._fresh(workdir / "in"), workdir / "op"
        wl.setup(indir)
        ref = {"tolerance": TOLERANCE[name], "cases": {}}
        for case in wl.cases():
            ref["cases"][case] = {}
            record, obs = run.run_op(wl, case, indir, outdir, ref)
            if record["problems"]:
                print(f"{name} {case}: {record['problems']}", file=sys.stderr)
                return 1
            ref["cases"][case] = {k: v for k, v in obs.items() if k not in wl.unfrozen}
            print(f"{name} {case} {record['wall_s']:.3f}s", flush=True)
        refs[name] = ref
    shutil.rmtree(workdir, ignore_errors=True)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
