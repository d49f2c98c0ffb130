"""polythick benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
src/ directory.  The load is a closed loop with one client in one process:
rounds of ops go through `polythick.cli.main(argv)` in process, the next op
starting when the previous one returns, until S seconds have passed (always
at least one whole round).  Every op's output is checked against refs.json.

--trace 0 reports the end-to-end metrics: work_per_s (reports, sweeps,
proposals or campaign cases per second of op time, median over rounds),
setup_s (median of three set-ups, each a package import in a fresh
interpreter plus a complete build of the input files) and peak_rss_mb.
Both times are in seconds of a reference host: the host-speed probe of
hostspeed.py runs before the first op and after every op and set-up, and
each op's or set-up's wall time is divided by how much slower than the
reference the host ran around it.  The raw figures are printed and
recorded beside them.  --trace 1 runs every op twice, plain and then with
the layer wrappers of spans.py installed, and reports per-layer self time,
calls and errors, outcome ratios and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (environment, every op,
every probe, every metric) goes to perfbench/out/, spans of a traced run
beside it.  Exit status: 0 when every op passed its checks, 1 when some op
failed, 2 when the program cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFS = HERE / "refs.json"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3


def _heap_trimmer():
    """glibc's malloc_trim, or None where the C library has no such call.

    Freed heap pages stay resident, so without a trim between ops peak RSS
    grows with the fragmentation earlier ops left behind.  Trimming before
    each op starts it from a heap like a fresh CLI process has, and peak
    RSS becomes the largest working set of one op.
    """
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


def load_program() -> dict:
    """Pin BLAS threads, then import the package from ROOT/src; returns
    the import time and the heap trimmer run_op uses.

    Raises ImportError when the package is missing or would come from
    anywhere other than this checkout.
    """
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed: the program pays for it at start-up)
    import scipy  # noqa: F401
    import polythick
    seconds = time.perf_counter() - t0
    if Path(polythick.__file__).resolve().parent.parent != src:
        raise ImportError(f"polythick imported from {polythick.__file__}, not {src}")
    return {"import_s": seconds, "trim": _heap_trimmer()}


def _child_import_seconds() -> float:
    """Import time of the package in a fresh interpreter, as a CLI user pays
    it; a process can import numpy only once, so set-up repeats it here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = ("import time; t = time.perf_counter(); import numpy, scipy, polythick; "
             "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, program: dict) -> dict:
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    blas = {var: os.environ.get(var) for var in BLAS_VARS}
    workers = os.environ.get("POLYTHICK_WORKERS")
    flags = [f"{var}={val} exceeds nproc={nproc}" for var, val in blas.items()
             if val is not None and val.isdigit() and int(val) > nproc]
    if workers is not None:
        flags.append(f"POLYTHICK_WORKERS is set ({workers})")
    return {"workload": workload, "seed": seed, "git_sha": _git_sha(),
            "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas, "polythick_workers": workers,
            "heap_trim_between_ops": program["trim"] is not None, "flags": flags}


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_op(wl, case: str, indir: Path, outdir: Path, ref: dict,
           recorder=None, op_id: int = -1):
    """One CLI call, timed and checked; never raises for a program fault.

    Returns (record, observed outputs or None).
    """
    _fresh(outdir)
    argv = wl.argv(case, indir, outdir)
    out, err = io.StringIO(), io.StringIO()
    problems, obs = [], None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if recorder is None:
                rc = importlib.import_module("polythick.cli").main(argv)
            else:
                with recorder.installed(op_id):
                    rc = importlib.import_module("polythick.cli").main(argv)
    except Exception:
        rc = None
        problems.append("raised: " + traceback.format_exc(limit=-3))
    wall = time.perf_counter() - t0
    if rc not in (0, None):
        problems.append(f"exit status {rc}: {err.getvalue().strip()[-300:]}")
    if not problems:
        try:
            obs = wl.observe(case, outdir, out.getvalue(), err.getvalue())
            problems += wl.check(case, obs, ref)
        except Exception:
            problems.append("output check raised: " + traceback.format_exc(limit=-3))
    record = {"case": case, "traced": recorder is not None, "wall_s": wall,
              "work": wl.work(obs) if obs is not None else 0,
              # anneal ops only: the acceptance count read from the trace CSV
              "accepted": obs.get("accepted", 0) if obs is not None else 0,
              "proposals": obs.get("proposals", 0) if obs is not None else 0,
              "problems": problems}
    return record, obs


def end_to_end(ops, setup_s: float) -> tuple[dict, dict]:
    """work_per_s is the median over rounds of work done over op time, in
    seconds of the reference host.  Returns the metrics and the unscaled
    median."""
    rounds = {}
    for op in ops:
        work, wall, ref = rounds.get(op["round"], (0, 0.0, 0.0))
        rounds[op["round"]] = (work + op["work"], wall + op["wall_s"],
                               ref + op["wall_s"] / op["slowdown"])
    rate = statistics.median(work / ref for work, _, ref in rounds.values())
    raw_rate = statistics.median(work / wall for work, wall, _ in rounds.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {"work_per_s": {"value": rate, "unit": "1/s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    return metrics, {"work_per_s": raw_rate}


def per_layer(recorder, plain_ops, traced_ops) -> dict:
    import spans
    stats = recorder.layer_stats()
    values = {}
    for layer, st in stats.items():
        for stat in ("s", "calls", "errors"):
            values[f"{layer}.{stat}"] = st[stat]
    for layer, (ratio, _) in spans.OUTCOMES.items():
        calls = stats[layer]["calls"]
        values[ratio] = recorder.useful[layer] / calls if calls else 0.0
    proposals = sum(op["proposals"] for op in traced_ops)
    accepted = sum(op["accepted"] for op in traced_ops)
    values["anneal.accept_ratio"] = accepted / proposals if proposals else 0.0
    # every traced op is one top-level cli.main span, so the layers' self
    # times add up to the traced wall time of the ops; set against the same
    # ops run plain, the difference is what tracing cost
    traced = sum(st["s"] for st in stats.values())
    plain = sum(op["wall_s"] for op in plain_ops)
    values["trace.overhead_frac"] = traced / plain - 1.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in spans.metric_names()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 program: dict, refs: dict) -> dict:
    """Set up, loop rounds for `seconds`, check every op; returns the record."""
    import hostspeed
    import spans
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    ref = refs[name]
    workdir = OUT / f"work-{name}"
    indir, outdir = workdir / "in", workdir / "op"

    # one set-up: a fresh import plus a complete build of the input files;
    # each is scaled by the host speed the probes on either side of it saw
    setups, setup_probes = [], [hostspeed.probe()]
    for _ in range(SETUP_REPS):
        _fresh(indir)
        t0 = time.perf_counter()
        wl.setup(indir)
        setups.append(time.perf_counter() - t0 + _child_import_seconds())
        setup_probes.append(hostspeed.probe())
    setup_s = statistics.median(
        s / hostspeed.slowdown(setup_probes[k], setup_probes[k + 1])
        for k, s in enumerate(setups))

    recorder = spans.Recorder() if trace else None
    ops = []
    probes = [hostspeed.probe()]
    t_start = time.perf_counter()
    for k, rnd in enumerate(wl.rounds(seed)):
        for case in rnd:
            # a traced run times each op plain and traced, alternating which
            # goes first so that warm-up does not bias the overhead
            modes = [None, recorder] if trace else [None]
            for rec in (modes if k % 2 == 0 else modes[::-1]):
                if program["trim"] is not None:
                    program["trim"](0)
                op = run_op(wl, case, indir, outdir, ref, rec, len(ops))[0]
                probes.append(hostspeed.probe())
                ops.append({"round": k, **op,
                            "slowdown": hostspeed.slowdown(probes[-2], probes[-1])})
        if time.perf_counter() - t_start >= seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    failed = sum(1 for op in ops if op["problems"])
    if trace:
        metrics, raw = per_layer(recorder, plain, traced), {}
    else:
        metrics, raw = end_to_end(plain, setup_s)
        raw["setup_s"] = statistics.median(setups)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics, "raw": raw, "env": environment(name, seed, program),
            "setups_s": setups, "setup_probes_s": setup_probes, "probes_s": probes,
            "probe_ref_s": hostspeed.REF_S, "import_s": program["import_s"],
            "ops": ops, "recorder": recorder}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program = load_program()
    except ImportError as exc:
        print(f"cannot import polythick from this checkout: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports polythick, so only after load_program
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    refs = json.loads(REFS.read_text())

    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       program, refs)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-trace{args.trace}"
    if rec["recorder"] is not None:
        rec["recorder"].write_csv(stem.with_suffix(".spans.csv"))
    record = {k: v for k, v in rec.items() if k != "recorder"}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(rec["env"]))
    for op in rec["ops"]:
        for problem in op["problems"]:
            print(f"FAILED {op['case']}: {problem}", file=sys.stderr)
    print(f"failed_frac {rec['failed'] / rec['attempted']:.6g} "
          f"({rec['failed']}/{rec['attempted']} ops)")
    for name, m in rec["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in rec["raw"].items():
        print(f"unscaled {name} {value:.6g} (host probe median "
              f"{statistics.median(rec['probes_s']):.4g} s, reference {rec['probe_ref_s']} s)")
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
