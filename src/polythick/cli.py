"""Command-line surface.

Exit codes: 0 success, 1 input error (bad flags, unreadable or malformed
files), 2 numerical failure (marching or annealing broke down).  Subcommand
output goes to stdout; --out flags write the same bytes to a file instead.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .anneal import AnnealConfig, anneal
from .experiments import (gamma_csv, gamma_series, ngon_csv, ngon_table,
                          schur_campaign)
from .polygon import dumps_polygon, read_polygon, write_polygon
from .smooth import inscribe_equilateral, preset_curve, read_curve, rescale_unit
from .thickness import delta_n

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_curve(spec: str, m: int):
    """A --curve value is a preset name unless it points at a readable file."""
    try:
        with open(spec):
            pass
    except OSError:
        return preset_curve(spec, m)
    return read_curve(spec)


def _cmd_thickness(args) -> int:
    report = delta_n(read_polygon(args.polygon))
    _emit(report.to_json() + "\n", args.out)
    return 0


def _cmd_inscribe(args) -> int:
    curve = _load_curve(args.curve, args.m)
    p = inscribe_equilateral(curve, args.n)
    if args.rescale:
        p = rescale_unit(p)
    if args.out is None:
        sys.stdout.write(dumps_polygon(p))
    else:
        write_polygon(p, args.out)
    return 0


def _cmd_gamma(args) -> int:
    try:
        ns = [int(s) for s in args.ns.split(",") if s]
    except ValueError:
        raise ValueError(f"--ns must be comma-separated integers, got {args.ns!r}")
    if not ns:
        raise ValueError("--ns must name at least one resolution")
    curve = _load_curve(args.curve, args.m)
    rows = gamma_series(curve, ns, m_proxy=args.m_proxy)
    _emit(gamma_csv(rows), args.out)
    return 0


def _cmd_ngon_table(args) -> int:
    _emit(ngon_csv(ngon_table(args.min, args.max)), args.out)
    return 0


def _cmd_schur(args) -> int:
    result = schur_campaign(args.cases, seed=args.seed, mode=args.mode)
    print(result.summary())
    if args.out is not None:
        lines = ["case,margin"]
        lines += [f"{k},{m:.17g}" for k, m in enumerate(result.margins)]
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if result.violations:
        raise RuntimeError(f"{result.violations} sign violations")
    return 0


def _cmd_anneal(args) -> int:
    p0 = read_polygon(args.input)
    cfg = AnnealConfig(t0=args.t0, cooling=args.cool,
                       steps_per_temp=args.steps, t_min=args.t_min,
                       seed=args.seed)
    best, trace = anneal(p0, cfg)
    if args.trace is not None:
        trace.to_csv(args.trace)
    report = delta_n(best)
    if args.out is None:
        sys.stdout.write(dumps_polygon(best))
    else:
        write_polygon(best, args.out,
                      comment=f"annealed, 1/delta_n = {report.inv_delta_n:.17g}")
    print(f"proposals: {len(trace)}  best 1/delta_n: {report.inv_delta_n:.17g}",
          file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="polythick",
        description="Discrete thickness of equilateral polygons: reports, "
                    "inscribed approximations, convergence sweeps, chord "
                    "comparison campaigns, annealing.")
    sub = top.add_subparsers(dest="command", required=True)

    q = sub.add_parser("thickness", help="full thickness report as JSON")
    q.add_argument("polygon", help="polygon text file (one vertex per line)")
    q.add_argument("--out", default=None, help="write JSON here instead of stdout")
    q.set_defaults(func=_cmd_thickness)

    q = sub.add_parser("inscribe",
                       help="equilateral polygon with vertices on a curve")
    q.add_argument("--curve", required=True,
                   help="preset ('circle', 'torus:a,b[,R,rho]') or curve file")
    q.add_argument("--n", type=int, required=True, help="number of edges")
    q.add_argument("--m", type=int, default=4096, help="curve table resolution")
    q.add_argument("--rescale", action="store_true",
                   help="rescale the result to total length 1")
    q.add_argument("--out", default=None, help="write polygon here")
    q.set_defaults(func=_cmd_inscribe)

    q = sub.add_parser("gamma", help="inscribed-polygon convergence sweep (CSV)")
    q.add_argument("--curve", required=True,
                   help="preset ('circle', 'torus:a,b[,R,rho]') or curve file")
    q.add_argument("--ns", required=True, help="comma-separated resolutions")
    q.add_argument("--m", type=int, default=4096, help="curve table resolution")
    q.add_argument("--m-proxy", type=int, default=8192,
                   help="inscription resolution for the smooth reference value")
    q.add_argument("--out", default=None, help="write CSV here")
    q.set_defaults(func=_cmd_gamma)

    q = sub.add_parser("ngon-table",
                       help="measured vs closed-form regular n-gon values (CSV)")
    q.add_argument("--min", type=int, default=3)
    q.add_argument("--max", type=int, default=12)
    q.add_argument("--out", default=None, help="write CSV here")
    q.set_defaults(func=_cmd_ngon_table)

    q = sub.add_parser("schur-campaign",
                       help="randomized chord comparison campaign")
    q.add_argument("--cases", type=int, default=10000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--mode", choices=("strict", "relaxed"), default="strict")
    q.add_argument("--out", default=None, help="write per-case margins CSV here")
    q.set_defaults(func=_cmd_schur)

    q = sub.add_parser("anneal", help="minimize 1/delta_n by crankshaft moves")
    q.add_argument("--input", required=True, help="starting polygon file")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--t0", type=float, default=None,
                   help="initial temperature (default: half the start objective)")
    q.add_argument("--cool", type=float, default=0.95, help="cooling factor")
    q.add_argument("--steps", type=int, default=200, help="proposals per temperature")
    q.add_argument("--t-min", type=float, default=1e-4, help="stop temperature")
    q.add_argument("--out", default=None, help="write the best polygon here")
    q.add_argument("--trace", default=None, help="write the proposal log CSV here")
    q.set_defaults(func=_cmd_anneal)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems; usage
        # problems are input errors under this tool's exit-code contract
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
