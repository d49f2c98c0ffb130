"""Experiment drivers: convergence sweeps, closed-form tables, campaigns.

Each driver returns plain data (dataclasses or tuples) and leaves printing
and file output to the CLI.  Everything runs serially in the calling
thread; sweep rows come back in ascending n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polygon import regular_ngon
from .schur import random_bounded_arc, schur_check, sphere_exclusion_check
from .smooth import (ArcLengthCurve, inscribe_equilateral, rescale_unit,
                     smooth_thickness_proxy, w1inf_distance)
from .thickness import delta_n

__all__ = [
    "GammaRow",
    "gamma_series",
    "gamma_csv",
    "ngon_table",
    "ngon_csv",
    "SchurCampaignResult",
    "schur_campaign",
    "sphere_campaign",
]

# margins this small are recorded as degenerate rather than sign-tested;
# near K*L = pi both chords approach the diameter and the difference drowns
_DEGENERATE_MARGIN = 1e-10


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


# ---------------------------------------------------------------------------
# inscribed-polygon convergence sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaRow:
    """One resolution step of the inscribed-polygon convergence sweep.

    inv_delta and the pair quantities describe the polygon rescaled to unit
    length; pos_sup/deriv_sup compare the raw inscribed polygon (vertices on
    the curve) with the curve at equal parameters; proxy is the smooth
    curve's own inverse thickness estimate, the value the sequence should
    approach.  failed carries the reason when inscription broke down, with
    every numeric field set to nan.
    """

    n: int
    length_tilde: float
    inv_delta: float
    min_rad: float
    dcsd: float
    scsd: float
    binding: str
    pos_sup: float
    deriv_sup: float
    proxy: float
    failed: str | None = None


def _gamma_row(curve: ArcLengthCurve, n: int, proxy: float) -> GammaRow:
    nan = float("nan")
    try:
        inscribed = inscribe_equilateral(curve, n)
        pos_sup, deriv_sup = w1inf_distance(inscribed, curve,
                                            grid=max(4096, 10 * n))
        report = delta_n(rescale_unit(inscribed))
    except (ValueError, RuntimeError) as exc:
        return GammaRow(n=n, length_tilde=nan, inv_delta=nan, min_rad=nan,
                        dcsd=nan, scsd=nan, binding="", pos_sup=nan,
                        deriv_sup=nan, proxy=proxy, failed=str(exc))
    if not report.simple:
        return GammaRow(n=n, length_tilde=inscribed.length, inv_delta=nan,
                        min_rad=report.min_rad, dcsd=report.dcsd,
                        scsd=report.scsd, binding="", pos_sup=pos_sup,
                        deriv_sup=deriv_sup, proxy=proxy,
                        failed="inscribed polygon is not embedded")
    return GammaRow(n=n, length_tilde=inscribed.length,
                    inv_delta=report.inv_delta_n, min_rad=report.min_rad,
                    dcsd=report.dcsd, scsd=report.scsd,
                    binding=report.binding, pos_sup=pos_sup,
                    deriv_sup=deriv_sup, proxy=proxy)


def gamma_series(curve: ArcLengthCurve, n_list, m_proxy: int = 8192) -> list[GammaRow]:
    """Inscribe at every n, measure, and tabulate against the smooth proxy.

    Rows come back sorted by n.  A resolution that cannot be inscribed
    (chord bracket fails, marching diverges) yields a failed row and the
    sweep continues.
    """
    ns = sorted(set(int(n) for n in n_list))
    if not ns:
        return []
    proxy = 1.0 / smooth_thickness_proxy(curve, m_proxy)
    return [_gamma_row(curve, n, proxy) for n in ns]


_GAMMA_HEADER = ("n,length_tilde,inv_delta,min_rad,dcsd,scsd,binding,"
                 "pos_sup,deriv_sup,proxy,failed")


def gamma_csv(rows: list[GammaRow]) -> str:
    lines = [_GAMMA_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.n), _fmt(r.length_tilde), _fmt(r.inv_delta),
            _fmt(r.min_rad), _fmt(r.dcsd), _fmt(r.scsd), r.binding,
            _fmt(r.pos_sup), _fmt(r.deriv_sup), _fmt(r.proxy),
            r.failed or "",
        ]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# regular n-gon table
# ---------------------------------------------------------------------------


def ngon_table(n_min: int, n_max: int) -> list[tuple[int, float, float, float]]:
    """Rows (n, measured inverse thickness, 2n tan(pi/n), |difference|).

    The measured column runs the full pair machinery on the regular n-gon,
    not the closed form, so the difference column is an end-to-end check.
    """
    if not 3 <= n_min <= n_max:
        raise ValueError("need 3 <= n_min <= n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        measured = delta_n(regular_ngon(n)).inv_delta_n
        formula = 2.0 * n * math.tan(math.pi / n)
        rows.append((n, measured, formula, abs(measured - formula)))
    return rows


def ngon_csv(rows) -> str:
    lines = ["n,measured,closed_form,abs_diff"]
    for n, measured, formula, diff in rows:
        lines.append(f"{n},{measured:.17g},{formula:.17g},{diff:.17g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# randomized comparison campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchurCampaignResult:
    cases: int
    mode: str
    min_margin: float
    violations: int            # margin <= 0 among non-degenerate cases
    degenerate: int            # 0 < |margin| < 1e-10: sign not asserted
    margins: np.ndarray

    def summary(self) -> str:
        return (f"{self.mode}: {self.cases} cases, min margin "
                f"{self.min_margin:.6g}, {self.violations} violations, "
                f"{self.degenerate} degenerate")


def _campaign_case(mode: str, seed: int):
    """Draw one admissible (arc, K) pair; deterministic per seed.

    The budget on K*L is pi in strict mode and pi/2 for the sphere check.
    For an equilateral n-edge arc the relaxed budget K*L <= pi + K*L/n
    rearranges to K*L <= pi*n/(n-1).  The draw stays 2% below the budget
    so feasibility never rides on rounding.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    K = float(rng.uniform(0.2, 5.0))
    if mode == "strict":
        budget = math.pi
    elif mode == "relaxed":
        budget = math.pi * n / (n - 1)
    else:
        budget = 0.5 * math.pi
    L = float(rng.uniform(0.1, 0.98 * budget)) / K
    arc = random_bounded_arc(n, K, L, seed=seed)
    return arc, K


def _campaign(cases: int, seed: int, mode: str, margin) -> SchurCampaignResult:
    """Margins margin(arc, K, k) of cases k = 0..cases-1, case k drawn with
    seed + k, and their tally."""
    if cases < 1:
        raise ValueError("cases must be at least 1")
    margins = np.empty(cases)
    for k in range(cases):
        arc, K = _campaign_case(mode, seed + k)
        margins[k] = margin(arc, K, k)
    tiny = np.abs(margins) < _DEGENERATE_MARGIN
    violations = int(np.count_nonzero((margins <= 0.0) & ~tiny))
    return SchurCampaignResult(cases=cases, mode=mode,
                               min_margin=float(margins.min()),
                               violations=violations,
                               degenerate=int(np.count_nonzero(tiny)),
                               margins=margins)


def schur_campaign(cases: int, seed: int, mode: str = "strict") -> SchurCampaignResult:
    """Run chord comparisons on random admissible arcs and count violations.

    Case k uses seed + k, so campaigns are reproducible and shardable.  In
    relaxed mode the length budget exceeds pi only within the end-edge
    allowance checked by schur_check itself.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")
    return _campaign(cases, seed, mode,
                     lambda arc, K, k: schur_check(arc, K, mode=mode).margin)


def sphere_campaign(cases: int, seed: int) -> SchurCampaignResult:
    """Tangent-sphere exclusion on random admissible arcs (K*L <= pi/2).

    The margin of a case is the smallest signed vertex distance to the
    sphere; the anchor inequality is enforced here with a hard check since
    it must hold within 1e-12 per case.
    """
    def margin(arc, K, k):
        report = sphere_exclusion_check(arc, K)
        gap = report.anchor_lhs - report.anchor_rhs
        if np.any(gap < -1e-12):
            raise RuntimeError(
                f"anchor inequality failed by {float(gap.min()):.3e} "
                f"at case {k} (seed {seed + k})"
            )
        return report.min_distance

    return _campaign(cases, seed, "sphere", margin)
