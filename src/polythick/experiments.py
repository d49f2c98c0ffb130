"""Experiment drivers: convergence sweeps, closed-form tables, campaigns.

Each driver returns plain data (dataclasses or tuples) and leaves printing
and file output to the CLI; gamma_csv and ngon_csv lay rows out with
polygon._format_table.  Everything runs serially in the calling thread;
sweep rows come back in ascending n.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .polygon import PolyArc, _format_table, regular_ngon
from .schur import _bounded_arcs, _chord_check, sphere_exclusion_check
# not called here; kept as module attributes that perfbench/spans.py rebinds
from .schur import random_bounded_arc, schur_check  # noqa: F401
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
# campaign cases drawn and measured as one stack; bounds a campaign's memory
_CHUNK = 1024


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
    row = GammaRow(n=n, length_tilde=nan, inv_delta=nan, min_rad=nan, dcsd=nan,
                   scsd=nan, binding="", pos_sup=nan, deriv_sup=nan, proxy=proxy)
    try:
        inscribed = inscribe_equilateral(curve, n)
        pos_sup, deriv_sup = w1inf_distance(inscribed, curve,
                                            grid=max(4096, 10 * n))
        report = delta_n(rescale_unit(inscribed))
    except ValueError as exc:
        return replace(row, failed=str(exc))
    row = replace(row, length_tilde=inscribed.length, min_rad=report.min_rad,
                  dcsd=report.dcsd, scsd=report.scsd, pos_sup=pos_sup,
                  deriv_sup=deriv_sup)
    if not report.simple:
        return replace(row, failed="inscribed polygon is not embedded")
    return replace(row, inv_delta=report.inv_delta_n, binding=report.binding)


def gamma_series(curve: ArcLengthCurve, n_list, m_proxy: int = 8192) -> list[GammaRow]:
    """Inscribe at every n, measure, and tabulate against the smooth proxy.

    Rows come back sorted by n.  A resolution that cannot be inscribed
    (inscribe_equilateral raises ValueError under its failure rule) yields
    a failed row and the sweep continues.
    """
    ns = sorted(set(int(n) for n in n_list))
    if not ns:
        return []
    proxy = 1.0 / smooth_thickness_proxy(curve, m_proxy)
    return [_gamma_row(curve, n, proxy) for n in ns]


def gamma_csv(rows: list[GammaRow]) -> str:
    return _format_table([f.name for f in fields(GammaRow)], map(astuple, rows))


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
    return _format_table(("n", "measured", "closed_form", "abs_diff"), rows)


# ---------------------------------------------------------------------------
# randomized comparison campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchurCampaignResult:
    cases: int
    mode: str
    min_margin: float
    min_case: int              # index k of min_margin; the case's seed is seed + k
    violations: int            # margin <= 0 among non-degenerate cases
    degenerate: int            # 0 < |margin| < 1e-10: sign not asserted
    margins: np.ndarray

    def summary(self) -> str:
        return (f"{self.mode}: {self.cases} cases, min margin "
                f"{self.min_margin:.6g} (case {self.min_case}), "
                f"{self.violations} violations, {self.degenerate} degenerate")


def _campaign_case(mode: str, seed: int):
    """Draw one admissible (n, K, L) and the uniforms of its arc.

    Deterministic per seed.  The budget on K*L is pi in strict mode and
    pi/2 for the sphere check.  For an equilateral n-edge arc the relaxed
    budget K*L <= pi + K*L/n rearranges to K*L <= pi*n/(n-1).  The draw
    stays 2% below the budget so feasibility never rides on rounding.  The
    uniforms restart the stream, as random_bounded_arc(n, K, L, seed) does
    with a generator of its own.
    """
    bits = np.random.PCG64(seed)       # default_rng(seed)'s bit generator
    start = bits.state
    rng = np.random.Generator(bits)
    n = int(rng.integers(2, 25))
    K = float(rng.uniform(0.2, 5.0))
    if mode == "strict":
        budget = math.pi
    elif mode == "relaxed":
        budget = math.pi * n / (n - 1)
    else:
        budget = 0.5 * math.pi
    L = float(rng.uniform(0.1, 0.98 * budget)) / K
    bits.state = start
    return n, K, L, rng.random(2 * n - 2)


def _campaign(cases: int, seed: int, mode: str, measure) -> SchurCampaignResult:
    """Margins of cases k = 0..cases-1, case k drawn with seed + k, and their
    tally.  Up to _CHUNK cases at a time are drawn as one stack of arcs, each
    random_bounded_arc(n, K, L, seed + k) bit for bit, and measure(V, n, K, k)
    returns their margins; V, n and K are laid out as for
    schur._check_curvature, and k holds the cases' indices."""
    if cases < 1:
        raise ValueError("cases must be at least 1")
    margins = np.empty(cases)
    for start in range(0, cases, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, cases))
        n, K, L, U = zip(*(_campaign_case(mode, seed + i) for i in k.tolist()))
        n, K = np.array(n), np.array(K)
        margins[k] = measure(_bounded_arcs(n, K, np.array(L), U), n, K, k)
    tiny = np.abs(margins) < _DEGENERATE_MARGIN
    violations = int(np.count_nonzero((margins <= 0.0) & ~tiny))
    min_case = int(np.argmin(margins))
    return SchurCampaignResult(cases=cases, mode=mode,
                               min_margin=float(margins[min_case]),
                               min_case=min_case, violations=violations,
                               degenerate=int(np.count_nonzero(tiny)),
                               margins=margins)


def schur_campaign(cases: int, seed: int, mode: str = "strict") -> SchurCampaignResult:
    """Run chord comparisons on random admissible arcs and count violations.

    Case k uses seed + k, so campaigns are reproducible and shardable, and
    schur_campaign(1, seed + k, mode) replays case k alone.  In relaxed mode
    the length budget exceeds pi only within the end-edge allowance checked
    as in schur_check.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")

    def measure(V, n, K, k):
        _, circle, poly = _chord_check(V, n, K, mode, cases=k)
        return poly - circle

    return _campaign(cases, seed, mode, measure)


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

    def measure(V, n, K, k):
        return [margin(PolyArc(V[b, :m + 1]), K[b], k[b])
                for b, m in enumerate(n.tolist())]

    return _campaign(cases, seed, "sphere", measure)
