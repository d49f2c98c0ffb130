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

from .polygon import _format_table, _integral, _seed, regular_ngon
from .schur import _bounded_arcs, _chord_check, _sphere_check
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
    ns = sorted(set(_integral("n", n) for n in n_list))
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
    if not 3 <= _integral("n_min", n_min) <= _integral("n_max", n_max):
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
    degenerate: int            # |margin| < 1e-10, 0 included: sign not asserted
    margins: np.ndarray

    def summary(self) -> str:
        return (f"{self.mode}: {self.cases} cases, min margin "
                f"{self.min_margin:.6g} (case {self.min_case}), "
                f"{self.violations} violations, {self.degenerate} degenerate")


def _budget(mode: str, n):
    """The bound a drawn case keeps K*L under: pi in strict mode, pi/2 for
    the sphere check, and in relaxed mode the budget K*L <= pi + K*L/n of an
    equilateral n-edge arc, rearranged to K*L <= pi*n/(n-1).  n may be an
    array of edge counts."""
    if mode == "strict":
        return math.pi
    if mode == "relaxed":
        return math.pi * n / (n - 1)
    return 0.5 * math.pi


def _campaign_case(mode: str, seed: int):
    """Draw one admissible (n, K, L) and the uniforms of its arc.

    Deterministic per seed.  This is the definition of a case: a campaign
    draws a chunk's numbers as one stack, bit for bit these, with
    _campaign_draws, which calls this for the lanes its lane arithmetic
    does not cover, a first output that Lemire's method rejects and seeds
    of 2^128 and up.  The draw stays 2% below the budget on K*L so
    feasibility never rides on rounding.  The uniforms restart the stream,
    as random_bounded_arc(n, K, L, seed) does with a generator of its own.
    """
    bits = np.random.PCG64(seed)       # default_rng(seed)'s bit generator
    start = bits.state
    rng = np.random.Generator(bits)
    n = int(rng.integers(2, 25))
    K = float(rng.uniform(0.2, 5.0))
    L = float(rng.uniform(0.1, 0.98 * _budget(mode, n))) / K
    bits.state = start
    return n, K, L, rng.random(2 * n - 2)


# default_rng(seed) hashes the seed's 32-bit words into a pool of four with
# SeedSequence, draws four 64-bit words from the pool and seeds PCG64 with
# them (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
# Good Algorithms for Random Number Generation", HMC-CS-2014-0905).  Both
# are integer recurrences, so _campaign_draws runs them for a chunk of seeds
# at once as uint32 and uint64 lane arithmetic, one lane per seed.
_M32 = np.uint64(0xFFFFFFFF)
_M64 = (1 << 64) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DRAWS = 46                # outputs a case reads: 2n - 2 uniforms, n <= 24


def _hash_constants(init: int, mult: int, count: int) -> list:
    # SeedSequence's hash number i xors with entry i, multiplies by entry i + 1
    return [np.uint32(init * pow(mult, i, 1 << 32) % (1 << 32)) for i in range(count + 1)]


_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)    # mix_entropy
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)    # generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _halves(values: list) -> tuple:
    """128-bit constants as uint64 rows: high words, low words, and the low
    words' low and high 32 bits."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & _M64 for v in values], dtype=np.uint64)
    return hi, lo, lo & _M32, lo >> 32


def _jumps() -> tuple:
    """M^j and M^(j-1) + ... + M + 1 mod 2^128, for j = 2 .. _DRAWS + 1."""
    a, c, A, C = 1, 0, [], []
    for j in range(_DRAWS + 2):
        if j >= 2:
            A.append(a)
            C.append(c)
        a, c = a * _PCG_MULT % (1 << 128), (c + a) % (1 << 128)
    return _halves(A), _halves(C)


_JUMP_X, _JUMP_INC = _jumps()


def _seed_sequence(words: list) -> list:
    """SeedSequence(seed).generate_state(4, np.uint64) of each lane, as four
    uint64 arrays, from the seeds' four 32-bit words, least significant
    first.  A seed below 2^128 with fewer words hashes its missing words as
    0, as SeedSequence pads its entropy to the pool."""
    def hashed(v, constants, i):
        v = (v ^ constants[i]) * constants[i + 1]
        return v ^ (v >> 16)

    pool = [hashed(w, _POOL_HASH, i) for i, w in enumerate(words)]
    i = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashed(pool[src], _POOL_HASH, i)
                pool[dst] = mixed ^ (mixed >> 16)
                i += 1
    state = [hashed(pool[j % 4], _STATE_HASH, j).astype(np.uint64) for j in range(8)]
    return [state[2 * j] | (state[2 * j + 1] << 32) for j in range(4)]


def _pcg64_outputs(x_hi, x_lo, inc_hi, inc_lo) -> np.ndarray:
    """The first _DRAWS outputs of each lane's PCG64, (B, _DRAWS) uint64.

    Output k reads the state x M^(k+2) + inc (M^(k+1) + ... + 1) mod 2^128
    through XSL-RR, where x and inc are the lane's 128-bit state and
    increment before srandom's first step.  Each 128-bit product takes the
    high word of the low words' product from four 32-bit products.  The
    (B, _DRAWS) arrays are six buffers updated in place.
    """
    hi = np.zeros((len(x_lo), _DRAWS), dtype=np.uint64)
    lo, p, t, u, w = (np.zeros_like(hi) for _ in range(5))
    carry = np.empty(hi.shape, dtype=bool)
    for v_hi, v_lo, (c_hi, c_lo, c0, c1) in ((x_hi, x_lo, _JUMP_X),
                                             (inc_hi, inc_lo, _JUMP_INC)):
        v_hi, v_lo = v_hi[:, None], v_lo[:, None]
        v0, v1 = v_lo & _M32, v_lo >> 32
        np.multiply(v0, c0, out=w)
        w >>= 32
        np.multiply(v0, c1, out=t)
        np.multiply(v1, c0, out=u)
        hi += np.multiply(v1, c1, out=p)
        w += np.bitwise_and(t, _M32, out=p)
        w += np.bitwise_and(u, _M32, out=p)
        hi += np.right_shift(t, 32, out=t)
        hi += np.right_shift(u, 32, out=u)
        hi += np.right_shift(w, 32, out=w)
        hi += np.multiply(v_lo, c_hi, out=p)
        hi += np.multiply(v_hi, c_lo, out=p)
        lo += np.multiply(v_lo, c_lo, out=p)
        hi += np.less(lo, p, out=carry)
    # XSL-RR: the two words' xor, rotated right by the high word's top 6 bits
    r = np.right_shift(hi, 58, out=t)
    lo ^= hi
    np.right_shift(lo, r, out=p)
    r = np.bitwise_and(np.negative(r, out=r), 63, out=r)
    return np.bitwise_or(np.left_shift(lo, r, out=lo), p, out=lo)


def _campaign_draws(mode: str, seeds: range):
    """_campaign_case(mode, s) for every seed s of the range, drawn as one
    stack, bit for bit numpy's.

    Returns n, K and L as arrays and the uniforms as the zero-padded
    (B, 2 max n - 2) matrix _bounded_arcs takes.  Each lane replays
    default_rng(s): SeedSequence and PCG64's seeding in lane arithmetic,
    the outputs by jump-ahead, n by Lemire's multiply-shift on the low 32
    bits of output 0 as Generator.integers(2, 25) takes it (Lemire, "Fast
    Random Integer Generation in an Interval", ACM TOMACS 29(1), 2019), and
    K, L and the uniforms as (output >> 11) 2^-53, as Generator.random and
    Generator.uniform take them.  Two kinds of lane are drawn by
    _campaign_case instead: those where Lemire's method would reject output
    0 and draw again, with probability 12/2^32, and seeds of 2^128 and up,
    whose words overflow the pool.
    """
    B, first = len(seeds), seeds.start
    # each seed's low and high 64 bits; lanes from 2^128 on wrap, and are
    # redrawn below
    lo = np.uint64(first & _M64) + np.arange(B, dtype=np.uint64)
    hi = np.uint64((first >> 64) & _M64) + (lo < lo[0])
    words = [(w & _M32).astype(np.uint32) for w in (lo, lo >> 32, hi, hi >> 32)]
    s_hi, s_lo, q_hi, q_lo = _seed_sequence(words)
    # pcg64_set_seed: state (s_hi, s_lo), stream (q_hi, q_lo), increment
    # 2q + 1; srandom then leaves the state (s + inc) M + inc
    inc_hi, inc_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    x_lo = s_lo + inc_lo
    x_hi = s_hi + inc_hi + (x_lo < inc_lo)
    raw = _pcg64_outputs(x_hi, x_lo, inc_hi, inc_lo)
    # integers(2, 25): 23 values; leftovers below 2^32 mod 23 = 12 are rejected
    m = (raw[:, 0] & _M32) * 23
    fallback = (m & _M32) < 12
    fallback[max(0, min(B, (1 << 128) - first)):] = True
    n = (m >> 32).astype(np.int64) + 2
    U = (raw >> 11).astype(float) * (1.0 / 9007199254740992.0)
    K = 0.2 + (5.0 - 0.2) * U[:, 1]
    L = (0.1 + (0.98 * _budget(mode, n) - 0.1) * U[:, 2]) / K
    U[np.arange(_DRAWS) >= 2 * n[:, None] - 2] = 0.0
    for b in np.flatnonzero(fallback).tolist():
        n[b], K[b], L[b], u = _campaign_case(mode, seeds[b])
        U[b] = 0.0
        U[b, :len(u)] = u
    return n, K, L, U[:, :2 * int(n.max()) - 2]


def _campaign(cases: int, seed: int, mode: str, measure) -> SchurCampaignResult:
    """Margins of cases k = 0..cases-1, case k drawn with seed + k, and their
    tally.  Up to _CHUNK cases at a time have their numbers drawn as one
    stack by _campaign_draws, bit for bit numpy's (its fallback lanes, a
    rejected first output or a seed of 2^128 and up, drawn by
    _campaign_case), and are walked as one stack of arcs, each
    random_bounded_arc(n, K, L, seed + k) bit for bit; measure(V, n, K, k)
    returns their margins.  V, n and K are laid out as for
    schur._check_curvature, and k holds the cases' indices."""
    if _integral("cases", cases) < 1:
        raise ValueError("cases must be at least 1")
    seed = _seed(seed)
    margins = np.empty(cases)
    for start in range(0, cases, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, cases))
        n, K, L, U = _campaign_draws(mode, range(seed + start, seed + start + len(k)))
        margins[k] = measure(_bounded_arcs(n, K, L, U), n, K, k)
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
    it must hold within 1e-12 per case.  Every case of a chunk is measured
    by one stacked sphere check, as schur_campaign measures its chords.
    """
    def measure(V, n, K, k):
        distances, lhs, rhs = _sphere_check(V, n, K, cases=k)
        gap = (lhs - rhs).min(axis=1)
        failed = gap < -1e-12
        if failed.any():
            b = int(np.argmax(failed))
            raise RuntimeError(f"anchor inequality failed by {gap[b]:.3e} "
                               f"at case {k[b]} (seed {seed + k[b]})")
        return distances.min(axis=1)

    return _campaign(cases, seed, "sphere", measure)
