"""Ropelength descent by simulated annealing over equilateral polygons.

The move class is crankshaft rotations: a sub-chain between two pivot
vertices turns rigidly about the pivot axis, which preserves every edge
length exactly.  A move counts only if the rotation sweep, sampled at a
fixed number of angles, keeps every pair of non-adjacent edges apart by a
clearance.  The move and its sweep check turn the sub-chain with the same
formula (_swept), so the last frame checked is the polygon the chain
commits.  The frames go, as computed, to the one clearance test that
is_simple and the objective also call (thickness._clear): it measures
only the pairs whose midpoints one tree over all the frames finds within
reach of the clearance, so the check's cost follows the near pairs, not
n^2.
Crossings between sampled angles go undetected: accepted paths are
discrete isotopies at the sampled resolution, which is not a proof that
the knot type is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polygon import Polygon, _format_table, _integral, _seed
from .thickness import _clear, inv_delta_objective

__all__ = [
    "AnnealConfig",
    "AnnealTrace",
    "crankshaft_move",
    "move_is_admissible",
    "anneal",
    "is_near_regular",
]

_THETA_MAX = math.pi / 6     # proposal angles are uniform in +-_THETA_MAX
_SUBSTEPS = 16               # sweep samples per move in the admissibility check
_CLEARANCE_FACTOR = 1e-6     # clearance = factor * polygon length


@dataclass(frozen=True)
class AnnealConfig:
    """Cooling schedule and seed; the move settings are module constants."""

    t0: float | None = None        # None: 0.5 * initial objective
    cooling: float = 0.95
    steps_per_temp: int = 200
    t_min: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        if _integral("steps_per_temp", self.steps_per_temp) < 1:
            raise ValueError("steps_per_temp must be positive")
        _seed(self.seed)
        # a zero temperature would divide by zero in the Metropolis test
        if not (math.isfinite(self.t_min) and self.t_min > 0.0):
            raise ValueError(f"t_min must be finite and positive, got {self.t_min!r}")
        if self.t0 is not None and not (math.isfinite(self.t0) and self.t0 > 0.0):
            raise ValueError(f"t0 must be finite and positive, got {self.t0!r}")


@dataclass
class AnnealTrace:
    """Per-proposal log plus the best state seen.

    Arrays are parallel: one entry per proposal.  objective holds the
    current state's objective after the accept/reject decision; best holds
    the running minimum over accepted states (non-increasing).
    """

    step: np.ndarray
    temperature: np.ndarray
    objective: np.ndarray
    accepted: np.ndarray
    i: np.ndarray
    j: np.ndarray
    theta: np.ndarray
    best_objective: np.ndarray
    best_vertices: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.step)

    def to_csv(self, path) -> None:
        cols = ("step", "temperature", "objective", "accepted", "i", "j", "theta")
        with open(path, "w") as fh:
            fh.write(_format_table(cols, zip(*(getattr(self, c) for c in cols))))


def _swept(p: Polygon, i: int, j: int, angles: np.ndarray) -> np.ndarray:
    """(len(angles), n, 3) stack of p with the open sub-chain between pivots
    i and j, integers, turned about the pivot axis by each angle, which
    must be finite."""
    bad = angles[~np.isfinite(angles)]
    if bad.size:
        raise ValueError(f"rotation angle must be finite, got {float(bad[0])!r}")
    n = p.n
    i, j = _integral("pivot i", i) % n, _integral("pivot j", j) % n
    if i == j:
        raise ValueError("pivots must differ")
    a = p.vertices[i]
    axis = p.vertices[j] - a
    axis_len = np.linalg.norm(axis)
    if axis_len < 1e-15 * p.length:
        raise ValueError("pivot vertices coincide: rotation axis undefined")
    u = axis / axis_len
    moving = (i + 1 + np.arange((j - i) % n - 1)) % n
    c = np.cos(angles)[:, None, None]
    s = np.sin(angles)[:, None, None]
    K = np.array([[0.0, -u[2], u[1]],
                  [u[2], 0.0, -u[0]],
                  [-u[1], u[0], 0.0]])
    R = np.eye(3) * c + s * K + (1.0 - c) * np.outer(u, u)
    V = np.repeat(p.vertices[None], len(angles), axis=0)
    V[:, moving] = (p.vertices[moving] - a) @ R.swapaxes(1, 2) + a
    # a zero angle must reproduce p bit for bit; the rotation would
    # round-trip each point through (x - a) + a and lose the last ulp
    V[angles == 0.0] = p.vertices
    return V


def crankshaft_move(p: Polygon, i: int, j: int, theta: float) -> Polygon:
    """Rotate the open sub-chain between pivots i and j by theta.

    The rotation axis runs through the two pivot vertices, so the lengths
    of every rotated edge and of the two bridge edges are preserved exactly.
    The candidate may self-intersect; see move_is_admissible.
    """
    return Polygon(_swept(p, i, j, np.array([theta], dtype=float))[0])


def move_is_admissible(p: Polygon, i: int, j: int, theta: float,
                       substeps: int = _SUBSTEPS,
                       clearance: float | None = None) -> bool:
    """True iff the rotation sweep keeps the polygon simple throughout.

    The move is replayed at angles theta*k/substeps for k = 0..substeps, so
    frame 0 is p and the last frame is the candidate crankshaft_move returns,
    bit for bit.  Every frame must keep all non-adjacent edge pairs farther
    apart than the clearance (default 1e-6 * length), as thickness._clear
    tests on all the frames at once; a move with no near pair is admitted
    without a kernel call.  Pivots that coincide and a theta that
    is not finite make the move inadmissible.  Crossings between substeps
    are not detected, so substeps trades speed against safety; it must be
    an integer, at least 1.  A pivot that is not an integer, a clearance
    that is negative, which would admit every move, or not finite is a
    ValueError.
    """
    if _integral("substeps", substeps) < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps!r}")
    if clearance is None:
        clearance = _CLEARANCE_FACTOR * p.length
    elif not (math.isfinite(clearance) and clearance >= 0.0):
        raise ValueError(f"clearance must be finite and non-negative, got {clearance!r}")
    # k/substeps * theta, not theta*k/substeps: the last angle is theta
    # exactly; an infinite theta reads nan at k = 0, which _swept refuses
    with np.errstate(invalid="ignore"):
        angles = np.arange(substeps + 1) / substeps * theta
    # a pivot that is no integer is the caller's error, not a move to refuse
    i, j = _integral("pivot i", i), _integral("pivot j", j)
    try:
        frames = _swept(p, i, j, angles)
    except ValueError:
        return False
    return _clear(p, frames, clearance)


def is_near_regular(p: Polygon, tol: float) -> bool:
    """All exterior angles within tol of 2*pi/n and vertices coplanar.

    Coplanarity is measured as the largest deviation from the best-fit
    plane (smallest principal direction of the centered vertex cloud),
    compared against tol times the polygon length.
    """
    target = 2.0 * math.pi / p.n
    if np.any(np.abs(p.exterior_angles() - target) > tol):
        return False
    centered = p.vertices - p.vertices.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    dev = np.abs(centered @ vt[-1])
    return bool(dev.max() <= tol * p.length)


def anneal(p0: Polygon, cfg: AnnealConfig = AnnealConfig()):
    """Minimize the inverse thickness objective; returns (best, trace).

    Geometric cooling with Metropolis acceptance on the objective
    max(maxCurv, 2/dcsd).  Candidates are scored first; degenerate ones
    (infinite objective) are auto-rejected, and the sweep admissibility
    check runs only for proposals that Metropolis already accepted, which
    cannot change the chain (a move commits only when both tests pass).
    Deterministic for fixed (p0, cfg).
    """
    n = p0.n
    L = p0.length
    clearance = _CLEARANCE_FACTOR * L
    f0 = inv_delta_objective(p0, clearance)
    if not math.isfinite(f0):
        raise ValueError("start polygon must be simple with positive thickness")
    lower_bound = 2.0 * n * math.tan(math.pi / n) / L - 1e-9
    angle_floor = 2.0 * math.pi / n - 1e-12

    rng = np.random.default_rng(cfg.seed)
    current = Polygon(p0.vertices)
    f = f0
    best = current
    f_best = f

    T = 0.5 * f0 if cfg.t0 is None else cfg.t0
    rows = []   # (step, T, f, accepted, i, j, theta, f_best) per proposal

    step = 0
    while T >= cfg.t_min:
        for _ in range(cfg.steps_per_temp):
            i = int(rng.integers(n))
            # forward gap >= 2 so the rotated sub-chain is nonempty; n=3 has
            # only gap 2 (spinning one vertex about the opposite edge)
            gap = int(rng.integers(2, n - 1)) if n > 3 else 2
            j = (i + gap) % n
            theta = float(rng.uniform(-_THETA_MAX, _THETA_MAX))

            accepted = 0
            try:
                cand = crankshaft_move(current, i, j, theta)
            except ValueError:
                cand = None
            if cand is not None:
                f_cand = inv_delta_objective(cand, clearance)
                if math.isfinite(f_cand):
                    # both hold for every closed equilateral polygon; a
                    # violation means the kernel miscounted, so fail loudly
                    if f_cand < lower_bound:
                        raise RuntimeError(
                            f"objective {f_cand:.17g} under the n-gon bound")
                    if float(cand.exterior_angles().max()) < angle_floor:
                        raise RuntimeError("no exterior angle reaches 2*pi/n")
                    if f_cand <= f or rng.random() < math.exp(-(f_cand - f) / T):
                        if move_is_admissible(current, i, j, theta,
                                              clearance=clearance):
                            current = cand
                            f = f_cand
                            accepted = 1
                            if f < f_best:
                                f_best = f
                                best = cand

            rows.append((step, T, f, accepted, i, j, theta, f_best))
            step += 1
        T *= cfg.cooling

    col = np.array(rows, dtype=float).reshape(-1, 8).T
    trace = AnnealTrace(
        step=col[0].astype(int), temperature=col[1], objective=col[2],
        accepted=col[3].astype(int), i=col[4].astype(int),
        j=col[5].astype(int), theta=col[6], best_objective=col[7],
        best_vertices=best.vertices.copy(),
    )
    return best, trace
