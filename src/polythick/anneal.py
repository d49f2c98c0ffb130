"""Ropelength descent by simulated annealing over equilateral polygons.

The move class is crankshaft rotations: a sub-chain between two pivot
vertices turns rigidly about the pivot axis, which preserves every edge
length exactly.  A move counts only if the whole rotation sweep stays
simple at a fixed number of substeps, so accepted paths are discrete
isotopies and the knot type is preserved at the checked resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polygon import Polygon
from .thickness import _edge_gap, inv_delta_objective

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
        if self.steps_per_temp < 1:
            raise ValueError("steps_per_temp must be positive")
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
        with open(path, "w") as fh:
            fh.write("step,temperature,objective,accepted,i,j,theta\n")
            for k in range(len(self.step)):
                fh.write(
                    f"{self.step[k]},{self.temperature[k]:.17g},"
                    f"{self.objective[k]:.17g},{self.accepted[k]},"
                    f"{self.i[k]},{self.j[k]},{self.theta[k]:.17g}\n"
                )


def _rotation_about(axis_point: np.ndarray, axis_dir: np.ndarray, theta: float):
    """Rodrigues rotation taking points around the line through axis_point."""
    u = axis_dir / np.linalg.norm(axis_dir)
    c, s = math.cos(theta), math.sin(theta)
    K = np.array([[0.0, -u[2], u[1]],
                  [u[2], 0.0, -u[0]],
                  [-u[1], u[0], 0.0]])
    R = np.eye(3) * c + s * K + (1.0 - c) * np.outer(u, u)

    def apply(pts: np.ndarray) -> np.ndarray:
        return (pts - axis_point) @ R.T + axis_point

    return apply


def _subchain(n: int, i: int, j: int) -> np.ndarray:
    """Vertex indices strictly between i and j walking forward from i."""
    gap = (j - i) % n
    return (i + 1 + np.arange(gap - 1)) % n


def crankshaft_move(p: Polygon, i: int, j: int, theta: float) -> Polygon:
    """Rotate the open sub-chain between pivots i and j by theta.

    The rotation axis runs through the two pivot vertices, so the lengths
    of every rotated edge and of the two bridge edges are preserved exactly.
    The candidate may self-intersect; see move_is_admissible.
    """
    n = p.n
    i, j = i % n, j % n
    if i == j:
        raise ValueError("pivots must differ")
    a = p.vertices[i]
    b = p.vertices[j]
    axis = b - a
    if np.linalg.norm(axis) < 1e-15 * p.length:
        raise ValueError("pivot vertices coincide: rotation axis undefined")
    moving = _subchain(n, i, j)
    V = p.vertices.copy()
    # theta = 0 must reproduce p bit for bit; the Rodrigues route would
    # round-trip each point through (x - a) + a and lose the last ulp
    if moving.size and theta != 0.0:
        V[moving] = _rotation_about(a, axis, theta)(V[moving])
    return Polygon(V)


def move_is_admissible(p: Polygon, i: int, j: int, theta: float,
                       substeps: int = _SUBSTEPS,
                       clearance: float | None = None) -> bool:
    """True iff the rotation sweep keeps the polygon simple throughout.

    The move is replayed at angles theta*k/substeps for k = 0..substeps and
    each intermediate polygon must keep all non-adjacent edge pairs farther
    apart than the clearance (default 1e-6 * length).  This is a discrete
    isotopy check: crossings between substeps are not detected, so substeps
    trades speed against safety.
    """
    n = p.n
    i, j = i % n, j % n
    if i == j:
        return False
    if clearance is None:
        clearance = _CLEARANCE_FACTOR * p.length
    a = p.vertices[i]
    axis = p.vertices[j] - a
    axis_len = np.linalg.norm(axis)
    if axis_len < 1e-15 * p.length:
        return False
    moving = _subchain(n, i, j)
    if moving.size == 0:
        return bool(_edge_gap(p.vertices) > clearance)
    u = axis / axis_len
    angles = theta * np.arange(substeps + 1) / substeps
    cos = np.cos(angles)[:, None, None]
    sin = np.sin(angles)[:, None, None]
    rel = p.vertices[moving] - a
    crs = np.cross(np.broadcast_to(u, rel.shape), rel)
    along = (rel @ u)[:, None] * u
    rotated = a + rel * cos + crs * sin + along * (1.0 - cos)
    Vb = np.broadcast_to(p.vertices, (substeps + 1,) + p.vertices.shape).copy()
    Vb[:, moving] = rotated
    return bool(np.all(_edge_gap(Vb) > clearance))


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
    rec_step, rec_T, rec_f, rec_acc = [], [], [], []
    rec_i, rec_j, rec_th, rec_best = [], [], [], []

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

            rec_step.append(step)
            rec_T.append(T)
            rec_f.append(f)
            rec_acc.append(accepted)
            rec_i.append(i)
            rec_j.append(j)
            rec_th.append(theta)
            rec_best.append(f_best)
            step += 1
        T *= cfg.cooling

    trace = AnnealTrace(
        step=np.asarray(rec_step, dtype=int),
        temperature=np.asarray(rec_T, dtype=float),
        objective=np.asarray(rec_f, dtype=float),
        accepted=np.asarray(rec_acc, dtype=int),
        i=np.asarray(rec_i, dtype=int),
        j=np.asarray(rec_j, dtype=int),
        theta=np.asarray(rec_th, dtype=float),
        best_objective=np.asarray(rec_best, dtype=float),
        best_vertices=best.vertices.copy(),
    )
    return best, trace
