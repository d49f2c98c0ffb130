"""Shared polygon generators for the test suite and tools/scan_parity.py."""

from __future__ import annotations

import math

import numpy as np

from polythick.polygon import Polygon, regular_ngon


def perturbed_regular(n: int, sigma: float, rng: np.random.Generator) -> Polygon:
    """Regular n-gon with direction noise, re-closed and re-equilateralised.

    Unit edge directions get isotropic Gaussian noise of size sigma, are
    renormalised, then projected back onto the closure constraint by
    repeatedly subtracting the mean and renormalising.  Small sigma keeps
    the polygon simple and curvature-bound.
    """
    base = regular_ngon(n)
    dirs = np.asarray(base.directions(), dtype=float).copy()
    dirs += sigma * rng.normal(size=dirs.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for _ in range(400):
        dirs -= dirs.mean(axis=0)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if np.linalg.norm(dirs.sum(axis=0)) < 1e-13:
            break
    verts = np.vstack([np.zeros(3), np.cumsum(dirs[:-1], axis=0)]) / n
    return Polygon(verts)


def crossing_hexagon(theta: float) -> Polygon:
    """Planar equilateral hexagon A, B, R, D, C, L with edges of length 2
    whose edges AB and DC cross at the origin at angle theta.

    A = (-1, 0, 0), B = (1, 0, 0), D = (cos theta, sin theta, 0), C = -D;
    R is the point 2 from B and from D on the +x side, and L = -R.
    """
    B = np.array([1.0, 0.0, 0.0])
    D = np.array([math.cos(theta), math.sin(theta), 0.0])
    h = D - B
    out = np.array([h[1], -h[0], 0.0]) / np.linalg.norm(h)   # +x side of BD
    R = 0.5 * (B + D) + math.sqrt(4.0 - 0.25 * float(h @ h)) * out
    return Polygon(np.array([-B, B, R, D, -D, -R]))
