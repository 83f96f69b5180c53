"""Point re-sampling: read per-point features off a grid by interpolation.

:func:`bilinear_sample` reads sphere signals ``(2B, 2B, ...)``, the dense
path's per-point read-out.  :func:`trilinear_sample` reads full ball grids
``(2B, 2B, 2B, C)``.  Both are the one multilinear read of
:func:`_multilinear`.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce

import numpy as np

from .voxelize import SphericalGrid


def _multilinear(values: np.ndarray, coords: list[np.ndarray]) -> np.ndarray:
    """Interpolate ``values`` at fractional indices, one array per leading axis.

    Each output is the weighted sum of the ``2^len(coords)`` surrounding grid
    values; weights are the products of per-axis linear weights and sum to 1.
    The first (alpha) index wraps around the seam; the others clamp at the
    boundary, extending the nearest cell.  The sum is accumulated in place,
    so besides the output only one gathered corner and its weight are held
    at a time.
    """
    sides = []
    for axis, frac in enumerate(coords):
        size = values.shape[axis]
        i0 = np.floor(frac).astype(np.int64)
        t = frac - i0
        i1 = np.mod(i0 + 1, size) if axis == 0 else np.clip(i0 + 1, 0, size - 1)
        i0 = np.mod(i0, size) if axis == 0 else np.clip(i0, 0, size - 1)
        sides.append(((i0, 1.0 - t), (i1, t)))
    expand = (...,) + (None,) * (values.ndim - len(coords))
    out = None
    for corner in itertools.product(*sides):
        idx, weights = zip(*corner)
        term = values[idx]
        term *= reduce(operator.mul, weights)[expand]
        if out is None:
            out = term
        else:
            out += term
    return out


def bilinear_sample(values: np.ndarray, B: int, alpha, beta) -> np.ndarray:
    """Interpolate sphere-grid values ``(2B, 2B, ...)`` at ``(alpha, beta)``.

    Returns shape ``alpha.shape + values.shape[2:]``: the weighted sum of the
    4 surrounding grid values, with the beta index clamped at the poles.
    """
    fa = np.asarray(alpha, dtype=float) / (np.pi / B)
    fb = np.asarray(beta, dtype=float) * (2 * B) / np.pi - 0.5
    return _multilinear(np.asarray(values, dtype=float), [fa, fb])


def trilinear_sample(grid: SphericalGrid, alpha, beta, h) -> np.ndarray:
    """Interpolate grid values at ball coordinates, returning ``(N, C)``.

    Each output row is the weighted sum of the 8 surrounding voxel values;
    beta and radial indices clamp at the boundary.
    """
    n = 2 * grid.bandwidth
    fa = np.asarray(alpha, dtype=float).ravel() / (np.pi / grid.bandwidth)
    fb = np.asarray(beta, dtype=float).ravel() * n / np.pi - 0.5
    fh = np.asarray(h, dtype=float).ravel() * n
    return _multilinear(grid.data, [fa, fb, fh])
