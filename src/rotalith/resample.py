"""Point re-sampling: read per-point features off a grid by interpolation.

:func:`bilinear_sample` reads sphere signals ``(2B, 2B, ...)``: the dense
path's per-point read-out and grid-stored filters both go through it.
:func:`trilinear_sample` reads full ball grids ``(2B, 2B, 2B, C)``.
"""

from __future__ import annotations

import numpy as np

from .voxelize import SphericalGrid


def bilinear_sample(values: np.ndarray, B: int, alpha, beta) -> np.ndarray:
    """Interpolate sphere-grid values ``(2B, 2B, ...)`` at ``(alpha, beta)``.

    Returns shape ``alpha.shape + values.shape[2:]``.  Each output is the
    weighted sum of the 4 surrounding grid values; weights are the usual
    bilinear products in fractional index space.  The alpha index wraps
    around the seam; the beta index clamps at the poles, extending the
    nearest row.  The sum is accumulated in place, so besides the output only
    one gathered corner is held at a time.
    """
    values = np.asarray(values, dtype=float)
    n = 2 * B
    fa = np.asarray(alpha, dtype=float) / (np.pi / B)
    fb = np.asarray(beta, dtype=float) * n / np.pi - 0.5
    ia0 = np.floor(fa).astype(np.int64)
    jb0 = np.floor(fb).astype(np.int64)
    ta = fa - ia0
    tb = fb - jb0
    ia1 = np.mod(ia0 + 1, n)
    ia0 = np.mod(ia0, n)
    jb1 = np.clip(jb0 + 1, 0, n - 1)
    jb0 = np.clip(jb0, 0, n - 1)
    expand = (...,) + (None,) * (values.ndim - 2)
    out = None
    for ia, wa in ((ia0, 1.0 - ta), (ia1, ta)):
        for jb, wb in ((jb0, 1.0 - tb), (jb1, tb)):
            term = values[ia, jb]
            term *= (wa * wb)[expand]
            if out is None:
                out = term
            else:
                out += term
    return out


def trilinear_sample(grid: SphericalGrid, alpha, beta, h) -> np.ndarray:
    """Interpolate grid values at ball coordinates, returning ``(N, C)``.

    Each output row is the weighted average of the 8 surrounding voxel
    values; weights are the usual trilinear products in fractional index
    space.  The alpha index wraps around the seam; beta and radial indices
    clamp at the boundary, extending the nearest cell.  Weights sum to 1.
    """
    B = grid.bandwidth
    n = 2 * B
    fa = np.asarray(alpha, dtype=float).ravel() / (np.pi / B)
    fb = np.asarray(beta, dtype=float).ravel() * n / np.pi - 0.5
    fh = np.asarray(h, dtype=float).ravel() * n

    ia0 = np.floor(fa).astype(np.int64)
    jb0 = np.floor(fb).astype(np.int64)
    kh0 = np.floor(fh).astype(np.int64)
    ta, tb, th = fa - ia0, fb - jb0, fh - kh0

    ia1 = np.mod(ia0 + 1, n)
    ia0 = np.mod(ia0, n)
    jb1 = np.clip(jb0 + 1, 0, n - 1)
    jb0 = np.clip(jb0, 0, n - 1)
    kh1 = np.clip(kh0 + 1, 0, n - 1)
    kh0 = np.clip(kh0, 0, n - 1)

    data = grid.data
    out = np.zeros((fa.size, grid.channels))
    total = np.zeros(fa.size)
    for a, ia, wa in ((0, ia0, 1.0 - ta), (1, ia1, ta)):
        for b, jb, wb in ((0, jb0, 1.0 - tb), (1, jb1, tb)):
            for c, kh, wc in ((0, kh0, 1.0 - th), (1, kh1, th)):
                w = wa * wb * wc
                out += w[:, None] * data[ia, jb, kh]
                total += w
    return out / total[:, None]
