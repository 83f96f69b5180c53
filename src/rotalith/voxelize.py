"""Density-aware construction of dense spherical-voxel signals from point clouds.

Each voxel of the grid at bandwidth B is centered at ``(alpha_i, beta_j, h_k)``
per the conventions in :mod:`rotalith.harmonics`.  A point contributes to a
voxel when it falls inside a rectangular window around the center:

* alpha window: half-width ``xi``, distance measured on the circle;
* beta window: half-width ``eta * xi`` with ``eta = sin(beta_j)`` in
  density-aware mode and ``eta = 1`` in uniform mode;
* radial window: half-width ``xi``.

The voxel value is the mean of ``xi - |h_n - h_k|`` over contributing points,
and 0 for voxels no point touches.  The sin-scaled beta window makes the
catch region isotropic in Euclidean space, which is what keeps the sampled
signal stable under rotations of the input.

Each voxel's numerator adds its points' terms in point order, so the grid
does not depend on how the points are chunked.  A point's radial row (its
``xi - |h_n - h_k|`` at ``kc`` consecutive radial candidates) is computed
once, and every sphere cell the point touches adds the whole row to sums
padded by ``kc`` at both ends.  Candidates outside the window carry +0.0,
also those past the cell's radial axis, which land in the next cell or the
pad.  Adding +0.0 leaves every sum bit for bit unchanged (the sums start at
+0.0 and only grow), so this equals adding the in-window terms alone.  The
denominator counts windows: +1 at a window's first bin, -1 past its last,
then one prefix sum.  Every partial sum is a small integer, exact in
float64, so the count does not depend on the order of those adds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import chunks
from .errors import InputFormatError
from .geometry import cart_to_spherical
from .harmonics import beta_nodes

@dataclass(frozen=True)
class SamplingConfig:
    """Window width and latitude-scaling mode for the voxelizer."""

    xi: float = 1.0 / 32.0
    mode: str = "daas"

    def __post_init__(self):
        if not (np.isfinite(self.xi) and self.xi > 0.0):
            raise ValueError(f"xi must be positive and finite, got {self.xi}")
        if self.mode not in ("daas", "uniform"):
            raise ValueError(f"mode must be 'daas' or 'uniform', got {self.mode!r}")


@dataclass
class SphericalGrid:
    """Dense C-channel signal on the discretized ball, data ``[2B, 2B, 2B, C]``."""

    bandwidth: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        B = self.bandwidth
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 4 or self.data.shape[:3] != (2 * B, 2 * B, 2 * B):
            raise ValueError(
                f"grid data must have shape (2B, 2B, 2B, C) for B={B}, got {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("grid data contains non-finite entries")

    @property
    def channels(self) -> int:
        return self.data.shape[3]


# below this |coordinate| every squared distance, norm and dot product of
# two points is finite: 12 * _MAX_COORD**2 < np.finfo(float).max
_MAX_COORD = np.sqrt(np.finfo(float).max) / 4.0


def _cloud_array(points: np.ndarray) -> np.ndarray:
    """``points`` as a float array, checked to be a non-empty ``(N, 3)`` cloud
    whose coordinates are finite and at most ``_MAX_COORD`` in magnitude."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
        raise InputFormatError(f"expected a non-empty (N, 3) cloud, got shape {points.shape}")
    peak = max(points.max(), -points.min())  # NaN propagates through both
    if not peak <= _MAX_COORD:
        if not np.isfinite(peak):
            raise InputFormatError("cloud has non-finite coordinates")
        raise InputFormatError(
            f"cloud coordinates exceed {_MAX_COORD:.2g} in magnitude, too large to normalize or to square"
        )
    return points


def normalize_cloud(points: np.ndarray) -> np.ndarray:
    """Center a cloud on its centroid and scale it into the unit ball."""
    points = _cloud_array(points)
    centered = points - points.mean(axis=0)
    scale = np.linalg.norm(centered, axis=1).max()
    if scale == 0.0:
        raise InputFormatError("cloud is degenerate: all points coincide")
    return centered / scale


def voxelize(points: np.ndarray, B: int, cfg: SamplingConfig | None = None) -> SphericalGrid:
    """Sample a cloud into a single-channel :class:`SphericalGrid`.

    Points must already lie in the unit ball (see :func:`normalize_cloud`).
    """
    if B < 2:
        raise InputFormatError(f"bandwidth must be >= 2, got {B}")
    alpha, beta, h = cart_to_spherical(_cloud_array(points))
    return _voxelize_spherical(alpha, beta, h, B, SamplingConfig() if cfg is None else cfg)


def _voxelize_spherical(
    alpha: np.ndarray, beta: np.ndarray, h: np.ndarray, B: int, cfg: SamplingConfig
) -> SphericalGrid:
    """:func:`voxelize` of a cloud given by its spherical coordinates."""
    n_bins = 2 * B
    xi = cfg.xi
    d_alpha = np.pi / B
    d_beta = np.pi / n_bins
    d_h = 1.0 / n_bins
    bj = beta_nodes(B)
    eta = np.sin(bj) if cfg.mode == "daas" else np.ones(n_bins)

    # candidate index offsets per axis; windows never span more bins than
    # this, and alpha candidates stop at one turn so each bin is entered once
    ka = min(int(np.floor(2 * xi / d_alpha)) + 2, n_bins)
    kb = int(np.floor(2 * xi / d_beta)) + 2
    kc = int(np.floor(2 * xi / d_h)) + 2

    # the flat sums, padded by kc at both ends so every kc-wide radial row fits
    size = n_bins**3 + 2 * kc
    num = np.zeros(size)
    den = np.zeros(size)
    steps = np.arange(kc)

    # a chunk's points touch at most ka * kb sphere cells each, and each cell
    # expands to kc float64 radial values (and as many int64 indices); the
    # per-point candidates are (candidate, point) arrays, so every numpy pass
    # over them runs along the long point axis
    for chunk in chunks._point_chunks(alpha.shape[0], 8 * ka * kb * kc, chunks._LOOP_CHUNK_BYTES):
        a, b, r = alpha[chunk], beta[chunk], h[chunk]

        # alpha: unwrapped candidate indices near a / d_alpha, distance on
        # the circle, wrap at the seam; d >= 2*pi needs xi > d, where every
        # bin is inside the window, and 2*pi - d <= 0 admits it
        ia = np.ceil((a - xi) / d_alpha).astype(np.int64) + np.arange(ka)[:, None]
        d = np.abs(a - ia * d_alpha)
        mask_a = np.minimum(d, 2 * np.pi - d) < xi
        ia = np.mod(ia, n_bins)

        jb = np.ceil((b - xi) / d_beta - 0.5).astype(np.int64) + np.arange(kb)[:, None]
        jb_safe = np.clip(jb, 0, n_bins - 1)
        mask_b = (jb == jb_safe) & (np.abs(b - bj[jb_safe]) < eta[jb_safe] * xi)

        # each point's radial row, 0 outside its window, and the window's
        # ends [lo, hi): its bins are one run, after the candidates below it
        kc0 = np.ceil((r - xi) / d_h).astype(np.int64)
        kk = kc0 + steps[:, None]
        diff = r - kk * d_h
        h_dist = np.abs(diff)
        mask_c = (kk >= 0) & (kk < n_bins) & (h_dist < xi)
        radial = np.where(mask_c, xi - h_dist, 0.0)
        lo = kc0 + ((kk < 0) | (diff >= xi)).sum(axis=0)
        hi = lo + mask_c.sum(axis=0)

        # sphere cells each point touches, in (point, alpha, beta) order; each
        # takes its point's whole radial row and a +1 / -1 at its window's ends
        hits = np.flatnonzero((mask_a[:, None, :] & mask_b[None, :, :]).transpose(2, 0, 1))
        p, ij = np.divmod(hits, ka * kb)
        i, j = np.divmod(ij, kb)
        cell = (ia[i, p] * n_bins + jb_safe[j, p]) * n_bins + kc
        np.add.at(num, ((cell + kc0[p])[:, None] + steps).ravel(), radial[:, p].T.ravel())
        np.add.at(den, cell + lo[p], 1.0)
        np.add.at(den, cell + hi[p], -1.0)

    # the window counts; num is exactly 0 wherever they are, so one in-place
    # division gives the mean
    np.cumsum(den, out=den)
    grid, count = num[kc : size - kc], den[kc : size - kc]
    grid /= np.maximum(count, 1.0, out=count)
    return SphericalGrid(B, grid.reshape(n_bins, n_bins, n_bins, 1))


def grid_shift_alpha(grid: SphericalGrid, m: int) -> SphericalGrid:
    """Circularly shift the alpha axis by m grid steps."""
    return SphericalGrid(grid.bandwidth, np.roll(grid.data, m, axis=0))
