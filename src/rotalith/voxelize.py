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


def _cloud_array(points: np.ndarray) -> np.ndarray:
    """``points`` as a float array, checked to be a non-empty, finite ``(N, 3)`` cloud."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
        raise InputFormatError(f"expected a non-empty (N, 3) cloud, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise InputFormatError("cloud has non-finite coordinates")
    return points


def normalize_cloud(points: np.ndarray) -> np.ndarray:
    """Center a cloud on its centroid and scale it into the unit ball."""
    points = _cloud_array(points)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = points - points.mean(axis=0)
        scale = np.linalg.norm(centered, axis=1).max()
    if not np.isfinite(scale):  # huge coordinates overflowed the centroid or the norm
        raise InputFormatError("cloud coordinates are too large to normalize")
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

    num = np.zeros(n_bins * n_bins * n_bins)
    den = np.zeros(n_bins * n_bins * n_bins)

    # candidate index offsets per axis; windows never span more bins than
    # this, and alpha candidates stop at one turn so each bin is entered once
    ka = min(int(np.floor(2 * xi / d_alpha)) + 2, n_bins)
    kb = int(np.floor(2 * xi / d_beta)) + 2
    kc = int(np.floor(2 * xi / d_h)) + 2

    # a chunk's points expand to at most ka * kb * kc float64 candidates each
    for chunk in chunks._point_chunks(alpha.shape[0], 8 * ka * kb * kc, chunks._LOOP_CHUNK_BYTES):
        a, b, r = alpha[chunk], beta[chunk], h[chunk]

        # alpha: unwrapped candidate indices near a / d_alpha, distance on
        # the circle, wrap at the seam; d >= 2*pi needs xi > d, where every
        # bin is inside the window, and 2*pi - d <= 0 admits it
        ia0 = np.ceil((a - xi) / d_alpha).astype(np.int64)
        ia = ia0[:, None] + np.arange(ka)[None, :]
        d = np.abs(a[:, None] - ia * d_alpha)
        mask_a = np.minimum(d, 2 * np.pi - d) < xi
        ia = np.mod(ia, n_bins)

        jb0 = np.ceil((b - xi) / d_beta - 0.5).astype(np.int64)
        jb = jb0[:, None] + np.arange(kb)[None, :]
        in_range_b = (jb >= 0) & (jb < n_bins)
        jb_safe = np.clip(jb, 0, n_bins - 1)
        mask_b = in_range_b & (np.abs(b[:, None] - bj[jb_safe]) < eta[jb_safe] * xi)

        kc0 = np.ceil((r - xi) / d_h).astype(np.int64)
        kk = kc0[:, None] + np.arange(kc)[None, :]
        in_range_c = (kk >= 0) & (kk < n_bins)
        h_dist = np.abs(r[:, None] - kk * d_h)
        mask_c = in_range_c & (h_dist < xi)

        # sphere cells each point touches, in (point, alpha, beta) order, then
        # their radial candidates: add.at sums in point order, so the grid
        # does not depend on the chunk size
        p, i, j = np.nonzero(mask_a[:, :, None] & mask_b[:, None, :])
        sel = mask_c[p]
        cell = (ia[p, i] * n_bins + jb_safe[p, j]) * n_bins
        flat_idx = (cell[:, None] + kk[p])[sel]
        np.add.at(num, flat_idx, xi - h_dist[p][sel])
        np.add.at(den, flat_idx, 1.0)

    # num is exactly 0 wherever den is, so one in-place division gives the mean
    num /= np.maximum(den, 1.0, out=den)
    return SphericalGrid(B, num.reshape(n_bins, n_bins, n_bins, 1))


def grid_shift_alpha(grid: SphericalGrid, m: int) -> SphericalGrid:
    """Circularly shift the alpha axis by m grid steps."""
    return SphericalGrid(grid.bandwidth, np.roll(grid.data, m, axis=0))
