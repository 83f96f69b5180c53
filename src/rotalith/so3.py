"""Signals and correlations on the rotation group.

A grid signal on the ball doubles as a signal on the rotation group through
the index-preserving relabeling ``(alpha_i, beta_j, h_k) -> Z(alpha_i)
Y(beta_j) Z(2*pi*h_k)``, so the radial axis of a grid is read as its gamma
axis.  The voxel correlation averages the group correlation over the z-coset:

    out(p) = integral over gamma and R of
             psi_T(R^-1 T(p)) * f_T(R Z(gamma)) dR dgamma

with the Haar measure and the gamma circle both normalized to mass 1.

Filters are constrained to be constant along gamma, which makes them exactly
functions on the sphere evaluated at the rotated north pole
(``psi_T(R) = psi_s2(R @ n)``).  Two consequences shape this module:

* outputs are constant along the radial axis, so every correlation returns
  a ``(2B, 2B, C_out)`` :class:`S2Signal`;
* only the zonal part of the filter survives, so the spectral path reduces to
  a per-degree product: ``out_lm = g_lm * psi_l0 / sqrt(4*pi*(2l+1))`` where
  ``g`` is the gamma-averaged signal.

:func:`svc_coeffs` is the one spectral kernel: it maps the ``(B^2, C_in)``
SH coefficients of a gamma-averaged signal and the zonal rows ``psi_l0`` to
the ``(B^2, C_out)`` output coefficients, so callers choose the grids they
analyze from and synthesize to.  :func:`svc_spectral` applies it to a ball
grid.  :func:`svc_bruteforce` never forms coefficients; it sums the
integrand over the full Euler grid and serves as the independent oracle for
:func:`svc_spectral`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import chunks
from . import harmonics as sh
from .geometry import euler_to_matrix, validate_rotation
from .voxelize import SphericalGrid


@dataclass
class S2Signal:
    """Signal on the (alpha, beta) grid, data ``[2B, 2B, C]``."""

    bandwidth: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        B = self.bandwidth
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3 or self.data.shape[:2] != (2 * B, 2 * B):
            raise ValueError(f"S2 data must be (2B, 2B, C) for B={B}, got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("S2 data contains non-finite entries")

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass
class SphericalFilter:
    """A gamma-constant rotation-group filter, stored as a function on S^2.

    ``coeffs`` has shape ``[B^2, C_out, C_in]``: every degree l < B.
    """

    bandwidth: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        B = self.bandwidth
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if B < 1 or self.coeffs.ndim != 3 or len(self.coeffs) != B * B:
            raise ValueError(
                f"filter coeffs must be (B^2, C_out, C_in) for B={B}, got shape {self.coeffs.shape}"
            )


def gamma_average(grid: SphericalGrid) -> S2Signal:
    """Average over the gamma axis (the inner coset integral, mass 1).

    The relabeling onto the rotation group preserves indices, so the gamma
    axis is the grid's radial axis.
    """
    return S2Signal(grid.bandwidth, grid.data.mean(axis=2))


@lru_cache(maxsize=None)
def _euler_grid_rotations(B: int) -> np.ndarray:
    """All (2B)^3 grid rotations, shape (2B, 2B, 2B, 3, 3)."""
    ai = sh.alpha_nodes(B)
    bj = sh.beta_nodes(B)
    # gamma is sampled on the alpha nodes, 2 pi k / (2B)
    A, Bb, G = np.meshgrid(ai, bj, ai, indexing="ij")
    R = euler_to_matrix(A, Bb, G)
    R.setflags(write=False)
    return R


def _haar_weights(B: int) -> np.ndarray:
    """Normalized Haar quadrature over the Euler grid, shape (2B, 2B, 2B)."""
    wb = sh.beta_weights(B) / 2.0
    n = 2 * B
    return np.broadcast_to(wb[None, :, None], (n, n, n)) / (n * n)


def svc_bruteforce(f: SphericalGrid, psi: SphericalFilter) -> S2Signal:
    """Voxel correlation by direct quadrature over the Euler grid.

    The gamma integral is the mean of the signal over shifted gamma
    indices; the group integral is the weighted sum of
    ``psi_T(R^-1 T(p)) * gbar(R)`` over all grid rotations.  The filter
    sees only ``(R^-1 T(p)) @ n = R^T @ (T(p) @ n)``, and
    ``T(p) @ n`` is the grid direction of p (:func:`harmonics.grid_dirs`)
    whatever its radial index: that is the gamma-constancy constraint at
    work, so the output is the ``(2B, 2B, C_out)`` sphere signal shared by
    every radial bin.
    """
    B = f.bandwidth
    if psi.bandwidth != B:
        raise ValueError(f"bandwidth mismatch: signal B={B}, filter B={psi.bandwidth}")
    n = 2 * B
    c_in, (c_out, psi_c_in) = f.channels, psi.coeffs.shape[1:]
    if psi_c_in != c_in:
        raise ValueError(f"channel mismatch: signal C={c_in}, filter C_in={psi_c_in}")

    # inner integral: mean over the gamma circle; a gamma shift permutes the
    # index circle, so the mean is the same for every base rotation on a fiber
    gbar = gamma_average(f).data  # (2B, 2B, C_in), a function of R @ n

    Rs = _euler_grid_rotations(B).reshape(-1, 3, 3)
    w = _haar_weights(B).reshape(-1)
    # gbar depends only on the (alpha, beta) part of R; expand along gamma fibers
    g_per_rot = np.repeat(gbar.reshape(n * n, 1, c_in), n, axis=1).reshape(-1, c_in)
    gw = g_per_rot * w[:, None]

    U = sh.grid_dirs(B)  # T(p) @ n for p in any radial bin
    out_dir = np.empty((n * n, c_out))
    # per direction: its rotated filter arguments and their filter values
    row_bytes = 8 * Rs.shape[0] * max(3, c_out * c_in)
    for rows in chunks._point_chunks(n * n, row_bytes, chunks._LOOP_CHUNK_BYTES):
        dirs = np.einsum("rji,pj->pri", Rs, U[rows])
        vals = sh.sh_eval(psi.coeffs, dirs.reshape(-1, 3))
        vals = vals.reshape(-1, Rs.shape[0], c_out, c_in)
        out_dir[rows] = np.einsum("prij,rj->pi", vals, gw)
    return S2Signal(B, out_dir.reshape(n, n, c_out))


def _zonal_rows(psi: SphericalFilter, B: int) -> np.ndarray:
    """The filter's zonal coefficients ``psi_l0``, shape ``(B, C_out, C_in)``."""
    if psi.bandwidth != B:
        raise ValueError(f"bandwidth mismatch: signal B={B}, filter B={psi.bandwidth}")
    return psi.coeffs[[sh.coeff_index(l, 0) for l in range(B)]]


def svc_coeffs(g_hat: np.ndarray, zonal: np.ndarray) -> np.ndarray:
    """Voxel correlation in coefficient space: the per-degree product.

    ``g_hat`` holds the B^2 SH coefficients ``(B^2, C_in)`` of a
    gamma-averaged signal, ``zonal`` the filter's zonal rows ``psi_l0``,
    ``(B, C_out, C_in)`` (non-zonal components integrate out); the result
    is the output's ``(B^2, C_out)`` coefficients.
    """
    n = len(g_hat)
    if zonal.ndim != 3 or len(zonal) ** 2 != n:
        raise ValueError(f"zonal rows {zonal.shape} are not (B, C_out, C_in) for B^2 = {n} coefficients")
    if zonal.shape[2] != g_hat.shape[1]:
        raise ValueError(f"channel mismatch: signal C={g_hat.shape[1]}, filter C_in={zonal.shape[2]}")
    out = np.empty((n, zonal.shape[1]))
    # out_lm[c_out] = sum_cin g_lm[cin] * psi_l0[c_out, cin] / sqrt(4 pi (2l + 1))
    for l, psi_l0 in enumerate(zonal):
        rows = slice(l * l, (l + 1) * (l + 1))
        np.matmul(g_hat[rows], (psi_l0 / np.sqrt(4.0 * np.pi * (2 * l + 1))).T, out=out[rows])
    return out


def svc_spectral(f: SphericalGrid, psi: SphericalFilter) -> S2Signal:
    """Voxel correlation through harmonic analysis and per-degree products.

    Same contract as :func:`svc_bruteforce`: :func:`svc_coeffs` on the
    coefficients of the gamma-averaged ``f`` and the zonal rows of ``psi``,
    synthesized on the sphere grid.
    """
    B = f.bandwidth
    g_hat = sh.sh_analysis(gamma_average(f).data, B)
    return S2Signal(B, sh.sh_synthesis(svc_coeffs(g_hat, _zonal_rows(psi, B)), B))


def rotate_grid(f: SphericalGrid, Q: np.ndarray) -> SphericalGrid:
    """Exact spectral rotation of a band-limited grid signal.

    Each radial shell is analyzed on the sphere and re-synthesized at the
    back-rotated grid directions, which realizes ``(L_Q f)(x) = f(Q^-1 x)``
    exactly for signals band-limited to degree <= B - 1.  ``Q`` must be a
    proper rotation (:class:`~rotalith.errors.InvalidRotationError`).
    """
    validate_rotation(Q)
    B = f.bandwidth
    n = 2 * B
    shells = f.data.reshape(n, n, -1)  # radial bins and channels flattened
    coeffs = sh.sh_analysis(shells, B)
    back = sh.grid_dirs(B) @ np.asarray(Q, dtype=float)  # rows are Q^-1 @ dir
    vals = sh.sh_eval(coeffs, back)
    return SphericalGrid(B, vals.reshape(f.data.shape))


def equivariance_report(
    f: SphericalGrid, psi: SphericalFilter, Q: np.ndarray
) -> dict[str, float]:
    """Audit point-wise invariance of the correlation under a rotation.

    Compares the correlation of the exactly rotated input, read at the
    rotated grid directions, against the correlation of the original input at
    the original directions.  Returns max and mean absolute errors over the
    grid; deterministic.  ``Q`` must be a proper rotation.
    """
    B = f.bandwidth
    zonal = _zonal_rows(psi, B)
    out_hat_rot = svc_coeffs(sh.sh_analysis(gamma_average(rotate_grid(f, Q)).data, B), zonal)
    out_hat = svc_coeffs(sh.sh_analysis(gamma_average(f).data, B), zonal)
    rotated = sh.grid_dirs(B) @ np.asarray(Q, dtype=float).T  # Q @ dir per row
    lhs = sh.sh_eval(out_hat_rot, rotated)  # [psi * L_Q f](Q p)
    rhs = sh.sh_synthesis(out_hat, B).reshape(lhs.shape)
    err = np.abs(lhs - rhs)
    return {"max_abs_err": float(err.max()), "mean_abs_err": float(err.mean())}
