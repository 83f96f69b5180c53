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

* outputs are constant along the radial axis (asserted by the brute-force
  path), so every correlation returns a ``(2B, 2B, C_out)`` :class:`S2Signal`;
* only the zonal part of the filter survives, so the spectral path reduces to
  a per-degree product: ``out_lm = g_lm * psi_l0 / sqrt(4*pi*(2l+1))`` where
  ``g`` is the gamma-averaged signal.

:func:`svc_sphere` is the one spectral kernel: it maps a gamma-averaged
``(2B, 2B, C_in)`` sphere signal and the zonal rows ``psi_l0`` to the output,
so layers chain on the sphere.  :func:`svc_spectral` applies it to a ball grid.
:func:`svc_bruteforce` never forms coefficients; it sums the integrand over
the full Euler grid and serves as the independent oracle for
:func:`svc_spectral`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import chunks
from . import harmonics as sh
from .geometry import euler_to_matrix
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


def filter_eval(psi: SphericalFilter, R: np.ndarray) -> np.ndarray:
    """Evaluate the group filter at rotation(s) R: ``psi_s2(R @ n)``.

    Evaluated exactly from the coefficients; returns shape
    ``(..., C_out, C_in)``.
    """
    R = np.asarray(R, dtype=float)
    dirs = R[..., :, 2]  # R @ north pole is the third column
    lead = dirs.shape[:-1]
    vals = sh.sh_eval(psi.coeffs, dirs.reshape(-1, 3))
    return vals.reshape(lead + vals.shape[1:])


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
    ``filter_eval(psi, R^-1 T(p)) * gbar(R)`` over all grid rotations.
    Radial constancy of the output is asserted through the filter arguments:
    ``(R^-1 T(p)) @ n`` must be identical for every radial index of p, which
    is exactly the gamma-constancy constraint at work, so the output is the
    ``(2B, 2B, C_out)`` sphere signal shared by every radial bin.
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

    ai = sh.alpha_nodes(B)
    bj = sh.beta_nodes(B)
    A, Bb = np.meshgrid(ai, bj, indexing="ij")

    # the filter only ever sees (R^-1 T(p)) @ n = R^T @ (T(p) @ n); check that
    # the radial coordinate of p drops out of that argument for every slice
    u0 = euler_to_matrix(A, Bb, 0.0)[..., :, 2]
    for k in (0, B, 2 * B - 1):
        uk = euler_to_matrix(A, Bb, 2.0 * np.pi * sh.h_nodes(B)[k])[..., :, 2]
        spread = np.abs(uk - u0).max()
        if spread > 1e-10:
            raise AssertionError(
                f"filter argument varies along the radial axis (spread {spread:.3e}); "
                "output would not be radially constant"
            )

    U = u0.reshape(-1, 3)
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


def _svc_output_coeffs(g: S2Signal, zonal: np.ndarray) -> np.ndarray:
    B = g.bandwidth
    if zonal.ndim != 3 or len(zonal) != B:
        raise ValueError(f"zonal rows {zonal.shape} are not (B, C_out, C_in) for bandwidth {B}")
    if zonal.shape[2] != g.channels:
        raise ValueError(f"channel mismatch: signal C={g.channels}, filter C_in={zonal.shape[2]}")
    g_hat = sh.sh_analysis(g.data, B)  # (B^2, C_in)
    out = np.empty((g_hat.shape[0], zonal.shape[1]))
    # out_lm[c_out] = sum_cin g_lm[cin] * psi_l0[c_out, cin] / sqrt(4 pi (2l + 1))
    for l, psi_l0 in enumerate(zonal):
        rows = slice(l * l, (l + 1) * (l + 1))
        np.matmul(g_hat[rows], (psi_l0 / np.sqrt(4.0 * np.pi * (2 * l + 1))).T, out=out[rows])
    return out


def svc_sphere(g: S2Signal, zonal: np.ndarray) -> S2Signal:
    """Voxel correlation of a gamma-averaged signal, kept on the sphere.

    ``g`` is the ``(2B, 2B, C_in)`` gamma average of the input, ``zonal``
    the filter's zonal rows ``psi_l0``, ``(B, C_out, C_in)`` (non-zonal
    components integrate out); the result is ``(2B, 2B, C_out)``.
    """
    return S2Signal(g.bandwidth, sh.sh_synthesis(_svc_output_coeffs(g, zonal), g.bandwidth))


def svc_spectral(f: SphericalGrid, psi: SphericalFilter) -> S2Signal:
    """Voxel correlation through harmonic analysis and per-degree products.

    Same contract as :func:`svc_bruteforce`: the :func:`svc_sphere` output of
    the gamma-averaged ``f`` and the zonal rows of ``psi``.
    """
    return svc_sphere(gamma_average(f), _zonal_rows(psi, f.bandwidth))


def rotate_grid(f: SphericalGrid, Q: np.ndarray) -> SphericalGrid:
    """Exact spectral rotation of a band-limited grid signal.

    Each radial shell is analyzed on the sphere and re-synthesized at the
    back-rotated grid directions, which realizes ``(L_Q f)(x) = f(Q^-1 x)``
    exactly for signals band-limited to degree <= B - 1.
    """
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
    grid; deterministic.
    """
    B = f.bandwidth
    out_hat_rot = _svc_output_coeffs(gamma_average(rotate_grid(f, Q)), _zonal_rows(psi, B))
    out_hat = _svc_output_coeffs(gamma_average(f), _zonal_rows(psi, B))
    rotated = sh.grid_dirs(B) @ np.asarray(Q, dtype=float).T  # Q @ dir per row
    lhs = sh.sh_eval(out_hat_rot, rotated)  # [psi * L_Q f](Q p)
    rhs = sh.sh_synthesis(out_hat, B).reshape(lhs.shape)
    err = np.abs(lhs - rhs)
    return {"max_abs_err": float(err.max()), "mean_abs_err": float(err.mean())}
