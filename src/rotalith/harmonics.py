"""Real spherical harmonics and exact quadrature on the offset equal-angle grid.

Grid conventions at bandwidth B (shared by the voxelizer, the rotation-group
signals, and the resampler):

* ``alpha_i = pi * i / B``            for i in [0, 2B)
* ``beta_j  = pi * (2j + 1) / (4B)``  for j in [0, 2B)   (offset, pole-free)
* ``gamma_k = 2*pi * k / (2B)``       for k in [0, 2B)   (the alpha nodes)
* ``h_k     = k / (2B)``              for k in [0, 2B)

The beta weights returned by :func:`beta_weights` integrate ``f(beta) *
sin(beta)`` exactly for trigonometric polynomials of degree < 2B, which is
what makes analysis/synthesis on this grid an exact round trip for
band-limited signals.

The real basis is orthonormal: ``Y_{l,0}`` is the zonal harmonic, and for
m > 0 the pair ``(Y_{l,m}, Y_{l,-m})`` carries ``sqrt(2) * P~_l^m(cos beta) *
(cos(m alpha), sin(m alpha))`` with the Condon-Shortley sign kept in the
Legendre recursion.  Coefficients are stored flat with ``index(l, m) =
l*l + l + m``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import chunks
from .geometry import spherical_to_cart


def alpha_nodes(B: int) -> np.ndarray:
    return np.pi * np.arange(2 * B) / B


def beta_nodes(B: int) -> np.ndarray:
    return np.pi * (2 * np.arange(2 * B) + 1) / (4 * B)


def h_nodes(B: int) -> np.ndarray:
    return np.arange(2 * B) / (2 * B)


def n_coeffs(L: int) -> int:
    return (L + 1) * (L + 1)


def coeff_index(l: int, m: int) -> int:
    return l * l + l + m


@lru_cache(maxsize=None)
def beta_weights(B: int) -> np.ndarray:
    """Quadrature weights on ``beta_nodes(B)``; total mass 2 = int sin(beta); read-only."""
    bj = beta_nodes(B)
    k = np.arange(B)
    terms = np.sin((2 * k[None, :] + 1) * bj[:, None]) / (2 * k[None, :] + 1)
    w = (2.0 / B) * np.sin(bj) * terms.sum(axis=1)
    w.setflags(write=False)
    return w


def grid_area_weights(B: int) -> np.ndarray:
    """Full S^2 quadrature weights, shape (2B, 2B) over (alpha, beta); mass 4*pi."""
    return np.broadcast_to(beta_weights(B)[None, :] * (np.pi / B), (2 * B, 2 * B))


def _sh_block(L: int, dirs: np.ndarray) -> np.ndarray:
    """Real SH basis at unit vectors ``(n, 3)``, coefficient-major ``((L+1)^2, n)``.

    ``cos(beta)`` is the z component and ``sin(beta)`` is ``hypot(x, y)``,
    which stays accurate near the poles where ``sqrt(1 - z^2)`` cancels.  The
    azimuthal factors follow the angle-addition recurrence from the first
    harmonic; on the poles the azimuth defaults to 0, where the Legendre
    factors vanish for m > 0 anyway.  Per order m the normalized Legendre
    values climb in degree l >= m from the sectoral ``P~_m^m``.
    """
    n = dirs.shape[0]
    x, y, z = dirs[:, 0], dirs[:, 1], np.clip(dirs[:, 2], -1.0, 1.0)
    s = np.hypot(x, y)
    safe = np.maximum(s, np.finfo(float).tiny)
    c1 = np.where(s > 0.0, x / safe, 1.0)
    s1 = np.where(s > 0.0, y / safe, 0.0)
    out = np.empty((n_coeffs(L), n))
    sect = np.full(n, 1.0 / np.sqrt(4.0 * np.pi))  # P~_m^m
    cm, sm = np.ones(n), np.zeros(n)  # cos(m alpha), sin(m alpha)
    for m in range(L + 1):
        if m > 0:
            sect = -np.sqrt((2 * m + 1) / (2.0 * m)) * s * sect
            cm, sm = cm * c1 - sm * s1, sm * c1 + cm * s1
        p_prev, p = None, sect
        for l in range(m, L + 1):
            if l == m + 1:
                p_prev, p = p, np.sqrt(2 * m + 3.0) * z * p
            elif l > m + 1:
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p_prev, p = p, a * (z * p - b * p_prev)
            if m == 0:
                out[coeff_index(l, 0)] = p
            else:
                pm = np.sqrt(2.0) * p
                np.multiply(pm, cm, out=out[coeff_index(l, m)])
                np.multiply(pm, sm, out=out[coeff_index(l, -m)])
    return out


def _degree(coeffs: np.ndarray) -> int:
    """Degree cutoff L of a coefficient array with ``(L+1)^2`` leading rows."""
    L = int(round(np.sqrt(coeffs.shape[0]))) - 1
    if n_coeffs(L) != coeffs.shape[0]:
        raise ValueError(f"coefficient count {coeffs.shape[0]} is not a perfect square")
    return L


def sh_eval(coeffs: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Evaluate coefficients ``((L+1)^2, ...)`` at unit vectors ``(N, 3)`` -> ``(N, ...)``."""
    c = np.asarray(coeffs, dtype=float)
    L = _degree(c)
    dirs = np.asarray(dirs, dtype=float)
    cmat = c.reshape(c.shape[0], -1)
    vals = np.empty((dirs.shape[0], cmat.shape[1]))
    # one coefficient-major basis block of (L+1)^2 float64 per direction
    for rows in chunks._point_chunks(dirs.shape[0], 8 * n_coeffs(L), chunks._LOOP_CHUNK_BYTES):
        vals[rows] = _sh_block(L, dirs[rows]).T @ cmat
    return vals.reshape((dirs.shape[0],) + c.shape[1:])


def grid_dirs(B: int) -> np.ndarray:
    """Unit vectors of the (alpha, beta) grid nodes, shape ``(4B^2, 3)``, alpha-major."""
    A, Bb = np.meshgrid(alpha_nodes(B), beta_nodes(B), indexing="ij")
    return spherical_to_cart(A, Bb, 1.0).reshape(-1, 3)


def _flat_layout(B: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order ``|m|``, degree ``l`` and part (0 cos, 1 sin) of each of the B^2 flat coefficients."""
    l = np.repeat(np.arange(B), 2 * np.arange(B) + 1)
    m = np.arange(B * B) - l * l - l
    return np.abs(m), l, (m < 0).astype(np.intp)


@lru_cache(maxsize=None)
def _legendre_table(B: int) -> np.ndarray:
    """``(m, l, beta)`` table of ``Y_{l,m}`` at the beta nodes and alpha = 0.

    That is ``P~_l^0`` for m = 0 and ``sqrt(2) * P~_l^m`` for m > 0, for
    every degree l < B; entries with l < m are zero.  Shape ``(B, B, 2B)``.
    """
    beta = beta_nodes(B)
    block = _sh_block(B - 1, np.stack([np.sin(beta), np.zeros_like(beta), np.cos(beta)], axis=1))
    m, l, part = _flat_layout(B)
    table = np.zeros((B, B, 2 * B))
    table[m[part == 0], l[part == 0]] = block[part == 0]
    table.setflags(write=False)
    return table


def sh_analysis(values: np.ndarray, B: int) -> np.ndarray:
    """Grid values ``(2B, 2B, ...)`` to the ``(B^2, ...)`` coefficients of degrees l < B.

    Exact for signals band-limited to degree < B.  Separable: an FFT over
    alpha, then per order m the Legendre table over beta.  The cos (+m)
    coefficients come from ``Re F_m`` and the sin (-m) ones from ``-Im F_m``.
    """
    v = np.asarray(values, dtype=float)
    n, lead = 2 * B, v.shape[2:]
    if v.shape[:2] != (n, n):
        raise ValueError(f"grid values {v.shape} are not (2B, 2B, ...) for bandwidth B={B}")
    spec = np.fft.rfft(v.reshape(n, n, -1), axis=0)[:B]  # (m, beta, K) complex
    pairs = np.ascontiguousarray(spec).view(float)  # (m, beta, 2K): (Re, Im) per channel
    out = (_legendre_table(B) * (beta_weights(B) * (np.pi / B))) @ pairs  # (m, l, 2K)
    m, l, part = _flat_layout(B)
    sign = 1.0 - 2.0 * part  # -Im F_m for the sin part
    coeffs = out.reshape(B, B, -1, 2)[m, l, :, part] * sign[:, None]
    return coeffs.reshape((B * B,) + lead)


def sh_synthesis(coeffs: np.ndarray, B: int) -> np.ndarray:
    """The ``(B^2, ...)`` coefficients of degrees l < B to grid values ``(2B, 2B, ...)``.

    Separable: per order m the Legendre table over l, then an inverse FFT
    over alpha.  Degrees stop at B - 1, so the Nyquist order stays zero.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape[:1] != (B * B,):
        raise ValueError(f"coefficients {c.shape} do not have the {B * B} rows of bandwidth B={B}")
    n, lead = 2 * B, c.shape[1:]
    flat = c.reshape(B * B, -1)
    m, l, part = _flat_layout(B)
    # irfft divides by 2B and adds each order m > 0 twice, so its input row m
    # is B (a_m - i b_m) and row 0 is 2B a_0, with a, b the cos and sin sums
    scale = np.where(part == 1, -B, np.where(m == 0, 2 * B, B))
    pairs = np.zeros((B, B, flat.shape[1], 2))  # (m, l, K, (re, im))
    pairs[m, l, :, part] = flat * scale[:, None]
    spec = np.zeros((B + 1, n, 2 * flat.shape[1]))  # orders up to Nyquist, so irfft need not pad
    np.matmul(_legendre_table(B).transpose(0, 2, 1), pairs.reshape(B, B, -1), out=spec[:B])
    values = np.fft.irfft(spec.view(complex), n=n, axis=0)  # (alpha, beta, K)
    return values.reshape((n, n) + lead)
