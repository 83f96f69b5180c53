"""Voxelizer unit behavior: window membership, shift equivariance, invariances."""

import tracemalloc
import warnings

import numpy as np
import pytest

import rotalith.chunks as chunks
from rotalith.errors import InputFormatError
from rotalith.geometry import cart_to_spherical, rot_z, spherical_to_cart
from rotalith.harmonics import alpha_nodes, beta_nodes, h_nodes
from rotalith.voxelize import (
    SamplingConfig,
    _voxelize_spherical,
    grid_shift_alpha,
    normalize_cloud,
    voxelize,
)

XI = 1.0 / 32.0


def _cloud(seed, n=512):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(0.05, 0.999, (n, 1))


def test_point_at_voxel_center_gives_xi():
    B = 4
    ai, bj, hk = alpha_nodes(B), beta_nodes(B), h_nodes(B)
    pt = spherical_to_cart(ai[3], bj[2], hk[5])
    grid = voxelize(pt[None, :], B, SamplingConfig(xi=XI))
    assert np.isclose(grid.data[3, 2, 5, 0], XI)
    # no other voxel sees the point in alpha/beta at this xi and bandwidth
    assert np.count_nonzero(grid.data[:, :, :, 0].sum(axis=2)) == 1


def test_point_offset_in_h_gives_xi_minus_delta():
    B = 4
    ai, bj, hk = alpha_nodes(B), beta_nodes(B), h_nodes(B)
    delta = 0.01
    pt = spherical_to_cart(ai[3], bj[2], hk[5] + delta)
    grid = voxelize(pt[None, :], B, SamplingConfig(xi=XI))
    assert np.isclose(grid.data[3, 2, 5, 0], XI - delta)


def test_daas_beta_window_narrows_near_pole():
    B = 8
    bj = beta_nodes(B)
    j = 0  # pole-adjacent row, sin(beta) ~ 0.098
    assert np.sin(bj[j]) < 0.1
    offset = 0.01
    pt = spherical_to_cart(alpha_nodes(B)[2], bj[j] + offset, h_nodes(B)[8])
    g_uniform = voxelize(pt[None, :], B, SamplingConfig(xi=XI, mode="uniform"))
    g_daas = voxelize(pt[None, :], B, SamplingConfig(xi=XI, mode="daas"))
    assert g_uniform.data[2, j, 8, 0] > 0.0  # 0.01 < 1/32
    assert g_daas.data[2, j, 8, 0] == 0.0  # 0.01 > sin(beta) * 1/32


def test_errors():
    with pytest.raises(InputFormatError):
        voxelize(np.zeros((0, 3)), 4, SamplingConfig())
    with pytest.raises(InputFormatError):
        voxelize(np.zeros((4, 3)), 1, SamplingConfig())
    with pytest.raises(ValueError):
        SamplingConfig(xi=-1.0)
    for xi in (np.inf, np.nan):
        with pytest.raises(ValueError, match="xi"):
            SamplingConfig(xi=xi)
    with pytest.raises(ValueError):
        SamplingConfig(mode="other")


def test_grid_shift_identities():
    grid = voxelize(_cloud(0), 4, SamplingConfig())
    assert np.array_equal(grid_shift_alpha(grid, 0).data, grid.data)
    assert np.array_equal(grid_shift_alpha(grid, 8).data, grid.data)
    fwd = grid_shift_alpha(grid, 3)
    assert np.array_equal(grid_shift_alpha(fwd, -3).data, grid.data)


@pytest.mark.parametrize("mode", ["daas", "uniform"])
def test_z_rotation_shift_equivariance(mode):
    B = 8
    cfg = SamplingConfig(xi=XI, mode=mode)
    for seed in range(5):
        pts = _cloud(seed)
        base = voxelize(pts, B, cfg)
        for m in (1, 5, 11):
            Q = rot_z(2 * np.pi * m / (2 * B))
            rotated = voxelize(pts @ Q.T, B, cfg)
            assert np.abs(rotated.data - grid_shift_alpha(base, m).data).max() < 1e-12


def test_values_bounded_and_nonnegative():
    grid = voxelize(_cloud(3, n=4000), 8, SamplingConfig(xi=XI))
    assert grid.data.min() >= 0.0
    assert grid.data.max() <= XI + 1e-15


def test_permutation_invariance():
    pts = _cloud(4)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(pts))
    a = voxelize(pts, 4, SamplingConfig())
    b = voxelize(pts[perm], 4, SamplingConfig())
    assert np.abs(a.data - b.data).max() < 1e-12


def test_normalize_cloud():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((100, 3)) * 5.0 + 2.0
    out = normalize_cloud(pts)
    assert np.abs(out.mean(axis=0)).max() < 1e-12
    assert np.isclose(np.linalg.norm(out, axis=1).max(), 1.0)
    with pytest.raises(InputFormatError):
        normalize_cloud(np.zeros((5, 3)))
    for bad in (np.nan, np.inf):
        pts[6, 0] = bad
        with pytest.raises(InputFormatError, match="non-finite"):
            normalize_cloud(pts)
    # finite, but the norm overflows to inf (every point would map to the
    # origin) or the centroid sum does (every x would be NaN)
    for huge in ([[1e308] * 3, [0.0] * 3], [[1e308, 0, 0], [1.5e308, 0, 0], [0.0] * 3]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputFormatError, match="too large to normalize"):
                normalize_cloud(np.array(huge))


def test_alpha_window_wraps_at_seam():
    B = 4
    # a point just below alpha = 2*pi lands in the alpha = 0 bin window
    pt = spherical_to_cart(2 * np.pi - 0.01, beta_nodes(B)[4], 0.5)
    grid = voxelize(pt[None, :], B, SamplingConfig(xi=XI))
    assert grid.data[0, 4, 4, 0] > 0.0


def test_package_keeps_voxelize_submodule():
    import types

    import rotalith
    import rotalith.voxelize as vox_module

    assert isinstance(rotalith.voxelize, types.ModuleType)
    assert vox_module is rotalith.voxelize
    assert callable(vox_module.voxelize)


def _oracle(points, B, cfg):
    """Brute-force voxelizer: one window test per (point, voxel) pair."""
    ai, bj, hk = alpha_nodes(B), beta_nodes(B), h_nodes(B)
    eta = np.sin(bj) if cfg.mode == "daas" else np.ones(2 * B)
    num = np.zeros((2 * B, 2 * B, 2 * B))
    den = np.zeros((2 * B, 2 * B, 2 * B))
    alpha, beta, h = cart_to_spherical(points)
    for a, b, r in zip(alpha, beta, h):
        for i in range(2 * B):
            da = abs(a - ai[i]) % (2 * np.pi)
            if min(da, 2 * np.pi - da) >= cfg.xi:
                continue
            for j in range(2 * B):
                if abs(b - bj[j]) >= eta[j] * cfg.xi:
                    continue
                for k in range(2 * B):
                    if abs(r - hk[k]) < cfg.xi:
                        num[i, j, k] += cfg.xi - abs(r - hk[k])
                        den[i, j, k] += 1.0
    return np.where(den > 0.0, num / np.maximum(den, 1.0), 0.0)


def _seam_and_pole_points(B):
    """Points just either side of the alpha seam and next to both poles."""
    eps = 1e-3
    rows = [
        (2 * np.pi - eps, beta_nodes(B)[1], 0.4),
        (eps, beta_nodes(B)[2], 0.7),
        (2 * np.pi - 0.2, np.pi / 2, 0.9),
        (0.3, eps, 0.5),
        (5.0, np.pi - eps, 0.6),
        (0.0, 0.0, 0.3),
        (0.0, np.pi, 0.8),
    ]
    return np.array([spherical_to_cart(a, b, r) for a, b, r in rows])


@pytest.mark.parametrize("B", [2, 4])
@pytest.mark.parametrize("mode", ["daas", "uniform"])
@pytest.mark.parametrize("xi", [0.1, 0.4, 3.0, 3.3, 4.0])
def test_matches_bruteforce_oracle(B, mode, xi):
    cfg = SamplingConfig(xi=xi, mode=mode)
    pts = np.concatenate([_cloud(B, n=60), _seam_and_pole_points(B)])
    got = voxelize(pts, B, cfg).data[..., 0]
    want = _oracle(pts, B, cfg)
    assert np.array_equal(got != 0.0, want != 0.0)
    assert np.count_nonzero(want) > 0
    assert np.abs(got - want).max() <= 1e-14


def test_point_chunks_cover_rows_in_near_equal_chunks(monkeypatch):
    monkeypatch.setattr(chunks, "_CHUNK_BYTES", 80)
    for n, row_bytes in ((1, 8), (10, 8), (11, 8), (1000, 8), (7, 1000)):
        parts = chunks._point_chunks(n, row_bytes)
        sizes = [c.stop - c.start for c in parts]
        assert parts[0].start == 0 and parts[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(parts[:-1], parts[1:]))
        assert max(sizes) <= max(1, 80 // row_bytes)
        assert max(sizes) - min(sizes) <= 1
    assert chunks._point_chunks(0, 8) == []  # no rows, no chunks


def test_wide_window_grid_independent_of_chunk_budget(monkeypatch):
    # xi = 1 at B = 8 gives 7 x 12 x 34 candidate voxels per point
    B, cfg = 8, SamplingConfig(xi=1.0)
    pts = _cloud(11, n=300)
    default = voxelize(pts, B, cfg).data
    per_point = 8 * 7 * 12 * 34
    for budget in (1, 3 * per_point, 5 * per_point + 7):
        monkeypatch.setattr(chunks, "_LOOP_CHUNK_BYTES", budget)
        assert np.array_equal(voxelize(pts, B, cfg).data, default)


def test_voxelize_holds_no_grid_temporaries_beyond_its_sums():
    # 200 points at B = 32 leave small chunk temporaries beside the two
    # (2B)^3 sums; the mean is divided into one of them, which becomes the grid
    B, cfg = 32, SamplingConfig(xi=XI)
    alpha, beta, h = cart_to_spherical(_cloud(12, n=200))
    tracemalloc.start()
    try:
        grid = _voxelize_spherical(alpha, beta, h, B, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * grid.data.nbytes  # 5 MiB; each full-grid temporary adds 2 MiB
