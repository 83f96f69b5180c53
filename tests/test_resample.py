"""Grid re-sampling: node exactness, linear reproduction, boundary policy."""

import numpy as np

from rotalith.harmonics import alpha_nodes, beta_nodes, h_nodes
from rotalith.resample import bilinear_sample, trilinear_sample
from rotalith.voxelize import SphericalGrid


def _random_grid(B, seed, C=2):
    rng = np.random.default_rng(seed)
    return SphericalGrid(B, rng.standard_normal((2 * B, 2 * B, 2 * B, C)))


def test_exact_at_voxel_centers():
    B = 4
    grid = _random_grid(B, 0)
    ai, bj, hk = alpha_nodes(B), beta_nodes(B), h_nodes(B)
    for (i, j, k) in [(0, 0, 0), (3, 2, 5), (7, 7, 7), (5, 1, 2)]:
        out = trilinear_sample(grid, ai[i], bj[j], hk[k])
        assert np.abs(out[0] - grid.data[i, j, k]).max() < 1e-12


def test_midpoint_along_h_is_mean():
    B = 4
    grid = _random_grid(B, 1)
    ai, bj, hk = alpha_nodes(B), beta_nodes(B), h_nodes(B)
    mid = 0.5 * (hk[2] + hk[3])
    out = trilinear_sample(grid, ai[1], bj[1], mid)
    expected = 0.5 * (grid.data[1, 1, 2] + grid.data[1, 1, 3])
    assert np.abs(out[0] - expected).max() < 1e-12


def test_reproduces_index_linear_functions():
    B = 4
    n = 2 * B
    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    lin = (2.0 * ii - 3.0 * jj + 0.5 * kk + 1.0)[..., None]
    grid = SphericalGrid(B, lin)
    rng = np.random.default_rng(2)
    # interior fractional indices, away from the alpha seam
    fi = rng.uniform(0.0, n - 1.001, 100)
    fj = rng.uniform(0.0, n - 1.001, 100)
    fk = rng.uniform(0.0, n - 1.001, 100)
    alpha = fi * np.pi / B
    beta = (fj + 0.5) * np.pi / n
    h = fk / n
    out = trilinear_sample(grid, alpha, beta, h)
    expected = 2.0 * fi - 3.0 * fj + 0.5 * fk + 1.0
    assert np.abs(out[:, 0] - expected).max() < 1e-10


def test_alpha_wraps_beta_h_clamp():
    B = 4
    grid = _random_grid(B, 3)
    n = 2 * B
    # alpha seam: index 7.5 averages bins 7 and 0
    out = trilinear_sample(grid, 7.5 * np.pi / B, beta_nodes(B)[2], h_nodes(B)[1])
    expected = 0.5 * (grid.data[7, 2, 1] + grid.data[0, 2, 1])
    assert np.abs(out[0] - expected).max() < 1e-12
    # beta below the first row clamps to it
    out = trilinear_sample(grid, alpha_nodes(B)[1], 0.0, h_nodes(B)[1])
    assert np.abs(out[0] - grid.data[1, 0, 1]).max() < 1e-12
    # h beyond the last shell clamps to it
    out = trilinear_sample(grid, alpha_nodes(B)[1], beta_nodes(B)[1], 1.0)
    assert np.abs(out[0] - grid.data[1, 1, n - 1]).max() < 1e-12


def test_alpha_seam_continuity():
    B = 4
    grid = _random_grid(B, 4)
    eps = 1e-9
    lo = trilinear_sample(grid, 2 * np.pi - eps, beta_nodes(B)[3], 0.4)
    hi = trilinear_sample(grid, eps, beta_nodes(B)[3], 0.4)
    assert np.abs(lo - hi).max() < 1e-6


def test_partition_of_unity_via_constant_grid():
    B = 5
    grid = SphericalGrid(B, np.full((10, 10, 10, 3), 7.25))
    rng = np.random.default_rng(5)
    out = trilinear_sample(
        grid,
        rng.uniform(0, 2 * np.pi, 500),
        rng.uniform(0, np.pi, 500),
        rng.uniform(0, 1, 500),
    )
    assert np.abs(out - 7.25).max() < 1e-12


# ---------------------------------------------------------------------------
# bilinear sampling on the sphere
# ---------------------------------------------------------------------------


def test_bilinear_exact_at_nodes_and_keeps_trailing_axes():
    B = 4
    values = np.random.default_rng(5).standard_normal((2 * B, 2 * B, 3, 2))
    ai, bj = alpha_nodes(B), beta_nodes(B)
    idx = [(0, 0), (3, 2), (7, 7), (5, 1)]
    out = bilinear_sample(values, B, ai[[i for i, _ in idx]], bj[[j for _, j in idx]])
    assert out.shape == (4, 3, 2)
    for row, (i, j) in enumerate(idx):
        assert np.abs(out[row] - values[i, j]).max() < 1e-12


def test_bilinear_wraps_alpha_and_clamps_beta():
    B = 4
    n = 2 * B
    values = np.random.default_rng(6).standard_normal((n, n, 2))
    bj = beta_nodes(B)
    eps = 1e-9
    lo = bilinear_sample(values, B, np.array([2 * np.pi - eps]), np.array([bj[3]]))
    hi = bilinear_sample(values, B, np.array([eps]), np.array([bj[3]]))
    assert np.abs(lo - hi).max() < 1e-6
    mid = bilinear_sample(values, B, np.array([7.5 * np.pi / B]), np.array([bj[2]]))
    assert np.abs(mid[0] - 0.5 * (values[7, 2] + values[0, 2])).max() < 1e-12
    poles = bilinear_sample(values, B, alpha_nodes(B)[[1, 1]], np.array([0.0, np.pi]))
    assert np.abs(poles[0] - values[1, 0]).max() < 1e-12
    assert np.abs(poles[1] - values[1, n - 1]).max() < 1e-12


def test_bilinear_matches_trilinear_on_radially_constant_grid():
    B = 4
    n = 2 * B
    values = np.random.default_rng(7).standard_normal((n, n, 3))
    grid = SphericalGrid(B, np.broadcast_to(values[:, :, None, :], (n, n, n, 3)))
    rng = np.random.default_rng(8)
    alpha = rng.uniform(0.0, 2 * np.pi, 200)
    beta = rng.uniform(0.0, np.pi, 200)
    h = rng.uniform(0.0, 1.0, 200)
    out = bilinear_sample(values, B, alpha, beta)
    assert np.abs(out - trilinear_sample(grid, alpha, beta, h)).max() < 1e-12
