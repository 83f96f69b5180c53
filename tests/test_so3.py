"""Rotation-group correlation: oracle agreement, closed forms, equivariance."""

import numpy as np
import pytest

from rotalith import harmonics as sh
from rotalith.errors import InvalidRotationError
from rotalith.geometry import euler_to_matrix, random_rotation, rot_z
from rotalith.so3 import (
    S2Signal,
    SphericalFilter,
    equivariance_report,
    gamma_average,
    rotate_grid,
    svc_bruteforce,
    svc_coeffs,
    svc_spectral,
)
from rotalith.voxelize import SphericalGrid, grid_shift_alpha


def band_limited_grid(B, seed, channels=1):
    """Random grid whose every radial shell is band-limited to degree B-1."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((sh.n_coeffs(B - 1), 2 * B * channels))
    values = sh.sh_synthesis(coeffs, B)
    return SphericalGrid(B, values.reshape(2 * B, 2 * B, 2 * B, channels))


def random_filter(B, seed, c_out=1, c_in=1):
    rng = np.random.default_rng(seed)
    return SphericalFilter(B, coeffs=rng.standard_normal((sh.n_coeffs(B - 1), c_out, c_in)))


def zonal_rows(psi):
    """The filter's zonal coefficients psi_l0, (B, C_out, C_in)."""
    return psi.coeffs[[sh.coeff_index(l, 0) for l in range(psi.bandwidth)]]


def constant_filter(B, value):
    coeffs = np.zeros((sh.n_coeffs(B - 1), 1, 1))
    coeffs[0, 0, 0] = value * np.sqrt(4 * np.pi)
    return SphericalFilter(B, coeffs=coeffs)


def sphere_mean(s2: S2Signal) -> np.ndarray:
    w = sh.grid_area_weights(s2.bandwidth)
    return np.einsum("ab,abc->c", w, s2.data) / (4 * np.pi)


# ---------------------------------------------------------------------------
# gamma average
# ---------------------------------------------------------------------------


def test_gamma_average_constant_and_delta():
    B = 3
    rng = np.random.default_rng(0)
    slice_ab = rng.standard_normal((6, 6, 1))
    const = np.repeat(slice_ab[:, :, None, :], 6, axis=2)
    g = gamma_average(SphericalGrid(B, const))
    assert np.abs(g.data - slice_ab).max() < 1e-15

    data = np.zeros((6, 6, 6, 1))
    data[2, 3, 4, 0] = 5.0
    g = gamma_average(SphericalGrid(B, data))
    assert np.isclose(g.data[2, 3, 0], 5.0 / 6.0)


def test_gamma_average_conserves_weighted_mass():
    B = 4
    grid = band_limited_grid(B, 7)
    g = gamma_average(grid)
    w = sh.grid_area_weights(B)
    lhs = np.einsum("ab,abc->c", w, g.data)
    rhs = np.einsum("ab,abkc->c", w, grid.data) / (2 * B)
    assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------


def test_filter_rejects_malformed_coefficients():
    with pytest.raises(ValueError, match="C_out, C_in"):
        SphericalFilter(4, coeffs=np.zeros((16, 1)))
    # a filter holds every degree l < B: any row count but B^2 is rejected,
    # whether it is not a square (5), a lower degree (1, 9) or degree B (25)
    for B, rows in ((4, 0), (4, 1), (4, 5), (4, 9), (4, sh.n_coeffs(4)), (0, 0)):
        with pytest.raises(ValueError, match=rf"\(B\^2, C_out, C_in\) for B={B}"):
            SphericalFilter(B, coeffs=np.zeros((rows, 1, 1)))
    assert SphericalFilter(4, coeffs=np.zeros((16, 2, 3))).coeffs.shape == (16, 2, 3)


# ---------------------------------------------------------------------------
# spherical voxel convolution
# ---------------------------------------------------------------------------


def test_svc_zero_signal():
    B = 4
    f = SphericalGrid(B, np.zeros((8, 8, 8, 1)))
    psi = random_filter(B, 0)
    assert np.abs(svc_bruteforce(f, psi).data).max() == 0.0
    assert np.abs(svc_spectral(f, psi).data).max() == 0.0


@pytest.mark.parametrize("impl", [svc_bruteforce, svc_spectral])
def test_svc_constant_filter_closed_form(impl):
    B = 4
    f = band_limited_grid(B, 2)
    c = 1.7
    out = impl(f, constant_filter(B, c))
    expected = c * sphere_mean(gamma_average(f))[0]
    assert np.abs(out.data - expected).max() < 1e-10


def test_svc_spectral_matches_bruteforce():
    # B = 8 on the same 20 grid seeds is acceptance criterion 04
    B = 4
    for seed in range(20):
        f = band_limited_grid(B, seed)
        psi = random_filter(B, 1000 + seed)
        a = svc_bruteforce(f, psi)
        b = svc_spectral(f, psi)
        scale = np.abs(a.data).max()
        assert np.abs(a.data - b.data).max() / scale < 1e-6


def test_svc_multichannel_agreement():
    B = 4
    f = band_limited_grid(B, 5, channels=2)
    psi = random_filter(B, 6, c_out=3, c_in=2)
    a = svc_bruteforce(f, psi)
    b = svc_spectral(f, psi)
    assert a.data.shape == b.data.shape == (8, 8, 3)
    assert np.abs(a.data - b.data).max() / np.abs(a.data).max() < 1e-6


def test_svc_grid_z_rotation_shift_oracle():
    B = 4
    for seed in range(5):
        f = band_limited_grid(B, seed)
        psi = random_filter(B, 50 + seed)
        out = svc_spectral(f, psi)
        for m in (1, 3, 6):
            f_rot = grid_shift_alpha(f, m)
            out_rot = svc_spectral(f_rot, psi)
            assert np.abs(out_rot.data - np.roll(out.data, m, axis=0)).max() < 1e-10


def test_svc_bruteforce_grid_z_rotation_shift_oracle():
    B = 4
    f = band_limited_grid(B, 3)
    psi = random_filter(B, 53)
    out = svc_bruteforce(f, psi)
    for m in (1, 5):
        out_rot = svc_bruteforce(grid_shift_alpha(f, m), psi)
        assert np.abs(out_rot.data - np.roll(out.data, m, axis=0)).max() < 1e-10


def test_svc_linearity():
    B = 4
    f1 = band_limited_grid(B, 1)
    f2 = band_limited_grid(B, 2)
    psi = random_filter(B, 3)
    a, b = 1.3, -0.7
    combo = SphericalGrid(B, a * f1.data + b * f2.data)
    lhs = svc_spectral(combo, psi).data
    rhs = a * svc_spectral(f1, psi).data + b * svc_spectral(f2, psi).data
    assert np.abs(lhs - rhs).max() < 1e-10


def test_svc_output_radially_constant():
    # the quadrature at a point p of any radial slice reproduces the sphere
    # output, with the group filter evaluated at R^-1 T(p) itself
    B = 4
    n = 2 * B
    f = band_limited_grid(B, 9)
    psi = random_filter(B, 9)
    out = svc_bruteforce(f, psi)
    assert out.data.shape == (n, n, 1)
    ai, bj = sh.alpha_nodes(B), sh.beta_nodes(B)
    Rs = euler_to_matrix(*np.meshgrid(ai, bj, ai, indexing="ij")).reshape(-1, 3, 3)
    w = np.broadcast_to(sh.beta_weights(B)[None, :, None] / (2.0 * n * n), (n, n, n)).reshape(-1)
    gbar = np.repeat(gamma_average(f).data[:, :, 0], n).reshape(-1)
    for i, j in ((0, 0), (3, 5), (7, 2)):
        for k in (0, B, n - 1):
            Tp = euler_to_matrix(ai[i], bj[j], 2.0 * np.pi * sh.h_nodes(B)[k])
            # the group filter at R^-1 T(p) is psi_s2 at its third column
            vals = sh.sh_eval(psi.coeffs, (np.swapaxes(Rs, 1, 2) @ Tp)[:, :, 2])[:, 0, 0]
            assert abs(np.sum(vals * w * gbar) - out.data[i, j, 0]) <= 1e-10


def sphere_kernel(f, zonal):
    """svc_coeffs between the analysis of the gamma average and synthesis."""
    B = f.bandwidth
    g_hat = sh.sh_analysis(gamma_average(f).data, B)
    return S2Signal(B, sh.sh_synthesis(svc_coeffs(g_hat, zonal), B))


def test_svc_spectral_is_sphere_kernel_of_gamma_average():
    B = 4
    f = band_limited_grid(B, 10, channels=3)
    psi = random_filter(B, 10, c_out=2, c_in=3)
    kernel = sphere_kernel(f, zonal_rows(psi))
    assert kernel.data.shape == (2 * B, 2 * B, 2)
    assert np.array_equal(svc_spectral(f, psi).data, kernel.data)


def test_svc_sphere_rejects_non_finite_output():
    B = 4
    coeffs = random_filter(B, 11).coeffs.copy()
    coeffs[0, 0, 0] = np.inf
    f = SphericalGrid(B, np.ones((2 * B, 2 * B, 2 * B, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        svc_spectral(f, SphericalFilter(B, coeffs=coeffs))


@pytest.mark.parametrize("l", [0, 1, 3])
def test_svc_coeffs_is_a_per_degree_product(l):
    # coefficients supported on degree l map to degree l, scaled by the
    # zonal row psi_l0 and 1 / sqrt(4 pi (2l + 1))
    B = 4
    rng = np.random.default_rng(l)
    g_hat = np.zeros((B * B, 3))
    rows = slice(l * l, (l + 1) * (l + 1))
    g_hat[rows] = rng.standard_normal((2 * l + 1, 3))
    zonal = rng.standard_normal((B, 2, 3))
    out = svc_coeffs(g_hat, zonal)
    assert out.shape == (B * B, 2)
    expected = np.zeros_like(out)
    expected[rows] = g_hat[rows] @ zonal[l].T / np.sqrt(4 * np.pi * (2 * l + 1))
    assert np.abs(out - expected).max() < 1e-15


def test_svc_bandwidth_and_channel_mismatch():
    f = band_limited_grid(4, 0)
    with pytest.raises(ValueError):
        svc_spectral(f, random_filter(8, 0))
    with pytest.raises(ValueError):
        svc_spectral(f, random_filter(4, 0, c_in=2))
    g_hat = np.zeros((16, 1))
    with pytest.raises(ValueError, match=r"\(8, 1, 1\) .* B\^2 = 16"):
        svc_coeffs(g_hat, zonal_rows(random_filter(8, 0)))
    with pytest.raises(ValueError, match="channel"):
        svc_coeffs(g_hat, zonal_rows(random_filter(4, 0, c_in=2)))


@pytest.mark.parametrize("L", [0, 2, 7])
def test_svc_spectral_reads_only_the_zonal_rows(L):
    # bitwise: the ball-grid API is svc_coeffs on the filter's B zonal rows,
    # also for a filter of degree L whose rows past (L+1)^2 are zero, and
    # zeroing every other row changes nothing
    B = 8
    f = band_limited_grid(B, 12, channels=2)
    coeffs = np.zeros((B * B, 3, 2))
    coeffs[: sh.n_coeffs(L)] = np.random.default_rng(L).standard_normal((sh.n_coeffs(L), 3, 2))
    psi = SphericalFilter(B, coeffs=coeffs)
    zonal = zonal_rows(psi)
    assert zonal.shape == (B, 3, 2) and not zonal[L + 1 :].any()
    out = svc_spectral(f, psi).data
    assert np.array_equal(out, sphere_kernel(f, zonal).data)
    only_zonal = np.zeros_like(coeffs)
    only_zonal[[sh.coeff_index(l, 0) for l in range(B)]] = zonal
    assert np.array_equal(out, svc_spectral(f, SphericalFilter(B, coeffs=only_zonal)).data)


@pytest.mark.parametrize(
    "shape,match",
    [
        ((4, 1), "zonal rows"),
        ((4, 1, 1, 1), "zonal rows"),
        ((0, 1, 1), "zonal rows"),
        ((3, 1, 1), r"B\^2 = 16"),
        ((5, 1, 1), r"B\^2 = 16"),
        ((16, 1, 1), r"B\^2 = 16"),
        ((4, 1, 2), "channel"),
    ],
    ids=["rank-2", "rank-4", "no-rows", "below-B", "degree-B", "full-sh-rows", "c-in"],
)
def test_svc_sphere_rejects_malformed_zonal_rows(shape, match):
    with pytest.raises(ValueError, match=match):
        svc_coeffs(np.ones((16, 1)), np.ones(shape))


def test_nonzonal_filter_components_do_not_contribute():
    # the coset average kills every m != 0 component; the brute force only
    # realizes that through numerical cancellation of the gamma sum
    B = 4
    f = band_limited_grid(B, 4)
    coeffs = np.zeros((sh.n_coeffs(B - 1), 1, 1))
    coeffs[sh.coeff_index(2, 1), 0, 0] = 2.0
    coeffs[sh.coeff_index(3, -2), 0, 0] = -1.0
    psi = SphericalFilter(B, coeffs=coeffs)
    out = svc_bruteforce(f, psi)
    assert np.abs(out.data).max() < 1e-12


# ---------------------------------------------------------------------------
# rotation and the equivariance report
# ---------------------------------------------------------------------------


def test_rotate_grid_identity_and_composition():
    B = 6
    f = band_limited_grid(B, 3)
    assert np.abs(rotate_grid(f, np.eye(3)).data - f.data).max() < 1e-10
    Q = random_rotation(4)
    fr = rotate_grid(rotate_grid(f, Q), Q.T)
    assert np.abs(fr.data - f.data).max() < 1e-8


@pytest.mark.parametrize(
    "Q", [np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3), np.zeros((3, 3))], ids=["reflection", "2I", "zero"]
)
def test_rotate_grid_and_report_reject_non_rotations(Q):
    B = 4
    f = band_limited_grid(B, 1)
    with pytest.raises(InvalidRotationError):
        rotate_grid(f, Q)
    with pytest.raises(InvalidRotationError):
        equivariance_report(f, random_filter(B, 1), Q)


def test_equivariance_report_identity():
    B = 4
    rep = equivariance_report(band_limited_grid(B, 1), random_filter(B, 1), np.eye(3))
    assert rep["max_abs_err"] < 1e-12


def test_equivariance_report_grid_z():
    B = 8
    rep = equivariance_report(
        band_limited_grid(B, 2), random_filter(B, 2), rot_z(2 * np.pi * 3 / (2 * B))
    )
    assert rep["max_abs_err"] < 1e-10


def test_equivariance_report_haar():
    B = 8
    rng = np.random.default_rng(0)
    worst = 0.0
    for seed in range(5):
        rep = equivariance_report(
            band_limited_grid(B, seed), random_filter(B, 60 + seed), random_rotation(rng)
        )
        worst = max(worst, rep["max_abs_err"])
    assert worst < 1e-5

