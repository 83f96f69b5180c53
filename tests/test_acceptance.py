"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; the slow protocol tests
print their measured numbers so regressions are visible in CI logs.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from rotalith import harmonics as sh
from rotalith.geometry import (
    SphericalPoint,
    cart_to_spherical,
    coset_angle,
    euler_to_matrix,
    matrix_to_euler,
    random_rotation,
    rot_z,
    spherical_to_cart,
    tmap,
    tmap_inv,
)
from rotalith.errors import SingularCosetError
from rotalith.pipeline import (
    Descriptor,
    PrinConfig,
    blob_cloud,
    init_weights,
    match_descriptors,
    prin_forward,
    relative_deviation,
    small_sprin_config,
    sprin_forward,
    toy_protocol,
)
from rotalith.resample import trilinear_sample
from rotalith.so3 import (
    SphericalFilter,
    equivariance_report,
    gamma_average,
    svc_bruteforce,
    svc_spectral,
)
from rotalith.sprin import relative_invariants
from rotalith.voxelize import SamplingConfig, SphericalGrid, grid_shift_alpha, voxelize


def _band_limited_grid(B, seed, channels=1):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((sh.n_coeffs(B - 1), 2 * B * channels))
    values = sh.sh_synthesis(coeffs, B)
    return SphericalGrid(B, values.reshape(2 * B, 2 * B, 2 * B, channels))


def _random_filter(B, seed, c_out=1, c_in=1):
    rng = np.random.default_rng(seed)
    return SphericalFilter(B, coeffs=rng.standard_normal((sh.n_coeffs(B - 1), c_out, c_in)))


def test_criterion_01_geometry_round_trips():
    t0 = time.perf_counter()
    R = random_rotation(101, num=10_000)
    e = matrix_to_euler(R, check=False)
    assert np.abs(euler_to_matrix(*e) - R).max() <= 1e-10

    rng = np.random.default_rng(102)
    alpha = rng.uniform(0, 2 * np.pi, 10_000)
    beta = rng.uniform(1e-3, np.pi - 1e-3, 10_000)
    h = rng.uniform(1e-4, 1 - 1e-4, 10_000)
    s = tmap_inv(tmap(alpha, beta, h), check=False)
    assert np.abs(tmap(*s) - tmap(alpha, beta, h)).max() <= 1e-10
    assert max(
        np.abs(s.alpha - alpha).max(), np.abs(s.beta - beta).max(), np.abs(s.h - h).max()
    ) <= 1e-9

    worst = 0.0
    rng = np.random.default_rng(103)
    done = 0
    while done < 1000:
        Q = random_rotation(rng)
        pt = SphericalPoint(
            rng.uniform(0, 2 * np.pi), rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 1)
        )
        try:
            theta = coset_angle(Q, pt)
        except SingularCosetError:
            continue
        x = spherical_to_cart(*pt)
        lhs = tmap(*cart_to_spherical(Q @ x))
        rhs = Q @ tmap(*pt) @ rot_z(theta)
        worst = max(worst, np.abs(lhs - rhs).max())
        done += 1
    assert worst <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 01 geometry round trips (coset residual {worst:.2e}, {elapsed:.2f}s): PASS")


def test_criterion_02_daas_shift_equivariance():
    t0 = time.perf_counter()
    B = 8
    cfg = SamplingConfig(xi=1.0 / 32.0)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        pts = rng.standard_normal((256, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(0.05, 0.999, (256, 1))
        base = voxelize(pts, B, cfg)
        for m in range(2 * B):
            rotated = voxelize(pts @ rot_z(2 * np.pi * m / (2 * B)).T, B, cfg)
            worst = max(worst, np.abs(rotated.data - grid_shift_alpha(base, m).data).max())
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 02 shift equivariance (worst {worst:.2e}, {elapsed:.1f}s): PASS")


def test_criterion_03_daas_distortion_correction():
    # calibrated regime: expected per-voxel catch ~20 points at the outer
    # radial band, where the mid-latitude rows saturate under the
    # density-aware window while the pole rows stay starved under uniform
    B, xi, N = 48, 0.057, 100_000
    rng = np.random.default_rng(42)
    pts = rng.standard_normal((N, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.0, 1.0, (N, 1)) ** (1.0 / 3.0)

    bj = sh.beta_nodes(B)
    hk = sh.h_nodes(B)
    band = (hk >= 0.6) & (hk <= 0.9)
    rows_mid = np.abs(np.cos(bj)) < 0.9
    rows_eq = np.argsort(np.abs(bj - np.pi / 2))[:2]
    rows_pole = [0, 2 * B - 1]

    mass = {}
    for mode in ("daas", "uniform"):
        g = voxelize(pts, B, SamplingConfig(xi=xi, mode=mode))
        mass[mode] = g.data[:, :, band, 0].sum(axis=(0, 2))

    eq_daas = mass["daas"][rows_eq].mean()
    flatness = np.abs(mass["daas"][rows_mid] - eq_daas).max() / eq_daas
    assert flatness <= 0.05

    eq_unif = mass["uniform"][rows_eq].mean()
    pole_ratio = mass["uniform"][rows_pole].mean() / eq_unif
    assert pole_ratio < 0.5
    print(
        f"\nACCEPTANCE 03 distortion correction (daas flatness {flatness:.3f}, "
        f"uniform pole ratio {pole_ratio:.3f}): PASS"
    )


def test_criterion_04_svc_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for B in (4, 8):
        for seed in range(20):
            f = _band_limited_grid(B, seed)
            psi = _random_filter(B, 5000 + seed)
            a = svc_bruteforce(f, psi)
            b = svc_spectral(f, psi)
            rel = np.abs(a.data - b.data).max() / np.abs(a.data).max()
            worst = max(worst, rel)
    assert worst <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 04 oracle equivalence (worst rel {worst:.2e}, {elapsed:.1f}s): PASS")


def test_criterion_05_svc_equivariance():
    t0 = time.perf_counter()
    B = 8
    worst_grid = 0.0
    for seed in range(5):
        f = _band_limited_grid(B, seed)
        psi = _random_filter(B, 300 + seed)
        m = 1 + seed * 2
        rep = equivariance_report(f, psi, rot_z(2 * np.pi * m / (2 * B)))
        worst_grid = max(worst_grid, rep["max_abs_err"])
    assert worst_grid <= 1e-10

    rng = np.random.default_rng(7)
    worst_haar = 0.0
    for seed in range(10):
        f = _band_limited_grid(B, 40 + seed)
        psi = _random_filter(B, 400 + seed)
        rep = equivariance_report(f, psi, random_rotation(rng))
        worst_haar = max(worst_haar, rep["max_abs_err"])
    assert worst_haar <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 05 svc equivariance (grid-z {worst_grid:.2e}, haar {worst_haar:.2e}, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_06_constant_filter_and_linearity():
    B = 4
    f1 = _band_limited_grid(B, 1)
    f2 = _band_limited_grid(B, 2)
    c = 2.2
    coeffs = np.zeros((sh.n_coeffs(B - 1), 1, 1))
    coeffs[0, 0, 0] = c * np.sqrt(4 * np.pi)
    psi_const = SphericalFilter(B, coeffs=coeffs)
    g = gamma_average(f1)
    w = sh.grid_area_weights(B)
    mean_g = np.einsum("ab,abc->c", w, g.data)[0] / (4 * np.pi)
    for impl in (svc_bruteforce, svc_spectral):
        out = impl(f1, psi_const)
        assert np.abs(out.data - c * mean_g).max() <= 1e-10

    psi = _random_filter(B, 3)
    a, b = 1.7, -0.4
    combo = SphericalGrid(B, a * f1.data + b * f2.data)
    lhs = svc_spectral(combo, psi).data
    rhs = a * svc_spectral(f1, psi).data + b * svc_spectral(f2, psi).data
    assert np.abs(lhs - rhs).max() <= 1e-10
    print("\nACCEPTANCE 06 constant-filter closed form and linearity: PASS")


def test_criterion_07_trilinear():
    B = 4
    n = 2 * B
    rng = np.random.default_rng(0)
    grid = SphericalGrid(B, rng.standard_normal((n, n, n, 3)))
    ai, bj, hk = sh.alpha_nodes(B), sh.beta_nodes(B), sh.h_nodes(B)
    for (i, j, k) in [(0, 0, 0), (5, 3, 2), (7, 7, 7)]:
        out = trilinear_sample(grid, ai[i], bj[j], hk[k])
        assert np.abs(out[0] - grid.data[i, j, k]).max() <= 1e-10

    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    lin = (1.5 * ii - 2.0 * jj + 0.25 * kk - 3.0)[..., None]
    lgrid = SphericalGrid(B, lin)
    fi = rng.uniform(0, n - 1.001, 100)
    fj = rng.uniform(0, n - 1.001, 100)
    fk = rng.uniform(0, n - 1.001, 100)
    out = trilinear_sample(lgrid, fi * np.pi / B, (fj + 0.5) * np.pi / n, fk / n)
    expected = 1.5 * fi - 2.0 * fj + 0.25 * fk - 3.0
    assert np.abs(out[:, 0] - expected).max() <= 1e-10
    print("\nACCEPTANCE 07 trilinear node exactness and linear reproduction: PASS")


def test_criterion_08_sprin_exact_invariance():
    rng = np.random.default_rng(9)
    worst8 = 0.0
    for _ in range(1000):
        xi_p = rng.uniform(-1, 1, 3)
        xj_p = rng.uniform(-1, 1, 3)
        c = rng.uniform(-1, 1, 3)
        Q = random_rotation(rng)
        base = relative_invariants(xi_p, xj_p, c)
        rot = relative_invariants(Q @ xi_p, Q @ xj_p, Q @ c)
        worst8 = max(worst8, np.abs(rot - base).max())
    assert worst8 <= 1e-12

    cfg = small_sprin_config()  # dilation-free stack
    weights = init_weights(cfg, 5)
    pts = blob_cloud(256, 12)
    base_pp, _ = sprin_forward(pts, weights, cfg, seed=0)
    worst = 0.0
    rng = np.random.default_rng(10)
    for _ in range(20):
        Q = random_rotation(rng)
        rot_pp, _ = sprin_forward(pts @ Q.T, weights, cfg, seed=0)
        mx, _ = relative_deviation(rot_pp, base_pp)
        worst = max(worst, mx)
    assert worst <= 1e-5
    print(
        f"\nACCEPTANCE 08 sprin invariance (8-vector {worst8:.2e}, per-point {worst:.2e}): PASS"
    )


def test_criterion_09_descriptor_self_matching():
    cfg = small_sprin_config()
    weights = init_weights(cfg, 4)
    pts = blob_cloud(512, 9)
    base_pp, _ = sprin_forward(pts, weights, cfg, seed=0)
    Q = random_rotation(77)
    rot_pp, _ = sprin_forward(pts @ Q.T, weights, cfg, seed=0)
    idx, _ = match_descriptors(Descriptor(rot_pp), Descriptor(base_pp))
    fraction = float(np.mean(idx == np.arange(len(pts))))
    assert fraction >= 0.99
    print(f"\nACCEPTANCE 09 descriptor self-matching (identity fraction {fraction:.4f}): PASS")


@pytest.mark.slow
def test_criterion_10_nr_ar_toy_protocol():
    t0 = time.perf_counter()
    res = toy_protocol(
        pipeline="sprin", n_per_class=100, n_points=512, epochs=300, lr=0.5, seed=7
    )
    elapsed = time.perf_counter() - t0
    assert res["nr_accuracy"] >= 0.90
    assert res["nr_accuracy"] - res["ar_accuracy"] <= 0.02
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 10 toy protocol (nr {res['nr_accuracy']:.3f}, ar {res['ar_accuracy']:.3f}, "
        f"gap {res['gap']:+.3f}, {elapsed:.0f}s): PASS"
    )


@pytest.mark.slow
def test_criterion_11_bandwidth_monotonicity():
    xi = 0.1
    devs = []
    for B in (4, 8, 16):
        cfg = PrinConfig(bandwidth=B, xi=xi)
        weights = init_weights(cfg, 0)
        rng = np.random.default_rng(11)
        means = []
        for trial in range(4):
            pts = blob_cloud(50_000, 100 + trial)
            base, _ = prin_forward(pts, weights, cfg)
            rot, _ = prin_forward(pts @ random_rotation(rng).T, weights, cfg)
            scale = np.linalg.norm(base, axis=1).mean()
            means.append((np.linalg.norm(rot - base, axis=1) / scale).mean())
        devs.append(float(np.mean(means)))
    assert devs[0] > devs[1] > devs[2]
    print(
        "\nACCEPTANCE 11 bandwidth monotonicity "
        f"(B=4: {devs[0]:.4f} > B=8: {devs[1]:.4f} > B=16: {devs[2]:.4f}): PASS"
    )


def test_criterion_12_spectral_speedup_documented():
    # measured through the bench subcommand as specified; brute force at
    # B=16 is extrapolated from B=8 by the (2B)^5 work scaling
    from rotalith.cli import main

    import io
    from contextlib import redirect_stdout

    def bench(impl, B, repeat):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["bench", "--op", "svc", "--bandwidth", str(B),
                         "--impl", impl, "--repeat", str(repeat)])
        assert code == 0
        rows = [l for l in buf.getvalue().splitlines() if l.startswith("svc,")]
        return min(float(r.split(",")[4]) for r in rows)

    t_brute_8 = bench("brute", 8, 3)
    t_spec_16 = bench("spectral", 16, 3)
    t_brute_16_extrapolated = t_brute_8 * 2**5
    ratio = t_brute_16_extrapolated / t_spec_16
    assert ratio >= 10.0
    print(
        f"\nACCEPTANCE 12 spectral speedup (brute@8 {t_brute_8:.3f}s -> extrapolated@16 "
        f"{t_brute_16_extrapolated:.1f}s, spectral@16 {t_spec_16:.4f}s, ratio {ratio:.0f}x): PASS"
    )


def test_criterion_13_cli_byte_determinism(tmp_path):
    from rotalith.io import write_cloud

    cloud = tmp_path / "c.xyz"
    write_cloud(cloud, blob_cloud(128, 3))
    grid_out = tmp_path / "g.rtlh"
    feat_out = tmp_path / "f.rtlh"
    commands = [
        ["voxelize", "--in", str(cloud), "--bandwidth", "4", "--out", str(grid_out)],
        ["equiv-check", "--pipeline", "sprin", "--trials", "1", "--seed", "9", "--points", "96"],
        ["features", "--pipeline", "sprin", "--in", str(cloud), "--seed", "3",
         "--out", str(feat_out)],
        ["fps", "--in", str(cloud), "--m", "7"],
        ["knn", "--in", str(cloud), "--k", "9", "--d", "3", "--seed", "5"],
        ["toy", "--classes", "sphere,cube", "--n", "2", "--points", "128",
         "--epochs", "20", "--seed", "2"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "rotalith.cli", *argv],
                capture_output=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            runs.append(proc.stdout)
        assert runs[0] == runs[1], f"non-deterministic stdout for {argv[0]}"
    print("\nACCEPTANCE 13 CLI byte determinism across repeated seeded runs: PASS")
