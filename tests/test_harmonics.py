"""Quadrature exactness and transform round trips on the offset grid."""

import numpy as np
import pytest
from scipy.special import sph_harm_y

from rotalith import chunks
from rotalith import harmonics as sh


def _dirs(beta, alpha):
    return np.stack(
        [np.sin(beta) * np.cos(alpha), np.sin(beta) * np.sin(alpha), np.cos(beta)], axis=-1
    )


def _basis(L, dirs):
    """The real SH basis matrix ``(N, (L+1)^2)``: sh_eval at the identity coefficients."""
    return sh.sh_eval(np.eye(sh.n_coeffs(L)), dirs)


def _assert_matches_scipy(Y, L, beta, alpha, tol):
    for l in range(L + 1):
        ref0 = sph_harm_y(l, 0, beta, alpha).real
        assert np.abs(Y[:, sh.coeff_index(l, 0)] - ref0).max() < tol
        for m in range(1, l + 1):
            ref = sph_harm_y(l, m, beta, alpha)
            assert np.abs(Y[:, sh.coeff_index(l, m)] - np.sqrt(2) * ref.real).max() < tol
            assert np.abs(Y[:, sh.coeff_index(l, -m)] - np.sqrt(2) * ref.imag).max() < tol


@pytest.mark.parametrize("B", [2, 3, 4, 8, 16])
def test_beta_weights_integrate_polynomials_exactly(B):
    bj = sh.beta_nodes(B)
    w = sh.beta_weights(B)
    assert abs(w.sum() - 2.0) < 1e-13
    for m in range(2 * B):
        quad = np.sum(w * np.cos(bj) ** m)
        exact = (1 - (-1) ** (m + 1)) / (m + 1)  # integral of cos^m(b) sin(b) over [0, pi]
        assert abs(quad - exact) < 1e-12, f"degree {m}"


def test_grid_conventions():
    B = 4
    assert sh.alpha_nodes(B)[1] == np.pi / B
    assert sh.beta_nodes(B)[0] == np.pi / (4 * B)
    assert sh.h_nodes(B)[1] == 1 / (2 * B)
    assert sh.alpha_nodes(B)[1] == 2 * np.pi / (2 * B)  # gamma_k reuses the alpha nodes
    assert sh.coeff_index(2, -1) == 5


def test_real_sh_against_scipy():
    rng = np.random.default_rng(0)
    beta = rng.uniform(0.05, np.pi - 0.05, 60)
    alpha = rng.uniform(0.0, 2 * np.pi, 60)
    L = 20
    Y = _basis(L, _dirs(beta, alpha))
    _assert_matches_scipy(Y, L, beta, alpha, 1e-12)


@pytest.mark.parametrize("B", [4, 8, 16])
def test_basis_orthonormal_under_quadrature(B):
    Y = _basis(B - 1, sh.grid_dirs(B))
    w = sh.grid_area_weights(B).reshape(-1, 1)
    gram = Y.T @ (w * Y)
    assert np.abs(gram - np.eye(Y.shape[1])).max() < 1e-12


_TRANSFORM_CASES = [(B, L) for B in (2, 3, 4, 8, 16, 32) for L in sorted({0, B // 2, B - 1})]


@pytest.mark.parametrize("B, L", _TRANSFORM_CASES)
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_transforms_match_dense_basis(B, L, lead):
    # oracle: the basis matrix at the grid nodes, weighted by the quadrature
    Y = _basis(L, sh.grid_dirs(B))
    w = sh.grid_area_weights(B).reshape(-1, 1)
    rng = np.random.default_rng(100 * B + L)
    f = rng.standard_normal((2 * B, 2 * B) + lead)
    c = rng.standard_normal((sh.n_coeffs(L),) + lead)
    coeffs = sh.sh_analysis(f, B, L)
    values = sh.sh_synthesis(c, B)
    assert coeffs.shape == c.shape and values.shape == f.shape
    ref_coeffs = (Y.T @ (w * f.reshape(4 * B * B, -1))).reshape(c.shape)
    ref_values = (Y @ c.reshape(c.shape[0], -1)).reshape(f.shape)
    assert np.abs(coeffs - ref_coeffs).max() <= 1e-12 * np.abs(ref_coeffs).max()
    assert np.abs(values - ref_values).max() <= 1e-12 * np.abs(ref_values).max()


@pytest.mark.parametrize("B, shift", [(5, 1), (8, 3)])
def test_alpha_roll_commutes_with_band_limit_projection(B, shift):
    # a roll by whole grid steps is a z-rotation, which keeps every degree
    f = np.random.default_rng(B).standard_normal((2 * B, 2 * B, 2))

    def project(v):
        return sh.sh_synthesis(sh.sh_analysis(v, B, B - 1), B)

    rolled_first = project(np.roll(f, shift, axis=0))
    assert np.abs(rolled_first - np.roll(project(f), shift, axis=0)).max() < 1e-13


def test_analysis_of_constant_and_zonal_degree_one():
    B = 6
    const = np.full((2 * B, 2 * B, 1), 3.5)
    coeffs = sh.sh_analysis(const, B, B - 1)
    expected0 = 3.5 * np.sqrt(4 * np.pi)
    assert abs(coeffs[0, 0] - expected0) < 1e-12
    assert np.abs(coeffs[1:, 0]).max() < 1e-12

    bj = sh.beta_nodes(B)
    zonal = np.cos(bj)[None, :, None] * np.ones((2 * B, 1, 1))
    coeffs = sh.sh_analysis(zonal, B, B - 1)
    nonzero = np.flatnonzero(np.abs(coeffs[:, 0]) > 1e-12)
    assert nonzero.tolist() == [sh.coeff_index(1, 0)]


@pytest.mark.parametrize("B", [4, 8])
def test_round_trip_band_limited(B):
    rng = np.random.default_rng(B)
    coeffs = rng.standard_normal((sh.n_coeffs(B - 1), 3))
    values = sh.sh_synthesis(coeffs, B)
    back = sh.sh_analysis(values, B, B - 1)
    assert np.abs(back - coeffs).max() < 1e-8
    again = sh.sh_synthesis(back, B)
    assert np.abs(again - values).max() < 1e-8


def test_degree_overflow_errors():
    B = 4
    with pytest.raises(ValueError):
        sh.sh_analysis(np.zeros((8, 8, 1)), B, B)
    with pytest.raises(ValueError):
        sh.sh_synthesis(np.zeros((sh.n_coeffs(4), 1)), B)


def test_sh_basis_near_and_at_poles_against_scipy():
    # hypot(x, y) keeps sin(beta) accurate where sqrt(1 - z^2) cancels; the
    # exact poles take azimuth 0, where every m > 0 harmonic vanishes
    rng = np.random.default_rng(6)
    d = rng.standard_normal((200, 3))
    d[:80, :2] *= 1e-7
    d = np.concatenate([d / np.linalg.norm(d, axis=1, keepdims=True), [[0, 0, 1], [0, 0, -1]]])
    beta = np.arctan2(np.hypot(d[:, 0], d[:, 1]), d[:, 2])
    alpha = np.arctan2(d[:, 1], d[:, 0])
    for L in (3, 7, 15):
        _assert_matches_scipy(_basis(L, d), L, beta, alpha, 1e-12)


def test_sh_eval_matches_basis_across_chunks(monkeypatch):
    rng = np.random.default_rng(2)
    d = rng.standard_normal((300, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    L = 9
    coeffs = rng.standard_normal((sh.n_coeffs(L), 2, 3))
    basis, one_block = _basis(L, d), sh.sh_eval(coeffs, d)  # 300 rows fit one block
    # at most 7 rows per block: 43 blocks of 6 or 7 rows
    monkeypatch.setattr(chunks, "_LOOP_CHUNK_BYTES", 7 * 8 * sh.n_coeffs(L))
    assert np.array_equal(_basis(L, d), basis)
    vals = sh.sh_eval(coeffs, d)
    assert vals.shape == (300, 2, 3)
    assert np.abs(vals - one_block).max() < 1e-12
    assert np.abs(vals - np.einsum("nk,kij->nij", basis, coeffs)).max() < 1e-12
    with pytest.raises(ValueError, match="perfect square"):
        sh.sh_eval(coeffs[:-1], d)


def test_sh_eval_matches_synthesis_on_grid():
    B = 5
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal((sh.n_coeffs(B - 1), 2))
    grid = sh.sh_synthesis(coeffs, B)
    vals = sh.sh_eval(coeffs, sh.grid_dirs(B)).reshape(grid.shape)
    assert np.abs(vals - grid).max() < 1e-12
