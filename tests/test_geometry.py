"""Round trips and group identities for the coordinate machinery."""

import numpy as np
import pytest

from rotalith.errors import InvalidRotationError, OutOfBallError, SingularCosetError
from rotalith.geometry import (
    SphericalPoint,
    cart_to_spherical,
    coset_angle,
    euler_to_matrix,
    matrix_to_euler,
    random_rotation,
    rot_y,
    rot_z,
    spherical_to_cart,
    tmap,
    tmap_inv,
    validate_rotation,
)


def test_cart_to_spherical_axis_points():
    a, b, h = cart_to_spherical(np.array([0.0, 0.0, 1.0]))
    assert (a, b, h) == (0.0, 0.0, 1.0)
    a, b, h = cart_to_spherical(np.array([1.0, 0.0, 0.0]))
    assert a == 0.0 and np.isclose(b, np.pi / 2) and h == 1.0
    a, b, h = cart_to_spherical(np.array([0.0, 0.5, 0.0]))
    assert np.isclose(a, np.pi / 2) and np.isclose(b, np.pi / 2) and h == 0.5


def test_spherical_to_cart_axis_points():
    assert np.allclose(spherical_to_cart(0.0, 0.0, 1.0), [0.0, 0.0, 1.0])
    assert np.allclose(spherical_to_cart(np.pi / 2, np.pi / 2, 1.0), [0.0, 1.0, 0.0], atol=1e-15)


def test_cart_spherical_round_trip_bulk():
    rng = np.random.default_rng(3)
    n = 10_000
    alpha = rng.uniform(0.0, 2 * np.pi, n)
    beta = rng.uniform(1e-3, np.pi - 1e-3, n)
    h = rng.uniform(1e-3, 1.0, n)
    v = spherical_to_cart(alpha, beta, h)
    a2, b2, h2 = cart_to_spherical(v)
    v2 = spherical_to_cart(a2, b2, h2)
    assert np.abs(v2 - v).max() < 1e-12
    assert np.abs(a2 - alpha).max() < 1e-9
    assert np.abs(b2 - beta).max() < 1e-9
    assert np.abs(h2 - h).max() < 1e-12


def test_cart_to_spherical_rejects_outside_ball():
    with pytest.raises(OutOfBallError):
        cart_to_spherical(np.array([1.1, 0.0, 0.0]))


def test_ball_center_convention():
    a, b, h = cart_to_spherical(np.zeros(3))
    assert (a, b, h) == (0.0, 0.0, 0.0)


def test_euler_identity_and_single_y():
    assert np.allclose(euler_to_matrix(0.0, 0.0, 0.0), np.eye(3))
    R = euler_to_matrix(0.0, np.pi / 2, 0.0)
    assert np.allclose(R @ np.array([0.0, 0.0, 1.0]), [1.0, 0.0, 0.0], atol=1e-15)


def test_euler_matches_elementary_product():
    R = euler_to_matrix(np.pi / 2, np.pi / 2, np.pi / 2)
    expected = rot_z(np.pi / 2) @ rot_y(np.pi / 2) @ rot_z(np.pi / 2)
    assert np.abs(R - expected).max() == 0.0


def test_matrix_to_euler_identity_and_gimbal():
    e = matrix_to_euler(np.eye(3))
    assert (e.alpha, e.beta, e.gamma) == (0.0, 0.0, 0.0)
    e = matrix_to_euler(rot_z(1.0))
    assert np.isclose(e.alpha, 1.0) and e.beta == 0.0 and e.gamma == 0.0


def test_matrix_to_euler_gimbal_beta_pi():
    R = rot_z(0.7) @ rot_y(np.pi) @ rot_z(0.2)
    e = matrix_to_euler(R)
    assert e.gamma == 0.0
    back = euler_to_matrix(*e)
    assert np.abs(back - R).max() < 1e-10


def test_matrix_to_euler_rejects_non_rotation():
    with pytest.raises(InvalidRotationError):
        matrix_to_euler(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(InvalidRotationError):
        matrix_to_euler(np.diag([1.0, -1.0, 1.0]))  # improper


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rotation_rejects_non_finite_entries(bad):
    # NaN compares False with the tolerance, and a det of it warns: the
    # finite check comes before the Gram and det checks
    for R in (np.full((3, 3), bad), np.where(np.eye(3) == 1, bad, 0.0)):
        with pytest.raises(InvalidRotationError, match="non-finite"):
            validate_rotation(R)
        with pytest.raises(InvalidRotationError, match="non-finite"):
            matrix_to_euler(R)


def test_euler_round_trip_haar():
    R = random_rotation(11, num=10_000)
    e = matrix_to_euler(R)
    back = euler_to_matrix(*e)
    assert np.abs(back - R).max() < 1e-10


def test_tmap_pole_is_pure_z_rotation():
    assert np.allclose(tmap(0.0, 0.0, 0.0), np.eye(3))
    h = 0.3
    assert np.abs(tmap(0.0, 0.0, h) - rot_z(2 * np.pi * h)).max() < 1e-15


def test_tmap_round_trip():
    rng = np.random.default_rng(5)
    alpha = rng.uniform(0.0, 2 * np.pi, 10_000)
    beta = rng.uniform(1e-3, np.pi - 1e-3, 10_000)
    h = rng.uniform(1e-4, 1.0 - 1e-4, 10_000)
    s = tmap_inv(tmap(alpha, beta, h), check=False)
    assert np.abs(s.alpha - alpha).max() < 1e-9
    assert np.abs(s.beta - beta).max() < 1e-10
    assert np.abs(s.h - h).max() < 1e-10


def test_tmap_inv_gimbal_convention():
    s = tmap_inv(rot_z(np.pi))
    assert np.isclose(s.alpha, np.pi) and s.beta == 0.0 and s.h == 0.0


def test_tmap_injective_on_samples():
    rng = np.random.default_rng(9)
    n = 200
    alpha = rng.uniform(0.1, 2 * np.pi - 0.1, n)
    beta = rng.uniform(0.1, np.pi - 0.1, n)
    h = rng.uniform(0.05, 0.95, n)
    params = np.stack([alpha, beta, h], axis=1)
    mats = tmap(alpha, beta, h).reshape(n, 9)
    pd = np.linalg.norm(params[:, None, :] - params[None, :, :], axis=-1)
    md = np.linalg.norm(mats[:, None, :] - mats[None, :, :], axis=-1)
    off = ~np.eye(n, dtype=bool)
    distinct = off & (pd > 1e-3)
    assert np.all(md[distinct] > 1e-6)


def test_coset_angle_identity_and_z():
    s = SphericalPoint(0.8, 1.1, 0.4)
    assert coset_angle(np.eye(3), s) == 0.0
    assert coset_angle(rot_z(2.1), s) == 0.0


def test_coset_angle_relation_random():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(1000):
        Q = random_rotation(rng)
        s = SphericalPoint(rng.uniform(0, 2 * np.pi), rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 1))
        try:
            theta = coset_angle(Q, s)
        except SingularCosetError:
            continue
        x = spherical_to_cart(*s)
        qs = cart_to_spherical(Q @ x)
        lhs = tmap(*qs)
        rhs = Q @ tmap(*s) @ rot_z(theta)
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-9


def test_coset_angle_flags_singular():
    s = SphericalPoint(0.0, np.pi / 3, 0.5)
    Q = rot_y(-np.pi / 3)  # carries the direction onto the north pole
    with pytest.raises(SingularCosetError):
        coset_angle(Q, s)


def test_random_rotation_deterministic_and_orthonormal():
    A = random_rotation(42)
    B = random_rotation(42)
    assert np.array_equal(A, B)
    R = random_rotation(7, num=2000)
    col_norms = np.linalg.norm(R, axis=1)
    assert np.abs(col_norms - 1.0).max() < 1e-12
    assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-12


def test_random_rotation_haar_mean_zero():
    R = random_rotation(123, num=100_000)
    assert np.linalg.norm(R.mean(axis=0)) < 0.02


def test_determinant_of_euler_matrices():
    rng = np.random.default_rng(2)
    R = euler_to_matrix(
        rng.uniform(0, 2 * np.pi, 500), rng.uniform(0, np.pi, 500), rng.uniform(0, 2 * np.pi, 500)
    )
    assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-12
