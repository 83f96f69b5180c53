"""Coordinates on the sphere, the unit ball, and the rotation group.

Conventions used throughout the library:

* A ball point is parameterized as ``(alpha, beta, h)`` with azimuth
  ``alpha in [0, 2*pi)``, polar angle ``beta in [0, pi]`` measured from the
  north pole ``n = (0, 0, 1)``, and radial distance ``h in [0, 1]``.
* Rotations use ZYZ Euler angles: ``R(alpha, beta, gamma) = Z(alpha) @
  Y(beta) @ Z(gamma)``.
* The map ``tmap`` sends a ball point to the rotation
  ``Z(alpha) @ Y(beta) @ Z(2*pi*h)``; it is a bijection away from the poles
  and the ball center.

All functions broadcast over leading axes; angles are float64 radians.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidRotationError, OutOfBallError, SingularCosetError

TWO_PI = 2.0 * np.pi

# sin(beta) below this means the ZYZ parametrization is at its singular set
GIMBAL_EPS = 1e-9

# validate_rotation rejects |R^T R - I| or |det R - 1| above this
ROTATION_TOL = 1e-10

# cart_to_spherical clamps norms up to 1 + this to the unit sphere and rejects larger ones
_BALL_TOL = 1e-9


class SphericalPoint(NamedTuple):
    """Ball coordinates (alpha, beta, h); entries may be scalars or arrays."""

    alpha: np.ndarray
    beta: np.ndarray
    h: np.ndarray


class EulerZYZ(NamedTuple):
    """ZYZ Euler angles (alpha, beta, gamma); entries may be scalars or arrays."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def rot_z(angle) -> np.ndarray:
    """Rotation matrix about the z axis; broadcasts to shape ``(..., 3, 3)``."""
    angle = np.asarray(angle, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    out = np.zeros(angle.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


def rot_y(angle) -> np.ndarray:
    """Rotation matrix about the y axis; broadcasts to shape ``(..., 3, 3)``."""
    angle = np.asarray(angle, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    out = np.zeros(angle.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 2] = s
    out[..., 1, 1] = 1.0
    out[..., 2, 0] = -s
    out[..., 2, 2] = c
    return out


def validate_rotation(R: np.ndarray) -> None:
    """Raise :class:`InvalidRotationError` unless R is a proper rotation."""
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3):
        raise InvalidRotationError(f"expected trailing shape (3, 3), got {R.shape}")
    if not np.all(np.isfinite(R)):
        raise InvalidRotationError("matrix has non-finite entries")
    eye = np.eye(3)
    gram_dev = np.abs(np.swapaxes(R, -1, -2) @ R - eye).max()
    if gram_dev > ROTATION_TOL:
        raise InvalidRotationError(f"matrix is not orthonormal: |R^T R - I| = {gram_dev:.3e}")
    det_dev = np.abs(np.linalg.det(R) - 1.0).max()
    if det_dev > ROTATION_TOL:
        raise InvalidRotationError(f"matrix is not proper: |det R - 1| = {det_dev:.3e}")


def euler_to_matrix(alpha, beta, gamma) -> np.ndarray:
    """Compose ``Z(alpha) @ Y(beta) @ Z(gamma)``; broadcasts over all angles."""
    alpha, beta, gamma = np.broadcast_arrays(
        np.asarray(alpha, dtype=float),
        np.asarray(beta, dtype=float),
        np.asarray(gamma, dtype=float),
    )
    return rot_z(alpha) @ rot_y(beta) @ rot_z(gamma)


def matrix_to_euler(R: np.ndarray, check: bool = True) -> EulerZYZ:
    """Recover ZYZ Euler angles from a rotation matrix.

    At gimbal lock (``sin(beta) < 1e-9``) gamma is fixed to 0 and alpha
    absorbs the full z-rotation, which makes the map total.

    Args:
        R: array of shape ``(..., 3, 3)``.
        check: validate orthonormality first (skip for matrices this library
            produced itself in hot loops).
    """
    R = np.asarray(R, dtype=float)
    if check:
        validate_rotation(R)
    r22 = np.clip(R[..., 2, 2], -1.0, 1.0)
    beta = np.arccos(r22)
    sin_beta = np.sqrt(np.maximum(0.0, 1.0 - r22 * r22))

    alpha_reg = np.arctan2(R[..., 1, 2], R[..., 0, 2])
    gamma_reg = np.arctan2(R[..., 2, 1], -R[..., 2, 0])
    # beta ~ 0: R = Z(alpha + gamma); beta ~ pi: R = Z(alpha - gamma) @ Y(pi)
    alpha_top = np.arctan2(R[..., 1, 0], R[..., 0, 0])
    alpha_bot = np.arctan2(-R[..., 0, 1], -R[..., 0, 0])

    locked = sin_beta < GIMBAL_EPS
    alpha = np.where(locked, np.where(r22 > 0.0, alpha_top, alpha_bot), alpha_reg)
    gamma = np.where(locked, 0.0, gamma_reg)
    return EulerZYZ(np.mod(alpha, TWO_PI), beta, np.mod(gamma, TWO_PI))


def spherical_to_cart(alpha, beta, h) -> np.ndarray:
    """Map ball coordinates to Euclidean coordinates, shape ``(..., 3)``."""
    alpha, beta, h = np.broadcast_arrays(
        np.asarray(alpha, dtype=float),
        np.asarray(beta, dtype=float),
        np.asarray(h, dtype=float),
    )
    sb = np.sin(beta)
    return np.stack([h * sb * np.cos(alpha), h * sb * np.sin(alpha), h * np.cos(beta)], axis=-1)


def cart_to_spherical(v: np.ndarray) -> SphericalPoint:
    """Map Euclidean points inside the unit ball to ``(alpha, beta, h)``.

    Raises :class:`OutOfBallError` when any norm exceeds ``1 + _BALL_TOL``;
    norms in ``(1, 1 + _BALL_TOL]`` are clamped to 1.  At the poles alpha is 0
    by convention, and the ball center maps to ``(0, 0, 0)``.
    """
    v = np.asarray(v, dtype=float)
    h = np.linalg.norm(v, axis=-1)
    if np.any(h > 1.0 + _BALL_TOL):
        raise OutOfBallError(
            f"point norm {h.max():.12g} exceeds 1 + {_BALL_TOL:g}; normalize the cloud first"
        )
    h = np.minimum(h, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_beta = np.where(h > 0.0, v[..., 2] / np.maximum(h, np.finfo(float).tiny), 1.0)
    beta = np.arccos(np.clip(cos_beta, -1.0, 1.0))
    alpha = np.mod(np.arctan2(v[..., 1], v[..., 0]), TWO_PI)
    # canonical representatives on the singular set
    at_pole = (v[..., 0] == 0.0) & (v[..., 1] == 0.0)
    alpha = np.where(at_pole, 0.0, alpha)
    beta = np.where(h == 0.0, 0.0, beta)
    return SphericalPoint(alpha, beta, h)


def tmap(alpha, beta, h) -> np.ndarray:
    """Ball point to rotation: ``Z(alpha) @ Y(beta) @ Z(2*pi*h)``."""
    return euler_to_matrix(alpha, beta, TWO_PI * np.asarray(h, dtype=float))


def tmap_inv(R: np.ndarray, check: bool = True) -> SphericalPoint:
    """Inverse of :func:`tmap` under the gimbal-lock convention."""
    e = matrix_to_euler(R, check=check)
    return SphericalPoint(e.alpha, e.beta, e.gamma / TWO_PI)


def coset_angle(Q: np.ndarray, point) -> float:
    """Angle theta with ``tmap(Q x) = Q @ tmap(x) @ Z(theta)``.

    ``point`` is a :class:`SphericalPoint` (the radial coordinate is
    irrelevant).  Computed as ``-gamma'`` where
    ``matrix_to_euler(Q @ Z(alpha) @ Y(beta)) = (alpha', beta', gamma')``.

    Raises :class:`SingularCosetError` when ``Q`` carries the direction of
    ``point`` onto a pole, where gamma' is not defined.
    """
    alpha, beta = np.asarray(point[0], dtype=float), np.asarray(point[1], dtype=float)
    M = np.asarray(Q, dtype=float) @ rot_z(alpha) @ rot_y(beta)
    sin_beta = np.sqrt(max(0.0, 1.0 - min(1.0, M[2, 2] * M[2, 2])))
    if sin_beta < 1e-8:
        raise SingularCosetError("rotated direction is at a pole; theta is undefined")
    e = matrix_to_euler(M, check=False)
    return float(np.mod(-e.gamma, TWO_PI))


def random_rotation(seed, num: int | None = None) -> np.ndarray:
    """Haar-uniform rotation(s) from a normalized random quaternion.

    Args:
        seed: integer seed or a ``numpy.random.Generator``.
        num: if given, return ``(num, 3, 3)``; otherwise a single ``(3, 3)``.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = 1 if num is None else int(num)
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R = np.empty((n, 3, 3))
    R[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    R[:, 0, 1] = 2.0 * (x * y - w * z)
    R[:, 0, 2] = 2.0 * (x * z + w * y)
    R[:, 1, 0] = 2.0 * (x * y + w * z)
    R[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    R[:, 1, 2] = 2.0 * (y * z - w * x)
    R[:, 2, 0] = 2.0 * (x * z - w * y)
    R[:, 2, 1] = 2.0 * (y * z + w * x)
    R[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return R[0] if num is None else R
