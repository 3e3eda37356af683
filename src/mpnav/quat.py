"""Quaternion algebra for attitude bookkeeping.

Hamilton convention, scalar first (w, x, y, z). A quaternion q holds the
body-to-navigation rotation: rotate(q, v_body) = R(q) @ v_body = v_nav.
Every function broadcasts over leading axes, so stacked sigma-point states
pass through without Python loops.

Euler convention for the ENU frame: yaw CCW from East about Up, pitch
positive nose-up (the body x axis climbs), roll about body x. The matrix is
R(q) = Rz(yaw) @ Ry(-pitch) @ Rx(roll).
"""

from __future__ import annotations

import numpy as np


def normalize(q: np.ndarray) -> np.ndarray:
    # the sum np.linalg.norm(q, axis=-1) takes, without its call overhead
    q = np.asarray(q, dtype=float)
    return q / np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))


# Hamilton product a (x) b as sum_i a[i] * F[i], where F[i, j] is the b
# term, with its sign, that multiplies a[i] in output component j:
# F[i, j] = _SIGN[i, j] * b[_PERM[i, j]]
_PERM = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_SIGN = np.array([[1.0, 1, 1, 1], [-1, 1, -1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1]])


def _sum_rows(p: np.ndarray) -> np.ndarray:
    """((p[0] + p[1]) + p[2]) + p[3] over the second-to-last axis, as a
    C-ordered array: normalize's component sum depends on the layout."""
    out = np.add(p[..., 0, :], p[..., 1, :], order="C")
    out += p[..., 2, :]
    out += p[..., 3, :]
    return out


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product; R(multiply(a, b)) = R(a) @ R(b).

    Each output component sums a's w, x, y, z terms in that order; a sign
    folded into a factor leaves every rounding of the written-out
    difference unchanged.
    """
    b = np.asarray(b, dtype=float)
    return _sum_rows(np.asarray(a, dtype=float)[..., :, None] * (b[..., _PERM] * _SIGN))


def chain(q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Running products q (x) dq[0] (x) dq[1] ..., renormalized after each
    factor; returns every partial product, shape (m, ..., 4).

    Equal bit for bit to repeating q = normalize(multiply(q, dq[k])): every
    step's signed factors are taken at once, and each step's product is one
    stacked row-times-matrix matmul. The factor matrices are views with a
    column stride of two elements, so that no matrix axis has unit stride:
    numpy then multiplies in its own loop, which sums a's w, x, y, z terms
    in that order as multiply does, and never in BLAS, whose kernels fuse
    or regroup the sums.
    """
    dq = np.asarray(dq, dtype=float)
    factors = np.empty(dq.shape[:-1] + (4, 4, 2))[..., 0]
    np.multiply(dq[..., _PERM], _SIGN, out=factors)
    q = np.asarray(q, dtype=float)
    out = np.empty(dq.shape[:1] + np.broadcast_shapes(q.shape, dq.shape[1:]))
    for k, f in enumerate(factors):
        q = out[k] = normalize(np.matmul(q[..., None, :], f)[..., 0, :])
    return out


def conjugate(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


# a x b = p[:3] - p[3:] with p = a[..., _CROSS_A] * b[..., _CROSS_B]
_CROSS_A = np.array([1, 2, 0, 2, 0, 1])
_CROSS_B = np.array([2, 0, 1, 1, 2, 0])


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply R(q) to vectors; q must be unit length.

    v + 2 w (u x v) + 2 u x (u x v), with each cross product taken as the
    difference of two index-permuted products and the sum left to right;
    np.cross is an order of magnitude slower on small inputs.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    u = q[..., 1:][..., _CROSS_A]
    p = u * v[..., _CROSS_B]
    t = 2.0 * (p[..., :3] - p[..., 3:])
    p = u * t[..., _CROSS_B]
    out = np.add(v, q[..., :1] * t, order="C")
    out += p[..., :3]
    out -= p[..., 3:]
    return out


_EPS = 2.220446049250313e-16  # np.finfo(float).eps, which np.sinc puts in for 0


def from_rotvec(r: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle, rad) to quaternion."""
    r = np.asarray(r, dtype=float)
    half = 0.5 * np.sqrt(r[..., 0] ** 2 + r[..., 1] ** 2 + r[..., 2] ** 2)
    # sin(half)/(2*half) as 0.5 * np.sinc(half / pi), written out with
    # np.sinc's own formula (sin(y)/y, y = pi*x, eps where y is 0) to skip
    # its call overhead; stable through zero
    y = np.pi * (half / np.pi)
    y = np.where(y, y, _EPS)
    k = 0.5 * (np.sin(y) / y)
    out = np.empty(r.shape[:-1] + (4,))
    out[..., 0] = np.cos(half)
    out[..., 1:] = k[..., None] * r
    return out


def to_rotvec(q: np.ndarray) -> np.ndarray:
    """Logarithm map, shortest arc (angle in [0, pi])."""
    q = normalize(q)
    q = np.where(q[..., :1] < 0.0, -q, q)
    # the sum np.linalg.norm(q[..., 1:], axis=-1) takes, as in normalize
    u = q[..., 1:]
    n = np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True))
    angle = 2.0 * np.arctan2(n, q[..., :1])
    small = n <= 1e-12
    scale = np.where(small, 2.0, angle / np.where(small, 1.0, n))
    return scale * q[..., 1:]


def to_matrix(q: np.ndarray) -> np.ndarray:
    """Direction cosine matrix R(q), shape (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = (q[..., i] for i in range(4))
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    m[..., 0, 1] = 2.0 * (x * y - w * z)
    m[..., 0, 2] = 2.0 * (x * z + w * y)
    m[..., 1, 0] = 2.0 * (x * y + w * z)
    m[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    m[..., 1, 2] = 2.0 * (y * z - w * x)
    m[..., 2, 0] = 2.0 * (x * z - w * y)
    m[..., 2, 1] = 2.0 * (y * z + w * x)
    m[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return m


def from_euler(roll, pitch, yaw) -> np.ndarray:
    """(roll, pitch, yaw) in rad to quaternion, broadcasting over inputs."""
    roll, pitch, yaw = np.broadcast_arrays(
        np.asarray(roll, dtype=float),
        np.asarray(pitch, dtype=float),
        np.asarray(yaw, dtype=float),
    )
    zero = np.zeros_like(roll)
    qz = np.stack([np.cos(yaw / 2), zero, zero, np.sin(yaw / 2)], axis=-1)
    qy = np.stack([np.cos(pitch / 2), zero, -np.sin(pitch / 2), zero], axis=-1)
    qx = np.stack([np.cos(roll / 2), np.sin(roll / 2), zero, zero], axis=-1)
    return multiply(multiply(qz, qy), qx)


def to_euler(q: np.ndarray) -> np.ndarray:
    """Quaternion to (roll, pitch, yaw), pitch clamped to [-pi/2, pi/2]."""
    q = normalize(q)
    w, x, y, z = (q[..., i] for i in range(4))
    sin_pitch = np.clip(2.0 * (x * z - w * y), -1.0, 1.0)
    pitch = np.arcsin(sin_pitch)
    yaw = np.arctan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))
    roll = np.arctan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y))
    return np.stack([roll, pitch, yaw], axis=-1)
