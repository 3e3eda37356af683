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


def identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def normalize(q: np.ndarray) -> np.ndarray:
    # the sum np.linalg.norm(q, axis=-1) takes, without its call overhead
    q = np.asarray(q, dtype=float)
    return q / np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product; R(multiply(a, b)) = R(a) @ R(b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = (a[..., i] for i in range(4))
    bw, bx, by, bz = (b[..., i] for i in range(4))
    out = np.empty(np.broadcast(aw, bw).shape + (4,))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def chain(q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Running products q (x) dq[0] (x) dq[1] ..., renormalized after each
    factor; returns every partial product, shape (m, ..., 4).

    Equal bit for bit to repeating q = normalize(multiply(q, dq[k])): each
    output component sums the same four products in the same order (a's w,
    x, y, z), with the signs moved onto the precomputed dq factors, which
    leaves every rounding unchanged.
    """
    dq = np.asarray(dq, dtype=float)
    w, x, y, z = (dq[..., i] for i in range(4))
    # factors[k, j]: the dq[k] terms that multiply component j of the left side
    factors = np.stack(
        [
            np.stack([w, x, y, z], axis=-1),
            np.stack([-x, w, -z, y], axis=-1),
            np.stack([-y, z, w, -x], axis=-1),
            np.stack([-z, -y, x, w], axis=-1),
        ],
        axis=1,
    )
    q = np.asarray(q, dtype=float)
    out = np.empty(dq.shape[:1] + np.broadcast_shapes(q.shape, dq.shape[1:]))
    for k, f in enumerate(factors):
        q = q[..., 0:1] * f[0] + q[..., 1:2] * f[1] + q[..., 2:3] * f[2] + q[..., 3:4] * f[3]
        q = out[k] = normalize(q)
    return out


def conjugate(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply R(q) to vectors; q must be unit length.

    v + 2 w (u x v) + 2 u x (u x v), with the cross products written out
    componentwise; np.cross is an order of magnitude slower on small inputs.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w = q[..., 0]
    ux, uy, uz = q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    tx = 2.0 * (uy * vz - uz * vy)
    ty = 2.0 * (uz * vx - ux * vz)
    tz = 2.0 * (ux * vy - uy * vx)
    out = np.empty(np.broadcast(w, vx).shape + (3,))
    out[..., 0] = vx + w * tx + uy * tz - uz * ty
    out[..., 1] = vy + w * ty + uz * tx - ux * tz
    out[..., 2] = vz + w * tz + ux * ty - uy * tx
    return out


def from_rotvec(r: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle, rad) to quaternion."""
    r = np.asarray(r, dtype=float)
    half = 0.5 * np.sqrt(r[..., 0] ** 2 + r[..., 1] ** 2 + r[..., 2] ** 2)
    # sin(half)/(2*half) via sinc, stable through zero
    k = 0.5 * np.sinc(half / np.pi)
    out = np.empty(r.shape[:-1] + (4,))
    out[..., 0] = np.cos(half)
    out[..., 1:] = k[..., None] * r
    return out


def to_rotvec(q: np.ndarray) -> np.ndarray:
    """Logarithm map, shortest arc (angle in [0, pi])."""
    q = normalize(q)
    q = np.where(q[..., :1] < 0.0, -q, q)
    n = np.linalg.norm(q[..., 1:], axis=-1, keepdims=True)
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
