"""Strapdown inertial mechanization.

Integrates body-frame angular rate and specific force into position,
velocity, and attitude in the local ENU frame. Flat, non-rotating earth with
constant gravity: adequate for km-scale trajectories at vehicle speeds, where
earth-rate terms sit below the sensor errors being modeled.
"""

from __future__ import annotations

import numpy as np

from . import quat

GRAVITY = np.array([0.0, 0.0, -9.80665])  # ENU, m/s^2


def mechanize_arrays(p, v, q, b_g, b_a, gyro, accel, dt):
    """Mechanize one IMU interval of m samples on stacked states.

    gyro, accel: (m, 3) body-frame samples; dt: (m,) sample intervals. The
    state p, v (..., 3), q (..., 4) and biases b_g, b_a (..., 3) broadcast
    over leading axes (sigma points). Per sample: attitude first (exponential
    map of the compensated rate), then velocity with the new attitude, then
    position by trapezoidal integration. Returns (p, v, q) after every
    sample, each with a leading axis of length m.

    Only the attitude chain runs sample by sample. The rotation increments
    come from one exponential map and the nav-frame accelerations from one
    rotation; velocity and position are running sums that add in sample
    order, so the result equals stepping the samples one at a time bit for
    bit.
    """
    gyro = np.asarray(gyro, dtype=float)
    accel = np.asarray(accel, dtype=float)
    dt = np.asarray(dt, dtype=float)
    # per-sample inputs: the sample axis first, then the state's leading axes
    lead = (slice(None),) + (None,) * (np.ndim(q) - 1)
    dq = quat.from_rotvec((gyro[lead] - b_g) * dt[lead][..., None])
    qs = quat.chain(q, dq)
    a_nav = quat.rotate(qs, accel[lead] - b_a) + GRAVITY
    dt3 = dt[lead][..., None]
    # running sums from the initial state, written as row 0 of each buffer
    vs = np.empty((len(dt) + 1,) + a_nav.shape[1:])
    vs[0] = v
    np.multiply(a_nav, dt3, out=vs[1:])
    vs = vs.cumsum(axis=0)
    ps = np.empty_like(vs)
    ps[0] = p
    ps[1:] = 0.5 * (vs[:-1] + vs[1:]) * dt3
    ps = ps.cumsum(axis=0)
    return ps[1:], vs[1:], qs


def drift_profile(truth, imu_err, rate: float, rng):
    """Free-inertial position error versus time for one noisy IMU stream
    along the truth trajectory (a scene.Trajectory).

    Mechanizes from a perfect initial state (first truth row, zero assumed
    biases) and returns (t, error) arrays, error sampled at every IMU
    interval end.
    """
    from .synth import synth_imu  # runtime import keeps module layering acyclic

    imu = synth_imu(truth, imu_err, rate, rng)
    t = truth.t.copy()
    dts = np.diff(t)
    if not np.all((dts > 0.0) & (dts <= 0.1)):
        raise ValueError(f"IMU intervals must be in (0, 0.1] s, got {dts.min()}..{dts.max()}")
    if not (np.all(np.isfinite(imu.gyro)) and np.all(np.isfinite(imu.accel))):
        raise ValueError("non-finite IMU sample")
    zeros = np.zeros(3)
    p, _, _ = mechanize_arrays(
        truth.p[0],
        truth.v[0],
        quat.from_euler(*truth.att[0]),
        zeros,
        zeros,
        imu.gyro,
        imu.accel,
        dts,
    )
    err = np.concatenate([[0.0], np.linalg.norm(p - truth.p[1:], axis=1)])
    return t, err
