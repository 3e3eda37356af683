import numpy as np
import pytest
from helpers import identity, mechanize_per_sample, stack_poses

from mpnav import quat
from mpnav.ins import drift_profile, mechanize_arrays
from mpnav.scene import trajectory_poses
from mpnav.synth import ImuErrorModel, synth_imu

ZERO_ERR = ImuErrorModel(
    gyro_bias_std=0.0, accel_bias_std=0.0, gyro_noise_density=0.0, accel_noise_density=0.0
)

UP = np.array([0.0, 0.0, 9.80665])
ZERO3 = np.zeros(3)


def constant_imu(n, gyro=(0.0, 0.0, 0.0), accel=UP):
    """n identical body-frame samples: (gyros, accels)."""
    gyros = np.tile(np.asarray(gyro, dtype=float), (n, 1))
    return gyros, np.tile(np.asarray(accel, dtype=float), (n, 1))


def mechanize_from(p, v, q, gyros, accels, dt):
    """Mechanize a stream at a fixed interval from one state, biases zero:
    the states after every sample."""
    dts = np.full(len(gyros), dt)
    return mechanize_arrays(p, v, q, ZERO3, ZERO3, gyros, accels, dts)


def from_rest(n, dt, gyro=(0.0, 0.0, 0.0)):
    """Mechanize n constant samples from rest at the origin, level."""
    return mechanize_from(ZERO3, ZERO3, identity(), *constant_imu(n, gyro=gyro), dt)


def circle_spec(speed=8.0, radius=100.0):
    return {
        "kind": "circle",
        "center_en_m": [0.0, 0.0],
        "radius_m": radius,
        "speed_mps": speed,
        "z_m": 1.5,
    }


def test_equilibrium_state_unchanged():
    p, v, q = from_rest(200, 0.01)
    assert np.allclose(p[-1], 0.0, atol=1e-12)
    assert np.allclose(v[-1], 0.0, atol=1e-12)
    assert np.allclose(q[-1], identity(), atol=1e-12)


def test_pure_yaw_rate_closed_form():
    omega = 0.3
    n, dt = 600, 0.01
    p, v, q = from_rest(n, dt, gyro=[0.0, 0.0, omega])
    yaw = quat.to_euler(q[-1])[2]
    assert yaw == pytest.approx(omega * n * dt, abs=1e-9)
    # body z stays up, so the gravity-compensating accel keeps p, v fixed
    assert np.allclose(v[-1], 0.0, atol=1e-9)
    assert np.allclose(p[-1], 0.0, atol=1e-9)


def test_zero_dt_limit_and_bounds():
    p0, v0 = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 0.0])
    p, v, q = mechanize_from(p0, v0, identity(), *constant_imu(1), 1e-9)
    assert np.allclose(p[-1] - p0, v0 * 1e-9, atol=1e-15)
    assert np.allclose(v[-1], v0, atol=1e-12)
    assert np.allclose(q[-1], identity(), atol=1e-12)
    # drift_profile refuses intervals outside (0, 0.1] s and non-finite samples
    for rate in (5.0, 9.0):
        times = np.arange(0.0, 2.0 + 0.5 / rate, 1.0 / rate)
        with pytest.raises(ValueError):
            poses = trajectory_poses(circle_spec(), times)
            drift_profile(poses, ZERO_ERR, rate, np.random.default_rng(0))
    times = np.arange(0.0, 2.0 + 0.005, 0.01)
    poses = trajectory_poses(circle_spec(), times)
    with pytest.raises(ValueError):
        repeated = stack_poses([poses[0], *poses])
        drift_profile(repeated, ZERO_ERR, 100.0, np.random.default_rng(0))
    # a model set non-finite after construction, past its own validation
    nan_err = ImuErrorModel()
    nan_err.gyro_noise_density = float("nan")
    with pytest.raises(ValueError):
        drift_profile(poses, nan_err, 100.0, np.random.default_rng(0))


def test_quaternion_norm_preserved():
    rng = np.random.default_rng(0)
    gyros = rng.uniform(-1, 1, (500, 3))
    accels = rng.uniform(-12, 12, (500, 3))
    _, _, q = mechanize_from(ZERO3, ZERO3, identity(), gyros, accels, 0.01)
    assert np.all(np.abs(np.linalg.norm(q, axis=1) - 1.0) <= 1e-9)


def test_uncompensated_gyro_bias_drift():
    bias = 0.01
    # yaw-axis bias: closed-form heading drift, and no position error at all
    # because body z stays up and gravity still cancels
    p, _, q = from_rest(6000, 0.01, gyro=[0.0, 0.0, bias])
    assert quat.to_euler(q[-1])[2] == pytest.approx(0.6, abs=1e-6)
    assert np.linalg.norm(p[-1]) < 1e-9
    # roll-axis bias tilts the believed attitude, so the gravity compensation
    # leaks into velocity and position error grows superlinearly (~t^3)
    p, _, _ = from_rest(6000, 0.01, gyro=[bias, 0.0, 0.0])
    errs = {30.0: np.linalg.norm(p[2999]), 60.0: np.linalg.norm(p[5999])}
    assert errs[60.0] > 4.0 * errs[30.0]
    assert errs[60.0] == pytest.approx(9.80665 * bias * 60.0**3 / 6.0, rel=0.05)


def stream_arrays(samples):
    return np.stack([s.gyro for s in samples]), np.stack([s.accel for s in samples])


def test_round_trip_noiseless_imu():
    rate = 100.0
    times = np.arange(0.0, 60.0 + 0.5 / rate, 1.0 / rate)
    poses = trajectory_poses(circle_spec(), times)
    gyros, accels = stream_arrays(synth_imu(poses, ZERO_ERR, rate, np.random.default_rng(1)))
    q0 = quat.from_euler(*poses[0].att)
    dts = np.diff(times)
    p, _, _ = mechanize_arrays(poses[0].p, poses[0].v, q0, ZERO3, ZERO3, gyros, accels, dts)
    truth = poses.p[1:]
    worst = float(np.max(np.linalg.norm(p - truth, axis=1)))
    assert worst < 0.01


def test_round_trip_known_biases_compensated():
    # biased stream mechanized with the true biases in the state: still exact
    rate = 100.0
    times = np.arange(0.0, 20.0 + 0.5 / rate, 1.0 / rate)
    poses = trajectory_poses(circle_spec(), times)
    b_g = np.array([1e-3, -2e-3, 3e-3])
    b_a = np.array([0.01, 0.02, -0.01])
    samples = synth_imu(poses, ZERO_ERR, rate, np.random.default_rng(2), biases=(b_g, b_a))
    gyros, accels = stream_arrays(samples)
    q0 = quat.from_euler(*poses[0].att)
    p, _, _ = mechanize_arrays(poses[0].p, poses[0].v, q0, b_g, b_a, gyros, accels, np.diff(times))
    assert np.linalg.norm(p[-1] - poses[-1].p) < 0.01


def test_mechanize_arrays_matches_per_sample_reference():
    # bit for bit, on stacked states with per-point biases and on one state
    rng = np.random.default_rng(11)
    for m in (1, 2, 10, 37):
        for n in (None, 31):
            lead = () if n is None else (n,)
            p = rng.normal(0.0, 100.0, lead + (3,))
            v = rng.normal(0.0, 5.0, lead + (3,))
            q = quat.normalize(rng.normal(size=lead + (4,)))
            b_g = rng.normal(0.0, 1e-3, lead + (3,))
            b_a = rng.normal(0.0, 1e-2, lead + (3,))
            gyros = rng.normal(0.0, 0.5, (m, 3))
            accels = rng.normal(0.0, 5.0, (m, 3)) + UP
            dts = rng.uniform(0.005, 0.1, m)
            args = (p, v, q, b_g, b_a, gyros, accels, dts)
            got = mechanize_arrays(*args)
            ref = mechanize_per_sample(*args)
            for g, r in zip(got, ref):
                assert g.shape == r.shape
                assert np.array_equal(g, r)


def test_drift_profile_zero_error_and_determinism():
    rate = 50.0
    times = np.arange(0.0, 30.0 + 0.5 / rate, 1.0 / rate)
    poses = trajectory_poses(circle_spec(), times)
    t, err = drift_profile(poses, ZERO_ERR, rate, np.random.default_rng(3))
    assert t.shape == err.shape == times.shape
    assert err[0] == 0.0
    assert np.max(err) < 0.01
    noisy = ImuErrorModel()
    t1, e1 = drift_profile(poses, noisy, rate, np.random.default_rng(4))
    t2, e2 = drift_profile(poses, noisy, rate, np.random.default_rng(4))
    assert np.array_equal(e1, e2)
    t3, e3 = drift_profile(poses, noisy, rate, np.random.default_rng(5))
    assert not np.array_equal(e1, e3)


def test_drift_profile_grows_with_biases():
    rate = 50.0
    times = np.arange(0.0, 60.0 + 0.5 / rate, 1.0 / rate)
    poses = trajectory_poses(circle_spec(), times)
    err_model = ImuErrorModel(bias_mode="fixed_magnitude")
    finals, early = [], []
    for seed in range(8):
        t, err = drift_profile(poses, err_model, rate, np.random.default_rng(seed))
        early.append(np.interp(12.0, t, err))
        finals.append(err[-1])
    assert np.median(finals) > 5.0 * np.median(early)
