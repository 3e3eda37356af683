"""Error-state UKF: sigma points, process noise, prediction, and gated
position updates."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import identity, mechanize_per_sample, predict_reference
from scipy.stats import chi2

from mpnav import fusion, quat
from mpnav.fusion import (
    N_ERR,
    FilterState,
    NumericError,
    UkfParams,
    _compose,
    _correct,
    _finalize_cov,
    _gate_dof4,
    _inject,
    _points,
    _ut_weights,
    predict,
    process_noise,
    update_position,
    update_position_yaw,
)
from mpnav.ins import GRAVITY, mechanize_arrays

UP_ACCEL = np.array([0.0, 0.0, -GRAVITY[2]])
NO_NOISE = process_noise(0.0, 0.0)


def level_state(P=None):
    return FilterState(
        p=np.zeros(3),
        v=np.zeros(3),
        q_bn=identity(),
        P=np.eye(N_ERR) if P is None else P,
    )


def stationary_imu(n, dt=0.01):
    gyros = np.zeros((n, 3))
    accels = np.tile(UP_ACCEL, (n, 1))
    dts = np.full(n, dt)
    return gyros, accels, dts


def test_sigma_points_scalar_example():
    # n=1, alpha=1, kappa=0: lambda=0, points at mean +- sqrt(P)
    n_lam, wm, wc = _ut_weights(1, alpha=1.0, beta=2.0, kappa=0.0)
    pts = _points(np.zeros(1), np.eye(1), n_lam)
    assert n_lam == 1.0
    assert pts.flatten() == pytest.approx([0.0, 1.0, -1.0])
    assert wm == pytest.approx([0.0, 0.5, 0.5])
    assert wc == pytest.approx([2.0, 0.5, 0.5])


def test_sigma_points_recover_moments():
    rng = np.random.default_rng(3)
    for n in (2, 5, 15):
        a = rng.normal(size=(n, n))
        P = a @ a.T + n * np.eye(n)
        mean = rng.normal(size=n)
        n_lam, wm, wc = _ut_weights(n, alpha=0.5, beta=2.0, kappa=0.0)
        pts = _points(mean, P, n_lam)
        assert wm.sum() == pytest.approx(1.0, abs=1e-12)
        assert wm @ pts == pytest.approx(mean, abs=1e-10)
        d = pts - mean
        assert (wc * d.T) @ d == pytest.approx(P, abs=1e-8)


def test_sigma_points_indefinite_raises():
    P = np.eye(3)
    P[2, 2] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        _points(np.zeros(3), P, _ut_weights(3, alpha=0.5, beta=2.0, kappa=0.0)[0])


def test_predict_tracks_mechanization():
    # tiny covariance: the sigma-point mean must match plain dead reckoning
    fs = level_state(P=1e-16 * np.eye(N_ERR))
    n = 50
    gyros = np.tile([0.0, 0.0, 0.2], (n, 1))
    accels = np.tile(UP_ACCEL, (n, 1))
    dts = np.full(n, 0.01)
    out = predict(fs, gyros, accels, dts, UkfParams(), NO_NOISE)
    p, v, _ = mechanize_arrays(fs.p, fs.v, fs.q_bn, np.zeros(3), np.zeros(3), gyros, accels, dts)
    assert out.p == pytest.approx(p[-1], abs=1e-9)
    assert out.v == pytest.approx(v[-1], abs=1e-9)
    _, _, yaw = quat.to_euler(out.q_bn)
    assert yaw == pytest.approx(0.2 * 0.5, abs=1e-9)


def test_predict_matches_per_sample_reference(monkeypatch):
    # the interval-wide mechanization gives the same prediction, bit for bit,
    # as stepping every sigma point one IMU sample at a time
    rng = np.random.default_rng(21)
    fs = FilterState(
        p=np.array([10.0, -4.0, 1.5]),
        v=np.array([7.5, 2.0, 0.1]),
        q_bn=quat.from_euler(0.02, -0.01, 1.1),
        b_g=np.array([1e-4, -2e-4, 5e-5]),
        b_a=np.array([1e-3, 2e-3, -1e-3]),
        # distinct bias sigmas per axis, so every sigma point has its own biases
        P=np.diag([0.25] * 3 + [0.01] * 3 + [2.5e-5] * 3 + [1e-8, 4e-8, 9e-8] + [1e-6, 4e-6, 9e-6]),
    )
    params = UkfParams()
    Q = process_noise(1e-3, 1e-4)
    for m in (1, 10):
        gyros = rng.normal(0.0, 0.2, (m, 3))
        accels = rng.normal(0.0, 1.0, (m, 3)) + UP_ACCEL
        dts = np.full(m, 0.05)
        got = predict(fs, gyros, accels, dts, params, Q)
        with monkeypatch.context() as mp:
            mp.setattr(fusion, "mechanize_arrays", mechanize_per_sample)
            ref = predict(fs, gyros, accels, dts, params, Q)
        for name in ("p", "v", "q_bn", "b_g", "b_a", "P"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def test_predict_matches_numpy_reference():
    # cached weights, the attitude mean on Python floats and the other
    # array rewrites leave every bit of the prediction as the reference
    # computes it; Q has a density on every block but the accel bias
    rng = np.random.default_rng(22)
    params = UkfParams(alpha=0.7, kappa=1.0)
    Q = np.diag([1e-4] * 3 + [2e-6] * 3 + [3e-8] * 3 + [1e-12] * 3 + [0.0] * 3)
    for m in (1, 10, 37):
        a = rng.normal(size=(N_ERR, N_ERR))
        fs = FilterState(
            p=rng.normal(0.0, 100.0, 3),
            v=rng.normal(0.0, 8.0, 3),
            q_bn=quat.normalize(rng.normal(size=4)),
            b_g=rng.normal(0.0, 1e-4, 3),
            b_a=rng.normal(0.0, 1e-3, 3),
            # distinct bias sigmas per axis, correlated with the rest
            P=1e-6 * a @ a.T
            + np.diag([0.25] * 3 + [0.01] * 3 + [2.5e-5] * 3 + [1e-8, 4e-8, 9e-8] + [1e-6, 4e-6, 9e-6]),
        )
        gyros = rng.normal(0.0, 0.2, (m, 3))
        accels = rng.normal(0.0, 1.0, (m, 3)) + UP_ACCEL
        dts = rng.uniform(0.005, 0.05, m)
        got = predict(fs, gyros, accels, dts, params, Q)
        ref = predict_reference(fs, gyros, accels, dts, params, Q)
        assert got.min_eig == ref.min_eig
        for name in ("p", "v", "q_bn", "b_g", "b_a", "P"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), (m, name)


def test_predict_constants_follow_the_parameter_set():
    base = UkfParams()
    n_lam, wm, wc = base._predict_constants
    # built once, read-only, and equal to what _ut_weights builds on every
    # call
    assert base._predict_constants is base._predict_constants
    n_lam_ref, wm_ref, wc_ref = _ut_weights(N_ERR, base.alpha, base.beta, base.kappa)
    assert n_lam == n_lam_ref
    assert wm.tobytes() == wm_ref.tobytes()
    assert wc.tobytes() == wc_ref.tobytes()
    for a in (wm, wc):
        with pytest.raises(ValueError):
            a[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.alpha = 0.3
    # another alpha moves the spread and the weights
    n_lam2, wm2, wc2 = UkfParams(alpha=0.3)._predict_constants
    assert n_lam2 != n_lam
    assert not np.array_equal(wm2, wm) and not np.array_equal(wc2, wc)


def test_predict_biases_spread_velocity():
    # accel-bias uncertainty must leak into velocity covariance over time
    P0 = 1e-12 * np.eye(N_ERR)
    P0_b = P0.copy()
    P0_b[12:15, 12:15] = 1e-4 * np.eye(3)
    g, a, dts = stationary_imu(100)
    tight = predict(level_state(P=P0), g, a, dts, UkfParams(), NO_NOISE)
    loose = predict(level_state(P=P0_b), g, a, dts, UkfParams(), NO_NOISE)
    var_tight = np.trace(tight.P[3:6, 3:6])
    var_loose = np.trace(loose.P[3:6, 3:6])
    assert var_loose > 100.0 * var_tight
    # 1 s of a constant accel bias: dv = b * t, so var(v) = var(b) * t^2
    assert var_loose == pytest.approx(3 * 1e-4, rel=0.05)


def test_predict_process_noise_grows_trace():
    g, a, dts = stationary_imu(100)
    quiet = process_noise(math.sqrt(1e-9), math.sqrt(1e-9))
    noisy = process_noise(math.sqrt(1e-3), math.sqrt(1e-5))
    # keep attitude/bias blocks negligible so they cannot leak into velocity
    P0 = 1e-16 * np.eye(N_ERR)
    P0[:6, :6] = 1e-8 * np.eye(6)
    fs = level_state(P=P0)
    out_q = predict(fs, g, a, dts, UkfParams(), quiet)
    out_n = predict(fs, g, a, dts, UkfParams(), noisy)
    assert np.trace(out_n.P) > np.trace(out_q.P)
    # Q enters as density * elapsed
    assert out_n.P[3, 3] == pytest.approx(1e-8 + 1e-3 * 1.0, rel=1e-3)


def test_predict_rejects_bad_intervals():
    fs = level_state()
    params = UkfParams()
    with pytest.raises(ValueError):
        predict(fs, np.zeros((2, 3)), np.tile(UP_ACCEL, (2, 1)), np.array([0.01, 0.0]), params, NO_NOISE)
    with pytest.raises(ValueError):
        predict(fs, np.zeros((1, 3)), UP_ACCEL[None], np.array([-0.01]), params, NO_NOISE)


def test_update_position_limit_cases():
    params = UkfParams()
    P0 = np.diag([4.0, 4.0, 4.0, 0.25, 0.25, 0.25] + [1e-4] * 9)
    z = np.array([1.0, -2.0, 0.5])
    # near-exact measurement pins the state to it
    fs, info = update_position(level_state(P=P0), z, 1e-12 * np.eye(3), params)
    assert info.accepted
    assert fs.p == pytest.approx(z, abs=1e-6)
    # near-useless measurement leaves the prior alone
    fs2, _ = update_position(level_state(P=P0), z, 1e12 * np.eye(3), params)
    assert fs2.p == pytest.approx(np.zeros(3), abs=1e-6)
    assert np.allclose(fs2.P, P0, atol=1e-6)


def test_update_position_matches_linear_kf():
    # both updates are linear in the error state: each must reproduce the
    # Kalman step written out with an explicit H
    rng = np.random.default_rng(11)
    a = rng.normal(size=(N_ERR, N_ERR))
    P0 = a @ a.T + N_ERR * np.eye(N_ERR)
    fs0 = level_state(P=P0)
    z = np.array([0.8, -0.3, 0.2])
    R = np.diag([0.5, 0.7, 0.9])
    fs, info = update_position(fs0, z, R, UkfParams())
    H = np.zeros((3, N_ERR))
    H[:, :3] = np.eye(3)
    S = H @ P0 @ H.T + R
    K = P0 @ H.T @ np.linalg.inv(S)
    dx = K @ z  # innovation equals z because the prior position is zero
    P1 = P0 - K @ S @ K.T
    assert info.nis == pytest.approx(z @ np.linalg.solve(S, z), rel=1e-9)
    assert fs.p == pytest.approx(dx[:3], abs=1e-8)
    assert fs.v == pytest.approx(dx[3:6], abs=1e-8)
    assert quat.to_rotvec(fs.q_bn) == pytest.approx(dx[6:9], abs=1e-8)
    assert fs.b_g == pytest.approx(dx[9:12], abs=1e-8)
    assert np.allclose(fs.P, P1, atol=1e-7)

    # position + yaw: the yaw row is the third row of R(q) on the attitude
    # block, and its innovation is the fix's yaw offset itself
    q0 = quat.from_euler(0.1, -0.2, 0.7)
    fs0 = FilterState(p=np.array([1.0, 2.0, 0.5]), v=np.zeros(3), q_bn=q0, P=P0)
    fix = SimpleNamespace(p=np.array([1.5, 1.8, 0.4]), yaw=0.3)
    R4 = np.diag([0.5, 0.7, 0.9, 0.05])
    R4[:3, 3] = R4[3, :3] = [0.01, -0.02, 0.005]
    fs, info = update_position_yaw(fs0, fix, R4, UkfParams())
    H = np.zeros((4, N_ERR))
    H[:3, :3] = np.eye(3)
    H[3, 6:9] = quat.to_matrix(q0)[2]
    nu = np.concatenate([fix.p - fs0.p, [fix.yaw]])
    S = H @ P0 @ H.T + R4
    K = P0 @ H.T @ np.linalg.inv(S)
    dx = K @ nu
    assert info.accepted
    assert info.nis == pytest.approx(nu @ np.linalg.solve(S, nu), rel=1e-9)
    assert fs.p == pytest.approx(fs0.p + dx[:3], abs=1e-8)
    assert fs.v == pytest.approx(dx[3:6], abs=1e-8)
    d_att = quat.to_rotvec(quat.multiply(quat.conjugate(q0), fs.q_bn))
    assert d_att == pytest.approx(dx[6:9], abs=1e-8)
    assert fs.b_a == pytest.approx(dx[12:15], abs=1e-8)
    assert np.allclose(fs.P, P0 - K @ S @ K.T, atol=1e-7)


def test_update_position_tightens_every_axis():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(N_ERR, N_ERR))
    P0 = a @ a.T + N_ERR * np.eye(N_ERR)
    fs, info = update_position(level_state(P=P0), np.array([0.1, 0.0, -0.1]), np.eye(3), UkfParams())
    assert info.accepted
    assert np.all(np.diag(fs.P)[:3] <= np.diag(P0)[:3] + 1e-12)


def test_update_position_nis_gate_blocks_outlier():
    params = UkfParams()
    fs0 = level_state(P=np.diag([1.0] * 3 + [1e-2] * 12))
    fs, info = update_position(fs0, np.array([100.0, 0.0, 0.0]), 0.25 * np.eye(3), params)
    assert not info.accepted
    assert info.nis > params.nis_gate
    # a rejected update hands back the state it was given
    assert fs is fs0


def test_update_position_yaw_corrects_heading():
    # estimate is yawed -0.01 rad from truth; a yaw-offset measurement of
    # +0.01 (the correction, nav frame) should pull most of it out
    psi = 0.01
    P0 = np.diag([1.0] * 6 + [4e-4] * 3 + [1e-6] * 6)
    fs0 = FilterState(p=np.zeros(3), v=np.zeros(3), q_bn=quat.from_euler(0.0, 0.0, -psi), P=P0)
    fix = SimpleNamespace(p=np.zeros(3), yaw=psi)
    R = np.diag([0.01, 0.01, 0.01, 1e-8])
    fs, info = update_position_yaw(fs0, fix, R, UkfParams())
    assert info.accepted
    _, _, yaw_after = quat.to_euler(fs.q_bn)
    assert abs(yaw_after) < 0.05 * psi
    assert fs.P[8, 8] < 0.05 * P0[8, 8]


def test_gate_dof4_holds_confidence():
    g3 = float(chi2.ppf(0.999, 3))
    g4 = _gate_dof4(g3)
    assert chi2.cdf(g4, 4) == pytest.approx(chi2.cdf(g3, 3), abs=1e-12)
    assert g4 > g3


def test_finalize_cov_repairs_and_rejects():
    # asymmetry is averaged away
    P = np.array([[2.0, 0.1, 0.0], [0.3, 2.0, 0.0], [0.0, 0.0, 2.0]])
    out, eigmin = _finalize_cov(P)
    assert np.array_equal(out, out.T)
    assert out[0, 1] == pytest.approx(0.2)
    assert eigmin == np.linalg.eigvalsh(out)[0]
    # a round-off-scale negative eigenvalue gets floored, and the eigenvalue
    # returned is the floored matrix's
    P = np.diag([1.0, 1.0, -1e-9])
    out, eigmin = _finalize_cov(P)
    assert np.linalg.eigvalsh(out)[0] >= 1e-13
    assert eigmin == np.linalg.eigvalsh(out)[0]
    # anything clearly indefinite is a hard failure
    with pytest.raises(NumericError):
        _finalize_cov(np.diag([1.0, 1.0, -1e-4]))


def test_ukf_params_validation():
    with pytest.raises(ValueError):
        UkfParams(alpha=0.0)
    with pytest.raises(ValueError):
        UkfParams(alpha=1.5)
    assert [f.name for f in dataclasses.fields(UkfParams)] == ["alpha", "beta", "kappa", "nis_gate"]


def test_process_noise_from_imu_densities():
    # accel density squared on velocity, gyro density squared on attitude,
    # zero on position, the biases and every off-diagonal entry
    Q = process_noise(2e-3, 3e-4)
    want = np.zeros((N_ERR, N_ERR))
    want[3:6, 3:6] = (2e-3**2) * np.eye(3)
    want[6:9, 6:9] = (3e-4**2) * np.eye(3)
    assert Q.tobytes() == want.tobytes()


def test_error_vector_pairs_with_injection():
    rng = np.random.default_rng(9)
    fs = FilterState(
        p=rng.normal(size=3),
        v=rng.normal(size=3),
        q_bn=quat.normalize(rng.normal(size=4)),
        b_g=rng.normal(size=3) * 1e-3,
        b_a=rng.normal(size=3) * 1e-2,
    )
    dx = rng.normal(size=N_ERR) * 0.01
    p = fs.p + dx[:3]
    v = fs.v + dx[3:6]
    q = quat.multiply(fs.q_bn, quat.from_rotvec(dx[6:9]))
    bg = fs.b_g + dx[9:12]
    ba = fs.b_a + dx[12:15]
    assert fs.error_vector(p, v, q, bg, ba) == pytest.approx(dx, abs=1e-12)


def test_gate_constants_match_scipy():
    # the filter's chi-square constants are computed without scipy.stats;
    # they must equal scipy's values (exactly at the default gate)
    from mpnav.fusion import NIS_GATE_999_DOF3

    assert NIS_GATE_999_DOF3 == float(chi2.ppf(0.999, 3))
    default = float(chi2.ppf(chi2.cdf(NIS_GATE_999_DOF3, 3), 4))
    assert _gate_dof4(NIS_GATE_999_DOF3) == default
    for g in np.geomspace(0.1, 100.0, 60):
        # isf(sf) keeps its precision where the tail is tiny (ppf(cdf)
        # rounds cdf to 1 and overflows above g = 78)
        ref = float(chi2.isf(chi2.sf(g, 3), 4))
        assert _gate_dof4(float(g)) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_import_leaves_scipy_stats_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mpnav

    src = str(Path(mpnav.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, mpnav.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_correct_matches_inject():
    # the Python-float correction, with math.cos and np.sinc's own formula
    # on math.sin, equals the array injection bit for bit: attitude
    # corrections from zero and sub-1e-8 rad angles up to pi, about one
    # axis or all three
    rng = np.random.default_rng(21)
    angles = np.concatenate([[0.0, 1e-300, 1e-16], 10.0 ** rng.uniform(-16.0, math.log10(math.pi), 1000)])
    for k, angle in enumerate(angles):
        fs = FilterState(
            p=rng.normal(size=3),
            v=rng.normal(size=3),
            q_bn=quat.normalize(rng.normal(size=4)),
            b_g=rng.normal(size=3),
            b_a=rng.normal(size=3),
        )
        dx = rng.normal(size=N_ERR) * 10.0 ** rng.uniform(-9.0, 0.0)
        axis = np.eye(3)[k % 3] if k % 2 else rng.normal(size=3)
        dx[6:9] = angle * axis / np.linalg.norm(axis)
        for got, ref in zip(_correct(fs, dx), _inject(fs, dx)):
            assert np.array_equal(got, ref), angle


def test_compose_matches_array_product():
    # the Python-float composition equals normalize(multiply(q,
    # from_rotvec(r))) on numpy byte for byte: r = 0, sub-1e-8 rad and up
    # to pi, about one axis or all three
    rng = np.random.default_rng(23)
    angles = np.concatenate([[0.0, 1e-300, 1e-16, 1e-9], 10.0 ** rng.uniform(-16.0, math.log10(math.pi), 9996)])
    for k, angle in enumerate(angles):
        q = quat.normalize(rng.normal(size=4))
        axis = np.eye(3)[k % 3] if k % 2 else rng.normal(size=3)
        r = angle * axis / np.linalg.norm(axis)
        ref = quat.normalize(quat.multiply(q, quat.from_rotvec(r)))
        assert _compose(q, r).tobytes() == ref.tobytes(), angle
