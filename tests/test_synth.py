import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    add_noise,
    apply_noise_per_record,
    random_double_bounce,
    random_single_bounce,
)

from mpnav import quat
from mpnav.scene import SPEED_OF_LIGHT, BaseStation, Pose, specular_path, unit_from_angles
from mpnav.synth import (
    ImuErrorModel,
    ImuSample,
    LosObs,
    NoiseCfg,
    OdoSample,
    OutageWindow,
    PathLossModel,
    SbrObs,
    apply_noise,
    apply_outages,
    read_measurement_log,
    synth_imu,
    synth_los,
    synth_odo,
    synth_sbr,
    write_measurement_log,
)

PLM = PathLossModel()


def pose_at(p, att=(0.0, 0.0, 0.0), t=0.0, v=(0.0, 0.0, 0.0)):
    return Pose(t=t, p=np.asarray(p, dtype=float), v=np.asarray(v, dtype=float), att=np.asarray(att, dtype=float))


def test_synth_los_worked_example():
    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    obs = synth_los(bs, pose_at([30.0, 40.0, 0.0]), PLM)
    d = math.sqrt(2600.0)
    assert obs.rtt == pytest.approx(2.0 * d / SPEED_OF_LIGHT, rel=1e-12)
    assert obs.rtt == pytest.approx(3.4016e-7, rel=1e-4)
    assert obs.aod_az == pytest.approx(math.atan2(40.0, 30.0), abs=1e-12)
    assert obs.aod_el == pytest.approx(math.asin(-10.0 / d), abs=1e-12)
    assert obs.rss == pytest.approx(PLM.rss(d))


def test_synth_los_axis_alignment_and_antipodal():
    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    obs = synth_los(bs, pose_at([10.0, 0.0, 10.0]), PLM)
    assert obs.aod_az == pytest.approx(0.0, abs=1e-12)
    assert obs.aod_el == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(50):
        ue = rng.uniform(-80, 80, 3) + [0, 0, 81]
        obs = synth_los(bs, pose_at(ue), PLM)
        d_az = math.atan2(math.sin(obs.aoa_az - obs.aod_az), math.cos(obs.aoa_az - obs.aod_az))
        assert abs(d_az) == pytest.approx(math.pi, abs=1e-9)
        assert obs.aoa_el == pytest.approx(-obs.aod_el, abs=1e-12)
    with pytest.raises(ValueError):
        synth_los(bs, pose_at(bs.p), PLM)


def test_synth_sbr_worked_example():
    from mpnav.scene import Wall

    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    wall = Wall(id="x50", a=[50.0, 0.0], b=[50.0, 100.0], z0=0.0, h=20.0)
    path = specular_path(bs, np.array([20.0, 30.0, 0.0]), wall)
    obs = synth_sbr(path, pose_at([20.0, 30.0, 0.0]), PLM)
    assert obs.toa == pytest.approx(2.8694e-7, rel=1e-4)
    assert obs.toa * SPEED_OF_LIGHT > np.linalg.norm(bs.p - [20.0, 30.0, 0.0])
    # reflection penalty is exactly the configured loss
    assert PLM.rss(path.length) - obs.rss == pytest.approx(PLM.reflection_loss_db, abs=1e-12)
    assert obs.truth_bounces == 1


def test_synth_sbr_body_angles_consistent():
    rng = np.random.default_rng(1)
    for _ in range(40):
        bs, ue, wall, path = random_single_bounce(rng)
        att = rng.uniform(-0.4, 0.4, 3)
        pose = pose_at(ue, att=att)
        obs = synth_sbr(path, pose, PLM)
        q_bn = quat.from_euler(*att)
        u_body = unit_from_angles(obs.aoa_az_body, obs.aoa_el_body)
        assert np.allclose(quat.rotate(q_bn, u_body), path.u_arr, atol=1e-9)
        # global angles match the path directions directly
        assert np.allclose(unit_from_angles(obs.aoa_az, obs.aoa_el), path.u_arr, atol=1e-12)
        assert np.allclose(unit_from_angles(obs.aod_az, obs.aod_el), path.u_dep, atol=1e-12)


def test_path_loss_model():
    assert PLM.rss(1.0) == pytest.approx(PLM.tx_power_dbm - PLM.pl0_db)
    assert PLM.rss(10.0) == pytest.approx(PLM.tx_power_dbm - PLM.pl0_db - 20.0)
    d = PLM.distance_from_rss(PLM.rss(137.0))
    assert d == pytest.approx(137.0, rel=1e-12)
    arr = PLM.rss(np.array([1.0, 10.0]))
    assert arr.shape == (2,)
    with pytest.raises(ValueError):
        PLM.rss(0.0)
    with pytest.raises(ValueError):
        PathLossModel(exponent=0.0)


def sample_los():
    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    return synth_los(bs, pose_at([30.0, 40.0, 0.0]), PLM)


def sample_block():
    """Two LoS rows then one reflected row: (obs, n_los, body, records)."""
    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    los = [synth_los(bs, pose_at(p), PLM) for p in ([30.0, 40.0, 0.0], [-20.0, 5.0, 1.0])]
    _, ue, _, path = random_single_bounce(np.random.default_rng(4))
    sbr = synth_sbr(path, pose_at(ue, att=[0.1, -0.05, 0.8]), PLM)
    obs = np.array(
        [(o.rtt, o.aod_az, o.aod_el, o.aoa_az, o.aoa_el) for o in los]
        + [(sbr.toa, sbr.aod_az, sbr.aod_el, sbr.aoa_az, sbr.aoa_el)]
    )
    body = np.array([[sbr.aoa_az_body, sbr.aoa_el_body]])
    return obs, 2, body, los + [sbr]


def test_apply_noise_zero_noise_is_identity():
    obs, n_los, body, _ = sample_block()
    zero = NoiseCfg(var_range_m2=0.0, var_angle_deg2=0.0)
    out, out_body = apply_noise(obs, zero, np.random.default_rng(0), n_los=n_los, body=body)
    assert np.array_equal(out, obs)
    assert np.array_equal(out_body, body)
    assert out is not obs
    assert out_body is not body


def test_apply_noise_deterministic_and_draw_count():
    obs, n_los, body, _ = sample_block()
    cfg = NoiseCfg(var_range_m2=1.0, var_angle_deg2=0.01)
    a, _ = apply_noise(obs, cfg, np.random.default_rng(7), n_los=n_los, body=body)
    b, _ = apply_noise(obs, cfg, np.random.default_rng(7), n_los=n_los, body=body)
    assert np.array_equal(a, b)
    c, _ = apply_noise(obs, cfg, np.random.default_rng(8), n_los=n_los, body=body)
    assert not np.array_equal(c, a)
    # exactly five unit normals consumed per record, at any variance
    rng1 = np.random.default_rng(9)
    apply_noise(obs, NoiseCfg(var_range_m2=0.0, var_angle_deg2=0.0), rng1, n_los=n_los)
    second_after_zero, _ = apply_noise(obs, cfg, rng1, n_los=n_los)
    rng2 = np.random.default_rng(9)
    rng2.standard_normal(5 * len(obs))
    assert np.array_equal(apply_noise(obs, cfg, rng2, n_los=n_los)[0], second_after_zero)
    with pytest.raises(ValueError):
        NoiseCfg(var_range_m2=-1.0)


def test_apply_noise_statistics():
    # implied-range error variance and additive zero-mean behavior, 1e5 draws
    obs = sample_los()
    row = np.array([[obs.rtt, obs.aod_az, obs.aod_el, obs.aoa_az, obs.aoa_el]])
    cfg = NoiseCfg(var_range_m2=1.0, var_angle_deg2=0.01)
    rng = np.random.default_rng(10)
    n = 100_000
    z = rng.standard_normal((n, 5))
    spot = z[::50]
    rows = np.repeat(row, len(spot), axis=0)
    noisy, _ = apply_noise(rows, cfg, _FixedDraws(spot), n_los=len(spot))
    d_err = 0.5 * SPEED_OF_LIGHT * (noisy[:, 0] - obs.rtt)
    # cheap path: the range perturbation is linear in z[0]; use all draws directly
    d_err_full = 1.0 * z[:, 0]
    var = float(np.var(d_err_full))
    assert 0.97 <= var <= 1.03
    assert abs(np.mean(d_err_full)) <= 3.0 / math.sqrt(n)
    # spot-check the full apply_noise agrees with the linear model
    assert np.allclose(d_err, spot[:, 0], atol=1e-6)
    az_err = noisy[:, 1] - obs.aod_az
    assert np.allclose(az_err, math.radians(0.1) * spot[:, 1], atol=1e-9)


class _FixedDraws:
    """Stands in for a Generator, returning pre-selected unit normals."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, shape):
        assert tuple(shape) == self.z.shape
        return self.z


def test_apply_noise_sbr_body_angles_track_global():
    rng = np.random.default_rng(2)
    bs, ue, wall, path = random_single_bounce(rng)
    obs = synth_sbr(path, pose_at(ue, att=[0.1, -0.05, 0.8]), PLM)
    row = np.array([[obs.toa, obs.aod_az, obs.aod_el, obs.aoa_az, obs.aoa_el]])
    body = np.array([[obs.aoa_az_body, obs.aoa_el_body]])
    cfg = NoiseCfg(var_range_m2=0.5, var_angle_deg2=0.01)
    noisy, noisy_body = apply_noise(row, cfg, np.random.default_rng(3), body=body)
    assert noisy_body[0, 0] - obs.aoa_az_body == pytest.approx(
        noisy[0, 3] - obs.aoa_az, abs=1e-12
    )
    assert noisy_body[0, 1] - obs.aoa_el_body == pytest.approx(
        noisy[0, 4] - obs.aoa_el, abs=1e-12
    )


def test_apply_noise_matches_per_record_reference():
    # LoS, single- and double-bounce records; rows equal the per-record
    # reference exactly on rtt/toa and within 1e-12 rad on the angles, and
    # both leave the generator in the same state (five draws per record)
    rng = np.random.default_rng(12)
    records = []
    for k in range(6):
        bs, ue, _, _ = random_single_bounce(rng)
        records.append(synth_los(bs, pose_at(ue), PLM))
    for k in range(6):
        bs, ue, _, path = random_single_bounce(rng)
        records.append(synth_sbr(path, pose_at(ue, att=rng.uniform(-0.4, 0.4, 3)), PLM))
    for k in range(6):
        bs, ue, _, path = random_double_bounce(rng)
        records.append(synth_sbr(path, pose_at(ue, att=rng.uniform(-0.4, 0.4, 3)), PLM))
    assert [o.truth_bounces for o in records[6:]] == [1] * 6 + [2] * 6
    for cfg in (NoiseCfg(0.5, 0.01), NoiseCfg(4.0, 2.0), NoiseCfg(0.0, 0.01), NoiseCfg(0.5, 0.0)):
        rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
        got = add_noise(records, cfg, rng_a)
        ref = [apply_noise_per_record(o, cfg, rng_b) for o in records]
        assert rng_a.standard_normal() == rng_b.standard_normal()
        for g, r in zip(got, ref):
            assert type(g) is type(r)
            assert g.bs_id == r.bs_id and g.t == r.t and g.rss == r.rss
            if isinstance(r, LosObs):
                assert g.rtt == r.rtt
            else:
                assert g.toa == r.toa
                assert g.truth_bounces == r.truth_bounces
                assert g.aoa_az_body == pytest.approx(r.aoa_az_body, abs=1e-12)
                assert g.aoa_el_body == pytest.approx(r.aoa_el_body, abs=1e-12)
            for name in ("aod_az", "aod_el", "aoa_az", "aoa_el"):
                assert getattr(g, name) == pytest.approx(getattr(r, name), abs=1e-12)


def test_apply_outages():
    los = replace(sample_los(), t=30.0)
    sbr = SbrObs(
        bs_id="a", t=30.0, toa=1e-6, aod_az=0.0, aod_el=0.0, aoa_az=0.0, aoa_el=0.0, rss=-60.0
    )
    windows = [OutageWindow(20.0, 40.0)]
    assert apply_outages(10.0, [los, sbr], windows) == [los, sbr]
    assert apply_outages(30.0, [los, sbr], windows) == [sbr]
    # closed interval: boundaries are inside
    assert apply_outages(20.0, [los], windows) == []
    assert apply_outages(40.0, [los], windows) == []
    assert apply_outages(40.0001, [los], windows) == [los]
    assert apply_outages(30.0, [los], []) == [los]
    with pytest.raises(ValueError):
        OutageWindow(5.0, 5.0)


def level_track(duration=10.0, rate=100.0, speed=0.0):
    ts = np.arange(0.0, duration + 0.5 / rate, 1.0 / rate)
    return [
        pose_at([speed * t, 0.0, 0.0], t=t, v=[speed, 0.0, 0.0]) for t in ts
    ]


def test_synth_imu_stationary_and_uniform_motion():
    err = ImuErrorModel(gyro_bias_std=0.0, accel_bias_std=0.0, gyro_noise_density=0.0, accel_noise_density=0.0)
    rng = np.random.default_rng(4)
    for speed in (0.0, 7.0):
        samples = synth_imu(level_track(speed=speed), err, 100.0, rng)
        gyro = np.stack([s.gyro for s in samples])
        accel = np.stack([s.accel for s in samples])
        assert np.allclose(gyro, 0.0, atol=1e-12)
        assert np.allclose(accel, [0.0, 0.0, 9.80665], atol=1e-9)
    with pytest.raises(ValueError):
        synth_imu(level_track()[:2], err, 100.0, rng)


def test_synth_imu_bias_modes():
    rng = np.random.default_rng(5)
    err = ImuErrorModel(bias_mode="fixed_magnitude")
    for _ in range(10):
        b_g, b_a = err.sample_biases(rng)
        assert np.linalg.norm(b_g) == pytest.approx(math.sqrt(3.0) * err.gyro_bias_std, rel=1e-12)
        assert np.linalg.norm(b_a) == pytest.approx(math.sqrt(3.0) * err.accel_bias_std, rel=1e-12)
    with pytest.raises(ValueError):
        ImuErrorModel(bias_mode="nope").sample_biases(rng)


def test_synth_odo():
    poses = level_track(duration=2.0, rate=10.0, speed=6.0)
    out = synth_odo(poses, 10.0, 0.0, np.random.default_rng(6))
    assert len(out) == 21
    assert all(o.speed == pytest.approx(6.0) for o in out)
    noisy = synth_odo(poses, 10.0, 0.1, np.random.default_rng(6))
    assert any(abs(o.speed - 6.0) > 1e-6 for o in noisy)


def test_measurement_log_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    bs, ue, wall, path = random_single_bounce(rng)
    pose = pose_at(ue, att=[0.02, -0.01, 1.1], t=1.5)
    records = [
        ImuSample(t=0.0, gyro=np.array([0.01, -0.02, 0.03]), accel=np.array([0.1, 0.2, 9.8])),
        OdoSample(t=0.0, speed=5.5),
        replace(synth_los(bs, pose, PLM), t=1.5),
        synth_sbr(path, pose, PLM),
    ]
    log = tmp_path / "m.jsonl"
    write_measurement_log(log, records)
    back = read_measurement_log(log)
    assert len(back["imu"]) == 1 and len(back["odo"]) == 1
    assert len(back["los"]) == 1 and len(back["sbr"]) == 1
    assert np.allclose(back["imu"][0].gyro, records[0].gyro)
    assert back["odo"][0].speed == records[1].speed
    assert back["los"][0] == records[2]
    assert back["sbr"][0] == records[3]
    # unknown record kinds are rejected on read
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "mystery"}\n')
    with pytest.raises(ValueError):
        read_measurement_log(bad)
