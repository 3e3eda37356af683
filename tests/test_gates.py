import math

import numpy as np
import pytest
from helpers import add_noise, random_double_bounce, random_single_bounce, specular_path

from mpnav.fixes import sbr_locus_residual
from mpnav.gates import GateConfig, classify_los, motion_gate, oori_check
from mpnav.scene import Pose
from mpnav.synth import NoiseCfg, PathLossModel, synth_los, synth_sbr

PLM = PathLossModel()
CFG = GateConfig()


def pose_at(p, t=0.0):
    return Pose(t=t, p=np.asarray(p, dtype=float), v=np.zeros(3), att=np.zeros(3))


def test_gate_config_validation():
    with pytest.raises(ValueError):
        GateConfig(range_consistency_m=-1.0)


def test_classify_los_noise_free():
    from mpnav.scene import BaseStation

    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    obs = synth_los(bs, pose_at([30.0, 40.0, 0.0]), PLM)
    assert classify_los(obs.rtt, obs.rss, PLM, CFG)
    # the two ranges agree to float round-off, so even a hair-thin gate passes
    assert classify_los(obs.rtt, obs.rss, PLM, GateConfig(range_consistency_m=1e-9))


def test_classify_los_rejects_reflection():
    # 6 dB bounce loss at exponent 2 inflates the RSS range by 10^(6/20)
    from mpnav.scene import BaseStation, Wall

    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    wall = Wall(id="x50", a=[50.0, 0.0], b=[50.0, 100.0], z0=0.0, h=20.0)
    path = specular_path(bs, np.array([20.0, 30.0, 0.0]), wall)
    obs = synth_sbr(path, pose_at([20.0, 30.0, 0.0]), PLM)
    d_time = obs.toa * 299792458.0
    d_rss = PLM.distance_from_rss(obs.rss)
    assert d_rss == pytest.approx(d_time * 10.0 ** (6.0 / 20.0), rel=1e-9)
    gap = abs(d_time - d_rss)
    assert gap > 85.0
    # a reflected path's travel time read as a direct path's round trip
    rtt = 2.0 * obs.toa
    assert not classify_los(rtt, obs.rss, PLM, GateConfig(range_consistency_m=85.0))
    assert classify_los(rtt, obs.rss, PLM, GateConfig(range_consistency_m=math.inf))


def test_classify_los_threshold_monotone():
    rng = np.random.default_rng(0)
    noise = NoiseCfg(var_range_m2=2.0, var_angle_deg2=0.05)
    from mpnav.scene import BaseStation

    for k in range(50):
        bs = BaseStation(id="a", p=rng.uniform(-50, 50, 3) + [0, 0, 60])
        (obs,) = add_noise([synth_los(bs, pose_at(rng.uniform(-30, 30, 3)), PLM)], noise, rng)
        thr = rng.uniform(0.1, 20.0)
        admitted = classify_los(obs.rtt, obs.rss, PLM, GateConfig(range_consistency_m=thr))
        for scale in (1.5, 3.0, 10.0):
            wider = classify_los(obs.rtt, obs.rss, PLM, GateConfig(range_consistency_m=scale * thr))
            assert wider or not admitted


def test_oori_admits_noise_free_single_bounces():
    rng = np.random.default_rng(1)
    for _ in range(100):
        bs, ue, wall, path = random_single_bounce(rng)
        obs = synth_sbr(path, pose_at(ue), PLM)
        residual = sbr_locus_residual(bs, obs, ue)
        assert residual <= 1e-6
        assert oori_check(obs.aod_el, obs.aoa_el, residual, CFG)[0]


def test_oori_rejects_double_bounces():
    rng = np.random.default_rng(2)
    rejected = 0
    n = 100
    for _ in range(n):
        bs, ue, walls, path = random_double_bounce(rng)
        obs = synth_sbr(path, pose_at(ue), PLM)
        residual = sbr_locus_residual(bs, obs, ue)
        if not oori_check(obs.aod_el, obs.aoa_el, residual, CFG)[0]:
            rejected += 1
    assert rejected >= 0.95 * n


def test_oori_zero_eps_rejects_noisy():
    rng = np.random.default_rng(3)
    cfg = GateConfig(elevation_eps_rad=0.0)
    hits = 0
    for _ in range(50):
        bs, ue, wall, path = random_single_bounce(rng)
        (obs,) = add_noise([synth_sbr(path, pose_at(ue), PLM)], NoiseCfg(0.5, 0.01), rng)
        if oori_check(obs.aod_el, obs.aoa_el, 0.0, cfg)[0]:
            hits += 1
    assert hits == 0


def test_motion_gate():
    cfg = GateConfig(motion_margin_m=2.0)
    assert motion_gate([0, 0, 0], [0, 0, 0], 0.0, cfg)
    assert not motion_gate([50, 0, 0], [0, 0, 0], 1.0, cfg)
    # margin monotonicity
    assert not motion_gate([5, 0, 0], [0, 0, 0], 1.0, cfg)
    assert motion_gate([5, 0, 0], [0, 0, 0], 1.0, GateConfig(motion_margin_m=4.5))
    # true fix while driving at 9.8 m/s over one 0.1 s epoch
    prior = np.array([0.0, 0.0, 0.0])
    true_p = prior + np.array([0.98, 0.0, 0.0])
    assert motion_gate(true_p, prior, 0.98, cfg)
    # stacked candidates: one verdict per row, equal to the single-row calls
    rng = np.random.default_rng(8)
    cands = rng.normal(0.0, 3.0, (200, 3))
    prior = rng.normal(0.0, 1.0, 3)
    batch = motion_gate(cands, prior, 1.5, cfg)
    assert batch.shape == (200,)
    assert batch.tolist() == [bool(motion_gate(c, prior, 1.5, cfg)) for c in cands]
    # the step is the norm np.linalg.norm gives a single vector, bit for bit
    for c in cands[:50]:
        step = float(np.linalg.norm(c - prior))
        assert motion_gate(c, prior, step - cfg.motion_margin_m, cfg)
        assert not motion_gate(c, prior, np.nextafter(step, 0.0) - cfg.motion_margin_m, cfg)
