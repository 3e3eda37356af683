"""End-to-end runs: synthesis determinism, gating behavior, log bridging."""

import numpy as np
import pytest

from mpnav.pipeline import (
    Rates,
    RunSetup,
    measurement_set_from_records,
    records_from_measurement_set,
    run,
    run_filter,
    run_pair,
    synth_measurements,
)
from mpnav.scene import ring_scenario
from mpnav.synth import (
    ImuErrorModel,
    OutageWindow,
    read_measurement_log,
    write_measurement_log,
)

FAST = Rates(imu_hz=20.0, obs_hz=2.0, odo_hz=2.0)


def fast_setup(**kwargs):
    kwargs.setdefault("scenario", ring_scenario(speed_mps=8.0))
    kwargs.setdefault("duration_s", 20.0)
    kwargs.setdefault("rates", FAST)
    kwargs.setdefault("imu_err", ImuErrorModel(bias_mode="fixed_magnitude"))
    return RunSetup(**kwargs)


def sbr_toas(ms):
    return np.array([o.toa for ep in ms.epochs for o in ep.sbr])


def test_synth_is_deterministic_per_seed():
    ms_a = synth_measurements(fast_setup(seed=7))
    ms_b = synth_measurements(fast_setup(seed=7))
    assert np.array_equal(
        np.stack([s.gyro for s in ms_a.imu]), np.stack([s.gyro for s in ms_b.imu])
    )
    assert np.array_equal(sbr_toas(ms_a), sbr_toas(ms_b))
    rtt_a = [o.rtt for ep in ms_a.epochs for o in ep.los]
    rtt_b = [o.rtt for ep in ms_b.epochs for o in ep.los]
    assert rtt_a == rtt_b
    ms_c = synth_measurements(fast_setup(seed=8))
    assert not np.array_equal(sbr_toas(ms_a), sbr_toas(ms_c))


def test_epoch_grid_and_kinds():
    setup = fast_setup(duration_s=10.0)
    ms = synth_measurements(setup)
    assert len(ms.epochs) == 20
    step = int(FAST.imu_hz / FAST.obs_hz)
    for k, ep in enumerate(ms.epochs, start=1):
        assert ep.pose_index == k * step
        assert ep.t == pytest.approx(k * step / FAST.imu_hz)
        assert all(o.truth_bounces == 1 for o in ep.sbr)
        assert len(ep.sbr) >= 2
    assert len(ms.imu) == 200
    assert ms.truth_biases is not None


def test_outage_strips_los_only():
    base = fast_setup(seed=3)
    cut = fast_setup(seed=3, outages=[OutageWindow(6.0, 12.0)])
    ms_base = synth_measurements(base)
    ms_cut = synth_measurements(cut)
    # identical random draws: the reflections never see the outage
    assert np.array_equal(sbr_toas(ms_base), sbr_toas(ms_cut))
    for ep_b, ep_c in zip(ms_base.epochs, ms_cut.epochs):
        if 6.0 <= ep_c.t <= 12.0:
            assert ep_c.los == []
        else:
            assert [o.rtt for o in ep_c.los] == [o.rtt for o in ep_b.los]
    in_window = [ep for ep in ms_cut.epochs if 6.0 <= ep.t <= 12.0]
    assert len(in_window) >= 10
    assert sum(len(ep.los) for ep in ms_base.epochs) > 0


def test_noise_variance_change_keeps_unit_draws():
    # common random numbers: scaling the declared variance scales the applied
    # perturbation without re-drawing it
    from mpnav.synth import NoiseCfg

    quiet = synth_measurements(fast_setup(seed=5, noise=NoiseCfg(var_range_m2=0.0, var_angle_deg2=0.0)))
    loud = synth_measurements(fast_setup(seed=5, noise=NoiseCfg(var_range_m2=4.0, var_angle_deg2=0.0)))
    louder = synth_measurements(fast_setup(seed=5, noise=NoiseCfg(var_range_m2=16.0, var_angle_deg2=0.0)))
    t0 = np.array(quiet.epochs[0].t)
    assert t0 == loud.epochs[0].t
    d_quiet = sbr_toas(quiet)
    d4 = sbr_toas(loud) - d_quiet
    d16 = sbr_toas(louder) - d_quiet
    assert np.max(np.abs(d4)) > 0.0
    assert d16 == pytest.approx(2.0 * d4, rel=1e-9)


def test_run_pair_outage_improvement():
    setup = fast_setup(duration_s=40.0, seed=1, outages=[OutageWindow(10.0, 35.0)])
    res_w, res_wo = run_pair(setup)
    sel = (res_w.t >= 10.0) & (res_w.t <= 35.0)
    rms_w = float(np.sqrt(np.mean(res_w.err_3d[sel] ** 2)))
    rms_wo = float(np.sqrt(np.mean(res_wo.err_3d[sel] ** 2)))
    assert rms_w < rms_wo
    assert rms_w < 1.0
    # identical epochs outside the filters' divergence are not required, but
    # the two arms must share the time base
    assert np.array_equal(res_w.t, res_wo.t)


def test_counters_consistent_and_cov_psd():
    res = run(fast_setup(seed=2))
    c = res.counters
    assert c["los_total"] == (
        c["los_admitted"] + c["los_rejected_consistency"] + c["los_rejected_motion"]
    )
    assert c["los_total"] > 0
    assert c["sbr_total"] > 0
    assert c["sbr_updates"] + c["sbr_nis_skipped"] <= len(res.t)
    assert c["sbr_admitted"] <= c["sbr_total"]
    assert np.all(res.min_eig_p >= -1e-9)
    assert np.all(np.isfinite(res.nees))
    assert np.all(res.nees > 0.0)
    assert res.err_3d == pytest.approx(np.linalg.norm(res.err_enu, axis=1))
    assert np.all(np.diff(res.arc_m) >= 0.0)


def test_without_sbr_never_touches_reflections():
    res = run(fast_setup(seed=2, with_sbr=False))
    c = res.counters
    assert c["sbr_total"] == 0
    assert c["sbr_updates"] == 0
    assert c["sbr_admitted"] == 0


def test_measurement_log_round_trip(tmp_path):
    setup = fast_setup(duration_s=10.0, seed=6)
    ms = synth_measurements(setup)
    path = tmp_path / "run.jsonl"
    write_measurement_log(path, records_from_measurement_set(ms))
    ms_back = measurement_set_from_records(read_measurement_log(path), setup)
    assert ms_back.truth_biases is None
    res_orig = run_filter(ms, setup)
    res_back = run_filter(ms_back, setup)
    assert np.allclose(res_back.p_est, res_orig.p_est, atol=1e-9)
    # no bias truth in a log, so consistency statistics are undefined
    assert np.all(np.isnan(res_back.nees))
    assert not np.any(np.isnan(res_orig.nees))


def test_log_with_wrong_imu_count_rejected(tmp_path):
    from dataclasses import replace as dc_replace

    setup = fast_setup(duration_s=10.0, seed=6)
    ms = synth_measurements(setup)
    ms_short = dc_replace(ms, imu=ms.imu[:-5])
    path = tmp_path / "short.jsonl"
    write_measurement_log(path, records_from_measurement_set(ms_short))
    with pytest.raises(ValueError):
        measurement_set_from_records(read_measurement_log(path), setup)


def test_setup_validation():
    with pytest.raises(ValueError):
        fast_setup(rates=Rates(imu_hz=20.0, obs_hz=3.0, odo_hz=2.0))
    with pytest.raises(ValueError):
        fast_setup(duration_s=0.2)
    with pytest.raises(ValueError):
        fast_setup(duration_s=-1.0)
