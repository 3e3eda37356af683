"""End-to-end runs: synthesis determinism, gating behavior, log bridging."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import apply_noise_per_record, sbr_screen_per_record

from mpnav import quat
from mpnav.pipeline import (
    Rates,
    RunSetup,
    _rng_streams,
    measurement_set_from_records,
    records_from_measurement_set,
    run,
    run_filter,
    run_pair,
    screen_sbr,
    synth_measurements,
)
from mpnav.scene import SceneArrays, double_bounce_path, ring_scenario
from mpnav.synth import (
    ImuErrorModel,
    LosObs,
    OutageWindow,
    apply_outages,
    read_measurement_log,
    synth_los,
    synth_sbr,
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


def per_record_epochs(ms, setup):
    """Every epoch's records synthesized and noised one record at a time in
    the documented order: LoS by station, single bounces station-major then
    wall, double bounces last; then the outage schedule."""
    stations, walls = setup.scenario.base_stations, setup.scenario.walls
    arrays = SceneArrays(stations, walls)
    rng = _rng_streams(setup.seed)["obs"]
    out = []
    for ep in ms.epochs:
        pose = ms.poses[ep.pose_index]
        vis = arrays.los_mask(pose.p)
        clean = [synth_los(bs, pose, setup.path_loss) for b, bs in enumerate(stations) if vis[b]]
        bi, _, _, _, _, ln, ud, ua = arrays.specular_arrays(pose.p)
        paths = [
            SimpleNamespace(bs_id=stations[b].id, length=ln[k], u_dep=ud[k], u_arr=ua[k], bounces=1)
            for k, b in enumerate(bi)
        ]
        if setup.include_double_bounce:
            paths += [
                double_bounce_path(bs, pose.p, w1, w2)
                for bs in stations
                for w1 in walls
                for w2 in walls
                if w1.id != w2.id
            ]
        clean += [synth_sbr(path, pose, setup.path_loss) for path in paths if path is not None]
        noisy = [apply_noise_per_record(o, setup.noise, rng) for o in clean]
        out.append(apply_outages(pose.t, noisy, setup.outages))
    return out


def test_epoch_noise_matches_per_record_reference():
    setup = fast_setup(
        duration_s=6.0, seed=3, include_double_bounce=True, outages=[OutageWindow(2.0, 3.0)]
    )
    ms = synth_measurements(setup)
    ref = per_record_epochs(ms, setup)
    n_double = 0
    for ep, ref_records in zip(ms.epochs, ref):
        got = ep.los + ep.sbr
        assert len(got) == len(ref_records)
        for g, r in zip(got, ref_records):
            assert type(g) is type(r)
            assert (g.bs_id, g.t) == (r.bs_id, r.t)
            assert g.rss == pytest.approx(r.rss, rel=1e-12)
            if isinstance(r, LosObs):
                assert g.rtt == r.rtt
            else:
                assert g.toa == r.toa
                assert g.truth_bounces == r.truth_bounces
                n_double += r.truth_bounces == 2
                assert g.aoa_az_body == pytest.approx(r.aoa_az_body, abs=1e-12)
                assert g.aoa_el_body == pytest.approx(r.aoa_el_body, abs=1e-12)
            for name in ("aod_az", "aod_el", "aoa_az", "aoa_el"):
                assert getattr(g, name) == pytest.approx(getattr(r, name), abs=1e-12)
    assert n_double > 0
    assert any(not ep.los for ep in ms.epochs)


def test_sbr_screen_matches_per_record_reference():
    setup = fast_setup(duration_s=10.0, seed=4)
    ms = synth_measurements(setup)
    bs_by_id = {bs.id: bs for bs in setup.scenario.base_stations}
    totals = dict.fromkeys(("sbr_admitted", "sbr_rejected_elevation", "sbr_rejected_residual"), 0)
    n_cut = 0
    for k, ep in enumerate(ms.epochs):
        pose = ms.poses[ep.pose_index]
        # a position prior off by a few meters makes residual rejections
        p_ref = pose.p + [2.0 * np.cos(k), 2.0 * np.sin(k), 0.0]
        # a tilted attitude makes elevation rejections of globalized angles
        q_bn = quat.from_euler(*(pose.att + [0.0, 0.012 * np.sin(k), 0.01]))
        # rss rounded to whole dB: equal-rss ties at the max_sbr_paths cut
        tied = [replace(o, rss=float(round(o.rss))) for o in ep.sbr]
        for sbr in (ep.sbr, tied):
            for use_body in (True, False):
                for max_paths in (16, 5, 0):
                    s = replace(setup, use_body_aoa=use_body, max_sbr_paths=max_paths)
                    got, got_counts = screen_sbr(sbr, bs_by_id, q_bn, p_ref, s)
                    ref, ref_counts = sbr_screen_per_record(sbr, bs_by_id, q_bn, p_ref, s)
                    assert got_counts == ref_counts
                    assert [bs.id for bs, _ in got] == [bs.id for bs, _ in ref]
                    for (_, g), (_, r) in zip(got, ref):
                        assert (g.toa, g.aod_az, g.aod_el) == (r.toa, r.aod_az, r.aod_el)
                        assert g.rss == r.rss
                        assert g.aoa_az == pytest.approx(r.aoa_az, abs=1e-12)
                        assert g.aoa_el == pytest.approx(r.aoa_el, abs=1e-12)
                    n_admit = got_counts["sbr_admitted"]
                    n_cut += bool(max_paths) and n_admit > max_paths
                    for key in totals:
                        totals[key] += got_counts[key]
    assert all(v > 0 for v in totals.values()), totals
    assert n_cut > 0


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
