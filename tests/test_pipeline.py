"""End-to-end runs: synthesis determinism, gating behavior, log bridging."""

import json
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (
    LosObs,
    apply_noise_per_record,
    apply_outages,
    double_bounce_path,
    epoch_records,
    log_records,
    radio_columns_per_row,
    run_filter_per_record,
    sbr_screen_per_record,
    synth_epochs_per_epoch,
    synth_los,
    synth_measurements_unchunked,
    synth_sbr,
    write_log_json,
)
from test_tracer_contract import ROOT, load_tracer

import mpnav.cli
from mpnav import evaluate, pipeline, quat, scene
from mpnav.evaluate import _SWEEP_RATES
from mpnav.gates import GateConfig, classify_los
from mpnav.ins import drift_profile
from mpnav.pipeline import (
    Rates,
    RunSetup,
    _rng_streams,
    measurement_set_from_records,
    run_filter,
    run_pair,
    screen_sbr,
    synth_measurements,
)
from mpnav.scene import (
    SceneArrays,
    Trajectory,
    ring_scenario,
    trajectory_poses,
)
from mpnav.synth import (
    ImuErrorModel,
    NoiseCfg,
    OutageWindow,
    RadioRecords,
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
    return ms.sbr.obs[:, 0]


def test_synth_is_deterministic_per_seed():
    ms_a = synth_measurements(fast_setup(seed=7))
    ms_b = synth_measurements(fast_setup(seed=7))
    assert np.array_equal(ms_a.gyro, ms_b.gyro)
    assert np.array_equal(sbr_toas(ms_a), sbr_toas(ms_b))
    assert np.array_equal(ms_a.los.obs[:, 0], ms_b.los.obs[:, 0])
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
    for idx in ms.epoch_idx:
        pose = ms.truth[idx]
        vis = arrays.los_mask(pose.p)
        clean = [synth_los(bs, pose, setup.path_loss) for b, bs in enumerate(stations) if vis[b]]
        bi, _, _, _, _, ln, ud, ua, _ = arrays.specular_arrays(pose.p)
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
    epochs = epoch_records(ms)
    for (los, sbr), ref_records in zip(epochs, ref):
        got = los + sbr
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
    assert any(not los for los, _ in epochs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(duration_s=6.0, seed=3, include_double_bounce=True, outages=[OutageWindow(2.0, 3.0)]),
        dict(duration_s=20.0, seed=8, outages=[OutageWindow(4.0, 9.5)]),
        dict(duration_s=4.0, seed=1, rates=Rates(imu_hz=100.0, obs_hz=10.0, odo_hz=10.0)),
    ],
)
def test_whole_run_synthesis_matches_per_epoch_reference(kwargs):
    # one pass over all epochs and one noise block give the same records,
    # bit for bit, as the per-epoch loop with one block per epoch
    setup = fast_setup(**kwargs)
    ms = synth_measurements(setup)
    ref = synth_epochs_per_epoch(setup)
    got = epoch_records(ms)
    assert len(got) == len(ref) == len(ms.epoch_t)
    assert got == ref
    assert sum(len(los) for los, _ in got) == len(ms.los)


def array_columns(obj, prefix=""):
    """Every array of a measurement set by dotted name, nested records
    (truth, los, sbr) and the truth biases included."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (Trajectory, RadioRecords)):
            out.update(array_columns(value, f"{prefix}{f.name}."))
        elif isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
            out.update({f"{prefix}{f.name}[{k}]": v for k, v in enumerate(value)})
        elif isinstance(value, np.ndarray):
            out[prefix + f.name] = value
    return out


@pytest.mark.parametrize(
    "duration_s, chunk_epochs, double",
    [(12.0, 1, True), (12.0, 7, True), (12.0, 25, True), (60.0, None, False)],
    ids=["chunks_of_1", "chunks_of_7", "one_chunk_over_E", "default_budget"],
)
def test_chunked_synthesis_matches_unchunked_reference(monkeypatch, duration_s, chunk_epochs, double):
    # epochs every 0.5 s: with 7-epoch chunks the outage starts in the first
    # chunk (3.5 s is its last epoch) and ends in the second
    setup = fast_setup(
        duration_s=duration_s,
        seed=5,
        include_double_bounce=double,
        outages=[OutageWindow(2.0, 5.0)],
    )
    n_walls = len(setup.scenario.walls)
    # with double bounces an epoch counts its (station, wall pair) triples
    n_triples = len(setup.scenario.base_stations) * n_walls * (n_walls if double else 1)
    if chunk_epochs is None:
        chunk_epochs = pipeline._CHUNK_TRIPLES // n_triples  # 85 epochs of the ring
    else:
        monkeypatch.setattr(pipeline, "_CHUNK_TRIPLES", chunk_epochs * n_triples)
    calls = []
    noise = pipeline.apply_noise
    monkeypatch.setattr(pipeline, "apply_noise", lambda *a, **k: calls.append(1) or noise(*a, **k))
    ms = synth_measurements(setup)
    n_epochs = len(ms.epoch_t)
    assert len(calls) == math.ceil(n_epochs / chunk_epochs)
    ref = synth_measurements_unchunked(setup)
    got, want = array_columns(ms), array_columns(ref)
    assert sorted(got) == sorted(want)
    for name, value in want.items():
        assert got[name].dtype == value.dtype, name
        assert np.array_equal(got[name], value), name
    assert (ms.sbr.bounces == 2).any() == double
    assert np.diff(ms.los.off)[(ms.epoch_t >= 2.0) & (ms.epoch_t <= 5.0)].sum() == 0


def sweep_case_400s():
    """The outage sweep's longest case: 415 s at 20 Hz, a 400 s outage."""
    return RunSetup(
        scenario=ring_scenario(speed_mps=6.5),
        duration_s=415.0,
        seed=0,
        rates=_SWEEP_RATES,
        noise=NoiseCfg(),
        imu_err=ImuErrorModel(bias_mode="fixed_magnitude"),
        outages=[OutageWindow(10.0, 410.0)],
    )


def owned_nbytes(ms):
    """Bytes of the measurement set's arrays that own their memory (views,
    such as imu_t into the truth times, add nothing)."""
    return sum(a.nbytes for a in array_columns(ms).values() if a.base is None)


def test_synthesis_memory_is_its_outputs():
    # chunked synthesis keeps its temporaries to a few chunks' worth; per-
    # sample Pose and ImuSample objects or whole-run geometry would not fit.
    # Double bounces do six times the geometry per epoch, so their chunks
    # hold a sixth of the epochs.
    for double in (False, True):
        setup = replace(sweep_case_400s(), include_double_bounce=double)
        synth_measurements(replace(setup, duration_s=5.0, outages=[]))  # first-call caches
        tracemalloc.start()
        try:
            ms = synth_measurements(setup)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = owned_nbytes(ms)
        assert len(ms.truth) == 8301 and len(ms.sbr) > 30000
        assert (ms.sbr.bounces == 2).any() == double
        assert peak <= nbytes + 4 * 2**20, (double, peak, nbytes)


def test_no_pose_objects_on_the_run_path(monkeypatch, tmp_path):
    built = []
    post_init = scene.Pose.__post_init__
    monkeypatch.setattr(
        scene.Pose, "__post_init__", lambda self: built.append(1) or post_init(self)
    )
    setup = fast_setup(
        duration_s=20.0, seed=2, outages=[OutageWindow(8.0, 12.0)], compute_nees=True
    )
    ms = synth_measurements(setup)
    res = run_filter(ms, setup)
    assert np.isfinite(res.nees).all()
    log = tmp_path / "m.jsonl"
    write_measurement_log(log, ms)
    run_filter(measurement_set_from_records(read_measurement_log(log), setup), setup)
    truth = trajectory_poses(setup.scenario.trajectory, np.arange(401) / 20.0)
    drift_profile(truth, setup.imu_err, 20.0, np.random.default_rng(0))
    assert built == []
    # the one path that still builds them: indexing a trajectory row
    truth[0]
    assert built == [1]


def test_filter_matches_per_record_reference():
    # batched LoS fixes and motion gates give the record-by-record loop's
    # positions bit for bit; with reflections on, the reference screens
    # per record (angles within 1e-12 rad), so positions agree to 1e-9 m
    for with_sbr in (False, True):
        setup = fast_setup(
            duration_s=30.0, seed=2, with_sbr=with_sbr, outages=[OutageWindow(8.0, 12.0)]
        )
        ms = synth_measurements(setup)
        res = run_filter(ms, setup)
        p_ref, counters_ref = run_filter_per_record(ms, epoch_records(ms), setup)
        assert res.counters == counters_ref
        if with_sbr:
            assert np.allclose(res.p_est, p_ref, rtol=0.0, atol=1e-9)
        else:
            assert np.array_equal(res.p_est, p_ref)


def test_sbr_screen_matches_per_record_reference(monkeypatch):
    setup = fast_setup(duration_s=10.0, seed=4)
    ms = synth_measurements(setup)
    stations = setup.scenario.base_stations
    bs_p = np.stack([bs.p for bs in stations])
    bs_by_id = {bs.id: bs for bs in stations}
    totals = dict.fromkeys(("sbr_admitted", "sbr_rejected_elevation", "sbr_rejected_residual"), 0)
    n_cut = 0
    tied_sbr = replace(ms.sbr, rss=np.round(ms.sbr.rss))
    for k, ((_, ep_sbr), idx) in enumerate(zip(epoch_records(ms), ms.epoch_idx)):
        rows = slice(ms.sbr.off[k], ms.sbr.off[k + 1])
        pose = ms.truth[idx]
        # a position prior off by a few meters makes residual rejections
        p_ref = pose.p + [2.0 * np.cos(k), 2.0 * np.sin(k), 0.0]
        # a tilted attitude makes elevation rejections of globalized angles
        q_bn = quat.from_euler(*(pose.att + [0.0, 0.012 * np.sin(k), 0.01]))
        # rss rounded to whole dB: equal-rss ties at the MAX_SBR_PATHS cut
        tied = [replace(o, rss=float(round(o.rss))) for o in ep_sbr]
        for sbr, records in ((ms.sbr, ep_sbr), (tied_sbr, tied)):
            for use_body in (True, False):
                for max_paths in (16, 5):
                    monkeypatch.setattr(pipeline, "MAX_SBR_PATHS", max_paths)
                    s = replace(setup, use_body_aoa=use_body)
                    got_p, got_obs, got_counts = screen_sbr(sbr, rows, bs_p, q_bn, p_ref, s)
                    ref, ref_counts = sbr_screen_per_record(records, bs_by_id, q_bn, p_ref, s)
                    assert got_counts == ref_counts
                    assert got_p.tolist() == [bs.p.tolist() for bs, _ in ref]
                    assert len(got_obs) == len(ref)
                    for g, (_, r) in zip(got_obs.tolist(), ref):
                        assert g[:3] == [r.toa, r.aod_az, r.aod_el]
                        assert g[3] == pytest.approx(r.aoa_az, abs=1e-12)
                        assert g[4] == pytest.approx(r.aoa_el, abs=1e-12)
                    n_admit = got_counts["sbr_admitted"]
                    n_cut += n_admit > max_paths
                    for key in totals:
                        totals[key] += got_counts[key]
    assert all(v > 0 for v in totals.values()), totals
    assert n_cut > 0


def test_epoch_grid_and_kinds():
    setup = fast_setup(duration_s=10.0)
    ms = synth_measurements(setup)
    assert len(ms.epoch_t) == 20
    assert len(ms.los.off) == len(ms.sbr.off) == 21
    step = int(FAST.imu_hz / FAST.obs_hz)
    for k, (idx, t) in enumerate(zip(ms.epoch_idx, ms.epoch_t), start=1):
        assert idx == k * step
        assert t == pytest.approx(k * step / FAST.imu_hz)
    assert np.all(ms.sbr.bounces == 1)
    assert np.all(np.diff(ms.sbr.off) >= 2)
    assert len(ms.imu_t) == len(ms.gyro) == len(ms.accel) == 200
    assert ms.truth_biases is not None


def test_outage_strips_los_only():
    base = fast_setup(seed=3)
    cut = fast_setup(seed=3, outages=[OutageWindow(6.0, 12.0)])
    ms_base = synth_measurements(base)
    ms_cut = synth_measurements(cut)
    # identical random draws: the reflections never see the outage
    assert np.array_equal(sbr_toas(ms_base), sbr_toas(ms_cut))
    pairs = zip(epoch_records(ms_base), epoch_records(ms_cut), ms_cut.epoch_t)
    for (los_b, _), (los_c, _), t in pairs:
        if 6.0 <= t <= 12.0:
            assert los_c == []
        else:
            assert [o.rtt for o in los_c] == [o.rtt for o in los_b]
    in_window = [t for t in ms_cut.epoch_t if 6.0 <= t <= 12.0]
    assert len(in_window) >= 10
    assert len(ms_base.los) > 0


def test_noise_variance_change_keeps_unit_draws():
    # common random numbers: scaling the declared variance scales the applied
    # perturbation without re-drawing it
    from mpnav.synth import NoiseCfg

    quiet = synth_measurements(fast_setup(seed=5, noise=NoiseCfg(var_range_m2=0.0, var_angle_deg2=0.0)))
    loud = synth_measurements(fast_setup(seed=5, noise=NoiseCfg(var_range_m2=4.0, var_angle_deg2=0.0)))
    louder = synth_measurements(fast_setup(seed=5, noise=NoiseCfg(var_range_m2=16.0, var_angle_deg2=0.0)))
    t0 = np.array(quiet.epoch_t[0])
    assert t0 == loud.epoch_t[0]
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
    setup = fast_setup(seed=2, compute_nees=True)
    res = run_filter(synth_measurements(setup), setup)
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


def test_min_eig_p_is_the_per_epoch_eigvalsh(monkeypatch):
    # the seed-0 ring preset (configs/single_ring.json); each epoch's final
    # state is the next epoch's prediction input, the last one final_state
    setup = RunSetup(
        scenario=ring_scenario(speed_mps=8.0),
        duration_s=60.0,
        seed=0,
        outages=[OutageWindow(20.0, 40.0)],
    )
    ms = synth_measurements(setup)
    inputs = []
    predict = pipeline.predict

    def spy(fs, *args, **kwargs):
        inputs.append(fs)
        return predict(fs, *args, **kwargs)

    monkeypatch.setattr(pipeline, "predict", spy)
    res = run_filter(ms, setup)
    ends = inputs[1:] + [res.final_state]
    explicit = np.array([np.linalg.eigvalsh(fs.P)[0] for fs in ends])
    assert len(explicit) == len(res.t) == 600
    assert res.min_eig_p.tobytes() == explicit.tobytes()


def test_nees_is_opt_in():
    # no output file holds NEES, so a default run leaves it unset
    setup = fast_setup(seed=2, duration_s=5.0)
    res = run_filter(synth_measurements(setup), setup)
    assert np.isnan(res.nees).all()


def test_odometer_is_read_causally(monkeypatch):
    # at odo_hz 5 and obs_hz 10 every other epoch falls between two odometer
    # samples; its travel budget takes the sample before it, not the next
    setup = RunSetup(
        scenario=ring_scenario(speed_mps=8.0),
        duration_s=3.0,
        with_sbr=False,
        rates=Rates(imu_hz=100.0, obs_hz=10.0, odo_hz=5.0),
    )
    ms = synth_measurements(setup)
    ms.odo_v = np.arange(1.0, len(ms.odo_t) + 1.0)  # speed k + 1 marks sample k
    budgets = []

    def gate(candidate_p, prior_p, odo_dist_m, cfg):
        budgets.append(odo_dist_m)
        # no update, so the budget only grows
        return np.zeros(len(candidate_p), dtype=bool)

    monkeypatch.setattr(pipeline, "classify_los", lambda *args: True)
    monkeypatch.setattr(pipeline, "motion_gate", gate)
    run_filter(ms, setup)
    assert len(budgets) == len(ms.epoch_t)
    read = np.rint(np.diff(budgets, prepend=0.0) / 0.1).astype(int) - 1
    odo_t = ms.odo_t.tolist()
    latest = [max(k for k, t in enumerate(odo_t) if t <= te + 1e-9) for te in ms.epoch_t.tolist()]
    assert read.tolist() == latest
    assert (ms.odo_t[read] < ms.epoch_t - 1e-9).sum() == len(ms.epoch_t) // 2


def test_without_sbr_never_touches_reflections():
    setup = fast_setup(seed=2, with_sbr=False)
    res = run_filter(synth_measurements(setup), setup)
    c = res.counters
    assert c["sbr_total"] == 0
    assert c["sbr_updates"] == 0
    assert c["sbr_admitted"] == 0


def test_measurement_log_round_trip(tmp_path):
    setup = fast_setup(duration_s=10.0, seed=6, compute_nees=True)
    ms = synth_measurements(setup)
    path = tmp_path / "run.jsonl"
    write_measurement_log(path, ms)
    ms_back = measurement_set_from_records(read_measurement_log(path), setup)
    assert ms_back.truth_biases is None
    # the log holds every record: the rebuilt arrays equal the synthesized ones
    for name in ("epoch_idx", "epoch_t", "imu_t", "gyro", "accel", "odo_t", "odo_v"):
        assert np.array_equal(getattr(ms_back, name), getattr(ms, name)), name
    for kind in ("los", "sbr"):
        for col in ("off", "bs", "obs", "rss", "bounces", "body"):
            a, b = getattr(getattr(ms_back, kind), col), getattr(getattr(ms, kind), col)
            assert (a is None and b is None) or np.array_equal(a, b), (kind, col)
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
    ms_short = dc_replace(ms, imu_t=ms.imu_t[:-5], gyro=ms.gyro[:-5], accel=ms.accel[:-5])
    path = tmp_path / "short.jsonl"
    write_measurement_log(path, ms_short)
    with pytest.raises(ValueError):
        measurement_set_from_records(read_measurement_log(path), setup)


@pytest.fixture(scope="module")
def ring_log_10s(tmp_path_factory):
    """A 10 s ring-drive log at the preset rates, in the writer's order, and
    the setup that made it."""
    setup = RunSetup(scenario=ring_scenario(speed_mps=8.0), duration_s=10.0, seed=0)
    path = tmp_path_factory.mktemp("ring") / "ring.jsonl"
    write_measurement_log(path, synth_measurements(setup))
    return path, setup


def reader_buffers(cols):
    return [a for a in (cols.values, cols.bs, cols.bounces) if a is not None]


def test_writer_ordered_log_is_ingested_as_views(ring_log_10s):
    path, setup = ring_log_10s
    cols = read_measurement_log(path)
    ms = measurement_set_from_records(cols, setup)
    columns = {
        "imu": (ms.imu_t, ms.gyro, ms.accel),
        "odo": (ms.odo_t, ms.odo_v),
        "los": (ms.los.bs, ms.los.obs, ms.los.rss),
        "sbr": (ms.sbr.bs, ms.sbr.obs, ms.sbr.rss, ms.sbr.bounces, ms.sbr.body),
    }
    for kind, arrays in columns.items():
        for k, a in enumerate(arrays):
            assert any(np.shares_memory(a, b) for b in reader_buffers(cols[kind])), (kind, k)
    for kind in ("los", "sbr"):
        assert_same_records(getattr(ms, kind), radio_columns_per_row(cols[kind], setup, kind))


def assert_same_records(got, want):
    for name in ("off", "bs", "obs", "rss", "bounces", "body"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name


def radio_line_numbers(lines, kind):
    return [k for k, line in enumerate(lines) if f'"kind": "{kind}"' in line]


@pytest.mark.parametrize("variant", ["out_of_epoch_order", "off_grid_row", "outage"])
def test_other_logs_are_gathered_as_before(tmp_path, ring_log_10s, variant):
    # logs the writer does not make: the rows are gathered by epoch into
    # the arrays the per-row reference builds, bit for bit
    path, setup = ring_log_10s
    lines = path.read_text().splitlines(keepends=True)
    gathered = ["los"]
    if variant == "out_of_epoch_order":
        radio = radio_line_numbers(lines, "los") + radio_line_numbers(lines, "sbr")
        radio.sort()
        shuffled = np.random.default_rng(3).permutation(radio)
        lines = [lines[k] for k in range(radio[0])] + [lines[k] for k in shuffled.tolist()]
        gathered = ["los", "sbr"]
    elif variant == "off_grid_row":
        k = radio_line_numbers(lines, "los")[100]
        record = json.loads(lines[k])
        record["t_s"] += 0.013
        lines[k] = json.dumps(record, sort_keys=True) + "\n"
    else:
        setup = replace(setup, outages=[OutageWindow(2.0, 4.0)])
    log = tmp_path / "variant.jsonl"
    log.write_text("".join(lines))
    cols = read_measurement_log(log)
    ms = measurement_set_from_records(cols, setup)
    for kind in ("los", "sbr"):
        got = getattr(ms, kind)
        assert_same_records(got, radio_columns_per_row(cols[kind], setup, kind))
        shared = any(np.shares_memory(got.obs, b) for b in reader_buffers(cols[kind]))
        assert shared == (kind not in gathered), kind
    t = cols["los"].values[:, 0]
    blocked = int(np.count_nonzero((t >= 2.0) & (t <= 4.0)))
    dropped = {"out_of_epoch_order": 0, "off_grid_row": 1, "outage": blocked}[variant]
    assert dropped > 0 or variant == "out_of_epoch_order"
    assert len(ms.los) == len(cols["los"]) - dropped


def test_ingest_memory_holds_no_second_copy(ring_log_10s):
    # gathering every column (and a per-row list of times and epochs) took
    # 629 KiB here, for 463 KiB of the reader's columns and 78 KiB of truth
    path, setup = ring_log_10s
    cols = read_measurement_log(path)
    measurement_set_from_records(cols, setup)
    tracemalloc.start()
    try:
        ms = measurement_set_from_records(cols, setup)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(a.nbytes for c in cols.values() for a in reader_buffers(c))
    truth = sum(a.nbytes for a in vars(ms.truth).values() if isinstance(a, np.ndarray))
    assert peak <= truth + nbytes // 4, (peak, truth, nbytes)


def test_imu_times_within_the_grid_match_are_accepted(ring_log_10s):
    # a time off by less than the 1 us the grid is matched at differs in a
    # bit but not once rounded; one off by 1 ms is named
    path, setup = ring_log_10s
    cols = read_measurement_log(path)
    values = cols["imu"].values.copy()
    values[7, 0] += 1e-9
    imu = replace(cols["imu"], values=values)
    ms = measurement_set_from_records(dict(cols, imu=imu), setup)
    assert ms.imu_t[7] == values[7, 0]
    values[9, 0] += 1e-3
    with pytest.raises(ValueError, match=r"^IMU sample 9 has t_s 0\.091, scenario expects 0\.09$"):
        measurement_set_from_records(dict(cols, imu=imu), setup)


def ring_10s_measurements(ring_log_10s, source):
    """The 10 s ring drive's measurement set, synthesized or replayed from
    its writer-ordered log, and the setup that made it."""
    path, setup = ring_log_10s
    if source == "synthesized":
        return synth_measurements(setup), setup
    return measurement_set_from_records(read_measurement_log(path), setup), setup


@pytest.mark.parametrize("source", ["synthesized", "replayed"])
def test_los_screen_and_fix_run_once_before_the_epoch_loop(monkeypatch, ring_log_10s, source):
    # each LoS record is screened once, on scalars, and one los_fix call
    # fixes the admitted rows, all before the first prediction; a tight
    # consistency gate rejects some of the records
    ms, setup = ring_10s_measurements(ring_log_10s, source)
    setup = replace(setup, gate_cfg=GateConfig(range_consistency_m=0.5))
    n = len(ms.los)
    admitted = [
        k
        for k in range(n)
        if classify_los(float(ms.los.obs[k, 0]), float(ms.los.rss[k]), setup.path_loss, setup.gate_cfg)
    ]
    assert 0 < len(admitted) < n
    bs_p = np.stack([bs.p for bs in setup.scenario.base_stations])
    calls, fixed = [], []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, type(args[0])))
            return fn(*args, **kwargs)

        return wrapper

    los_fix = pipeline.los_fix

    def fix_spy(stations, obs, *args):
        calls.append(("los_fix", type(stations)))
        fixed.append((stations.copy(), obs.copy()))
        return los_fix(stations, obs, *args)

    monkeypatch.setattr(pipeline, "classify_los", spy("classify_los", pipeline.classify_los))
    monkeypatch.setattr(pipeline, "los_fix", fix_spy)
    monkeypatch.setattr(pipeline, "predict", spy("predict", pipeline.predict))
    for with_sbr in (True, False):
        calls.clear()
        fixed.clear()
        res = run_filter(ms, replace(setup, with_sbr=with_sbr))
        assert calls[: n + 1] == [("classify_los", float)] * n + [("los_fix", np.ndarray)]
        assert {name for name, _ in calls[n + 1 :]} == {"predict"}
        [(stations, obs)] = fixed
        assert stations.tobytes() == bs_p[ms.los.bs[admitted]].tobytes()
        assert obs.tobytes() == ms.los.obs[admitted].tobytes()
        assert res.counters["los_rejected_consistency"] == n - len(admitted)


@pytest.mark.parametrize("source", ["synthesized", "replayed"])
def test_radio_totals_are_the_column_lengths(ring_log_10s, source):
    ms, setup = ring_10s_measurements(ring_log_10s, source)
    for with_sbr in (True, False):
        c = run_filter(ms, replace(setup, with_sbr=with_sbr)).counters
        assert c["los_total"] == len(ms.los) > 0
        assert c["sbr_total"] == (len(ms.sbr) if with_sbr else 0)
    assert len(ms.sbr) > 0


def test_setup_validation():
    with pytest.raises(ValueError):
        fast_setup(rates=Rates(imu_hz=20.0, obs_hz=3.0, odo_hz=2.0))
    with pytest.raises(ValueError):
        fast_setup(duration_s=0.2)
    with pytest.raises(ValueError):
        fast_setup(duration_s=-1.0)


def test_log_writer_matches_json_dumps_reference(tmp_path):
    # the template writer gives the bytes of one json.dumps(sort_keys=True)
    # per record, double bounces and outage epochs included
    setup = fast_setup(
        duration_s=8.0, seed=11, include_double_bounce=True, outages=[OutageWindow(2.0, 4.0)]
    )
    ms = synth_measurements(setup)
    write_measurement_log(tmp_path / "new.jsonl", ms)
    write_log_json(tmp_path / "ref.jsonl", log_records(ms))
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


def test_filter_epochs_are_counted_at_run_filter(monkeypatch, tmp_path):
    # The benchmark derives epochs_per_s from the results of run_filter,
    # wrapped under the names its callers look up in mpnav.pipeline and
    # mpnav.cli. Every filter arm, of a CLI run, a log replay or a sweep, has
    # to pass through one such call; a driver that runs arms another way
    # changes this together with the benchmark.
    counted = []
    original = pipeline.run_filter

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        counted.append(len(result.t))
        return result

    for module in (mpnav.cli, pipeline):
        monkeypatch.setattr(module, "run_filter", counting)
    # every arm's result, however it was run
    results = []
    result_type = pipeline.RunResult

    def recording(*args, **kwargs):
        results.append(result_type(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pipeline, "RunResult", recording)
    root = Path(__file__).resolve().parents[1]
    ring = json.loads((root / "configs" / "single_ring.json").read_text())
    # cut to 2 s, and so without the preset's 20-40 s outage, which the cut
    # run never reaches
    ring["duration_s"] = 2
    ring["outages"] = []
    (tmp_path / "ring.json").write_text(json.dumps(ring))
    replay = dict(ring, with_sbr=False, measurement_log="ring/measurements.jsonl")
    (tmp_path / "replay.json").write_text(json.dumps(replay))
    for name in ("ring", "replay"):
        args = [str(tmp_path / f"{name}.json"), "--output-dir", str(tmp_path / name)]
        assert mpnav.cli.main(args) == mpnav.cli.EXIT_OK
    evaluate.run_outage_sweep(durations=[2.0], speeds=[8.0], seeds=(0, 1), pre_s=2.0, post_s=1.0)
    # 20 epochs at 10 Hz for each CLI run; two seeds of a 5 s case at 2 Hz
    # in two arms
    assert [len(r.t) for r in results] == [20, 20, 10, 10, 10, 10]
    assert sum(counted) == sum(len(r.t) for r in results)


def test_traced_sbr_path_count_is_the_fix_n_paths(monkeypatch, tmp_path):
    # The benchmark tracer counts each joint fix's paths from its arguments,
    # as len(args[0]); on every call of the ring run that count has to be
    # the n_paths of the fix sbr_fix returns.
    tracer = load_tracer()
    calls = []
    original = pipeline.sbr_fix

    def recording(*args, **kwargs):
        fix = original(*args, **kwargs)
        if fix is not None:
            calls.append((tracer._paths_solved(args, kwargs, fix)["paths"], fix.n_paths))
        return fix

    monkeypatch.setattr(pipeline, "sbr_fix", recording)
    ring = json.loads((ROOT / "configs" / "single_ring.json").read_text())
    # cut to 2 s, and so without the preset's 20-40 s outage, which the cut
    # run never reaches
    ring["duration_s"] = 2
    ring["outages"] = []
    (tmp_path / "ring.json").write_text(json.dumps(ring))
    args = [str(tmp_path / "ring.json"), "--output-dir", str(tmp_path / "ring")]
    assert mpnav.cli.main(args) == mpnav.cli.EXIT_OK
    assert len(calls) > 10
    assert all(traced == n_paths for traced, n_paths in calls), calls
