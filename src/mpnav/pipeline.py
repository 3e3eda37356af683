"""End-to-end simulation and estimation runs.

Builds the truth trajectory, synthesizes measurement streams once per seed
(so paired experiment arms share identical random draws), then runs the
gated estimation loop: inertial prediction, LoS fixes, reflected-path fixes,
filter updates. Emits per-epoch estimate/truth traces plus gate counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import quat
from .fixes import los_fix, sbr_fix, sbr_locus_residuals
from .fusion import FilterState, UkfParams, predict, update_position, update_position_yaw
from .gates import GateConfig, classify_los, motion_gate, oori_check
from .scene import (
    SPEED_OF_LIGHT,
    Scenario,
    SceneArrays,
    angles_from_unit,
    double_bounce_path,
    trajectory_poses,
    unit_from_angles,
)
from .synth import (
    ImuErrorModel,
    LosObs,
    NoiseCfg,
    PathLossModel,
    SbrObs,
    apply_noise,
    apply_outages,
    synth_imu,
    synth_odo,
)


@dataclass
class Rates:
    imu_hz: float = 100.0
    obs_hz: float = 10.0
    odo_hz: float = 10.0


@dataclass
class InitErrors:
    """Initial estimate perturbations; the filter's P0 matches them."""

    pos_std_m: float = 0.5
    vel_std_mps: float = 0.1
    att_std_rad: float = 0.005


@dataclass
class RunSetup:
    """Everything one simulated run needs."""

    scenario: Scenario
    duration_s: float = 60.0
    seed: int = 0
    with_sbr: bool = True
    rates: Rates = field(default_factory=Rates)
    path_loss: PathLossModel = field(default_factory=PathLossModel)
    noise: NoiseCfg = field(default_factory=NoiseCfg)
    imu_err: ImuErrorModel = field(default_factory=ImuErrorModel)
    gate_cfg: GateConfig = field(default_factory=GateConfig)
    ukf: UkfParams = None
    init_err: InitErrors = field(default_factory=InitErrors)
    outages: list = field(default_factory=list)
    odo_noise_std: float = 0.05
    include_double_bounce: bool = False
    use_body_aoa: bool = True
    max_sbr_paths: int = 16
    r_floor_m2: float = 1e-4
    trapezoid: bool = True
    compute_nees: bool = True

    def __post_init__(self):
        if self.ukf is None:
            self.ukf = UkfParams.from_imu_error(self.imu_err)
        self.validate()

    def validate(self):
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        for name in ("obs_hz", "odo_hz"):
            ratio = self.rates.imu_hz / getattr(self.rates, name)
            if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
                raise ValueError(f"imu_hz must be an integer multiple of {name}")
        if round(self.duration_s * self.rates.obs_hz) < 1:
            raise ValueError("run too short for one observation epoch")


@dataclass
class EpochMeasurements:
    t: float
    pose_index: int
    los: list
    sbr: list


@dataclass
class MeasurementSet:
    """One seed's synthesized world: truth at IMU rate plus noisy streams."""

    poses: list
    imu: list
    odo: list
    epochs: list
    truth_biases: tuple  # (b_g, b_a) or None when ingested from a log


def _rng_streams(seed: int):
    children = np.random.SeedSequence(seed).spawn(4)
    return {
        "imu": np.random.default_rng(children[0]),
        "obs": np.random.default_rng(children[1]),
        "init": np.random.default_rng(children[2]),
        "odo": np.random.default_rng(children[3]),
    }


def _epoch_indices(setup: RunSetup):
    step = int(round(setup.rates.imu_hz / setup.rates.obs_hz))
    n_samples = int(round(setup.duration_s * setup.rates.imu_hz))
    return list(range(step, n_samples + 1, step)), step, n_samples


def synth_measurements(setup: RunSetup) -> MeasurementSet:
    """Synthesize truth plus noisy measurement streams for one seed.

    Noise draws are consumed in a fixed order (IMU stream, then per epoch:
    LoS by station order, single bounces station-major then wall, double
    bounces last), so configurations that differ only in noise variance or
    outage schedule share identical unit draws.
    """
    streams = _rng_streams(setup.seed)
    epoch_idx, _, n_samples = _epoch_indices(setup)
    times = np.arange(n_samples + 1) / setup.rates.imu_hz
    poses = trajectory_poses(setup.scenario.trajectory, times)
    biases = setup.imu_err.sample_biases(streams["imu"])
    imu = synth_imu(poses, setup.imu_err, setup.rates.imu_hz, streams["imu"], biases=biases)
    odo = synth_odo(poses, setup.rates.odo_hz, setup.odo_noise_std, streams["odo"])
    walls = setup.scenario.walls
    stations = setup.scenario.base_stations
    arrays = SceneArrays(stations, walls)
    bs_p = np.stack([bs.p for bs in stations])
    epochs = []
    for idx in epoch_idx:
        pose = poses[idx]
        q_conj = quat.conjugate(quat.from_euler(*pose.att))
        # direct paths of the visible stations, in station order
        vis = np.flatnonzero(arrays.los_mask(pose.p))
        d_vec = pose.p - bs_p[vis]
        # row norms summed as np.linalg.norm sums one vector
        d = np.sqrt((d_vec[:, None, :] @ d_vec[:, :, None])[:, 0, 0])
        if np.any(d <= 0.0):
            raise ValueError("UE and BS positions coincide")
        # reflected paths: single bounces station-major then wall, doubles last
        bi, _, _, _, _, ln, ud, ua = arrays.specular_arrays(pose.p)
        bounces = np.ones(bi.size, dtype=int)
        if setup.include_double_bounce:
            doubles = []
            for b, bs in enumerate(stations):
                for w1 in walls:
                    for w2 in walls:
                        if w1.id != w2.id:
                            path = double_bounce_path(bs, pose.p, w1, w2)
                            if path is not None:
                                doubles.append((b, path))
            if doubles:
                bi = np.concatenate([bi, [b for b, _ in doubles]]).astype(int)
                ln = np.concatenate([ln, [path.length for _, path in doubles]])
                ud = np.concatenate([ud, [path.u_dep for _, path in doubles]])
                ua = np.concatenate([ua, [path.u_arr for _, path in doubles]])
                bounces = np.concatenate([bounces, [path.bounces for _, path in doubles]])
        n_los = vis.size
        aod_az, aod_el = angles_from_unit(np.concatenate([d_vec, ud]))
        aoa_az, aoa_el = angles_from_unit(np.concatenate([-d_vec, ua]))
        tof = np.concatenate([2.0 * d / SPEED_OF_LIGHT, ln / SPEED_OF_LIGHT])
        clean = np.stack([tof, aod_az, aod_el, aoa_az, aoa_el], axis=1)
        body = np.stack(angles_from_unit(quat.rotate(q_conj, ua)), axis=1)
        noisy, body = apply_noise(clean, setup.noise, streams["obs"], n_los=n_los, body=body)
        rss = setup.path_loss.rss(
            np.concatenate([d, ln]), bounces=np.concatenate([np.zeros(n_los, dtype=int), bounces])
        )
        rows, rss, body = noisy.tolist(), rss.tolist(), body.tolist()
        los = [
            LosObs(stations[b].id, pose.t, *rows[k], rss[k]) for k, b in enumerate(vis.tolist())
        ]
        sbr = [
            SbrObs(stations[b].id, pose.t, *rows[n_los + k], rss[n_los + k], nb, *body[k])
            for k, (b, nb) in enumerate(zip(bi.tolist(), bounces.tolist()))
        ]
        los = apply_outages(pose.t, los, setup.outages)
        epochs.append(EpochMeasurements(t=pose.t, pose_index=idx, los=los, sbr=sbr))
    return MeasurementSet(poses=poses, imu=imu, odo=odo, epochs=epochs, truth_biases=biases)


@dataclass
class RunResult:
    t: np.ndarray
    p_est: np.ndarray
    p_truth: np.ndarray
    err_enu: np.ndarray  # p_est - p_truth per epoch
    err_3d: np.ndarray
    arc_m: np.ndarray  # cumulative truth arc length at epochs
    nees: np.ndarray  # NaN when truth biases unknown
    min_eig_p: np.ndarray
    counters: dict
    final_state: FilterState
    truth_biases: tuple


def _init_filter(setup: RunSetup, pose0, rng) -> FilterState:
    ie = setup.init_err
    dp = ie.pos_std_m * rng.standard_normal(3)
    dv = ie.vel_std_mps * rng.standard_normal(3)
    dth = ie.att_std_rad * rng.standard_normal(3)
    q_true = quat.from_euler(*pose0.att)
    q0 = quat.normalize(quat.multiply(q_true, quat.from_rotvec(-dth)))
    P0 = np.diag(
        np.concatenate(
            [
                np.full(3, ie.pos_std_m**2),
                np.full(3, ie.vel_std_mps**2),
                np.full(3, ie.att_std_rad**2),
                np.full(3, setup.imu_err.gyro_bias_std**2),
                np.full(3, setup.imu_err.accel_bias_std**2),
            ]
        )
    )
    return FilterState(
        t=pose0.t, p=pose0.p + dp, v=pose0.v + dv, q_bn=q0, P=P0 + 1e-12 * np.eye(15)
    )


def screen_sbr(sbr, bs_by_id, q_bn, p_ref, setup: RunSetup):
    """Bounce-order screen of one epoch's reflected records, on arrays.

    With setup.use_body_aoa the body-frame arrival angles are globalized
    with the attitude q_bn. Each path's locus is scored against p_ref, one
    oori_check screens them all, and the strongest setup.max_sbr_paths
    admitted paths are kept, ties in record order. Returns (pairs, counts):
    the (BaseStation, SbrObs) pairs for sbr_fix and the admitted/rejected
    counts keyed like run_filter's counters.
    """
    bs_pos = np.stack([bs_by_id[o.bs_id].p for o in sbr])
    obs = np.array([(o.toa, o.aod_az, o.aod_el, o.aoa_az, o.aoa_el, o.rss) for o in sbr])
    if setup.use_body_aoa:
        body = np.array([(o.aoa_az_body, o.aoa_el_body) for o in sbr])
        u_glob = quat.rotate(q_bn, unit_from_angles(body[:, 0], body[:, 1]))
        obs[:, 3], obs[:, 4] = angles_from_unit(u_glob)
    residuals = sbr_locus_residuals(
        bs_pos,
        obs[:, 0] * SPEED_OF_LIGHT,
        unit_from_angles(obs[:, 1], obs[:, 2]),
        unit_from_angles(obs[:, 3], obs[:, 4]),
        p_ref,
    )
    admit, elevation_ok = oori_check(obs[:, 2], obs[:, 4], residuals, setup.gate_cfg)
    n_admit = int(np.count_nonzero(admit))
    n_elev = int(np.count_nonzero(~elevation_ok))
    counts = {
        "sbr_admitted": n_admit,
        "sbr_rejected_elevation": n_elev,
        "sbr_rejected_residual": len(sbr) - n_admit - n_elev,
    }
    keep = np.flatnonzero(admit)
    if setup.max_sbr_paths and keep.size > setup.max_sbr_paths:
        keep = keep[np.argsort(-obs[keep, 5], kind="stable")[: setup.max_sbr_paths]]
    pairs = []
    for k in keep.tolist():
        o = sbr[k]
        if setup.use_body_aoa:
            o = SbrObs(
                bs_id=o.bs_id,
                t=o.t,
                toa=o.toa,
                aod_az=o.aod_az,
                aod_el=o.aod_el,
                aoa_az=float(obs[k, 3]),
                aoa_el=float(obs[k, 4]),
                rss=o.rss,
                truth_bounces=o.truth_bounces,
                aoa_az_body=o.aoa_az_body,
                aoa_el_body=o.aoa_el_body,
            )
        pairs.append((bs_by_id[o.bs_id], o))
    return pairs, counts


def run_filter(ms: MeasurementSet, setup: RunSetup) -> RunResult:
    """Gated estimation loop over one measurement set.

    The motion gate compares candidate fixes against the last accepted
    posterior, with a travel budget accumulated from odometer speed since
    that posterior, so the bound stays meaningful across outage gaps.
    """
    bs_by_id = {bs.id: bs for bs in setup.scenario.base_stations}
    poses = ms.poses
    fs = _init_filter(setup, poses[0], _rng_streams(setup.seed)["init"])

    gyros = np.stack([s.gyro for s in ms.imu])
    accels = np.stack([s.accel for s in ms.imu])
    pose_t = np.array([po.t for po in poses])
    dts = np.diff(pose_t)
    p_dense = np.stack([po.p for po in poses])
    arc_dense = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(p_dense, axis=0), axis=1))])

    odo_t = np.array([o.t for o in ms.odo])
    odo_v = np.array([o.speed for o in ms.odo])

    dt_obs = 1.0 / setup.rates.obs_hz
    n_epochs = len(ms.epochs)
    out_t = np.empty(n_epochs)
    out_est = np.empty((n_epochs, 3))
    out_truth = np.empty((n_epochs, 3))
    out_nees = np.full(n_epochs, np.nan)
    out_eig = np.empty(n_epochs)
    out_arc = np.empty(n_epochs)
    counters = {
        "los_total": 0,
        "los_admitted": 0,
        "los_rejected_consistency": 0,
        "los_rejected_motion": 0,
        "los_nis_skipped": 0,
        "sbr_total": 0,
        "sbr_admitted": 0,
        "sbr_rejected_elevation": 0,
        "sbr_rejected_residual": 0,
        "sbr_fix_failed": 0,
        "sbr_fix_rejected_motion": 0,
        "sbr_nis_skipped": 0,
        "sbr_updates": 0,
    }

    truth_bg, truth_ba = (None, None) if ms.truth_biases is None else ms.truth_biases
    if setup.compute_nees and truth_bg is not None:
        att_ep = np.stack([poses[ep.pose_index].att for ep in ms.epochs])
        q_truth_ep = quat.from_euler(att_ep[:, 0], att_ep[:, 1], att_ep[:, 2])
    last_accept_p = fs.p.copy()
    travel_budget = 0.0
    prev_idx = 0

    for e_i, epoch in enumerate(ms.epochs):
        idx = epoch.pose_index
        fs = predict(
            fs,
            gyros[prev_idx:idx],
            accels[prev_idx:idx],
            dts[prev_idx:idx],
            setup.ukf,
            trapezoid=setup.trapezoid,
        )
        prev_idx = idx

        # odometer travel over this epoch interval
        j = min(int(np.searchsorted(odo_t, epoch.t - 1e-9)), len(odo_v) - 1)
        travel_budget += abs(odo_v[j]) * dt_obs

        accepted_any = False
        for obs in epoch.los:
            counters["los_total"] += 1
            if not classify_los(obs, setup.path_loss, setup.gate_cfg):
                counters["los_rejected_consistency"] += 1
                continue
            fix = los_fix(
                bs_by_id[obs.bs_id], obs, setup.noise.var_range_m2, setup.noise.var_angle_deg2
            )
            if not motion_gate(fix.p, last_accept_p, travel_budget, dt_obs, setup.gate_cfg):
                counters["los_rejected_motion"] += 1
                continue
            counters["los_admitted"] += 1
            r_mat = fix.cov + setup.r_floor_m2 * np.eye(3)
            fs, info = update_position(fs, fix, r_mat, setup.ukf)
            if info.accepted:
                accepted_any = True
            else:
                counters["los_nis_skipped"] += 1

        if setup.with_sbr:
            counters["sbr_total"] += len(epoch.sbr)
        if setup.with_sbr and len(epoch.sbr) >= 2:
            admitted, counts = screen_sbr(epoch.sbr, bs_by_id, fs.q_bn, fs.p, setup)
            for key, n in counts.items():
                counters[key] += n
            if len(admitted) >= 2:
                # with body-frame arrival angles the solver co-estimates the
                # yaw misalignment of the fused attitude; roll/pitch error
                # stays as extra angle variance. Yaw needs three paths: off
                # vertical walls the K=2 joint system with a yaw unknown is
                # structurally singular.
                # roll/pitch uncertainty perturbs each globalized arrival
                # angle by about one attitude axis worth of variance, so the
                # per-angle inflation is half the roll+pitch variance sum
                fix = sbr_fix(
                    admitted,
                    setup.noise.var_range_m2,
                    setup.noise.var_angle_deg2,
                    var_aoa_extra_rad2=(
                        0.5 * float(fs.P[6, 6] + fs.P[7, 7]) if setup.use_body_aoa else 0.0
                    ),
                    estimate_yaw=setup.use_body_aoa and len(admitted) >= 3,
                )
                if fix is None:
                    counters["sbr_fix_failed"] += 1
                elif not motion_gate(fix.p, last_accept_p, travel_budget, dt_obs, setup.gate_cfg):
                    counters["sbr_fix_rejected_motion"] += 1
                elif fix.yaw is not None:
                    r4 = np.zeros((4, 4))
                    r4[:3, :3] = fix.cov + setup.r_floor_m2 * np.eye(3)
                    r4[3, 3] = fix.yaw_var + 1e-8
                    r4[:3, 3] = r4[3, :3] = fix.yaw_pos_cov
                    fs, info = update_position_yaw(fs, fix, r4, setup.ukf)
                    if info.accepted:
                        accepted_any = True
                        counters["sbr_updates"] += 1
                    else:
                        counters["sbr_nis_skipped"] += 1
                else:
                    r_mat = fix.cov + setup.r_floor_m2 * np.eye(3)
                    fs, info = update_position(fs, fix, r_mat, setup.ukf)
                    if info.accepted:
                        accepted_any = True
                        counters["sbr_updates"] += 1
                    else:
                        counters["sbr_nis_skipped"] += 1

        if accepted_any:
            last_accept_p = fs.p.copy()
            travel_budget = 0.0

        pose = poses[idx]
        out_t[e_i] = pose.t
        out_est[e_i] = fs.p
        out_truth[e_i] = pose.p
        out_arc[e_i] = arc_dense[idx]
        out_eig[e_i] = float(np.linalg.eigvalsh(fs.P)[0])
        if setup.compute_nees and truth_bg is not None:
            e_vec = fs.error_vector(pose.p, pose.v, q_truth_ep[e_i], truth_bg, truth_ba)
            out_nees[e_i] = float(e_vec @ np.linalg.solve(fs.P, e_vec))

    err_enu = out_est - out_truth
    return RunResult(
        t=out_t,
        p_est=out_est,
        p_truth=out_truth,
        err_enu=err_enu,
        err_3d=np.linalg.norm(err_enu, axis=1),
        arc_m=out_arc,
        nees=out_nees,
        min_eig_p=out_eig,
        counters=counters,
        final_state=fs,
        truth_biases=ms.truth_biases,
    )


def run(setup: RunSetup) -> RunResult:
    return run_filter(synth_measurements(setup), setup)


def run_pair(setup: RunSetup):
    """Run the with/without-reflections arms on one shared measurement set
    (common random numbers). Returns (result_with, result_without)."""
    ms = synth_measurements(setup)
    res_with = run_filter(ms, replace(setup, with_sbr=True))
    res_without = run_filter(ms, replace(setup, with_sbr=False))
    return res_with, res_without


# ---------------------------------------------------------------------------
# measurement-log bridging


def records_from_measurement_set(ms: MeasurementSet):
    """Flatten to log records: IMU, odometer, then per-epoch observations."""
    records = list(ms.imu) + list(ms.odo)
    for epoch in ms.epochs:
        records.extend(epoch.los)
        records.extend(epoch.sbr)
    return records


def measurement_set_from_records(records: dict, setup: RunSetup) -> MeasurementSet:
    """Rebuild a MeasurementSet from parsed log records; the truth trajectory
    still comes from the scenario (the log carries no truth), and bias truth
    is unknown, so consistency statistics are unavailable on ingested runs.

    Raises ValueError when the log cannot feed the filter: an IMU sample
    count other than the scenario's, no odometer records, or a base station
    the scenario does not have."""
    epoch_idx, _, n_samples = _epoch_indices(setup)
    times = np.arange(n_samples + 1) / setup.rates.imu_hz
    poses = trajectory_poses(setup.scenario.trajectory, times)
    by_t_los = {}
    for obs in records.get("los", []):
        by_t_los.setdefault(round(obs.t, 6), []).append(obs)
    by_t_sbr = {}
    for obs in records.get("sbr", []):
        by_t_sbr.setdefault(round(obs.t, 6), []).append(obs)
    epochs = []
    for idx in epoch_idx:
        t = poses[idx].t
        key = round(t, 6)
        epochs.append(
            EpochMeasurements(
                t=t,
                pose_index=idx,
                los=by_t_los.get(key, []),
                sbr=by_t_sbr.get(key, []),
            )
        )
    imu = records.get("imu", [])
    if len(imu) != n_samples:
        raise ValueError(
            f"log has {len(imu)} IMU samples, scenario expects {n_samples}"
        )
    if not records.get("odo"):
        raise ValueError("log has no odometer records")
    known = {bs.id for bs in setup.scenario.base_stations}
    unknown = {o.bs_id for kind in ("los", "sbr") for o in records.get(kind, [])} - known
    if unknown:
        raise ValueError(f"log names base stations not in the scenario: {sorted(unknown)}")
    return MeasurementSet(
        poses=poses,
        imu=imu,
        odo=records["odo"],
        epochs=epochs,
        truth_biases=None,
    )
