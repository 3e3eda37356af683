"""End-to-end simulation and estimation runs.

Builds the truth trajectory, synthesizes measurement streams once per seed
(so paired experiment arms share identical random draws), then runs the
gated estimation loop: inertial prediction, LoS fixes, reflected-path fixes,
filter updates. Emits per-epoch estimate/truth traces plus gate counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import quat
from .fixes import los_fix, sbr_fix, sbr_locus_residuals
from .fusion import (
    FilterState,
    UkfParams,
    predict,
    process_noise,
    update_position,
    update_position_yaw,
)
from .gates import GateConfig, classify_los, motion_gate, oori_check
from .scene import (
    SPEED_OF_LIGHT,
    GeometryError,
    Scenario,
    SceneArrays,
    Trajectory,
    angles_from_unit,
    row_dot,
    trajectory_poses,
    unit_from_angles,
)
from .synth import (
    ImuErrorModel,
    NoiseCfg,
    PathLossModel,
    RadioRecords,
    apply_noise,
    outage_mask,
    synth_imu,
    synth_odo,
)


# variance added to each position fix's covariance, m^2 per axis
R_FLOOR_M2 = 1e-4
# reflected paths per joint fix: the strongest admitted ones of an epoch
MAX_SBR_PATHS = 16


@dataclass
class Rates:
    imu_hz: float = 100.0
    obs_hz: float = 10.0
    odo_hz: float = 10.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a finite number > 0")
        for name in ("obs_hz", "odo_hz"):
            ratio = self.imu_hz / getattr(self, name)
            if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
                raise ValueError(f"imu_hz must be an integer multiple of {name}")


@dataclass
class InitErrors:
    """Initial estimate perturbations; the filter's P0 matches them."""

    pos_std_m: float = 0.5
    vel_std_mps: float = 0.1
    att_std_rad: float = 0.005

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0")


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
    ukf: UkfParams = field(default_factory=UkfParams)
    init_err: InitErrors = field(default_factory=InitErrors)
    outages: list = field(default_factory=list)
    odo_noise_std: float = 0.05
    include_double_bounce: bool = False
    use_body_aoa: bool = True
    compute_nees: bool = True

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if round(self.duration_s * self.rates.obs_hz) < 1:
            raise ValueError("run too short for one observation epoch")
        if round(self.duration_s * self.rates.imu_hz) < 2:
            raise ValueError("run too short for two IMU samples")
        # a window that blocks no epoch would run as if it were not there
        epoch_t = _epoch_indices(self)[0] / self.rates.imu_hz
        for w in self.outages:
            if not w.contains(epoch_t).any():
                raise ValueError(
                    f"outage window [{w.t_start:g}, {w.t_end:g}] s holds no epoch of the "
                    f"{self.duration_s:g} s run"
                )


@dataclass
class MeasurementSet:
    """One seed's synthesized world: truth at IMU rate plus noisy streams,
    held as arrays. Epoch e is the truth row epoch_idx[e] at time
    epoch_t[e]; its radio records are rows los.off[e]:los.off[e+1] and
    sbr.off[e]:sbr.off[e+1], whose bs column indexes bs_ids."""

    truth: Trajectory  # columns t, p, v, att at every IMU sample time
    bs_ids: tuple
    epoch_idx: np.ndarray  # (E,) int
    epoch_t: np.ndarray  # (E,)
    imu_t: np.ndarray  # (M,), sample k covers [imu_t[k], imu_t[k + 1])
    gyro: np.ndarray  # (M, 3)
    accel: np.ndarray  # (M, 3)
    odo_t: np.ndarray
    odo_v: np.ndarray
    los: RadioRecords
    sbr: RadioRecords
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
    return np.arange(step, n_samples + 1, step), step, n_samples


def _offsets(epoch_of_row, n_epochs):
    """Row offsets per epoch of rows sorted by epoch."""
    return np.concatenate([[0], np.cumsum(np.bincount(epoch_of_row, minlength=n_epochs))])


def _synth_epochs(setup: RunSetup, arrays: SceneArrays, ue, att, epoch_t, rng):
    """Radio records of consecutive epochs, numbered from 0, at UE
    positions ue (n, 3), attitudes att (n, 3) and times epoch_t (n,).

    Visibility and reflection geometry for the stack of epoch positions,
    then one noise block from rng in the draw order. Returns (los, sbr)
    column tuples: (epoch, bs, obs, rss) for the LoS rows outside outages,
    (epoch, bs, obs, rss, bounces, body) for the reflected rows, each in
    epoch order.
    """
    q_conj = quat.conjugate(quat.from_euler(att[:, 0], att[:, 1], att[:, 2]))
    # direct paths of the visible stations, epoch-major then station
    le, lb = np.nonzero(arrays.los_mask(ue))
    d_vec = ue[le] - arrays.bs_p[lb]
    d = np.sqrt(row_dot(d_vec, d_vec))
    if np.any(d <= 0.0):
        raise GeometryError("UE and BS positions coincide")
    # reflected paths: single bounces station-major then wall, doubles last
    rb, _, _, _, _, ln, ud, ua, re = arrays.specular_arrays(ue)
    bounces = np.ones(rb.size, dtype=int)
    if setup.include_double_bounce:
        db, _, _, _, _, dln, dud, dua, de = arrays.double_bounce_arrays(ue)
        merge = np.argsort(np.concatenate([re, de]), kind="stable")
        re, rb = np.concatenate([re, de])[merge], np.concatenate([rb, db])[merge]
        ln, ud, ua = (np.concatenate(x)[merge] for x in ((ln, dln), (ud, dud), (ua, dua)))
        bounces = np.concatenate([bounces, np.full(de.size, 2)])[merge]
    n_los = le.size
    aod_az, aod_el = angles_from_unit(np.concatenate([d_vec, ud]))
    aoa_az, aoa_el = angles_from_unit(np.concatenate([-d_vec, ua]))
    tof = np.concatenate([2.0 * d / SPEED_OF_LIGHT, ln / SPEED_OF_LIGHT])
    clean = np.stack([tof, aod_az, aod_el, aoa_az, aoa_el], axis=1)
    body = np.stack(angles_from_unit(quat.rotate(q_conj[re], ua)), axis=1)
    # draw order: per epoch its LoS rows, then its reflected rows
    order = np.argsort(np.concatenate([le, re]), kind="stable")
    is_los = order < n_los
    drawn, body = apply_noise(clean[order], setup.noise, rng, los=is_los, body=body)
    noisy = np.empty_like(clean)
    noisy[order] = drawn
    rss = setup.path_loss.rss(
        np.concatenate([d, ln]), bounces=np.concatenate([np.zeros(n_los, dtype=int), bounces])
    )
    keep = ~outage_mask(epoch_t, setup.outages)[le]
    los = (le[keep], lb[keep], noisy[:n_los][keep], rss[:n_los][keep])
    return los, (re, rb, noisy[n_los:], rss[n_los:], bounces, body)


def _extend(col: np.ndarray, part: np.ndarray) -> None:
    """Append part's rows to col, which owns its data and has no views: one
    realloc grows it in place, so the rows so far are never held twice."""
    n = len(col)
    col.resize((n + len(part),) + col.shape[1:], refcheck=False)
    col[n:] = part


# (epoch, station, wall) triples per synthesis chunk, or (epoch, station,
# wall pair) with double bounces: about 85 epochs of an 8-station, 6-wall
# scene, 14 with double bounces, so that the geometry and noise temporaries
# stay small however long the drive
_CHUNK_TRIPLES = 4096


def synth_measurements(setup: RunSetup) -> MeasurementSet:
    """Synthesize truth plus noisy measurement streams for one seed.

    The truth trajectory, IMU and odometer streams come as whole-run
    columns. The radio records are synthesized a chunk of epochs at a time
    (about _CHUNK_TRIPLES epoch-station-wall triples, counting wall pairs
    with double bounces), each chunk drawing its noise block from the one
    observation stream and appending its rows to the run's columns. Noise
    draws are consumed in a fixed order (IMU stream, then per epoch: LoS by
    station order, single bounces station-major then wall, double bounces
    last), so configurations that differ only in noise variance or outage
    schedule share identical unit draws, and the chunk size changes no
    number; outage LoS rows are drawn, then dropped.
    """
    streams = _rng_streams(setup.seed)
    epoch_idx, _, n_samples = _epoch_indices(setup)
    times = np.arange(n_samples + 1) / setup.rates.imu_hz
    truth = trajectory_poses(setup.scenario.trajectory, times)
    biases = setup.imu_err.sample_biases(streams["imu"])
    imu = synth_imu(truth, setup.imu_err, setup.rates.imu_hz, streams["imu"], biases=biases)
    odo = synth_odo(truth, setup.rates.odo_hz, setup.odo_noise_std, streams["odo"])
    stations = setup.scenario.base_stations
    arrays = SceneArrays(stations, setup.scenario.walls)
    n_epochs = len(epoch_idx)
    epoch_t = times[epoch_idx]
    walls_per_epoch = arrays.n_walls * (arrays.n_walls if setup.include_double_bounce else 1)
    step = max(1, _CHUNK_TRIPLES // max(1, arrays.n_bs * walls_per_epoch))
    # the LoS columns, then the SBR ones, each grown by every chunk's rows
    cols = None
    for e0 in range(0, n_epochs, step):
        rows = epoch_idx[e0 : e0 + step]
        los, sbr = _synth_epochs(
            setup, arrays, truth.p[rows], truth.att[rows], epoch_t[e0 : e0 + step], streams["obs"]
        )
        chunk = (los[0] + e0, *los[1:], sbr[0] + e0, *sbr[1:])
        if cols is None:
            cols = [np.array(part) for part in chunk]
        else:
            for col, part in zip(cols, chunk):
                _extend(col, part)
    le, lb, l_obs, l_rss, re, rb, r_obs, r_rss, bounces, body = cols
    return MeasurementSet(
        truth=truth,
        bs_ids=tuple(bs.id for bs in stations),
        epoch_idx=epoch_idx,
        epoch_t=epoch_t,
        imu_t=imu.t,
        gyro=imu.gyro,
        accel=imu.accel,
        odo_t=odo.t,
        odo_v=odo.speed,
        los=RadioRecords(off=_offsets(le, n_epochs), bs=lb, obs=l_obs, rss=l_rss),
        sbr=RadioRecords(
            off=_offsets(re, n_epochs), bs=rb, obs=r_obs, rss=r_rss, bounces=bounces, body=body
        ),
        truth_biases=biases,
    )


@dataclass
class RunResult:
    t: np.ndarray
    p_est: np.ndarray
    err_enu: np.ndarray  # p_est minus the truth position per epoch
    err_3d: np.ndarray
    arc_m: np.ndarray  # cumulative truth arc length at epochs
    nees: np.ndarray  # NaN when truth biases unknown
    min_eig_p: np.ndarray
    counters: dict
    final_state: FilterState


def _init_filter(setup: RunSetup, truth: Trajectory, rng) -> FilterState:
    """Initial filter state: the truth trajectory's first row, perturbed."""
    ie = setup.init_err
    dp = ie.pos_std_m * rng.standard_normal(3)
    dv = ie.vel_std_mps * rng.standard_normal(3)
    dth = ie.att_std_rad * rng.standard_normal(3)
    q_true = quat.from_euler(*truth.att[0])
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
        t=float(truth.t[0]),
        p=truth.p[0] + dp,
        v=truth.v[0] + dv,
        q_bn=q0,
        P=P0 + 1e-12 * np.eye(15),
    )


def screen_sbr(sbr: RadioRecords, rows: slice, bs_p, q_bn, p_ref, setup: RunSetup):
    """Bounce-order screen of one epoch's reflected records, sbr's rows, on
    arrays; bs_p (B, 3) holds the positions of the run's stations.

    With setup.use_body_aoa the body-frame arrival angles are globalized
    with the attitude q_bn. Each path's locus is scored against p_ref, one
    oori_check screens them all, and the strongest MAX_SBR_PATHS admitted
    paths are kept, ties in record order. Returns (path_p, path_obs,
    counts): the kept paths' station positions (K, 3) and observation rows
    (K, 5) for sbr_fix, and the admitted/rejected counts keyed like
    run_filter's counters.
    """
    bs = sbr.bs[rows]
    obs = sbr.obs[rows].copy()
    if setup.use_body_aoa:
        body = sbr.body[rows]
        u_glob = quat.rotate(q_bn, unit_from_angles(body[:, 0], body[:, 1]))
        obs[:, 3], obs[:, 4] = angles_from_unit(u_glob)
    residuals = sbr_locus_residuals(
        bs_p[bs],
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
        "sbr_rejected_residual": len(bs) - n_admit - n_elev,
    }
    keep = np.flatnonzero(admit)
    if keep.size > MAX_SBR_PATHS:
        keep = keep[np.argsort(-sbr.rss[rows][keep], kind="stable")[:MAX_SBR_PATHS]]
    return bs_p[bs[keep]], obs[keep], counts


def run_filter(ms: MeasurementSet, setup: RunSetup) -> RunResult:
    """Gated estimation loop over one measurement set.

    Per epoch: prediction, then the epoch's LoS records (screened one by
    one, fixed and motion-gated as a batch, applied as sequential updates,
    since each NIS gate sees the previous update), then one joint fix over
    the admitted reflected paths. The motion gate compares candidate fixes
    against the last accepted posterior, with a travel budget accumulated
    from odometer speed since that posterior, so the bound stays meaningful
    across outage gaps.
    """
    bs_p = np.stack([bs.p for bs in setup.scenario.base_stations])
    truth = ms.truth
    fs = _init_filter(setup, truth, _rng_streams(setup.seed)["init"])

    dts = np.diff(truth.t)
    p_dense = truth.p
    arc_dense = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(p_dense, axis=0), axis=1))])
    odo_t, odo_v = ms.odo_t, ms.odo_v

    dt_obs = 1.0 / setup.rates.obs_hz
    # odometer speed over each epoch interval
    odo_j = np.minimum(np.searchsorted(odo_t, ms.epoch_t - 1e-9), len(odo_v) - 1)
    odo_speed = odo_v[odo_j].tolist()
    epoch_idx = ms.epoch_idx.tolist()
    n_epochs = len(epoch_idx)
    out_est = np.empty((n_epochs, 3))
    out_nees = np.full(n_epochs, np.nan)
    out_eig = np.empty(n_epochs)
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

    los, sbr = ms.los, ms.sbr
    los_off, sbr_off = los.off.tolist(), sbr.off.tolist()
    los_rtt, los_rss = los.obs[:, 0].tolist(), los.rss.tolist()
    r_floor = R_FLOOR_M2 * np.eye(3)
    truth_bg, truth_ba = (None, None) if ms.truth_biases is None else ms.truth_biases
    if setup.compute_nees and truth_bg is not None:
        att_ep = truth.att[ms.epoch_idx]
        q_truth_ep = quat.from_euler(att_ep[:, 0], att_ep[:, 1], att_ep[:, 2])
    Q = process_noise(setup.imu_err.accel_noise_density, setup.imu_err.gyro_noise_density)
    last_accept_p = fs.p
    travel_budget = 0.0
    prev_idx = 0

    for e_i, idx in enumerate(epoch_idx):
        fs = predict(
            fs,
            ms.gyro[prev_idx:idx],
            ms.accel[prev_idx:idx],
            dts[prev_idx:idx],
            setup.ukf,
            Q,
        )
        prev_idx = idx

        travel_budget += abs(odo_speed[e_i]) * dt_obs

        accepted_any = False
        a, b = los_off[e_i], los_off[e_i + 1]
        counters["los_total"] += b - a
        rows = [
            k
            for k in range(a, b)
            if classify_los(los_rtt[k], los_rss[k], setup.path_loss, setup.gate_cfg)
        ]
        counters["los_rejected_consistency"] += b - a - len(rows)
        if rows:
            fix = los_fix(
                bs_p[los.bs[rows]],
                los.obs[rows],
                setup.noise.var_range_m2,
                setup.noise.var_angle_deg2,
            )
            near = motion_gate(fix.p, last_accept_p, travel_budget, setup.gate_cfg)
            n_near = int(np.count_nonzero(near))
            counters["los_rejected_motion"] += len(rows) - n_near
            counters["los_admitted"] += n_near
            for p, r_mat in zip(fix.p[near], fix.cov[near] + r_floor):
                fs, info = update_position(fs, p, r_mat, setup.ukf)
                if info.accepted:
                    accepted_any = True
                else:
                    counters["los_nis_skipped"] += 1

        a, b = sbr_off[e_i], sbr_off[e_i + 1]
        if setup.with_sbr:
            counters["sbr_total"] += b - a
        if setup.with_sbr and b - a >= 2:
            path_p, path_obs, counts = screen_sbr(sbr, slice(a, b), bs_p, fs.q_bn, fs.p, setup)
            for key, n in counts.items():
                counters[key] += n
            if len(path_p) >= 2:
                # with body-frame arrival angles the solver co-estimates the
                # yaw misalignment of the fused attitude; roll/pitch error
                # stays as extra angle variance. Yaw needs three paths: off
                # vertical walls the K=2 joint system with a yaw unknown is
                # structurally singular.
                # roll/pitch uncertainty perturbs each globalized arrival
                # angle by about one attitude axis worth of variance, so the
                # per-angle inflation is half the roll+pitch variance sum
                fix = sbr_fix(
                    path_p,
                    path_obs,
                    setup.noise.var_range_m2,
                    setup.noise.var_angle_deg2,
                    var_aoa_extra_rad2=(
                        0.5 * float(fs.P[6, 6] + fs.P[7, 7]) if setup.use_body_aoa else 0.0
                    ),
                    estimate_yaw=setup.use_body_aoa and len(path_p) >= 3,
                )
                if fix is None:
                    counters["sbr_fix_failed"] += 1
                elif not motion_gate(fix.p, last_accept_p, travel_budget, setup.gate_cfg):
                    counters["sbr_fix_rejected_motion"] += 1
                else:
                    if fix.yaw is not None:
                        r_mat = np.zeros((4, 4))
                        r_mat[:3, :3] = fix.cov + r_floor
                        r_mat[3, 3] = fix.yaw_var + 1e-8
                        r_mat[:3, 3] = r_mat[3, :3] = fix.yaw_pos_cov
                        fs, info = update_position_yaw(fs, fix, r_mat, setup.ukf)
                    else:
                        fs, info = update_position(fs, fix.p, fix.cov + r_floor, setup.ukf)
                    if info.accepted:
                        accepted_any = True
                        counters["sbr_updates"] += 1
                    else:
                        counters["sbr_nis_skipped"] += 1

        if accepted_any:
            last_accept_p = fs.p
            travel_budget = 0.0

        out_est[e_i] = fs.p
        # every epoch ends on a predicted or updated state, which carries it
        out_eig[e_i] = fs.min_eig
        if setup.compute_nees and truth_bg is not None:
            e_vec = fs.error_vector(
                truth.p[idx], truth.v[idx], q_truth_ep[e_i], truth_bg, truth_ba
            )
            out_nees[e_i] = float(e_vec @ np.linalg.solve(fs.P, e_vec))

    out_truth = p_dense[epoch_idx]
    err_enu = out_est - out_truth
    return RunResult(
        t=ms.epoch_t.copy(),
        p_est=out_est,
        err_enu=err_enu,
        err_3d=np.linalg.norm(err_enu, axis=1),
        arc_m=arc_dense[epoch_idx],
        nees=out_nees,
        min_eig_p=out_eig,
        counters=counters,
        final_state=fs,
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


def _radio_columns(cols, epoch_of_t, station, n_epochs, sbr=False):
    """RadioRecords of one kind from the log reader's columns, rows ordered
    by epoch and, within an epoch, by file order; rows whose time epoch_of_t
    maps to no epoch are left out. station maps station ids to scenario
    indices."""
    lookup = np.array([station.get(i, -1) for i in cols.ids], dtype=int)
    epochs = np.array(
        [epoch_of_t.get(round(t, 6), -1) for t in cols.values[:, 0].tolist()], dtype=int
    )
    on_grid = np.flatnonzero(epochs >= 0)
    rows = on_grid[np.argsort(epochs[on_grid], kind="stable")]
    out = RadioRecords(
        off=_offsets(epochs[rows], n_epochs),
        bs=lookup[cols.bs[rows]],
        obs=cols.values[rows, 1:6],
        rss=cols.values[rows, 6],
    )
    if sbr:
        out.bounces = cols.bounces[rows]
        out.body = cols.values[rows, 7:9]
    return out


def measurement_set_from_records(records: dict, setup: RunSetup) -> MeasurementSet:
    """Rebuild a MeasurementSet from the log reader's columns
    (synth.read_measurement_log); the truth trajectory still comes from the
    scenario (the log carries no truth), and bias truth is unknown, so
    consistency statistics are unavailable on ingested runs. LoS records at
    an epoch inside setup.outages are dropped, as synthesis drops them.

    Raises ValueError when the log cannot feed the filter: an IMU sample
    count other than the scenario's, an IMU time other than the scenario's
    sample time (at the 1 µs the epoch grid is matched at), no odometer
    records, odometer times that go back, a LoS rtt_s or SBR toa_s that is
    not > 0, or a base station the scenario does not have. The message names
    the first offending record."""
    epoch_idx, _, n_samples = _epoch_indices(setup)
    times = np.arange(n_samples + 1) / setup.rates.imu_hz
    truth = trajectory_poses(setup.scenario.trajectory, times)
    imu, odo, los, sbr = (records[kind] for kind in ("imu", "odo", "los", "sbr"))
    if len(imu) != n_samples:
        raise ValueError(
            f"log has {len(imu)} IMU samples, scenario expects {n_samples}"
        )
    # the filter steps by the scenario's sample times, not by the log's
    for k, (t, want) in enumerate(zip(imu.values[:, 0].tolist(), times.tolist())):
        if round(t, 6) != round(want, 6):
            raise ValueError(f"IMU sample {k} has t_s {t!r}, scenario expects {want!r}")
    if not len(odo):
        raise ValueError("log has no odometer records")
    odo_t = odo.values[:, 0]
    # compared, not differenced: the difference of two far-apart finite
    # times can overflow
    back = np.flatnonzero(odo_t[1:] < odo_t[:-1])
    if back.size:
        k = int(back[0]) + 1
        t0, t1 = odo_t[k - 1 : k + 1].tolist()
        raise ValueError(f"odometer record {k} has t_s {t1!r}, before record {k - 1}'s {t0!r}")
    # travel times become path lengths, which the fixes and the bounce
    # screen need positive
    for kind, cols, key in (("LoS", los, "rtt_s"), ("SBR", sbr, "toa_s")):
        bad = np.flatnonzero(cols.values[:, 1] <= 0.0)
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"{kind} record {k} has {key} {float(cols.values[k, 1])!r}, not > 0")
    stations = setup.scenario.base_stations
    station = {bs.id: b for b, bs in enumerate(stations)}
    unknown = {
        cols.ids[b] for cols in (los, sbr) for b in np.unique(cols.bs).tolist()
    } - station.keys()
    if unknown:
        raise ValueError(f"log names base stations not in the scenario: {sorted(unknown)}")
    epoch_t = times[epoch_idx]
    epoch_of_t = {round(t, 6): e for e, t in enumerate(epoch_t.tolist())}
    blocked = outage_mask(epoch_t, setup.outages).tolist()
    los_epoch_of_t = {t: e for t, e in epoch_of_t.items() if not blocked[e]}
    n_epochs = len(epoch_idx)
    return MeasurementSet(
        truth=truth,
        bs_ids=tuple(station),
        epoch_idx=epoch_idx,
        epoch_t=epoch_t,
        # contiguous copies of the reader's strided column views
        imu_t=imu.values[:, 0].copy(),
        gyro=imu.values[:, 1:4].copy(),
        accel=imu.values[:, 4:7].copy(),
        odo_t=odo_t.copy(),
        odo_v=odo.values[:, 1].copy(),
        los=_radio_columns(los, los_epoch_of_t, station, n_epochs),
        sbr=_radio_columns(sbr, epoch_of_t, station, n_epochs, sbr=True),
        truth_biases=None,
    )
