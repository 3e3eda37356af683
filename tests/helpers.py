"""Shared scene generators and reference implementations for the test suite.

Rejection-samples random worlds until the requested propagation geometry
exists; all randomness flows through a caller-provided Generator so every
test controls its own seed. The references are the plain per-path,
per-sample, per-epoch and per-record forms that the batched program code
must reproduce: the scalar reflection geometry (specular_path, los_visible
and double_bounce_path, one path of one UE at a time, and
double_bounces_per_path looping it over UEs, stations and wall pairs,
behind mpnav.scene.SceneArrays), the quaternion kernels written out per
component (behind mpnav.quat.multiply, chain and rotate), synth_los and
synth_sbr (one LosObs or SbrObs record, behind the radio synthesis of
mpnav.pipeline.synth_measurements), sbr_locus_residual (one path, behind
mpnav.fixes.sbr_locus_residuals), sbr_fix_svd (the dense-SVD reflection
solver behind mpnav.fixes.sbr_fix),
mechanize_per_sample (behind
mpnav.ins.mechanize_arrays), predict_reference (the prediction step with
its weights, noise matrix and attitude mean rebuilt on numpy every call,
behind mpnav.fusion.predict), trajectory_poses_per_sample (one Pose per
sample, behind mpnav.scene.trajectory_poses), synth_imu_per_sample and
synth_odo_per_sample (one ImuSample or OdoSample per sample, behind
mpnav.synth.synth_imu and synth_odo), apply_noise_per_record (behind
mpnav.synth.apply_noise), sbr_screen_per_record (the reflected-path screen
of mpnav.pipeline.run_filter), synth_epochs_per_epoch (the epoch loop
behind mpnav.pipeline.synth_measurements), synth_measurements_unchunked
(all epochs in one pass, behind its epoch chunks), run_filter_per_record (the
record-by-record filter loop behind mpnav.pipeline.run_filter),
write_log_json (json.dumps per record, behind
mpnav.synth.write_measurement_log), read_measurement_log_per_record (one
record object per line, behind mpnav.synth.read_measurement_log) and
radio_columns_per_row (an epoch looked up per row and every kept row
gathered, behind the radio columns of
mpnav.pipeline.measurement_set_from_records).
los_columns and sbr_columns turn records into the column arguments of
mpnav.fixes.los_fix and sbr_fix.
"""

import json
import math
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from mpnav import fusion, quat
from mpnav.fixes import Fix, _angle_std_rad, _unit_jacobian
from mpnav.ins import GRAVITY, mechanize_arrays
from mpnav.scene import (
    _PLANE_TOL,
    SPEED_OF_LIGHT,
    BaseStation,
    GeometryError,
    Pose,
    Scenario,
    Trajectory,
    Wall,
    _inplane_overlap,
    angles_from_unit,
    mirror_point,
    unit_from_angles,
)
from mpnav.synth import LogColumns, PathLossModel, apply_noise


@dataclass
class ImuSample:
    """One IMU sample, the row type of the per-sample references."""

    t: float
    gyro: np.ndarray  # rad/s, body
    accel: np.ndarray  # m/s^2 specific force, body


@dataclass
class OdoSample:
    """One odometer record, the row type of the per-record references."""

    t: float
    speed: float  # m/s


# ---------------------------------------------------------------------------
# radio records one at a time: the row types of the per-record references,
# their noise-free synthesis, and the columns the fixes take


@dataclass
class LosObs:
    """Direct-path observables for one BS at one epoch.

    Angles are radians on global ENU axes: aod at the BS toward the UE, aoa
    at the UE toward the BS. rtt is the two-way travel time.
    """

    bs_id: str
    t: float
    rtt: float
    aod_az: float
    aod_el: float
    aoa_az: float
    aoa_el: float
    rss: float  # dBm


@dataclass
class SbrObs:
    """Reflected-path observables.

    aoa_az/aoa_el are the arrival direction (UE toward the bounce point) on
    global axes, the synthesis truth. aoa_az_body/aoa_el_body are the same
    direction expressed in the vehicle body frame, which is what a receiver
    actually measures; an estimator rotates them back out with its own
    attitude. toa is one-way. truth_bounces is simulator ground truth and
    hidden from estimators.
    """

    bs_id: str
    t: float
    toa: float
    aod_az: float
    aod_el: float
    aoa_az: float
    aoa_el: float
    rss: float
    truth_bounces: int = 1
    aoa_az_body: float = 0.0
    aoa_el_body: float = 0.0


def synth_los(bs, pose, plm: PathLossModel) -> LosObs:
    """Noise-free direct-path observables for one base station."""
    d_vec = pose.p - bs.p
    d = float(np.linalg.norm(d_vec))
    if d <= 0.0:
        raise ValueError("UE and BS positions coincide")
    aod_az, aod_el = angles_from_unit(d_vec)
    aoa_az, aoa_el = angles_from_unit(-d_vec)
    return LosObs(
        bs_id=bs.id,
        t=pose.t,
        rtt=2.0 * d / SPEED_OF_LIGHT,
        aod_az=float(aod_az),
        aod_el=float(aod_el),
        aoa_az=float(aoa_az),
        aoa_el=float(aoa_el),
        rss=plm.rss(d),
    )


def synth_sbr(path, pose, plm: PathLossModel) -> SbrObs:
    """Noise-free reflected-path observables.

    Works for single- and double-bounce path records (anything exposing
    length, u_dep, u_arr, bounces); the body-frame arrival angles use the
    pose's true attitude.
    """
    aod_az, aod_el = angles_from_unit(path.u_dep)
    aoa_az, aoa_el = angles_from_unit(path.u_arr)
    q_bn = quat.from_euler(*pose.att)
    u_body = quat.rotate(quat.conjugate(q_bn), path.u_arr)
    aoa_az_b, aoa_el_b = angles_from_unit(u_body)
    return SbrObs(
        bs_id=path.bs_id,
        t=pose.t,
        toa=path.length / SPEED_OF_LIGHT,
        aod_az=float(aod_az),
        aod_el=float(aod_el),
        aoa_az=float(aoa_az),
        aoa_el=float(aoa_el),
        rss=plm.rss(path.length, bounces=path.bounces),
        truth_bounces=int(path.bounces),
        aoa_az_body=float(aoa_az_b),
        aoa_el_body=float(aoa_el_b),
    )


def los_columns(bs, obs):
    """los_fix's arguments for one station and one LosObs: the station
    position (3,) and the row [rtt, aod_az, aod_el, aoa_az, aoa_el]."""
    return bs.p, np.array([obs.rtt, obs.aod_az, obs.aod_el, obs.aoa_az, obs.aoa_el])


def sbr_columns(pairs):
    """sbr_fix's arguments for (BaseStation, SbrObs) pairs: station
    positions (K, 3) and rows [toa, aod_az, aod_el, aoa_az, aoa_el] (K, 5)."""
    bs_p = np.array([bs.p for bs, _ in pairs])
    return bs_p, np.array([(o.toa, o.aod_az, o.aod_el, o.aoa_az, o.aoa_el) for _, o in pairs])


def sbr_locus_residual(bs, obs, ref_p) -> float:
    """Reference for mpnav.fixes.sbr_locus_residuals: the distance from
    ref_p to one observation's solution segment.

    Zero (up to noise) for a genuine single bounce when ref_p is near the
    true position; order of the middle-leg length for higher-order bounces,
    which is what makes the residual usable as a bounce-count discriminator.
    """
    ref_p = np.asarray(ref_p, dtype=float)
    L = SPEED_OF_LIGHT * obs.toa
    u_dep = unit_from_angles(obs.aod_az, obs.aod_el)
    u_arr = unit_from_angles(obs.aoa_az, obs.aoa_el)
    base = bs.p - L * u_arr
    direction = u_dep + u_arr
    dd = float(direction @ direction)
    if dd <= 0.0:
        leg = 0.0
    else:
        leg = float(np.clip((ref_p - base) @ direction / dd, 0.0, L))
    return float(np.linalg.norm(ref_p - (base + leg * direction)))


# ---------------------------------------------------------------------------
# scalar reflection geometry and scenario writer: one path, one UE at a time


_INPLANE = "inplane"


@dataclass
class SbrPath:
    """One single-bounce reflection: BS -> wall point -> UE."""

    bs_id: str
    wall_id: str
    point: np.ndarray  # bounce point on the wall, m
    leg_bs: float  # BS -> bounce, m
    leg_ue: float  # bounce -> UE, m
    length: float  # total path length, m
    u_dep: np.ndarray  # unit departure direction at the BS, global axes
    u_arr: np.ndarray  # unit arrival direction at the UE, pointing UE -> bounce
    bounces: int = 1


@dataclass
class DoubleBouncePath:
    """Two-bounce path BS -> wall1 -> wall2 -> UE, used to exercise the
    single-bounce admission gate with realistic impostors."""

    bs_id: str
    wall_ids: tuple
    points: tuple  # the two bounce points
    length: float
    u_dep: np.ndarray
    u_arr: np.ndarray
    bounces: int = 2


def _segment_plane_crossing(p0, p1, wall: Wall):
    """Parameter t in [0, 1] where p0 + t*(p1 - p0) meets the wall plane.

    Returns None when both endpoints sit strictly on one side, the _INPLANE
    sentinel when the whole segment lies in the plane.
    """
    s0 = wall.signed_distance(p0)
    s1 = wall.signed_distance(p1)
    if abs(s0) <= _PLANE_TOL and abs(s1) <= _PLANE_TOL:
        return _INPLANE
    if s0 * s1 > 0.0:
        return None
    denom = s0 - s1
    if denom == 0.0:
        return None
    t = s0 / denom
    if t < 0.0 or t > 1.0:
        return None
    return t


def specular_path(bs: BaseStation, ue, wall: Wall):
    """Single-bounce path from bs to ue off one wall, or None.

    The reflected ray is the straight segment from the mirrored base station
    to the UE; where it crosses the wall rectangle is the bounce point, and
    the total length equals |mirror - ue|. None when the crossing misses the
    finite rectangle, the endpoints sit on the same side of the plane, or the
    geometry is degenerate (an endpoint on the plane itself).
    """
    ue = np.asarray(ue, dtype=float)
    m = mirror_point(bs.p, wall)
    t = _segment_plane_crossing(m, ue, wall)
    if t is None or t is _INPLANE:
        return None
    if t <= 0.0 or t >= 1.0:
        return None
    point = m + t * (ue - m)
    if not wall.on_rectangle(point):
        return None
    leg_bs = float(np.linalg.norm(point - bs.p))
    leg_ue = float(np.linalg.norm(ue - point))
    if leg_bs <= _PLANE_TOL or leg_ue <= _PLANE_TOL:
        return None
    return SbrPath(
        bs_id=bs.id,
        wall_id=wall.id,
        point=point,
        leg_bs=leg_bs,
        leg_ue=leg_ue,
        length=leg_bs + leg_ue,
        u_dep=(point - bs.p) / leg_bs,
        u_arr=(point - ue) / leg_ue,
    )


def los_visible(bs: BaseStation, ue, walls) -> bool:
    """True when the straight bs-ue segment meets no wall rectangle.

    Endpoint contact counts as blocked; the test is symmetric in bs and ue.
    """
    p0 = np.asarray(bs.p, dtype=float)
    p1 = np.asarray(ue, dtype=float)
    for wall in walls:
        t = _segment_plane_crossing(p0, p1, wall)
        if t is None:
            continue
        if t is _INPLANE:
            if _inplane_overlap(p0, p1, wall):
                return False
            continue
        if wall.on_rectangle(p0 + t * (p1 - p0)):
            return False
    return True


def double_bounce_path(bs: BaseStation, ue, wall1: Wall, wall2: Wall):
    """Two-bounce path bs -> wall1 -> wall2 -> ue via double unfolding.

    Mirror bs across wall1, then that image across wall2; the second bounce
    point is where the segment from the double image to ue crosses wall2, and
    the first is where the segment from the single image to that point
    crosses wall1. None whenever either crossing misses its rectangle.
    """
    if wall1 is wall2 or wall1.id == wall2.id:
        raise GeometryError("double bounce needs two distinct walls")
    ue = np.asarray(ue, dtype=float)
    m1 = mirror_point(bs.p, wall1)
    m12 = mirror_point(m1, wall2)
    t2 = _segment_plane_crossing(m12, ue, wall2)
    if not isinstance(t2, float) or not 0.0 < t2 < 1.0:
        return None
    q2 = m12 + t2 * (ue - m12)
    if not wall2.on_rectangle(q2):
        return None
    t1 = _segment_plane_crossing(m1, q2, wall1)
    if not isinstance(t1, float) or not 0.0 < t1 < 1.0:
        return None
    q1 = m1 + t1 * (q2 - m1)
    if not wall1.on_rectangle(q1):
        return None
    leg1 = float(np.linalg.norm(q1 - bs.p))
    leg2 = float(np.linalg.norm(q2 - q1))
    leg3 = float(np.linalg.norm(ue - q2))
    if min(leg1, leg2, leg3) <= _PLANE_TOL:
        return None
    return DoubleBouncePath(
        bs_id=bs.id,
        wall_ids=(wall1.id, wall2.id),
        points=(q1, q2),
        length=leg1 + leg2 + leg3,
        u_dep=(q1 - bs.p) / leg1,
        u_arr=(q2 - ue) / leg3,
    )


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "base_stations": [
            {"id": b.id, "p_enu_m": [float(x) for x in b.p]} for b in s.base_stations
        ],
        "walls": [
            {
                "id": w.id,
                "a_en_m": [float(x) for x in w.a],
                "b_en_m": [float(x) for x in w.b],
                "z0_m": w.z0,
                "height_m": w.h,
            }
            for w in s.walls
        ],
        "trajectory": dict(s.trajectory),
    }


def save_scenario(path, s: Scenario) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(scenario_to_dict(s), f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# quaternion kernels written out one component at a time


def identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def multiply_componentwise(a, b):
    """Reference for mpnav.quat.multiply: the Hamilton product written out
    one output component at a time."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = (a[..., i] for i in range(4))
    bw, bx, by, bz = (b[..., i] for i in range(4))
    out = np.empty(np.broadcast(aw, bw).shape + (4,))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def chain_componentwise(q, dq):
    """Reference for mpnav.quat.chain: running products with the signed dq
    terms stacked per left component and multiplied in one slice at a
    time."""
    dq = np.asarray(dq, dtype=float)
    w, x, y, z = (dq[..., i] for i in range(4))
    # factors[k, j]: the dq[k] terms that multiply component j of the left side
    factors = np.stack(
        [
            np.stack([w, x, y, z], axis=-1),
            np.stack([-x, w, -z, y], axis=-1),
            np.stack([-y, z, w, -x], axis=-1),
            np.stack([-z, -y, x, w], axis=-1),
        ],
        axis=1,
    )
    q = np.asarray(q, dtype=float)
    out = np.empty(dq.shape[:1] + np.broadcast_shapes(q.shape, dq.shape[1:]))
    for k, f in enumerate(factors):
        q = q[..., 0:1] * f[0] + q[..., 1:2] * f[1] + q[..., 2:3] * f[2] + q[..., 3:4] * f[3]
        q = out[k] = quat.normalize(q)
    return out


def rotate_componentwise(q, v):
    """Reference for mpnav.quat.rotate: v + 2 w (u x v) + 2 u x (u x v)
    with the cross products written out one component at a time."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w = q[..., 0]
    ux, uy, uz = q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    tx = 2.0 * (uy * vz - uz * vy)
    ty = 2.0 * (uz * vx - ux * vz)
    tz = 2.0 * (ux * vy - uy * vx)
    out = np.empty(np.broadcast(w, vx).shape + (3,))
    out[..., 0] = vx + w * tx + uy * tz - uz * ty
    out[..., 1] = vy + w * ty + uz * tx - ux * tz
    out[..., 2] = vz + w * tz + ux * ty - uy * tx
    return out


# ---------------------------------------------------------------------------
# random scenes


def random_wall(rng, ident="w0", center_span=80.0, min_len=20.0, max_len=120.0):
    """Wall with a random horizontal footprint and a generous height band."""
    c = rng.uniform(-center_span, center_span, 2)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    half = 0.5 * rng.uniform(min_len, max_len)
    d = np.array([np.cos(ang), np.sin(ang)])
    return Wall(id=ident, a=c - half * d, b=c + half * d, z0=0.0, h=rng.uniform(10.0, 40.0))


def random_bs(rng, ident="bs0", span=120.0):
    return BaseStation(
        id=ident, p=[rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(5.0, 35.0)]
    )


def random_ue(rng, span=100.0):
    return np.array([rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(0.5, 3.0)])


def random_single_bounce(rng, max_tries=200):
    """(bs, ue, wall, path) with a valid single-bounce reflection."""
    for _ in range(max_tries):
        bs = random_bs(rng)
        ue = random_ue(rng)
        wall = random_wall(rng)
        path = specular_path(bs, ue, wall)
        if path is not None:
            return bs, ue, wall, path
    raise RuntimeError("no single-bounce geometry found")


def random_two_path_scene(rng, min_split_rad=0.35, max_tries=400):
    """One UE seen via two walls whose orientations differ enough that the
    joint solver is well-conditioned: [(bs1, path1), (bs2, path2)], ue."""
    for _ in range(max_tries):
        ue = random_ue(rng)
        bs1 = random_bs(rng, "bs0")
        bs2 = random_bs(rng, "bs1")
        w1 = random_wall(rng, "w0")
        w2 = random_wall(rng, "w1")
        split = abs(np.arctan2(*np.flip(w1.tangent)) - np.arctan2(*np.flip(w2.tangent)))
        split = min(split % np.pi, np.pi - split % np.pi)
        if split < min_split_rad:
            continue
        p1 = specular_path(bs1, ue, w1)
        p2 = specular_path(bs2, ue, w2)
        if p1 is not None and p2 is not None:
            return [(bs1, p1), (bs2, p2)], ue
    raise RuntimeError("no two-path geometry found")


def random_multi_path_scene(rng, n_paths=3, min_split_rad=0.3, max_tries=600):
    """n_paths single bounces to one UE off walls with spread-out headings."""
    for _ in range(max_tries):
        ue = random_ue(rng)
        found = []
        angles = []
        for k in range(4 * n_paths):
            wall = random_wall(rng, f"w{k}")
            heading = np.arctan2(wall.tangent[1], wall.tangent[0]) % np.pi
            if any(min(abs(heading - a), np.pi - abs(heading - a)) < min_split_rad for a in angles):
                continue
            bs = random_bs(rng, f"bs{k}")
            path = specular_path(bs, ue, wall)
            if path is None:
                continue
            found.append((bs, path))
            angles.append(heading)
            if len(found) == n_paths:
                return found, ue
    raise RuntimeError("no multi-path geometry found")


def random_double_bounce(rng, max_tries=400):
    """(bs, ue, walls, path) with a valid two-bounce reflection.

    Corridor-style geometry (two facing walls with the endpoints between
    them) makes the rejection sampling cheap without constraining the bounce
    legs to anything special.
    """
    for _ in range(max_tries):
        gap = rng.uniform(15.0, 60.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        d = np.array([np.cos(ang), np.sin(ang)])
        n = np.array([-d[1], d[0]])
        off = rng.uniform(-20.0, 20.0, 2)
        half = rng.uniform(40.0, 120.0)
        w1 = Wall(id="c0", a=off + gap * n - half * d, b=off + gap * n + half * d, h=rng.uniform(15.0, 40.0))
        w2 = Wall(id="c1", a=off - gap * n - half * d, b=off - gap * n + half * d, h=rng.uniform(15.0, 40.0))
        lat1, lat2 = rng.uniform(-0.9 * gap, 0.9 * gap, 2)
        lon1, lon2 = rng.uniform(-0.8 * half, 0.8 * half, 2)
        bs = BaseStation(id="bs0", p=[*(off + lat1 * n + lon1 * d), rng.uniform(5.0, 12.0)])
        ue = np.array([*(off + lat2 * n + lon2 * d), rng.uniform(0.5, 3.0)])
        for first, second in ((w1, w2), (w2, w1)):
            path = double_bounce_path(bs, ue, first, second)
            if path is not None:
                return bs, ue, (first, second), path
    raise RuntimeError("no double-bounce geometry found")


def sbr_fix_svd(
    pairs,
    var_range_m2: float = 0.0,
    var_angle_deg2: float = 0.0,
    var_aoa_extra_rad2: float = 0.0,
    cond_max: float = 1e8,
    estimate_yaw: bool = False,
    weighted: bool = True,
):
    """Reference joint fix over K >= 2 single-bounce paths: the full
    3K x (3+K) system solved by SVD, legs included.

    pairs: list of (BaseStation, SbrObs). Unknowns are (p, leg_1..leg_K);
    each path contributes the three equations
        p - leg_k * (u_dep_k + u_arr_k) = bs_k - L_k * u_arr_k.
    Solved by SVD least squares. Returns None instead of a wrong answer when
    the system is ill-conditioned (> cond_max) or any recovered first leg
    falls outside [0, L_k].

    weighted scales each path's equations by its expected noise (longer legs
    amplify angle noise), which matters when path lengths vary a lot.

    estimate_yaw appends one unknown: a common nav-frame yaw misalignment of
    the attitude that globalized the arrival angles. Its column per path is
    (L_k - leg_k) * (z_hat x u_arr_k), linearized at first-pass leg values.
    The estimate lands in Fix.yaw and its variance and covariance with p in
    the last row and column of a 4x4 Fix.cov, so a fusion filter can correct
    heading from the same measurements. Needs K >= 3 for
    vertical-wall paths: u_dep + u_arr and the yaw column are then all
    horizontal, and the K=2 horizontal subsystem has more unknowns than
    equations, so the condition check reports no fix.

    Covariance comes from first-order propagation of the declared range and
    angle variances through the solver; var_aoa_extra_rad2 adds attitude
    uncertainty to the arrival angles beyond what estimate_yaw models.
    """
    K = len(pairs)
    if K < 2:
        raise ValueError("joint fix needs at least two paths")
    A = np.zeros((3 * K, 3 + K))
    y = np.zeros(3 * K)
    lengths = np.empty(K)
    units = []
    for k, (bs, obs) in enumerate(pairs):
        L = SPEED_OF_LIGHT * obs.toa
        u_dep = unit_from_angles(obs.aod_az, obs.aod_el)
        u_arr = unit_from_angles(obs.aoa_az, obs.aoa_el)
        rows = slice(3 * k, 3 * k + 3)
        A[rows, :3] = np.eye(3)
        A[rows, 3 + k] = -(u_dep + u_arr)
        y[rows] = bs.p - L * u_arr
        lengths[k] = L
        units.append((u_dep, u_arr, obs))
    u_svd, s, vt = np.linalg.svd(A, full_matrices=False)
    if s[-1] <= 0.0 or s[0] / s[-1] > cond_max:
        return None
    x = vt.T @ ((u_svd.T @ y) / s)
    legs0 = x[3:]

    va = _angle_std_rad(var_angle_deg2) ** 2
    va_arr = va + var_aoa_extra_rad2
    n_unk = 3 + K + (1 if estimate_yaw else 0)
    if weighted or estimate_yaw:
        # second pass: noise-scaled rows, optional shared yaw column
        legs_ref = np.clip(legs0, 0.0, lengths)
        if weighted:
            s2 = var_range_m2 + va * legs_ref**2 + va_arr * (lengths - legs_ref) ** 2
            w = 1.0 / np.sqrt(np.maximum(s2, 1e-12))
            w /= w.max()
        else:
            w = np.ones(K)
        A2 = np.zeros((3 * K, n_unk))
        y2 = np.empty(3 * K)
        for k, (u_dep, u_arr, obs) in enumerate(units):
            rows = slice(3 * k, 3 * k + 3)
            A2[rows, : 3 + K] = w[k] * A[rows]
            if estimate_yaw:
                A2[rows, 3 + K] = (
                    w[k] * (lengths[k] - legs_ref[k]) * np.array([-u_arr[1], u_arr[0], 0.0])
                )
            y2[rows] = w[k] * y[rows]
        u_svd, s, vt = np.linalg.svd(A2, full_matrices=False)
        if s[-1] <= 0.0 or s[0] / s[-1] > cond_max:
            return None
        x = vt.T @ ((u_svd.T @ y2) / s)
        row_w = np.repeat(w, 3)
    else:
        row_w = np.ones(3 * K)

    p = x[:3]
    legs = x[3 : 3 + K]
    psi = float(x[3 + K]) if estimate_yaw else None
    for k in range(K):
        tol = 1e-9 * max(1.0, lengths[k])
        if legs[k] < -tol or legs[k] > lengths[k] + tol:
            return None
    # unweighted equation misfit, with the yaw term included when estimated
    r = A @ np.concatenate([p, legs]) - y
    if estimate_yaw:
        for k, (u_dep, u_arr, obs) in enumerate(units):
            rows = slice(3 * k, 3 * k + 3)
            r[rows] += psi * (lengths[k] - legs[k]) * np.array([-u_arr[1], u_arr[0], 0.0])
    residual = float(np.sqrt(np.mean(r**2)))

    # First-order sensitivity: A dx = dy - dA x, columns per input
    # [L_k, aod_az_k, aod_el_k, aoa_az_k, aoa_el_k].
    rhs = np.zeros((3 * K, 5 * K))
    sig2 = np.empty(5 * K)
    for k, (u_dep, u_arr, obs) in enumerate(units):
        rows = slice(3 * k, 3 * k + 3)
        cols = slice(5 * k, 5 * k + 5)
        jd_az, jd_el = _unit_jacobian(obs.aod_az, obs.aod_el)
        ja_az, ja_el = _unit_jacobian(obs.aoa_az, obs.aoa_el)
        rhs[rows, 5 * k + 0] = -u_arr
        rhs[rows, 5 * k + 1] = legs[k] * jd_az
        rhs[rows, 5 * k + 2] = legs[k] * jd_el
        rhs[rows, 5 * k + 3] = (legs[k] - lengths[k]) * ja_az
        rhs[rows, 5 * k + 4] = (legs[k] - lengths[k]) * ja_el
        sig2[cols] = [var_range_m2, va, va, va_arr, va_arr]
    j_all = vt.T @ ((u_svd.T @ (row_w[:, None] * rhs)) / s[:, None])
    j_p = j_all[:3]
    cov = np.zeros((4, 4) if estimate_yaw else (3, 3))
    cov[:3, :3] = (j_p * sig2) @ j_p.T
    if estimate_yaw:
        j_psi = j_all[3 + K]
        cov[3, 3] = (j_psi * sig2) @ j_psi
        cov[:3, 3] = cov[3, :3] = (j_p * sig2) @ j_psi
    return Fix(p=p, cov=cov, residual=residual, n_paths=K, yaw=psi)


def mechanize_step(p, v, q, b_g, b_a, gyro, accel, dt):
    """One mechanization step on stacked states; broadcasts over leading axes.

    Attitude first (exponential map of the compensated rate), then velocity
    with the new attitude, then position by trapezoidal integration.
    """
    dq = quat.from_rotvec((gyro - b_g) * dt)
    q_new = quat.normalize(quat.multiply(q, dq))
    a_nav = quat.rotate(q_new, accel - b_a) + GRAVITY
    v_new = v + a_nav * dt
    p_new = p + 0.5 * (v + v_new) * dt
    return p_new, v_new, q_new


def mechanize_per_sample(p, v, q, b_g, b_a, gyros, accels, dts):
    """Reference for mechanize_arrays: one mechanize_step per IMU sample,
    states stacked per sample along a new leading axis."""
    out = []
    for k in range(len(dts)):
        p, v, q = mechanize_step(p, v, q, b_g, b_a, gyros[k], accels[k], dts[k])
        out.append((p, v, q))
    return tuple(np.stack(x) for x in zip(*out))


def predict_reference(fs, gyros, accels, dts, params, Q):
    """Reference for mpnav.fusion.predict: weights from _ut_weights and
    sigma points from _points, built on every call, and the attitude mean
    composed on numpy arrays."""
    gyros = np.atleast_2d(np.asarray(gyros, dtype=float))
    accels = np.atleast_2d(np.asarray(accels, dtype=float))
    dts = np.atleast_1d(np.asarray(dts, dtype=float))
    if np.any(dts <= 0.0):
        raise ValueError("IMU intervals must be positive")
    n_err = fusion.N_ERR
    n_lam, wm, wc = fusion._ut_weights(n_err, params.alpha, params.beta, params.kappa)
    pts = fusion._points(np.zeros(n_err), fs.P, n_lam)
    p, v, q, bg, ba = fusion._inject(fs, pts)
    p, v, q = mechanize_arrays(p, v, q, bg, ba, gyros, accels, dts)
    p, v, q = p[-1], v[-1], q[-1]
    p_mean = wm @ p
    v_mean = wm @ v
    bg_mean = wm @ bg
    ba_mean = wm @ ba
    # attitude mean relative to the propagated center point
    dth = quat.to_rotvec(quat.multiply(quat.conjugate(q[0]), q))
    q_mean = quat.normalize(quat.multiply(q[0], quat.from_rotvec(wm @ dth)))
    err = np.empty((pts.shape[0], n_err))
    err[:, 0:3] = p - p_mean
    err[:, 3:6] = v - v_mean
    err[:, 6:9] = quat.to_rotvec(quat.multiply(quat.conjugate(q_mean), q))
    err[:, 9:12] = bg - bg_mean
    err[:, 12:15] = ba - ba_mean
    elapsed = float(np.sum(dts))
    P = (wc * err.T) @ err + Q * elapsed
    P, eigmin = fusion._finalize_cov(P)
    return fusion.FilterState(
        p=p_mean,
        v=v_mean,
        q_bn=q_mean,
        b_g=bg_mean,
        b_a=ba_mean,
        P=P,
        min_eig=eigmin,
    )


def _wrap_az(az: float) -> float:
    return math.atan2(math.sin(az), math.cos(az))


def _clip_el(el: float) -> float:
    return min(max(el, -math.pi / 2), math.pi / 2)


def apply_noise_per_record(obs, cfg, rng):
    """Reference for apply_noise: a noisy copy of one LoS or reflected
    record, consuming exactly five unit-normal draws."""
    if cfg.var_range_m2 < 0 or cfg.var_angle_deg2 < 0:
        raise ValueError("noise variances must be >= 0")
    z = rng.standard_normal(5)
    sig_r = math.sqrt(cfg.var_range_m2)
    sig_a = math.radians(math.sqrt(cfg.var_angle_deg2))
    out = replace(obs)
    if sig_r > 0.0:
        if isinstance(obs, LosObs):
            out.rtt = obs.rtt + 2.0 * sig_r * z[0] / SPEED_OF_LIGHT
        else:
            out.toa = obs.toa + sig_r * z[0] / SPEED_OF_LIGHT
    if sig_a > 0.0:
        out.aod_az = _wrap_az(obs.aod_az + sig_a * z[1])
        out.aod_el = _clip_el(obs.aod_el + sig_a * z[2])
        out.aoa_az = _wrap_az(obs.aoa_az + sig_a * z[3])
        out.aoa_el = _clip_el(obs.aoa_el + sig_a * z[4])
        if isinstance(obs, SbrObs):
            out.aoa_az_body = _wrap_az(obs.aoa_az_body + sig_a * z[3])
            out.aoa_el_body = _clip_el(obs.aoa_el_body + sig_a * z[4])
    return out


def add_noise(records, cfg, rng):
    """Noisy copies of LoS and reflected records (LoS first) through the
    program's epoch-block apply_noise: five draws per record, in order."""
    n_los = sum(isinstance(o, LosObs) for o in records)
    if any(isinstance(o, LosObs) for o in records[n_los:]):
        raise ValueError("LoS records must come first")
    los, sbr = records[:n_los], records[n_los:]
    obs = [(o.rtt, o.aod_az, o.aod_el, o.aoa_az, o.aoa_el) for o in los]
    obs += [(o.toa, o.aod_az, o.aod_el, o.aoa_az, o.aoa_el) for o in sbr]
    body = [(o.aoa_az_body, o.aoa_el_body) for o in sbr]
    noisy, body = apply_noise(
        np.reshape(obs, (-1, 5)),
        cfg,
        rng,
        los=np.arange(len(records)) < n_los,
        body=np.reshape(body, (-1, 2)),
    )
    rows, body = noisy.tolist(), body.tolist()
    out = [
        replace(o, rtt=r[0], aod_az=r[1], aod_el=r[2], aoa_az=r[3], aoa_el=r[4])
        for o, r in zip(los, rows)
    ]
    out += [
        replace(
            o,
            toa=r[0],
            aod_az=r[1],
            aod_el=r[2],
            aoa_az=r[3],
            aoa_el=r[4],
            aoa_az_body=b[0],
            aoa_el_body=b[1],
        )
        for o, r, b in zip(sbr, rows[n_los:], body)
    ]
    return out


def sbr_screen_per_record(sbr, bs_by_id, q_bn, p_ref, setup):
    """Reference for pipeline.screen_sbr: globalize, score, screen and
    select one record at a time, keeping at most pipeline.MAX_SBR_PATHS.
    Returns the admitted (BaseStation, SbrObs) pairs and the counts of
    screen_sbr."""
    from mpnav import pipeline

    counts = {"sbr_admitted": 0, "sbr_rejected_elevation": 0, "sbr_rejected_residual": 0}
    eps = setup.gate_cfg.elevation_eps_rad
    admitted = []
    for o in sbr:
        if setup.use_body_aoa:
            u_glob = quat.rotate(q_bn, unit_from_angles(o.aoa_az_body, o.aoa_el_body))
            az, el = angles_from_unit(u_glob)
            o = replace(o, aoa_az=float(az), aoa_el=float(el))
        bs = bs_by_id[o.bs_id]
        resid = sbr_locus_residual(bs, o, p_ref)
        if abs(math.sin(o.aod_el) + math.sin(o.aoa_el)) > eps:
            counts["sbr_rejected_elevation"] += 1
        elif resid <= setup.gate_cfg.residual_m:
            counts["sbr_admitted"] += 1
            admitted.append((bs, o))
        else:
            counts["sbr_rejected_residual"] += 1
    if len(admitted) > pipeline.MAX_SBR_PATHS:
        admitted = sorted(admitted, key=lambda bo: -bo[1].rss)[: pipeline.MAX_SBR_PATHS]
    return admitted, counts


def apply_outages(t: float, obs_list, windows):
    """Drop LoS observations whose epoch falls inside any window (closed
    interval); reflected-path observations always pass through."""
    if not windows:
        return list(obs_list)
    blocked = any(w.contains(t) for w in windows)
    if not blocked:
        return list(obs_list)
    return [o for o in obs_list if not isinstance(o, LosObs)]


def synth_epochs_per_epoch(setup):
    """Reference for pipeline.synth_measurements: the geometry, one noise
    block and the records of one epoch at a time. Returns one (los, sbr)
    pair of record lists per epoch."""
    from mpnav.pipeline import _epoch_indices, _rng_streams
    from mpnav.scene import SceneArrays, trajectory_poses
    from mpnav.synth import synth_imu, synth_odo

    streams = _rng_streams(setup.seed)
    epoch_idx, _, n_samples = _epoch_indices(setup)
    times = np.arange(n_samples + 1) / setup.rates.imu_hz
    poses = trajectory_poses(setup.scenario.trajectory, times)
    # the IMU and odometer streams come first in the draw order
    biases = setup.imu_err.sample_biases(streams["imu"])
    synth_imu(poses, setup.imu_err, setup.rates.imu_hz, streams["imu"], biases=biases)
    synth_odo(poses, setup.rates.odo_hz, setup.odo_noise_std, streams["odo"])
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
        bi, _, _, _, _, ln, ud, ua, _ = arrays.specular_arrays(pose.p)
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
        noisy, body = apply_noise(
            clean, setup.noise, streams["obs"], los=np.arange(len(clean)) < n_los, body=body
        )
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
        epochs.append((los, sbr))
    return epochs


def _circle_poses(spec, times):
    cx, cy = (float(v) for v in spec["center_en_m"])
    r = float(spec["radius_m"])
    speed = float(spec["speed_mps"])
    z = float(spec.get("z_m", 0.0))
    phase = float(spec.get("phase_rad", 0.0))
    sign = 1.0 if spec.get("ccw", True) else -1.0
    if r <= 0.0 or speed < 0.0:
        raise GeometryError("circle trajectory needs radius_m > 0, speed_mps >= 0")
    rate = sign * speed / r
    poses = []
    for t in times:
        th = phase + rate * t
        p = np.array([cx + r * np.cos(th), cy + r * np.sin(th), z])
        v = speed * sign * np.array([-np.sin(th), np.cos(th), 0.0])
        yaw = np.arctan2(v[1], v[0]) if speed > 0 else phase + sign * np.pi / 2
        poses.append(Pose(t=t, p=p, v=v, att=np.array([0.0, 0.0, yaw])))
    return poses


def _waypoint_poses(spec, times):
    pts = np.asarray(spec["points_enu_m"], dtype=float)
    speed = float(spec["speed_mps"])
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 3:
        raise GeometryError("waypoints trajectory needs >= 2 ENU points")
    if speed <= 0.0:
        raise GeometryError("waypoints trajectory needs speed_mps > 0")
    seg = np.diff(pts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    if np.any(seg_len <= 0.0):
        raise GeometryError("waypoints must be distinct")
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    poses = []
    for t in times:
        dist = speed * t
        if dist >= cum[-1]:
            p = pts[-1].copy()
            u = seg[-1] / seg_len[-1]
            v = np.zeros(3)
        else:
            i = int(np.searchsorted(cum, dist, side="right")) - 1
            u = seg[i] / seg_len[i]
            p = pts[i] + (dist - cum[i]) * u
            v = speed * u
        az, el = angles_from_unit(u)
        poses.append(Pose(t=t, p=p, v=v, att=np.array([0.0, float(el), float(az)])))
    return poses


def _sample_poses(spec, times):
    ts = np.asarray(spec["t_s"], dtype=float)
    ps = np.asarray(spec["p_enu_m"], dtype=float)
    if ts.ndim != 1 or ts.size < 3 or ps.shape != (ts.size, 3):
        raise GeometryError("samples trajectory needs matching t_s, p_enu_m with >= 3 rows")
    if np.any(np.diff(ts) <= 0.0):
        raise GeometryError("sample times must be strictly increasing")
    if "v_enu_mps" in spec:
        vs = np.asarray(spec["v_enu_mps"], dtype=float)
    else:
        vs = np.gradient(ps, ts, axis=0)
    if "att_rpy_rad" in spec:
        atts = np.asarray(spec["att_rpy_rad"], dtype=float)
    else:
        az, el = angles_from_unit(np.where(np.linalg.norm(vs, axis=1, keepdims=True) > 1e-9, vs, [1.0, 0.0, 0.0]))
        atts = np.stack([np.zeros_like(az), el, np.unwrap(az)], axis=-1)
    if np.any(times < ts[0] - 1e-9) or np.any(times > ts[-1] + 1e-9):
        raise GeometryError("requested times fall outside the sample span")
    poses = []
    for t in times:
        p = np.array([np.interp(t, ts, ps[:, k]) for k in range(3)])
        v = np.array([np.interp(t, ts, vs[:, k]) for k in range(3)])
        att = np.array([np.interp(t, ts, atts[:, k]) for k in range(3)])
        poses.append(Pose(t=t, p=p, v=v, att=att))
    return poses


def trajectory_poses_per_sample(spec, times):
    """Reference for mpnav.scene.trajectory_poses: one Pose per requested
    time, in a list."""
    times = np.asarray(times, dtype=float)
    kind = spec.get("kind")
    if kind == "circle":
        return _circle_poses(spec, times)
    if kind == "waypoints":
        return _waypoint_poses(spec, times)
    if kind == "samples":
        return _sample_poses(spec, times)
    raise GeometryError(f"unknown trajectory kind {kind!r}")


def stack_poses(poses):
    """A list of Pose objects as one Trajectory of columns."""
    return Trajectory(
        np.array([po.t for po in poses]),
        np.stack([po.p for po in poses]),
        np.stack([po.v for po in poses]),
        np.stack([po.att for po in poses]),
    )


def synth_imu_per_sample(poses, err, rate, rng, biases=None):
    """Reference for mpnav.synth.synth_imu: a list of Pose objects in, a
    list of ImuSample objects out."""
    if len(poses) < 3:
        raise ValueError("need at least 3 trajectory samples")
    if biases is None:
        b_g, b_a = err.sample_biases(rng)
    else:
        b_g, b_a = (np.asarray(b, dtype=float) for b in biases)
    t = np.array([po.t for po in poses])
    vel = np.stack([po.v for po in poses])
    att = np.stack([po.att for po in poses])
    q = quat.from_euler(att[:, 0], att[:, 1], att[:, 2])
    dts = np.diff(t)[:, None]
    if np.any(dts <= 0):
        raise ValueError("pose times must be strictly increasing")
    rot = quat.to_rotvec(quat.multiply(quat.conjugate(q[:-1]), q[1:]))
    gyro = rot / dts
    dv = (vel[1:] - vel[:-1]) / dts - GRAVITY
    accel = quat.rotate(quat.conjugate(q[1:]), dv)
    sig_g = err.gyro_noise_density * math.sqrt(rate)
    sig_a = err.accel_noise_density * math.sqrt(rate)
    gyro = gyro + b_g + sig_g * rng.standard_normal(gyro.shape)
    accel = accel + b_a + sig_a * rng.standard_normal(accel.shape)
    return [
        ImuSample(t=float(t[k]), gyro=gyro[k], accel=accel[k])
        for k in range(len(poses) - 1)
    ]


def synth_odo_per_sample(poses, rate, noise_std, rng):
    """Reference for mpnav.synth.synth_odo: a list of OdoSample objects,
    one scalar draw each."""
    t = np.array([po.t for po in poses])
    times = np.arange(t[0], t[-1] + 0.5 / rate, 1.0 / rate)
    idx = np.clip(np.searchsorted(t, times - 1e-9), 0, len(poses) - 1)
    out = []
    for tt, i in zip(times, idx):
        speed = float(np.linalg.norm(poses[i].v))
        if noise_std > 0.0:
            speed += noise_std * float(rng.standard_normal())
        out.append(OdoSample(t=float(tt), speed=speed))
    return out


def double_bounces_per_path(stations, walls, ues):
    """Reference for SceneArrays.double_bounce_arrays: every two-bounce
    path of every UE position, (ue row, station, first wall, second wall,
    DoubleBouncePath), in that loop order."""
    return [
        (e, b, i, j, path)
        for e, ue in enumerate(ues)
        for b, bs in enumerate(stations)
        for i, w1 in enumerate(walls)
        for j, w2 in enumerate(walls)
        if i != j and (path := double_bounce_path(bs, ue, w1, w2)) is not None
    ]


def double_bounces_per_epoch(stations, walls, ue):
    """The columns synthesis takes of the two-bounce paths of every epoch:
    (epoch, station, length, u_dep, u_arr), one row per path."""
    found = double_bounces_per_path(stations, walls, ue)
    if not found:
        i, v = np.zeros(0, dtype=int), np.zeros((0, 3))
        return i, i, np.zeros(0), v, v
    e, b, _, _, paths = zip(*found)
    return (
        np.array(e),
        np.array(b),
        np.array([p.length for p in paths]),
        np.stack([p.u_dep for p in paths]),
        np.stack([p.u_arr for p in paths]),
    )


def synth_measurements_unchunked(setup):
    """Reference for mpnav.pipeline.synth_measurements: per-sample truth
    poses and sensor samples, then the radio records of all epochs in one
    pass with one noise block. The truth comes back stacked as a
    Trajectory."""
    from mpnav.pipeline import (
        MeasurementSet,
        SceneArrays,
        _epoch_indices,
        _offsets,
        _rng_streams,
    )
    from mpnav.synth import RadioRecords, outage_mask

    streams = _rng_streams(setup.seed)
    epoch_idx, _, n_samples = _epoch_indices(setup)
    times = np.arange(n_samples + 1) / setup.rates.imu_hz
    poses = trajectory_poses_per_sample(setup.scenario.trajectory, times)
    biases = setup.imu_err.sample_biases(streams["imu"])
    imu = synth_imu_per_sample(poses, setup.imu_err, setup.rates.imu_hz, streams["imu"], biases=biases)
    odo = synth_odo_per_sample(poses, setup.rates.odo_hz, setup.odo_noise_std, streams["odo"])
    walls = setup.scenario.walls
    stations = setup.scenario.base_stations
    arrays = SceneArrays(stations, walls)
    n_epochs = len(epoch_idx)
    ue = np.stack([poses[i].p for i in epoch_idx])
    att = np.stack([poses[i].att for i in epoch_idx])
    epoch_t = times[epoch_idx]
    q_conj = quat.conjugate(quat.from_euler(att[:, 0], att[:, 1], att[:, 2]))
    # direct paths of the visible stations, epoch-major then station
    le, lb = np.nonzero(arrays.los_mask(ue))
    d_vec = ue[le] - arrays.bs_p[lb]
    # row norms summed as np.linalg.norm sums one vector
    d = np.sqrt((d_vec[:, None, :] @ d_vec[:, :, None])[:, 0, 0])
    if np.any(d <= 0.0):
        raise ValueError("UE and BS positions coincide")
    # reflected paths: single bounces station-major then wall, doubles last
    rb, _, _, _, _, ln, ud, ua, re = arrays.specular_arrays(ue)
    bounces = np.ones(rb.size, dtype=int)
    if setup.include_double_bounce:
        de, db, dln, dud, dua = double_bounces_per_epoch(stations, walls, ue)
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
    drawn, body = apply_noise(clean[order], setup.noise, streams["obs"], los=is_los, body=body)
    noisy = np.empty_like(clean)
    noisy[order] = drawn
    rss = setup.path_loss.rss(
        np.concatenate([d, ln]), bounces=np.concatenate([np.zeros(n_los, dtype=int), bounces])
    )
    keep = ~outage_mask(epoch_t, setup.outages)[le]
    los = RadioRecords(
        off=_offsets(le[keep], n_epochs),
        bs=lb[keep],
        obs=noisy[:n_los][keep],
        rss=rss[:n_los][keep],
    )
    sbr = RadioRecords(
        off=_offsets(re, n_epochs),
        bs=rb,
        obs=noisy[n_los:],
        rss=rss[n_los:],
        bounces=bounces,
        body=body,
    )
    return MeasurementSet(
        truth=stack_poses(poses),
        bs_ids=tuple(bs.id for bs in stations),
        epoch_idx=epoch_idx,
        epoch_t=epoch_t,
        imu_t=np.array([s.t for s in imu]),
        gyro=np.stack([s.gyro for s in imu]),
        accel=np.stack([s.accel for s in imu]),
        odo_t=np.array([o.t for o in odo]),
        odo_v=np.array([o.speed for o in odo]),
        los=los,
        sbr=sbr,
        truth_biases=biases,
    )


def epoch_records(ms):
    """One (los, sbr) pair of record lists per epoch of an array measurement
    set, the records as LosObs and SbrObs."""
    out = []
    for e, t in enumerate(ms.epoch_t.tolist()):
        lo = slice(ms.los.off[e], ms.los.off[e + 1])
        so = slice(ms.sbr.off[e], ms.sbr.off[e + 1])
        cols = zip(ms.los.bs[lo].tolist(), ms.los.obs[lo].tolist(), ms.los.rss[lo].tolist())
        los = [LosObs(ms.bs_ids[b], t, *o, r) for b, o, r in cols]
        sbr = [
            SbrObs(ms.bs_ids[b], t, *o, r, nb, *bb)
            for b, o, r, nb, bb in zip(
                ms.sbr.bs[so].tolist(),
                ms.sbr.obs[so].tolist(),
                ms.sbr.rss[so].tolist(),
                ms.sbr.bounces[so].tolist(),
                ms.sbr.body[so].tolist(),
            )
        ]
        out.append((los, sbr))
    return out


def log_records(ms):
    """Log records of a measurement set in log order: IMU, odometer, then
    per epoch its LoS and SBR records."""
    records = [
        ImuSample(t=t, gyro=g, accel=a) for t, g, a in zip(ms.imu_t.tolist(), ms.gyro, ms.accel)
    ]
    records += [OdoSample(t=t, speed=v) for t, v in zip(ms.odo_t.tolist(), ms.odo_v.tolist())]
    for los, sbr in epoch_records(ms):
        records += los + sbr
    return records


def record_to_dict(rec) -> dict:
    if isinstance(rec, LosObs):
        return {
            "kind": "los",
            "bs_id": rec.bs_id,
            "t_s": rec.t,
            "rtt_s": rec.rtt,
            "aod_az_rad": rec.aod_az,
            "aod_el_rad": rec.aod_el,
            "aoa_az_rad": rec.aoa_az,
            "aoa_el_rad": rec.aoa_el,
            "rss_dbm": rec.rss,
        }
    if isinstance(rec, SbrObs):
        return {
            "kind": "sbr",
            "bs_id": rec.bs_id,
            "t_s": rec.t,
            "toa_s": rec.toa,
            "aod_az_rad": rec.aod_az,
            "aod_el_rad": rec.aod_el,
            "aoa_az_rad": rec.aoa_az,
            "aoa_el_rad": rec.aoa_el,
            "rss_dbm": rec.rss,
            "truth_bounces": rec.truth_bounces,
            "aoa_az_body_rad": rec.aoa_az_body,
            "aoa_el_body_rad": rec.aoa_el_body,
        }
    if isinstance(rec, ImuSample):
        return {
            "kind": "imu",
            "t_s": rec.t,
            "gyro_rps": [float(x) for x in rec.gyro],
            "accel_mps2": [float(x) for x in rec.accel],
        }
    if isinstance(rec, OdoSample):
        return {"kind": "odo", "t_s": rec.t, "speed_mps": rec.speed}
    raise TypeError(f"unknown record type {type(rec).__name__}")


def write_log_json(path, records) -> None:
    """Reference for write_measurement_log: one json.dumps per record."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(record_to_dict(rec), sort_keys=True))
            f.write("\n")


def _vec3(d: dict, key: str) -> np.ndarray:
    v = np.asarray(d[key], dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{key} must hold three numbers")
    return v


def _record_from_dict(d: dict):
    if not isinstance(d, dict):
        raise ValueError("record is not a JSON object")
    kind = d.get("kind")
    if kind == "los":
        return LosObs(
            bs_id=str(d["bs_id"]),
            t=float(d["t_s"]),
            rtt=float(d["rtt_s"]),
            aod_az=float(d["aod_az_rad"]),
            aod_el=float(d["aod_el_rad"]),
            aoa_az=float(d["aoa_az_rad"]),
            aoa_el=float(d["aoa_el_rad"]),
            rss=float(d["rss_dbm"]),
        )
    if kind == "sbr":
        return SbrObs(
            bs_id=str(d["bs_id"]),
            t=float(d["t_s"]),
            toa=float(d["toa_s"]),
            aod_az=float(d["aod_az_rad"]),
            aod_el=float(d["aod_el_rad"]),
            aoa_az=float(d["aoa_az_rad"]),
            aoa_el=float(d["aoa_el_rad"]),
            rss=float(d["rss_dbm"]),
            truth_bounces=int(d.get("truth_bounces", 1)),
            aoa_az_body=float(d.get("aoa_az_body_rad", 0.0)),
            aoa_el_body=float(d.get("aoa_el_body_rad", 0.0)),
        )
    if kind == "imu":
        return ImuSample(t=float(d["t_s"]), gyro=_vec3(d, "gyro_rps"), accel=_vec3(d, "accel_mps2"))
    if kind == "odo":
        return OdoSample(t=float(d["t_s"]), speed=float(d["speed_mps"]))
    raise ValueError(f"unknown record kind {kind!r}")


# per record kind: the log key of each number and a function returning the
# record's numbers in that order, for the finiteness check of a log read
_NUMBERS = {
    "los": (
        ("t_s", "rtt_s", "aod_az_rad", "aod_el_rad", "aoa_az_rad", "aoa_el_rad", "rss_dbm"),
        attrgetter("t", "rtt", "aod_az", "aod_el", "aoa_az", "aoa_el", "rss"),
    ),
    "sbr": (
        ("t_s", "toa_s", "aod_az_rad", "aod_el_rad", "aoa_az_rad", "aoa_el_rad", "rss_dbm")
        + ("aoa_az_body_rad", "aoa_el_body_rad"),
        attrgetter(
            "t", "toa", "aod_az", "aod_el", "aoa_az", "aoa_el", "rss", "aoa_az_body", "aoa_el_body"
        ),
    ),
    "imu": (("t_s",) + ("gyro_rps",) * 3 + ("accel_mps2",) * 3, lambda r: (r.t, *r.gyro, *r.accel)),
    "odo": (("t_s", "speed_mps"), attrgetter("t", "speed")),
}


def read_measurement_log_per_record(path) -> dict:
    """Reference for mpnav.synth.read_measurement_log: parse a log into
    {'los': [...], 'sbr': [...], 'imu': [...], 'odo': [...]} record objects
    (LosObs, SbrObs, ImuSample, OdoSample), preserving file order.

    Raises ValueError naming the 1-based line of the first record that is
    not a JSON object, has an unknown kind, lacks a key, holds a value that
    is not a number (or three, for IMU vectors) where one belongs, or holds
    a number that is not finite."""
    out = {"los": [], "sbr": [], "imu": [], "odo": []}
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                rec = _record_from_dict(d)
                keys, numbers = _NUMBERS[d["kind"]]
                values = numbers(rec)
                if not all(map(math.isfinite, values)):
                    bad = next(k for k, x in zip(keys, values) if not math.isfinite(x))
                    raise ValueError(f"{bad} is not finite")
            except KeyError as exc:
                raise ValueError(f"line {n}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {n}: {exc}") from exc
            out[d["kind"]].append(rec)
    return out


def log_columns(records: dict) -> dict:
    """The reader's form (one mpnav.synth.LogColumns per kind) of per-record
    log objects, {'imu', 'odo', 'los', 'sbr'} lists as from
    read_measurement_log_per_record; station indices in first-seen order,
    LoS records before SBR records."""
    station = {}
    out = {}
    for kind in ("imu", "odo", "los", "sbr"):
        recs = records[kind]
        keys, numbers = _NUMBERS[kind]
        values = np.array([numbers(r) for r in recs], dtype=float).reshape(-1, len(keys))
        out[kind] = LogColumns(values)
        if kind in ("los", "sbr"):
            bs = [station.setdefault(r.bs_id, len(station)) for r in recs]
            out[kind].bs = np.array(bs, dtype=np.int64)
    for kind in ("los", "sbr"):
        out[kind].ids = tuple(station)
    out["sbr"].bounces = np.array([r.truth_bounces for r in records["sbr"]], dtype=np.int64)
    return out


def radio_columns_per_row(cols, setup, kind):
    """Reference for the radio columns of
    mpnav.pipeline.measurement_set_from_records: each row of cols (the log
    reader's LogColumns of kind 'los' or 'sbr') looked up on the epoch grid
    by its own rounded time, and the kept rows (on the grid; for LoS, at an
    epoch outside setup.outages) gathered in a stable sort by epoch, every
    column a copy. Returns a RadioRecords."""
    from mpnav.pipeline import _epoch_indices
    from mpnav.synth import RadioRecords, outage_mask

    epoch_idx = _epoch_indices(setup)[0]
    epoch_t = epoch_idx / setup.rates.imu_hz
    epoch_of_t = {round(t, 6): e for e, t in enumerate(epoch_t.tolist())}
    epochs = np.array(
        [epoch_of_t.get(round(t, 6), -1) for t in cols.values[:, 0].tolist()], dtype=int
    )
    if kind == "los":
        blocked = outage_mask(epoch_t, setup.outages)
        epochs[blocked[epochs] & (epochs >= 0)] = -1
    on_grid = np.flatnonzero(epochs >= 0)
    rows = on_grid[np.argsort(epochs[on_grid], kind="stable")]
    station = {bs.id: b for b, bs in enumerate(setup.scenario.base_stations)}
    lookup = np.array([station[i] for i in cols.ids], dtype=int)
    counts = np.bincount(epochs[rows], minlength=len(epoch_t))
    out = RadioRecords(
        off=np.concatenate([[0], np.cumsum(counts)]),
        bs=lookup[cols.bs[rows]],
        obs=cols.values[rows, 1:6],
        rss=cols.values[rows, 6],
    )
    if kind == "sbr":
        out.bounces = cols.bounces[rows]
        out.body = cols.values[rows, 7:9]
    return out


def run_filter_per_record(ms, epochs, setup):
    """Reference for pipeline.run_filter: the gated estimation loop over
    per-epoch record lists (epochs as from epoch_records), one LoS record
    at a time. Returns (p_est, counters)."""
    from mpnav.fixes import los_fix, sbr_fix
    from mpnav.fusion import predict, process_noise, update_position, update_position_yaw
    from mpnav.gates import classify_los, motion_gate
    from mpnav.pipeline import R_FLOOR_M2, _init_filter, _rng_streams

    bs_by_id = {bs.id: bs for bs in setup.scenario.base_stations}
    fs = _init_filter(setup, ms.truth, _rng_streams(setup.seed)["init"])
    Q = process_noise(setup.imu_err.accel_noise_density, setup.imu_err.gyro_noise_density)
    dts = np.diff(ms.truth.t)
    odo_t, odo_v = ms.odo_t, ms.odo_v
    dt_obs = 1.0 / setup.rates.obs_hz
    counters = dict.fromkeys(
        (
            "los_total",
            "los_admitted",
            "los_rejected_consistency",
            "los_rejected_motion",
            "los_nis_skipped",
            "sbr_total",
            "sbr_admitted",
            "sbr_rejected_elevation",
            "sbr_rejected_residual",
            "sbr_fix_failed",
            "sbr_fix_rejected_motion",
            "sbr_nis_skipped",
            "sbr_updates",
        ),
        0,
    )
    p_est = np.empty((len(epochs), 3))
    last_accept_p = fs.p.copy()
    travel_budget = 0.0
    prev_idx = 0
    for e_i, (idx, t, (epoch_los, epoch_sbr)) in enumerate(
        zip(ms.epoch_idx.tolist(), ms.epoch_t.tolist(), epochs)
    ):
        fs = predict(
            fs,
            ms.gyro[prev_idx:idx],
            ms.accel[prev_idx:idx],
            dts[prev_idx:idx],
            setup.ukf,
            Q,
        )
        prev_idx = idx
        # the latest odometer sample at or before the epoch, else the first
        j = max(int(np.searchsorted(odo_t, t + 1e-9, side="right")) - 1, 0)
        travel_budget += abs(odo_v[j]) * dt_obs

        accepted_any = False
        for obs in epoch_los:
            counters["los_total"] += 1
            if not classify_los(obs.rtt, obs.rss, setup.path_loss, setup.gate_cfg):
                counters["los_rejected_consistency"] += 1
                continue
            fix = los_fix(
                *los_columns(bs_by_id[obs.bs_id], obs),
                setup.noise.var_range_m2,
                setup.noise.var_angle_deg2,
            )
            if not motion_gate(fix.p, last_accept_p, travel_budget, setup.gate_cfg):
                counters["los_rejected_motion"] += 1
                continue
            counters["los_admitted"] += 1
            r_mat = fix.cov + R_FLOOR_M2 * np.eye(3)
            fs, info = update_position(fs, fix.p, r_mat, setup.ukf)
            if info.accepted:
                accepted_any = True
            else:
                counters["los_nis_skipped"] += 1

        if setup.with_sbr:
            counters["sbr_total"] += len(epoch_sbr)
        if setup.with_sbr and len(epoch_sbr) >= 2:
            admitted, counts = sbr_screen_per_record(epoch_sbr, bs_by_id, fs.q_bn, fs.p, setup)
            for key, n in counts.items():
                counters[key] += n
            if len(admitted) >= 2:
                fix = sbr_fix(
                    *sbr_columns(admitted),
                    setup.noise.var_range_m2,
                    setup.noise.var_angle_deg2,
                    var_aoa_extra_rad2=(
                        0.5 * float(fs.P[6, 6] + fs.P[7, 7]) if setup.use_body_aoa else 0.0
                    ),
                    estimate_yaw=setup.use_body_aoa and len(admitted) >= 3,
                )
                if fix is None:
                    counters["sbr_fix_failed"] += 1
                elif not motion_gate(fix.p, last_accept_p, travel_budget, setup.gate_cfg):
                    counters["sbr_fix_rejected_motion"] += 1
                else:
                    if fix.yaw is not None:
                        r4 = fix.cov + np.diag([R_FLOOR_M2] * 3 + [1e-8])
                        fs, info = update_position_yaw(fs, fix, r4, setup.ukf)
                    else:
                        r_mat = fix.cov + R_FLOOR_M2 * np.eye(3)
                        fs, info = update_position(fs, fix.p, r_mat, setup.ukf)
                    if info.accepted:
                        accepted_any = True
                        counters["sbr_updates"] += 1
                    else:
                        counters["sbr_nis_skipped"] += 1

        if accepted_any:
            last_accept_p = fs.p.copy()
            travel_budget = 0.0
        p_est[e_i] = fs.p
    return p_est, counters
