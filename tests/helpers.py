"""Shared scene generators and reference implementations for the test suite.

Rejection-samples random worlds until the requested propagation geometry
exists; all randomness flows through a caller-provided Generator so every
test controls its own seed. The references are the plain per-path,
per-sample and per-record forms that the batched program code must
reproduce: sbr_fix_svd (the dense-SVD reflection solver behind
mpnav.fixes.sbr_fix), mechanize_per_sample (behind
mpnav.ins.mechanize_arrays), apply_noise_per_record (behind
mpnav.synth.apply_noise) and sbr_screen_per_record (the reflected-path
screen of mpnav.pipeline.run_filter).
"""

import math
from dataclasses import replace

import numpy as np

from mpnav import quat
from mpnav.fixes import Fix, _angle_std_rad, _unit_jacobian
from mpnav.ins import GRAVITY
from mpnav.scene import (
    SPEED_OF_LIGHT,
    BaseStation,
    Wall,
    angles_from_unit,
    double_bounce_path,
    specular_path,
    unit_from_angles,
)
from mpnav.synth import LosObs, SbrObs, apply_noise


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
    The estimate and its variance land in Fix.yaw / Fix.yaw_var so a fusion
    filter can correct heading from the same measurements. Needs K >= 3 for
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
    t_obs = pairs[0][1].t
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
    path_residuals = [float(np.linalg.norm(r[3 * k : 3 * k + 3])) for k in range(K)]

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
    cov = (j_p * sig2) @ j_p.T
    fix = Fix(
        t=t_obs,
        p=p,
        cov=cov,
        residual=residual,
        source="sbr",
        n_paths=K,
        path_residuals=path_residuals,
    )
    if estimate_yaw:
        j_psi = j_all[3 + K]
        fix.yaw = psi
        fix.yaw_var = float((j_psi * sig2) @ j_psi)
        fix.yaw_pos_cov = (j_p * sig2) @ j_psi
    return fix


def mechanize_step(p, v, q, b_g, b_a, gyro, accel, dt, trapezoid=True):
    """One mechanization step on stacked states; broadcasts over leading axes.

    Attitude first (exponential map of the compensated rate), then velocity
    with the new attitude, then position; trapezoidal position integration by
    default, rectangular (new velocity) otherwise.
    """
    dq = quat.from_rotvec((gyro - b_g) * dt)
    q_new = quat.normalize(quat.multiply(q, dq))
    a_nav = quat.rotate(q_new, accel - b_a) + GRAVITY
    v_new = v + a_nav * dt
    if trapezoid:
        p_new = p + 0.5 * (v + v_new) * dt
    else:
        p_new = p + v_new * dt
    return p_new, v_new, q_new


def mechanize_per_sample(p, v, q, b_g, b_a, gyros, accels, dts, trapezoid=True):
    """Reference for mechanize_arrays: one mechanize_step per IMU sample,
    states stacked per sample along a new leading axis."""
    out = []
    for k in range(len(dts)):
        p, v, q = mechanize_step(p, v, q, b_g, b_a, gyros[k], accels[k], dts[k], trapezoid)
        out.append((p, v, q))
    return tuple(np.stack(x) for x in zip(*out))


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
        np.reshape(obs, (-1, 5)), cfg, rng, n_los=n_los, body=np.reshape(body, (-1, 2))
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
    select one record at a time. Returns (pairs, counts) like screen_sbr."""
    from mpnav.fixes import sbr_locus_residual

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
    if setup.max_sbr_paths and len(admitted) > setup.max_sbr_paths:
        admitted = sorted(admitted, key=lambda bo: -bo[1].rss)[: setup.max_sbr_paths]
    return admitted, counts
