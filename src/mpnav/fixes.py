"""Geometric position solvers.

Direct-path fix from RTT plus departure angles; joint multi-path fix over
two or more validated single-bounce observations via linear least squares;
and the locus residuals that score reflected paths against a predicted
position. Observations arrive as arrays with one row per path.

The single-bounce measurement equation: with departure direction u_dep,
arrival direction u_arr (UE toward the bounce), total length L and unknown
first-leg length leg, the UE position satisfies

    p = bs + leg * u_dep - (L - leg) * u_arr
      = (bs - L * u_arr) + leg * (u_dep + u_arr)

One path therefore pins p to a line segment (leg in [0, L]); two or more
paths make the joint system overdetermined in (p, leg_1..leg_K). Each leg
enters its own path's equations only, so the joint fix eliminates the legs
and solves a 3x3 normal system in p (4x4 with a yaw unknown).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scene import SPEED_OF_LIGHT, unit_from_angles

# Largest eigenvalue ratio of a reduced normal matrix that still yields a
# fix. It bounds the squared singular-value ratio of the reduced system; the
# square root of this ratio under the same bound passes same-wall pairs.
COND_MAX = 1e8


@dataclass
class Fix:
    """One position solution handed to the fusion filter."""

    p: np.ndarray
    cov: np.ndarray  # over every unknown: p (3x3, m^2), or (p, yaw) (4x4) with a yaw
    residual: float  # RMS equation misfit, m
    n_paths: int = 1
    path_residuals: list = field(default_factory=list)
    # present when the solver co-estimated a nav-frame yaw misalignment of
    # the attitude used to globalize body-frame arrival angles
    yaw: float | None = None


def _angle_std_rad(var_angle_deg2: float) -> float:
    return math.radians(math.sqrt(var_angle_deg2))


def _unit_jacobian(az, el):
    """Columns d(unit)/d(az), d(unit)/d(el); broadcasts over angle arrays,
    each column shaped (..., 3)."""
    ca, sa = np.cos(az), np.sin(az)
    ce, se = np.cos(el), np.sin(el)
    j_az = np.stack([-ce * sa, ce * ca, np.zeros_like(ca)], axis=-1)
    j_el = np.stack([-se * ca, -se * sa, ce], axis=-1)
    return j_az, j_el


def los_fix(bs_p, obs, var_range_m2: float = 0.0, var_angle_deg2: float = 0.0) -> Fix:
    """Position from direct-path observations: range out of the RTT,
    direction out of the departure angles, first-order covariance from the
    declared measurement variances.

    bs_p: station positions (n, 3); obs: observation rows (n, >= 3) whose
    first columns are [rtt_s, aod_az, aod_el], rtt the two-way travel time.
    The fix holds n positions (n, 3) and covariances (n, 3, 3); one station
    (3,) with one row gives one position (3,) and covariance (3, 3).
    """
    obs = np.asarray(obs, dtype=float)
    d = SPEED_OF_LIGHT * obs[..., 0] / 2.0
    if np.any(d <= 0.0):
        raise ValueError("non-positive range")
    aod_az, aod_el = obs[..., 1], obs[..., 2]
    u = unit_from_angles(aod_az, aod_el)
    p = bs_p + d[..., None] * u
    sig_a = _angle_std_rad(var_angle_deg2)
    j_az, j_el = _unit_jacobian(aod_az, aod_el)
    # float_power rounds as C pow does; squaring by multiplication (what **
    # and np.power do for an exponent of 2) differs in the last bit for
    # about one value in a thousand
    s2 = np.float_power(sig_a * d, 2)[..., None, None]
    cov = var_range_m2 * _outer(u) + s2 * (_outer(j_az) + _outer(j_el))
    return Fix(p=p, cov=cov, residual=0.0)


def _outer(u):
    """Outer product of each vector with itself, broadcasting: (..., 3, 3)."""
    return u[..., :, None] * u[..., None, :]


def _normal_inverse(N: np.ndarray):
    """Inverse of a symmetric normal matrix, or None when it is singular or
    its eigenvalue ratio exceeds COND_MAX. The inverse comes from LU, not
    from the eigenvectors: the yaw column is ~L times the position columns,
    and LU keeps that scaling out of the error."""
    lam = np.linalg.eigvalsh(N)
    if lam[0] <= 0.0 or lam[-1] > COND_MAX * lam[0]:
        return None
    return np.linalg.inv(N)


def sbr_fix(
    bs_p,
    obs,
    var_range_m2: float = 0.0,
    var_angle_deg2: float = 0.0,
    var_aoa_extra_rad2: float = 0.0,
    estimate_yaw: bool = False,
):
    """Joint fix over K >= 2 single-bounce paths.

    bs_p: the K stations' positions (K, 3); obs: the K paths' rows (K, 5)
    [toa_s, aod_az, aod_el, aoa_az, aoa_el], toa one-way and the arrival
    angles on global axes. Unknowns are (p, leg_1..leg_K);
    each path contributes the three equations
        p - leg_k * d_k = y_k,  d_k = u_dep_k + u_arr_k,  y_k = bs_k - L_k * u_arr_k.
    leg_k appears in its own path only, so projecting with
    P_k = I - d_k d_k^T / |d_k|^2 eliminates it and leaves the 3x3 normal
    system (sum_k P_k) p = sum_k P_k y_k; each leg then follows by a dot
    product, leg_k = d_k . (p - y_k) / |d_k|^2 (variable projection).
    Returns None instead of a wrong answer when the normal matrix is
    singular or its eigenvalue ratio exceeds COND_MAX, or when any recovered
    first leg falls outside [0, L_k].

    A first unit-weight pass gives reference legs; the second pass scales
    each path by its expected noise (longer legs amplify angle noise), which
    matters when path lengths vary a lot.

    estimate_yaw appends one unknown: a common nav-frame yaw misalignment of
    the attitude that globalized the arrival angles. Its column per path is
    (L_k - leg_k) * (z_hat x u_arr_k), linearized at first-pass leg values,
    which makes the second pass 4x4. The estimate lands in Fix.yaw and
    Fix.cov spans (p, yaw), so a fusion filter can correct heading from the
    same measurements. Needs K >= 3 for vertical-wall paths: u_dep + u_arr
    and the yaw column are then all horizontal, and the K=2 horizontal
    subsystem has more unknowns than equations, so the condition check
    reports no fix.

    Covariance comes from first-order propagation of the declared range and
    angle variances through the same reduced system; var_aoa_extra_rad2 adds
    attitude uncertainty to the arrival angles beyond what estimate_yaw
    models.
    """
    K = len(bs_p)
    if K < 2:
        raise ValueError("joint fix needs at least two paths")
    toa, aod_az, aod_el, aoa_az, aoa_el = np.asarray(obs, dtype=float).T
    lengths = SPEED_OF_LIGHT * toa
    u_dep = unit_from_angles(aod_az, aod_el)
    u_arr = unit_from_angles(aoa_az, aoa_el)
    d = u_dep + u_arr
    y = bs_p - lengths[:, None] * u_arr
    dd = np.einsum("ki,ki->k", d, d)
    if np.any(dd <= 0.0):
        return None
    proj = np.eye(3) - d[:, :, None] * d[:, None, :] / dd[:, None, None]

    # first pass: unit weights, position only
    n_inv = _normal_inverse(proj.sum(axis=0))
    if n_inv is None:
        return None
    p0 = n_inv @ np.einsum("kij,kj->i", proj, y)
    legs_ref = np.clip(np.einsum("ki,ki->k", p0 - y, d) / dd, 0.0, lengths)

    # second pass: noise-scaled paths, optional shared yaw column; the
    # per-path unknowns are B_k theta with B_k = [I | c_k]
    va = _angle_std_rad(var_angle_deg2) ** 2
    va_arr = va + var_aoa_extra_rad2
    s2 = var_range_m2 + va * legs_ref**2 + va_arr * (lengths - legs_ref) ** 2
    w = 1.0 / np.sqrt(np.maximum(s2, 1e-12))
    w /= w.max()
    zxu = np.stack([-u_arr[:, 1], u_arr[:, 0], np.zeros(K)], axis=1)
    B = np.zeros((K, 3, 4 if estimate_yaw else 3))
    B[:, :, :3] = np.eye(3)
    if estimate_yaw:
        B[:, :, 3] = (lengths - legs_ref)[:, None] * zxu
    wbp = (w**2)[:, None, None] * np.einsum("kia,kij->kaj", B, proj)
    n_inv = _normal_inverse(np.einsum("kaj,kjb->ab", wbp, B))
    if n_inv is None:
        return None
    theta = n_inv @ np.einsum("kaj,kj->a", wbp, y)
    p = theta[:3]
    psi = float(theta[3]) if estimate_yaw else None
    legs = np.einsum("ki,ki->k", B @ theta - y, d) / dd
    tol = 1e-9 * np.maximum(1.0, lengths)
    if np.any(legs < -tol) or np.any(legs > lengths + tol):
        return None
    # unweighted equation misfit, with the yaw term included when estimated
    r = p - legs[:, None] * d - y
    if estimate_yaw:
        r += psi * (lengths - legs)[:, None] * zxu
    residual = float(np.sqrt(np.mean(r**2)))
    path_residuals = np.linalg.norm(r, axis=1).tolist()

    # First-order sensitivity: the reduced system maps each path's equation
    # perturbation dy_k - dA_k x onto theta; columns per path are the inputs
    # [L_k, aod_az_k, aod_el_k, aoa_az_k, aoa_el_k].
    jd_az, jd_el = _unit_jacobian(aod_az, aod_el)
    ja_az, ja_el = _unit_jacobian(aoa_az, aoa_el)
    rhs = np.stack(
        [
            -u_arr,
            legs[:, None] * jd_az,
            legs[:, None] * jd_el,
            (legs - lengths)[:, None] * ja_az,
            (legs - lengths)[:, None] * ja_el,
        ],
        axis=2,
    )
    j_all = np.einsum("ab,kbj,kjc->kac", n_inv, wbp, rhs)
    sig2 = np.array([var_range_m2, va, va, va_arr, va_arr])
    j_p = j_all[:, :3]
    cov = np.zeros((len(theta), len(theta)))
    cov[:3, :3] = np.einsum("kic,c,kjc->ij", j_p, sig2, j_p)
    if estimate_yaw:
        j_psi = j_all[:, 3]
        cov[3, 3] = np.einsum("kc,c,kc->", j_psi, sig2, j_psi)
        cov[:3, 3] = cov[3, :3] = np.einsum("kic,c,kc->i", j_p, sig2, j_psi)
    return Fix(p=p, cov=cov, residual=residual, n_paths=K, path_residuals=path_residuals, yaw=psi)


def sbr_locus_residuals(bs_positions, lengths, u_deps, u_arrs, ref_p) -> np.ndarray:
    """Distance from ref_p to each of K paths' solution segments (arrays
    shaped (K, 3) / (K,)).

    Zero (up to noise) for a genuine single bounce when ref_p is near the
    true position; order of the middle-leg length for higher-order bounces,
    which is what makes the residual usable as a bounce-count discriminator.
    """
    ref_p = np.asarray(ref_p, dtype=float)
    base = bs_positions - lengths[:, None] * u_arrs
    direction = u_deps + u_arrs
    dd = np.einsum("ij,ij->i", direction, direction)
    num = np.einsum("ij,ij->i", ref_p - base, direction)
    leg = np.clip(np.divide(num, dd, out=np.zeros_like(num), where=dd > 0.0), 0.0, lengths)
    closest = base + leg[:, None] * direction
    return np.linalg.norm(ref_p - closest, axis=1)
