"""Error-state unscented Kalman filter.

Prediction pushes sigma points of the 15-dimensional error state
[dp, dv, dtheta, db_g, db_a] through the strapdown mechanization, each point
carrying its own bias hypothesis; the attitude error is a body-frame rotation
vector injected as q <- q * exp(dtheta), which keeps quaternions out of the
covariance algebra. Updates are position (and yaw) fixes, linear in the
error state: closed-form Kalman steps behind an innovation gate.

The covariance tracks delta = true (-) estimate, i.e. truth = estimate (+)
delta with p/v/bias addition and quaternion right-multiplication for
attitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import quat
from .ins import mechanize_arrays

# chi2.ppf(0.999, 3), written out so that importing the filter does not load
# scipy.stats (about a second and 70 MB)
NIS_GATE_999_DOF3 = 16.26623619623813

N_ERR = 15
_SL = {
    "p": slice(0, 3),
    "v": slice(3, 6),
    "att": slice(6, 9),
    "bg": slice(9, 12),
    "ba": slice(12, 15),
}


class NumericError(RuntimeError):
    """Covariance corruption or another unrecoverable numeric failure."""


@dataclass(frozen=True)
class UkfParams:
    """Sigma-point scaling of the prediction step and the NIS gate of the
    updates. Frozen, so that the prediction constants derived from the
    fields on first use cannot go stale."""

    alpha: float = 0.5
    beta: float = 2.0
    kappa: float = 0.0
    nis_gate: float = NIS_GATE_999_DOF3

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        # the sigma-point spread alpha^2 (n + kappa) must stay positive
        if not self.kappa > -N_ERR:
            raise ValueError(f"kappa must be > -{N_ERR}")
        if not self.nis_gate > 0.0:
            raise ValueError("nis_gate must be > 0")

    @cached_property
    def _predict_constants(self):
        """(n + lambda, wm, wc) of a prediction step over the error state,
        the weights read-only; built once per parameter set, on first use."""
        n_lam, wm, wc = _ut_weights(N_ERR, self.alpha, self.beta, self.kappa)
        wm.flags.writeable = wc.flags.writeable = False
        return n_lam, wm, wc


def process_noise(accel_noise_density: float, gyro_noise_density: float) -> np.ndarray:
    """Continuous-time process noise of the error state from the IMU's
    white-noise densities: their squares ((m/s^2)^2/Hz, (rad/s)^2/Hz) on
    velocity and attitude, zero on position (integrated from velocity) and
    on the biases (run constants)."""
    q = np.zeros(N_ERR)
    q[_SL["v"]] = accel_noise_density**2
    q[_SL["att"]] = gyro_noise_density**2
    return np.diag(q)


@dataclass
class FilterState:
    """Nominal state plus error-state covariance (15x15, ordering
    [dp, dv, dtheta, db_g, db_a]), as float arrays: p, v, b_g, b_a (3,),
    q_bn (4,). min_eig is the smallest eigenvalue of P when the step that
    made P computed it, else None. Every step returns a new state; none
    changes one in place."""

    t: float
    p: np.ndarray
    v: np.ndarray
    q_bn: np.ndarray
    b_g: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b_a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    P: np.ndarray = field(default_factory=lambda: np.eye(N_ERR))
    min_eig: float | None = None

    def error_vector(self, p, v, q_bn, b_g, b_a) -> np.ndarray:
        """delta = true (-) estimate against a reference truth; pairs with P
        for consistency statistics."""
        e = np.empty(N_ERR)
        e[_SL["p"]] = p - self.p
        e[_SL["v"]] = v - self.v
        e[_SL["att"]] = quat.to_rotvec(quat.multiply(quat.conjugate(self.q_bn), q_bn))
        e[_SL["bg"]] = b_g - self.b_g
        e[_SL["ba"]] = b_a - self.b_a
        return e


@dataclass
class UpdateInfo:
    nis: float
    accepted: bool


def _ut_weights(n: int, alpha: float, beta: float, kappa: float):
    """n + lambda and the (mean, cov) weights of the scaled unscented
    transform over n dimensions."""
    lam = alpha**2 * (n + kappa) - n
    wm = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
    wc = wm.copy()
    wm[0] = lam / (n + lam)
    wc[0] = wm[0] + 1.0 - alpha**2 + beta
    return n + lam, wm, wc


def _points(mean: np.ndarray, P, n_lam: float) -> np.ndarray:
    """The 2n+1 sigma points: mean, then mean +- the columns of the
    Cholesky factor of (n + lambda) P. Raises numpy.linalg.LinAlgError when
    P has lost positive definiteness."""
    n = mean.size
    root = np.linalg.cholesky(n_lam * P)
    pts = np.empty((2 * n + 1, n))
    pts[0] = mean
    pts[1 : n + 1] = mean + root.T
    pts[n + 1 :] = mean - root.T
    return pts


def _inject(fs: FilterState, dx: np.ndarray):
    """Apply error-state points/corrections to the nominal state; dx may be
    a single 15-vector or a stack (m, 15)."""
    p = fs.p + dx[..., _SL["p"]]
    v = fs.v + dx[..., _SL["v"]]
    q = quat.normalize(quat.multiply(fs.q_bn, quat.from_rotvec(dx[..., _SL["att"]])))
    bg = fs.b_g + dx[..., _SL["bg"]]
    ba = fs.b_a + dx[..., _SL["ba"]]
    return p, v, q, bg, ba


def _finalize_cov(P: np.ndarray):
    """Re-symmetrize; floor sub-tolerance negative eigenvalues (an artifact of
    negative center weights in the scaled transform); fail below -1e-6.
    Returns (P, smallest eigenvalue of P)."""
    P = 0.5 * (P + P.T)
    eigmin = float(np.linalg.eigvalsh(P)[0])
    if eigmin < -1e-6:
        raise NumericError(f"covariance indefinite (min eigenvalue {eigmin:.3e})")
    if eigmin < 1e-12:
        P = P + (1e-12 - min(eigmin, 0.0)) * np.eye(P.shape[0])
        eigmin = float(np.linalg.eigvalsh(P)[0])
    return P, eigmin


def predict(fs: FilterState, gyros, accels, dts, params: UkfParams, Q) -> FilterState:
    """Propagate through the mechanization over a batch of IMU samples.

    gyros/accels: (m, 3) arrays, dts: (m,) per-sample intervals covering
    (fs.t, fs.t + sum(dts)]. Each sigma point is mechanized with its own bias
    subvector, the whole interval in one call; the process noise density Q
    (15x15, from process_noise) enters as Q * elapsed time.
    """
    if (dts <= 0.0).any():
        raise ValueError("IMU intervals must be positive")
    n_lam, wm, wc = params._predict_constants
    pts = _points(np.zeros(N_ERR), fs.P, n_lam)
    p, v, q, bg, ba = _inject(fs, pts)
    p, v, q = mechanize_arrays(p, v, q, bg, ba, gyros, accels, dts)
    p, v, q = p[-1], v[-1], q[-1]
    p_mean = wm @ p
    v_mean = wm @ v
    bg_mean = wm @ bg
    ba_mean = wm @ ba
    # attitude mean relative to the propagated center point
    dth = quat.to_rotvec(quat.multiply(quat.conjugate(q[0]), q))
    q_mean = _compose(q[0], wm @ dth)
    err = np.empty((pts.shape[0], N_ERR))
    err[:, _SL["p"]] = p - p_mean
    err[:, _SL["v"]] = v - v_mean
    err[:, _SL["att"]] = quat.to_rotvec(quat.multiply(quat.conjugate(q_mean), q))
    err[:, _SL["bg"]] = bg - bg_mean
    err[:, _SL["ba"]] = ba - ba_mean
    elapsed = float(dts.sum())
    P = (wc * err.T) @ err + Q * elapsed
    P, eigmin = _finalize_cov(P)
    return FilterState(
        t=fs.t + elapsed,
        p=p_mean,
        v=v_mean,
        q_bn=q_mean,
        b_g=bg_mean,
        b_a=ba_mean,
        P=P,
        min_eig=eigmin,
    )


def _chi2_sf_dof3(g: float) -> float:
    """Upper tail P(X > g) of a chi-square variable with three degrees of
    freedom, in closed form."""
    return math.erfc(math.sqrt(g / 2.0)) + math.sqrt(2.0 * g / math.pi) * math.exp(-g / 2.0)


@lru_cache(maxsize=16)
def _gate_dof4(gate_dof3: float) -> float:
    """The 3-dof gate threshold re-expressed at four degrees of freedom,
    holding the confidence level fixed.

    At four degrees of freedom the tail is exp(-y/2) (1 + y/2), so the
    threshold y solves y = 2 (log1p(y/2) - log(tail)); the fixed-point
    iteration contracts and stops when y repeats.
    """
    log_tail = math.log(_chi2_sf_dof3(gate_dof3))
    y = gate_dof3
    for _ in range(1000):
        y_next = 2.0 * (math.log1p(y / 2.0) - log_tail)
        if y_next == y:
            break
        y = y_next
    return y


def _kf_update(fs: FilterState, nu, PHt, S, gate):
    """Closed-form Kalman step for a measurement linear in the error state
    with Jacobian H: innovation nu, PHt = P H^T, innovation covariance
    S = H P H^T + R; gated on the NIS. A rejected step returns fs itself:
    no code changes a state in place."""
    try:
        x = np.linalg.solve(S, np.column_stack([nu, PHt.T]))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular innovation covariance: {exc}") from exc
    K = x[:, 1:].T
    nis = float(nu @ x[:, 0])
    if nis > gate:
        return fs, UpdateInfo(nis=nis, accepted=False)
    dx = K @ nu
    P, eigmin = _finalize_cov(fs.P - K @ S @ K.T)
    p, v, q, bg, ba = _correct(fs, dx)
    out = FilterState(t=fs.t, p=p, v=v, q_bn=q, b_g=bg, b_a=ba, P=P, min_eig=eigmin)
    return out, UpdateInfo(nis=nis, accepted=True)


def _compose(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """normalize(multiply(q, from_rotvec(r))) for one quaternion q (4,) and
    one rotation vector r (3,): the same products and sums on Python
    floats, which skips numpy's per-call cost on 4-vectors. The sinc is
    np.sinc's own formula, sin(y)/y with y = pi*x, 1 at 0."""
    rx, ry, rz = r.tolist()
    half = 0.5 * math.sqrt(rx * rx + ry * ry + rz * rz)
    y = math.pi * (half / math.pi)
    k = 0.5 * (math.sin(y) / y if y else 1.0)
    bw, bx, by, bz = math.cos(half), k * rx, k * ry, k * rz
    aw, ax, ay, az = q.tolist()
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + ax * bw + ay * bz - az * by
    y = aw * by - ax * bz + ay * bw + az * bx
    z = aw * bz + ax * by - ay * bx + az * bw
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return np.array([w, x, y, z]) / n


def _correct(fs: FilterState, dx: np.ndarray):
    """_inject for one correction dx (15,), its attitude through _compose."""
    q = _compose(fs.q_bn, dx[_SL["att"]])
    p = fs.p + dx[_SL["p"]]
    v = fs.v + dx[_SL["v"]]
    return p, v, q, fs.b_g + dx[_SL["bg"]], fs.b_a + dx[_SL["ba"]]


def update_position(fs: FilterState, p, R, params: UkfParams):
    """Position-fix measurement update with NIS gating.

    p: the fix's position (3,), R its covariance (3, 3). The fix observes
    dp directly (H = [I 0], so P H^T is the first three columns of P).
    Returns (state, UpdateInfo); the state is fs itself when the normalized
    innovation squared exceeds the gate, which protects the filter from
    admission-gate leakage.
    """
    nu = p - fs.p
    PHt = fs.P[:, :3]
    return _kf_update(fs, nu, PHt, PHt[:3] + R, params.nis_gate)


def update_position_yaw(fs: FilterState, fix, R, params: UkfParams):
    """Joint position + yaw-misalignment update.

    The fix carries a nav-frame yaw offset of the attitude that was used to
    globalize body-frame angle measurements; as a measurement it sees the
    z component of the nav-frame attitude error, which is the third row of
    R(q) applied to the body-side error angles. R is 4x4 with the position
    block first.
    """
    H = np.zeros((4, N_ERR))
    H[:3] = np.eye(3, N_ERR)
    # R(q)[2], the row quat.to_matrix writes, on Python floats
    w, x, y, z = fs.q_bn.tolist()
    H[3, _SL["att"]] = 2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)
    nu = np.concatenate([fix.p - fs.p, [fix.yaw]])
    gate = _gate_dof4(params.nis_gate)
    PHt = fs.P @ H.T
    return _kf_update(fs, nu, PHt, H @ PHt + R, gate)
