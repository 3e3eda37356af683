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
    """Sigma-point scaling (prediction only) plus continuous-time process
    noise densities.

    q_vel and q_att should match the IMU white-noise densities squared
    ((m/s^2)^2/Hz and (rad/s)^2/Hz); the bias densities stay zero when biases
    are modeled as run constants. Frozen, so that the prediction constants
    derived from the fields on first use cannot go stale.
    """

    alpha: float = 0.5
    beta: float = 2.0
    kappa: float = 0.0
    q_pos: float = 0.0
    q_vel: float = 1e-6
    q_att: float = 1e-8
    q_bias_gyro: float = 0.0
    q_bias_accel: float = 0.0
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
        for name in ("q_pos", "q_vel", "q_att", "q_bias_gyro", "q_bias_accel"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    def process_noise(self) -> np.ndarray:
        q = np.zeros(N_ERR)
        q[_SL["p"]] = self.q_pos
        q[_SL["v"]] = self.q_vel
        q[_SL["att"]] = self.q_att
        q[_SL["bg"]] = self.q_bias_gyro
        q[_SL["ba"]] = self.q_bias_accel
        return np.diag(q)

    @cached_property
    def _predict_constants(self):
        """(n + lambda, wm, wc, Q) of a prediction step over the error
        state, read-only; built once per parameter set, on first use."""
        n_lam, wm, wc = _ut_weights(N_ERR, self.alpha, self.beta, self.kappa)
        out = (n_lam, wm, wc, self.process_noise())
        for a in out[1:]:
            a.flags.writeable = False
        return out

    @classmethod
    def from_imu_error(cls, imu_err) -> "UkfParams":
        return cls(
            q_vel=imu_err.accel_noise_density**2,
            q_att=imu_err.gyro_noise_density**2,
        )


@dataclass
class FilterState:
    """Nominal state plus error-state covariance (15x15, ordering
    [dp, dv, dtheta, db_g, db_a]). min_eig is the smallest eigenvalue of P
    when the step that made P computed it, else None."""

    t: float
    p: np.ndarray
    v: np.ndarray
    q_bn: np.ndarray
    b_g: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b_a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    P: np.ndarray = field(default_factory=lambda: np.eye(N_ERR))
    min_eig: float | None = None

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float).reshape(3)
        self.v = np.asarray(self.v, dtype=float).reshape(3)
        self.q_bn = np.asarray(self.q_bn, dtype=float).reshape(4)
        self.b_g = np.asarray(self.b_g, dtype=float).reshape(3)
        self.b_a = np.asarray(self.b_a, dtype=float).reshape(3)
        self.P = np.asarray(self.P, dtype=float).reshape(N_ERR, N_ERR)

    def copy(self) -> "FilterState":
        return FilterState(
            t=self.t,
            p=self.p.copy(),
            v=self.v.copy(),
            q_bn=self.q_bn.copy(),
            b_g=self.b_g.copy(),
            b_a=self.b_a.copy(),
            P=self.P.copy(),
            min_eig=self.min_eig,
        )

    def error_vector(self, p, v, q_bn, b_g, b_a) -> np.ndarray:
        """delta = true (-) estimate against a reference truth; pairs with P
        for consistency statistics."""
        e = np.empty(N_ERR)
        e[_SL["p"]] = np.asarray(p, dtype=float) - self.p
        e[_SL["v"]] = np.asarray(v, dtype=float) - self.v
        e[_SL["att"]] = quat.to_rotvec(quat.multiply(quat.conjugate(self.q_bn), q_bn))
        e[_SL["bg"]] = np.asarray(b_g, dtype=float) - self.b_g
        e[_SL["ba"]] = np.asarray(b_a, dtype=float) - self.b_a
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
    Cholesky factor of (n + lambda) P."""
    n = mean.size
    root = np.linalg.cholesky(n_lam * np.asarray(P, dtype=float))
    pts = np.empty((2 * n + 1, n))
    pts[0] = mean
    pts[1 : n + 1] = mean + root.T
    pts[n + 1 :] = mean - root.T
    return pts


def sigma_points(mean, P, alpha: float = 0.5, beta: float = 2.0, kappa: float = 0.0):
    """Scaled unscented transform: 2n+1 points and (mean, cov) weights.

    Raises numpy.linalg.LinAlgError when P has lost positive definiteness,
    which callers treat as covariance corruption.
    """
    mean = np.asarray(mean, dtype=float)
    n_lam, wm, wc = _ut_weights(mean.size, alpha, beta, kappa)
    return _points(mean, P, n_lam), wm, wc


def _inject(fs: FilterState, dx: np.ndarray):
    """Apply error-state points/corrections to the nominal state; dx may be
    a single 15-vector or a stack (m, 15)."""
    dx = np.asarray(dx, dtype=float)
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


def predict(fs: FilterState, gyros, accels, dts, params: UkfParams) -> FilterState:
    """Propagate through the mechanization over a batch of IMU samples.

    gyros/accels: (m, 3) arrays, dts: (m,) per-sample intervals covering
    (fs.t, fs.t + sum(dts)]. Each sigma point is mechanized with its own bias
    subvector, the whole interval in one call; process noise enters as
    Q * elapsed time.
    """
    gyros = np.atleast_2d(np.asarray(gyros, dtype=float))
    accels = np.atleast_2d(np.asarray(accels, dtype=float))
    dts = np.atleast_1d(np.asarray(dts, dtype=float))
    if (dts <= 0.0).any():
        raise ValueError("IMU intervals must be positive")
    n_lam, wm, wc, Q = params._predict_constants
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
def _gate_for_dim(gate_dof3: float, dim: int) -> float:
    """Re-express the 3-dof gate threshold at another measurement dimension,
    holding the confidence level fixed. Only dim 3 and 4 occur.

    At four degrees of freedom the tail is exp(-y/2) (1 + y/2), so the
    threshold y solves y = 2 (log1p(y/2) - log(tail)); the fixed-point
    iteration contracts and stops when y repeats.
    """
    if dim == 3:
        return gate_dof3
    if dim != 4:
        raise ValueError(f"no gate for measurement dimension {dim}")
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
    S = H P H^T + R; gated on the NIS."""
    try:
        x = np.linalg.solve(S, np.column_stack([nu, PHt.T]))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular innovation covariance: {exc}") from exc
    K = x[:, 1:].T
    nis = float(nu @ x[:, 0])
    if nis > gate:
        return fs.copy(), UpdateInfo(nis=nis, accepted=False)
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


def update_position(fs: FilterState, fix, R, params: UkfParams):
    """Position-fix measurement update with NIS gating.

    fix: the fix (anything with a position p) or its position (3,). The
    fix observes dp directly (H = [I 0], so P H^T is the first three
    columns of P). Returns (state, UpdateInfo); the state is unchanged when
    the normalized innovation squared exceeds the gate, which protects the
    filter from admission-gate leakage.
    """
    R = np.asarray(R, dtype=float).reshape(3, 3)
    nu = np.asarray(getattr(fix, "p", fix), dtype=float) - fs.p
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
    R = np.asarray(R, dtype=float).reshape(4, 4)
    H = np.zeros((4, N_ERR))
    H[:3] = np.eye(3, N_ERR)
    # R(q)[2], the row quat.to_matrix writes, on Python floats
    w, x, y, z = fs.q_bn.tolist()
    H[3, _SL["att"]] = 2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)
    nu = np.concatenate([np.asarray(fix.p, dtype=float) - fs.p, [fix.yaw]])
    gate = _gate_for_dim(params.nis_gate, 4)
    PHt = fs.P @ H.T
    return _kf_update(fs, nu, PHt, H @ PHt + R, gate)
