"""Forward measurement model.

Generates per-epoch direct-path (LoS) and reflected-path observables, IMU and
odometer streams, applies Gaussian measurement noise and scheduled LoS
outages, and reads/writes the line-delimited JSON measurement log.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import quat
from .ins import GRAVITY
from .scene import SPEED_OF_LIGHT, angles_from_unit


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


@dataclass
class NoiseCfg:
    var_range_m2: float = 0.5
    var_angle_deg2: float = 0.01

    def __post_init__(self):
        if self.var_range_m2 < 0 or self.var_angle_deg2 < 0:
            raise ValueError("noise variances must be >= 0")


@dataclass
class OutageWindow:
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("outage window needs t_end > t_start")

    def contains(self, t: float) -> bool:
        return self.t_start <= t <= self.t_end


@dataclass
class ImuSample:
    t: float
    gyro: np.ndarray  # rad/s, body
    accel: np.ndarray  # m/s^2 specific force, body


@dataclass
class OdoSample:
    t: float
    speed: float  # m/s


@dataclass
class PathLossModel:
    """Log-distance path loss with a fixed per-bounce reflection penalty."""

    tx_power_dbm: float = 30.0
    pl0_db: float = 61.4  # loss at d0; free-space value for 28 GHz at 1 m
    exponent: float = 2.0
    reflection_loss_db: float = 6.0
    d0_m: float = 1.0

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("path-loss exponent must be > 0")

    def rss(self, path_length_m, bounces=0):
        """Received power, dBm; accepts scalars or arrays."""
        d = np.asarray(path_length_m, dtype=float)
        if np.any(d <= 0):
            raise ValueError("path length must be > 0")
        val = (
            self.tx_power_dbm
            - self.pl0_db
            - 10.0 * self.exponent * np.log10(d / self.d0_m)
            - np.asarray(bounces) * self.reflection_loss_db
        )
        return float(val) if np.ndim(val) == 0 else val

    def distance_from_rss(self, rss_dbm: float) -> float:
        """Range implied by RSS under the direct-path (zero-bounce) model."""
        return self.d0_m * 10.0 ** (
            (self.tx_power_dbm - self.pl0_db - rss_dbm) / (10.0 * self.exponent)
        )


@dataclass
class ImuErrorModel:
    """Constant-bias plus white-noise IMU error budget.

    bias_mode 'gaussian' draws each bias component N(0, std^2) per run;
    'fixed_magnitude' draws a random direction with |bias| = sqrt(3)*std,
    which keeps the drift scale comparable across Monte-Carlo seeds while the
    per-component covariance stays std^2 * I.
    """

    gyro_bias_std: float = 2e-4  # rad/s
    accel_bias_std: float = 2e-3  # m/s^2
    gyro_noise_density: float = 1e-4  # rad/s/sqrt(Hz)
    accel_noise_density: float = 1e-3  # m/s^2/sqrt(Hz)
    bias_mode: str = "gaussian"

    def sample_biases(self, rng):
        if self.bias_mode == "gaussian":
            b_g = rng.normal(0.0, self.gyro_bias_std, 3)
            b_a = rng.normal(0.0, self.accel_bias_std, 3)
        elif self.bias_mode == "fixed_magnitude":
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            b_g = math.sqrt(3.0) * self.gyro_bias_std * u
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            b_a = math.sqrt(3.0) * self.accel_bias_std * w
        else:
            raise ValueError(f"unknown bias_mode {self.bias_mode!r}")
        return b_g, b_a


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


def _wrap_az(az):
    return np.arctan2(np.sin(az), np.cos(az))


def _clip_el(el):
    return np.clip(el, -math.pi / 2, math.pi / 2)


def apply_noise(obs, cfg: NoiseCfg, rng, n_los: int = 0, body=None):
    """Noisy copy of one epoch's observables, perturbed as one block.

    obs: (n, 5) rows [time of flight, aod_az, aod_el, aoa_az, aoa_el], one
    per record in record order. The first n_los rows are direct paths, whose
    time of flight is the two-way rtt; the rest are reflected paths with a
    one-way toa. body: optional (n - n_los, 2) body-frame arrival angles
    [az, el] of the reflected rows; they take the same angle errors as the
    global arrival angles. Returns (obs, body) noisy copies.

    Draws one (n, 5) block of unit normals, so exactly five per record in
    record order at any variance: sweeps with different variances share one
    underlying stream (common random numbers), and zero-variance output
    equals the input bitwise.
    """
    if cfg.var_range_m2 < 0 or cfg.var_angle_deg2 < 0:
        raise ValueError("noise variances must be >= 0")
    obs = np.asarray(obs, dtype=float)
    z = rng.standard_normal((len(obs), 5))
    sig_r = math.sqrt(cfg.var_range_m2)
    sig_a = math.radians(math.sqrt(cfg.var_angle_deg2))
    out = obs.copy()
    body_out = None if body is None else np.array(body, dtype=float)
    if sig_r > 0.0:
        scale = np.full(len(obs), sig_r)
        scale[:n_los] = 2.0 * sig_r
        out[:, 0] = obs[:, 0] + scale * z[:, 0] / SPEED_OF_LIGHT
    if sig_a > 0.0:
        ang = obs[:, 1:] + sig_a * z[:, 1:]
        out[:, 1::2] = _wrap_az(ang[:, 0::2])
        out[:, 2::2] = _clip_el(ang[:, 1::2])
        if body is not None:
            # same physical angle error, expressed in the body frame
            ang_b = body_out + sig_a * z[n_los:, 3:]
            body_out[:, 0] = _wrap_az(ang_b[:, 0])
            body_out[:, 1] = _clip_el(ang_b[:, 1])
    return out, body_out


def apply_outages(t: float, obs_list, windows):
    """Drop LoS observations whose epoch falls inside any window (closed
    interval); reflected-path observations always pass through."""
    if not windows:
        return list(obs_list)
    blocked = any(w.contains(t) for w in windows)
    if not blocked:
        return list(obs_list)
    return [o for o in obs_list if not isinstance(o, LosObs)]


def synth_imu(poses, err: ImuErrorModel, rate: float, rng, biases=None):
    """IMU stream whose noise-free mechanization reproduces the pose sequence.

    The sample at t_k covers [t_k, t_{k+1}): the angular rate is the exact
    attitude increment over the interval and the specific force is chosen so
    the velocity update with the end-of-interval attitude lands on v_{k+1}.
    biases overrides the sampled constant biases when given as (b_g, b_a).
    """
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


def synth_odo(poses, rate: float, noise_std: float, rng):
    """Odometer speed stream sampled from the nearest trajectory pose."""
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


# ---------------------------------------------------------------------------
# measurement log (line-delimited JSON, unit-suffixed keys)


def _record_to_dict(rec) -> dict:
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


def write_measurement_log(path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(_record_to_dict(rec), sort_keys=True))
            f.write("\n")


def read_measurement_log(path) -> dict:
    """Parse a log back into {'los': [...], 'sbr': [...], 'imu': [...],
    'odo': [...]} preserving file order.

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
