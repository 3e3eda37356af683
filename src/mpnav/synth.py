"""Forward measurement model.

Holds the radio records as columns (RadioRecords), generates IMU and
odometer streams, applies Gaussian measurement noise and scheduled LoS
outages, and reads/writes the line-delimited JSON measurement log.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import quat
from .ins import GRAVITY
from .scene import SPEED_OF_LIGHT, row_dot


@dataclass
class RadioRecords:
    """One kind of radio record (LoS or SBR) for a whole run, as columns.

    Epoch e owns rows off[e]:off[e+1]. obs columns are [time of flight,
    aod_az, aod_el, aoa_az, aoa_el], the time of flight being the two-way
    rtt for LoS and the one-way toa for SBR records; bs indexes the run's
    base stations. bounces and body (body-frame arrival [az, el]) exist for
    SBR records only.
    """

    off: np.ndarray  # (E + 1,) int
    bs: np.ndarray  # (N,) int
    obs: np.ndarray  # (N, 5)
    rss: np.ndarray  # (N,) dBm
    bounces: np.ndarray | None = None  # (N,) int, simulator truth
    body: np.ndarray | None = None  # (N, 2)

    def __len__(self) -> int:
        return len(self.bs)


@dataclass
class NoiseCfg:
    var_range_m2: float = 0.5
    var_angle_deg2: float = 0.01

    def __post_init__(self):
        if self.var_range_m2 < 0 or self.var_angle_deg2 < 0:
            raise ValueError("noise variances must be >= 0")
        if not (math.isfinite(self.var_range_m2) and math.isfinite(self.var_angle_deg2)):
            raise ValueError("noise variances must be finite")


@dataclass
class OutageWindow:
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("outage window needs t_end > t_start")

    def contains(self, t):
        """Whether t (a time or an array of times) lies in the closed window."""
        return (self.t_start <= t) & (t <= self.t_end)


@dataclass
class ImuStream:
    """An IMU stream as columns; sample k covers [t[k], t[k + 1]). len()
    counts the samples."""

    t: np.ndarray  # (M,) s
    gyro: np.ndarray  # (M, 3) rad/s, body
    accel: np.ndarray  # (M, 3) m/s^2 specific force, body

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class OdoStream:
    """An odometer speed stream as columns."""

    t: np.ndarray  # (K,) s
    speed: np.ndarray  # (K,) m/s


@dataclass
class PathLossModel:
    """Log-distance path loss with a fixed per-bounce reflection penalty."""

    tx_power_dbm: float = 30.0
    pl0_db: float = 61.4  # loss at 1 m; free-space value for 28 GHz
    exponent: float = 2.0
    reflection_loss_db: float = 6.0

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("path-loss exponent must be > 0")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")

    def rss(self, path_length_m, bounces=0):
        """Received power, dBm; accepts scalars or arrays."""
        d = np.asarray(path_length_m, dtype=float)
        if np.any(d <= 0):
            raise ValueError("path length must be > 0")
        val = (
            self.tx_power_dbm
            - self.pl0_db
            - 10.0 * self.exponent * np.log10(d)
            - np.asarray(bounces) * self.reflection_loss_db
        )
        return float(val) if np.ndim(val) == 0 else val

    def distance_from_rss(self, rss_dbm: float) -> float:
        """Range implied by RSS under the direct-path (zero-bounce) model."""
        return 10.0 ** (
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

    def __post_init__(self):
        if self.bias_mode not in ("gaussian", "fixed_magnitude"):
            raise ValueError(f"unknown bias_mode {self.bias_mode!r}")
        stds = ("gyro_bias_std", "accel_bias_std", "gyro_noise_density", "accel_noise_density")
        for name in stds:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0")

    def sample_biases(self, rng):
        if self.bias_mode == "gaussian":
            b_g = rng.normal(0.0, self.gyro_bias_std, 3)
            b_a = rng.normal(0.0, self.accel_bias_std, 3)
        else:  # fixed_magnitude, the only other mode __post_init__ admits
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            b_g = math.sqrt(3.0) * self.gyro_bias_std * u
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            b_a = math.sqrt(3.0) * self.accel_bias_std * w
        return b_g, b_a


def _wrap_az(az):
    return np.arctan2(np.sin(az), np.cos(az))


def _clip_el(el):
    return np.clip(el, -math.pi / 2, math.pi / 2)


def apply_noise(obs, cfg: NoiseCfg, rng, los=None, body=None):
    """Noisy copy of a block of observables, perturbed at once.

    obs: (n, 5) rows [time of flight, aod_az, aod_el, aoa_az, aoa_el], one
    per record in draw order. los: optional (n,) booleans marking the direct
    paths, whose time of flight is the two-way rtt; the other rows are
    reflected paths with a one-way toa (all of them when los is None).
    body: optional (number of reflected rows, 2) body-frame arrival angles
    [az, el] of the reflected rows, in row order; they take the same angle
    errors as the global arrival angles. Returns (obs, body) noisy copies.

    Draws one (n, 5) block of unit normals, so exactly five per record in
    row order at any variance: sweeps with different variances share one
    underlying stream (common random numbers), and zero-variance output
    equals the input bitwise. One (n1 + n2, 5) draw equals an (n1, 5) draw
    followed by an (n2, 5) draw, so a whole run's block reproduces
    epoch-by-epoch draws.
    """
    obs = np.asarray(obs, dtype=float)
    los = np.zeros(len(obs), dtype=bool) if los is None else np.asarray(los, dtype=bool)
    z = rng.standard_normal((len(obs), 5))
    sig_r = math.sqrt(cfg.var_range_m2)
    sig_a = math.radians(math.sqrt(cfg.var_angle_deg2))
    out = obs.copy()
    body_out = None if body is None else np.array(body, dtype=float)
    if sig_r > 0.0:
        scale = np.where(los, 2.0 * sig_r, sig_r)
        out[:, 0] = obs[:, 0] + scale * z[:, 0] / SPEED_OF_LIGHT
    if sig_a > 0.0:
        ang = obs[:, 1:] + sig_a * z[:, 1:]
        out[:, 1::2] = _wrap_az(ang[:, 0::2])
        out[:, 2::2] = _clip_el(ang[:, 1::2])
        if body is not None:
            # same physical angle error, expressed in the body frame
            ang_b = body_out + sig_a * z[~los, 3:]
            body_out[:, 0] = _wrap_az(ang_b[:, 0])
            body_out[:, 1] = _clip_el(ang_b[:, 1])
    return out, body_out


def outage_mask(t, windows):
    """True for the epoch times t that fall inside any outage window
    (closed interval); their LoS observations are dropped, reflected paths
    always pass through."""
    t = np.asarray(t, dtype=float)
    blocked = np.zeros(t.shape, dtype=bool)
    for w in windows:
        blocked |= w.contains(t)
    return blocked


def synth_imu(truth, err: ImuErrorModel, rate: float, rng, biases=None) -> ImuStream:
    """IMU stream whose noise-free mechanization reproduces the truth
    trajectory (a scene.Trajectory), one sample per interval between its
    rows.

    The sample at t_k covers [t_k, t_{k+1}): the angular rate is the exact
    attitude increment over the interval and the specific force is chosen so
    the velocity update with the end-of-interval attitude lands on v_{k+1}.
    biases overrides the sampled constant biases when given as (b_g, b_a).
    """
    if len(truth) < 3:
        raise ValueError("need at least 3 trajectory samples")
    if biases is None:
        b_g, b_a = err.sample_biases(rng)
    else:
        b_g, b_a = (np.asarray(b, dtype=float) for b in biases)
    t, vel, att = truth.t, truth.v, truth.att
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
    return ImuStream(t=t[:-1], gyro=gyro, accel=accel)


def synth_odo(truth, rate: float, noise_std: float, rng) -> OdoStream:
    """Odometer speed stream sampled from the nearest truth row."""
    t = truth.t
    times = np.arange(t[0], t[-1] + 0.5 / rate, 1.0 / rate)
    idx = np.clip(np.searchsorted(t, times - 1e-9), 0, len(t) - 1)
    v = truth.v[idx]
    speed = np.sqrt(row_dot(v, v))
    if noise_std > 0.0:
        speed += noise_std * rng.standard_normal(len(times))
    return OdoStream(t=times, speed=speed)


# ---------------------------------------------------------------------------
# measurement log (line-delimited JSON, unit-suffixed keys)


# per record kind: the log key of each number a reader keeps, in column
# order (time first; an IMU vector's key once per component)
LOG_KEYS = {
    "imu": ("t_s",) + ("gyro_rps",) * 3 + ("accel_mps2",) * 3,
    "odo": ("t_s", "speed_mps"),
    "los": ("t_s", "rtt_s", "aod_az_rad", "aod_el_rad", "aoa_az_rad", "aoa_el_rad", "rss_dbm"),
    "sbr": ("t_s", "toa_s", "aod_az_rad", "aod_el_rad", "aoa_az_rad", "aoa_el_rad", "rss_dbm")
    + ("aoa_az_body_rad", "aoa_el_body_rad"),
}


@dataclass
class LogColumns:
    """One kind of measurement-log record as columns, rows in file order.

    values holds each record's numbers in the order of LOG_KEYS[kind]. Radio
    kinds (LoS, SBR) also carry bs, each row's index into ids, the station
    ids of the log in first-seen order; SBR records carry bounces, their
    truth_bounces.
    """

    values: np.ndarray  # (n, len(LOG_KEYS[kind]))
    bs: np.ndarray | None = None  # (n,) int
    ids: tuple = ()
    bounces: np.ndarray | None = None  # (n,) int

    def __len__(self) -> int:
        return len(self.values)


# One line template per record kind: keys in sorted order, separators as
# json.dumps(record, sort_keys=True) writes them. Floats go through %r on
# Python floats, which is float.__repr__ as in json.dumps; station ids are
# JSON-quoted once per station.
_IMU_LINE = '{"accel_mps2": [%r, %r, %r], "gyro_rps": [%r, %r, %r], "kind": "imu", "t_s": %r}\n'
_ODO_LINE = '{"kind": "odo", "speed_mps": %r, "t_s": %r}\n'
_LOS_LINE = (
    '{"aoa_az_rad": %r, "aoa_el_rad": %r, "aod_az_rad": %r, "aod_el_rad": %r, "bs_id": %s, '
    '"kind": "los", "rss_dbm": %r, "rtt_s": %r, "t_s": %r}\n'
)
_SBR_LINE = (
    '{"aoa_az_body_rad": %r, "aoa_az_rad": %r, "aoa_el_body_rad": %r, "aoa_el_rad": %r, '
    '"aod_az_rad": %r, "aod_el_rad": %r, "bs_id": %s, "kind": "sbr", "rss_dbm": %r, '
    '"t_s": %r, "toa_s": %r, "truth_bounces": %r}\n'
)
_CHUNK = 4096  # IMU/odometer lines per write


def _radio_lines(template, rec, rows, ids, t):
    """Log lines of rec's rows (a slice), all at epoch time t."""
    bs = [ids[b] for b in rec.bs[rows].tolist()]
    tof, aod_az, aod_el, aoa_az, aoa_el = rec.obs[rows].T.tolist()
    rss = rec.rss[rows].tolist()
    ts = [t] * len(bs)
    if rec.body is None:
        cols = (aoa_az, aoa_el, aod_az, aod_el, bs, rss, tof, ts)
    else:
        body_az, body_el = rec.body[rows].T.tolist()
        nb = rec.bounces[rows].tolist()
        cols = (body_az, aoa_az, body_el, aoa_el, aod_az, aod_el, bs, rss, ts, tof, nb)
    return "".join([template % row for row in zip(*cols)])


def write_measurement_log(path, ms) -> None:
    """Write a measurement set as line-delimited JSON: the IMU samples, the
    odometer samples, then per epoch its LoS and SBR records.

    Each line holds the bytes json.dumps(record, sort_keys=True) gives for
    the record's dict. The text is streamed per epoch (IMU and odometer
    lines in chunks), so the file is never held in memory whole.
    """
    ids = [json.dumps(bs_id) for bs_id in ms.bs_ids]
    with open(path, "w", encoding="utf-8") as f:
        for k in range(0, len(ms.imu_t), _CHUNK):
            rows = slice(k, k + _CHUNK)
            cols = (*ms.accel[rows].T.tolist(), *ms.gyro[rows].T.tolist(), ms.imu_t[rows].tolist())
            f.write("".join([_IMU_LINE % row for row in zip(*cols)]))
        for k in range(0, len(ms.odo_t), _CHUNK):
            rows = slice(k, k + _CHUNK)
            cols = (ms.odo_v[rows].tolist(), ms.odo_t[rows].tolist())
            f.write("".join([_ODO_LINE % row for row in zip(*cols)]))
        los_off, sbr_off = ms.los.off.tolist(), ms.sbr.off.tolist()
        for e, t in enumerate(ms.epoch_t.tolist()):
            los = slice(los_off[e], los_off[e + 1])
            sbr = slice(sbr_off[e], sbr_off[e + 1])
            f.write(_radio_lines(_LOS_LINE, ms.los, los, ids, t))
            f.write(_radio_lines(_SBR_LINE, ms.sbr, sbr, ids, t))


def _vec3(d: dict, key: str) -> list:
    """The three JSON values of an IMU vector."""
    v = d[key]
    if not (isinstance(v, list) and len(v) == 3):
        raise ValueError(f"{key} must hold three numbers")
    return v


# the Python types of a JSON number: a bool's type is bool, not int
_NUMBER_TYPES = frozenset((int, float))
# the seven numbers every radio record holds, in the order of LOG_KEYS
_RADIO_VALUES = {kind: itemgetter(*LOG_KEYS[kind][:7]) for kind in ("los", "sbr")}


def read_measurement_log(path) -> dict:
    """Parse a log into {'imu', 'odo', 'los', 'sbr'}: one LogColumns per
    record kind, rows in file order.

    Streams the file one JSON line at a time into flat typed buffers, so no
    per-record object is built. SBR records without truth_bounces or body
    angles read as one bounce and zero angles. Raises ValueError naming the
    1-based line of the first record that is not a JSON object, has an
    unknown kind, lacks a key, holds a value that is not a JSON number (a
    string or a boolean among them; three, for IMU vectors) where one
    belongs or a truth_bounces that is not a JSON integer, or holds a number
    that is not finite or, for an integer, too large."""
    numbers = {kind: array("d") for kind in LOG_KEYS}
    bs = {"los": array("q"), "sbr": array("q")}
    bounces = array("q")
    station = {}  # station id -> index, in first-seen order
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise ValueError("record is not a JSON object")
                kind = d.get("kind")
                if kind == "los" or kind == "sbr":
                    bs_id = str(d["bs_id"])
                    raw = _RADIO_VALUES[kind](d)
                    if kind == "sbr":
                        nb = d.get("truth_bounces", 1)
                        if type(nb) is not int:
                            raise ValueError("truth_bounces is not an integer")
                        raw += (d.get("aoa_az_body_rad", 0.0), d.get("aoa_el_body_rad", 0.0))
                elif kind == "imu":
                    raw = (d["t_s"], *_vec3(d, "gyro_rps"), *_vec3(d, "accel_mps2"))
                elif kind == "odo":
                    raw = (d["t_s"], d["speed_mps"])
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
                if not _NUMBER_TYPES.issuperset(map(type, raw)):
                    bad = next(k for k, x in zip(LOG_KEYS[kind], raw) if type(x) not in _NUMBER_TYPES)
                    raise ValueError(f"{bad} is not a number")
                values = list(map(float, raw))
                if not all(map(math.isfinite, values)):
                    bad = next(k for k, x in zip(LOG_KEYS[kind], values) if not math.isfinite(x))
                    raise ValueError(f"{bad} is not finite")
                numbers[kind].fromlist(values)
                if kind in bs:
                    bs[kind].append(station.setdefault(bs_id, len(station)))
                if kind == "sbr":
                    bounces.append(nb)
            except KeyError as exc:
                raise ValueError(f"line {n}: missing key {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                # OverflowError: an integer beyond float or int64 range
                raise ValueError(f"line {n}: {exc}") from exc
    # the numpy columns share the buffers' memory
    out = {
        kind: LogColumns(np.frombuffer(buf, dtype=float).reshape(-1, len(LOG_KEYS[kind])))
        for kind, buf in numbers.items()
    }
    for kind, col in bs.items():
        out[kind].bs = np.frombuffer(col, dtype=np.int64)
        out[kind].ids = tuple(station)
    out["sbr"].bounces = np.frombuffer(bounces, dtype=np.int64)
    return out
