"""Error metrics, experiment sweeps, and deterministic result writers.

Sweeps run paired arms (reflection-aided vs inertial-plus-LoS-only) on shared
measurement sets, so per-seed comparisons are common-random-number paired.
All file output is deterministic: fixed column order, "%.10g" floats, no
timestamps, sorted JSON keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .fusion import NumericError
from .ins import drift_profile
from .pipeline import Rates, RunSetup, run_pair
from .scene import ring_scenario, trajectory_poses
from .synth import ImuErrorModel, NoiseCfg, OutageWindow

_TOL = 1e-9


def _window_mask(t, window):
    t = np.asarray(t, dtype=float)
    if window is None:
        return np.ones(t.shape, dtype=bool)
    t0, t1 = window
    mask = (t >= t0 - _TOL) & (t <= t1 + _TOL)
    if not mask.any():
        raise ValueError(f"no samples inside window [{t0}, {t1}]")
    return mask


def rmse_3d(t, err_3d, window=None) -> float:
    """Root-mean-square of the 3D error norm, optionally time-windowed."""
    mask = _window_mask(t, window)
    e = np.asarray(err_3d, dtype=float)[mask]
    return float(np.sqrt(np.mean(e**2)))


def max_error_pct(t, err_3d, arc_m, window=None) -> float:
    """Largest 3D error as a percentage of the distance traveled inside the
    window (total truth arc length there, interpolated at the edges)."""
    t = np.asarray(t, dtype=float)
    e = np.asarray(err_3d, dtype=float)
    arc = np.asarray(arc_m, dtype=float)
    mask = _window_mask(t, window)
    if window is None:
        t0, t1 = t[0], t[-1]
    else:
        t0, t1 = window
    travel = float(np.interp(t1, t, arc) - np.interp(t0, t, arc))
    if travel <= _TOL:
        raise ValueError("no travel inside window; percent-of-distance undefined")
    return float(100.0 * np.max(e[mask]) / travel)


def error_cdf(err_3d):
    """Empirical CDF points: sorted errors and probabilities (k/n)."""
    e = np.sort(np.asarray(err_3d, dtype=float))
    if e.size == 0:
        raise ValueError("empty error array")
    probs = np.arange(1, e.size + 1) / e.size
    return e, probs


# ---------------------------------------------------------------------------
# experiment sweeps

class SweepArgumentError(ValueError):
    """A bad sweep argument: the runner's argument name, the index of the
    bad entry in it (None for the argument as a whole) and the problem."""

    def __init__(self, arg: str, index: int | None, problem: str):
        self.arg, self.index, self.problem = arg, index, problem
        super().__init__(f"{arg}{'' if index is None else f'[{index}]'} {problem}")


def _check_each(arg: str, values, ok, problem: str):
    for i, value in enumerate(values):
        if not ok(value):
            raise SweepArgumentError(arg, i, problem)


_SWEEP_RATES = Rates(imu_hz=20.0, obs_hz=2.0, odo_hz=2.0)
# Fixed-magnitude biases keep drift scale stable across seeds, which is
# what a repeatable outage benchmark needs.
_SWEEP_IMU_ERR = ImuErrorModel(bias_mode="fixed_magnitude")


def _paired_runs(setup, seeds, window=None) -> dict:
    """run_pair at each seed of setup: the with/without RMSE lists, and
    given an outage window, the RMSE inside it, the largest error as a
    percentage of the distance traveled in it, and that distance (from the
    first seed). Only one seed's pair of results is alive at a time."""
    out = {"rmse_with_m": [], "rmse_without_m": []}
    if window is not None:
        out = {"distance_m": None, **out, "maxpct_with": [], "maxpct_without": []}
    for seed in seeds:
        pair = run_pair(replace(setup, seed=int(seed)))
        for arm, res in zip(("with", "without"), pair):
            out[f"rmse_{arm}_m"].append(rmse_3d(res.t, res.err_3d, window))
            if window is not None:
                out[f"maxpct_{arm}"].append(max_error_pct(res.t, res.err_3d, res.arc_m, window))
        if window is not None and out["distance_m"] is None:
            arc0, arc1 = (float(np.interp(t, pair[0].t, pair[0].arc_m)) for t in window)
            out["distance_m"] = arc1 - arc0
        del pair, res
    return out


def run_outage_sweep(
    durations=(20.0, 40.0, 60.0, 200.0, 400.0),
    speeds=(9.8, 9.4, 5.0, 5.6, 6.5),
    seeds=tuple(range(20)),
    noise=None,
    imu_err=None,
    rates=None,
    pre_s=10.0,
    post_s=5.0,
) -> dict:
    """Paired runs with an artificial radio outage per case.

    Each case gets its own loop speed; the outage starts after a settling
    margin and metrics are evaluated inside the outage window only. The
    sweep reads no NEES, so its runs skip it. Every argument is checked
    before the first run.
    """
    if len(durations) != len(speeds):
        raise SweepArgumentError("speeds", None, "must hold one speed per duration")
    _check_each("durations", durations, lambda dur: dur > 0.0, "must be > 0")
    # the sweep reports error per distance traveled in each outage
    _check_each("speeds", speeds, lambda spd: spd > 0.0, "must be > 0")
    windows = [(pre_s, pre_s + dur) for dur in durations]
    setups = [
        RunSetup(
            scenario=ring_scenario(speed_mps=spd),
            duration_s=t1 + post_s,
            rates=rates or _SWEEP_RATES,
            noise=noise or NoiseCfg(),
            imu_err=imu_err or _SWEEP_IMU_ERR,
            outages=[OutageWindow(t0, t1)],
            compute_nees=False,
        )
        for spd, (t0, t1) in zip(speeds, windows)
    ]
    cases = [
        {
            "case": i,
            "duration_s": float(dur),
            "speed_mps": float(spd),
            **_paired_runs(setup, seeds, window),
        }
        for i, (dur, spd, setup, window) in enumerate(zip(durations, speeds, setups, windows))
    ]
    return {"mode": "outage-sweep", "seeds": [int(s) for s in seeds], "cases": cases}


def run_noise_sweep(
    var_ranges=(0.5, 1.0, 2.0),
    var_angles=(0.001, 0.01, 0.05),
    seeds=tuple(range(20)),
    duration_s=60.0,
    outage=None,
    speed_mps=8.0,
    imu_err=None,
    rates=None,
) -> dict:
    """Paired runs over a grid of range/angle noise variances.

    Seeds map to identical unit noise draws across grid points, so medians
    move with the variance scaling rather than with sampling luck. No outage
    by default: accuracy should respond to the measurement noise alone, and
    an optional (start_s, end_s) window is for combined stress runs. As in
    run_outage_sweep, NEES is skipped and every argument is checked before
    the first run.
    """
    # NoiseCfg refuses a negative variance too, but without naming the entry
    _check_each("var_ranges", var_ranges, lambda v: v >= 0.0, "must be >= 0")
    _check_each("var_angles", var_angles, lambda v: v >= 0.0, "must be >= 0")
    scenario = ring_scenario(speed_mps=speed_mps)
    outages = [OutageWindow(*outage)] if outage is not None else []
    grid = [(float(vr), float(va)) for vr in var_ranges for va in var_angles]
    setups = [
        RunSetup(
            scenario=scenario,
            duration_s=duration_s,
            rates=rates or _SWEEP_RATES,
            noise=NoiseCfg(var_range_m2=vr, var_angle_deg2=va),
            imu_err=imu_err or _SWEEP_IMU_ERR,
            outages=outages,
            compute_nees=False,
        )
        for vr, va in grid
    ]
    cells = [
        {"var_range_m2": vr, "var_angle_deg2": va, **_paired_runs(setup, seeds)}
        for (vr, va), setup in zip(grid, setups)
    ]
    return {
        "mode": "noise-sweep",
        "seeds": [int(s) for s in seeds],
        "var_ranges": [float(v) for v in var_ranges],
        "var_angles": [float(v) for v in var_angles],
        "cells": cells,
    }


def run_drift_profile(
    bias_scales=(0.5, 1.0, 2.0, 4.0),
    seeds=tuple(range(10)),
    duration_s=60.0,
    rate_hz=100.0,
    speed_mps=8.0,
    imu_err=None,
) -> dict:
    """Free-inertial drift ensemble: final position error vs bias scale.
    Every argument is checked before the first run."""
    # a scaled bias std must stay a valid ImuErrorModel std
    _check_each("bias_scales", bias_scales, lambda scale: scale >= 0.0, "must be >= 0")
    base = imu_err or _SWEEP_IMU_ERR
    models = [
        replace(
            base,
            gyro_bias_std=base.gyro_bias_std * scale,
            accel_bias_std=base.accel_bias_std * scale,
        )
        for scale in bias_scales
    ]
    scenario = ring_scenario(speed_mps=speed_mps)
    times = np.arange(int(round(duration_s * rate_hz)) + 1) / rate_hz
    truth = trajectory_poses(scenario.trajectory, times)
    rows = []
    for scale, err_model in zip(bias_scales, models):
        finals = []
        for seed in seeds:
            rng = np.random.default_rng(np.random.SeedSequence(int(seed)).spawn(1)[0])
            _, drift = drift_profile(truth, err_model, rate_hz, rng)
            finals.append(float(drift[-1]))
        rows.append({"bias_scale": float(scale), "final_drift_m": finals})
    return {"mode": "drift-profile", "seeds": [int(s) for s in seeds], "rows": rows}


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.10g" % float(v)
    return str(v)


def write_csv(path, columns, rows):
    """Write rows under the header columns. A non-finite number raises
    NumericError, naming the file and the column, before the file is
    written."""
    path = Path(path)
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row width does not match header")
        for column, v in zip(columns, row):
            if isinstance(v, (float, np.floating)) and not math.isfinite(v):
                raise NumericError(f"{path.name}: {column} is {v}")
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_manifest(path, config_echo: dict, extra: dict | None = None):
    from . import __version__

    body = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "config": config_echo,
    }
    if extra:
        body.update(extra)
    Path(path).write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")


def write_single_run(outdir, result, label="run"):
    """errors_<label>.csv, cdf_<label>.csv for one run."""
    outdir = Path(outdir)
    rows = [
        (t, ee, en, eu, e3)
        for t, (ee, en, eu), e3 in zip(result.t, result.err_enu, result.err_3d)
    ]
    write_csv(outdir / f"errors_{label}.csv", ("t", "ex", "ey", "ez", "e3d"), rows)
    e, p = error_cdf(result.err_3d)
    write_csv(outdir / f"cdf_{label}.csv", ("e3d", "cdf"), list(zip(e, p)))


def single_run_summary(result, label) -> dict:
    """The summary row of one run: its error metrics and gate counters.
    Raises ValueError when the run travels no distance."""
    summary = {
        "label": label,
        "n_epochs": result.t.size,
        "rmse_3d_m": rmse_3d(result.t, result.err_3d),
        "max_err_3d_m": float(np.max(result.err_3d)),
        "max_err_pct_dist": max_error_pct(result.t, result.err_3d, result.arc_m),
    }
    for key in sorted(result.counters):
        summary[key] = result.counters[key]
    return summary


# sweep mode -> (the key of its rows, the row keys labelling a summary.csv
# row and a seeds.csv row, and per-seed lists as (summary.csv column of
# their median, seeds.csv column, row key))
_SWEEP_LAYOUT = {
    "outage-sweep": (
        "cases",
        ("case", "duration_s", "speed_mps", "distance_m"),
        ("case",),
        (
            ("rms_without_m", "rms_without_m", "rmse_without_m"),
            ("pct_without", "pct_without", "maxpct_without"),
            ("rms_with_m", "rms_with_m", "rmse_with_m"),
            ("pct_with", "pct_with", "maxpct_with"),
        ),
    ),
    "noise-sweep": (
        "cells",
        ("var_range_m2", "var_angle_deg2"),
        ("var_range_m2", "var_angle_deg2"),
        (
            ("rmse_with_med_m", "rmse_with_m", "rmse_with_m"),
            ("rmse_without_med_m", "rmse_without_m", "rmse_without_m"),
        ),
    ),
    "drift-profile": (
        "rows",
        ("bias_scale",),
        ("bias_scale",),
        (("median_drift_m", "final_drift_m", "final_drift_m"),),
    ),
}


def write_sweep(outdir, sweep: dict):
    """summary.csv, one row per case, cell or bias scale with the medians
    over seeds, and seeds.csv, one row per seed of each, as a run_* sweep
    returned them."""
    rows_key, labels, seed_labels, lists = _SWEEP_LAYOUT[sweep["mode"]]
    rows = sweep[rows_key]
    outdir = Path(outdir)
    write_csv(
        outdir / "summary.csv",
        labels + tuple(summary for summary, _, _ in lists),
        [
            tuple(r[k] for k in labels) + tuple(float(np.median(r[key])) for _, _, key in lists)
            for r in rows
        ],
    )
    write_csv(
        outdir / "seeds.csv",
        seed_labels + ("seed",) + tuple(column for _, column, _ in lists),
        [
            tuple(r[k] for k in seed_labels) + (seed,) + tuple(r[key][i] for _, _, key in lists)
            for r in rows
            for i, seed in enumerate(sweep["seeds"])
        ],
    )
