"""Error metrics, experiment sweeps, and deterministic result writers.

Sweeps run paired arms (reflection-aided vs inertial-plus-LoS-only) on shared
measurement sets, so per-seed comparisons are common-random-number paired.
All file output is deterministic: fixed column order, "%.10g" floats, no
timestamps, sorted JSON keys.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

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

_SWEEP_RATES = Rates(imu_hz=20.0, obs_hz=2.0, odo_hz=2.0)


def _sweep_imu_err():
    # Fixed-magnitude biases keep drift scale stable across seeds, which is
    # what a repeatable outage benchmark needs.
    return ImuErrorModel(bias_mode="fixed_magnitude")


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
    sweep reads no NEES, so its runs skip it.
    """
    if len(durations) != len(speeds):
        raise ValueError("durations and speeds must pair up")
    noise = noise or NoiseCfg()
    imu_err = imu_err or _sweep_imu_err()
    rates = rates or _SWEEP_RATES
    cases = []
    for i, (dur, spd) in enumerate(zip(durations, speeds)):
        scenario = ring_scenario(speed_mps=spd)
        t0, t1 = pre_s, pre_s + dur
        row = {
            "case": i,
            "duration_s": float(dur),
            "speed_mps": float(spd),
            "distance_m": None,
            "rmse_with_m": [],
            "rmse_without_m": [],
            "maxpct_with": [],
            "maxpct_without": [],
        }
        for seed in seeds:
            setup = RunSetup(
                scenario=scenario,
                duration_s=t1 + post_s,
                seed=int(seed),
                rates=rates,
                noise=noise,
                imu_err=imu_err,
                outages=[OutageWindow(t0, t1)],
                compute_nees=False,
            )
            res_w, res_wo = run_pair(setup)
            window = (t0, t1)
            row["rmse_with_m"].append(rmse_3d(res_w.t, res_w.err_3d, window))
            row["rmse_without_m"].append(rmse_3d(res_wo.t, res_wo.err_3d, window))
            row["maxpct_with"].append(max_error_pct(res_w.t, res_w.err_3d, res_w.arc_m, window))
            row["maxpct_without"].append(
                max_error_pct(res_wo.t, res_wo.err_3d, res_wo.arc_m, window)
            )
            if row["distance_m"] is None:
                arc0 = float(np.interp(t0, res_w.t, res_w.arc_m))
                arc1 = float(np.interp(t1, res_w.t, res_w.arc_m))
                row["distance_m"] = arc1 - arc0
        cases.append(row)
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
    run_outage_sweep, NEES is skipped.
    """
    imu_err = imu_err or _sweep_imu_err()
    rates = rates or _SWEEP_RATES
    scenario = ring_scenario(speed_mps=speed_mps)
    outages = [OutageWindow(*outage)] if outage is not None else []
    cells = []
    for vr in var_ranges:
        for va in var_angles:
            cell = {
                "var_range_m2": float(vr),
                "var_angle_deg2": float(va),
                "rmse_with_m": [],
                "rmse_without_m": [],
            }
            for seed in seeds:
                setup = RunSetup(
                    scenario=scenario,
                    duration_s=duration_s,
                    seed=int(seed),
                    rates=rates,
                    noise=NoiseCfg(var_range_m2=float(vr), var_angle_deg2=float(va)),
                    imu_err=imu_err,
                    outages=list(outages),
                    compute_nees=False,
                )
                res_w, res_wo = run_pair(setup)
                cell["rmse_with_m"].append(rmse_3d(res_w.t, res_w.err_3d))
                cell["rmse_without_m"].append(rmse_3d(res_wo.t, res_wo.err_3d))
            cells.append(cell)
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
    """Free-inertial drift ensemble: final position error vs bias scale."""
    from .ins import drift_profile

    base = imu_err or ImuErrorModel(bias_mode="fixed_magnitude")
    scenario = ring_scenario(speed_mps=speed_mps)
    times = np.arange(int(round(duration_s * rate_hz)) + 1) / rate_hz
    truth = trajectory_poses(scenario.trajectory, times)
    rows = []
    for scale in bias_scales:
        err_model = ImuErrorModel(
            gyro_bias_std=base.gyro_bias_std * scale,
            accel_bias_std=base.accel_bias_std * scale,
            gyro_noise_density=base.gyro_noise_density,
            accel_noise_density=base.accel_noise_density,
            bias_mode=base.bias_mode,
        )
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
    path = Path(path)
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row width does not match header")
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_manifest(path, config_echo: dict, extra: dict | None = None):
    import numpy
    import scipy

    from . import __version__

    body = {
        "package_version": __version__,
        "numpy_version": numpy.__version__,
        "scipy_version": scipy.__version__,
        "config": config_echo,
    }
    if extra:
        body.update(extra)
    Path(path).write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")


def write_single_run(outdir, result, label="run"):
    """errors_<label>.csv, cdf_<label>.csv for one run; returns summary row."""
    outdir = Path(outdir)
    rows = [
        (t, ee, en, eu, e3)
        for t, (ee, en, eu), e3 in zip(result.t, result.err_enu, result.err_3d)
    ]
    write_csv(outdir / f"errors_{label}.csv", ("t", "ex", "ey", "ez", "e3d"), rows)
    e, p = error_cdf(result.err_3d)
    write_csv(outdir / f"cdf_{label}.csv", ("e3d", "cdf"), list(zip(e, p)))
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


def write_outage_sweep(outdir, sweep: dict):
    outdir = Path(outdir)
    med = np.median
    summary_rows = []
    seed_rows = []
    for c in sweep["cases"]:
        summary_rows.append(
            (
                c["case"],
                c["duration_s"],
                c["speed_mps"],
                c["distance_m"],
                med(c["rmse_without_m"]),
                med(c["maxpct_without"]),
                med(c["rmse_with_m"]),
                med(c["maxpct_with"]),
            )
        )
        for k, seed in enumerate(sweep["seeds"]):
            seed_rows.append(
                (
                    c["case"],
                    seed,
                    c["rmse_without_m"][k],
                    c["maxpct_without"][k],
                    c["rmse_with_m"][k],
                    c["maxpct_with"][k],
                )
            )
    write_csv(
        outdir / "summary.csv",
        (
            "case",
            "duration_s",
            "speed_mps",
            "distance_m",
            "rms_without_m",
            "pct_without",
            "rms_with_m",
            "pct_with",
        ),
        summary_rows,
    )
    write_csv(
        outdir / "seeds.csv",
        ("case", "seed", "rms_without_m", "pct_without", "rms_with_m", "pct_with"),
        seed_rows,
    )


def write_noise_sweep(outdir, sweep: dict):
    outdir = Path(outdir)
    summary_rows = []
    seed_rows = []
    for c in sweep["cells"]:
        summary_rows.append(
            (
                c["var_range_m2"],
                c["var_angle_deg2"],
                float(np.median(c["rmse_with_m"])),
                float(np.median(c["rmse_without_m"])),
            )
        )
        for k, seed in enumerate(sweep["seeds"]):
            seed_rows.append(
                (
                    c["var_range_m2"],
                    c["var_angle_deg2"],
                    seed,
                    c["rmse_with_m"][k],
                    c["rmse_without_m"][k],
                )
            )
    write_csv(
        outdir / "summary.csv",
        ("var_range_m2", "var_angle_deg2", "rmse_with_med_m", "rmse_without_med_m"),
        summary_rows,
    )
    write_csv(
        outdir / "seeds.csv",
        ("var_range_m2", "var_angle_deg2", "seed", "rmse_with_m", "rmse_without_m"),
        seed_rows,
    )


def write_drift_profile(outdir, sweep: dict):
    outdir = Path(outdir)
    summary_rows = [
        (r["bias_scale"], float(np.median(r["final_drift_m"]))) for r in sweep["rows"]
    ]
    seed_rows = [
        (r["bias_scale"], seed, r["final_drift_m"][k])
        for r in sweep["rows"]
        for k, seed in enumerate(sweep["seeds"])
    ]
    write_csv(outdir / "summary.csv", ("bias_scale", "median_drift_m"), summary_rows)
    write_csv(outdir / "seeds.csv", ("bias_scale", "seed", "final_drift_m"), seed_rows)
