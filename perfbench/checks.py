"""Correctness checks on the outputs of one benchmark run.

Every check here is computed apart from the program: geometry comes from
the ring preset's published layout, statistics from plain Python. Each
function returns a list of failure messages; an empty list means the
output passed. Nothing here imports mpnav, so a check cannot share a bug
with the code it checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

SPEED_OF_LIGHT = 299_792_458.0

# Two-sided tail of the chi-square band on normalized LoS range residuals.
# z = 3.719 is the standard normal 1e-4 quantile, so a correct run fails the
# band about twice in ten thousand draws.
_BAND_Z = 3.719


def ring_stations(n_bs=8, radius_m=318.0, height_m=20.0):
    """Base-station positions of the ring preset: evenly spaced, offset half
    a step from the wall vertices, heights staggered by 2 m in threes."""
    out = {}
    for k in range(n_bs):
        ang = 2.0 * math.pi * k / n_bs + math.pi / n_bs
        out[f"bs{k}"] = (radius_m * math.cos(ang), radius_m * math.sin(ang), height_m + 2.0 * (k % 3))
    return out


def circle_position(t, radius_m=160.0, speed_mps=8.0, z_m=1.5, phase_rad=0.0, ccw=True):
    """Vehicle position on the ring route at time t."""
    th = phase_rad + (1.0 if ccw else -1.0) * speed_mps / radius_m * t
    return (radius_m * math.cos(th), radius_m * math.sin(th), z_m)


def chi2_band(dof):
    """Wilson-Hilferty bounds of the chi-square distribution at _BAND_Z."""
    a = 2.0 / (9.0 * dof)
    lo = dof * (1.0 - a - _BAND_Z * math.sqrt(a)) ** 3
    hi = dof * (1.0 - a + _BAND_Z * math.sqrt(a)) ** 3
    return lo, hi


def read_log(path):
    """Measurement log records, one dict per non-empty line."""
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_summary(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one summary row, found {len(rows)}")
    return rows[0]


def file_digests(directory):
    """sha256 of every file directly inside directory, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
        if p.is_file()
    }


def rmse_from_errors_csv(path):
    with open(path, newline="") as f:
        e3d = [float(row["e3d"]) for row in csv.DictReader(f)]
    if not e3d:
        raise ValueError(f"{path}: no error rows")
    return math.sqrt(sum(e * e for e in e3d) / len(e3d))


def check_summary_rmse(errors_csv, summary, max_rmse_m=1.0):
    """The summary RMSE is the RMS of the per-epoch errors, and below max."""
    fails = []
    own = rmse_from_errors_csv(errors_csv)
    reported = float(summary["rmse_3d_m"])
    # errors_*.csv and summary.csv both carry 10 significant digits
    if not math.isclose(own, reported, rel_tol=1e-8, abs_tol=1e-12):
        fails.append(f"RMSE from {Path(errors_csv).name} is {own:.10g}, summary says {reported:.10g}")
    if not reported < max_rmse_m:
        fails.append(f"RMSE {reported:.4g} m is not below {max_rmse_m} m")
    return fails


def check_los_outside_outages(records, outages):
    """No LoS record falls inside any (closed) outage window."""
    inside = [
        r["t_s"]
        for r in records
        if r["kind"] == "los" and any(t0 <= r["t_s"] <= t1 for t0, t1 in outages)
    ]
    if inside:
        return [f"{len(inside)} LoS records inside outage windows {outages}, first at t={inside[0]}"]
    return []


def check_los_ranges(records, stations, position_at, var_range_m2):
    """Each LoS range c*rtt/2 agrees with the true station-to-vehicle
    distance: the sum of squared normalized residuals lies inside the
    chi-square band for as many degrees of freedom as there are records."""
    los = [r for r in records if r["kind"] == "los"]
    if not los:
        return ["log holds no LoS records"]
    stat = 0.0
    for r in los:
        rng = SPEED_OF_LIGHT * r["rtt_s"] / 2.0
        truth = math.dist(stations[r["bs_id"]], position_at(r["t_s"]))
        stat += (rng - truth) ** 2 / var_range_m2
    lo, hi = chi2_band(len(los))
    if not lo <= stat <= hi:
        return [
            f"LoS range residuals: chi-square {stat:.1f} over {len(los)} records "
            f"is outside [{lo:.1f}, {hi:.1f}]"
        ]
    return []


def check_los_count(records, summary):
    """The filter saw every LoS record of the log."""
    n_log = sum(1 for r in records if r["kind"] == "los")
    if int(summary["los_total"]) != n_log:
        return [f"los_total {summary['los_total']} != {n_log} LoS lines in the log"]
    return []


def check_los_accounting(summary):
    """Every LoS observation was admitted or rejected for one reason."""
    total = int(summary["los_total"])
    split = (
        int(summary["los_admitted"])
        + int(summary["los_rejected_consistency"])
        + int(summary["los_rejected_motion"])
    )
    if split != total:
        return [f"LoS admitted + rejected = {split} != los_total {total}"]
    return []


def check_outage_case(case, seed_index):
    """One case-seed pair of the outage sweep: reflections help, stay
    sub-meter, and the case covers speed x duration of travel."""
    fails = []
    w = case["rmse_with_m"][seed_index]
    wo = case["rmse_without_m"][seed_index]
    if not w < wo:
        fails.append(f"case {case['case']}: aided RMSE {w:.4g} m not below unaided {wo:.4g} m")
    if not w < 1.0:
        fails.append(f"case {case['case']}: aided RMSE {w:.4g} m not below 1 m")
    expected = case["speed_mps"] * case["duration_s"]
    if not math.isclose(case["distance_m"], expected, rel_tol=1e-3):
        fails.append(f"case {case['case']}: distance {case['distance_m']:.6g} m != {expected:.6g} m")
    return fails


def check_outage_growth(shortest, longest, seed_index):
    """Unaided error grows from the shortest outage to the longest."""
    a = shortest["rmse_without_m"][seed_index]
    b = longest["rmse_without_m"][seed_index]
    if not b > a:
        return [f"unaided RMSE {b:.4g} m at {longest['duration_s']} s not above {a:.4g} m at {shortest['duration_s']} s"]
    return []


def check_replay(summary, records, errors_csv, reference_csv, aided_rmse_m):
    """A LoS-only replay of a logged drive: it used every LoS line, no
    reflection, reproduces the in-memory run byte for byte, and does worse
    than the reflection-aided run of the same drive."""
    fails = check_los_count(records, summary)
    if int(summary["sbr_total"]) != 0:
        fails.append(f"sbr_total {summary['sbr_total']} != 0 with reflections off")
    if Path(errors_csv).read_bytes() != Path(reference_csv).read_bytes():
        fails.append(f"{Path(errors_csv).name} differs from the in-memory LoS-only run")
    rmse = float(summary["rmse_3d_m"])
    if not rmse > aided_rmse_m:
        fails.append(f"replay RMSE {rmse:.4g} m not above aided RMSE {aided_rmse_m:.4g} m")
    return fails
