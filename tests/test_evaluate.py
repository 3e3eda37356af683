"""Metrics and deterministic result writers."""

import dataclasses
import json
import math

import numpy as np
import pytest

from mpnav import evaluate
from mpnav.evaluate import (
    error_cdf,
    max_error_pct,
    rmse_3d,
    run_drift_profile,
    run_noise_sweep,
    run_outage_sweep,
    write_csv,
    write_manifest,
    write_sweep,
)


def test_rmse_3d_basic():
    t = np.array([0.0, 1.0])
    assert rmse_3d(t, [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
    assert rmse_3d(t, [2.0, 2.0]) == pytest.approx(2.0)


def test_rmse_3d_window_selects():
    t = np.arange(5.0)
    e = np.array([10.0, 1.0, 1.0, 1.0, 10.0])
    assert rmse_3d(t, e, (1.0, 3.0)) == pytest.approx(1.0)
    # window edges are inclusive with tolerance
    assert rmse_3d(t, e, (1.0 + 1e-12, 3.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rmse_3d(t, e, (10.0, 11.0))


def test_max_error_pct_basic():
    t = np.array([0.0, 1.0])
    arc = np.array([0.0, 100.0])
    assert max_error_pct(t, [0.5, 1.0], arc) == pytest.approx(1.0)
    # the denominator is travel inside the window, not total travel
    t = np.arange(3.0)
    arc = np.array([0.0, 100.0, 200.0])
    assert max_error_pct(t, [1.0, 2.0, 3.0], arc, (1.0, 2.0)) == pytest.approx(3.0)


def test_max_error_pct_rejects_zero_travel():
    t = np.array([0.0, 1.0])
    arc = np.array([5.0, 5.0])
    with pytest.raises(ValueError):
        max_error_pct(t, [1.0, 1.0], arc)


def test_error_cdf_shape():
    e, p = error_cdf([3.0, 1.0, 2.0, 2.0])
    assert np.array_equal(e, [1.0, 2.0, 2.0, 3.0])
    assert p == pytest.approx([0.25, 0.5, 0.75, 1.0])
    assert p[-1] == 1.0
    assert np.all(np.diff(e) >= 0.0)
    with pytest.raises(ValueError):
        error_cdf([])


def test_fmt_and_write_csv(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ("a", "b", "c"), [(1, 2.5, "s"), (True, 1e-11, 0.1)])
    text = path.read_text()
    assert text == "a,b,c\n1,2.5,s\n1,1e-11,0.1\n"
    with pytest.raises(ValueError):
        write_csv(path, ("a",), [(1, 2)])


def test_write_manifest_versions(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, {"k": 1}, {"mode": "single", "seed": 3})
    body = json.loads(path.read_text())
    assert body["config"] == {"k": 1}
    assert body["mode"] == "single"
    assert body["seed"] == 3
    for key in ("package_version", "numpy_version", "scipy_version"):
        assert isinstance(body[key], str) and body[key]
    # deterministic serialization: sorted keys, trailing newline
    assert path.read_text().endswith("\n")
    assert list(body) == sorted(body)


def test_drift_profile_sweep_scales(tmp_path):
    sweep = run_drift_profile(
        bias_scales=(1.0, 4.0), seeds=(0, 1, 2), duration_s=20.0, rate_hz=20.0
    )
    again = run_drift_profile(
        bias_scales=(1.0, 4.0), seeds=(0, 1, 2), duration_s=20.0, rate_hz=20.0
    )
    assert sweep == again
    med = [np.median(r["final_drift_m"]) for r in sweep["rows"]]
    assert med[1] > med[0] > 0.0
    write_sweep(tmp_path, sweep)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "bias_scale,median_drift_m"
    assert len(lines) == 3
    lines = (tmp_path / "seeds.csv").read_text().splitlines()
    assert lines[0] == "bias_scale,seed,final_drift_m"
    assert len(lines) == 7


def read_lines(outdir):
    return [(outdir / name).read_text().splitlines() for name in ("summary.csv", "seeds.csv")]


def test_write_outage_sweep_schema(tmp_path):
    sweep = {
        "mode": "outage-sweep",
        "seeds": [0, 1],
        "cases": [
            {
                "case": 0,
                "duration_s": 20.0,
                "speed_mps": 9.8,
                "distance_m": 196.0,
                "rmse_with_m": [0.1, 0.3],
                "rmse_without_m": [2.0, 4.0],
                "maxpct_with": [0.2, 0.4],
                "maxpct_without": [3.0, 5.0],
            },
            {
                "case": 1,
                "duration_s": 40.0,
                "speed_mps": 9.4,
                "distance_m": 376.0,
                "rmse_with_m": [0.5, 0.7],
                "rmse_without_m": [6.0, 8.0],
                "maxpct_with": [0.6, 0.8],
                "maxpct_without": [7.0, 9.0],
            },
        ],
    }
    write_sweep(tmp_path, sweep)
    summary, seeds = read_lines(tmp_path)
    assert summary == [
        "case,duration_s,speed_mps,distance_m,rms_without_m,pct_without,rms_with_m,pct_with",
        "0,20,9.8,196,3,4,0.2,0.3",
        "1,40,9.4,376,7,8,0.6,0.7",
    ]
    assert seeds == [
        "case,seed,rms_without_m,pct_without,rms_with_m,pct_with",
        "0,0,2,3,0.1,0.2",
        "0,1,4,5,0.3,0.4",
        "1,0,6,7,0.5,0.6",
        "1,1,8,9,0.7,0.8",
    ]


def test_write_noise_sweep_schema(tmp_path):
    sweep = {
        "mode": "noise-sweep",
        "seeds": [0, 1],
        "var_ranges": [0.5, 2.0],
        "var_angles": [0.01, 0.05],
        "cells": [
            {
                "var_range_m2": 0.5,
                "var_angle_deg2": 0.01,
                "rmse_with_m": [0.1, 0.2],
                "rmse_without_m": [1.0, 3.0],
            },
            {
                "var_range_m2": 2.0,
                "var_angle_deg2": 0.05,
                "rmse_with_m": [0.3, 0.5],
                "rmse_without_m": [4.0, 6.0],
            },
        ],
    }
    write_sweep(tmp_path, sweep)
    summary, seeds = read_lines(tmp_path)
    assert summary == [
        "var_range_m2,var_angle_deg2,rmse_with_med_m,rmse_without_med_m",
        "0.5,0.01,0.15,2",
        "2,0.05,0.4,5",
    ]
    assert seeds == [
        "var_range_m2,var_angle_deg2,seed,rmse_with_m,rmse_without_m",
        "0.5,0.01,0,0.1,1",
        "0.5,0.01,1,0.2,3",
        "2,0.05,0,0.3,4",
        "2,0.05,1,0.5,6",
    ]


def test_write_drift_profile_schema(tmp_path):
    sweep = {
        "mode": "drift-profile",
        "seeds": [3, 5],
        "rows": [
            {"bias_scale": 1.0, "final_drift_m": [2.0, 4.0]},
            {"bias_scale": 0.5, "final_drift_m": [8.0, 12.5]},
        ],
    }
    write_sweep(tmp_path, sweep)
    summary, seeds = read_lines(tmp_path)
    assert summary == ["bias_scale,median_drift_m", "1,3", "0.5,10.25"]
    assert seeds == [
        "bias_scale,seed,final_drift_m",
        "1,3,2",
        "1,5,4",
        "0.5,3,8",
        "0.5,5,12.5",
    ]


@pytest.mark.parametrize(
    "runner, kwargs, needle",
    [
        (run_outage_sweep, dict(durations=[2.0, 4.0], speeds=[8.0]), "pair up"),
        (run_outage_sweep, dict(durations=[2.0, 4.0], speeds=[8.0, 0.0]), "speeds must be > 0"),
        (run_outage_sweep, dict(durations=[2.0, 0.0], speeds=[8.0, 8.0]), "durations must be > 0"),
        (run_noise_sweep, dict(var_ranges=[0.5, -1.0]), "variances must be >= 0"),
        (run_noise_sweep, dict(var_angles=[0.01, -0.01]), "variances must be >= 0"),
        (run_drift_profile, dict(bias_scales=[1.0, -1.0]), "bias_scales must be >= 0"),
    ],
    ids=[
        "unpaired",
        "speed_zero",
        "duration_zero",
        "var_range_negative",
        "var_angle_negative",
        "bias_scale_negative",
    ],
)
def test_sweep_arguments_are_checked_before_the_first_run(monkeypatch, runner, kwargs, needle):
    runs = []
    monkeypatch.setattr(evaluate, "run_pair", lambda *a, **k: runs.append(a))
    monkeypatch.setattr(evaluate, "drift_profile", lambda *a, **k: runs.append(a))
    with pytest.raises(ValueError, match=needle):
        runner(seeds=(0, 1), **kwargs)
    assert runs == []


def test_sweeps_skip_nees_and_keep_their_rmse(monkeypatch):
    # the sweeps read no NEES, so their runs skip it; forcing it on in a
    # second pass shows that it moves no RMSE
    asked, computed, force = [], [], []
    run_pair = evaluate.run_pair

    def spy(setup):
        asked.append(setup.compute_nees)
        if force:
            setup = dataclasses.replace(setup, compute_nees=True)
        res_w, res_wo = run_pair(setup)
        computed.append(bool(np.isfinite(res_w.nees).any()))
        return res_w, res_wo

    monkeypatch.setattr(evaluate, "run_pair", spy)
    outage = dict(durations=[2.0], speeds=[8.0], seeds=(0, 1), pre_s=2.0, post_s=1.0)
    noise = dict(var_ranges=[0.5], var_angles=[0.01], seeds=(0, 1), duration_s=3.0)
    for sweep, kwargs in ((run_outage_sweep, outage), (run_noise_sweep, noise)):
        asked.clear()
        computed.clear()
        force.clear()
        skipped = sweep(**kwargs)
        force.append(True)
        with_nees = sweep(**kwargs)
        assert asked == [False, False, False, False]
        assert computed == [False, False, True, True]
        assert skipped == with_nees
