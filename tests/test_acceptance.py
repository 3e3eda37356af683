"""Acceptance criteria for the whole pipeline, one test per criterion.

Each test prints a single PASS/FAIL line with the measured values so a run of
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
Thresholds and sample counts are part of the contract; do not shrink them to
make a failing build pass.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2

from helpers import (
    add_noise,
    los_columns,
    random_double_bounce,
    random_single_bounce,
    random_two_path_scene,
    sbr_columns,
    sbr_locus_residual,
    synth_los,
    synth_sbr,
)
from mpnav import quat
from mpnav.cli import EXIT_OK, main as cli_main
from mpnav.evaluate import run_noise_sweep, run_outage_sweep
from mpnav.fixes import los_fix, sbr_fix
from mpnav.fusion import update_position
from mpnav.gates import GateConfig, oori_check
from mpnav.ins import drift_profile, mechanize_arrays
from mpnav.pipeline import Rates, RunSetup, run
from mpnav.scene import mirror_point, ring_scenario, trajectory_poses
from mpnav.synth import ImuErrorModel, NoiseCfg, PathLossModel, synth_imu

PLM = PathLossModel()


def report(name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def still_pose(p):
    return SimpleNamespace(t=0.0, p=np.asarray(p, dtype=float), v=np.zeros(3), att=np.zeros(3))


def test_criterion_1_reflection_geometry():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = {"involution": 0.0, "length": 0.0, "specular": 0.0, "z_preserve": 0.0}
    for _ in range(1000):
        bs, ue, wall, path = random_single_bounce(rng)
        m = mirror_point(bs.p, wall)
        worst["involution"] = max(
            worst["involution"], float(np.max(np.abs(mirror_point(m, wall) - bs.p)))
        )
        worst["length"] = max(
            worst["length"], abs(path.length - float(np.linalg.norm(m - ue)))
        )
        n = wall.normal
        reflected = path.u_dep - 2.0 * float(path.u_dep @ n) * n
        worst["specular"] = max(
            worst["specular"], float(np.max(np.abs(reflected - (-path.u_arr))))
        )
        worst["z_preserve"] = max(worst["z_preserve"], abs(path.u_dep[2] + path.u_arr[2]))
    elapsed = time.perf_counter() - t0
    ok = (
        worst["involution"] < 1e-12
        and worst["length"] < 1e-9
        and worst["specular"] < 1e-9
        and worst["z_preserve"] < 1e-9
        and elapsed < 5.0
    )
    detail = (
        f"1000 scenes, worst involution {worst['involution']:.1e} (<1e-12), "
        f"length {worst['length']:.1e}, specular {worst['specular']:.1e}, "
        f"z-preservation {worst['z_preserve']:.1e} (each <1e-9), {elapsed:.2f}s (<5s)"
    )
    assert report("criterion 1 reflection geometry", ok, detail), detail


def test_criterion_2_solver_exactness():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_los = 0.0
    for _ in range(1000):
        bs, ue, _, _ = random_single_bounce(rng)
        fix = los_fix(*los_columns(bs, synth_los(bs, still_pose(ue), PLM)))
        worst_los = max(worst_los, float(np.linalg.norm(fix.p - ue)))
    worst_sbr = 0.0
    for _ in range(1000):
        scene, ue = random_two_path_scene(rng)
        pairs = [(bs, synth_sbr(path, still_pose(ue), PLM)) for bs, path in scene]
        fix = sbr_fix(*sbr_columns(pairs))
        assert fix is not None
        worst_sbr = max(worst_sbr, float(np.linalg.norm(fix.p - ue)))
    elapsed = time.perf_counter() - t0
    # same wall twice carries no new information; a wrong answer is worse
    # than no answer
    none_count = 0
    for _ in range(50):
        bs, ue, wall, path = random_single_bounce(rng)
        obs = synth_sbr(path, still_pose(ue), PLM)
        twin = synth_sbr(path, still_pose(ue), PLM)
        twin.toa += 1e-12
        degenerate = sbr_fix(*sbr_columns([(bs, obs), (bs, twin)]))
        if degenerate is None or np.linalg.norm(degenerate.p - ue) < 1e-3:
            none_count += 1
    ok = worst_los < 1e-9 and worst_sbr < 1e-6 and elapsed < 10.0 and none_count == 50
    detail = (
        f"1000+1000 noise-free scenes, worst direct fix {worst_los:.1e} m (<1e-9), "
        f"worst two-path fix {worst_sbr:.1e} m (<1e-6), {elapsed:.2f}s (<10s), "
        f"degenerate same-wall pairs never produced a wrong fix ({none_count}/50)"
    )
    assert report("criterion 2 solver exactness", ok, detail), detail


def test_criterion_3_bounce_order_screen():
    rng = np.random.default_rng(303)
    noise = NoiseCfg(var_range_m2=0.5, var_angle_deg2=0.01)
    cfg = GateConfig()
    t0 = time.perf_counter()
    ok_single = 0
    for _ in range(1000):
        bs, ue, _, path = random_single_bounce(rng)
        (obs,) = add_noise([synth_sbr(path, still_pose(ue), PLM)], noise, rng)
        if oori_check(obs.aod_el, obs.aoa_el, sbr_locus_residual(bs, obs, ue), cfg)[0]:
            ok_single += 1
    ok_double = 0
    for _ in range(1000):
        bs, ue, _, path = random_double_bounce(rng)
        (obs,) = add_noise([synth_sbr(path, still_pose(ue), PLM)], noise, rng)
        if not oori_check(obs.aod_el, obs.aoa_el, sbr_locus_residual(bs, obs, ue), cfg)[0]:
            ok_double += 1
    elapsed = time.perf_counter() - t0
    accuracy = (ok_single + ok_double) / 2000.0
    ok = accuracy >= 0.99
    detail = (
        f"singles admitted {ok_single}/1000, doubles rejected {ok_double}/1000, "
        f"accuracy {100*accuracy:.2f}% (>=99%), {elapsed:.1f}s"
    )
    assert report("criterion 3 bounce-order screen", ok, detail), detail


@pytest.mark.slow
def test_criterion_4_outage_sweep():
    t0 = time.perf_counter()
    sweep = run_outage_sweep()
    elapsed = time.perf_counter() - t0
    n_seeds = len(sweep["seeds"])
    frac_better = []
    frac_submeter = []
    med_with = []
    med_without = []
    for c in sweep["cases"]:
        w = np.array(c["rmse_with_m"])
        wo = np.array(c["rmse_without_m"])
        frac_better.append(float(np.mean(w < wo)))
        frac_submeter.append(float(np.mean(w < 1.0)))
        med_with.append(float(np.median(w)))
        med_without.append(float(np.median(wo)))
    wo20 = np.array(sweep["cases"][0]["rmse_without_m"])
    wo400 = np.array(sweep["cases"][-1]["rmse_without_m"])
    frac_grow = float(np.mean(wo400 > wo20))
    ok = (
        min(frac_better) >= 0.95
        and min(frac_submeter) >= 0.95
        and frac_grow >= 0.95
        and np.median(wo400) > np.median(wo20)
        and elapsed < 300.0
    )
    detail = (
        f"cases 20/40/60/200/400s x {n_seeds} seeds; aided<unaided per case "
        f"{[f'{v:.2f}' for v in frac_better]} (each >=0.95); aided sub-meter "
        f"{[f'{v:.2f}' for v in frac_submeter]} (each >=0.95); unaided grows "
        f"400s>20s in {frac_grow:.2f} of seeds (>=0.95); median aided "
        f"{[f'{v:.3f}' for v in med_with]} m vs unaided "
        f"{[f'{v:.1f}' for v in med_without]} m; {elapsed:.0f}s (<300s)"
    )
    assert report("criterion 4 outage sweep", ok, detail), detail


@pytest.mark.slow
def test_criterion_5_noise_sweep():
    t0 = time.perf_counter()
    sweep = run_noise_sweep()
    elapsed = time.perf_counter() - t0
    nr, na = len(sweep["var_ranges"]), len(sweep["var_angles"])
    med_w = np.empty((nr, na))
    med_wo = np.empty((nr, na))
    paired = []
    for cell in sweep["cells"]:
        i = sweep["var_ranges"].index(cell["var_range_m2"])
        j = sweep["var_angles"].index(cell["var_angle_deg2"])
        w = np.array(cell["rmse_with_m"])
        wo = np.array(cell["rmse_without_m"])
        med_w[i, j] = np.median(w)
        med_wo[i, j] = np.median(wo)
        paired.extend((w < wo).tolist())
    # 2 mm slack: near-flat grid directions wiggle at 20-seed median noise
    tol = 2e-3
    mono = (
        np.all(np.diff(med_w, axis=0) >= -tol)
        and np.all(np.diff(med_w, axis=1) >= -tol)
        and np.all(np.diff(med_wo, axis=0) >= -tol)
        and np.all(np.diff(med_wo, axis=1) >= -tol)
    )
    frac_paired = float(np.mean(paired))
    ok = (
        bool(mono)
        and np.all(med_w <= med_wo)
        and frac_paired >= 0.95
        and elapsed < 300.0
    )
    detail = (
        f"3x3 variance grid x {len(sweep['seeds'])} seeds; medians monotone in both "
        f"axes both arms (2 mm slack): {bool(mono)}; aided<=unaided every cell: "
        f"{bool(np.all(med_w <= med_wo))}; paired aided<unaided {100*frac_paired:.1f}% "
        f"(>=95%); aided medians {np.round(med_w.ravel(), 3).tolist()} m, unaided "
        f"{np.round(med_wo.ravel(), 3).tolist()} m; {elapsed:.0f}s (<300s)"
    )
    assert report("criterion 5 noise robustness", ok, detail), detail


@pytest.mark.slow
def test_criterion_6_filter_consistency():
    scenario = ring_scenario(speed_mps=8.0)
    rates = Rates(imu_hz=20.0, obs_hz=2.0, odo_hz=2.0)
    n_runs = 200
    t0 = time.perf_counter()
    nees = []
    finals = []
    worst_eig = np.inf
    setup = None
    for seed in range(n_runs):
        setup = RunSetup(scenario=scenario, duration_s=60.0, seed=seed, rates=rates)
        res = run(setup)
        nees.append(res.nees)
        finals.append(res.final_state)
        worst_eig = min(worst_eig, float(res.min_eig_p.min()))
    elapsed = time.perf_counter() - t0
    nees = np.stack(nees)
    lo = chi2.ppf(0.025, n_runs * 15) / n_runs
    hi = chi2.ppf(0.975, n_runs * 15) / n_runs
    epoch_mean = nees.mean(axis=0)
    inside = float(np.mean((epoch_mean >= lo) & (epoch_mean <= hi)))
    grand = float(nees.mean())

    # spoofed fixes 100 m off must all bounce off the innovation gate
    rng = np.random.default_rng(606)
    rejected = 0
    for fs in finals[:100]:
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        _, info = update_position(fs, fs.p + 100.0 * u, np.eye(3), setup.ukf)
        rejected += int(not info.accepted)

    ok = (
        lo <= grand <= hi
        and inside >= 0.95
        and worst_eig >= -1e-9
        and rejected == 100
    )
    detail = (
        f"{n_runs} runs x 60s: grand mean NEES {grand:.3f} in [{lo:.2f}, {hi:.2f}]; "
        f"epoch means inside band {100*inside:.1f}% (>=95%); min covariance "
        f"eigenvalue {worst_eig:.1e} (>=-1e-9); spoofed fixes rejected "
        f"{rejected}/100; {elapsed:.0f}s"
    )
    assert report("criterion 6 filter consistency", ok, detail), detail


def test_criterion_7_dead_reckoning():
    scenario = ring_scenario(speed_mps=8.0)
    times = np.arange(6001) / 100.0
    poses = trajectory_poses(scenario.trajectory, times)
    clean = ImuErrorModel(
        gyro_bias_std=0.0, accel_bias_std=0.0, gyro_noise_density=0.0, accel_noise_density=0.0
    )
    imu = synth_imu(poses, clean, 100.0, np.random.default_rng(0))
    zeros = np.zeros(3)
    p, _, _ = mechanize_arrays(
        poses[0].p,
        poses[0].v,
        quat.from_euler(*poses[0].att),
        zeros,
        zeros,
        imu.gyro,
        imu.accel,
        np.full(len(imu), 0.01),
    )
    round_trip = float(np.linalg.norm(p[-1] - poses[-1].p))

    biased = ImuErrorModel(bias_mode="fixed_magnitude")
    curves = []
    for seed in range(8):
        _, drift = drift_profile(poses, biased, 100.0, np.random.default_rng(seed))
        curves.append(drift)
    med = np.median(np.stack(curves), axis=0)
    grid = med[::500]  # every 5 s
    monotone = bool(np.all(np.diff(grid) >= 0.0)) and grid[-1] > grid[1] > 0.0

    ok = round_trip < 0.01 and monotone
    detail = (
        f"noiseless 60s round trip {round_trip*100:.3f} cm (<1 cm); biased drift "
        f"median monotone over 5s grid: {monotone}, final {grid[-1]:.1f} m"
    )
    assert report("criterion 7 dead reckoning", ok, detail), detail


MINI_SCENARIO = {
    "base_stations": [
        {"id": "bs0", "p_enu_m": [-50.0, 40.0, 25.0]},
        {"id": "bs1", "p_enu_m": [150.0, -60.0, 30.0]},
    ],
    "walls": [
        {
            "id": "w0",
            "a_en_m": [-30.0, 60.0],
            "b_en_m": [170.0, 60.0],
            "z0_m": 0.0,
            "height_m": 25.0,
        }
    ],
    "trajectory": {
        "kind": "waypoints",
        "points_enu_m": [[0.0, 0.0, 1.5], [200.0, 0.0, 1.5]],
        "speed_mps": 8.0,
    },
}

RERUN_CONFIGS = {
    "single": {
        "mode": "single",
        "duration_s": 20.0,
        "seed": 3,
        "rates": {"imu_hz": 20.0, "obs_hz": 2.0, "odo_hz": 2.0},
        "scenario": MINI_SCENARIO,
    },
    "outage": {
        "mode": "outage-sweep",
        "outage_sweep": {
            "durations_s": [8.0],
            "speeds_mps": [8.0],
            "seeds": [0, 1],
            "pre_s": 2.0,
            "post_s": 2.0,
            "rates": {"imu_hz": 20.0, "obs_hz": 2.0, "odo_hz": 2.0},
        },
    },
    "noise": {
        "mode": "noise-sweep",
        "noise_sweep": {
            "var_ranges_m2": [0.5],
            "var_angles_deg2": [0.01],
            "seeds": [0, 1],
            "duration_s": 10.0,
            "outage": None,
            "rates": {"imu_hz": 20.0, "obs_hz": 2.0, "odo_hz": 2.0},
        },
    },
    "drift": {
        "mode": "drift-profile",
        "drift_profile": {
            "bias_scales": [1.0, 2.0],
            "seeds": [0, 1],
            "duration_s": 10.0,
            "rate_hz": 20.0,
        },
    },
}


def test_criterion_8_reproducibility(tmp_path):
    mismatches = []
    for name, cfg in RERUN_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        dirs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            assert cli_main([str(cfg_path), "--output-dir", str(out)]) == EXIT_OK
            dirs.append(out)
        files_a = {p.name: p.read_bytes() for p in sorted(dirs[0].iterdir())}
        files_b = {p.name: p.read_bytes() for p in sorted(dirs[1].iterdir())}
        if sorted(files_a) != sorted(files_b):
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in files_a:
            if files_a[fname] != files_b[fname]:
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    detail = (
        "same-seed reruns byte-identical across all four run modes"
        if ok
        else f"differing outputs: {mismatches}"
    )
    assert report("criterion 8 reproducibility", ok, detail), detail
