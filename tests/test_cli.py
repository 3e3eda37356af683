"""Command line interface: modes, exit codes, output determinism."""

import json
import math

import pytest

from mpnav import evaluate
from mpnav.cli import EXIT_CONFIG, EXIT_GEOMETRY, EXIT_NUMERIC, EXIT_OK, main

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


def mini_config(**overrides):
    cfg = {
        "mode": "single",
        "duration_s": 20.0,
        "seed": 1,
        "rates": {"imu_hz": 20.0, "obs_hz": 2.0, "odo_hz": 2.0},
        "scenario": MINI_SCENARIO,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_summary(outdir):
    lines = (outdir / "summary.csv").read_text().splitlines()
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_single_mode_end_to_end(tmp_path):
    cfg = write_config(tmp_path, mini_config())
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_OK
    summary = read_summary(out)
    assert summary["label"] == "with"
    assert float(summary["rmse_3d_m"]) < 0.5
    assert int(summary["n_epochs"]) == 40
    assert (out / "errors_with.csv").read_text().splitlines()[0] == "t,ex,ey,ez,e3d"
    assert (out / "cdf_with.csv").read_text().splitlines()[0] == "e3d,cdf"
    assert (out / "measurements.jsonl").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "single"
    assert manifest["seed"] == 1
    assert manifest["config"]["duration_s"] == 20.0
    assert "output_dir" not in manifest["config"]


def test_missing_config_file(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([str(tmp_path / "absent.json"), "--output-dir", str(out)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_json_and_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main([str(bad), "--output-dir", str(out)]) == EXIT_CONFIG
    cfg = write_config(tmp_path, mini_config(typo_key=1))
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    cfg2 = write_config(tmp_path, mini_config(mode="nonsense"), "m.json")
    assert main([str(cfg2), "--output-dir", str(out)]) == EXIT_CONFIG
    # a failed run must leave no partial products
    assert not out.exists()


def test_geometry_failure_exits_3(tmp_path):
    scen = json.loads(json.dumps(MINI_SCENARIO))
    scen["base_stations"][1]["id"] = "bs0"
    cfg = write_config(tmp_path, mini_config(scenario=scen))
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_GEOMETRY
    assert not out.exists()


def test_route_through_a_station_exits_3(tmp_path, capsys):
    # at t = 1 s, an epoch, the UE sits on the station: no direct path
    scen = {
        "base_stations": [{"id": "bs0", "p_enu_m": [0.0, 0.0, 1.5]}],
        "walls": [],
        "trajectory": {
            "kind": "waypoints",
            "points_enu_m": [[-10.0, 0.0, 1.5], [30.0, 0.0, 1.5]],
            "speed_mps": 10.0,
        },
    }
    cfg = write_config(tmp_path, mini_config(duration_s=4.0, scenario=scen))
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_GEOMETRY
    assert "UE and BS positions coincide" in capsys.readouterr().err
    assert not out.exists()


def test_run_with_one_imu_sample_exits_2(tmp_path, capsys):
    rates = {"imu_hz": 10.0, "obs_hz": 10.0, "odo_hz": 10.0}
    cfg = write_config(tmp_path, mini_config(duration_s=0.1, rates=rates))
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    assert "run too short for two IMU samples" in capsys.readouterr().err
    assert not out.exists()


def edited_scenario(edit):
    scen = json.loads(json.dumps(MINI_SCENARIO))
    edit(scen)
    return scen


@pytest.mark.parametrize(
    "scenario, where, key",
    [
        (edited_scenario(lambda s: s.update(colour="grey")), "scenario", "colour"),
        (edited_scenario(lambda s: s["base_stations"][1].update(height_m=25)), "base_stations[1]", "height_m"),
        (edited_scenario(lambda s: s["walls"][0].update(heigth_m=25)), "walls[0]", "heigth_m"),
        (edited_scenario(lambda s: s["walls"][0].update(reflection_loss_db=20)), "walls[0]", "reflection_loss_db"),
        (edited_scenario(lambda s: s["trajectory"].update(z_m=3.0)), "waypoints trajectory", "z_m"),
        # nothing reads a scenario name
        (edited_scenario(lambda s: s.update(name="mini-line")), "scenario", "name"),
    ],
    ids=["top_level", "station", "wall_typo", "wall_reflection_loss", "trajectory", "name"],
)
def test_unknown_scenario_key_exits_3(tmp_path, capsys, scenario, where, key):
    cfg = write_config(tmp_path, mini_config(scenario=scenario))
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_GEOMETRY
    err = capsys.readouterr().err
    assert f"bad scenario structure: {where}: unknown keys ['{key}']" in err
    assert not out.exists()


CIRCLE = {"kind": "circle", "center_en_m": [50.0, 0.0], "radius_m": 40.0, "speed_mps": 8.0, "z_m": 1.5}
SAMPLES = {
    "kind": "samples",
    "t_s": [0.0, 10.0, 20.0],
    "p_enu_m": [[0.0, 0.0, 1.5], [80.0, 0.0, 1.5], [160.0, 0.0, 1.5]],
}


def with_trajectory(trajectory, **values):
    return edited_scenario(lambda s: s.update(trajectory=dict(trajectory, **values)))


@pytest.mark.parametrize(
    "scenario",
    [
        with_trajectory(CIRCLE, radius_m="x"),
        with_trajectory(CIRCLE, center_en_m=[0]),
        with_trajectory(CIRCLE, speed_mps="fast"),
        with_trajectory(CIRCLE, speed_mps=float("inf")),
        with_trajectory(CIRCLE, ccw="no"),
        with_trajectory(MINI_SCENARIO["trajectory"], points_enu_m="abc"),
        with_trajectory(MINI_SCENARIO["trajectory"], points_enu_m=[[0.0, 0.0, 1.5], [float("nan"), 0.0, 1.5]]),
        with_trajectory(SAMPLES, v_enu_mps=[[1, 0]]),
        edited_scenario(lambda s: s["walls"][0].update(z0_m="a")),
        edited_scenario(lambda s: s["base_stations"][0].update(p_enu_m=[1, 2])),
    ],
    ids=[
        "circle_radius_string",
        "circle_center_one_number",
        "circle_speed_string",
        "circle_speed_infinite",
        "circle_ccw_string",
        "waypoints_string",
        "waypoint_nan",
        "samples_velocity_two_columns",
        "wall_base_string",
        "station_two_numbers",
    ],
)
def test_bad_scenario_value_exits_3(tmp_path, capsys, scenario):
    # json.dumps writes NaN and Infinity, which the config reader accepts
    cfg = write_config(tmp_path, mini_config(duration_s=2.0, scenario=scenario))
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_GEOMETRY
    err = capsys.readouterr().err
    assert err.startswith("geometry error:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("trajectory", [CIRCLE, SAMPLES], ids=["circle", "samples"])
def test_scenario_value_cases_start_from_a_valid_scenario(tmp_path, trajectory):
    cfg = write_config(tmp_path, mini_config(duration_s=2.0, scenario=with_trajectory(trajectory)))
    assert main([str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_OK


def test_numeric_failure_exits_4(tmp_path):
    cfg = write_config(tmp_path, mini_config())
    out1 = tmp_path / "out1"
    assert main([str(cfg), "--output-dir", str(out1)]) == EXIT_OK
    # poison one IMU sample with a finite but absurd specific force (the log
    # reader refuses non-finite numbers); the filter must notice, not write
    # garbage
    log = tmp_path / "broken.jsonl"
    lines = (out1 / "measurements.jsonl").read_text().splitlines()
    poisoned = False
    fixed = []
    for line in lines:
        d = json.loads(line)
        if not poisoned and d["kind"] == "imu":
            d["accel_mps2"] = [1e100] * 3
            poisoned = True
        fixed.append(json.dumps(d))
    log.write_text("\n".join(fixed) + "\n")
    cfg2 = write_config(tmp_path, mini_config(measurement_log="broken.jsonl"), "ingest.json")
    out2 = tmp_path / "out2"
    assert main([str(cfg2), "--output-dir", str(out2)]) == EXIT_NUMERIC
    assert not out2.exists()


def edited_lines(tmp_path, edit):
    """Write the mini run's measurement log with its lines passed through
    edit(lines); returns the path of an ingest config for it."""
    cfg = write_config(tmp_path, mini_config())
    out = tmp_path / "src_run"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_OK
    lines = (out / "measurements.jsonl").read_text().splitlines()
    (tmp_path / "edited.jsonl").write_text("\n".join(edit(lines)) + "\n")
    return write_config(tmp_path, mini_config(measurement_log="edited.jsonl"), "ingest.json")


def edited_log(tmp_path, keep):
    """The mini run's measurement log with only the records keep() accepts."""
    return edited_lines(
        tmp_path, lambda lines: [line for i, line in enumerate(lines) if keep(i, json.loads(line))]
    )


def first_of_kind(lines, kind):
    return next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)


def test_log_with_wrong_imu_count_exits_2(tmp_path, capsys):
    # the log opens with the IMU stream: drop its first sample
    cfg = edited_log(tmp_path, lambda i, d: i > 0)
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    assert "IMU samples" in capsys.readouterr().err
    assert not out.exists()


def reversed_kind(lines, kind):
    """lines with the records of one kind in reverse order, each kind in
    its own places."""
    at = [i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind]
    out = list(lines)
    for i, j in zip(at, reversed(at)):
        out[i] = lines[j]
    return out


def shifted_imu(lines, dt):
    out = []
    for line in lines:
        d = json.loads(line)
        if d["kind"] == "imu":
            d["t_s"] += dt
        out.append(json.dumps(d))
    return out


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda lines: reversed_kind(lines, "imu"), "IMU sample 0 has t_s 19.95"),
        (lambda lines: shifted_imu(lines, 100.0), "IMU sample 0 has t_s 100.0"),
        (lambda lines: reversed_kind(lines, "odo"), "odometer record 1 has t_s"),
    ],
    ids=["imu_reversed", "imu_shifted_100_s", "odo_reversed"],
)
def test_log_with_imu_or_odometer_times_off_exits_2(tmp_path, capsys, edit, needle):
    # the filter steps by the scenario's sample times and looks odometer
    # speeds up by time, so a log whose IMU times differ from them or whose
    # odometer times go back cannot feed it
    cfg = edited_lines(tmp_path, edit)
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert not out.exists()


def edited_radio(lines, kind, values, first_only):
    """lines with the given values set in the first record of one radio
    kind, or in every one."""
    out = list(lines)
    for i in [i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind]:
        out[i] = json.dumps(dict(json.loads(lines[i]), **values))
        if first_only:
            break
    return out


@pytest.mark.parametrize(
    "edit, needle",
    [
        (
            lambda lines: edited_radio(lines, "los", {"rtt_s": -1e-9, "rss_dbm": 0.0}, True),
            "LoS record 0 has rtt_s -1e-09",
        ),
        (
            lambda lines: edited_radio(lines, "los", {"rtt_s": 0.0, "rss_dbm": 10.0}, True),
            "LoS record 0 has rtt_s 0.0",
        ),
        (
            lambda lines: edited_radio(lines, "sbr", {"toa_s": -1e-6}, False),
            "SBR record 0 has toa_s -1e-06",
        ),
        (
            lambda lines: edited_radio(lines, "sbr", {"toa_s": 0.0}, True),
            "SBR record 0 has toa_s 0.0",
        ),
    ],
    ids=["los_rtt_negative", "los_rtt_zero", "sbr_toa_all_negative", "sbr_toa_zero"],
)
def test_log_with_non_positive_travel_time_exits_2(tmp_path, capsys, edit, needle):
    # a travel time is a path length over c: the LoS fix and the bounce
    # screen cannot place a station at zero or negative range
    cfg = edited_lines(tmp_path, edit)
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_log_without_odometer_exits_2(tmp_path, capsys):
    cfg = edited_log(tmp_path, lambda i, d: d["kind"] != "odo")
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    assert "odometer" in capsys.readouterr().err
    assert not out.exists()


def assert_bad_log(tmp_path, capsys, cfg, *needles):
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    for needle in needles:
        assert needle in err
    assert not out.exists()


def test_log_with_truncated_last_line_exits_2(tmp_path, capsys):
    cfg = edited_lines(tmp_path, lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
    n = len((tmp_path / "edited.jsonl").read_text().splitlines())
    assert_bad_log(tmp_path, capsys, cfg, f"line {n}:")


def test_log_with_sbr_record_without_toa_exits_2(tmp_path, capsys):
    def drop_toa(lines):
        k = first_of_kind(lines, "sbr")
        d = json.loads(lines[k])
        del d["toa_s"]
        return lines[:k] + [json.dumps(d)] + lines[k + 1 :]

    cfg = edited_lines(tmp_path, drop_toa)
    k = first_of_kind((tmp_path / "edited.jsonl").read_text().splitlines(), "sbr")
    assert_bad_log(tmp_path, capsys, cfg, f"line {k + 1}:", "toa_s")


def test_log_with_non_finite_number_exits_2(tmp_path, capsys):
    # NaN in one gyro sample: refused at ingest, naming the record's line
    def poison(lines):
        d = json.loads(lines[3])
        assert d["kind"] == "imu"
        d["gyro_rps"][1] = float("nan")
        return lines[:3] + [json.dumps(d)] + lines[4:]

    cfg = edited_lines(tmp_path, poison)
    assert_bad_log(tmp_path, capsys, cfg, "line 4:", "gyro_rps")


def test_log_with_out_of_range_integer_exits_2(tmp_path, capsys):
    # an odometer speed no float can hold: refused at ingest, not a traceback
    def enlarge(lines):
        k = first_of_kind(lines, "odo")
        d = dict(json.loads(lines[k]), speed_mps=10**400)
        return lines[:k] + [json.dumps(d)] + lines[k + 1 :]

    cfg = edited_lines(tmp_path, enlarge)
    k = first_of_kind((tmp_path / "edited.jsonl").read_text().splitlines(), "odo")
    assert_bad_log(tmp_path, capsys, cfg, f"line {k + 1}:")


def test_log_with_unknown_base_station_exits_2(tmp_path, capsys):
    def rename(lines):
        out = []
        for line in lines:
            d = json.loads(line)
            if d.get("bs_id") == "bs1":
                d["bs_id"] = "bs9"
            out.append(json.dumps(d))
        return out

    cfg = edited_lines(tmp_path, rename)
    assert_bad_log(tmp_path, capsys, cfg, "bs9")


def test_empty_outage_list_means_no_outage(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([str(write_config(tmp_path, mini_config())), "--output-dir", str(out1)]) == EXIT_OK
    cfg = write_config(tmp_path, mini_config(outages=[]), "empty.json")
    assert main([str(cfg), "--output-dir", str(out2)]) == EXIT_OK
    assert (out1 / "errors_with.csv").read_bytes() == (out2 / "errors_with.csv").read_bytes()
    bad = write_config(tmp_path, mini_config(outages={}), "bad.json")
    assert main([str(bad), "--output-dir", str(tmp_path / "c")]) == EXIT_CONFIG


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, mini_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([str(cfg), "--output-dir", str(out1)]) == EXIT_OK
    assert main([str(cfg), "--output-dir", str(out2)]) == EXIT_OK
    t1, t2 = tree_bytes(out1), tree_bytes(out2)
    assert sorted(t1) == sorted(t2)
    for name in t1:
        assert t1[name] == t2[name], name


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path, mini_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([str(cfg), "--output-dir", str(out1)]) == EXIT_OK
    assert main([str(cfg), "--output-dir", str(out2), "--seed", "5"]) == EXIT_OK
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m2["seed"] == 5
    assert m2["config"]["seed_override"] == 5
    assert (out1 / "errors_with.csv").read_bytes() != (out2 / "errors_with.csv").read_bytes()


def test_output_dir_precedence(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    from_cfg = tmp_path / "from_cfg"
    cfg = write_config(cfg_dir, mini_config(output_dir=str(from_cfg)))
    assert main([str(cfg)]) == EXIT_OK
    assert (from_cfg / "summary.csv").is_file()
    from_env = tmp_path / "from_env"
    monkeypatch.setenv("MPNAV_OUTPUT_DIR", str(from_env))
    assert main([str(cfg)]) == EXIT_OK
    assert (from_env / "summary.csv").is_file()
    from_flag = tmp_path / "from_flag"
    assert main([str(cfg), "--output-dir", str(from_flag)]) == EXIT_OK
    assert (from_flag / "summary.csv").is_file()


def test_measurement_log_ingestion_reproduces_run(tmp_path):
    cfg = write_config(tmp_path, mini_config())
    out1 = tmp_path / "out1"
    assert main([str(cfg), "--output-dir", str(out1)]) == EXIT_OK
    cfg2 = write_config(
        tmp_path, mini_config(measurement_log="out1/measurements.jsonl"), "ingest.json"
    )
    out2 = tmp_path / "out2"
    assert main([str(cfg2), "--output-dir", str(out2)]) == EXIT_OK
    assert (out1 / "errors_with.csv").read_bytes() == (out2 / "errors_with.csv").read_bytes()
    # an ingested run does not re-emit its input
    assert not (out2 / "measurements.jsonl").exists()


@pytest.mark.parametrize("with_sbr", [True, False])
def test_log_replay_applies_the_outages(tmp_path, with_sbr):
    # a log of a run without outages, replayed with a window, equals the
    # run synthesized with that window: its LoS records are dropped the same
    ring = dict(RING_3S, duration_s=4, with_sbr=with_sbr)
    window = {"outages": [[1.0, 3.0]]}
    runs = {
        "log": ring,
        "synth": dict(ring, **window),
        "replay": dict(ring, **window, measurement_log="log/measurements.jsonl"),
    }
    for name, cfg in runs.items():
        assert main([str(write_config(tmp_path, cfg, f"{name}.json")), "--output-dir", str(tmp_path / name)]) == EXIT_OK
    synth, replay = tree_bytes(tmp_path / "synth"), tree_bytes(tmp_path / "replay")
    for files in (synth, replay):
        files.pop("manifest.json")
    synth.pop("measurements.jsonl")
    assert replay == synth
    counts = read_summary(tmp_path / "replay")
    assert int(counts["los_total"]) < int(read_summary(tmp_path / "log")["los_total"])


def test_without_sbr_label(tmp_path):
    cfg = write_config(tmp_path, mini_config(with_sbr=False))
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_OK
    summary = read_summary(out)
    assert summary["label"] == "without"
    assert (out / "errors_without.csv").is_file()


def test_outage_sweep_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        {
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
    )
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_OK
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == (
        "case,duration_s,speed_mps,distance_m,"
        "rms_without_m,pct_without,rms_with_m,pct_with"
    )
    assert len(lines) == 2
    seed_lines = (out / "seeds.csv").read_text().splitlines()
    assert len(seed_lines) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [0, 1]


def test_noise_sweep_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        {
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
    )
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_OK
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "var_range_m2,var_angle_deg2,rmse_with_med_m,rmse_without_med_m"
    assert len(lines) == 2


def test_drift_profile_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "mode": "drift-profile",
            "drift_profile": {
                "bias_scales": [1.0, 2.0],
                "seeds": [0, 1],
                "duration_s": 10.0,
                "rate_hz": 20.0,
            },
        },
    )
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_OK
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "bias_scale,median_drift_m"
    assert len(lines) == 3
    d1 = float(lines[1].split(",")[1])
    d2 = float(lines[2].split(",")[1])
    assert 0.0 < d1 < d2


def test_output_dir_under_a_regular_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, mini_config(duration_s=2.0))
    (tmp_path / "plain").write_text("not a directory\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([str(cfg), "--output-dir", str(tmp_path / "plain" / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("output error:")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_failed_write_leaves_no_partial_output(tmp_path, monkeypatch, capsys):
    import mpnav.cli

    def failing_log_writer(path, ms):
        path.write_text("partial\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(mpnav.cli, "write_measurement_log", failing_log_writer)
    cfg = write_config(tmp_path, mini_config(duration_s=2.0))
    before = sorted(p.name for p in tmp_path.iterdir())
    # the CSVs are written before the log fails; nothing may stay behind,
    # neither the target, nor its new parents, nor a temporary directory
    out = tmp_path / "new_parent" / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    # into an existing directory: its files stay as they were
    out = tmp_path / "existing"
    out.mkdir()
    (out / "summary.csv").write_text("old\n")
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []
    assert tree_bytes(out) == {"summary.csv": b"old\n"}


def test_rerun_into_existing_directory_replaces_files(tmp_path):
    cfg = write_config(tmp_path, mini_config(duration_s=2.0))
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.csv").write_text("old\n")
    (out / "notes.txt").write_text("kept\n")
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_OK
    fresh = tmp_path / "fresh"
    assert main([str(cfg), "--output-dir", str(fresh)]) == EXIT_OK
    files = tree_bytes(out)
    assert files.pop("notes.txt") == b"kept\n"
    assert files == tree_bytes(fresh)
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


RING_3S = {
    "mode": "single",
    "seed": 0,
    "duration_s": 3,
    "scenario": {"preset": "ring", "params": {"speed_mps": 8.0}},
    "rates": {"imu_hz": 100, "obs_hz": 10, "odo_hz": 10},
}


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("ukf", "nis_gate", -1.0),
        ("ukf", "nis_gate", float("nan")),
        ("ukf", "kappa", -20.0),
        ("imu_error", "bias_mode", "weird"),
        ("imu_error", "gyro_bias_std_rps", -1e-3),
        ("imu_error", "gyro_noise_density", -1e-4),
        ("init_errors", "pos_std_m", -0.5),
        ("init_errors", "pos_std_m", float("nan")),
        ("rates", "obs_hz", 0),
        ("rates", "imu_hz", "100"),
        ("path_loss", "tx_power_dbm", "x"),
        ("path_loss", "d0_m", 0),
        ("noise", "var_range_m2", True),
        ("gates", "residual_m", float("nan")),
        ("init_errors", "pos_std_m", True),
    ],
    ids=[
        "nis_gate_negative",
        "nis_gate_nan",
        "kappa_below_minus_15",
        "bias_mode_unknown",
        "gyro_bias_std_negative",
        "gyro_noise_density_negative",
        "pos_std_negative",
        "pos_std_nan",
        "obs_hz_zero",
        "imu_hz_string",
        "tx_power_string",
        "d0_zero",
        "var_range_bool",
        "residual_nan",
        "pos_std_bool",
    ],
)
def test_bad_filter_or_imu_parameter_exits_2(tmp_path, capsys, block, key, value):
    # json.dumps writes NaN and Infinity, which the config reader accepts
    cfg = write_config(tmp_path, dict(RING_3S, **{block: {key: value}}))
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {block}:")
    assert "Traceback" not in err
    assert not out.exists()


def test_ukf_block_leaves_the_process_noise_to_imu_error(tmp_path):
    # the filter's process noise comes from imu_error alone: a ukf block at
    # its default alpha writes what the run without it writes
    noisy = dict(RING_3S, imu_error={"accel_noise_density": 0.01})
    for name, cfg in {"bare": noisy, "ukf": dict(noisy, ukf={"alpha": 0.5})}.items():
        assert main([str(write_config(tmp_path, cfg, f"{name}.json")), "--output-dir", str(tmp_path / name)]) == EXIT_OK
    got, ref = tree_bytes(tmp_path / "ukf"), tree_bytes(tmp_path / "bare")
    for files in (got, ref):
        files.pop("manifest.json")
    assert got == ref


@pytest.mark.parametrize(
    "cfg",
    [
        dict(RING_3S, scenario={"preset": "ring", "params": {"n_bs": 8.5}}),
        dict(RING_3S, scenario={"preset": "ring", "params": {"n_bs": "8"}}),
        dict(RING_3S, scenario={"preset": "ring", "params": {"speed_mps": "fast"}}),
        dict(RING_3S, scenario={"preset": "ring", "params": {"speed_mps": True}}),
        {
            "mode": "outage-sweep",
            "outage_sweep": {"durations_s": [2.0], "speeds_mps": [8.0], "seeds": [0], "rates": {"obs_hz": 0}},
        },
        # no travel leaves the error per distance traveled undefined
        dict(RING_3S, scenario={"preset": "ring", "params": {"speed_mps": 0}}),
        {
            "mode": "outage-sweep",
            "outage_sweep": {"durations_s": [2.0], "speeds_mps": [0], "seeds": [0]},
        },
        {
            "mode": "noise-sweep",
            "noise_sweep": {"var_ranges_m2": [-1.0], "var_angles_deg2": [0.01], "seeds": [0], "duration_s": 2.0},
        },
    ],
    ids=[
        "n_bs_fraction",
        "n_bs_string",
        "speed_string",
        "speed_bool",
        "sweep_obs_hz_zero",
        "speed_zero",
        "sweep_speed_zero",
        "sweep_variance_negative",
    ],
)
def test_bad_ring_param_or_sweep_rate_exits_2(tmp_path, capsys, cfg):
    out = tmp_path / "out"
    assert main([str(write_config(tmp_path, cfg)), "--output-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


# every documented single-mode key at its default value, block by block
DEFAULT_KEYS = {
    "seed": 0,
    "duration_s": 60.0,
    "with_sbr": True,
    "outages": [],
    "odo_noise_std_mps": 0.05,
    "include_double_bounce": False,
    "use_body_aoa": True,
    "write_measurement_log": True,
    "scenario": {
        "preset": "ring",
        "params": {
            "n_bs": 8,
            "bs_radius_m": 318.0,
            "bs_height_m": 20.0,
            "n_walls": 6,
            "wall_radius_m": 400.0,
            "wall_height_m": 30.0,
            "route_radius_m": 160.0,
            "speed_mps": 8.0,
            "ue_height_m": 1.5,
        },
    },
    "rates": {"imu_hz": 100.0, "obs_hz": 10.0, "odo_hz": 10.0},
    "path_loss": {
        "tx_power_dbm": 30.0,
        "pl0_db": 61.4,
        "exponent": 2.0,
        "reflection_loss_db": 6.0,
    },
    "noise": {"var_range_m2": 0.5, "var_angle_deg2": 0.01},
    "imu_error": {
        "gyro_bias_std_rps": 2e-4,
        "accel_bias_std_mps2": 2e-3,
        "gyro_noise_density": 1e-4,
        "accel_noise_density": 1e-3,
        "bias_mode": "gaussian",
    },
    "gates": {
        "range_consistency_m": 10.0,
        "elevation_eps_rad": math.radians(0.5),
        "residual_m": 3.0,
        "motion_margin_m": 2.0,
    },
    "init_errors": {"pos_std_m": 0.5, "vel_std_mps": 0.1, "att_std_rad": 0.005},
    "ukf": {"alpha": 0.5, "beta": 2.0, "kappa": 0.0, "nis_gate": 16.26623619623813},
}


def test_every_key_at_its_default_changes_no_output(tmp_path):
    bare = write_config(tmp_path, {"mode": "single", "scenario": {"preset": "ring"}}, "bare.json")
    full = write_config(tmp_path, {"mode": "single", **DEFAULT_KEYS}, "full.json")
    assert main([str(bare), "--output-dir", str(tmp_path / "bare")]) == EXIT_OK
    assert main([str(full), "--output-dir", str(tmp_path / "full")]) == EXIT_OK
    got, ref = tree_bytes(tmp_path / "full"), tree_bytes(tmp_path / "bare")
    assert sorted(got) == sorted(ref)
    assert "measurements.jsonl" in got
    for name in ref:
        if name != "manifest.json":
            assert got[name] == ref[name], name


# every key of DEFAULT_KEYS at a valid value off its default
OFF_DEFAULT_KEYS = {
    "seed": 1,
    "duration_s": 2.0,
    "with_sbr": False,
    "outages": [[1.0, 2.0]],
    "odo_noise_std_mps": 0.5,
    "include_double_bounce": True,
    "use_body_aoa": False,
    "write_measurement_log": False,
    "scenario": {
        "preset": "ring",
        "params": {
            "n_bs": 7,
            "bs_radius_m": 300.0,
            "bs_height_m": 25.0,
            "n_walls": 5,
            "wall_radius_m": 380.0,
            "wall_height_m": 5.0,
            "route_radius_m": 150.0,
            "speed_mps": 6.0,
            "ue_height_m": 2.0,
        },
    },
    "rates": {"imu_hz": 200.0, "obs_hz": 5.0, "odo_hz": 5.0},
    "path_loss": {
        "tx_power_dbm": 33.0,
        "pl0_db": 60.0,
        "exponent": 2.2,
        "reflection_loss_db": 8.0,
    },
    "noise": {"var_range_m2": 1.0, "var_angle_deg2": 0.02},
    "imu_error": {
        "gyro_bias_std_rps": 4e-4,
        "accel_bias_std_mps2": 4e-3,
        "gyro_noise_density": 2e-4,
        "accel_noise_density": 2e-3,
        "bias_mode": "fixed_magnitude",
    },
    "gates": {
        "range_consistency_m": 0.1,
        "elevation_eps_rad": 0.0,
        "residual_m": 0.01,
        "motion_margin_m": 0.0,
    },
    "init_errors": {"pos_std_m": 1.0, "vel_std_mps": 0.2, "att_std_rad": 0.01},
    "ukf": {"alpha": 0.4, "beta": 3.0, "kappa": 1.0, "nis_gate": 1.0},
}


def key_paths(keys):
    """(path, config fragment) per key of a DEFAULT_KEYS-shaped mapping,
    each fragment setting that one key."""
    for key, value in keys.items():
        if key == "scenario":
            for name, v in value["params"].items():
                yield f"scenario.params.{name}", {"scenario": {"preset": "ring", "params": {name: v}}}
        elif isinstance(value, dict):
            for name, v in value.items():
                yield f"{key}.{name}", {key: {name: v}}
        else:
            yield key, {key: value}


def test_every_key_off_its_default_changes_some_output(tmp_path):
    import mpnav.cli

    # the keys single mode reads, besides mode, output_dir (covered by
    # test_output_dir_precedence) and the scenario choice
    documented = {*mpnav.cli._SETUP_KEYS, "write_measurement_log"}
    for block, (_, cls) in mpnav.cli._BLOCKS.items():
        documented |= {f"{block}.{key}" for key in mpnav.cli._FIELDS[cls]}
    documented |= {f"scenario.params.{name}" for name in mpnav.cli._RING_PARAMS}
    cases = dict(key_paths(OFF_DEFAULT_KEYS))
    assert sorted(cases) == sorted(documented) == sorted(dict(key_paths(DEFAULT_KEYS)))

    bare = {"mode": "single", "duration_s": 3.0, "scenario": {"preset": "ring"}}
    assert main([str(write_config(tmp_path, bare, "bare.json")), "--output-dir", str(tmp_path / "bare")]) == EXIT_OK
    ref = tree_bytes(tmp_path / "bare")
    # a log of another seed's drive, for the measurement_log key
    seed1 = write_config(tmp_path, dict(bare, seed=1), "seed1.json")
    assert main([str(seed1), "--output-dir", str(tmp_path / "seed1")]) == EXIT_OK
    cases["measurement_log"] = {"measurement_log": "seed1/measurements.jsonl"}
    for path, fragment in cases.items():
        out = tmp_path / path
        assert main([str(write_config(tmp_path, {**bare, **fragment})), "--output-dir", str(out)]) == EXIT_OK, path
        got = tree_bytes(out)
        changed = [name for name in {*got, *ref} - {"manifest.json"} if got.get(name) != ref.get(name)]
        assert changed, path


@pytest.mark.parametrize(
    "cfg",
    [
        dict(RING_3S, trapezoid=False),
        dict(RING_3S, scenario={"preset": "ring", "params": {"reflection_loss_db": 20.0}}),
        dict(RING_3S, outages=[{"t_start_s": 1.0, "t_end_s": 2.0}]),
        *(dict(RING_3S, ukf={key: 0.0}) for key in ("q_pos", "q_vel", "q_att", "q_bias_gyro", "q_bias_accel")),
        dict(RING_3S, path_loss={"d0_m": 1.0}),
    ],
    ids=["trapezoid", "ring_reflection_loss", "outage_object", "q_pos", "q_vel", "q_att", "q_bias_gyro", "q_bias_accel", "d0_m"],
)
def test_removed_setting_exits_2(tmp_path, capsys, cfg):
    out = tmp_path / "out"
    assert main([str(write_config(tmp_path, cfg)), "--output-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert not out.exists()


SWEEP_BLOCKS = {
    "outage-sweep": ("outage_sweep", ("rates", "noise", "imu_error")),
    "noise-sweep": ("noise_sweep", ("rates", "imu_error")),
    "drift-profile": ("drift_profile", ("imu_error",)),
}


def unknown_key_configs():
    """(block path, config) pairs, each config with one unknown key in the
    block the path names."""
    yield "config", {"mode": "single", **DEFAULT_KEYS, "typo": 1}
    for block, value in DEFAULT_KEYS.items():
        if isinstance(value, dict):
            yield block, {"mode": "single", **DEFAULT_KEYS, block: {**value, "typo": 1}}
    params = dict(DEFAULT_KEYS["scenario"]["params"], typo=1)
    yield "scenario.params", {"mode": "single", **DEFAULT_KEYS, "scenario": {"preset": "ring", "params": params}}
    for mode, (name, blocks) in SWEEP_BLOCKS.items():
        yield name, {"mode": mode, name: {"typo": 1}}
        for block in blocks:
            yield f"{name}.{block}", {"mode": mode, name: {block: {"typo": 1}}}


def test_unknown_key_in_any_block_exits_2(tmp_path, capsys):
    cases = list(unknown_key_configs())
    assert len(cases) == 1 + 8 + 1 + 3 + 6
    for where, cfg in cases:
        out = tmp_path / "out"
        assert main([str(write_config(tmp_path, cfg)), "--output-dir", str(out)]) == EXIT_CONFIG, where
        assert f"{where}: unknown keys ['typo']" in capsys.readouterr().err, where
        assert not out.exists()


def test_negative_drift_bias_scale_exits_2(tmp_path, capsys):
    # a negative scale makes a negative bias std, which ImuErrorModel refuses
    block = {"bias_scales": [1.0, -1.0], "seeds": [0], "duration_s": 2.0, "rate_hz": 20.0}
    cfg = write_config(tmp_path, {"mode": "drift-profile", "drift_profile": block})
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
    assert "config error: drift_profile.bias_scales[1] must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg",
    [
        dict(RING_3S, outages=[[1.0, 2.0], [100, 200]]),
        {
            "mode": "noise-sweep",
            "noise_sweep": {
                "var_ranges_m2": [0.5],
                "var_angles_deg2": [0.01],
                "seeds": [0],
                "duration_s": 5.0,
                "outage": [100, 200],
            },
        },
    ],
    ids=["single", "noise_sweep"],
)
def test_outage_window_without_an_epoch_exits_2(tmp_path, capsys, cfg):
    # a window past the end of the run would block nothing
    out = tmp_path / "out"
    assert main([str(write_config(tmp_path, cfg)), "--output-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "outage window [100, 200] s holds no epoch" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, block, message",
    [
        ("outage-sweep", {"durations_s": [2.0, 4.0], "speeds_mps": [8.0]}, "outage_sweep.speeds_mps must hold one speed per duration"),
        ("outage-sweep", {"durations_s": [2.0, 0.0], "speeds_mps": [8.0, 8.0]}, "outage_sweep.durations_s[1] must be > 0"),
        ("outage-sweep", {"durations_s": [2.0], "speeds_mps": [0]}, "outage_sweep.speeds_mps[0] must be > 0"),
        ("noise-sweep", {"var_ranges_m2": [-1.0], "var_angles_deg2": [0.01]}, "noise_sweep.var_ranges_m2[0] must be >= 0"),
        ("noise-sweep", {"var_ranges_m2": [0.5], "var_angles_deg2": [0.01, -0.01]}, "noise_sweep.var_angles_deg2[1] must be >= 0"),
    ],
    ids=["unpaired", "duration_zero", "speed_zero", "var_range_negative", "var_angle_negative"],
)
def test_sweep_argument_error_names_the_config_key(tmp_path, capsys, mode, block, message):
    cfg = {"mode": mode, mode.replace("-", "_"): dict(block, seeds=[0])}
    out = tmp_path / "out"
    assert main([str(write_config(tmp_path, cfg)), "--output-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_overflowing_drift_profile_exits_4(tmp_path, capsys):
    # the scaled biases overflow the mechanization: numpy's warning becomes
    # a numeric failure, and nothing is written
    block = {"bias_scales": [1e308], "seeds": [0], "duration_s": 2.0, "rate_hz": 20.0}
    cfg = write_config(tmp_path, {"mode": "drift-profile", "drift_profile": block})
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert "Warning" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg",
    [
        dict(RING_3S, imu_error={"gyro_bias_std_rps": 1e200}),
        dict(RING_3S, imu_error={"accel_noise_density": 1e200}),
        dict(RING_3S, init_errors={"pos_std_m": 1e200}),
        dict(RING_3S, init_errors={"vel_std_mps": 1e200}),
        {
            "mode": "outage-sweep",
            "outage_sweep": {
                "durations_s": [1.0],
                "speeds_mps": [8.0],
                "seeds": [0],
                "pre_s": 1.0,
                "post_s": 0.0,
                "imu_error": {"gyro_bias_std_rps": 1e200},
            },
        },
        dict(RING_3S, duration_s=1e12),
        {
            "mode": "noise-sweep",
            "noise_sweep": {"var_ranges_m2": [0.5], "var_angles_deg2": [0.01], "seeds": [0], "duration_s": 1e13},
        },
    ],
    ids=[
        "gyro_bias_std",
        "accel_noise_density",
        "pos_std",
        "vel_std",
        "outage_sweep_gyro_bias_std",
        "duration_72_tib",
        "noise_sweep_duration_146_tib",
    ],
)
def test_overflow_or_oversized_run_exits_4(tmp_path, capsys, cfg):
    # a Python float past the float range, or an array numpy refuses at once
    # (72.8 and 146 TiB), so no case allocates more than a small run does
    out = tmp_path / "out"
    assert main([str(write_config(tmp_path, cfg)), "--output-dir", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "ukf",
    [{"alpha": 1e-300}, {"alpha": 1e-160}, {"kappa": -14.999999999999998}],
    ids=["alpha_1e-300", "alpha_1e-160", "kappa_just_above_minus_15"],
)
def test_spread_that_rounds_to_zero_exits_2(tmp_path, capsys, ukf):
    # alpha^2 (15 + kappa) is positive, but lambda = alpha^2 (15 + kappa) - 15
    # rounds to -15, so the spread 15 + lambda the weights divide by is 0
    out = tmp_path / "out"
    assert main([str(write_config(tmp_path, dict(RING_3S, ukf=ukf))), "--output-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ukf: the sigma-point spread")
    assert not out.exists()


def test_non_finite_table_exits_4(tmp_path, capsys, monkeypatch):
    # a NaN that raises no floating-point error on its way is still refused
    # before any table is written
    monkeypatch.setattr(evaluate, "rmse_3d", lambda *args: math.nan)
    block = {"var_ranges_m2": [0.5], "var_angles_deg2": [0.01], "seeds": [0], "duration_s": 2.0}
    cfg = write_config(tmp_path, {"mode": "noise-sweep", "noise_sweep": block})
    out = tmp_path / "out"
    assert main([str(cfg), "--output-dir", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure: summary.csv: rmse_with_med_m is nan\n"
    assert not out.exists()
    assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]
