"""Command line interface: modes, exit codes, output determinism."""

import json

import pytest

from mpnav.cli import EXIT_CONFIG, EXIT_GEOMETRY, EXIT_NUMERIC, EXIT_OK, main

MINI_SCENARIO = {
    "name": "mini-line",
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
