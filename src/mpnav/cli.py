"""Command line entry point.

Usage: mpnav CONFIG.json [--output-dir DIR] [--seed N]

The run mode lives in the config file. Output directory precedence:
--output-dir flag, then the MPNAV_OUTPUT_DIR environment variable, then the
config's "output_dir" key, then "./mpnav_out". Everything is validated and
computed in memory before any file is written, so a failed run leaves no
partial products.

Exit codes: 0 ok, 2 bad config, 3 bad geometry, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluate
from .fusion import NumericError, UkfParams
from .gates import GateConfig
from .pipeline import (
    InitErrors,
    Rates,
    RunSetup,
    measurement_set_from_records,
    records_from_measurement_set,
    run_filter,
    synth_measurements,
)
from .scene import GeometryError, Scenario, load_scenario, ring_scenario, scenario_from_dict
from .synth import (
    ImuErrorModel,
    NoiseCfg,
    OutageWindow,
    PathLossModel,
    read_measurement_log,
    write_measurement_log,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_NUMERIC = 4

MODES = ("single", "outage-sweep", "noise-sweep", "drift-profile")


class ConfigError(ValueError):
    pass


def _expect_mapping(obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return obj


def _pop_number(d, key, default=None, where="config", minimum=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    v = d.pop(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{where}.{key} must be a finite number")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}")
    return float(v)


def _pop_int(d, key, default, where="config", minimum=None):
    if key not in d:
        return default
    v = d.pop(key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}")
    return v


def _pop_bool(d, key, default, where="config"):
    if key not in d:
        return default
    v = d.pop(key)
    if not isinstance(v, bool):
        raise ConfigError(f"{where}.{key} must be true or false")
    return v


def _pop_list(d, key, default, where="config"):
    if key not in d:
        return default
    v = d.pop(key)
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}.{key} must be a non-empty list")
    return v


def _reject_unknown(d, where):
    if d:
        raise ConfigError(f"{where}: unknown keys {sorted(d)}")


def _number_list(v, where):
    out = []
    for x in v:
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
            raise ConfigError(f"{where} must contain finite numbers")
        out.append(float(x))
    return out


def _build_scenario(cfg, config_dir: Path) -> Scenario:
    if "scenario" not in cfg:
        raise ConfigError("config: missing required key 'scenario'")
    raw = cfg.pop("scenario")
    if isinstance(raw, str):
        path = Path(raw)
        if not path.is_absolute():
            path = config_dir / path
        if not path.is_file():
            raise ConfigError(f"scenario file not found: {path}")
        return load_scenario(path)
    spec = dict(_expect_mapping(raw, "scenario"))
    if "preset" in spec:
        preset = spec.pop("preset")
        params = dict(_expect_mapping(spec.pop("params", {}), "scenario.params"))
        _reject_unknown(spec, "scenario")
        if preset != "ring":
            raise ConfigError(f"unknown scenario preset {preset!r}")
        allowed = {
            "n_bs",
            "bs_radius_m",
            "bs_height_m",
            "n_walls",
            "wall_radius_m",
            "wall_height_m",
            "route_radius_m",
            "speed_mps",
            "ue_height_m",
            "reflection_loss_db",
        }
        bad = set(params) - allowed
        if bad:
            raise ConfigError(f"scenario.params: unknown keys {sorted(bad)}")
        return ring_scenario(**params)
    return scenario_from_dict(spec)


def _build_sub(cfg, key, cls, fields, where=None):
    """Pop cfg[key] (a mapping) and build cls from a field-name map."""
    where = where or key
    raw = dict(_expect_mapping(cfg.pop(key, {}), where))
    kwargs = {}
    for json_key, attr in fields.items():
        if json_key in raw:
            kwargs[attr] = raw.pop(json_key)
    _reject_unknown(raw, where)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, GeometryError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def _build_outages(cfg):
    # an empty list means no outage, unlike the sweep lists
    raw = cfg.pop("outages", [])
    if not isinstance(raw, list):
        raise ConfigError("config.outages must be a list")
    windows = []
    for i, item in enumerate(raw):
        where = f"outages[{i}]"
        if isinstance(item, list) and len(item) == 2:
            t0, t1 = _number_list(item, where)
        elif isinstance(item, dict):
            item = dict(item)
            t0 = _pop_number(item, "t_start_s", where=where)
            t1 = _pop_number(item, "t_end_s", where=where)
            _reject_unknown(item, where)
        else:
            raise ConfigError(f"{where} must be [start, end] or an object")
        try:
            windows.append(OutageWindow(t0, t1))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return windows


_RATES_FIELDS = {"imu_hz": "imu_hz", "obs_hz": "obs_hz", "odo_hz": "odo_hz"}
_NOISE_FIELDS = {"var_range_m2": "var_range_m2", "var_angle_deg2": "var_angle_deg2"}
_IMU_FIELDS = {
    "gyro_bias_std_rps": "gyro_bias_std",
    "accel_bias_std_mps2": "accel_bias_std",
    "gyro_noise_density": "gyro_noise_density",
    "accel_noise_density": "accel_noise_density",
    "bias_mode": "bias_mode",
}
_PL_FIELDS = {
    "tx_power_dbm": "tx_power_dbm",
    "pl0_db": "pl0_db",
    "exponent": "exponent",
    "reflection_loss_db": "reflection_loss_db",
    "d0_m": "d0_m",
}
_GATE_FIELDS = {
    "range_consistency_m": "range_consistency_m",
    "elevation_eps_rad": "elevation_eps_rad",
    "residual_m": "residual_m",
    "motion_margin_m": "motion_margin_m",
}
_INIT_FIELDS = {
    "pos_std_m": "pos_std_m",
    "vel_std_mps": "vel_std_mps",
    "att_std_rad": "att_std_rad",
}
_UKF_FIELDS = {
    "alpha": "alpha",
    "beta": "beta",
    "kappa": "kappa",
    "q_pos": "q_pos",
    "q_vel": "q_vel",
    "q_att": "q_att",
    "q_bias_gyro": "q_bias_gyro",
    "q_bias_accel": "q_bias_accel",
    "nis_gate": "nis_gate",
}


def _build_setup(cfg, config_dir, seed_override):
    scenario = _build_scenario(cfg, config_dir)
    seed = _pop_int(cfg, "seed", 0, minimum=0)
    if seed_override is not None:
        seed = seed_override
    kwargs = dict(
        scenario=scenario,
        duration_s=_pop_number(cfg, "duration_s", 60.0, minimum=1e-9),
        seed=seed,
        with_sbr=_pop_bool(cfg, "with_sbr", True),
        rates=_build_sub(cfg, "rates", Rates, _RATES_FIELDS),
        path_loss=_build_sub(cfg, "path_loss", PathLossModel, _PL_FIELDS),
        noise=_build_sub(cfg, "noise", NoiseCfg, _NOISE_FIELDS),
        imu_err=_build_sub(cfg, "imu_error", ImuErrorModel, _IMU_FIELDS),
        gate_cfg=_build_sub(cfg, "gates", GateConfig, _GATE_FIELDS),
        init_err=_build_sub(cfg, "init_errors", InitErrors, _INIT_FIELDS),
        outages=_build_outages(cfg),
        odo_noise_std=_pop_number(cfg, "odo_noise_std_mps", 0.05, minimum=0.0),
        include_double_bounce=_pop_bool(cfg, "include_double_bounce", False),
        use_body_aoa=_pop_bool(cfg, "use_body_aoa", True),
        trapezoid=_pop_bool(cfg, "trapezoid", True),
    )
    if "ukf" in cfg:
        kwargs["ukf"] = _build_sub(cfg, "ukf", UkfParams, _UKF_FIELDS)
    try:
        return RunSetup(**kwargs)
    except ValueError as exc:
        if isinstance(exc, GeometryError):
            raise
        raise ConfigError(str(exc)) from exc


def _seeds_from_block(block, default_n, where):
    if "seeds" in block:
        raw = block.pop("seeds")
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{where}.seeds must be a non-empty list")
        seeds = []
        for s in raw:
            if isinstance(s, bool) or not isinstance(s, int) or s < 0:
                raise ConfigError(f"{where}.seeds must hold non-negative integers")
            seeds.append(s)
        return tuple(seeds)
    n = _pop_int(block, "n_seeds", default_n, where=where, minimum=1)
    return tuple(range(n))


def _run_single(cfg, config_dir, seed_override, outdir):
    log_path = cfg.pop("measurement_log", None)
    write_log = _pop_bool(cfg, "write_measurement_log", True)
    setup = _build_setup(cfg, config_dir, seed_override)
    _reject_unknown(cfg, "config")
    if log_path is not None:
        if not isinstance(log_path, str):
            raise ConfigError("measurement_log must be a path string")
        path = Path(log_path)
        if not path.is_absolute():
            path = config_dir / path
        if not path.is_file():
            raise ConfigError(f"measurement log not found: {path}")
        try:
            ms = measurement_set_from_records(read_measurement_log(path), setup)
        except ValueError as exc:
            raise ConfigError(f"measurement log {path}: {exc}") from exc
        write_log = False
    else:
        ms = synth_measurements(setup)
    result = run_filter(ms, setup)
    label = "with" if setup.with_sbr else "without"

    def writer():
        summary = evaluate.write_single_run(outdir, result, label=label)
        evaluate.write_csv(
            outdir / "summary.csv", tuple(summary.keys()), [tuple(summary.values())]
        )
        if write_log:
            write_measurement_log(outdir / "measurements.jsonl", records_from_measurement_set(ms))

    return writer, {"seed": setup.seed}


def _run_outage_sweep(cfg, config_dir, seed_override, outdir):
    block = dict(_expect_mapping(cfg.pop("outage_sweep", {}), "outage_sweep"))
    _reject_unknown(cfg, "config")
    durations = _number_list(
        _pop_list(block, "durations_s", [20.0, 40.0, 60.0, 200.0, 400.0]), "outage_sweep.durations_s"
    )
    speeds = _number_list(
        _pop_list(block, "speeds_mps", [9.8, 9.4, 5.0, 5.6, 6.5]), "outage_sweep.speeds_mps"
    )
    if len(durations) != len(speeds):
        raise ConfigError("outage_sweep: durations_s and speeds_mps must pair up")
    seeds = _seeds_from_block(block, 20, "outage_sweep")
    kwargs = dict(durations=durations, speeds=speeds, seeds=seeds)
    kwargs["pre_s"] = _pop_number(block, "pre_s", 10.0, "outage_sweep", minimum=1.0)
    kwargs["post_s"] = _pop_number(block, "post_s", 5.0, "outage_sweep", minimum=0.0)
    if "rates" in block:
        kwargs["rates"] = _build_sub(block, "rates", Rates, _RATES_FIELDS, "outage_sweep.rates")
    if "noise" in block:
        kwargs["noise"] = _build_sub(block, "noise", NoiseCfg, _NOISE_FIELDS, "outage_sweep.noise")
    if "imu_error" in block:
        kwargs["imu_err"] = _build_sub(
            block, "imu_error", ImuErrorModel, _IMU_FIELDS, "outage_sweep.imu_error"
        )
    _reject_unknown(block, "outage_sweep")
    if seed_override is not None:
        kwargs["seeds"] = tuple(seed_override + s for s in kwargs["seeds"])
    sweep = evaluate.run_outage_sweep(**kwargs)
    return lambda: evaluate.write_outage_sweep(outdir, sweep), {"seeds": list(kwargs["seeds"])}


def _run_noise_sweep(cfg, config_dir, seed_override, outdir):
    block = dict(_expect_mapping(cfg.pop("noise_sweep", {}), "noise_sweep"))
    _reject_unknown(cfg, "config")
    kwargs = dict(
        var_ranges=_number_list(
            _pop_list(block, "var_ranges_m2", [0.5, 1.0, 2.0]), "noise_sweep.var_ranges_m2"
        ),
        var_angles=_number_list(
            _pop_list(block, "var_angles_deg2", [0.001, 0.01, 0.05]), "noise_sweep.var_angles_deg2"
        ),
        seeds=_seeds_from_block(block, 20, "noise_sweep"),
        duration_s=_pop_number(block, "duration_s", 60.0, "noise_sweep", minimum=1.0),
        speed_mps=_pop_number(block, "speed_mps", 8.0, "noise_sweep", minimum=0.1),
    )
    if "outage" in block:
        raw = block.pop("outage")
        if raw is None:
            kwargs["outage"] = None
        else:
            pair = _number_list(raw if isinstance(raw, list) else [], "noise_sweep.outage")
            if len(pair) != 2:
                raise ConfigError("noise_sweep.outage must be [start_s, end_s] or null")
            kwargs["outage"] = tuple(pair)
    if "rates" in block:
        kwargs["rates"] = _build_sub(block, "rates", Rates, _RATES_FIELDS, "noise_sweep.rates")
    if "imu_error" in block:
        kwargs["imu_err"] = _build_sub(
            block, "imu_error", ImuErrorModel, _IMU_FIELDS, "noise_sweep.imu_error"
        )
    _reject_unknown(block, "noise_sweep")
    if seed_override is not None:
        kwargs["seeds"] = tuple(seed_override + s for s in kwargs["seeds"])
    sweep = evaluate.run_noise_sweep(**kwargs)
    return lambda: evaluate.write_noise_sweep(outdir, sweep), {"seeds": list(kwargs["seeds"])}


def _run_drift_profile(cfg, config_dir, seed_override, outdir):
    block = dict(_expect_mapping(cfg.pop("drift_profile", {}), "drift_profile"))
    _reject_unknown(cfg, "config")
    kwargs = dict(
        bias_scales=_number_list(
            _pop_list(block, "bias_scales", [0.5, 1.0, 2.0, 4.0]), "drift_profile.bias_scales"
        ),
        seeds=_seeds_from_block(block, 10, "drift_profile"),
        duration_s=_pop_number(block, "duration_s", 60.0, "drift_profile", minimum=1.0),
        rate_hz=_pop_number(block, "rate_hz", 100.0, "drift_profile", minimum=1.0),
        speed_mps=_pop_number(block, "speed_mps", 8.0, "drift_profile", minimum=0.1),
    )
    if "imu_error" in block:
        kwargs["imu_err"] = _build_sub(
            block, "imu_error", ImuErrorModel, _IMU_FIELDS, "drift_profile.imu_error"
        )
    _reject_unknown(block, "drift_profile")
    if seed_override is not None:
        kwargs["seeds"] = tuple(seed_override + s for s in kwargs["seeds"])
    sweep = evaluate.run_drift_profile(**kwargs)
    return lambda: evaluate.write_drift_profile(outdir, sweep), {"seeds": list(kwargs["seeds"])}


_MODE_RUNNERS = {
    "single": _run_single,
    "outage-sweep": _run_outage_sweep,
    "noise-sweep": _run_noise_sweep,
    "drift-profile": _run_drift_profile,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="mpnav",
        description="Radio/inertial positioning simulator and estimator.",
    )
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument("--output-dir", default=None, help="where to write results")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            raw_cfg = json.loads(config_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = dict(_expect_mapping(raw_cfg, "config"))

        mode = cfg.pop("mode", None)
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        cfg_outdir = cfg.pop("output_dir", None)
        if cfg_outdir is not None and not isinstance(cfg_outdir, str):
            raise ConfigError("output_dir must be a path string")
        outdir = Path(
            args.output_dir
            or os.environ.get("MPNAV_OUTPUT_DIR")
            or cfg_outdir
            or "mpnav_out"
        )
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be >= 0")

        # echo for the manifest: the config as given, minus output routing
        echo = {k: v for k, v in raw_cfg.items() if k != "output_dir"}
        if args.seed is not None:
            echo["seed_override"] = args.seed

        writer, run_info = _MODE_RUNNERS[mode](cfg, config_path.parent.resolve(), args.seed, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    outdir.mkdir(parents=True, exist_ok=True)
    writer()
    evaluate.write_manifest(outdir / "manifest.json", echo, {"mode": mode, **run_info})
    print(f"wrote results to {outdir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
