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
import inspect
import json
import os
import shutil
import sys
import tempfile
from dataclasses import fields
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


def _reject_unknown(d, where):
    if d:
        raise ConfigError(f"{where}: unknown keys {sorted(d)}")


# Value checks: each takes a JSON value and the name to report it by, and
# returns the value as its callee takes it.


def _number(v, name, minimum=None):
    """A finite JSON number as a float: not a bool or a string, nor an
    integer too large for a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return float(v)


def _integer(v, name, minimum=None):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{name} must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return v


def _boolean(v, name):
    if not isinstance(v, bool):
        raise ConfigError(f"{name} must be true or false")
    return v


def _string(v, name):
    if not isinstance(v, str):
        raise ConfigError(f"{name} must be a string")
    return v


def _numbers(v, name):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{name} must be a non-empty list")
    return [_number(x, f"{name}[{i}]") for i, x in enumerate(v)]


def _outages(v, name):
    # an empty list means no outage, unlike the sweep lists
    if not isinstance(v, list):
        raise ConfigError(f"{name} must be a list")
    windows = []
    for i, item in enumerate(v):
        where = f"{name}[{i}]"
        if not (isinstance(item, list) and len(item) == 2):
            raise ConfigError(f"{where} must be [start, end]")
        t0, t1 = _numbers(item, where)
        try:
            windows.append(OutageWindow(t0, t1))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return windows


def _optional_outage(v, name):
    if v is None:
        return None
    pair = _numbers(v, name) if isinstance(v, list) else []
    if len(pair) != 2 or not pair[1] > pair[0]:
        raise ConfigError(f"{name} must be [start_s, end_s] with end_s > start_s, or null")
    return tuple(pair)


def _pop_args(d, spec, where):
    """Pop the keys of spec that mapping d holds, each value checked, as
    keyword arguments. spec maps a config key to (argument name, check,
    *further check arguments). Keys d lacks are left to the callee's
    defaults, so a default is stated once, by the callee."""
    return {
        arg: check(d.pop(key), f"{where}: {key}", *bounds)
        for key, (arg, check, *bounds) in spec.items()
        if key in d
    }


# config block -> (argument it sets, class built from it)
_BLOCKS = {
    "rates": ("rates", Rates),
    "path_loss": ("path_loss", PathLossModel),
    "noise": ("noise", NoiseCfg),
    "imu_error": ("imu_err", ImuErrorModel),
    "gates": ("gate_cfg", GateConfig),
    "init_errors": ("init_err", InitErrors),
    "ukf": ("ukf", UkfParams),
}
# config keys that differ from the dataclass field they set
_RENAMED = {"gyro_bias_std": "gyro_bias_std_rps", "accel_bias_std": "accel_bias_std_mps2"}
# the check of a value, by the type its field or parameter declares (a
# string, as every mpnav module postpones the evaluation of annotations)
_CHECKS = {"int": _integer, "float": _number, "str": _string}
# a block's keys are its class's fields; scenario.params are ring_scenario's
_FIELDS = {
    cls: {_RENAMED.get(f.name, f.name): (f.name, _CHECKS[f.type]) for f in fields(cls)}
    for _, cls in _BLOCKS.values()
}
_RING_PARAMS = {
    name: (name, _CHECKS[p.annotation])
    for name, p in inspect.signature(ring_scenario).parameters.items()
}


def _pop_blocks(d, keys, prefix=""):
    """Build the classes of the blocks in keys that mapping d holds, as
    keyword arguments; a bad or unknown field exits with the block named."""
    kwargs = {}
    for key in keys:
        if key not in d:
            continue
        arg, cls = _BLOCKS[key]
        where = prefix + key
        raw = dict(_expect_mapping(d.pop(key), where))
        values = _pop_args(raw, _FIELDS[cls], where)
        _reject_unknown(raw, where)
        try:
            kwargs[arg] = cls(**values)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return kwargs


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
        kwargs = _pop_args(params, _RING_PARAMS, "scenario.params")
        _reject_unknown(params, "scenario.params")
        return ring_scenario(**kwargs)
    return scenario_from_dict(spec)


# single mode's top-level keys besides scenario and the blocks
_SETUP_KEYS = {
    "seed": ("seed", _integer, 0),
    "duration_s": ("duration_s", _number),
    "with_sbr": ("with_sbr", _boolean),
    "outages": ("outages", _outages),
    "odo_noise_std_mps": ("odo_noise_std", _number, 0.0),
    "include_double_bounce": ("include_double_bounce", _boolean),
    "use_body_aoa": ("use_body_aoa", _boolean),
}


def _build_setup(cfg, config_dir, seed_override):
    kwargs = dict(
        scenario=_build_scenario(cfg, config_dir),
        **_pop_args(cfg, _SETUP_KEYS, "config"),
        **_pop_blocks(cfg, _BLOCKS),
    )
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return RunSetup(**kwargs)
    except ValueError as exc:
        if isinstance(exc, GeometryError):
            raise
        raise ConfigError(str(exc)) from exc


def _run_single(cfg, config_dir, seed_override):
    log_path = cfg.pop("measurement_log", None)
    write_log = _boolean(cfg.pop("write_measurement_log", True), "config: write_measurement_log")
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
    try:
        summary = evaluate.single_run_summary(result, label)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc

    def writer(outdir):
        evaluate.write_single_run(outdir, result, label=label)
        evaluate.write_csv(
            outdir / "summary.csv", tuple(summary.keys()), [tuple(summary.values())]
        )
        if write_log:
            write_measurement_log(outdir / "measurements.jsonl", ms)

    return writer, {"seed": setup.seed}


# sweep mode -> (its config block, its runner, the block's keys besides
# the seeds, its optional blocks)
_SWEEPS = {
    "outage-sweep": (
        "outage_sweep",
        evaluate.run_outage_sweep,
        {
            "durations_s": ("durations", _numbers),
            "speeds_mps": ("speeds", _numbers),
            "pre_s": ("pre_s", _number, 1.0),
            "post_s": ("post_s", _number, 0.0),
        },
        ("rates", "noise", "imu_error"),
    ),
    "noise-sweep": (
        "noise_sweep",
        evaluate.run_noise_sweep,
        {
            "var_ranges_m2": ("var_ranges", _numbers),
            "var_angles_deg2": ("var_angles", _numbers),
            "duration_s": ("duration_s", _number, 1.0),
            "speed_mps": ("speed_mps", _number, 0.1),
            "outage": ("outage", _optional_outage),
        },
        ("rates", "imu_error"),
    ),
    "drift-profile": (
        "drift_profile",
        evaluate.run_drift_profile,
        {
            "bias_scales": ("bias_scales", _numbers),
            "duration_s": ("duration_s", _number, 1.0),
            # the free-inertial integration takes steps of at most 0.1 s
            "rate_hz": ("rate_hz", _number, 10.0),
            "speed_mps": ("speed_mps", _number, 0.1),
        },
        ("imu_error",),
    ),
}


def _run_sweep(cfg, mode, seed_override):
    """Run the sweep of mode from its config block: the block's keys, its
    optional blocks and the seeds, from "seeds" (a list) or "n_seeds" (a
    count), offset by --seed. The runner checks its arguments before its
    first run, and a ValueError of its exits 2, named by the config key
    when it names an argument. Returns the sweep's writer and the
    manifest's run info."""
    where, runner, spec, blocks = _SWEEPS[mode]
    block = dict(_expect_mapping(cfg.pop(where, {}), where))
    _reject_unknown(cfg, "config")
    kwargs = {**_pop_args(block, spec, where), **_pop_blocks(block, blocks, f"{where}.")}
    if "seeds" in block:
        seeds = block.pop("seeds")
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError(f"{where}: seeds must be a non-empty list")
        kwargs["seeds"] = tuple(_integer(s, f"{where}: seeds", 0) for s in seeds)
    elif "n_seeds" in block:
        kwargs["seeds"] = tuple(range(_integer(block.pop("n_seeds"), f"{where}: n_seeds", 1)))
    _reject_unknown(block, where)
    if seed_override is not None:
        seeds = kwargs.get("seeds", inspect.signature(runner).parameters["seeds"].default)
        kwargs["seeds"] = tuple(seed_override + s for s in seeds)
    try:
        sweep = runner(**kwargs)
    except (GeometryError, np.linalg.LinAlgError):
        raise
    except evaluate.SweepArgumentError as exc:
        key = next(key for key, (arg, *_) in spec.items() if arg == exc.arg)
        entry = "" if exc.index is None else f"[{exc.index}]"
        raise ConfigError(f"{where}.{key}{entry} {exc.problem}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return lambda outdir: evaluate.write_sweep(outdir, sweep), {"seeds": sweep["seeds"]}


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
    # numpy's overflow, invalid-value and divide-by-zero warnings raise
    # FloatingPointError instead, a numeric failure that writes nothing
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        return _main(args)


def _main(args) -> int:
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

        if mode == "single":
            writer, run_info = _run_single(cfg, config_path.parent.resolve(), args.seed)
        else:
            writer, run_info = _run_sweep(cfg, mode, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    try:
        _write_outputs(outdir, writer, echo, {"mode": mode, **run_info})
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FloatingPointError) as exc:
        # a non-finite number in a table, or a numpy error while writing one
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"wrote results to {outdir}")
    return EXIT_OK


def _write_outputs(outdir: Path, writer, echo, info):
    """Run writer(directory) and write the manifest into a fresh temporary
    sibling of outdir, then move the files into place: the whole directory
    when outdir does not exist yet, file by file otherwise. On failure the
    temporary directory and any parent directories made here are removed."""
    made = [p for p in outdir.parents if not p.exists()]
    try:
        outdir.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.", dir=outdir.parent))
        try:
            # the permissions mkdir would give, not mkdtemp's owner-only ones
            umask = os.umask(0)
            os.umask(umask)
            tmp.chmod(0o777 & ~umask)
            writer(tmp)
            evaluate.write_manifest(tmp / "manifest.json", echo, info)
            if outdir.is_dir():
                for path in sorted(tmp.iterdir()):
                    os.replace(path, outdir / path.name)
            else:
                os.rename(tmp, outdir)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise


if __name__ == "__main__":
    sys.exit(main())
