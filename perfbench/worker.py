"""Runs one benchmark workload in a fresh interpreter.

Started by run.py, never by hand. Prints READY on stdout once the program's
modules are imported (the end of set-up), then runs timed passes until the
time budget is spent, optionally one traced pass, and writes report.json
into the output directory. Everything the program prints goes to stderr.

Modes:
  --setup-only  import, print READY, exit (extra set-up time samples)
  --prepare     write log_replay's inputs into --prep: a ring_single
                log, the replay config and the in-memory LoS-only reference
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import mpnav.cli
import mpnav.evaluate
import mpnav.pipeline
from checks import file_digests
from tracer import Tracer

RING_CONFIG = Path("configs/single_ring.json")
SWEEP_CONFIG = Path("configs/outage_sweep.json")

# Program seeds of the outage sweep, taken in turn by its passes. They are
# fixed, like the ring drive's preset seed, so that rmse_m repeats exactly:
# with seeds drawn per run, its median over ten case-seeds moved 8 %.
SWEEP_SEEDS = (0, 1)


class EpochCounter:
    """Counts filter epochs across every run_filter call while installed.

    One Python call per filter run, so it costs nothing measurable; it is
    installed for untraced passes too, because epochs_per_s needs it.
    """

    SITES = (mpnav.cli, mpnav.pipeline)

    def __init__(self):
        self.epochs = 0
        self.original = mpnav.pipeline.run_filter

        def counted(*args, **kwargs):
            result = self.original(*args, **kwargs)
            self.epochs += len(result.t)
            return result

        for mod in self.SITES:
            mod.run_filter = counted


def _timed(fn, counter):
    counter.epochs = 0
    t0, c0 = perf_counter(), process_time()
    value = fn()
    t1, c1 = perf_counter(), process_time()
    return value, {"wall_s": t1 - t0, "cpu_s": c1 - c0, "epochs": counter.epochs}


def cli_pass(config, passdir, counter):
    """One in-process CLI run into a fresh output directory."""
    shutil.rmtree(passdir, ignore_errors=True)
    rc, rec = _timed(lambda: mpnav.cli.main([str(config), "--output-dir", str(passdir)]), counter)
    rec["rc"] = rc
    rec["digests"] = file_digests(passdir) if passdir.is_dir() else {}
    return rec


def sweep_pass(preset, seed, counter):
    """One seed through the preset's cases, at the sweep's default rates."""
    kwargs = dict(
        durations=preset["durations_s"],
        speeds=preset["speeds_mps"],
        seeds=(seed,),
        pre_s=preset["pre_s"],
        post_s=preset["post_s"],
    )
    sweep, rec = _timed(lambda: mpnav.evaluate.run_outage_sweep(**kwargs), counter)
    rec["seed"] = seed
    rec["cases"] = sweep["cases"]
    return rec


def prepare_replay(prep):
    """Inputs of log_replay, written before any timing: the preset ring
    drive's log and aided summary (through the CLI), a LoS-only replay config
    for that log, and errors_without.csv from an in-memory LoS-only
    run_filter on the same measurement set."""
    from mpnav.pipeline import Rates, RunSetup, run_filter, synth_measurements
    from mpnav.scene import ring_scenario
    from mpnav.synth import NoiseCfg, OutageWindow

    shutil.rmtree(prep, ignore_errors=True)
    prep.mkdir(parents=True)
    rc = mpnav.cli.main([str(RING_CONFIG), "--output-dir", str(prep / "ring")])
    if rc != 0:
        raise RuntimeError(f"ring_single run for the replay log exited {rc}")
    cfg = json.loads(RING_CONFIG.read_text())
    expected = {"mode", "seed", "duration_s", "with_sbr", "scenario", "rates", "noise", "outages"}
    if set(cfg) != expected or cfg["scenario"].get("preset") != "ring":
        raise ValueError(f"{RING_CONFIG}: keys {sorted(cfg)} differ from those the reference builds on")
    replay_cfg = dict(cfg, with_sbr=False, measurement_log="ring/measurements.jsonl")
    (prep / "replay.json").write_text(json.dumps(replay_cfg, indent=2) + "\n")
    setup = RunSetup(
        scenario=ring_scenario(**cfg["scenario"].get("params", {})),
        duration_s=cfg["duration_s"],
        seed=cfg["seed"],
        with_sbr=False,
        rates=Rates(**cfg["rates"]),
        noise=NoiseCfg(**cfg["noise"]),
        outages=[OutageWindow(*w) for w in cfg["outages"]],
    )
    result = run_filter(synth_measurements(setup), setup)
    (prep / "ref").mkdir()
    mpnav.evaluate.write_single_run(prep / "ref", result, label="without")


def pass_maker(args, counter):
    """Function of the pass index that runs one pass of the workload."""
    if args.workload == "ring_single":
        return lambda k: cli_pass(RING_CONFIG, args.out / "pass", counter)
    if args.workload == "log_replay":
        return lambda k: cli_pass(args.prep / "replay.json", args.out / "pass", counter)
    preset = json.loads(SWEEP_CONFIG.read_text())["outage_sweep"]
    return lambda k: sweep_pass(preset, SWEEP_SEEDS[k % len(SWEEP_SEEDS)], counter)


def run_passes(args):
    make_pass = pass_maker(args, EpochCounter())
    # Whole passes only. A new pass starts while one more (plus the traced
    # pass, at an assumed 1.5x) still fits in the budget; at least two
    # untraced passes give a median, or one when a traced pass follows.
    min_passes = 1 if args.trace else 2
    passes = []
    t_start = perf_counter()
    while True:
        passes.append(make_pass(len(passes)))
        est = statistics.median(p["wall_s"] for p in passes)
        need = est * (1.0 + (1.5 if args.trace else 0.0))
        if len(passes) >= min_passes and perf_counter() - t_start + need > args.seconds:
            break

    report = {"workload": args.workload, "passes": passes, "traced": None}
    if args.trace:
        with Tracer() as tracer:
            traced = make_pass(0)
        tracer.write_spans(args.out / "spans.csv")
        traced["metrics"] = tracer.metrics()
        traced["missing"] = tracer.missing
        report["traced"] = traced
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return report


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("ring_single", "outage_sweep", "log_replay"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--prep", type=Path, help="log_replay's input directory")
    args = parser.parse_args()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    with contextlib.redirect_stdout(sys.stderr):
        if args.prepare:
            prepare_replay(args.prep)
            return 0
        report = run_passes(args)
    (args.out / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
