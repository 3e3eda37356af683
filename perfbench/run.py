"""mpnav benchmark: one workload per call, from the root of a checkout.

    python3 perfbench/run.py --workload ring_single --seed 0 --seconds 30 --trace 0

Workloads (see README.md): ring_single, outage_sweep, log_replay. Their
inputs are fixed presets with fixed program seeds, so that rmse_m repeats
exactly; --seed is accepted for a command line common to benchmarks and
leaves the inputs unchanged.

The launcher starts the workload in a fresh interpreter (worker.py), so
set-up time and peak memory belong to that workload alone, with the BLAS and
OpenMP pools pinned to one thread. It checks the program's outputs apart
from the program (checks.py) and prints one JSON object as the last line of
stdout: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Outputs go to perfbench_out/<workload>/ in the checkout, log_replay's
inputs to perfbench_out/replay_inputs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ring_single", "outage_sweep", "log_replay")
# set-up time is the median over this many fresh interpreters, the
# workload's own among them
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


class Launcher:
    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.out = root / "perfbench_out" / args.workload
        self.prep = None
        self.t_start = perf_counter()
        self.env = dict(os.environ)
        self.env.update({v: "1" for v in THREAD_VARS})
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def _remaining(self):
        return DEADLINE_S - (perf_counter() - self.t_start)

    def worker(self, *extra):
        """Run worker.py to completion; returns seconds from spawn to READY."""
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--seconds", str(self.args.seconds),
            "--trace", str(self.args.trace),
            "--out", str(self.out),
            *extra,
        ]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready_s = perf_counter() - t0
            proc.wait(timeout=max(self._remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker {' '.join(extra)} overran the deadline")
        finally:
            proc.stdout.close()
        if line.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"worker {' '.join(extra)} failed with exit code {proc.returncode}")
        return ready_s

    def replay_inputs(self):
        """Directory of log_replay's inputs, made once per version of the
        code that makes them: the program's sources, the ring preset and
        worker.py. Every log_replay run replays the same seed-0 drive."""
        h = hashlib.sha256()
        sources = sorted((self.root / "src" / "mpnav").glob("*.py"))
        for path in sources + [self.root / "configs" / "single_ring.json", HERE / "worker.py"]:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        cache = self.root / "perfbench_out" / "replay_inputs"
        prep = cache / h.hexdigest()[:16]
        if not prep.is_dir():
            shutil.rmtree(cache, ignore_errors=True)
            tmp = cache / "partial"
            self.worker("--prepare", "--prep", str(tmp))
            tmp.rename(prep)
        return prep

    def run(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        setup = [self.worker("--setup-only") for _ in range(SETUP_SAMPLES - 1)]
        extra = []
        if self.args.workload == "log_replay":
            self.prep = self.replay_inputs()
            extra = ["--prep", str(self.prep)]
        setup.append(self.worker(*extra))
        report = json.loads((self.out / "report.json").read_text())
        return report, setup


def ring_config_checks(root):
    """Inputs of the ring checks, read from the preset config."""
    cfg = json.loads((root / "configs" / "single_ring.json").read_text())
    params = cfg["scenario"].get("params", {})
    stations = checks.ring_stations(
        params.get("n_bs", 8), params.get("bs_radius_m", 318.0), params.get("bs_height_m", 20.0)
    )

    def position_at(t):
        return checks.circle_position(
            t,
            params.get("route_radius_m", 160.0),
            params.get("speed_mps", 8.0),
            params.get("ue_height_m", 1.5),
        )

    return cfg, stations, position_at


def judge_cli_passes(passes, content_checks):
    """Per-pass failures of a CLI workload: exit code, byte-identical outputs
    across the run's passes, and the content checks of the kept outputs
    (those of the last pass). Returns (verdicts, rmse_3d_m or None)."""
    try:
        content_fails, rmse = content_checks()
    except (OSError, ValueError, KeyError) as exc:
        content_fails, rmse = [f"outputs unreadable: {exc!r}"], None
    reference = passes[-1]["digests"]
    verdicts = []
    for p in passes:
        fails = []
        if p["rc"] != 0:
            fails.append(f"CLI exited {p['rc']}")
        if p["digests"] != reference:
            fails.append("outputs differ from another pass of the same run")
        verdicts.append(fails + content_fails)
    return verdicts, rmse


def check_ring_single(launcher, passes):
    passdir = launcher.out / "pass"

    def content():
        cfg, stations, position_at = ring_config_checks(launcher.root)
        summary = checks.read_summary(passdir / "summary.csv")
        records = checks.read_log(passdir / "measurements.jsonl")
        fails = (
            checks.check_summary_rmse(passdir / "errors_with.csv", summary)
            + checks.check_los_outside_outages(records, cfg["outages"])
            + checks.check_los_ranges(records, stations, position_at, cfg["noise"]["var_range_m2"])
            + checks.check_los_count(records, summary)
            + checks.check_los_accounting(summary)
        )
        return fails, float(summary["rmse_3d_m"])

    return judge_cli_passes(passes, content)


def check_log_replay(launcher, passes):
    passdir, prep = launcher.out / "pass", launcher.prep

    def content():
        summary = checks.read_summary(passdir / "summary.csv")
        aided = checks.read_summary(prep / "ring" / "summary.csv")
        fails = checks.check_replay(
            summary,
            checks.read_log(prep / "ring" / "measurements.jsonl"),
            passdir / "errors_without.csv",
            prep / "ref" / "errors_without.csv",
            float(aided["rmse_3d_m"]),
        )
        return fails, float(summary["rmse_3d_m"])

    return judge_cli_passes(passes, content)


def check_outage_sweep(launcher, passes):
    """One verdict per case-seed pair; the growth check belongs to the
    longest outage's pair. rmse_m is the median over distinct case-seeds."""
    verdicts, rmse_with = [], {}
    for p in passes:
        cases = p["cases"]
        for c in cases:
            fails = checks.check_outage_case(c, 0)
            if c is cases[-1]:
                fails += checks.check_outage_growth(cases[0], cases[-1], 0)
            verdicts.append(fails)
            rmse_with[p["seed"], c["case"]] = c["rmse_with_m"][0]
    return verdicts, statistics.median(rmse_with.values())


CHECKERS = {
    "ring_single": check_ring_single,
    "outage_sweep": check_outage_sweep,
    "log_replay": check_log_replay,
}


def units(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    needed = [root / "src" / "mpnav" / "cli.py", root / "configs" / "single_ring.json", root / "BENCHMARK.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: not a checkout of the program, missing {missing}", file=sys.stderr)
        return 2

    launcher = Launcher(root, args)
    try:
        report, setup = launcher.run()
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    untraced = report["passes"]
    judged = untraced + ([report["traced"]] if report["traced"] else [])
    verdicts, rmse = CHECKERS[args.workload](launcher, judged)
    failed = sum(1 for v in verdicts if v)
    for v in verdicts:
        for msg in v:
            print(f"check failed: {msg}", file=sys.stderr)

    wall = statistics.median(p["wall_s"] for p in untraced)
    if args.trace:
        values = dict(report["traced"]["metrics"])
        values["trace.overhead_s"] = report["traced"]["wall_s"] - wall
        for name in report["traced"]["missing"]:
            print(f"layer {name} not found in the program; its metrics are absent", file=sys.stderr)
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "epochs_per_s": statistics.median(p["epochs"] / p["wall_s"] for p in untraced),
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        if rmse is not None:
            values["rmse_m"] = rmse
    unit_of = units(root)
    metrics = {k: {"value": v, "unit": unit_of[k]} for k, v in values.items() if k in unit_of}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(
        f"{args.workload}: {len(untraced)} timed passes, "
        f"{len(verdicts)} operations, {failed} failed",
        file=sys.stderr,
    )
    result = {"correct": failed == 0, "attempted": len(verdicts), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
