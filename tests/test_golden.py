"""Golden outputs: every file the four presets and a few ring variants write
through the CLI, held to the digests in golden.json.

A refactor that moves one bit of one output fails here, not only in a
comparison made by hand. The digests hold for one numpy, BLAS and CPU, so
golden.json records the numpy version and the machine it was made on. Where
both match, each file must hash as recorded. Every run also compares each
CSV number with the recorded one within RTOL (plus ATOL near zero), which is
the whole check on another numpy or machine: there a changed BLAS kernel or
SIMD path moves the last bits of sums, which the filter carries to about
1e-12 relative, while a flipped gate decision or a changed formula moves
numbers far beyond 1e-6.

After a change that moves outputs on purpose, rewrite the table with

    PYTHONPATH=src python tests/update_golden.py

and list every moved file in CHANGES.md.
"""

import csv
import hashlib
import io
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from mpnav.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RTOL = 1e-6
ATOL = 1e-9


def _preset(name, **overrides):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    if cfg["mode"] != "single":
        block = cfg[cfg["mode"].replace("-", "_")]
        block.pop("n_seeds")
        block["seeds"] = [0, 1]
    return dict(cfg, **overrides)


def _ring_10s(**overrides):
    # the preset's 20-40 s outage holds no epoch of a 10 s run
    return _preset("single_ring", duration_s=10, outages=[], **overrides)


# output directory name -> config, run in this order; the replay reads the
# ring run's log by a path relative to the config's directory, so that its
# manifest does not depend on where the test runs
CASES = {
    "single_ring": _preset("single_ring"),
    "outage_sweep": _preset("outage_sweep"),
    "noise_sweep": _preset("noise_sweep"),
    "drift_profile": _preset("drift_profile"),
    "replay_los": _preset(
        "single_ring", with_sbr=False, measurement_log="single_ring/measurements.jsonl"
    ),
    "replay_sbr": _preset(
        "single_ring", with_sbr=True, measurement_log="single_ring/measurements.jsonl"
    ),
    "ring_10s_double_bounce": _ring_10s(include_double_bounce=True),
    "ring_10s_no_body_aoa": _ring_10s(use_body_aoa=False),
    "ring_10s_odo_5hz": dict(
        _ring_10s(), rates={"imu_hz": 100, "obs_hz": 10, "odo_hz": 5}
    ),
}


def environment():
    return {"numpy": np.__version__, "machine": platform.machine()}


def run_cases(workdir: Path) -> dict:
    """Run every case through the CLI into workdir/<case>; returns
    {"<case>/<file>": {"sha256": ..., and "csv": its text for a CSV}}."""
    files = {}
    for name, cfg in CASES.items():
        config = workdir / f"{name}.json"
        config.write_text(json.dumps(cfg))
        assert main([str(config), "--output-dir", str(workdir / name)]) == EXIT_OK, name
        for path in sorted((workdir / name).iterdir()):
            data = path.read_bytes()
            entry = {"sha256": hashlib.sha256(data).hexdigest()}
            if path.suffix == ".csv":
                entry["csv"] = data.decode()
            files[f"{name}/{path.name}"] = entry
    return files


def _cells(text):
    return list(csv.reader(io.StringIO(text)))


def _numbers_close(got, want):
    """Positions of the cells of two CSV texts that differ: a number by more
    than RTOL and ATOL, any other cell at all, or a row or cell missing."""
    a, b = _cells(got), _cells(want)
    bad = [] if len(a) == len(b) else [("rows", len(a), len(b))]
    for i, (ra, rb) in enumerate(zip(a, b)):
        if len(ra) != len(rb):
            bad.append((i, len(ra), len(rb)))
            continue
        for j, (x, y) in enumerate(zip(ra, rb)):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                if x != y:
                    bad.append((i, j, x, y))
                continue
            if not math.isclose(fx, fy, rel_tol=RTOL, abs_tol=ATOL):
                bad.append((i, j, x, y))
    return bad


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_same_files_as_recorded(outputs, golden):
    assert sorted(outputs) == sorted(golden["files"])


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_golden_table(outputs, golden, case):
    names = sorted(f for f in golden["files"] if f.startswith(f"{case}/"))
    assert names
    moved = []
    for name in names:
        got, want = outputs.get(name), golden["files"][name]
        assert got is not None, f"{name} not written"
        if "csv" in want:
            bad = _numbers_close(got["csv"], want["csv"])
            assert not bad, f"{name}: {len(bad)} cells moved beyond tolerance, first {bad[:3]}"
        if got["sha256"] != want["sha256"]:
            moved.append(name)
    if golden["environment"] == environment():
        assert moved == [], "files no longer byte-identical to golden.json"
