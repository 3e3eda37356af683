"""The benchmark's correctness checks reject the faults they exist to catch.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench

Each test first shows a check passing on a real log from a 2 s ring drive,
then failing on a copy with one fault put in.
"""

import json

import pytest

import checks
from mpnav.cli import main

C = checks.SPEED_OF_LIGHT
SHORT_RING = {
    "mode": "single",
    "seed": 0,
    "duration_s": 2,
    "with_sbr": True,
    "scenario": {"preset": "ring", "params": {"speed_mps": 8.0}},
    "rates": {"imu_hz": 100, "obs_hz": 10, "odo_hz": 10},
    "noise": {"var_range_m2": 0.5, "var_angle_deg2": 0.01},
}


def run_cli(tmp, name, cfg):
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp / name
    assert main([str(path), "--output-dir", str(out)]) == 0
    return out


def write_log(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


@pytest.fixture(scope="module")
def ring_log(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ring")
    out = run_cli(tmp, "ring", SHORT_RING)
    return tmp, checks.read_log(out / "measurements.jsonl")


def test_los_range_check_rejects_2m_shift(ring_log):
    _, records = ring_log
    stations = checks.ring_stations()
    assert checks.check_los_ranges(records, stations, checks.circle_position, 0.5) == []
    shifted = [
        dict(r, rtt_s=r["rtt_s"] + 2 * 2.0 / C) if r["kind"] == "los" else r for r in records
    ]
    fails = checks.check_los_ranges(shifted, stations, checks.circle_position, 0.5)
    assert fails and "chi-square" in fails[0]


def test_replay_count_check_rejects_off_grid_timestamps(ring_log):
    tmp, records = ring_log
    for name, offset in (("on_grid", 0.0), ("off_grid", 0.013)):
        moved = [
            dict(r, t_s=r["t_s"] + offset) if r["kind"] in ("los", "sbr") else r for r in records
        ]
        write_log(tmp / f"{name}.jsonl", moved)
        out = run_cli(
            tmp, f"replay_{name}", dict(SHORT_RING, with_sbr=False, measurement_log=f"{name}.jsonl")
        )
        fails = checks.check_los_count(moved, checks.read_summary(out / "summary.csv"))
        assert bool(fails) == (offset != 0.0), (name, fails)


def test_outage_check_rejects_los_inside_window(ring_log):
    _, records = ring_log
    outages = [[20.0, 40.0]]
    assert checks.check_los_outside_outages(records, outages) == []
    leaked = records + [dict(r, t_s=r["t_s"] + 25.0) for r in records if r["kind"] == "los"][:1]
    fails = checks.check_los_outside_outages(leaked, outages)
    assert fails and "outage" in fails[0]
