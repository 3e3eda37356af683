"""The columnar measurement-log reader against the per-record reference:
the same numbers on valid logs, the same error on a corrupted line, and a
memory footprint set by its columns."""

import json
import tracemalloc
from dataclasses import replace

import pytest
from helpers import log_columns, read_measurement_log_per_record
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpnav.pipeline import RunSetup, measurement_set_from_records, synth_measurements
from mpnav.scene import ring_scenario
from mpnav.synth import LOG_KEYS, read_measurement_log, write_measurement_log

KINDS = ("imu", "odo", "los", "sbr")
OPTIONAL = ("truth_bounces", "aoa_az_body_rad", "aoa_el_body_rad")

# a small valid log: every kind, two stations, one SBR record relying on the
# defaults of its optional keys
VALID = [
    {"kind": "imu", "t_s": 0.0, "gyro_rps": [0.01, -0.02, 0.03], "accel_mps2": [0.1, 0.2, 9.8]},
    {"kind": "imu", "t_s": 0.01, "gyro_rps": [0.0, 0.5, -1e-9], "accel_mps2": [-0.3, 0.0, 9.7]},
    {"kind": "odo", "t_s": 0.0, "speed_mps": 5.5},
    {
        "kind": "los",
        "bs_id": "bs0",
        "t_s": 0.1,
        "rtt_s": 4.1e-7,
        "aod_az_rad": 0.3,
        "aod_el_rad": -0.1,
        "aoa_az_rad": -2.8,
        "aoa_el_rad": 0.1,
        "rss_dbm": -70.25,
    },
    {
        "kind": "sbr",
        "bs_id": "bs1",
        "t_s": 0.1,
        "toa_s": 3.3e-7,
        "aod_az_rad": 1.2,
        "aod_el_rad": -0.05,
        "aoa_az_rad": -1.9,
        "aoa_el_rad": 0.04,
        "rss_dbm": -88.5,
        "truth_bounces": 2,
        "aoa_az_body_rad": 0.7,
        "aoa_el_body_rad": 0.02,
    },
    {
        "kind": "sbr",
        "bs_id": "bs0",
        "t_s": 0.1,
        "toa_s": 5.0e-7,
        "aod_az_rad": -0.4,
        "aod_el_rad": -0.07,
        "aoa_az_rad": 2.2,
        "aoa_el_rad": 0.06,
        "rss_dbm": -91.0,
    },
]


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def assert_same_columns(got, ref):
    """Bit-equal columns; station indices compared through their ids."""
    assert sorted(got) == sorted(ref) == sorted(KINDS)
    for kind in KINDS:
        a, b = got[kind], ref[kind]
        assert len(a) == len(b), kind
        assert a.values.dtype == b.values.dtype and a.values.shape == b.values.shape, kind
        assert a.values.tobytes() == b.values.tobytes(), kind
        if kind in ("los", "sbr"):
            assert [a.ids[i] for i in a.bs.tolist()] == [b.ids[i] for i in b.bs.tolist()], kind
    assert got["sbr"].bounces.tolist() == ref["sbr"].bounces.tolist()


def reference_columns(path):
    return log_columns(read_measurement_log_per_record(path))


@pytest.fixture(scope="module")
def ring_log(tmp_path_factory):
    """A 10 s ring-drive log at the preset rates."""
    setup = RunSetup(scenario=ring_scenario(speed_mps=8.0), duration_s=10.0, seed=0)
    path = tmp_path_factory.mktemp("ring") / "ring.jsonl"
    write_measurement_log(path, synth_measurements(setup))
    return path


SHORT_RING = RunSetup(scenario=ring_scenario(speed_mps=8.0), duration_s=2.0, seed=0)


@pytest.fixture(scope="module")
def short_ring_columns(tmp_path_factory):
    """The reader's columns of a 2 s ring-drive log."""
    path = tmp_path_factory.mktemp("short") / "ring.jsonl"
    write_measurement_log(path, synth_measurements(SHORT_RING))
    return read_measurement_log(path)


@st.composite
def ingest_faults(draw, cols):
    """(kind, row, column, value, message start): one number of a valid
    log's columns that the ingest contract rejects, with the start of the
    error naming its record. An IMU time moves off the sample grid, an
    odometer time goes before its predecessor's, or a radio travel time
    becomes <= 0."""
    kind = draw(st.sampled_from(["imu", "odo", "los", "sbr"]))
    times = cols[kind].values[:, 0]
    if kind == "imu":
        k = draw(st.integers(0, len(times) - 1))
        shift = draw(st.floats(1e-5, 100.0)) * draw(st.sampled_from([-1.0, 1.0]))
        return kind, k, 0, float(times[k]) + shift, f"IMU sample {k} has t_s "
    if kind == "odo":
        k = draw(st.integers(1, len(times) - 1))
        back = draw(st.floats(1e-6, 100.0))
        return kind, k, 0, float(times[k - 1]) - back, f"odometer record {k} has t_s "
    k = draw(st.integers(0, len(times) - 1))
    tof = draw(st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
    if kind == "los":
        return kind, k, 1, tof, f"LoS record {k} has rtt_s "
    return kind, k, 1, tof, f"SBR record {k} has toa_s "


def test_ingest_rejects_the_offending_record(short_ring_columns):
    assert min(len(cols) for cols in short_ring_columns.values()) > 1
    measurement_set_from_records(short_ring_columns, SHORT_RING)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(fault=ingest_faults(short_ring_columns))
    def check(fault):
        kind, k, col, value, message = fault
        values = short_ring_columns[kind].values.copy()
        values[k, col] = value
        cols = dict(short_ring_columns, **{kind: replace(short_ring_columns[kind], values=values)})
        with pytest.raises(ValueError) as err:
            measurement_set_from_records(cols, SHORT_RING)
        assert str(err.value).startswith(message), (str(err.value), message)

    check()


def test_reader_matches_per_record_reference_on_a_ring_log(ring_log):
    got = read_measurement_log(ring_log)
    assert {kind: len(cols) for kind, cols in got.items()} == {
        kind: len(recs) for kind, recs in read_measurement_log_per_record(ring_log).items()
    }
    assert_same_columns(got, reference_columns(ring_log))


def test_reader_fills_sbr_defaults(tmp_path):
    path = tmp_path / "valid.jsonl"
    # blank lines are skipped, as is surrounding whitespace
    lines = [json.dumps(d) for d in VALID]
    write_lines(path, lines[:3] + ["", "  "] + lines[3:])
    got = read_measurement_log(path)
    assert_same_columns(got, reference_columns(path))
    assert got["sbr"].bounces.tolist() == [2, 1]
    assert got["sbr"].values[1, -2:].tolist() == [0.0, 0.0]
    assert got["los"].ids == got["sbr"].ids == ("bs0", "bs1")
    assert got["sbr"].bs.tolist() == [1, 0]
    assert [got[kind].values.shape[1] for kind in KINDS] == [len(LOG_KEYS[k]) for k in KINDS]


def non_numbers():
    return st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def corruptions(draw):
    """(line index, corrupted line text) for one line of VALID."""
    k = draw(st.integers(0, len(VALID) - 1))
    d = dict(VALID[k])
    line = json.dumps(d)
    how = draw(
        st.sampled_from(
            ["truncate", "drop_key", "non_finite", "short_vector", "unknown_kind", "non_object"]
        )
    )
    if how == "truncate":
        return k, line[: draw(st.integers(1, len(line) - 1))]
    if how == "drop_key":
        del d[draw(st.sampled_from(sorted(set(d) - set(OPTIONAL))))]
    elif how == "non_finite":
        key = draw(st.sampled_from(sorted(set(LOG_KEYS[d["kind"]]) & set(d))))
        if isinstance(d[key], list):
            vec = list(d[key])
            vec[draw(st.integers(0, 2))] = draw(non_numbers())
            d[key] = vec
        else:
            d[key] = draw(non_numbers())
    elif how == "short_vector":
        k = draw(st.sampled_from([0, 1]))  # the IMU lines
        d = dict(VALID[k])
        key = draw(st.sampled_from(["gyro_rps", "accel_mps2"]))
        d[key] = d[key][:2]
    elif how == "unknown_kind":
        d["kind"] = draw(
            st.one_of(
                st.text(max_size=5).filter(lambda s: s not in KINDS),
                st.integers(),
                st.none(),
                st.lists(st.sampled_from(KINDS), max_size=2),
            )
        )
    else:
        value = st.one_of(
            st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=4), st.none()
        )
        return k, json.dumps(draw(value))
    return k, json.dumps(d)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(bad=corruptions())
def test_corrupted_line_raises_the_reference_error(tmp_path, bad):
    k, text = bad
    lines = [json.dumps(d) for d in VALID]
    lines[k] = text
    path = tmp_path / "bad.jsonl"
    write_lines(path, lines)
    with pytest.raises(ValueError) as ref:
        read_measurement_log_per_record(path)
    with pytest.raises(ValueError) as got:
        read_measurement_log(path)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith(f"line {k + 1}: ")


def test_out_of_range_integer_names_its_line(tmp_path):
    # the per-record reference lets OverflowError escape here
    odo = dict(VALID[2], speed_mps=10**400)
    sbr = dict(VALID[4], truth_bounces=2**70)
    for k, d in ((2, odo), (4, sbr)):
        lines = [json.dumps(v) for v in VALID]
        lines[k] = json.dumps(d)
        write_lines(tmp_path / "big.jsonl", lines)
        with pytest.raises(ValueError, match=f"^line {k + 1}: "):
            read_measurement_log(tmp_path / "big.jsonl")


def test_strings_and_booleans_are_not_numbers(tmp_path):
    # float() would read "0.5" as 0.5 and true as 1.0, and int() 1.5 as 1
    cases = []
    for k, d in enumerate(VALID):
        for key in sorted(set(LOG_KEYS[d["kind"]]) & set(d)):
            for bad in ("0.5", True, False):
                if isinstance(d[key], list):
                    cases.append((k, dict(d, **{key: [d[key][0], bad, d[key][2]]}), key))
                else:
                    cases.append((k, dict(d, **{key: bad}), key))
        if d["kind"] == "sbr":
            for bad in (1.5, "2", True):
                cases.append((k, dict(d, truth_bounces=bad), None))
    assert len(cases) == 3 * (3 + 3 + 2 + 7 + 9 + 7) + 2 * 3
    for k, d, key in cases:
        lines = [json.dumps(v) for v in VALID]
        lines[k] = json.dumps(d)
        write_lines(tmp_path / "typed.jsonl", lines)
        message = f"{key} is not a number" if key else "truth_bounces is not an integer"
        with pytest.raises(ValueError, match=f"^line {k + 1}: {message}$"):
            read_measurement_log(tmp_path / "typed.jsonl")


def test_reader_memory_is_its_columns(ring_log):
    # per-record objects would hold several times the columns' bytes
    tracemalloc.start()
    try:
        cols = read_measurement_log(ring_log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(
        c.values.nbytes + sum(a.nbytes for a in (c.bs, c.bounces) if a is not None)
        for c in cols.values()
    )
    assert sum(len(c) for c in cols.values()) > 5000
    assert peak <= 2 * nbytes + 256 * 1024, (peak, nbytes)
