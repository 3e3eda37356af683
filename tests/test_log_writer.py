"""Property tests of the measurement log: the template writer against the
json.dumps reference, and the round trip through the reader."""

import numpy as np
from helpers import ImuSample, LosObs, OdoSample, SbrObs, log_columns, write_log_json
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpnav.pipeline import Rates, RunSetup, measurement_set_from_records
from mpnav.scene import BaseStation, Scenario
from mpnav.synth import read_measurement_log, write_measurement_log

# 0.3 s at 20 Hz IMU and 10 Hz radio: six IMU samples, three epochs
RATES = Rates(imu_hz=20.0, obs_hz=10.0, odo_hz=10.0)
DURATION_S = 0.3
EPOCH_T = (0.1, 0.2, 0.3)
N_IMU = 6

# finite floats of every size: -0.0, subnormals and 1e+-300 included
num = st.floats(allow_nan=False, allow_infinity=False)
# ingest requires travel times > 0: the smallest subnormal up to 1e+308
tof = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# station ids with quotes, backslashes, control and non-ASCII characters
ids = st.lists(
    st.one_of(
        st.sampled_from(['"', "\\", "a\x00\n\t\x7f", "\u00e9\u2603\U0001f4e1"]),
        st.text(alphabet=st.characters(codec="utf-8"), max_size=6),
    ),
    min_size=1,
    max_size=4,
    unique=True,
)


@st.composite
def logs(draw):
    bs_ids = draw(ids)
    bs = st.sampled_from(bs_ids)
    vec = st.tuples(num, num, num).map(np.array)
    # ingest requires the IMU times to be the run's sample times and the
    # odometer times not to go back
    imu = [ImuSample(t=k / RATES.imu_hz, gyro=draw(vec), accel=draw(vec)) for k in range(N_IMU)]
    odo_t = draw(st.lists(num, min_size=1, max_size=3).map(sorted))
    odo = [OdoSample(t=t, speed=draw(num)) for t in odo_t]
    epochs = []
    for t in EPOCH_T:
        los = draw(
            st.lists(st.builds(LosObs, bs, st.just(t), tof, num, num, num, num, num), max_size=3)
        )
        sbr = draw(
            st.lists(
                st.builds(
                    SbrObs, bs, st.just(t), tof, num, num, num, num, num,
                    st.integers(0, 3), num, num,
                ),
                max_size=3,
            )
        )
        epochs.append((los, sbr))
    return bs_ids, imu, odo, epochs


def setup_for(bs_ids):
    stations = [BaseStation(id=b, p=[10.0 * k, 0.0, 20.0]) for k, b in enumerate(bs_ids)]
    trajectory = {"kind": "circle", "center_en_m": [0.0, 0.0], "radius_m": 50.0, "speed_mps": 5.0}
    return RunSetup(
        scenario=Scenario(base_stations=stations, walls=[], trajectory=trajectory),
        duration_s=DURATION_S,
        rates=RATES,
    )


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(log=logs())
def test_template_writer_matches_json_dumps_and_round_trips(tmp_path, log):
    bs_ids, imu, odo, epochs = log
    setup = setup_for(bs_ids)
    records = {
        "imu": imu,
        "odo": odo,
        "los": [o for los, _ in epochs for o in los],
        "sbr": [o for _, sbr in epochs for o in sbr],
    }
    ms = measurement_set_from_records(log_columns(records), setup)
    assert ms.epoch_t.tolist() == list(EPOCH_T)

    write_measurement_log(tmp_path / "log.jsonl", ms)
    ref = imu + odo + [o for los, sbr in epochs for o in los + sbr]
    write_log_json(tmp_path / "ref.jsonl", ref)
    got_lines = (tmp_path / "log.jsonl").read_bytes().splitlines()
    ref_lines = (tmp_path / "ref.jsonl").read_bytes().splitlines()
    assert got_lines == ref_lines

    back = measurement_set_from_records(read_measurement_log(tmp_path / "log.jsonl"), setup)
    assert back.bs_ids == ms.bs_ids
    for name in ("epoch_idx", "epoch_t", "imu_t", "gyro", "accel", "odo_t", "odo_v"):
        assert same_bits(getattr(back, name), getattr(ms, name)), name
    for kind in ("los", "sbr"):
        for col in ("off", "bs", "obs", "rss", "bounces", "body"):
            a, b = getattr(back, kind), getattr(ms, kind)
            assert same_bits(getattr(a, col), getattr(b, col)), (kind, col)
