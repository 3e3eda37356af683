import math

import numpy as np
import pytest
from helpers import (
    double_bounce_path,
    double_bounces_per_path,
    los_visible,
    random_bs,
    random_single_bounce,
    random_ue,
    random_wall,
    save_scenario,
    scenario_to_dict,
    specular_path,
    stack_poses,
    trajectory_poses_per_sample,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mpnav.scene import (
    BaseStation,
    GeometryError,
    Pose,
    Scenario,
    SceneArrays,
    Trajectory,
    Wall,
    _floats,
    angles_from_unit,
    load_scenario,
    mirror_point,
    ring_scenario,
    scenario_from_dict,
    trajectory_poses,
    unit_from_angles,
)

WALL_X50 = Wall(id="x50", a=[50.0, 0.0], b=[50.0, 100.0], z0=0.0, h=20.0)


def test_wall_normal_horizontal_unit():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = random_wall(rng)
        assert w.normal[2] == 0.0
        assert np.linalg.norm(w.normal) == pytest.approx(1.0, abs=1e-12)
        # left perpendicular of the footprint direction
        assert np.allclose(np.cross(np.append(w.tangent, 0.0), w.normal), [0, 0, 1], atol=1e-12)


def test_wall_validation():
    with pytest.raises(GeometryError):
        Wall(id="bad", a=[0, 0], b=[0, 0], h=5.0)
    with pytest.raises(GeometryError):
        Wall(id="bad", a=[0, 0], b=[1, 0], h=0.0)
    with pytest.raises(GeometryError):
        BaseStation(id="bad", p=[np.nan, 0, 0])


@pytest.mark.parametrize(
    "value, shape",
    [
        (True, ()),
        (np.bool_(False), ()),
        ("1.0", ()),
        (math.nan, ()),
        (math.inf, ()),
        (-math.inf, ()),
        (2**70, ()),
        (None, ()),
        (np.array([1.0, 2.0]), ()),
        (1.0, (2,)),
        ([True, False], (2,)),
        (np.array([True, False]), (2,)),
        (["1", "2"], (2,)),
        ([0.0, math.nan], (2,)),
        (np.array([0.0, np.nan]), (2,)),
        (np.array([np.inf, 0.0]), (2,)),
        ([1.0, 2.0, 3.0], (2,)),
        (np.zeros(3), (2,)),
        (np.zeros((2, 1)), (2,)),
        ([[1.0, 2.0, 3.0], [4.0, 5.0]], (None, 3)),
        (np.zeros((4, 2)), (None, 3)),
    ],
    ids=[
        "bool",
        "numpy_bool",
        "string",
        "nan",
        "inf",
        "minus_inf",
        "int_beyond_int64",
        "null",
        "array_for_a_number",
        "number_for_an_array",
        "bool_list",
        "bool_array",
        "string_list",
        "nan_in_list",
        "nan_in_array",
        "inf_in_array",
        "list_too_long",
        "array_too_long",
        "array_of_rank_2",
        "ragged_rows",
        "rows_too_short",
    ],
)
def test_floats_refusal_names_the_value(value, shape):
    dims = ", ".join("n" if n is None else str(n) for n in shape)
    expected = f"finite numbers of shape ({dims})" if shape else "a finite number"
    with pytest.raises(GeometryError) as err:
        _floats(value, "wall 'w': height", shape)
    assert str(err.value) == f"wall 'w': height must be {expected}"


def test_floats_accepts_numbers_as_floats():
    for value in (2.5, 3, -(2**63), np.float64(2.5), np.int32(3)):
        got = _floats(value, "x")
        assert type(got) is float and got == float(value)
    for value in (np.array([1.0, -2.0]), np.array([1, 2]), np.array([1.0, 2.0], dtype=np.float32), [1, 2.5]):
        got = _floats(value, "x", (2,))
        assert got.dtype == np.float64 and got.shape == (2,)
        assert np.array_equal(got, np.asarray(value, dtype=float))
        assert not np.shares_memory(got, value)
    rows = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(_floats(rows, "x", (None, 3)), rows)


def test_mirror_point_plane_x50():
    assert np.allclose(mirror_point([0.0, 0.0, 10.0], WALL_X50), [100.0, 0.0, 10.0])
    # a point on the plane is a fixed point
    assert np.allclose(mirror_point([50.0, 7.0, 3.0], WALL_X50), [50.0, 7.0, 3.0])


def test_mirror_involution():
    rng = np.random.default_rng(1)
    for _ in range(100):
        w = random_wall(rng)
        p = rng.uniform(-150, 150, 3)
        assert np.allclose(mirror_point(mirror_point(p, w), w), p, atol=1e-12)


def test_specular_path_worked_example():
    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    ue = np.array([20.0, 30.0, 0.0])
    path = specular_path(bs, ue, WALL_X50)
    assert path is not None
    assert np.allclose(path.point, [50.0, 18.75, 3.75], atol=1e-9)
    mirror = mirror_point(bs.p, WALL_X50)
    assert path.length == pytest.approx(np.linalg.norm(mirror - ue), abs=1e-9)
    assert path.length == pytest.approx(86.023, abs=1e-3)
    assert path.leg_bs == pytest.approx(53.764, abs=1e-3)
    assert path.leg_ue == pytest.approx(32.259, abs=1e-3)
    assert path.leg_bs + path.leg_ue == pytest.approx(path.length, rel=1e-12)
    # short wall puts the crossing outside the rectangle
    short = Wall(id="s", a=[50.0, 0.0], b=[50.0, 10.0], z0=0.0, h=20.0)
    assert specular_path(bs, ue, short) is None


def test_specular_same_side_crossing():
    # both endpoints below x=50; the mirrored segment still crosses the plane
    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    ue = np.array([10.0, 0.0, 0.0])
    wall = Wall(id="x50", a=[50.0, -50.0], b=[50.0, 50.0], z0=0.0, h=20.0)
    path = specular_path(bs, ue, wall)
    assert path is not None
    assert path.point[0] == pytest.approx(50.0, abs=1e-9)


def test_specular_invariants_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        bs, ue, wall, path = random_single_bounce(rng)
        assert np.linalg.norm(path.u_dep) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(path.u_arr) == pytest.approx(1.0, abs=1e-12)
        assert wall.on_rectangle(path.point, tol=1e-7)
        # total length equals the mirror construction
        assert path.length == pytest.approx(
            np.linalg.norm(mirror_point(bs.p, wall) - ue), abs=1e-9
        )
        # specular law: outgoing direction is the mirrored incoming direction
        n = wall.normal
        out_dir = (ue - path.point) / path.leg_ue
        reflected = path.u_dep - 2.0 * (path.u_dep @ n) * n
        assert np.allclose(out_dir, reflected, atol=1e-9)
        # a vertical plane preserves the vertical direction component
        assert out_dir[2] == pytest.approx(path.u_dep[2], abs=1e-9)


def test_los_visible_cases():
    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    ue = np.array([100.0, 0.0, 0.0])
    assert los_visible(bs, ue, [])
    blocking = Wall(id="b", a=[50.0, -10.0], b=[50.0, 10.0], z0=0.0, h=20.0)
    assert not los_visible(bs, ue, [blocking])
    offset = Wall(id="o", a=[50.0, 5.0], b=[50.0, 10.0], z0=0.0, h=20.0)
    assert los_visible(bs, ue, [offset])
    # passing above a low wall
    low = Wall(id="l", a=[50.0, -10.0], b=[50.0, 10.0], z0=0.0, h=2.0)
    assert los_visible(bs, ue, [low])


def test_los_visible_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(100):
        bs = random_bs(rng)
        ue = random_ue(rng)
        walls = [random_wall(rng, f"w{k}") for k in range(3)]
        a = los_visible(bs, ue, walls)
        b = los_visible(BaseStation(id="r", p=ue), bs.p, walls)
        assert a == b


def test_double_bounce_parallel_walls():
    w1 = Wall(id="w1", a=[50.0, -100.0], b=[50.0, 100.0], z0=0.0, h=30.0)
    w2 = Wall(id="w2", a=[-50.0, -100.0], b=[-50.0, 100.0], z0=0.0, h=30.0)
    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    ue = np.array([10.0, 20.0, 0.0])
    path = double_bounce_path(bs, ue, w1, w2)
    assert path is not None
    assert path.bounces == 2
    assert path.length > np.linalg.norm(bs.p - ue)
    assert w1.on_rectangle(path.points[0], tol=1e-7)
    assert w2.on_rectangle(path.points[1], tol=1e-7)
    # wall2 too short for the second crossing
    stub = Wall(id="w2s", a=[-50.0, 90.0], b=[-50.0, 100.0], z0=0.0, h=30.0)
    assert double_bounce_path(bs, ue, w1, stub) is None
    with pytest.raises(GeometryError):
        double_bounce_path(bs, ue, w1, w1)


def test_double_bounce_exceeds_straight_line():
    from helpers import random_double_bounce

    rng = np.random.default_rng(4)
    for _ in range(60):
        bs, ue, walls, path = random_double_bounce(rng)
        assert path.length >= np.linalg.norm(bs.p - ue) - 1e-9
        legs = [
            np.linalg.norm(path.points[0] - bs.p),
            np.linalg.norm(path.points[1] - path.points[0]),
            np.linalg.norm(ue - path.points[1]),
        ]
        assert path.length == pytest.approx(sum(legs), rel=1e-12)


def test_angle_unit_round_trip():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((100, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    az, el = angles_from_unit(u)
    assert np.allclose(unit_from_angles(az, el), u, atol=1e-12)


def test_scene_arrays_match_scalar_oracle():
    # the same single bounces as specular_path, every number bit for bit,
    # and the same visibility as los_visible
    rng = np.random.default_rng(6)
    for _ in range(60):
        stations = [random_bs(rng, f"bs{k}") for k in range(4)]
        walls = [random_wall(rng, f"w{k}") for k in range(4)]
        arrays = SceneArrays(stations, walls)
        for _ in range(4):
            ue = random_ue(rng)
            bs_idx, wall_idx, point, leg_bs, leg_ue, length, u_dep, u_arr, ue_idx = (
                arrays.specular_arrays(ue)
            )
            assert not ue_idx.any()
            got = {(int(b), int(w)) for b, w in zip(bs_idx, wall_idx)}
            want = {}
            for bi, bs in enumerate(stations):
                for wi, wall in enumerate(walls):
                    path = specular_path(bs, ue, wall)
                    if path is not None:
                        want[(bi, wi)] = path
            assert got == set(want)
            for j, (bi, wi) in enumerate(zip(bs_idx, wall_idx)):
                ref = want[(int(bi), int(wi))]
                assert point[j].tobytes() == ref.point.tobytes()
                assert leg_bs[j] == ref.leg_bs
                assert leg_ue[j] == ref.leg_ue
                assert length[j] == ref.length
                assert u_dep[j].tobytes() == ref.u_dep.tobytes()
                assert u_arr[j].tobytes() == ref.u_arr.tobytes()
            mask = arrays.los_mask(ue)
            for bi, bs in enumerate(stations):
                assert mask[bi] == los_visible(bs, ue, walls)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scene_arrays_hold_the_reflection_invariants(seed):
    # criterion 1's invariants, held by SceneArrays on criterion 1's scenes
    bs, ue, wall, _ = random_single_bounce(np.random.default_rng(seed))
    arrays = SceneArrays([bs], [wall])
    image = arrays.db_m1[0, 0]
    # mirroring the image back returns the station
    back = SceneArrays([BaseStation(id="image", p=image)], [wall]).db_m1[0, 0]
    assert np.max(np.abs(back - bs.p)) < 1e-12
    bs_idx, _, _, _, _, length, u_dep, u_arr, _ = arrays.specular_arrays(ue)
    assert bs_idx.size == 1
    # the path is as long as the straight line from the image to the UE
    assert abs(length[0] - np.linalg.norm(image - ue)) < 1e-9
    # specular law: the departure mirrored in the wall is the arrival reversed
    n = wall.normal
    reflected = u_dep[0] - 2.0 * float(u_dep[0] @ n) * n
    assert np.max(np.abs(reflected + u_arr[0])) < 1e-9
    # a vertical wall keeps the vertical component of the direction
    assert abs(u_dep[0, 2] + u_arr[0, 2]) < 1e-9


def test_scene_arrays_stacked_ues_match_single_calls():
    # a stack of UE positions gives the single-position results bit for
    # bit, ordered by UE, then station, then wall
    rng = np.random.default_rng(16)
    for _ in range(30):
        stations = [random_bs(rng, f"bs{k}") for k in range(5)]
        walls = [random_wall(rng, f"w{k}") for k in range(4)]
        # a station and a UE in the plane of one wall exercise the in-plane
        # fallback of los_mask
        w = walls[0]
        stations[1] = BaseStation(id="bs1", p=[*(w.a - 10.0 * w.tangent), 8.0])
        arrays = SceneArrays(stations, walls)
        ues = np.stack([random_ue(rng) for _ in range(12)])
        ues[3] = [*(w.a + 0.5 * w.length * w.tangent), 2.0]
        stacked = arrays.specular_arrays(ues)
        singles = [arrays.specular_arrays(ue) for ue in ues]
        for k in range(8):
            assert np.array_equal(stacked[k], np.concatenate([r[k] for r in singles]))
        assert np.array_equal(stacked[8], np.repeat(np.arange(12), [r[0].size for r in singles]))
        mask = arrays.los_mask(ues)
        assert mask.shape == (12, 5)
        assert np.array_equal(mask, np.stack([arrays.los_mask(ue) for ue in ues]))


@pytest.mark.parametrize(
    "n_bs, n_walls, n_ue",
    [(3, 6, 4), (4, 3, 1), (2, 1, 3), (3, 0, 2), (0, 4, 2)],
    ids=["stacked_ues", "one_ue", "one_wall", "no_walls", "no_stations"],
)
def test_scene_arrays_double_bounces_match_scalar_oracle(n_bs, n_walls, n_ue):
    # the same paths in the same order, every number bit for bit
    rng = np.random.default_rng(17)
    n_paths = 0
    for _ in range(40):
        stations = [random_bs(rng, f"bs{k}") for k in range(n_bs)]
        walls = [random_wall(rng, f"w{k}") for k in range(n_walls)]
        ues = np.stack([random_ue(rng) for _ in range(n_ue)])
        got = SceneArrays(stations, walls).double_bounce_arrays(ues if n_ue > 1 else ues[0])
        want = double_bounces_per_path(stations, walls, ues)
        bs_idx, w1_idx, w2_idx, point1, point2, length, u_dep, u_arr, ue_idx = got
        assert all(a.shape[0] == len(want) for a in got)
        assert [(e, b, i, j) for e, b, i, j, _ in want] == list(
            zip(ue_idx.tolist(), bs_idx.tolist(), w1_idx.tolist(), w2_idx.tolist())
        )
        for k, (*_, path) in enumerate(want):
            assert point1[k].tobytes() == path.points[0].tobytes()
            assert point2[k].tobytes() == path.points[1].tobytes()
            assert length[k] == path.length
            assert u_dep[k].tobytes() == path.u_dep.tobytes()
            assert u_arr[k].tobytes() == path.u_arr.tobytes()
        n_paths += len(want)
    if n_bs and n_walls >= 2:
        assert n_paths > 20
    else:
        assert n_paths == 0


def test_trajectory_circle():
    spec = {
        "kind": "circle",
        "center_en_m": [10.0, -5.0],
        "radius_m": 100.0,
        "speed_mps": 8.0,
        "z_m": 1.5,
    }
    times = np.arange(0.0, 20.0, 0.5)
    poses = trajectory_poses(spec, times)
    for po in poses:
        assert np.hypot(po.p[0] - 10.0, po.p[1] + 5.0) == pytest.approx(100.0, abs=1e-9)
        assert po.p[2] == 1.5
        assert np.linalg.norm(po.v) == pytest.approx(8.0, abs=1e-9)
        # yaw follows the velocity direction
        assert po.att[2] == pytest.approx(np.arctan2(po.v[1], po.v[0]), abs=1e-12)
    # distance traveled matches speed * time
    arc = np.linalg.norm(np.diff(poses.p, axis=0), axis=1).sum()
    assert arc == pytest.approx(8.0 * 19.5, rel=1e-3)


def test_trajectory_waypoints():
    spec = {
        "kind": "waypoints",
        "points_enu_m": [[0, 0, 0], [100, 0, 0], [100, 50, 0]],
        "speed_mps": 10.0,
    }
    poses = trajectory_poses(spec, [0.0, 5.0, 10.0, 12.0, 100.0])
    assert np.allclose(poses[0].p, [0, 0, 0])
    assert np.allclose(poses[1].p, [50, 0, 0])
    assert np.allclose(poses[2].p, [100, 0, 0])
    assert np.allclose(poses[3].p, [100, 20, 0])
    # route exhausted: parked at the last point
    assert np.allclose(poses[4].p, [100, 50, 0])
    assert np.allclose(poses[4].v, 0.0)
    assert poses[1].att[2] == pytest.approx(0.0)
    assert poses[3].att[2] == pytest.approx(np.pi / 2)


def test_trajectory_samples_and_errors():
    ts = [0.0, 1.0, 2.0, 3.0]
    ps = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]
    poses = trajectory_poses({"kind": "samples", "t_s": ts, "p_enu_m": ps}, [0.5, 2.5])
    assert np.allclose(poses[0].p, [0.5, 0, 0])
    assert np.allclose(poses[0].v, [1, 0, 0], atol=1e-9)
    with pytest.raises(GeometryError):
        trajectory_poses({"kind": "nope"}, [0.0])
    with pytest.raises(GeometryError):
        trajectory_poses({"kind": "circle", "center_en_m": [0, 0], "radius_m": 0.0, "speed_mps": 1.0}, [0.0])
    with pytest.raises(GeometryError):
        trajectory_poses({"kind": "samples", "t_s": ts, "p_enu_m": ps}, [5.0])


CIRCLE = {"kind": "circle", "center_en_m": [10.0, -5.0], "radius_m": 100.0, "speed_mps": 8.0, "z_m": 1.5}
ROUTE = {
    "kind": "waypoints",
    "points_enu_m": [[0.0, 0.0, 1.5], [100.0, 0.0, 1.5], [100.0, 50.0, 4.0], [-20.0, 80.0, 2.0]],
    "speed_mps": 9.0,
}
SAMPLE_T = [0.0, 0.7, 1.5, 2.0, 3.1, 4.0]
SAMPLE_P = [[0, 0, 1], [1, 0.5, 1], [2.5, 1.5, 1.2], [3, 3, 1.1], [2, 5, 1], [0, 6, 1]]
TRAJECTORY_CASES = {
    "circle_ccw": (dict(CIRCLE, phase_rad=0.3), np.arange(6001) / 100.0),
    "circle_cw": (dict(CIRCLE, ccw=False, phase_rad=-1.2), np.arange(6001) / 100.0),
    "circle_at_rest_ccw": (dict(CIRCLE, speed_mps=0.0, phase_rad=0.7), np.arange(201) / 20.0),
    "circle_at_rest_cw": (dict(CIRCLE, speed_mps=0.0, ccw=False), np.arange(201) / 20.0),
    # the route is 291 m long: past 32.4 s it holds the last point
    "waypoints_and_end_hold": (ROUTE, np.arange(801) / 20.0),
    "waypoints_on_the_corners": (ROUTE, np.array([0.0, 100.0 / 9.0, 150.0 / 9.0, 400.0])),
    "samples_differenced": (
        {"kind": "samples", "t_s": SAMPLE_T, "p_enu_m": SAMPLE_P},
        np.linspace(0.0, 4.0, 97),
    ),
    "samples_given_v_and_att": (
        {
            "kind": "samples",
            "t_s": SAMPLE_T,
            "p_enu_m": SAMPLE_P,
            "v_enu_mps": [[1, 0.2, 0], [1.5, 1, 0], [1, 2, 0.1], [0, 2, 0], [-1, 1, 0], [-2, 0, 0]],
            "att_rpy_rad": [[0, 0, 0.1], [0.01, 0, 0.5], [0, -0.02, 1.1], [0, 0, 1.6], [0, 0, 2.4], [0, 0, 3.1]],
        },
        np.linspace(0.0, 4.0, 97),
    ),
}


def bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
def test_trajectory_columns_match_per_sample_reference(case):
    spec, times = TRAJECTORY_CASES[case]
    got = trajectory_poses(spec, times)
    poses = trajectory_poses_per_sample(spec, times)
    ref = stack_poses(poses)
    assert isinstance(got, Trajectory)
    for name in ("t", "p", "v", "att"):
        assert bit_equal(getattr(got, name), getattr(ref, name)), name
    # rows read back as the reference's Pose objects
    assert len(got) == len(poses)
    for k in (0, 1, len(poses) // 2, -1):
        row = got[k]
        assert isinstance(row, Pose)
        assert row.t == poses[k].t
        assert all(bit_equal(getattr(row, n), getattr(poses[k], n)) for n in ("p", "v", "att"))
    # iteration walks the rows and stops at the end
    assert [po.t for po in got] == [po.t for po in poses]


def test_scenario_round_trip(tmp_path):
    scn = ring_scenario(n_bs=4, n_walls=4)
    d = scenario_to_dict(scn)
    back = scenario_from_dict(d)
    assert [b.id for b in back.base_stations] == [b.id for b in scn.base_stations]
    assert all(
        np.allclose(a.p, b.p) for a, b in zip(back.base_stations, scn.base_stations)
    )
    path = tmp_path / "scn.json"
    save_scenario(path, scn)
    loaded = load_scenario(path)
    assert scenario_to_dict(loaded) == d


def test_scenario_validation():
    with pytest.raises(GeometryError):
        Scenario(
            base_stations=[BaseStation(id="a", p=[0, 0, 0]), BaseStation(id="a", p=[1, 0, 0])],
            walls=[],
            trajectory={"kind": "circle"},
        )
    with pytest.raises(GeometryError):
        Scenario(base_stations=[], walls=[], trajectory={"kind": "circle"})
    with pytest.raises(GeometryError):
        ring_scenario(n_bs=0)
    with pytest.raises(GeometryError):
        ring_scenario(n_walls=-3)
    with pytest.raises(GeometryError):
        scenario_from_dict({"trajectory": {}})


def test_ring_scenario_layout():
    scn = ring_scenario()
    assert len(scn.base_stations) == 8
    assert len(scn.walls) == 6
    ps = np.stack([b.p for b in scn.base_stations])
    spacing = np.linalg.norm(ps[1, :2] - ps[0, :2])
    assert 200.0 < spacing < 280.0
    # route stays inside both the station ring and the wall polygon
    route_r = scn.trajectory["radius_m"]
    assert route_r < np.min(np.linalg.norm(ps[:, :2], axis=1))
    # every epoch has several single-bounce paths available
    arrays = SceneArrays(scn.base_stations, scn.walls)
    poses = trajectory_poses(scn.trajectory, np.linspace(0.0, 120.0, 25))
    counts = [arrays.specular_arrays(po.p)[0].size for po in poses]
    assert min(counts) >= 2
