"""World geometry for the positioning simulator.

Base stations, finite vertical reflector walls, ground-truth trajectories,
and the mirror construction that turns a wall into a virtual anchor: the
reflected ray from a base station equals a straight ray from the station's
mirror image across the wall plane. SceneArrays answers visibility, single-
and double-bounce queries for a whole stack of UE positions on arrays; it is
the package's one implementation of reflection paths.

Positions are local ENU meters. Azimuth is CCW from East, elevation above
horizontal, angles in radians everywhere inside the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

_PLANE_TOL = 1e-9  # m, on-plane slack for crossing tests


class GeometryError(ValueError):
    """A scenario's geometry is malformed or degenerate."""


def _floats(v, what, shape=()):
    """v, a number or nested lists of numbers, as a float (shape ()) or a
    float array of the given shape (None matches any length); raises
    GeometryError naming what unless every entry is a finite number (never
    a bool or a string)."""
    # values that are already floats skip the array round trip: a Python
    # float or an int numpy holds as int64 (a bool's type is bool), or a
    # float64 array of the shape
    if not shape:
        if (type(v) is float or (type(v) is int and -(2**63) <= v < 2**63)) and math.isfinite(v):
            return float(v)
    elif (
        type(v) is np.ndarray
        and v.dtype == np.float64
        and v.ndim == len(shape)
        and all(n in (None, m) for n, m in zip(shape, v.shape))
        and np.isfinite(v).all()
    ):
        return v.copy()
    try:
        a = np.asarray(v)
    except ValueError:  # ragged lists
        a = np.empty(0, dtype=object)
    if (
        a.dtype.kind not in "iuf"
        or a.ndim != len(shape)
        or any(n not in (None, m) for n, m in zip(shape, a.shape))
        or not np.all(np.isfinite(a))
    ):
        dims = ", ".join("n" if n is None else str(n) for n in shape)
        raise GeometryError(
            f"{what} must be " + (f"finite numbers of shape ({dims})" if shape else "a finite number")
        )
    return a.astype(float) if shape else float(a)


@dataclass
class BaseStation:
    id: str
    p: np.ndarray  # ENU position, m

    def __post_init__(self):
        self.p = _floats(self.p, f"base station {self.id!r}: position", (3,))


@dataclass
class Wall:
    """Finite vertical rectangle: horizontal footprint segment a->b plus a
    height band [z0, z0 + h].

    The outward normal is the left perpendicular of (b - a), normalized; it is
    horizontal by construction. Reflection works from either side, the normal
    only fixes the sign convention of offsets.
    """

    id: str
    a: np.ndarray  # (2,) footprint endpoint, m
    b: np.ndarray
    z0: float = 0.0
    h: float = 10.0

    def __post_init__(self):
        where = f"wall {self.id!r}"
        self.a = _floats(self.a, f"{where}: footprint start", (2,))
        self.b = _floats(self.b, f"{where}: footprint end", (2,))
        self.z0 = _floats(self.z0, f"{where}: base height")
        self.h = _floats(self.h, f"{where}: height")
        d = self.b - self.a
        self.length = float(np.hypot(d[0], d[1]))
        if self.length <= 0.0 or self.h <= 0.0:
            raise GeometryError(f"wall {self.id!r}: degenerate footprint or height")
        self.tangent = d / self.length
        self.normal = np.array([-self.tangent[1], self.tangent[0], 0.0])
        self._a3 = np.array([self.a[0], self.a[1], 0.0])

    def signed_distance(self, p) -> float:
        """Horizontal offset of p from the wall plane, + on the normal side."""
        p = np.asarray(p, dtype=float)
        return float((p - self._a3) @ self.normal)

    def on_rectangle(self, p, tol: float = 1e-9) -> bool:
        p = np.asarray(p, dtype=float)
        if abs(self.signed_distance(p)) > max(tol, _PLANE_TOL):
            return False
        s = float((p[:2] - self.a) @ self.tangent)
        if s < -tol or s > self.length + tol:
            return False
        return self.z0 - tol <= p[2] <= self.z0 + self.h + tol


@dataclass
class Pose:
    """One ground-truth kinematic sample."""

    t: float
    p: np.ndarray  # ENU m
    v: np.ndarray  # m/s
    att: np.ndarray  # (roll, pitch, yaw) rad

    def __post_init__(self):
        self.t = float(self.t)
        self.p = np.asarray(self.p, dtype=float).reshape(3)
        self.v = np.asarray(self.v, dtype=float).reshape(3)
        self.att = np.asarray(self.att, dtype=float).reshape(3)


@dataclass
class Trajectory:
    """Ground truth at a run's sample times, as columns: row k is the pose
    at time t[k]. len() counts the rows; an int index gives one row as a
    Pose."""

    t: np.ndarray  # (N,) s
    p: np.ndarray  # (N, 3) ENU m
    v: np.ndarray  # (N, 3) m/s
    att: np.ndarray  # (N, 3) (roll, pitch, yaw) rad

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k: int) -> Pose:
        return Pose(t=self.t[k], p=self.p[k].copy(), v=self.v[k].copy(), att=self.att[k].copy())


def mirror_point(p, wall: Wall) -> np.ndarray:
    """Reflect p across the wall's infinite vertical plane; z is unchanged."""
    p = np.asarray(p, dtype=float)
    return p - 2.0 * wall.signed_distance(p) * wall.normal


def _inplane_overlap(p0, p1, wall: Wall) -> bool:
    """Clip an in-plane segment against the rectangle (both coordinates:
    along-wall and height)."""
    s0 = float((p0[:2] - wall.a) @ wall.tangent)
    s1 = float((p1[:2] - wall.a) @ wall.tangent)
    t_lo, t_hi = 0.0, 1.0
    for c0, c1, lo, hi in (
        (s0, s1, 0.0, wall.length),
        (p0[2], p1[2], wall.z0, wall.z0 + wall.h),
    ):
        d = c1 - c0
        if abs(d) < 1e-15:
            if c0 < lo or c0 > hi:
                return False
            continue
        ta = (lo - c0) / d
        tb = (hi - c0) / d
        if ta > tb:
            ta, tb = tb, ta
        t_lo = max(t_lo, ta)
        t_hi = min(t_hi, tb)
        if t_lo > t_hi:
            return False
    return True


def unit_from_angles(az, el) -> np.ndarray:
    """Unit vector from azimuth (CCW from East) and elevation, broadcasting."""
    az = np.asarray(az, dtype=float)
    el = np.asarray(el, dtype=float)
    ce = np.cos(el)
    return np.stack([ce * np.cos(az), ce * np.sin(az), np.sin(el)], axis=-1)


def angles_from_unit(u):
    """(azimuth, elevation) of direction vectors; length need not be 1."""
    u = np.asarray(u, dtype=float)
    az = np.arctan2(u[..., 1], u[..., 0])
    el = np.arcsin(np.clip(u[..., 2] / np.linalg.norm(u, axis=-1), -1.0, 1.0))
    return az, el


# ---------------------------------------------------------------------------
# trajectories

# the keys of a trajectory spec, by kind
_TRAJECTORY_KEYS = {
    "circle": {"kind", "center_en_m", "radius_m", "speed_mps", "z_m", "phase_rad", "ccw"},
    "waypoints": {"kind", "points_enu_m", "speed_mps"},
    "samples": {"kind", "t_s", "p_enu_m", "v_enu_mps", "att_rpy_rad"},
}


def trajectory_poses(spec: dict, times) -> Trajectory:
    """Ground truth at the requested times from a generator spec, as one
    Trajectory of columns.

    kinds:
      circle    constant-speed level circle; keys center_en_m, radius_m,
                speed_mps, z_m, optional phase_rad (start angle) and ccw.
      waypoints piecewise-linear route at constant speed; keys points_enu_m
                (list of [E, N, U]), speed_mps. The route holds the last
                point once exhausted.
      samples   explicit arrays t_s, p_enu_m; velocity and attitude are
                derived by differencing unless v_enu_mps / att_rpy_rad given.
    """
    times = np.array(times, dtype=float)
    kind = spec.get("kind")
    if kind == "circle":
        return _circle(spec, times)
    if kind == "waypoints":
        return _waypoints(spec, times)
    if kind == "samples":
        return _samples(spec, times)
    raise GeometryError(f"unknown trajectory kind {kind!r}")


def _circle(spec, times):
    cx, cy = _floats(spec.get("center_en_m"), "circle trajectory center_en_m", (2,)).tolist()
    r = _floats(spec.get("radius_m"), "circle trajectory radius_m")
    speed = _floats(spec.get("speed_mps"), "circle trajectory speed_mps")
    z = _floats(spec.get("z_m", 0.0), "circle trajectory z_m")
    phase = _floats(spec.get("phase_rad", 0.0), "circle trajectory phase_rad")
    ccw = spec.get("ccw", True)
    if not isinstance(ccw, bool):
        raise GeometryError("circle trajectory ccw must be true or false")
    sign = 1.0 if ccw else -1.0
    if r <= 0.0 or speed < 0.0:
        raise GeometryError("circle trajectory needs radius_m > 0, speed_mps >= 0")
    rate = sign * speed / r
    th = phase + rate * times
    cos, sin = np.cos(th), np.sin(th)
    zeros = np.zeros_like(th)
    p = np.stack([cx + r * cos, cy + r * sin, np.full_like(th, z)], axis=1)
    v = speed * sign * np.stack([-sin, cos, zeros], axis=1)
    if speed > 0:
        yaw = np.arctan2(v[:, 1], v[:, 0])
    else:
        yaw = np.full_like(th, phase + sign * np.pi / 2)
    return Trajectory(times, p, v, np.stack([zeros, zeros, yaw], axis=1))


def _waypoints(spec, times):
    pts = _floats(spec.get("points_enu_m"), "waypoints trajectory points_enu_m", (None, 3))
    speed = _floats(spec.get("speed_mps"), "waypoints trajectory speed_mps")
    if pts.shape[0] < 2:
        raise GeometryError("waypoints trajectory needs >= 2 ENU points")
    if speed <= 0.0:
        raise GeometryError("waypoints trajectory needs speed_mps > 0")
    seg = np.diff(pts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    if np.any(seg_len <= 0.0):
        raise GeometryError("waypoints must be distinct")
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    dist = speed * times
    # past the route's end: held at the last point, facing along the last leg
    held = dist >= cum[-1]
    i = np.where(held, len(seg) - 1, np.searchsorted(cum, dist, side="right") - 1)
    u = seg[i] / seg_len[i, None]
    p = np.where(held[:, None], pts[-1], pts[i] + (dist - cum[i])[:, None] * u)
    v = np.where(held[:, None], 0.0, speed * u)
    az, el = angles_from_unit(u)
    return Trajectory(times, p, v, np.stack([np.zeros_like(az), el, az], axis=1))


def _samples(spec, times):
    ts = _floats(spec.get("t_s"), "samples trajectory t_s", (None,))
    rows = (ts.size, 3)
    ps = _floats(spec.get("p_enu_m"), "samples trajectory p_enu_m", rows)
    if ts.size < 3:
        raise GeometryError("samples trajectory needs matching t_s, p_enu_m with >= 3 rows")
    if np.any(np.diff(ts) <= 0.0):
        raise GeometryError("sample times must be strictly increasing")
    if "v_enu_mps" in spec:
        vs = _floats(spec["v_enu_mps"], "samples trajectory v_enu_mps", rows)
    else:
        vs = np.gradient(ps, ts, axis=0)
    if "att_rpy_rad" in spec:
        atts = _floats(spec["att_rpy_rad"], "samples trajectory att_rpy_rad", rows)
    else:
        az, el = angles_from_unit(np.where(np.linalg.norm(vs, axis=1, keepdims=True) > 1e-9, vs, [1.0, 0.0, 0.0]))
        atts = np.stack([np.zeros_like(az), el, np.unwrap(az)], axis=-1)
    if np.any(times < ts[0] - 1e-9) or np.any(times > ts[-1] + 1e-9):
        raise GeometryError("requested times fall outside the sample span")
    p, v, att = (
        np.stack([np.interp(times, ts, col[:, k]) for k in range(3)], axis=1)
        for col in (ps, vs, atts)
    )
    return Trajectory(times, p, v, att)


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class Scenario:
    """A world to simulate: anchors, reflectors, and the truth trajectory."""

    base_stations: list
    walls: list
    trajectory: dict

    def __post_init__(self):
        ids = [b.id for b in self.base_stations]
        if not ids:
            raise GeometryError("a scenario needs at least one base station")
        if len(set(ids)) != len(ids):
            raise GeometryError("base station ids must be unique")
        wids = [w.id for w in self.walls]
        if len(set(wids)) != len(wids):
            raise GeometryError("wall ids must be unique")
        if "kind" not in self.trajectory:
            raise GeometryError("trajectory spec needs a 'kind'")


def _reject_unknown(d, keys, where):
    unknown = set(d) - keys
    if unknown:
        raise GeometryError(f"bad scenario structure: {where}: unknown keys {sorted(unknown)}")


def scenario_from_dict(d: dict) -> Scenario:
    """A scenario from its JSON form; a key the scenario does not read
    raises GeometryError, as a missing or malformed one does."""
    try:
        _reject_unknown(d, {"base_stations", "walls", "trajectory"}, "scenario")
        for i, b in enumerate(d.get("base_stations", [])):
            _reject_unknown(b, {"id", "p_enu_m"}, f"base_stations[{i}]")
        for i, w in enumerate(d.get("walls", [])):
            _reject_unknown(w, {"id", "a_en_m", "b_en_m", "z0_m", "height_m"}, f"walls[{i}]")
        kind = d["trajectory"].get("kind")
        if kind in _TRAJECTORY_KEYS:
            _reject_unknown(d["trajectory"], _TRAJECTORY_KEYS[kind], f"{kind} trajectory")
        stations = [
            BaseStation(id=str(b["id"]), p=b["p_enu_m"]) for b in d.get("base_stations", [])
        ]
        walls = [
            Wall(
                id=str(w["id"]),
                a=w["a_en_m"],
                b=w["b_en_m"],
                z0=w.get("z0_m", 0.0),
                h=w.get("height_m", 10.0),
            )
            for w in d.get("walls", [])
        ]
        traj = dict(d["trajectory"])
    except (AttributeError, KeyError, TypeError) as exc:
        raise GeometryError(f"bad scenario structure: {exc}") from exc
    return Scenario(base_stations=stations, walls=walls, trajectory=traj)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        return scenario_from_dict(json.load(f))


def ring_scenario(
    n_bs: int = 8,
    bs_radius_m: float = 318.0,
    bs_height_m: float = 20.0,
    n_walls: int = 6,
    wall_radius_m: float = 400.0,
    wall_height_m: float = 30.0,
    route_radius_m: float = 160.0,
    speed_mps: float = 8.0,
    ue_height_m: float = 1.5,
) -> Scenario:
    """Urban-block stand-in: a circular route inside a ring of base stations,
    all enclosed by a regular polygon of building facades.

    With the defaults the route is a ~1 km loop, adjacent stations sit ~243 m
    apart, and the six facades form a hexagon whose walls face every part of
    the route, so several single-bounce paths exist at all epochs.
    """
    if n_walls < 0:
        raise GeometryError("a ring scenario needs n_walls >= 0")
    stations = []
    for k in range(n_bs):
        ang = 2.0 * np.pi * k / n_bs + np.pi / n_bs  # offset from wall vertices
        stations.append(
            BaseStation(
                id=f"bs{k}",
                p=[
                    bs_radius_m * np.cos(ang),
                    bs_radius_m * np.sin(ang),
                    bs_height_m + 2.0 * (k % 3),  # stagger heights a little
                ],
            )
        )
    walls = []
    verts = [
        np.array(
            [wall_radius_m * np.cos(2 * np.pi * k / n_walls), wall_radius_m * np.sin(2 * np.pi * k / n_walls)]
        )
        for k in range(n_walls)
    ]
    for k in range(n_walls):
        walls.append(
            Wall(
                id=f"w{k}",
                a=verts[k],
                b=verts[(k + 1) % n_walls],
                z0=0.0,
                h=wall_height_m,
            )
        )
    return Scenario(
        base_stations=stations,
        walls=walls,
        trajectory={
            "kind": "circle",
            "center_en_m": [0.0, 0.0],
            "radius_m": route_radius_m,
            "speed_mps": speed_mps,
            "z_m": ue_height_m,
            "phase_rad": 0.0,
            "ccw": True,
        },
    )


def row_dot(x, y):
    """Dot products of x and y (..., n) along the last axis, broadcasting
    the leading axes. A stacked matmul sums each row as a 1-D `@` and
    np.linalg.norm sum one vector, so np.sqrt(row_dot(d, d)) equals each
    row's np.linalg.norm bit for bit."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _strict_crossing(s0, s1):
    """Where the segments with end offsets s0, s1 from a wall plane cross
    it strictly between their ends: (t, hit) arrays, t the crossing's
    parameter (meaningless where hit is False)."""
    inplane = (np.abs(s0) <= _PLANE_TOL) & (np.abs(s1) <= _PLANE_TOL)
    denom = s0 - s1
    hit = ~inplane & ~(s0 * s1 > 0.0) & (denom != 0.0)
    t = s0 / np.where(hit, denom, 1.0)
    return t, hit & (t > 0.0) & (t < 1.0)


class SceneArrays:
    """Precomputed geometry arrays for one scenario, for batch queries over
    every (UE position, base station, wall) triple, or wall pair for double
    bounces, at once: a chunk of a run's epoch positions in one call.

    The tests hold the results to scalar one-path forms (specular_path,
    los_visible and double_bounce_path in tests/helpers.py) bit for bit.
    """

    def __init__(self, base_stations, walls):
        self.walls = list(walls)
        self.bs_p = np.array([bs.p for bs in base_stations], dtype=float).reshape(-1, 3)
        W = len(self.walls)
        self.n_bs, self.n_walls = len(self.bs_p), W
        if W:
            self.w_a = np.stack([w.a for w in self.walls])  # (W, 2)
            self.w_a3 = np.concatenate([self.w_a, np.zeros((W, 1))], axis=1)
            self.w_nrm3 = np.stack([w.normal for w in self.walls])
            self.w_tan = np.stack([w.tangent for w in self.walls])
            self.w_len = np.array([w.length for w in self.walls])
            self.w_z0 = np.array([w.z0 for w in self.walls])
            self.w_z1 = np.array([w.z0 + w.h for w in self.walls])
            # every station's offset from every wall plane (B, W), its image
            # across every wall (B, W, 3), that image across every second
            # wall (B, W, W, 3), and the images' offsets from the wall each
            # crossing tests, all taken as Wall.signed_distance and
            # mirror_point take them
            self.bs_sd = self._plane_offset(self.bs_p[:, None, :])
            self.db_m1 = self._mirror(self.bs_p[:, None, :])
            self.db_m1_sd = self._plane_offset(self.db_m1)
            self.db_m12 = self._mirror(self.db_m1[:, :, None, :])
            self.db_m12_sd = self._plane_offset(self.db_m12)

    def _plane_offset(self, p, w=slice(None)):
        """Wall.signed_distance of points p (..., 3) from walls w, an index
        of the wall axis (all walls, by default) that broadcasts against
        p's leading axes."""
        return row_dot(p - self.w_a3[w], self.w_nrm3[w])

    def _mirror(self, p, w=slice(None)):
        """mirror_point of points p (..., 3) across walls w."""
        return p - (2.0 * self._plane_offset(p, w))[..., None] * self.w_nrm3[w]

    def _on_rectangle(self, p, w=slice(None)):
        """Wall.on_rectangle of points p (..., 3) on walls w."""
        along = row_dot(p[..., :2] - self.w_a[w], self.w_tan[w])
        return (
            (np.abs(self._plane_offset(p, w)) <= _PLANE_TOL)
            & (along >= -_PLANE_TOL)
            & (along <= self.w_len[w] + _PLANE_TOL)
            & (p[..., 2] >= self.w_z0[w] - _PLANE_TOL)
            & (p[..., 2] <= self.w_z1[w] + _PLANE_TOL)
        )

    def _bounce(self, image, image_sd, target, w=slice(None)):
        """One bounce off walls w: where the segments from images (..., 3),
        whose offsets from those walls are image_sd, to targets cross the
        wall planes. Returns (point, hit), hit where the crossing lies
        strictly inside its segment and on the wall's rectangle."""
        t, hit = _strict_crossing(image_sd, self._plane_offset(target, w))
        point = image + t[..., None] * (target - image)
        return point, hit & self._on_rectangle(point, w)

    def specular_arrays(self, ue):
        """All single-bounce hits for one UE position (3,) or a stack (E, 3).

        Returns (bs_idx, wall_idx, point, leg_bs, leg_ue, length, u_dep,
        u_arr, ue_idx) arrays, one entry per hit, ordered by UE, then base
        station, then wall: the order a scalar loop over UEs, stations and
        walls would produce. ue_idx is the hit's row in the UE stack (all
        zeros for a single position).
        """
        ue = np.asarray(ue, dtype=float).reshape(-1, 3)
        if self.n_walls == 0 or self.n_bs == 0:
            empty3 = np.zeros((0, 3))
            z = np.zeros(0)
            i = np.zeros(0, dtype=int)
            return i, i, empty3, z, z, z, empty3, empty3, i
        # the bounce on the full (E, B, W) grid, legs on the hits only
        point, hit = self._bounce(self.db_m1, self.db_m1_sd, ue[:, None, None, :])
        ei, bi, wi = np.nonzero(hit)
        point = point[ei, bi, wi]
        d_bs = point - self.bs_p[bi]
        d_ue = point - ue[ei]
        leg_bs, leg_ue = (np.sqrt(row_dot(d, d)) for d in (d_bs, d_ue))
        k = np.flatnonzero((leg_bs > _PLANE_TOL) & (leg_ue > _PLANE_TOL))
        lb, lu = leg_bs[k], leg_ue[k]
        return (
            bi[k],
            wi[k],
            point[k],
            lb,
            lu,
            lb + lu,
            d_bs[k] / lb[:, None],
            d_ue[k] / lu[:, None],
            ei[k],
        )

    def double_bounce_arrays(self, ue):
        """All two-bounce hits for one UE position (3,) or a stack (E, 3).

        Double unfolding: the second bounce point is where the segment from
        the station's double image to the UE crosses the second wall, the
        first where the segment from the single image to that point crosses
        the first wall; a path needs both crossings strictly inside their
        segments, both points on their rectangles and three legs longer
        than the plane tolerance. Returns (bs_idx, wall1_idx, wall2_idx,
        point1, point2, length, u_dep, u_arr, ue_idx) arrays, one entry per
        hit, ordered by UE, station, first wall, then second wall (never
        the first); ue_idx is the hit's row in the UE stack.
        """
        ue = np.asarray(ue, dtype=float).reshape(-1, 3)
        if self.n_walls < 2 or self.n_bs == 0:
            i = np.zeros(0, dtype=int)
            z = np.zeros(0)
            v = np.zeros((0, 3))
            return i, i, i, v, v, z, v, v, i
        # second bounce on the full (E, B, W1, W2) grid
        q2, hit = self._bounce(self.db_m12, self.db_m12_sd, ue[:, None, None, None, :])
        ei, bi, w1, w2 = np.nonzero(hit & ~np.eye(self.n_walls, dtype=bool))
        q2 = q2[ei, bi, w1, w2]
        # first bounce, on the surviving paths only
        q1, hit = self._bounce(self.db_m1[bi, w1], self.db_m1_sd[bi, w1], q2, w1)
        d1 = q1 - self.bs_p[bi]
        d2 = q2 - q1
        d3 = q2 - ue[ei]
        leg1, leg2, leg3 = (np.sqrt(row_dot(d, d)) for d in (d1, d2, d3))
        hit &= (leg1 > _PLANE_TOL) & (leg2 > _PLANE_TOL) & (leg3 > _PLANE_TOL)
        k = np.flatnonzero(hit)
        return (
            bi[k],
            w1[k],
            w2[k],
            q1[k],
            q2[k],
            leg1[k] + leg2[k] + leg3[k],
            d1[k] / leg1[k, None],
            d3[k] / leg3[k, None],
            ei[k],
        )

    def los_mask(self, ue):
        """Visibility of every base station from a UE position (3,) or a
        stack (E, 3), walls as blockers: (B,) or (E, B) booleans."""
        ue = np.asarray(ue, dtype=float)
        single = ue.ndim == 1
        ue = ue.reshape(-1, 3)
        if self.n_walls == 0:
            mask = np.ones((ue.shape[0], self.n_bs), dtype=bool)
            return mask[0] if single else mask
        s_ue = self._plane_offset(ue[:, None, None, :])  # (E, 1, W)
        s0 = self.bs_sd  # (B, W)
        inplane = (np.abs(s0) <= _PLANE_TOL) & (np.abs(s_ue) <= _PLANE_TOL)
        denom = s0 - s_ue
        safe = denom != 0.0
        t = np.where(safe, s0 / np.where(safe, denom, 1.0), -1.0)
        crossing = (s0 * s_ue <= 0.0) & safe & (t >= 0.0) & (t <= 1.0) & ~inplane
        bs4 = self.bs_p[:, None, :]
        hit = bs4 + t[..., None] * (ue[:, None, None, :] - bs4)
        blocked = crossing & self._on_rectangle(hit)
        if inplane.any():
            for e, b, w in zip(*np.nonzero(inplane)):
                if _inplane_overlap(self.bs_p[b], ue[e], self.walls[w]):
                    blocked[e, b, w] = True
        mask = ~blocked.any(axis=-1)
        return mask[0] if single else mask
