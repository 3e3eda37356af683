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
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

_PLANE_TOL = 1e-9  # m, on-plane slack for crossing tests


class GeometryError(ValueError):
    """A scenario's geometry is malformed or degenerate."""


@dataclass
class BaseStation:
    id: str
    p: np.ndarray  # ENU position, m

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float).reshape(3)
        if not np.all(np.isfinite(self.p)):
            raise GeometryError(f"base station {self.id!r}: non-finite position")


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
        self.a = np.asarray(self.a, dtype=float).reshape(2)
        self.b = np.asarray(self.b, dtype=float).reshape(2)
        self.z0 = float(self.z0)
        self.h = float(self.h)
        d = self.b - self.a
        self.length = float(np.hypot(d[0], d[1]))
        ok = (
            np.all(np.isfinite(self.a))
            and np.all(np.isfinite(self.b))
            and np.isfinite(self.z0)
            and np.isfinite(self.h)
        )
        if not ok or self.length <= 0.0 or self.h <= 0.0:
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
    cx, cy = (float(v) for v in spec["center_en_m"])
    r = float(spec["radius_m"])
    speed = float(spec["speed_mps"])
    z = float(spec.get("z_m", 0.0))
    phase = float(spec.get("phase_rad", 0.0))
    sign = 1.0 if spec.get("ccw", True) else -1.0
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
    pts = np.asarray(spec["points_enu_m"], dtype=float)
    speed = float(spec["speed_mps"])
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 3:
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
    ts = np.asarray(spec["t_s"], dtype=float)
    ps = np.asarray(spec["p_enu_m"], dtype=float)
    if ts.ndim != 1 or ts.size < 3 or ps.shape != (ts.size, 3):
        raise GeometryError("samples trajectory needs matching t_s, p_enu_m with >= 3 rows")
    if np.any(np.diff(ts) <= 0.0):
        raise GeometryError("sample times must be strictly increasing")
    if "v_enu_mps" in spec:
        vs = np.asarray(spec["v_enu_mps"], dtype=float)
    else:
        vs = np.gradient(ps, ts, axis=0)
    if "att_rpy_rad" in spec:
        atts = np.asarray(spec["att_rpy_rad"], dtype=float)
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

    name: str
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
        _reject_unknown(d, {"name", "base_stations", "walls", "trajectory"}, "scenario")
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
                z0=float(w.get("z0_m", 0.0)),
                h=float(w.get("height_m", 10.0)),
            )
            for w in d.get("walls", [])
        ]
        traj = dict(d["trajectory"])
    except (AttributeError, KeyError, TypeError) as exc:
        raise GeometryError(f"bad scenario structure: {exc}") from exc
    return Scenario(
        name=str(d.get("name", "scenario")),
        base_stations=stations,
        walls=walls,
        trajectory=traj,
    )


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
        name="ring",
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
    los_visible and double_bounce_path in tests/helpers.py): double bounces
    bit for bit, single bounces up to float reassociation.
    """

    def __init__(self, base_stations, walls):
        self.base_stations = list(base_stations)
        self.walls = list(walls)
        self.bs_p = (
            np.stack([bs.p for bs in self.base_stations])
            if self.base_stations
            else np.zeros((0, 3))
        )
        B = self.bs_p.shape[0]
        W = len(self.walls)
        self.n_bs, self.n_walls = B, W
        if W:
            self.w_a = np.stack([w.a for w in self.walls])  # (W, 2)
            self.w_tan = np.stack([w.tangent for w in self.walls])
            self.w_nrm = np.stack([w.normal[:2] for w in self.walls])
            self.w_len = np.array([w.length for w in self.walls])
            self.w_z0 = np.array([w.z0 for w in self.walls])
            self.w_z1 = np.array([w.z0 + w.h for w in self.walls])
            # signed horizontal offset of every BS from every wall plane
            self.bs_sd = np.einsum(
                "bwk,wk->bw", self.bs_p[:, None, :2] - self.w_a[None, :, :], self.w_nrm
            )
            self.bs_mirror = self.bs_p[:, None, :].repeat(W, axis=1).astype(float)
            self.bs_mirror[:, :, :2] -= 2.0 * self.bs_sd[:, :, None] * self.w_nrm[None, :, :]
            # double bounces: each station's image across a first wall
            # (B, W, 3), that image across every second wall (B, W, W, 3),
            # and their offsets from the wall each crossing tests, taken as
            # Wall.signed_distance and mirror_point take them
            self.w_a3 = np.concatenate([self.w_a, np.zeros((W, 1))], axis=1)
            self.w_nrm3 = np.stack([w.normal for w in self.walls])
            self.db_m1 = self._mirror(self.bs_p[:, None, :])
            self.db_m1_sd = self._plane_offset(self.db_m1)
            self.db_m12 = self._mirror(self.db_m1[:, :, None, :])
            self.db_m12_sd = self._plane_offset(self.db_m12)
        self._tol = 1e-9

    def _plane_offset(self, p, w=slice(None)):
        """Wall.signed_distance of points p (..., 3) from walls w, an index
        of the wall axis (all walls, by default) that broadcasts against
        p's leading axes."""
        d = p - self.w_a3[w]
        return (d[..., None, :] @ self.w_nrm3[w][..., :, None])[..., 0, 0]

    def _mirror(self, p, w=slice(None)):
        """mirror_point of points p (..., 3) across walls w."""
        return p - (2.0 * self._plane_offset(p, w))[..., None] * self.w_nrm3[w]

    def _on_rectangle(self, p, w=slice(None)):
        """Wall.on_rectangle of points p (..., 3) on walls w."""
        tol = self._tol
        d = p[..., :2] - self.w_a[w]
        along = (d[..., None, :] @ self.w_tan[w][..., :, None])[..., 0, 0]
        return (
            (np.abs(self._plane_offset(p, w)) <= max(tol, _PLANE_TOL))
            & (along >= -tol)
            & (along <= self.w_len[w] + tol)
            & (p[..., 2] >= self.w_z0[w] - tol)
            & (p[..., 2] <= self.w_z1[w] + tol)
        )

    def _ue_sd(self, ue):
        """Signed offsets of UE positions (E, 3) from every wall plane, (E, W)."""
        return np.einsum("ewk,wk->ew", ue[:, None, :2] - self.w_a, self.w_nrm)

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
        # the mirror's offsets are the negated station offsets, (B, W)
        t, valid = _strict_crossing(-self.bs_sd, self._ue_sd(ue)[:, None, :])
        ue4 = ue[:, None, None, :]
        point = self.bs_mirror + t[..., None] * (ue4 - self.bs_mirror)
        valid &= self._on_rectangle(point)
        d_bs = point - self.bs_p[:, None, :]
        d_ue = point - ue4
        leg_bs = np.linalg.norm(d_bs, axis=-1)
        leg_ue = np.linalg.norm(d_ue, axis=-1)
        valid &= (leg_bs > _PLANE_TOL) & (leg_ue > _PLANE_TOL)
        ei, bi, wi = np.nonzero(valid)
        lb = leg_bs[ei, bi, wi]
        lu = leg_ue[ei, bi, wi]
        u_dep = d_bs[ei, bi, wi] / lb[:, None]
        u_arr = d_ue[ei, bi, wi] / lu[:, None]
        return bi, wi, point[ei, bi, wi], lb, lu, lb + lu, u_dep, u_arr, ei

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
        s1 = self._plane_offset(ue[:, None, :])[:, None, None, :]
        t2, hit = _strict_crossing(self.db_m12_sd, s1)
        hit &= ~np.eye(self.n_walls, dtype=bool)
        q2 = self.db_m12 + t2[..., None] * (ue[:, None, None, None, :] - self.db_m12)
        hit &= self._on_rectangle(q2)
        ei, bi, w1, w2 = np.nonzero(hit)
        q2 = q2[ei, bi, w1, w2]
        # first bounce, on the surviving paths only
        m1 = self.db_m1[bi, w1]
        t1, hit = _strict_crossing(self.db_m1_sd[bi, w1], self._plane_offset(q2, w1))
        q1 = m1 + t1[:, None] * (q2 - m1)
        hit &= self._on_rectangle(q1, w1)
        d1 = q1 - self.bs_p[bi]
        d2 = q2 - q1
        d3 = q2 - ue[ei]
        leg1, leg2, leg3 = (np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]) for d in (d1, d2, d3))
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
        s_ue = self._ue_sd(ue)[:, None, :]  # (E, 1, W)
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
