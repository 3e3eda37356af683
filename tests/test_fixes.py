import math

import numpy as np
import pytest
from helpers import (
    LosObs,
    SbrObs,
    add_noise,
    los_columns,
    random_multi_path_scene,
    random_single_bounce,
    random_two_path_scene,
    sbr_columns,
    sbr_fix_svd,
    sbr_locus_residual,
    specular_path,
    synth_los,
    synth_sbr,
)

from mpnav import fixes
from mpnav.fixes import los_fix, sbr_fix, sbr_locus_residuals
from mpnav.scene import (
    SPEED_OF_LIGHT,
    BaseStation,
    Pose,
    Wall,
    angles_from_unit,
    unit_from_angles,
)
from mpnav.synth import NoiseCfg, PathLossModel

PLM = PathLossModel()


def pose_at(p, t=0.0):
    return Pose(t=t, p=np.asarray(p, dtype=float), v=np.zeros(3), att=np.zeros(3))


def sbr_pairs(scene_pairs, ue):
    pose = pose_at(ue)
    return [(bs, synth_sbr(path, pose, PLM)) for bs, path in scene_pairs]


def noisy_pairs(pairs, cfg, rng):
    return [(bs, o) for (bs, _), o in zip(pairs, add_noise([o for _, o in pairs], cfg, rng))]


def test_los_fix_inverts_synth():
    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    obs = synth_los(bs, pose_at([30.0, 40.0, 0.0]), PLM)
    fix = los_fix(*los_columns(bs, obs))
    assert np.allclose(fix.p, [30.0, 40.0, 0.0], atol=1e-9)
    assert np.allclose(fix.cov, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        ue = rng.uniform(-200, 200, 3) * [1, 1, 0] + [0, 0, rng.uniform(0, 5)]
        fix = los_fix(*los_columns(bs, synth_los(bs, pose_at(ue), PLM)))
        assert np.linalg.norm(fix.p - ue) < 1e-9


def test_los_fix_pole_case_and_errors():
    bs = BaseStation(id="a", p=[5.0, 5.0, 10.0])
    d = 40.0
    obs_kwargs = dict(
        bs_id="a", t=0.0, rtt=2.0 * d / SPEED_OF_LIGHT,
        aod_az=0.3, aod_el=math.pi / 2, aoa_az=0.0, aoa_el=0.0, rss=-60.0,
    )
    fix = los_fix(*los_columns(bs, LosObs(**obs_kwargs)))
    assert np.allclose(fix.p, [5.0, 5.0, 50.0], atol=1e-9)
    with pytest.raises(ValueError):
        los_fix(*los_columns(bs, LosObs(**{**obs_kwargs, "rtt": 0.0})))


def test_los_fix_covariance_structure():
    bs = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    obs = synth_los(bs, pose_at([30.0, 40.0, 0.0]), PLM)
    c1 = los_fix(*los_columns(bs, obs), var_range_m2=1.0, var_angle_deg2=0.0).cov
    c2 = los_fix(*los_columns(bs, obs), var_range_m2=2.0, var_angle_deg2=0.0).cov
    assert np.allclose(c2, 2.0 * c1, atol=1e-12)
    u = unit_from_angles(obs.aod_az, obs.aod_el)
    assert np.allclose(c1, np.outer(u, u), atol=1e-12)
    ca = los_fix(*los_columns(bs, obs), var_range_m2=0.0, var_angle_deg2=0.01).cov
    assert np.allclose(ca, ca.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(ca)) >= -1e-9
    # angle-driven scatter lies in the plane orthogonal to the range direction
    assert abs(u @ ca @ u) < 1e-12


def test_los_fix_covariance_matches_monte_carlo():
    rng = np.random.default_rng(1)
    bs = BaseStation(id="a", p=[0.0, 0.0, 30.0])
    ue = np.array([120.0, -80.0, 1.0])
    clean = synth_los(bs, pose_at(ue), PLM)
    cfg = NoiseCfg(var_range_m2=0.5, var_angle_deg2=0.01)
    predicted = los_fix(*los_columns(bs, clean), cfg.var_range_m2, cfg.var_angle_deg2).cov
    errs = np.stack(
        [los_fix(*los_columns(bs, add_noise([clean], cfg, rng)[0])).p - ue for _ in range(4000)]
    )
    emp = errs.T @ errs / len(errs)
    assert np.allclose(np.diag(emp), np.diag(predicted), rtol=0.15, atol=1e-6)


def worked_example_pairs():
    """Two single-bounce paths to ue=(20,30,0): one off the x=50 wall, one
    off a y=45 wall from a second station."""
    ue = np.array([20.0, 30.0, 0.0])
    bs1 = BaseStation(id="a", p=[0.0, 0.0, 10.0])
    w1 = Wall(id="x50", a=[50.0, 0.0], b=[50.0, 100.0], z0=0.0, h=20.0)
    bs2 = BaseStation(id="b", p=[0.0, -20.0, 10.0])
    w2 = Wall(id="y45", a=[0.0, 45.0], b=[100.0, 45.0], z0=0.0, h=20.0)
    p1 = specular_path(bs1, ue, w1)
    p2 = specular_path(bs2, ue, w2)
    assert p1 is not None and p2 is not None
    return [(bs1, p1), (bs2, p2)], ue


def test_sbr_fix_two_path_worked_example():
    scene, ue = worked_example_pairs()
    fix = sbr_fix(*sbr_columns(sbr_pairs(scene, ue)))
    assert fix is not None
    assert np.linalg.norm(fix.p - ue) < 1e-6
    assert fix.residual <= 1e-9
    assert fix.n_paths == 2
    assert len(fix.path_residuals) == 2


def test_sbr_fix_exact_on_random_scenes():
    rng = np.random.default_rng(2)
    for _ in range(300):
        scene, ue = random_two_path_scene(rng)
        fix = sbr_fix(*sbr_columns(sbr_pairs(scene, ue)))
        assert fix is not None
        assert np.linalg.norm(fix.p - ue) < 1e-6


def test_sbr_fix_rejects_same_wall_degeneracy():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(50):
        bs, ue, wall, path = random_single_bounce(rng)
        obs = synth_sbr(path, pose_at(ue), PLM)
        assert sbr_fix(*sbr_columns([(bs, obs), (bs, obs)])) is None
        # nearby epoch off the same wall: still (near) rank-deficient
        path2 = specular_path(bs, ue + [0.001, 0.001, 0.0], wall)
        if path2 is None:
            continue
        obs2 = synth_sbr(path2, pose_at(ue + [0.001, 0.001, 0.0]), PLM)
        assert sbr_fix(*sbr_columns([(bs, obs), (bs, obs2)])) is None
        hits += 1
    assert hits > 30


def test_sbr_fix_requires_two_paths_and_leg_bounds():
    scene, ue = worked_example_pairs()
    pairs = sbr_pairs(scene, ue)
    with pytest.raises(ValueError):
        sbr_fix(*sbr_columns(pairs[:1]))
    # shrinking one ToA forces the recovered first leg outside [0, L]
    bad = pairs[1][1]
    shrunk = SbrObs(**{**bad.__dict__, "toa": bad.toa * 0.2})
    assert sbr_fix(*sbr_columns([pairs[0], (pairs[1][0], shrunk)])) is None


def test_sbr_fix_residual_zero_vs_noisy():
    rng = np.random.default_rng(4)
    scene, ue = random_two_path_scene(rng)
    pairs = sbr_pairs(scene, ue)
    assert sbr_fix(*sbr_columns(pairs)).residual <= 1e-9
    noisy = noisy_pairs(pairs, NoiseCfg(1.0, 0.01), rng)
    fix = sbr_fix(*sbr_columns(noisy), var_range_m2=1.0, var_angle_deg2=0.01)
    if fix is not None:
        assert fix.residual > 1e-6


def test_sbr_fix_least_squares_optimality():
    # at the default zero variances every path weighs the same, so the solve
    # minimizes the plain equation misfit: nudging any unknown must not
    # reduce the residual
    rng = np.random.default_rng(5)
    scene, ue = random_two_path_scene(rng)
    pairs = noisy_pairs(sbr_pairs(scene, ue), NoiseCfg(0.5, 0.01), rng)
    fix = sbr_fix(*sbr_columns(pairs))
    assert fix is not None
    K = len(pairs)
    A = np.zeros((3 * K, 3 + K))
    y = np.zeros(3 * K)
    legs = []
    for k, (bs, obs) in enumerate(pairs):
        L = SPEED_OF_LIGHT * obs.toa
        u_dep = unit_from_angles(obs.aod_az, obs.aod_el)
        u_arr = unit_from_angles(obs.aoa_az, obs.aoa_el)
        A[3 * k : 3 * k + 3, :3] = np.eye(3)
        A[3 * k : 3 * k + 3, 3 + k] = -(u_dep + u_arr)
        y[3 * k : 3 * k + 3] = bs.p - L * u_arr
        base = bs.p - L * u_arr
        w = u_dep + u_arr
        legs.append(float((fix.p - base) @ w / (w @ w)))
    x0 = np.concatenate([fix.p, legs])
    # recover the solver's leg estimates from the normal equations instead
    x0 = np.linalg.lstsq(A, y, rcond=None)[0]
    assert np.allclose(x0[:3], fix.p, atol=1e-8)
    r0 = np.linalg.norm(A @ x0 - y)
    for j in range(x0.size):
        for d in (1e-4, -1e-4):
            x = x0.copy()
            x[j] += d
            assert np.linalg.norm(A @ x - y) >= r0 - 1e-12


def test_sbr_fix_matches_svd_reference():
    # eliminating the legs must reproduce the dense SVD solve of the full
    # 3K x (3+K) system: the same rejections, estimates and covariances
    rng = np.random.default_rng(12)
    cfg = NoiseCfg(var_range_m2=0.5, var_angle_deg2=0.01)
    variants = (
        {},
        dict(var_range_m2=0.5, var_angle_deg2=0.01),
        dict(var_range_m2=0.5, var_angle_deg2=0.01, var_aoa_extra_rad2=1e-5),
        dict(estimate_yaw=True),
        dict(var_range_m2=0.5, var_angle_deg2=0.01, var_aoa_extra_rad2=1e-5, estimate_yaw=True),
    )
    solved = {}
    for n_paths, min_split in ((2, 0.3), (3, 0.3), (16, 0.05)):
        solved[n_paths] = 0
        for _ in range(8):
            scene, ue = random_multi_path_scene(rng, n_paths=n_paths, min_split_rad=min_split)
            clean = sbr_pairs(scene, ue)
            noisy = noisy_pairs(clean, cfg, rng)
            for pairs in (clean, noisy):
                for kwargs in variants:
                    ref = sbr_fix_svd(pairs, **kwargs)
                    fix = sbr_fix(*sbr_columns(pairs), **kwargs)
                    if n_paths == 2 and kwargs.get("estimate_yaw"):
                        # structurally singular (see the three-path test);
                        # angle noise can lift the reference's singular-value
                        # ratio under its bound, and it then answers wrongly
                        assert fix is None
                        continue
                    assert (fix is None) == (ref is None), (n_paths, kwargs)
                    if ref is None:
                        continue
                    solved[n_paths] += 1
                    assert np.allclose(fix.p, ref.p, rtol=0.0, atol=1e-8)
                    assert fix.cov.shape == ref.cov.shape
                    pos, ref_pos = fix.cov[:3, :3], ref.cov[:3, :3]
                    assert np.allclose(pos, ref_pos, rtol=1e-7, atol=1e-9 * np.abs(ref_pos).max())
                    assert fix.residual == pytest.approx(ref.residual, rel=1e-6, abs=1e-9)
                    assert fix.path_residuals == pytest.approx(ref.path_residuals, rel=1e-6, abs=1e-9)
                    assert fix.n_paths == ref.n_paths == n_paths
                    if ref.yaw is None:
                        assert fix.yaw is None and fix.cov.shape == (3, 3)
                        continue
                    assert fix.yaw == pytest.approx(ref.yaw, abs=1e-10)
                    assert fix.cov[3, 3] == pytest.approx(ref.cov[3, 3], rel=1e-7, abs=1e-20)
                    assert np.allclose(fix.cov[:3, 3], ref.cov[:3, 3], rtol=1e-7, atol=1e-15)
    # every size must exercise the comparison, not only the rejections
    assert min(solved.values()) > 20, solved


def test_sbr_fix_covariance_matches_monte_carlo():
    rng = np.random.default_rng(7)
    scene, ue = worked_example_pairs()
    clean = sbr_pairs(scene, ue)
    cfg = NoiseCfg(var_range_m2=0.5, var_angle_deg2=0.01)
    errs, nees = [], []
    for _ in range(2000):
        noisy = noisy_pairs(clean, cfg, rng)
        fix = sbr_fix(*sbr_columns(noisy), cfg.var_range_m2, cfg.var_angle_deg2)
        if fix is None:
            continue
        e = fix.p - ue
        errs.append(e)
        nees.append(e @ np.linalg.solve(fix.cov, e))
    assert len(errs) > 1900
    mean_nees = float(np.mean(nees))
    # chi-square dim 3: the declared covariance must match the scatter
    assert 2.6 < mean_nees < 3.4


def test_sbr_fix_yaw_needs_three_paths():
    # off vertical walls every u_dep + u_arr is horizontal, so two paths plus
    # a yaw unknown leave the horizontal subsystem underdetermined
    scene, ue = worked_example_pairs()
    assert sbr_fix(*sbr_columns(sbr_pairs(scene, ue)), estimate_yaw=True) is None


def test_sbr_fix_yaw_coestimation():
    # rotate the arrival directions by a common yaw offset, as a misaligned
    # attitude would, and check the solver recovers it from three paths
    rng = np.random.default_rng(8)
    psi0 = 0.003
    c, s = math.cos(psi0), math.sin(psi0)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    done = 0
    while done < 20:
        scene, ue = random_multi_path_scene(rng, n_paths=3)
        # keep the recovered legs away from the [0, L] bounds, where the
        # deliberate model mismatch would trip the sanity rejection
        if any(p.leg_bs < 5.0 or p.leg_ue < 5.0 for _, p in scene):
            continue
        done += 1
        pairs = []
        for bs, path in scene:
            obs = synth_sbr(path, pose_at(ue), PLM)
            az, el = angles_from_unit(rot @ path.u_arr)
            obs.aoa_az, obs.aoa_el = float(az), float(el)
            pairs.append((bs, obs))
        plain = sbr_fix(*sbr_columns(pairs))
        joint = sbr_fix(*sbr_columns(pairs), estimate_yaw=True)
        assert joint is not None
        # the estimate is the correction that would undo the injected rotation
        assert joint.yaw == pytest.approx(-psi0, abs=3e-4)
        err_joint = np.linalg.norm(joint.p - ue)
        err_plain = np.inf if plain is None else np.linalg.norm(plain.p - ue)
        assert err_joint < max(0.05, 0.3 * err_plain)
    # declared uncertainty: yaw variance present when noise is declared
    rng = np.random.default_rng(11)
    scene, ue = random_multi_path_scene(rng, n_paths=3)
    fix = sbr_fix(
        *sbr_columns(sbr_pairs(scene, ue)), var_range_m2=0.5, var_angle_deg2=0.01, estimate_yaw=True
    )
    assert fix is not None
    assert fix.yaw == pytest.approx(0.0, abs=1e-9)
    assert fix.cov.shape == (4, 4)
    assert fix.cov[3, 3] > 0.0


class _EinsumSpy:
    """Stands in for numpy in mpnav.fixes: every call passes through, and
    each einsum's result is kept under its subscripts."""

    def __init__(self):
        self.results = {}

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, *operands, **kwargs):
        out = self.results[subscripts] = np.einsum(subscripts, *operands, **kwargs)
        return out


def test_sbr_fix_yaw_covariance_is_the_three_blocks(monkeypatch):
    # the 4x4 covariance over (p, yaw) is symmetric and holds, bit for bit,
    # the position, yaw and cross-covariance sums the solver takes, each
    # packed as it is summed
    rng = np.random.default_rng(12)
    cfg = NoiseCfg(var_range_m2=0.5, var_angle_deg2=0.01)
    done = 0
    while done < 10:
        scene, ue = random_multi_path_scene(rng, n_paths=4)
        spy = _EinsumSpy()
        monkeypatch.setattr(fixes, "np", spy)
        fix = sbr_fix(
            *sbr_columns(noisy_pairs(sbr_pairs(scene, ue), cfg, rng)),
            cfg.var_range_m2,
            cfg.var_angle_deg2,
            var_aoa_extra_rad2=1e-6,
            estimate_yaw=True,
        )
        monkeypatch.undo()
        if fix is None:
            continue
        done += 1
        blocks = spy.results
        assert fix.cov.shape == (4, 4)
        # the position sum is symmetric up to its rounding, the yaw row and
        # column are one array
        assert np.allclose(fix.cov, fix.cov.T, rtol=1e-12, atol=0.0)
        assert fix.cov[3, :3].tobytes() == fix.cov[:3, 3].tobytes()
        assert fix.cov[:3, :3].tobytes() == blocks["kic,c,kjc->ij"].tobytes()
        assert fix.cov[3, 3] == blocks["kc,c,kc->"]
        assert fix.cov[:3, 3].tobytes() == blocks["kic,c,kc->i"].tobytes()


def test_sbr_locus_residual_and_vectorized():
    rng = np.random.default_rng(9)
    for _ in range(50):
        scene, ue = random_two_path_scene(rng)
        pairs = sbr_pairs(scene, ue)
        singles = [sbr_locus_residual(bs, o, ue) for bs, o in pairs]
        assert max(singles) < 1e-6
        # stepping perpendicular to the solution segment shows up one-to-one
        bs0, obs0 = pairs[0]
        seg = unit_from_angles(obs0.aod_az, obs0.aod_el) + unit_from_angles(
            obs0.aoa_az, obs0.aoa_el
        )
        perp = np.cross(seg, [0.0, 0.0, 1.0])
        if np.linalg.norm(perp) > 0.3:
            perp *= 2.0 / np.linalg.norm(perp)
            assert sbr_locus_residual(bs0, obs0, ue + perp) == pytest.approx(2.0, abs=1e-6)
        off = ue + np.array([5.0, -3.0, 0.0])
        bs_p = np.stack([bs.p for bs, _ in pairs])
        lengths = np.array([SPEED_OF_LIGHT * o.toa for _, o in pairs])
        u_deps = np.stack([unit_from_angles(o.aod_az, o.aod_el) for _, o in pairs])
        u_arrs = np.stack([unit_from_angles(o.aoa_az, o.aoa_el) for _, o in pairs])
        batch = sbr_locus_residuals(bs_p, lengths, u_deps, u_arrs, off)
        ref = np.array([sbr_locus_residual(bs, o, off) for bs, o in pairs])
        assert np.allclose(batch, ref, atol=1e-10)
