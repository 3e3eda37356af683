import numpy as np
import pytest
from helpers import chain_componentwise, identity, multiply_componentwise, rotate_componentwise

from mpnav import quat


def random_unit_quats(rng, n):
    q = rng.standard_normal((n, 4))
    return quat.normalize(q)


def test_identity_and_normalize():
    assert np.allclose(identity(), [1, 0, 0, 0])
    q = quat.normalize([2.0, 0.0, 0.0, 0.0])
    assert np.allclose(q, [1, 0, 0, 0])
    rng = np.random.default_rng(0)
    q = random_unit_quats(rng, 64)
    assert np.allclose(np.linalg.norm(q, axis=-1), 1.0, atol=1e-12)


def test_multiply_matches_matrix_product():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = random_unit_quats(rng, 1)[0]
        b = random_unit_quats(rng, 1)[0]
        lhs = quat.to_matrix(quat.multiply(a, b))
        rhs = quat.to_matrix(a) @ quat.to_matrix(b)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_rotate_matches_matrix_and_broadcasts():
    rng = np.random.default_rng(2)
    q = random_unit_quats(rng, 32)
    v = rng.standard_normal((32, 3))
    out = quat.rotate(q, v)
    assert out.shape == (32, 3)
    ref = np.einsum("nij,nj->ni", quat.to_matrix(q), v)
    assert np.allclose(out, ref, atol=1e-12)
    # one quaternion against many vectors
    one = quat.rotate(q[0], v)
    assert np.allclose(one, v @ quat.to_matrix(q[0]).T, atol=1e-12)


@pytest.mark.parametrize(
    "left, right",
    [
        ((4,), (4,)),
        ((4,), (7, 4)),
        ((7, 4), (4,)),
        ((7, 4), (7, 4)),
        ((3, 1, 4), (5, 4)),
        ((5, 4), (3, 1, 4)),
    ],
    ids=["1d", "1d_left", "1d_right", "stacked", "broadcast_left", "broadcast_right"],
)
def test_kernels_match_componentwise_reference(left, right):
    # same bits and a C-ordered result: normalize and to_rotvec sum the
    # components of an F-ordered array in another order
    rng = np.random.default_rng(8)
    a = rng.standard_normal(left)
    b = rng.standard_normal(right)
    v = rng.standard_normal(right[:-1] + (3,))
    dq = rng.standard_normal((5,) + right)
    qa = quat.normalize(a)
    cases = [
        (quat.multiply(a, b), multiply_componentwise(a, b)),
        (quat.rotate(qa, v), rotate_componentwise(qa, v)),
        (quat.chain(a, dq), chain_componentwise(a, dq)),
    ]
    for got, want in cases:
        assert got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    product = quat.multiply(a, b)
    assert quat.normalize(product).tobytes() == quat.normalize(multiply_componentwise(a, b)).tobytes()
    assert quat.to_rotvec(product).tobytes() == quat.to_rotvec(multiply_componentwise(a, b)).tobytes()


def test_rotate_preserves_length_and_conjugate_inverts():
    rng = np.random.default_rng(3)
    q = random_unit_quats(rng, 40)
    v = rng.standard_normal((40, 3))
    w = quat.rotate(q, v)
    assert np.allclose(np.linalg.norm(w, axis=-1), np.linalg.norm(v, axis=-1), atol=1e-12)
    back = quat.rotate(quat.conjugate(q), w)
    assert np.allclose(back, v, atol=1e-12)


def test_rotvec_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        ang = rng.uniform(1e-8, np.pi - 1e-6)
        r = ang * axis
        assert np.allclose(quat.to_rotvec(quat.from_rotvec(r)), r, atol=1e-9)
    # tiny-angle stability through the sinc branch
    r = np.array([1e-14, -2e-14, 3e-15])
    assert np.allclose(quat.to_rotvec(quat.from_rotvec(r)), r, atol=1e-20)
    assert np.allclose(quat.from_rotvec(np.zeros(3)), identity())


def test_to_rotvec_sign_convention():
    # q and -q are the same rotation; the log picks the short arc
    r = np.array([0.0, 0.0, 0.4])
    q = quat.from_rotvec(r)
    assert np.allclose(quat.to_rotvec(-q), r, atol=1e-12)


def test_matrix_orthonormal():
    rng = np.random.default_rng(5)
    m = quat.to_matrix(random_unit_quats(rng, 25))
    eye = np.einsum("nij,nkj->nik", m, m)
    assert np.allclose(eye, np.eye(3), atol=1e-12)
    assert np.allclose(np.linalg.det(m), 1.0, atol=1e-12)


def test_euler_axis_conventions():
    # yaw rotates East into North about Up
    m = quat.to_matrix(quat.from_euler(0.0, 0.0, np.pi / 2))
    assert np.allclose(m @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    # positive pitch raises the body x axis
    m = quat.to_matrix(quat.from_euler(0.0, 0.3, 0.0))
    fwd = m @ [1, 0, 0]
    assert fwd[2] == pytest.approx(np.sin(0.3), abs=1e-12)
    # roll spins about body x; body y drops toward -z... sign check via z row
    m = quat.to_matrix(quat.from_euler(0.2, 0.0, 0.0))
    assert np.allclose(m @ [1, 0, 0], [1, 0, 0], atol=1e-12)
    assert (m @ [0, 1, 0])[2] == pytest.approx(np.sin(0.2), abs=1e-12)


def test_euler_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(200):
        rpy = np.array(
            [
                rng.uniform(-np.pi, np.pi),
                rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05),
                rng.uniform(-np.pi, np.pi),
            ]
        )
        back = quat.to_euler(quat.from_euler(*rpy))
        assert np.allclose(back, rpy, atol=1e-9)


def test_from_euler_broadcasts():
    rng = np.random.default_rng(7)
    rpy = rng.uniform(-1.0, 1.0, (17, 3))
    q = quat.from_euler(rpy[:, 0], rpy[:, 1], rpy[:, 2])
    assert q.shape == (17, 4)
    for k in range(17):
        assert np.allclose(q[k], quat.from_euler(*rpy[k]), atol=1e-15)
