"""Tests for the closed-form kernels in `_su2` (su(2) vectors and SU(2)
pairs), the fourth-order Magnus step and the pairwise tree product of
path-ordered holonomy, against plain numpy references on 2x2 matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipl import _su2
from ipl.gauge import _path_ordered_product, circle_paths, flat_connection
from ipl.geometry import TorusSpec, reduce_dual
from ipl.hitchin import HiggsPairOnPlane, lift
from ipl.models import ModelParams, model_connection, perturb

from conftest import (EYE2, PAULI, as_matrix, comm, frob, from_vector,
                      reduce, same_bits, to_vector)

TORUS = TorusSpec()


def rand_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def su2_defect(U):
    """max of the unitarity and determinant defects of the matrices of
    pairs U; 0 for exact SU(2)."""
    M = as_matrix(U)
    uni = frob(M @ np.conj(np.swapaxes(M, -1, -2)) - EYE2)
    return np.maximum(uni, np.abs(np.linalg.det(M) - 1.0))


def polar_su2(M):
    """The SVD polar projection divided by the square root of its det."""
    u, _, vh = np.linalg.svd(M)
    U = u @ vh
    det = U[..., 0, 0] * U[..., 1, 1] - U[..., 0, 1] * U[..., 1, 0]
    return U / np.exp(0.5j * np.angle(det))[..., None, None]


@pytest.mark.parametrize("xs, ys", [
    ((5, 3, 2), (5, 3, 2)),
    ((2,), (7, 4, 2)),
    ((7, 4, 2), (2,)),
    ((6, 1, 2), (1, 5, 2)),
])
def test_mul_comm_dag_match_matmul(xs, ys):
    # the pair product is the matrix product of the embeddings, for any
    # complex pairs (the quaternion algebra), and (conj p, -q) is the
    # dagger of (p, q); the matrix commutator the tests use is XY - YX
    rng = np.random.default_rng(0)
    X, Y = rand_complex(rng, xs), rand_complex(rng, ys)
    got = _su2.mul(X, Y)
    want = as_matrix(X) @ as_matrix(Y)
    assert got.shape == want.shape[:-1]
    assert np.max(np.abs(as_matrix(got) - want)) < 1e-14
    A, B = as_matrix(X), as_matrix(Y)
    assert np.max(np.abs(comm(A, B) - (A @ B - B @ A))) < 1e-14
    dag = np.stack([np.conj(X[..., 0]), -X[..., 1]], axis=-1)
    assert np.array_equal(as_matrix(dag), np.conj(np.swapaxes(A, -1, -2)))
    U = _su2.expm_su2(rng.normal(size=xs[:-1] + (3,)))
    inv = np.stack([np.conj(U[..., 0]), -U[..., 1]], axis=-1)
    assert np.max(np.abs(_su2.mul(U, inv) - [1.0, 0.0])) < 1e-15


def test_from_vector_is_the_pauli_sum_bit_for_bit():
    # i v.sigma entry by entry, against the einsum over the Pauli matrices
    # (the same bits up to the sign of a zero), for real and complex v
    rng = np.random.default_rng(1)
    for v in (rng.normal(size=(7, 5, 3)), rand_complex(rng, (7, 5, 3)),
              np.array([0.0, -0.0, 2.5])):
        want = 1j * np.einsum("...k,kab->...ab", v.astype(complex), PAULI)
        assert same_bits(from_vector(v), want)
    assert np.array_equal(to_vector(from_vector(v)), v)


@pytest.mark.parametrize("vs, ws", [((9, 3), (9, 3)), ((3,), (4, 5, 3)),
                                    ((6, 1, 3), (1, 5, 3))])
def test_comm_vector_is_the_matrix_commutator(vs, ws):
    # the vector form of [X, Y] for X = i v.sigma, Y = i w.sigma, and the
    # Frobenius pairing read as 2 v.w
    rng = np.random.default_rng(len(vs) + len(ws))
    v, w = rng.normal(size=vs), rng.normal(size=ws)
    X, Y = from_vector(v), from_vector(w)
    got = _su2.comm_vector(v, w)
    assert got.shape == np.broadcast_shapes(vs, ws)
    assert got.dtype == float
    assert np.max(np.abs(got - to_vector(comm(X, Y)))) < 1e-14
    assert np.allclose(np.real(np.einsum("...ij,...ij->...", X, np.conj(Y))),
                       2.0 * np.sum(v * w, axis=-1), rtol=1e-14, atol=0.0)


def pauli_matrix(q):
    """i q.sigma for a complex 3-vector q, summed over the Pauli matrices."""
    return 1j * np.einsum("k,kab->ab", np.asarray(q, dtype=complex), PAULI)


complex_vectors = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                       allow_infinity=False), min_size=3, max_size=3)


@given(q=complex_vectors, w=complex_vectors)
@settings(max_examples=100, deadline=None)
def test_sl2c_vectors_are_the_matrix_formulas(q, w):
    # the bracket and the norm hold for complex vectors: sl(2, C) elements
    # psi = i q.sigma; the lift and the reduction of a Higgs field q are
    # the matrix formulas a_x = i (psi + psi^dag), a_y = psi - psi^dag and
    # psi = (a_y - i a_x) / 2
    q, w = np.array(q), np.array(w)
    psi, phi = pauli_matrix(q), pauli_matrix(w)
    scale = 1.0 + np.max(np.abs(q)) * (1.0 + np.max(np.abs(w)))
    got = _su2.comm_vector(q, w)
    assert got.dtype == complex
    assert np.max(np.abs(pauli_matrix(got) - (psi @ phi - phi @ psi))) \
        <= 1e-14 * scale
    assert _su2.frob_vector(q) ** 2 == pytest.approx(
        np.sum(np.abs(psi) ** 2), rel=1e-13, abs=1e-300)
    pair = HiggsPairOnPlane(
        evaluate=lambda pts: (np.zeros(pts.shape[:-1] + (2, 3)),
                              np.broadcast_to(q, pts.shape[:-1] + (3,))),
        derivative=None, torus=TORUS)
    a = lift(pair).evaluate(np.array([[1.0, 0.0, 0.0, 0.0]]))[0]
    psi_dag = np.conj(psi.T)
    assert np.max(np.abs(from_vector(a[2]) - 1j * (psi + psi_dag))) \
        <= 1e-14 * (1.0 + np.max(np.abs(q)))
    assert np.max(np.abs(from_vector(a[3]) - (psi - psi_dag))) \
        <= 1e-14 * (1.0 + np.max(np.abs(q)))
    psi_back = (from_vector(a[3]) - 1j * from_vector(a[2])) / 2.0
    q_back = reduce(lift(pair)).evaluate(np.array([[1.0, 0.0]]))[1][0]
    assert np.max(np.abs(pauli_matrix(q_back) - psi_back)) \
        <= 1e-14 * (1.0 + np.max(np.abs(q)))
    assert np.max(np.abs(q_back - q)) <= 1e-15 * (1.0 + np.max(np.abs(q)))


def test_project_su2_matches_polar_projection():
    # a pair off the unit sphere is a scaled SU(2) matrix; its projection
    # is the matrix's polar factor
    rng = np.random.default_rng(2)
    U = _su2.expm_su2(rng.normal(size=(200, 3)))
    for scale in (1e-8, 0.3):
        M = U + scale * rand_complex(rng, (200, 2))
        P = _su2.project_su2(M)
        assert P.shape == M.shape
        assert np.max(np.abs(as_matrix(P) - polar_su2(as_matrix(M)))) < 1e-13
        assert np.max(su2_defect(P)) <= 1e-14
    # exact SU(2) input, including -I, is a fixed point
    V = np.concatenate([U, [[-1.0, 0.0]]])
    assert np.max(np.abs(_su2.project_su2(V) - V)) < 1e-15


def sequential_product(conn, pts, tans):
    """Reference: the same fourth-order Magnus steps, each written out with
    numpy's @ on the generators' matrices, exponentiated by eigh and
    multiplied one at a time."""
    n = pts.shape[0]
    a = from_vector(conn.evaluate(pts))
    b = -np.einsum("k...i,k...iab->k...ab", tans, a) / n
    b1, b2 = b[:, 0], b[:, 1]
    omega = (b1 + b2) / 2 + math.sqrt(3.0) / 12 * (b2 @ b1 - b1 @ b2)
    steps = expm_by_eigh(omega)
    out = np.broadcast_to(EYE2, steps.shape[1:]).copy()
    for k in range(n):
        out = steps[k] @ out
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 255, 256])
def test_tree_product_matches_sequential(n):
    base = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.4 - 0.3j,
                                        alpha=0.2), TORUS)
    conn = perturb(base, delta=0.5, amplitude=0.3, seed=5, r_lo=5.0,
                   r_hi=50.0)
    rng = np.random.default_rng(3)
    B = 6
    bases = np.column_stack([rng.uniform(8.0, 40.0, B),
                             rng.uniform(0.0, 2 * math.pi, B),
                             rng.uniform(0.0, TORUS.period_x, B),
                             rng.uniform(0.0, TORUS.period_y, B)])
    pts, tans = circle_paths(TORUS, "theta", bases, n)
    tree = as_matrix(_path_ordered_product(conn, pts, tans))
    assert np.max(np.abs(tree - sequential_product(conn, pts, tans))) < 1e-13


@pytest.mark.parametrize("kind", ["x", "y", "theta"])
def test_magnus_step_is_fourth_order(kind):
    # against a 1024-step reference, each halving of the step cuts a
    # perturbed model's loop error about 16-fold (4-fold for a midpoint
    # rule), for every loop kind
    base = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.4 - 0.3j,
                                        alpha=0.2), TORUS)
    conn = perturb(base, delta=0.5, amplitude=0.3, seed=5, r_lo=5.0,
                   r_hi=50.0)
    bases = np.array([[8.0, 0.3, 1.0, 2.0], [12.0, 2.0, 4.0, 0.5],
                      [20.0, 4.0, 2.5, 5.0]])

    def loops(n):  # the path-ordered product itself, whatever the route
        return _path_ordered_product(conn,
                                     *circle_paths(TORUS, kind, bases, n))

    ref = loops(1024)
    errs = [np.max(np.abs(loops(n) - ref)) for n in (16, 32, 64)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 < coarse / fine < 18.0


@pytest.mark.parametrize("steps", [3, 255, 256])
def test_tree_product_matches_flat_closed_form(steps):
    # transport along the x- and y-circles of the flat connection is
    # exp(-i c L sigma3) = diag(exp(-2 pi i xi), exp(+2 pi i xi))
    xi = reduce_dual((0.3, 0.2), TORUS)
    conn = flat_connection(xi, TORUS)
    bases = np.array([[10.0, 0.0, 0.0, 0.0], [30.0, 1.0, 2.0, 3.0]])
    for kind, x in (("x", 0.3), ("y", 0.2)):
        mats = as_matrix(_path_ordered_product(
            conn, *circle_paths(TORUS, kind, bases, steps)))
        expected = np.diag([np.exp(-2j * math.pi * x),
                            np.exp(+2j * math.pi * x)])
        assert np.max(np.abs(mats - expected)) < 1e-13


def expm_by_eigh(X):
    """exp(X) for anti-hermitian X = -i H, H hermitian:
    V diag(exp(-i lam)) V^dagger from the eigendecomposition of H."""
    lam, V = np.linalg.eigh(1j * X)
    return (V * np.exp(-1j * lam)[..., None, :]) \
        @ np.conj(np.swapaxes(V, -1, -2))


def test_expm_su2_matches_eigendecomposition():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(300, 3)) * rng.uniform(0.0, 10.0, size=(300, 1))
    v[0] = 0.0
    U = _su2.expm_su2(v)
    assert U.shape == (300, 2)
    assert np.max(np.abs(as_matrix(U) - expm_by_eigh(from_vector(v)))) < 1e-13
    assert np.max(su2_defect(U)) < 1e-14
    # log_su2 inverts it on rotations of angle below pi
    small = v[np.linalg.norm(v, axis=-1) < 3.0]
    assert np.max(np.abs(_su2.log_su2(_su2.expm_su2(small)) - small)) < 1e-13


@pytest.mark.parametrize("t", [0.0, 1e-12, 0.3, 2.0, math.pi - 1e-6,
                               math.pi - 1e-9, math.pi])
def test_log_su2_inverts_the_matrix_exponential(t):
    # on rotations of angle t along 50 axes: the matrix exponential (by
    # eigh) of log_su2's vector is the pair's matrix, the angle is at most
    # pi (to rounding), and below pi log_su2 returns the rotation vector itself; at
    # t = 0 that is the zero vector exactly, and at t = pi, where v and -v
    # name the same element, either one
    rng = np.random.default_rng(5)
    n = rng.normal(size=(50, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    v = t * n
    U = _su2.expm_su2(v)
    got = _su2.log_su2(U)
    assert got.shape == v.shape
    assert np.max(np.abs(expm_by_eigh(from_vector(got)) - as_matrix(U))) \
        < 1e-14
    assert np.all(np.linalg.norm(got, axis=-1) <= math.pi + 1e-15)
    if t == 0.0:
        assert not np.any(got)
    elif t < math.pi:
        assert np.max(np.abs(got - v)) < 1e-14
    else:
        dev = np.minimum(np.max(np.abs(got - v), axis=-1),
                         np.max(np.abs(got + v), axis=-1))
        assert np.max(dev) < 1e-14
