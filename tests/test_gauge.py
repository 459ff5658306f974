"""Tests for curvature sampling, self-dual projection, holonomy transport,
the drift inequality and the annulus quadratic-form identity."""

import math
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from ipl import _su2
from ipl.cli import _drift_families
from ipl.gauge import (
    AXES,
    DRIFT_STEPS,
    LOOP_STEPS,
    PAIRS,
    BoundaryConditionError,
    ConnectionSource,
    DomainError,
    SeparableOneForm,
    _path_ordered_product,
    _term_factors,
    asd_residual,
    circle_holonomies,
    circle_paths,
    curvature,
    curvature_norm,
    flat_connection,
    interior,
    line_paths,
    monodromy_drift_defect,
    random_quadratic_form_fixture,
    self_dual,
    weitzenbock_defect,
)
from ipl.geometry import TorusSpec, reduce_dual
from ipl.models import ModelParams, model_connection, perturb

from conftest import (EYE2, SIGMA3, as_matrix, comm, frob, from_vector,
                      same_bits, stacked_curvature, stacked_vector_curvature)

TORUS = TorusSpec()


def su2_defect(U):
    """max of the unitarity and determinant defects of the matrices of
    pairs U; 0 for exact SU(2)."""
    M = as_matrix(U)
    return np.maximum(frob(M @ dag(M) - EYE2), np.abs(np.linalg.det(M) - 1.0))


def dag(X):
    """Conjugate transpose over the trailing 2x2 axes."""
    return np.conj(np.swapaxes(X, -1, -2))


def rand_points(rng, n, r_lo=5.0, r_hi=80.0):
    pts = np.empty((n, 4))
    pts[:, 0] = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=n))
    pts[:, 1] = rng.uniform(0, 2 * math.pi, size=n)
    pts[:, 2] = rng.uniform(0, TORUS.period_x, size=n)
    pts[:, 3] = rng.uniform(0, TORUS.period_y, size=n)
    return pts


def test_flat_connection_curvature_vanishes():
    conn = flat_connection(reduce_dual((0.3, 0.2), TORUS), TORUS)
    pts = rand_points(np.random.default_rng(0), 20)
    F = curvature(conn, pts)
    assert np.max(np.abs(F)) == 0.0


def counted(conn, calls, prefix):
    """The connection with its evaluate and derivative calls counted in
    calls[prefix + name]."""
    def wrap(name):
        fn = getattr(conn, name)

        def wrapper(points, *axes):
            calls[prefix + name] += 1
            return fn(points, *axes)
        return wrapper

    return replace(conn, evaluate=wrap("evaluate"),
                   derivative=wrap("derivative"))


@pytest.mark.parametrize("kind", ["flat", "lifted", "perturbed"])
def test_curvature_reads_each_callable_once_per_batch(kind):
    calls = Counter()
    if kind == "flat":
        conn = flat_connection(reduce_dual((0.3, 0.2), TORUS), TORUS)
    else:
        conn = model_connection(ModelParams(lam=0.1, mu=0.5, alpha=0.1), TORUS)
    if kind == "perturbed":
        conn = perturb(counted(conn, calls, "base."), delta=0.5,
                       amplitude=0.3, seed=5, r_lo=5.0, r_hi=50.0)
    conn = counted(conn, calls, "")
    pts = rand_points(np.random.default_rng(7), 40).reshape(4, 10, 4)
    curvature(conn, pts)
    expected = {"evaluate": 1, "derivative": 1}
    if kind == "perturbed":
        expected.update({"base.evaluate": 1, "base.derivative": 1})
    assert calls == expected


def narrow_read_connections(torus):
    """(tag, connection) for every constructor of a table of partials: a
    flat connection, lifts of both kinds, and perturb of a lift, of a flat
    connection and of a perturbation."""
    flat = flat_connection(reduce_dual((0.3, 0.2), torus), torus)
    semi = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.4 - 0.3j,
                                        alpha=0.2), torus)
    nilp = model_connection(ModelParams(kind="nilpotent"), torus)
    conns = {"flat": flat, "semisimple": semi, "nilpotent": nilp}
    for tag in ("flat", "semisimple"):
        conns[tag + "+perturbation"] = perturb(
            conns[tag], delta=0.5, amplitude=0.3, seed=5, r_lo=5.0,
            r_hi=80.0)
    conns["semisimple+perturbation+perturbation"] = perturb(
        conns["semisimple+perturbation"], delta=0.5, amplitude=0.05, seed=2,
        r_lo=5.0, r_hi=80.0)
    if torus == TORUS:
        conns["real-so2"] = real_so2_connection()
    return conns


@pytest.mark.parametrize("torus", [TORUS, TorusSpec(4.0, 7.0)],
                         ids=["2pix2pi", "4x7"])
def test_narrow_derivative_read_is_a_slice_of_the_table_bit_for_bit(torus):
    # derivative(points, axes) is rows axes of derivative(points), the same
    # bits, for every nonempty subset of the axes and every constructor;
    # the points (a (4, 40) batch, shells 5-80 live on part of it) straddle
    # the perturbations' supports
    rng = np.random.default_rng(17)
    pts = np.column_stack([np.exp(rng.uniform(math.log(3.0), math.log(120.0),
                                              160)),
                           rng.uniform(0.0, 2 * math.pi, 160),
                           rng.uniform(0.0, torus.period_x, 160),
                           rng.uniform(0.0, torus.period_y, 160)])
    pts = pts.reshape(4, 40, 4)
    for tag, conn in narrow_read_connections(torus).items():
        table = conn.derivative(pts)
        assert table.shape == (4, 40, 4, 4, 3), tag
        assert np.array_equal(conn.derivative(pts, AXES), table), tag
        for n in range(1, 5):
            for axes in combinations(AXES, n):
                got = conn.derivative(pts, axes)
                want = table[..., list(axes), :, :]
                assert got.shape == want.shape, (tag, axes)
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)), (tag, axes)


def test_curvature_of_explicit_radial_field():
    # a_x = i g(r) sigma3 with g = 1/r, the vector (0, 0, 1/r): the only
    # nonzero component is F_rx = g'(r) = -1/r^2 (abelian, no commutator
    # term), the same in the coordinate and the unit frame
    def evaluate(points):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (4, 3))
        out[..., 2, 2] = 1.0 / points[..., 0]
        return out

    def derivative(points, axes=AXES):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (4, 4, 3))
        out[..., 0, 2, 2] = -1.0 / points[..., 0] ** 2
        return out[..., list(axes), :, :]

    conn = ConnectionSource(evaluate=evaluate, torus=TORUS,
                            derivative=derivative, r_min=1e-6)
    pts = rand_points(np.random.default_rng(2), 10)
    F = curvature(conn, pts)
    assert F.shape == (10, 6, 3) and F.dtype == float
    expected = (-1j / pts[:, 0] ** 2)[:, None, None] * SIGMA3
    # pair order (r,th), (r,x), (r,y), (th,x), (th,y), (x,y)
    assert np.max(np.abs(from_vector(F[..., 1, :]) - expected)) < 1e-13
    for k in (0, 2, 3, 4, 5):
        assert np.max(np.abs(F[..., k, :])) < 1e-13


def real_so2_connection():
    # a_r = 0.3 J and a_x = J / r with J = [[0, 1], [-1, 0]]: a real
    # antisymmetric matrix is anti-hermitian and traceless, so in su(2);
    # it is i v.sigma for v = (0, 1, 0)
    def evaluate(points):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (4, 3))
        out[..., 0, 1] = 0.3
        out[..., 2, 1] = 1.0 / points[..., 0]
        return out

    def derivative(points, axes=AXES):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (4, 4, 3))
        out[..., 0, 2, 1] = -1.0 / points[..., 0] ** 2
        return out[..., list(axes), :, :]

    return ConnectionSource(evaluate=evaluate, torus=TORUS,
                            derivative=derivative, r_min=1e-6)


def test_curvature_of_a_real_valued_connection():
    # the connection's matrices are real: F_rx = -J / r^2, with no
    # commutator ([J, J] = 0), and the drift's curvature side is positive
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(from_vector([0.0, 1.0, 0.0]), J)
    pts = rand_points(np.random.default_rng(2), 10)
    F = curvature(real_so2_connection(), pts)
    want = np.zeros((10, 6, 2, 2))
    want[:, 1] = (-1.0 / pts[:, 0] ** 2)[:, None, None] * J
    assert np.max(np.abs(from_vector(F) - want)) < 1e-15
    d = monodromy_drift_defect(real_so2_connection(),
                               (20.0, 0.3, 0.0, 1.1), (10.0, 0.0, 0.0, 0.0),
                               (0.0, 0.0, TORUS.period_x, 0.0), n_t=9)
    assert np.max(d["rhs"]) > 0


def test_self_dual_projection_matches_hand_formula():
    conn = model_connection(ModelParams(lam=0.05j, mu=0.7, alpha=0.1), TORUS)
    pts = rand_points(np.random.default_rng(3), 8)
    fh = curvature(conn, pts)
    c = self_dual(fh)
    assert np.allclose(c[..., 0, :], 0.5 * (fh[..., 0, :] + fh[..., 5, :]))
    assert np.allclose(c[..., 1, :], 0.5 * (fh[..., 1, :] - fh[..., 4, :]))
    assert np.allclose(c[..., 2, :], 0.5 * (fh[..., 2, :] + fh[..., 3, :]))


def test_interior_matches_the_dense_contraction():
    # F as the antisymmetric 4 x 4 array of its PAIRS entries, contracted
    # on its first index in index order; a zero component of v is skipped
    rng = np.random.default_rng(7)
    f = rng.normal(size=(5, 6, 3))
    dense = np.zeros((5, 4, 4, 3))
    for k, (i, j) in enumerate(PAIRS):
        dense[:, i, j], dense[:, j, i] = f[:, k], -f[:, k]
    for zero in (None, 0, 2):
        v = rng.normal(size=(5, 4))
        if zero is not None:
            v[:, zero] = 0.0
        want = np.zeros((5, 4, 3))
        for i in range(4):
            want += v[:, i, None, None] * dense[:, i]
        assert np.array_equal(interior(f, v), want)


def test_curvature_norm_component_split():
    conn = model_connection(ModelParams(mu=1.0), TORUS)
    pts = rand_points(np.random.default_rng(4), 8)
    full = curvature_norm(conn, pts)
    kah = curvature_norm(conn, pts, components="kahler")
    assert np.all(kah <= full + 1e-15)
    with pytest.raises(ValueError):
        curvature_norm(conn, pts, components="bogus")


def test_domain_guard():
    conn = model_connection(ModelParams(mu=1.0), TORUS)  # r_min > 0
    with pytest.raises(DomainError):
        curvature(conn, np.array([[0.0, 0.0, 0.0, 0.0]]))


def test_flat_holonomy_closed_form():
    # transport h' = -A(gamma') h along the x-circle of length Lx gives
    # exp(-i c1 Lx sigma3) = diag(exp(-2 pi i xi1), exp(+2 pi i xi1))
    xi = reduce_dual((0.3, 0.2), TORUS)
    conn = flat_connection(xi, TORUS)
    base = np.array([[10.0, 0.0, 0.0, 0.0]])

    def loop(kind):  # the path-ordered product, not the closed form
        return as_matrix(_path_ordered_product(
            conn, *circle_paths(TORUS, kind, base, 256)))[0]

    h = loop("x")
    expected = np.diag([np.exp(-2j * math.pi * 0.3),
                        np.exp(+2j * math.pi * 0.3)])
    assert np.max(np.abs(h - expected)) < 1e-12

    hy = loop("y")
    expected_y = np.diag([np.exp(-2j * math.pi * 0.2),
                          np.exp(+2j * math.pi * 0.2)])
    assert np.max(np.abs(hy - expected_y)) < 1e-12


def test_circle_holonomies_takes_each_loops_route():
    # a reader constant along its circles (a lift, a flat connection) gives
    # exp(-L a) at the base; one that is not (a perturbed lift) gives the
    # Magnus steps on its node values, bit for bit the path-ordered
    # product; theta-circles, a connection without a reader and a batch
    # whose circles start at different along-circle coordinates take that
    # product itself, the only route that calls the connection's evaluate
    lifted = model_connection(ModelParams(lam=0.1 - 0.07j, mu=0.3 + 0.2j,
                                          alpha=0.2), TORUS)
    flat = flat_connection(reduce_dual((0.3, 0.2), TORUS), TORUS)
    perturbed = perturb(lifted, delta=0.5, amplitude=0.3, seed=4, r_lo=5.0,
                        r_hi=600.0)
    bare = ConnectionSource(evaluate=perturbed.evaluate,
                            derivative=perturbed.derivative, torus=TORUS,
                            r_min=perturbed.r_min)
    shared = np.array([[50.0, 0.3, 1.3, 2.1], [200.0, 2.0, 1.3, 2.1],
                       [400.0, 4.5, 1.3, 2.1]])
    mixed = shared + [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.5, 0.7],
                      [0.0, 0.0, 0.4, 3.0]]
    for kind, L in (("x", TORUS.period_x), ("y", TORUS.period_y)):
        comp = {"x": 2, "y": 3}[kind]
        cases = [(lifted, shared, "closed"), (flat, shared, "closed"),
                 (perturbed, shared, "magnus"), (bare, shared, "product"),
                 (lifted, mixed, "product"), (perturbed, mixed, "product")]
        for conn, bases, route in cases:
            calls = Counter()
            got = circle_holonomies(counted(conn, calls, ""), kind, bases)
            ref = _path_ordered_product(
                conn, *circle_paths(TORUS, kind, bases, LOOP_STEPS))
            assert calls["evaluate"] == (route == "product"), (kind, route)
            if route == "closed":
                closed = _su2.expm_su2(-L * conn.evaluate(bases)[:, comp])
                assert same_bits(got, closed)
                assert np.max(np.abs(got - ref)) < 1e-14
            else:
                assert same_bits(got, ref), (kind, route)
    for conn in (lifted, flat, perturbed, bare):
        calls = Counter()
        got = circle_holonomies(counted(conn, calls, ""), "theta", mixed)
        assert calls["evaluate"] == 1
        assert same_bits(got, _path_ordered_product(
            conn, *circle_paths(TORUS, "theta", mixed, LOOP_STEPS)))


def test_abelian_theta_holonomy_closed_form():
    # semisimple model theta component is i alpha sigma3, so the theta
    # monodromy is exp(-2 pi i alpha sigma3) for any radius
    alpha = 0.2
    conn = model_connection(ModelParams(alpha=alpha), TORUS)
    bases = np.array([[12.0, 0.0, 1.0, 2.0], [70.0, 0.0, 0.5, 0.1]])
    mats = as_matrix(circle_holonomies(conn, "theta", bases, steps=512))
    expected = np.diag([np.exp(-2j * math.pi * alpha),
                        np.exp(+2j * math.pi * alpha)])
    assert np.max(np.abs(mats - expected)) < 1e-10


def test_holonomy_is_special_unitary():
    conn = perturb(flat_connection(reduce_dual((0.1, 0.4), TORUS), TORUS),
                   delta=0.5, amplitude=0.3, seed=5, r_lo=5.0, r_hi=50.0)
    base = np.array([[20.0, 0.0, 2.0, 1.0]])
    h = circle_holonomies(conn, "theta", base, steps=512)[0]
    assert su2_defect(h) < 1e-10


def test_drift_defect_zero_for_flat():
    # x-circles through (10 + 5 t, 0, 0, 1)
    conn = flat_connection(reduce_dual((0.25, 0.1), TORUS), TORUS)
    d = monodromy_drift_defect(conn, (10.0, 0.0, 0.0, 1.0),
                               (5.0, 0.0, 0.0, 0.0),
                               (0.0, 0.0, TORUS.period_x, 0.0), n_t=9)
    assert d["defect"] <= 1e-12
    assert np.max(np.abs(d["rhs"])) < 1e-15


def reference_drift(conn, origin, dphi_dt, dphi_ds, n_t, steps,
                    matrix=False):
    """lhs and rhs of monodromy_drift_defect, `steps` Magnus steps per
    circle, with the circle transports by `_path_ordered_product`, A(dphi/dt)
    from its own evaluation at the base points and the coordinate-frame
    curvature contracted over all six PAIRS: with matrix=False, the lhs
    from the holonomy pairs and the su(2) vectors of
    `stacked_vector_curvature`, which the drift must match bit for bit;
    with matrix=True, |m' + [A(dphi/dt), m]|_F on the pairs' matrices, A
    turned into a matrix by `from_vector` and the bracket the matrix
    commutator, and the 2x2 matrices of `stacked_curvature` with their
    Frobenius norms."""
    origin, dphi_dt, dphi_ds = (np.asarray(v, dtype=float)
                                for v in (origin, dphi_dt, dphi_ds))
    ts = np.linspace(0.0, 1.0, n_t)
    base = origin + ts[:, None] * dphi_dt
    pts, tans = line_paths(base, dphi_ds, steps)
    m_t = _path_ordered_product(conn, pts, tans)
    a_base = conn.evaluate(base)
    a_t = sum(dphi_dt[i] * a_base[:, i] for i in range(4))
    if matrix:
        m = as_matrix(m_t)
        lhs = frob((m[2:] - m[:-2]) / (2 * (ts[1] - ts[0]))
                   + comm(from_vector(a_t), m)[1:-1])
        slots = np.moveaxis(stacked_curvature(conn, pts), -3, 0)
    else:
        dm = (m_t[2:] - m_t[:-2]) / (2 * (ts[1] - ts[0]))
        cov = _su2.vector_part(dm) \
            + _su2.comm_vector(a_t[1:-1], _su2.vector_part(m_t[1:-1]))
        lhs = np.sqrt(2.0 * (dm[:, 0].real ** 2 + np.sum(cov ** 2, axis=-1)))
        slots = np.moveaxis(stacked_vector_curvature(conn, pts), -2, 0)
    contract = np.zeros_like(slots[0])
    for f, (i, j) in zip(slots, PAIRS):
        contract += f * (dphi_dt[i] * dphi_ds[j] - dphi_dt[j] * dphi_ds[i])
    norms = frob(contract) if matrix else _su2.frob_vector(contract)
    return lhs, np.mean(norms, axis=(0, 1))


def segment_transports(conn, waypoints, steps_per_seg):
    """Transport matrices (m-1, 2, 2) along the consecutive straight
    segments of the path through waypoints (m, 4), h_k transporting from
    waypoint k to waypoint k+1, `steps_per_seg` Magnus steps a segment."""
    return as_matrix(_path_ordered_product(conn, *line_paths(
        waypoints[:-1], waypoints[1:] - waypoints[:-1], steps_per_seg)))


def conjugated_drift_lhs(conn, origin, dphi_dt, dphi_ds, n_t):
    """|d/dt (h^-1 m h)| read literally: the circle holonomies m conjugated
    by the transports h along the base path from t = 0, then differenced
    in t."""
    origin, dphi_dt, dphi_ds = (np.asarray(v, dtype=float)
                                for v in (origin, dphi_dt, dphi_ds))
    ts = np.linspace(0.0, 1.0, n_t)
    base = origin + ts[:, None] * dphi_dt
    m_t = as_matrix(_path_ordered_product(
        conn, *line_paths(base, dphi_ds, DRIFT_STEPS)))
    h = [EYE2]
    for hop in segment_transports(conn, base, steps_per_seg=8):
        h.append(hop @ h[-1])
    h = np.array(h)
    M = dag(h) @ m_t @ h
    return frob((M[2:] - M[:-2]) / (2 * (ts[1] - ts[0])))


def theta_family():
    # theta-circles through (20 + 10 t, 0, 0.5 t, 1.3) on a perturbed
    # model: two live pairs, (r, theta) and (theta, x)
    conn = perturb(model_connection(
        ModelParams(lam=0.05 + 0.02j, mu=0.4 - 0.1j, alpha=0.1), TORUS),
        delta=0.5, amplitude=0.05, seed=3, r_lo=12.0, r_hi=60.0)
    return ("theta", conn, (20.0, 0.0, 0.0, 1.3), (10.0, 0.0, 0.5, 0.0),
            (0.0, 2 * math.pi, 0.0, 0.0))


# each family at DRIFT_STEPS (id: its tag) and at the step-halving row's
# DRIFT_STEPS // 2 (id: tag-halved)
@pytest.mark.parametrize("family, steps", [
    pytest.param(family, steps, id=family[0] + suffix)
    for family in (*_drift_families(np.random.default_rng(3), TORUS),
                   theta_family())
    for steps, suffix in ((DRIFT_STEPS, ""), (DRIFT_STEPS // 2, "-halved"))])
def test_drift_defect_matches_the_two_pass_reference_bit_for_bit(family,
                                                                steps):
    _, conn, *args = family
    d = monodromy_drift_defect(conn, *args, n_t=33, steps=steps)
    lhs, rhs = reference_drift(conn, *args, n_t=33, steps=steps)
    assert np.array_equal(d["lhs"], lhs)
    assert np.array_equal(d["rhs"], rhs)
    assert d["defect"] == np.max(lhs - rhs[1:-1])
    if steps == DRIFT_STEPS:
        default = monodromy_drift_defect(conn, *args, n_t=33)
        assert all(np.array_equal(default[k], d[k]) for k in d)


@pytest.mark.parametrize("family, axes", [
    (_drift_families(np.random.default_rng(3), TORUS)[2], (0, 2)),
    (theta_family(), (0, 1, 2))], ids=["x-circles", "theta-circles"])
def test_drift_reads_only_the_rows_of_its_live_pairs(family, axes):
    # x-circles moving in r have one live pair, (r, x); theta-circles
    # moving in r and x have (r, theta) and (theta, x)
    _, conn, *args = family
    asked = []

    def derivative(points, axes=AXES):
        asked.append(axes)
        return conn.derivative(points, axes)

    monodromy_drift_defect(replace(conn, derivative=derivative), *args,
                           n_t=9)
    assert asked == [axes]


@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["clean", "perturbed"])
@pytest.mark.parametrize("torus", [TORUS, TorusSpec(4.0, 7.0)],
                         ids=["2pix2pi", "4x7"])
@pytest.mark.parametrize("params", [
    ModelParams(lam=0.1 + 0.05j, mu=0.4 - 0.3j, alpha=0.2),
    ModelParams(kind="nilpotent")], ids=["semisimple", "nilpotent"])
def test_vector_gauge_layer_matches_the_matrix_form(params, torus,
                                                    perturbed):
    # curvature, |F^+|, |F| and the drift's two sides from su(2) vectors
    # are the matrix-form values: the connection and its partials turned
    # into matrices by from_vector, every bracket the matrix commutator and
    # every norm the Frobenius norm of a matrix
    conn = model_connection(params, torus)
    if perturbed:
        conn = perturb(conn, delta=0.5, amplitude=0.3, seed=5, r_lo=5.0,
                       r_hi=80.0)
    rng = np.random.default_rng(13)
    pts = np.column_stack([np.exp(rng.uniform(math.log(6.0), math.log(80.0),
                                              64)),
                           rng.uniform(0.0, 2 * math.pi, 64),
                           rng.uniform(0.0, torus.period_x, 64),
                           rng.uniform(0.0, torus.period_y, 64)])

    def close(got, want, scale):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    want = stacked_curvature(conn, pts)
    for k, pair in enumerate(PAIRS):  # the unit frame
        if 1 in pair:
            want[:, k] = want[:, k] / pts[:, 0, None, None]
    F = curvature(conn, pts)
    assert F.shape == (64, 6, 3) and F.dtype == float
    n2 = np.sum(np.abs(want) ** 2, axis=(-2, -1))  # (64, 6)
    scale = float(np.sqrt(np.max(np.sum(n2, axis=-1))))
    close(from_vector(F), want, scale)
    close(curvature_norm(conn, pts), np.sqrt(np.sum(n2, axis=-1)), scale)
    close(curvature_norm(conn, pts, components="kahler"),
          np.sqrt(n2[:, 0] + n2[:, 5]), scale)
    sd = self_dual(want, axis=-3)
    close(asd_residual(conn, pts),
          np.sqrt(2.0 * np.sum(np.abs(sd) ** 2, axis=(-3, -2, -1))), scale)
    # x-circles moving out and across, and theta-circles moving out
    for args in (((20.0, 0.3, 0.0, 1.1), (10.0, 0.0, 0.0, 0.5),
                  (0.0, 0.0, torus.period_x, 0.0)),
                 ((20.0, 0.0, 0.0, 1.3), (10.0, 0.0, 0.5, 0.0),
                  (0.0, 2 * math.pi, 0.0, 0.0))):
        d = monodromy_drift_defect(conn, *args, n_t=17)
        lhs, rhs = reference_drift(conn, *args, n_t=17, steps=DRIFT_STEPS,
                                   matrix=True)
        scale = float(np.max(rhs))
        close(d["lhs"], lhs, scale)
        close(d["rhs"], rhs, scale)


@pytest.mark.parametrize("torus", [TORUS, TorusSpec(4.0, 7.0)],
                         ids=["2pix2pi", "4x7"])
def test_drift_lhs_from_pairs_is_the_matrix_norm(torus):
    # sqrt(2 ((Re p')^2 + |u' + comm_vector(a_t, u)|^2)) on the holonomy
    # pairs is |m' + [A(dphi/dt), m]|_F on their matrices, with A turned
    # into a matrix by from_vector and the matrix commutator, to 1e-14
    # relative at every t (the flat family's exact zeros included)
    for tag, conn, *args in _drift_families(np.random.default_rng(0), torus):
        d = monodromy_drift_defect(conn, *args, n_t=33)
        want, _ = reference_drift(conn, *args, n_t=33, steps=DRIFT_STEPS,
                                  matrix=True)
        assert np.all(np.abs(d["lhs"] - want) <= 1e-14 * want), tag


@pytest.mark.parametrize("n_t, bound", [(129, 3e-5), (257, 1e-5)])
@pytest.mark.parametrize("torus", [TORUS, TorusSpec(4.0, 7.0)],
                         ids=["2pix2pi", "4x7"])
def test_covariant_drift_lhs_matches_the_conjugated_transport(torus, n_t,
                                                              bound):
    # |m' + [A(dphi/dt), m]| and |d/dt (h^-1 m h)| agree to the centred
    # difference's O(dt^2): about 1.4e-5 at n_t = 129 and 3.6e-6 at 257,
    # while a commutator of the wrong sign leaves 1.6e-3 or more
    for tag, conn, *args in _drift_families(np.random.default_rng(0), torus):
        d = monodromy_drift_defect(conn, *args, n_t=n_t)
        conj = conjugated_drift_lhs(conn, *args, n_t=n_t)
        assert np.max(np.abs(d["lhs"] - conj)) <= bound, tag


@pytest.mark.parametrize("torus", [TorusSpec(4.0, 7.0), TorusSpec(30.0, 1.0)],
                         ids=["4x7", "30x1"])
@pytest.mark.parametrize("seed", [0, 1])
def test_drift_defect_at_drift_steps_is_within_5e_6_of_128_steps(torus,
                                                                 seed):
    # the defect's discretization error at DRIFT_STEPS, read against four
    # times as many steps: at most 0.5 % of the inequality suite's drift
    # tolerance 1e-3
    for tag, conn, *args in _drift_families(np.random.default_rng(seed),
                                            torus):
        fine = monodromy_drift_defect(conn, *args, n_t=33, steps=128)
        d = monodromy_drift_defect(conn, *args, n_t=33)
        assert abs(d["defect"] - fine["defect"]) <= 5e-6, tag


def separable_form(*terms):
    """The SeparableOneForm of terms (component, vector, radial_coeffs,
    modes), phases 0, each profile zero-padded to the longest."""
    coeffs = np.zeros((len(terms), max(len(t[2]) for t in terms)))
    for row, t in zip(coeffs, terms):
        row[:len(t[2])] = t[2]
    comp, vectors, _, modes = zip(*terms)
    return SeparableOneForm(np.array(comp), np.array(vectors, dtype=float),
                            coeffs, np.array(modes), np.zeros((len(terms), 3)))


def test_weitzenbock_identity_on_random_fixtures():
    rng = np.random.default_rng(7)
    for j in range(6):
        form = random_quadratic_form_fixture(rng, 9.0)
        gamma = None if j % 2 == 0 else reduce_dual((0.37, 0.61), TORUS)
        d = weitzenbock_defect(form, gamma, 3.0, 9.0, torus=TORUS)
        scale = max(1.0, d["grad_sq"])
        assert abs(d["defect"]) / scale < 1e-10
        assert abs(d["outer_term"]) < 1e-10


def _dense_weitzenbock(form, gamma, r_in, r_out, torus, n_r=48):
    """Tensor-grid reference for weitzenbock_defect on its nodes: every
    nabla_{alpha beta} (zero-based frame indices) as a matrix-valued field
    on the (theta, x, y) grid, and w |.|_F^2 summed point by point, one
    Gauss-Legendre radial node at a time."""
    n_th, n_x, n_y = (max(8, 4 * k + 4)
                      for k in np.max(np.abs(form.modes), axis=0))
    nodes, wts = np.polynomial.legendre.leggauss(n_r)
    rs = 0.5 * (r_out - r_in) * nodes + 0.5 * (r_out + r_in)
    wr = 0.5 * (r_out - r_in) * wts
    Lx, Ly = torus.period_x, torus.period_y
    TH, X, Y = np.meshgrid(np.linspace(0, 2 * math.pi, n_th, endpoint=False),
                           np.linspace(0, Lx, n_x, endpoint=False),
                           np.linspace(0, Ly, n_y, endpoint=False),
                           indexing="ij")
    w_ang = (2 * math.pi / n_th) * (Lx / n_x) * (Ly / n_y)
    xi = (0.0, 0.0) if gamma is None else (gamma.xi1, gamma.xi2)
    twist = [2 * math.pi * xi[0] / Lx * 1j * SIGMA3,
             2 * math.pi * xi[1] / Ly * 1j * SIGMA3]

    def field(scalar, M):
        return scalar[..., None, None] * M

    terms = list(zip(form.component, map(from_vector, form.vectors),
                     form.radial_coeffs, form.modes, form.phases))

    def nabla(r):
        nab = np.zeros((4, 4) + TH.shape + (2, 2), dtype=complex)
        for b, T, coeffs, (p, n, m), ph in terms:
            kx, ky = 2 * math.pi * n / Lx, 2 * math.pi * m / Ly
            ct, st = np.cos(p * TH + ph[0]), np.sin(p * TH + ph[0])
            cx, sx = np.cos(kx * X + ph[1]), np.sin(kx * X + ph[1])
            cy, sy = np.cos(ky * Y + ph[2]), np.sin(ky * Y + ph[2])
            poly = np.polynomial.Polynomial(coeffs)
            f, df = poly(r), poly.deriv()(r)
            if b == 1:  # unit frame: ahat = a_theta / r
                f, df = f / r, df / r - f / r ** 2
            a = f * ct * cx * cy
            nab[0, b] += field(df * ct * cx * cy, T)
            nab[1, b] += field(-p * f * st * cx * cy / r, T)
            for row, (k, trig) in ((2, (kx, ct * sx * cy)),
                                   (3, (ky, ct * cx * sy))):
                g = twist[row - 2]
                nab[row, b] += field(-k * f * trig, T) \
                    + field(a, g @ T - T @ g)
            if b == 1:
                nab[1, 0] += field(-a / r, T)
        return nab

    def nsq(F):
        return float(np.sum(np.abs(F) ** 2))

    out = dict.fromkeys(("grad_sq", "d_sq", "dstar_sq"), 0.0)
    for r, w in zip(rs, wr * rs * w_ang):
        nab = nabla(r)
        out["grad_sq"] += w * nsq(nab)
        out["d_sq"] += w * sum(nsq(nab[a, b] - nab[b, a])
                               for a in range(4) for b in range(a + 1, 4))
        out["dstar_sq"] += w * nsq(nab[1, 1] + nab[2, 2] + nab[3, 3])
    for key, rho in (("inner_term", r_in), ("outer_term", r_out)):
        out[key] = w_ang * nsq(nabla(rho)[1, 0] * -rho)  # |a_theta / r|^2
    out["defect"] = (out["d_sq"] + out["dstar_sq"] - out["grad_sq"]
                     + out["inner_term"])
    return out


def test_weitzenbock_matches_dense_tensor_grid_sum():
    rng = np.random.default_rng(23)
    n_theta_terms = 0
    # the 2 pi x 2 pi torus, then unequal periods
    for j, torus in enumerate([TORUS] * 10 + [TorusSpec(4.0, 7.0)] * 10):
        form = random_quadratic_form_fixture(rng, 9.0)
        gamma = None if j % 2 == 0 else reduce_dual(
            (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)), torus)
        got = weitzenbock_defect(form, gamma, 3.0, 9.0, torus=torus)
        ref = _dense_weitzenbock(form, gamma, 3.0, 9.0, torus)
        # defect and outer_term are zero up to rounding: compare on the
        # scale of grad_sq
        for key, value in ref.items():
            assert got[key] == pytest.approx(
                value, rel=1e-13, abs=1e-13 * ref["grad_sq"]), key
        n_theta_terms += np.count_nonzero(form.component == 1)
    assert n_theta_terms > 0


@pytest.mark.parametrize("coeffs", [
    (1.7,), (0.4, -1.3), (-0.2, 0.9, 0.05), (1.1, -0.3, 0.02, -7e-4)])
def test_radial_factor_is_the_numpy_polynomial_bit_for_bit(coeffs):
    # the profile and its derivative by Horner, in numpy's polyval order;
    # the constant profile of the single-dx-mode closed form has f' = 0.
    # Batched after a longer profile, a term's coefficients are padded
    # with leading zeros, and its rows stay the same bits
    rs = 6.0 + 3.0 * np.polynomial.legendre.leggauss(48)[0]
    longer = (1, (1.0, 0.0, 0.0), (0.3, -0.2, 0.1, 0.05, -0.01), (0, 0, 0))
    rng = np.random.default_rng(len(coeffs))
    draws = [coeffs] + [tuple(rng.normal(size=len(coeffs)))
                        for _ in range(50)]
    for c in draws:
        term = (2, (0.0, 0.0, 1.0), c, (1, 1, 0))
        (f, df), *_ = _term_factors(separable_form(term), rs, np.zeros(1),
                                    np.zeros(1), np.zeros(1), TORUS)
        poly = np.polynomial.Polynomial(c)
        assert np.array_equal(f[0], poly(rs))
        assert np.array_equal(df[0], poly.deriv()(rs))
        padded = separable_form(longer, term)
        assert padded.radial_coeffs.shape == (2, 5)
        (f, df), *_ = _term_factors(padded, rs, np.zeros(1), np.zeros(1),
                                    np.zeros(1), TORUS)
        assert np.array_equal(f[1], poly(rs))
        assert np.array_equal(df[1], poly.deriv()(rs))


def test_fixture_profiles_are_the_numpy_polynomial_products():
    # replays the fixture's draws term by term: each dtheta profile is the
    # drawn quadratic times r - r_outer, bit for bit the Polynomial
    # product, and zero-padded like the others to four coefficients
    rng, replay = np.random.default_rng(31), np.random.default_rng(31)
    n_theta_terms = 0
    for _ in range(20):
        form = random_quadratic_form_fixture(rng, 9.0)
        assert form.radial_coeffs.shape == (4, 4)
        for k in range(4):
            comp = int(replay.integers(1, 4))
            poly = np.polynomial.Polynomial(replay.normal(size=3))
            if comp == 1:
                poly = poly * np.polynomial.Polynomial([-9.0, 1.0])
                n_theta_terms += 1
            assert np.array_equal(form.vectors[k], replay.normal(size=3))
            assert np.array_equal(form.modes[k],
                                  replay.integers(-2, 3, size=3))
            assert np.array_equal(form.phases[k],
                                  replay.uniform(0, 2 * math.pi, size=3))
            assert form.component[k] == comp
            n = len(poly.coef)
            assert np.array_equal(form.radial_coeffs[k, :n], poly.coef)
            assert not np.any(form.radial_coeffs[k, n:])
    assert n_theta_terms > 0


def test_weitzenbock_closed_form_single_dx_mode():
    # a_x = c T cos(kx x): the only nonzero entry is nabla_33, so
    # grad_sq = dstar_sq = |T|^2 c^2 kx^2 pi (R'^2 - R^2) Lx Ly / 2
    torus = TorusSpec(period_x=1.3, period_y=0.7)
    c, n, r_in, r_out = 1.7, 2, 3.0, 9.0
    T = from_vector([0.3, -1.1, 0.4])
    form = separable_form((2, (0.3, -1.1, 0.4), (c,), (0, n, 0)))
    d = weitzenbock_defect(form, None, r_in, r_out, torus=torus)
    kx = 2 * math.pi * n / torus.period_x
    exact = (np.sum(np.abs(T) ** 2) * c ** 2 * kx ** 2 * math.pi
             * (r_out ** 2 - r_in ** 2) * torus.period_x * torus.period_y / 2)
    assert d["grad_sq"] == pytest.approx(exact, rel=1e-14)
    assert d["dstar_sq"] == pytest.approx(exact, rel=1e-14)
    assert abs(d["d_sq"]) <= 1e-14 * exact
    assert abs(d["defect"]) <= 1e-14 * exact
    assert d["inner_term"] == d["outer_term"] == 0.0


@pytest.mark.parametrize("component, error", [
    (0, BoundaryConditionError), (4, ValueError)])
def test_weitzenbock_rejects_bad_components(component, error):
    form = separable_form((component, (0.0, 0.0, 1.0), (1.0,), (1, 1, 0)))
    with pytest.raises(error) as info:
        weitzenbock_defect(form, None, 3.0, 9.0, torus=TORUS)
    # a component-4 term is a plain ValueError, not a boundary violation
    assert (info.type is BoundaryConditionError) == (component == 0)



def test_flat_twist_from_another_torus_is_rejected():
    # the exponents 2 pi xi / L are read on xi's own torus, so a point of
    # another torus's dual would give a connection whose holonomy is not xi
    xi = reduce_dual((0.3, 0.2), TorusSpec(4.0, 7.0))
    with pytest.raises(ValueError, match="another torus"):
        flat_connection(xi, TORUS)
    form = separable_form((2, (0.0, 0.0, 1.0), (1.0,), (1, 1, 0)))
    with pytest.raises(ValueError, match="another torus"):
        weitzenbock_defect(form, xi, 3.0, 9.0, torus=TORUS)
