"""Tests for the closed-form model connections: exact anti-self-duality,
curvature magnitudes against hand-derived formulas, parameter plumbing,
and the decaying perturbation's pointwise bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipl.gauge import PAIRS, asd_residual, curvature, curvature_norm, \
    flat_connection, self_dual
from ipl.geometry import TWO_PI, TorusSpec, reduce_dual
from ipl.models import (
    N_BUMPS,
    ModelParams,
    _bump,
    _bump_deriv,
    _perturb_draws,
    _radial,
    hitchin_model,
    model_connection,
    perturb,
)

from conftest import SIGMA3, from_vector, same_bits, stacked_vector_curvature

TORUS = TorusSpec()
NILPOTENT = ModelParams(kind="nilpotent")


def rand_points(rng, n, r_lo, r_hi, torus=TORUS):
    pts = np.empty((n, 4))
    pts[:, 0] = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=n))
    pts[:, 1] = rng.uniform(0, 2 * math.pi, size=n)
    pts[:, 2] = rng.uniform(0, torus.period_x, size=n)
    pts[:, 3] = rng.uniform(0, torus.period_y, size=n)
    return pts


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha=0.5)
    with pytest.raises(ValueError):
        ModelParams(kind="other")
    for field in ({"lam": 0.1j}, {"mu": 1.0}, {"alpha": 0.25}):
        with pytest.raises(ValueError):
            ModelParams(kind="nilpotent", **field)


def test_semisimple_exactly_anti_self_dual():
    rng = np.random.default_rng(0)
    for lam in (0.0, 0.1 + 0.05j):
        for mu in (0.0, 1.0, 0.3 - 0.2j):
            for alpha in (-0.25, 0.0, 0.25):
                conn = model_connection(
                    ModelParams(lam=lam, mu=mu, alpha=alpha), TORUS)
                pts = rand_points(rng, 40, 5.0, 500.0)
                assert np.max(asd_residual(conn, pts)) < 1e-12


def test_semisimple_curvature_magnitude():
    # |F| = 4 |mu| / r^2 pointwise for the abelian model
    mu = 0.7 - 0.4j
    conn = model_connection(ModelParams(lam=0.2j, mu=mu, alpha=0.1), TORUS)
    pts = rand_points(np.random.default_rng(1), 30, 5.0, 300.0)
    norms = curvature_norm(conn, pts)
    assert np.max(np.abs(norms - 4.0 * abs(mu) / pts[:, 0] ** 2)) < 1e-12


def test_semisimple_chirality_split():
    # the self-dual coefficients vanish; the opposite chirality holds all
    # the curvature, 2 |mu| / r^2 per diagonal gauge entry
    mu = 0.5 - 0.3j
    conn = model_connection(ModelParams(lam=0.11 + 0.07j, mu=mu, alpha=0.2),
                            TORUS)
    pts = rand_points(np.random.default_rng(2), 20, 5.0, 200.0)
    fh = curvature(conn, pts)
    assert np.max(np.abs(self_dual(fh))) < 1e-13
    # the (0, 0) gauge entry of i v.sigma is i v3
    d1 = 0.5 * (fh[:, 0, 2] - fh[:, 5, 2])
    d2 = 0.5 * (fh[:, 1, 2] + fh[:, 4, 2])
    d3 = 0.5 * (fh[:, 2, 2] - fh[:, 3, 2])
    agg = np.sqrt(np.abs(d1) ** 2 + np.abs(d2) ** 2 + np.abs(d3) ** 2)
    assert np.max(np.abs(agg - 2.0 * abs(mu) / pts[:, 0] ** 2)) < 1e-13


def test_nilpotent_exactly_anti_self_dual():
    conn = model_connection(NILPOTENT, TORUS)
    pts = rand_points(np.random.default_rng(3), 40, 10.0, 1000.0)
    assert np.max(asd_residual(conn, pts)) < 1e-12


def test_nilpotent_curvature_magnitudes():
    # Kahler pair: 4 / (r L)^2 with L = 2 ln r; all six components:
    # sqrt(8 (2 + (L+2)^2)) / (r L)^2
    conn = model_connection(NILPOTENT, TORUS)
    pts = rand_points(np.random.default_rng(4), 30, 10.0, 1000.0)
    r = pts[:, 0]
    L = 2.0 * np.log(r)
    kah = curvature_norm(conn, pts, components="kahler")
    assert np.max(np.abs(kah - 4.0 / (r * L) ** 2)) < 1e-12
    full = curvature_norm(conn, pts)
    expected = np.sqrt(8.0 * (2.0 + (L + 2.0) ** 2)) / (r * L) ** 2
    assert np.max(np.abs(full - expected)) < 1e-12


def test_nilpotent_needs_radius_above_one():
    conn = model_connection(NILPOTENT, TORUS)
    assert conn.r_min > 1.0


def test_model_connection_dispatch():
    c1 = model_connection(ModelParams(mu=1.0), TORUS)
    c2 = model_connection(NILPOTENT, TORUS)
    assert c1.r_min != c2.r_min
    assert (c1.name, c2.name) == ("semisimple-model", "nilpotent-model")


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_perturbation_pointwise_bound(seed):
    base = model_connection(ModelParams(mu=0.5, alpha=0.1), TORUS)
    amplitude, delta = 0.05, 0.5
    conn = perturb(base, delta=delta, amplitude=amplitude, seed=seed,
                   r_lo=5.0, r_hi=600.0)
    rng = np.random.default_rng(seed + 1)
    pts = rand_points(rng, 50, 5.0, 800.0)
    # the largest deviation of a component's matrix entries
    dev = np.abs(from_vector(conn.evaluate(pts) - base.evaluate(pts)))
    bound = amplitude * pts[:, 0] ** (-(1.0 + delta))
    assert np.all(np.max(dev, axis=(-3, -2, -1)) <= bound + 1e-15)


def shell_radii(r_lo, r_hi):
    """Each perturbation shell's (centre, width), centres geometric."""
    return [(float(rho), 0.35 * float(rho))
            for rho in np.geomspace(r_lo, r_hi, N_BUMPS)]


def dense_perturbed(base, points, delta, amplitude, seed, r_lo, r_hi):
    """Reference for `perturb`: all 24 terms added at every point, one
    component at a time and with no support test, each term's waves
    formed from its integer modes and the base's torus. Returns the
    connection and its table of partials."""
    a = np.array(base.evaluate(points), copy=True)
    d = np.array(base.derivative(points), copy=True)
    r = points[..., 0]
    for (center, width), vectors, modes, phases in zip(
            shell_radii(r_lo, r_hi), *_perturb_draws(seed)):
        u = (r - center) / width
        g = _radial(r, u, delta)
        dg = (_bump_deriv(u) / width) * r ** (-(1.0 + delta)) \
            + _bump(u) * (-(1.0 + delta)) * r ** (-(2.0 + delta))
        for comp in range(4):
            p, n, m = (int(mode) for mode in modes[comp])
            kx = TWO_PI * n / base.torus.period_x
            ky = TWO_PI * m / base.torus.period_y
            args = [k * points[..., 1 + i] + float(phases[comp, i])
                    for i, k in enumerate((p, kx, ky))]
            f0, f1, f2 = np.cos(args)
            c = f0 * f1 * f2
            coefs = (g * c, dg * c,
                     g * (-p * np.sin(args[0]) * f1 * f2),
                     g * (-kx * np.sin(args[1]) * f0 * f2),
                     g * (-ky * np.sin(args[2]) * f0 * f1))
            for out, coef in zip([a] + [d[..., i, :, :] for i in range(4)],
                                 coefs):
                out[..., comp, :] += (
                    amplitude / 2.0 * coef[..., None] * vectors[comp])
    return a, d


@pytest.mark.parametrize("seed", [0, 4, 20260815])
def test_perturb_draws_replay_the_seed_term_by_term(seed):
    # shell by shell, component by component: a normal direction scaled to
    # Frobenius norm 1 by its own norm, integer modes, then uniform phases
    vectors, modes, phases = _perturb_draws(seed)
    assert vectors.shape == modes.shape == phases.shape == (N_BUMPS, 4, 3)
    replay = np.random.default_rng(seed)
    for i in range(N_BUMPS):
        for j in range(4):
            v = replay.normal(size=3)
            assert same_bits(vectors[i, j],
                             v / (math.sqrt(2.0) * np.linalg.norm(v)))
            assert np.array_equal(modes[i, j], replay.integers(-2, 3, 3))
            assert same_bits(phases[i, j], replay.uniform(0.0, TWO_PI, 3))


@given(seed=st.integers(0, 10 ** 6),
       radii=st.lists(st.one_of(st.sampled_from(("edge-", "edge+", "centre")),
                                st.floats(2.0, 900.0)),
                      min_size=1, max_size=24),
       shell=st.integers(0, 5), batch_2d=st.booleans())
@settings(max_examples=40, deadline=None)
def test_masked_perturbation_matches_dense_sum(seed, radii, shell, batch_2d):
    # each term is exactly zero off its support, so evaluating a shell only
    # on the points inside it must reproduce the all-terms sum bit for bit,
    # including at r = centre +- width where the support test decides; on
    # the 4 x 7 torus a wave with the x and y periods swapped differs too
    delta, amplitude, r_lo, r_hi = 0.5, 0.05, 5.0, 600.0
    center, width = shell_radii(r_lo, r_hi)[shell]
    rs = []
    for v in radii:
        if v == "edge-":
            v = center - width
        elif v == "edge+":
            v = center + width
        elif v == "centre":
            v = center
        rs.extend([np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)])
    for torus in (TORUS, TorusSpec(4.0, 7.0)):
        rng = np.random.default_rng(seed)
        pts = np.stack([np.array(rs), rng.uniform(0.0, 2 * math.pi, len(rs)),
                        rng.uniform(0.0, torus.period_x, len(rs)),
                        rng.uniform(0.0, torus.period_y, len(rs))], axis=-1)
        if batch_2d:
            pts = pts.reshape(3, -1, 4)
        base = model_connection(ModelParams(lam=0.1 - 0.05j, mu=0.3 + 0.2j,
                                            alpha=0.25), torus)
        conn = perturb(base, delta=delta, amplitude=amplitude, seed=seed,
                       r_lo=r_lo, r_hi=r_hi)
        a_ref, d_ref = dense_perturbed(base, pts, delta, amplitude, seed,
                                       r_lo, r_hi)
        assert same_bits(conn.evaluate(pts), a_ref), torus
        d = conn.derivative(pts)
        assert d.shape == pts.shape[:-1] + (4, 4, 3)
        for i in range(4):
            assert same_bits(d[..., i, :, :], d_ref[..., i, :, :]), (torus, i)


@pytest.mark.parametrize("torus", [TorusSpec(4.0, 7.0), TorusSpec(30.0, 1.0)],
                         ids=["4x7", "30x1"])
def test_perturbed_model_is_periodic(torus):
    # a perturbation's waves must have the periods 2 pi in theta and
    # L_x, L_y on the torus: a shift by one period moves evaluate and
    # derivative by rounding only
    conn = perturb(model_connection(ModelParams(lam=0.1 - 0.05j,
                                                mu=0.3 + 0.2j, alpha=0.25),
                                    torus),
                   delta=0.5, amplitude=0.3, seed=4, r_lo=5.0, r_hi=600.0)
    pts = rand_points(np.random.default_rng(7), 400, 4.0, 700.0, torus)
    a, d = conn.evaluate(pts), conn.derivative(pts)
    for axis, period in ((1, TWO_PI), (2, torus.period_x),
                         (3, torus.period_y)):
        shifted = pts.copy()
        shifted[:, axis] += period
        assert np.max(np.abs(conn.evaluate(shifted) - a)) <= 1e-12, axis
        assert np.max(np.abs(conn.derivative(shifted) - d)) <= 1e-12, axis


@pytest.mark.parametrize("kind", ["flat", "semisimple", "nilpotent",
                                  "perturbed"])
@pytest.mark.parametrize("batch_2d", [False, True], ids=["1d", "2d"])
def test_curvature_matches_the_stacked_reference_bit_for_bit(kind, batch_2d):
    if kind == "flat":
        conn = flat_connection(reduce_dual((0.3, 0.2), TORUS), TORUS)
    elif kind == "nilpotent":
        conn = model_connection(NILPOTENT, TORUS)
    else:
        conn = model_connection(ModelParams(lam=0.1 - 0.05j, mu=0.3 + 0.2j,
                                            alpha=0.25), TORUS)
        if kind == "perturbed":
            conn = perturb(conn, delta=0.5, amplitude=0.05, seed=4,
                           r_lo=5.0, r_hi=600.0)
    pts = rand_points(np.random.default_rng(11), 96, 2.0, 700.0)
    if batch_2d:
        pts = pts.reshape(4, 24, 4)
    got = curvature(conn, pts)
    assert got.shape == pts.shape[:-1] + (6, 3)
    # the unit frame: the coordinate frame's theta-paired slots (r, th),
    # (th, x), (th, y) times 1 / r
    want = stacked_vector_curvature(conn, pts)
    for k, pair in enumerate(PAIRS):
        if 1 in pair:
            want[..., k, :] = want[..., k, :] * (1.0 / pts[..., 0, None])
    assert same_bits(got, want)


@pytest.mark.parametrize("params", [
    ModelParams(lam=0.1 + 0.05j, mu=0.4 - 0.3j, alpha=0.2), NILPOTENT],
    ids=["semisimple", "nilpotent"])
@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["clean", "perturbed"])
def test_model_derivative_matches_central_difference(params, perturbed):
    # every connection carries its exact partials; check them against a
    # central difference, whose truncation and rounding errors are both
    # far below the bound at h = 1e-5
    conn = model_connection(params, TORUS)
    if perturbed:
        conn = perturb(conn, delta=0.5, amplitude=0.3, seed=9, r_lo=5.0,
                       r_hi=100.0)
    pts = rand_points(np.random.default_rng(5), 12, 6.0, 90.0)
    h = 1e-5
    exact = conn.derivative(pts)
    for axis in range(4):
        shift = np.zeros(4)
        shift[axis] = h
        fd = (conn.evaluate(pts + shift) - conn.evaluate(pts - shift)) / (2 * h)
        assert np.max(np.abs(fd - exact[:, axis])) < 1e-8, axis


def test_hitchin_model_matches_connection_reduction():
    params = ModelParams(lam=0.1, mu=0.4 + 0.1j, alpha=0.2)
    pair = hitchin_model(params, TORUS)
    conn = model_connection(params, TORUS)
    pts4 = rand_points(np.random.default_rng(6), 10, 5.0, 100.0)
    a = from_vector(conn.evaluate(pts4))
    _, q = pair.evaluate(pts4[:, :2])
    # reduction convention: psi_w = (a_y - i a_x) / 2, with psi_w = i q.sigma
    psi = from_vector(q)
    assert np.max(np.abs((a[:, 3] - 1j * a[:, 2]) / 2.0 - psi)) < 1e-12


def test_model_pairs_are_the_matrix_formulas():
    # the vector constants of the two pairs, read back as matrices:
    # semisimple psi = (lam + mu / w) sigma3 with b_theta = i alpha sigma3;
    # nilpotent psi = N / (w L) with N = [[0, 1], [0, 0]] and
    # b_theta = i diag(-1, 1) / L, L = ln r^2; and their partials
    pts = rand_points(np.random.default_rng(8), 10, 5.0, 100.0)[:, :2]
    r, w = pts[:, 0], pts[:, 0] * np.exp(1j * pts[:, 1])
    lam, mu, alpha = 0.1 - 0.2j, 0.4 + 0.3j, 0.15
    L = 2.0 * np.log(r)
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    for params, b_th, psi, db_th, dpsi in (
            (ModelParams(lam=lam, mu=mu, alpha=alpha),
             1j * alpha * SIGMA3,
             (lam + mu / w)[:, None, None] * SIGMA3,
             np.zeros((2, 2)),
             (-mu / (w * r))[:, None, None] * SIGMA3),
            (NILPOTENT,
             (1j / L)[:, None, None] * np.diag([-1.0, 1.0]),
             (1.0 / (w * L))[:, None, None] * N,
             (-2j / (r * L ** 2))[:, None, None] * np.diag([-1.0, 1.0]),
             (-(L + 2.0) / (w * r * L ** 2))[:, None, None] * N)):
        pair = hitchin_model(params, TORUS)
        (b, q), (db, dq) = pair.evaluate(pts), pair.derivative(pts)
        for got, want in ((b[:, 0], np.zeros((2, 2))), (b[:, 1], b_th),
                          (q, psi), (db[:, 0, 1], db_th), (dq[:, 0], dpsi)):
            scale = 1.0 + np.max(np.abs(want))
            assert np.max(np.abs(from_vector(got) - want)) \
                <= 1e-15 * scale
