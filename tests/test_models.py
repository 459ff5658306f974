"""Tests for the closed-form model connections: exact anti-self-duality,
curvature magnitudes against hand-derived formulas, parameter plumbing,
and the decaying perturbation's pointwise bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipl.gauge import asd_residual, curvature, curvature_norm, self_dual_part
from ipl.geometry import TorusSpec
from ipl.models import (
    ModelParams,
    _angular,
    _perturb_shells,
    _radial,
    hitchin_model,
    model_connection,
    perturb,
)

TORUS = TorusSpec()
NILPOTENT = ModelParams(kind="nilpotent")


def rand_points(rng, n, r_lo, r_hi):
    pts = np.empty((n, 4))
    pts[:, 0] = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=n))
    pts[:, 1] = rng.uniform(0, 2 * math.pi, size=n)
    pts[:, 2] = rng.uniform(0, TORUS.period_x, size=n)
    pts[:, 3] = rng.uniform(0, TORUS.period_y, size=n)
    return pts


def test_params_validation_and_json():
    with pytest.raises(ValueError):
        ModelParams(alpha=0.5)
    with pytest.raises(ValueError):
        ModelParams(kind="other")
    for field in ({"lam": 0.1j}, {"mu": 1.0}, {"alpha": 0.25}):
        with pytest.raises(ValueError):
            ModelParams(kind="nilpotent", **field)
    p = ModelParams(lam=0.1 - 0.2j, mu=0.3 + 0.4j, alpha=-0.25,
                    kind="semisimple")
    assert p.to_json() == {"lambda": [0.1, -0.2], "mu": [0.3, 0.4],
                           "alpha": -0.25, "kind": "semisimple"}


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
    sample = curvature(conn, pts)
    assert np.max(np.abs(self_dual_part(sample))) < 1e-13
    fh = sample.unit_frame()
    d1 = 0.5 * (fh[:, 0, 0, 0] - fh[:, 5, 0, 0])
    d2 = 0.5 * (fh[:, 1, 0, 0] + fh[:, 4, 0, 0])
    d3 = 0.5 * (fh[:, 2, 0, 0] - fh[:, 3, 0, 0])
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
    dev = np.abs(conn.evaluate(pts) - base.evaluate(pts))
    bound = amplitude * pts[:, 0] ** (-(1.0 + delta))
    assert np.all(np.max(dev, axis=(-3, -2, -1)) <= bound + 1e-15)


def dense_perturbed(base, points, axis, delta, amplitude, seed, r_lo, r_hi):
    """Reference for `perturb`: all 24 terms added at every point, with no
    support test (axis None: the connection, else its axis derivative)."""
    out = np.array(base.evaluate(points) if axis is None
                   else base.derivative(points, axis), copy=True)
    r = points[..., 0]
    for shell in _perturb_shells(seed, r_lo, r_hi):
        u = (r - shell.center) / shell.width
        g, dg = _radial(r, u, shell.width, delta, want_deriv=True)
        for term in shell.terms:
            if axis is None:
                coef = g * _angular(points, term, TORUS)
            elif axis == 0:
                coef = dg * _angular(points, term, TORUS)
            else:
                coef = g * _angular(points, term, TORUS, want_derivs=True)[axis]
            out[..., term.component, :, :] += (
                amplitude / 2.0 * coef[..., None, None] * term.matrix)
    return out


def same_bits(a, b):
    """Bitwise equality of two complex arrays, the sign of a zero aside
    (adding +0.0 maps -0.0 to +0.0 and leaves every other value alone)."""
    return a.shape == b.shape and np.array_equal(
        (a + 0.0).view(np.uint64), (b + 0.0).view(np.uint64))


@given(seed=st.integers(0, 10 ** 6),
       radii=st.lists(st.one_of(st.sampled_from(("edge-", "edge+", "centre")),
                                st.floats(2.0, 900.0)),
                      min_size=1, max_size=24),
       shell=st.integers(0, 5), batch_2d=st.booleans())
@settings(max_examples=40, deadline=None)
def test_masked_perturbation_matches_dense_sum(seed, radii, shell, batch_2d):
    # each term is exactly zero off its support, so evaluating a shell only
    # on the points inside it must reproduce the all-terms sum bit for bit,
    # including at r = centre +- width where the support test decides
    delta, amplitude, r_lo, r_hi = 0.5, 0.05, 5.0, 600.0
    sh = _perturb_shells(seed, r_lo, r_hi)[shell]
    rs = []
    for v in radii:
        if v == "edge-":
            v = sh.center - sh.width
        elif v == "edge+":
            v = sh.center + sh.width
        elif v == "centre":
            v = sh.center
        rs.extend([np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)])
    rng = np.random.default_rng(seed)
    pts = np.stack([np.array(rs), rng.uniform(0.0, 2 * math.pi, len(rs)),
                    rng.uniform(0.0, TORUS.period_x, len(rs)),
                    rng.uniform(0.0, TORUS.period_y, len(rs))], axis=-1)
    if batch_2d:
        pts = pts.reshape(3, -1, 4)
    base = model_connection(ModelParams(lam=0.1 - 0.05j, mu=0.3 + 0.2j,
                                        alpha=0.25), TORUS)
    conn = perturb(base, delta=delta, amplitude=amplitude, seed=seed,
                   r_lo=r_lo, r_hi=r_hi)
    for axis in (None, 0, 1, 2, 3):
        got = conn.evaluate(pts) if axis is None else conn.derivative(pts, axis)
        ref = dense_perturbed(base, pts, axis, delta, amplitude, seed, r_lo, r_hi)
        assert same_bits(got, ref), axis


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
        conn = perturb(conn, amplitude=0.3, seed=9, r_lo=5.0, r_hi=100.0)
    pts = rand_points(np.random.default_rng(5), 12, 6.0, 90.0)
    h = 1e-5
    for axis in range(4):
        shift = np.zeros(4)
        shift[axis] = h
        fd = (conn.evaluate(pts + shift) - conn.evaluate(pts - shift)) / (2 * h)
        exact = conn.derivative(pts, axis)
        assert np.max(np.abs(fd - exact)) < 1e-8, axis


def test_hitchin_model_matches_connection_reduction():
    params = ModelParams(lam=0.1, mu=0.4 + 0.1j, alpha=0.2)
    pair = hitchin_model(params, TORUS)
    conn = model_connection(params, TORUS)
    pts4 = rand_points(np.random.default_rng(6), 10, 5.0, 100.0)
    a = conn.evaluate(pts4)
    psi = pair.evaluate_psi(pts4[:, :2])
    # reduction convention: psi_w = (a_y - i a_x) / 2
    assert np.max(np.abs((a[:, 3] - 1j * a[:, 2]) / 2.0 - psi)) < 1e-12
