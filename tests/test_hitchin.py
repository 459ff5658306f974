"""Tests for the plane reduction of torus-invariant connections, the
Hitchin residual."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ipl.gauge import asd_residual
from ipl.hitchin import hitchin_residual, lift
from ipl.geometry import TorusSpec
from ipl.models import ModelParams, hitchin_model, model_connection, perturb

from conftest import NotTorusInvariantError, reduce

TORUS = TorusSpec()


def plane_points(rng, n, r_lo=5.0, r_hi=200.0):
    pts = np.empty((n, 2))
    pts[:, 0] = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=n))
    pts[:, 1] = rng.uniform(0, 2 * math.pi, size=n)
    return pts


def test_reduce_recovers_model_pair():
    params = ModelParams(lam=0.1 - 0.03j, mu=0.5 + 0.2j, alpha=0.15)
    conn = model_connection(params, TORUS)
    direct = hitchin_model(params, TORUS)
    pair = reduce(conn)
    pts = plane_points(np.random.default_rng(0), 12)
    for got, want in zip(pair.evaluate(pts), direct.evaluate(pts)):
        assert np.max(np.abs(got - want)) < 1e-12


def test_lift_reduce_round_trip():
    params = ModelParams(lam=0.07j, mu=0.3, alpha=-0.2)
    pair = hitchin_model(params, TORUS)
    conn = lift(pair)
    back = reduce(conn)
    pts = plane_points(np.random.default_rng(1), 10)
    # (b, q) then (db, dq): su(2) vectors b and sl(2, C) vectors q
    got = back.evaluate(pts) + back.derivative(pts)
    want = pair.evaluate(pts) + pair.derivative(pts)
    shapes = [(10, 2, 3), (10, 3), (10, 2, 2, 3), (10, 2, 3)]
    dtypes = [float, complex, float, complex]
    assert [t.shape for t in got] == shapes
    assert [t.shape for t in want] == shapes
    assert [t.dtype for t in got] == [t.dtype for t in want] == dtypes
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < 1e-12


def test_reduce_rejects_torus_dependent_connection():
    conn = perturb(model_connection(ModelParams(mu=1.0), TORUS),
                   delta=0.5, amplitude=0.5, seed=3, r_lo=5.0, r_hi=100.0)
    with pytest.raises(NotTorusInvariantError):
        reduce(conn)


def test_hitchin_residual_vanishes_on_models():
    rng = np.random.default_rng(2)
    for params in (ModelParams(lam=0.1, mu=0.4 - 0.2j, alpha=0.25),
                   ModelParams(kind="nilpotent")):
        pair = hitchin_model(params, TORUS)
        r_lo = max(5.0, pair.r_min * 1.5)
        pts = plane_points(rng, 20, r_lo=r_lo, r_hi=500.0)
        rho1, rho2 = hitchin_residual(pair, pts)
        assert np.max(rho1) < 1e-10
        assert np.max(rho2) < 1e-10


def doubled_nilpotent(torus):
    """The nilpotent pair with psi scaled by 2: [psi, psi^dag] quadruples
    while F_B stays, so rho1 > 0 and rho2 = 0."""
    good = hitchin_model(ModelParams(kind="nilpotent"), torus)

    def evaluate(points):
        b, q = good.evaluate(points)
        return b, 2.0 * q

    def derivative(points):
        db, dq = good.derivative(points)
        return db, 2.0 * dq

    return replace(good, evaluate=evaluate, derivative=derivative)


def wbar_semisimple(torus, eps=0.01):
    """A semisimple pair plus eps wbar sigma3 in psi, -i eps wbar e3 in q:
    D_wbar psi = eps sigma3, so rho2 > 0, and psi stays normal, so
    rho1 = 0."""
    good = hitchin_model(ModelParams(lam=0.1 - 0.05j, mu=0.3 + 0.2j,
                                     alpha=0.2), torus)

    def evaluate(points):
        b, q = good.evaluate(points)
        wbar = points[..., 0] * np.exp(-1j * points[..., 1])
        q[..., 2] += -1j * eps * wbar
        return b, q

    def derivative(points):
        # d_r wbar = e^{-i theta}, d_theta wbar = -i wbar
        db, dq = good.derivative(points)
        wbar = points[..., 0] * np.exp(-1j * points[..., 1])
        coef = np.stack([wbar / points[..., 0], -1j * wbar], axis=-1)
        dq[..., 2] += -1j * eps * coef
        return db, dq

    return replace(good, evaluate=evaluate, derivative=derivative)


def test_hitchin_residual_detects_wrong_pair():
    # scaling a non-normal Higgs field quadruples [psi, psi*] while leaving
    # the curvature side fixed, so the moment-map residual must light up
    good = hitchin_model(ModelParams(kind="nilpotent"), TORUS)
    bad = doubled_nilpotent(TORUS)
    pts = plane_points(np.random.default_rng(3), 8, r_lo=6.0, r_hi=60.0)
    rho1, _ = hitchin_residual(bad, pts)
    good_rho1, _ = hitchin_residual(good, pts)
    assert np.max(rho1) > 100.0 * max(np.max(good_rho1), 1e-15)


@pytest.mark.parametrize("torus", [TorusSpec(), TorusSpec(4.0, 7.0)],
                         ids=["2pi", "4x7"])
@pytest.mark.parametrize("make, live", [(doubled_nilpotent, 0),
                                        (wbar_semisimple, 1)],
                         ids=["rho1", "rho2"])
def test_reduction_identity_on_non_asd_pairs(torus, make, live):
    # |F^+|^2 = rho1^2 / 2 + 2 rho2^2 pointwise (the module docstring); the
    # left side reads the lift's table of partials through gauge.curvature,
    # the right side the pair's tables through hitchin_residual
    pair = make(torus)
    rng = np.random.default_rng(4)
    pts = np.column_stack([plane_points(rng, 30, r_lo=6.0, r_hi=60.0),
                           rng.uniform(0.0, torus.period_x, 30),
                           rng.uniform(0.0, torus.period_y, 30)])
    lhs = asd_residual(lift(pair), pts) ** 2
    rho = hitchin_residual(pair, pts[:, :2])
    rhs = rho[0] ** 2 / 2.0 + 2.0 * rho[1] ** 2
    assert np.min(rho[live]) > 1e-6 and np.max(rho[1 - live]) < 1e-12
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_hitchin_residual_reads_each_table_once():
    pair = hitchin_model(ModelParams(kind="nilpotent"), TORUS)
    calls = {"evaluate": 0, "derivative": 0}

    def counted(name):
        fn = getattr(pair, name)

        def wrapper(points):
            calls[name] += 1
            return fn(points)
        return wrapper

    pair = replace(pair, evaluate=counted("evaluate"),
                   derivative=counted("derivative"))
    hitchin_residual(pair, plane_points(np.random.default_rng(5), 9))
    assert calls == {"evaluate": 1, "derivative": 1}
