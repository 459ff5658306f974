"""Tests for the plane reduction of torus-invariant connections, the
Hitchin residual."""

import math

import numpy as np
import pytest

from ipl.hitchin import (
    NotTorusInvariantError,
    hitchin_residual,
    lift,
    reduce,
)
from ipl.geometry import TorusSpec
from ipl.models import ModelParams, hitchin_model, model_connection, perturb

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
    assert np.max(np.abs(pair.evaluate_b(pts) - direct.evaluate_b(pts))) < 1e-12
    assert np.max(np.abs(pair.evaluate_psi(pts) - direct.evaluate_psi(pts))) < 1e-12


def test_lift_reduce_round_trip():
    params = ModelParams(lam=0.07j, mu=0.3, alpha=-0.2)
    pair = hitchin_model(params, TORUS)
    conn = lift(pair)
    back = reduce(conn)
    pts = plane_points(np.random.default_rng(1), 10)
    assert np.max(np.abs(back.evaluate_b(pts) - pair.evaluate_b(pts))) < 1e-12
    assert np.max(np.abs(back.evaluate_psi(pts) - pair.evaluate_psi(pts))) < 1e-12
    for axis in (0, 1):
        assert np.max(np.abs(back.derivative_b(pts, axis)
                             - pair.derivative_b(pts, axis))) < 1e-12
        assert np.max(np.abs(back.derivative_psi(pts, axis)
                             - pair.derivative_psi(pts, axis))) < 1e-12


def test_reduce_rejects_torus_dependent_connection():
    conn = perturb(model_connection(ModelParams(mu=1.0), TORUS),
                   amplitude=0.5, seed=3, r_lo=5.0, r_hi=100.0, max_mode=2)
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


def test_hitchin_residual_detects_wrong_pair():
    # scaling a non-normal Higgs field quadruples [psi, psi*] while leaving
    # the curvature side fixed, so the moment-map residual must light up
    good = hitchin_model(ModelParams(kind="nilpotent"), TORUS)

    def bad_psi(points):
        return 2.0 * good.evaluate_psi(points)

    from ipl.hitchin import HiggsPairOnPlane
    bad = HiggsPairOnPlane(evaluate_b=good.evaluate_b, evaluate_psi=bad_psi,
                           derivative_b=good.derivative_b,
                           derivative_psi=None, torus=TORUS,
                           r_min=good.r_min)
    pts = plane_points(np.random.default_rng(3), 8, r_lo=6.0, r_hi=60.0)
    rho1, _ = hitchin_residual(bad, pts)
    good_rho1, _ = hitchin_residual(good, pts)
    assert np.max(rho1) > 100.0 * max(np.max(good_rho1), 1e-15)

