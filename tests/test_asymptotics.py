"""Tests for asymptotic-invariant extraction: flat limits, limiting
holonomy, residue fits, the shared holonomy table, decay exponents, the
curvature energy, and the twisted Poincare constant."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipl import _su2
from ipl.asymptotics import (
    ExtractionError,
    asymptotic_states,
    decay_exponent,
    extract_invariants,
    flat_limit,
    holonomy_table,
    instanton_number,
    limiting_holonomy,
    poincare_constant,
    principal_alpha,
    residue,
    roundtrip_errors,
)
from ipl.gauge import (AXES, LOOP_STEPS, ConnectionSource, DomainError,
                       _path_ordered_product, circle_paths, flat_connection)
from ipl.geometry import TWO_PI, TorusSpec, reduce_dual
from ipl.models import ModelParams, model_connection, perturb

from conftest import as_matrix, from_vector, to_vector

TORUS = TorusSpec()
RINGS = (50.0, 100.0, 200.0, 400.0)


def test_flat_limit_needs_four_rings():
    conn = model_connection(ModelParams(mu=1.0), TORUS)
    with pytest.raises(ValueError):
        holonomy_table(conn, (50.0, 100.0, 200.0))


def test_flat_limit_of_flat_connection():
    xi = reduce_dual((0.3, 0.2), TORUS)
    conn = flat_connection(xi, TORUS)
    fl = flat_limit(holonomy_table(conn, RINGS))
    assert fl.drift < 1e-10
    states = asymptotic_states(fl.xi)
    assert states.xi0.xi1 == pytest.approx(0.3, abs=1e-9)
    assert states.xi0.xi2 == pytest.approx(0.2, abs=1e-9)
    assert not states.order_two


def test_branch_canonicalization_flips_above_half():
    # xi = (0, 0.7): the first nonzero component exceeds 1/2, so the
    # canonical representative is the sign-flipped (0, 0.3)
    states = asymptotic_states(reduce_dual((0.0, 0.7), TORUS))
    assert states.flipped
    assert states.xi0.xi1 == pytest.approx(0.0, abs=1e-12)
    assert states.xi0.xi2 == pytest.approx(0.3, abs=1e-12)

    states2 = asymptotic_states(reduce_dual((0.2, 0.9), TORUS))
    assert not states2.flipped
    assert states2.xi0.xi1 == pytest.approx(0.2, abs=1e-12)


def test_order_two_detection():
    assert asymptotic_states(reduce_dual((0.0, 0.0), TORUS)).order_two
    assert asymptotic_states(reduce_dual((1.0, 0.0), TORUS)).order_two
    assert not asymptotic_states(reduce_dual((0.4, 0.0), TORUS)).order_two


def test_limiting_holonomy_of_model():
    alpha = 0.2
    conn = model_connection(ModelParams(lam=0.1, mu=0.5, alpha=alpha), TORUS)
    table = holonomy_table(conn, RINGS)
    got = limiting_holonomy(table, flat_limit(table).axis, kind="semisimple")
    assert abs(got) == pytest.approx(alpha, abs=1e-9)


def test_residue_fit_recovers_lambda_and_mu():
    lam, mu = 0.1 - 0.07j, 0.3 + 0.2j
    conn = model_connection(ModelParams(lam=lam, mu=mu, alpha=0.2), TORUS)
    table = holonomy_table(conn, RINGS)
    mu_hat, diag = residue(table, flat_limit(table))
    assert abs(abs(mu_hat) - abs(mu)) < 1e-10
    assert abs(abs(diag["lambda_hat"]) - abs(lam)) < 1e-10
    assert diag["max_residual"] < 1e-8


def test_extract_invariants_round_trip_semisimple():
    p = ModelParams(lam=0.1 - 0.07j, mu=0.3 + 0.2j, alpha=0.2)
    inv = extract_invariants(model_connection(p, TORUS), RINGS)
    assert inv.kind == "semisimple"
    # (lambda1, lambda2) = (0.2, -0.14): reduced exponents (0.2, 0.86),
    # no flip
    assert not inv.diagnostics["branch_flipped"]
    assert inv.xi0.xi1 == pytest.approx(0.2, abs=1e-9)
    assert inv.xi0.xi2 == pytest.approx(0.86, abs=1e-9)
    assert inv.alpha == pytest.approx(0.2, abs=1e-9)
    assert abs(inv.mu - p.mu) < 1e-9
    lam_hat = inv.diagnostics["residue_fit"]["lambda_hat"]
    assert isinstance(lam_hat, complex)
    assert abs(lam_hat - p.lam) < 1e-9


def test_extract_invariants_flipped_branch_negates_alpha_and_mu():
    # (lambda1, lambda2) = (0, 0.7) reduces above 1/2: extraction must
    # report the canonical branch with alpha and mu jointly negated
    p = ModelParams(lam=0.35j, mu=0.3, alpha=0.2)
    inv = extract_invariants(model_connection(p, TORUS), RINGS)
    assert inv.diagnostics["branch_flipped"]
    assert inv.xi0.xi2 == pytest.approx(0.3, abs=1e-9)
    assert inv.alpha == pytest.approx(-0.2, abs=1e-9)
    assert abs(inv.mu + p.mu) < 1e-9


def test_extract_invariants_nilpotent():
    conn = model_connection(ModelParams(kind="nilpotent"), TORUS)
    inv = extract_invariants(conn, RINGS)
    assert inv.kind == "nilpotent"
    assert inv.diagnostics["order_two"]
    assert abs(inv.alpha) < 1e-9
    assert inv.mu == 0.0
    assert inv.xi0.xi1 == pytest.approx(0.0, abs=1e-9)
    assert inv.xi0.xi2 == pytest.approx(0.0, abs=1e-9)


def test_kind_detection_not_fooled_by_flat_model():
    inv = extract_invariants(model_connection(ModelParams(), TORUS), RINGS)
    assert inv.kind == "semisimple"


def test_principal_alpha_cut():
    assert principal_alpha(0.5) == -0.5
    assert principal_alpha(0.5 - 1e-13) == -0.5
    assert principal_alpha(-0.5) == -0.5
    assert principal_alpha(-0.5 - 1e-16) == -0.5
    assert principal_alpha(0.4999) == pytest.approx(0.4999, abs=1e-15)
    assert principal_alpha(0.75) == pytest.approx(-0.25, abs=1e-15)
    # a zero is +0.0, also the -0.0 the branch flip principal_alpha(-alpha)
    # passes at alpha = 0
    for alpha in (-0.0, 0.0, -1.0, 1.0, -3.0):
        assert math.copysign(1.0, principal_alpha(alpha)) == 1.0


def test_alpha_at_cut_survives_branch_flip():
    # (lambda1, lambda2) = (-0.1, 0.14) flips the branch; alpha = -1/2
    # negates to the cut +1/2 and must come back as -1/2, not
    # +0.4999999999999999
    for mu in (0.0, 0.3 - 0.2j):
        p = ModelParams(lam=-0.05 + 0.07j, mu=mu, alpha=-0.5)
        inv = extract_invariants(model_connection(p, TORUS), RINGS)
        assert inv.diagnostics["branch_flipped"]
        assert inv.alpha == -0.5
        assert abs(inv.mu + p.mu) < 1e-9


def test_holonomy_table_entries_are_circle_holonomies():
    # a perturbed model, so the loops carry non-commuting, base-dependent
    # holonomies; each table entry is its own loop's circle holonomy
    conn = perturb(model_connection(ModelParams(lam=0.1 - 0.07j, mu=0.3 + 0.2j,
                                                alpha=0.2), TORUS),
                   delta=0.5, amplitude=0.3, seed=4, r_lo=5.0, r_hi=600.0)
    _assert_entries_are_circle_holonomies(conn)
    # a perturbation of it has an along_circle too, not constant along its
    # circles; a bare connection of its callables has none, so every loop
    # of its table is sampled
    _assert_entries_are_circle_holonomies(
        perturb(conn, delta=0.7, amplitude=0.1, seed=9, r_lo=20.0,
                r_hi=900.0))
    _assert_entries_are_circle_holonomies(
        ConnectionSource(evaluate=conn.evaluate, derivative=conn.derivative,
                         torus=TORUS, r_min=conn.r_min))


@pytest.mark.parametrize("params,torus,r_lo,r_hi", [
    (ModelParams(lam=0.1 - 0.07j, mu=0.3 + 0.2j, alpha=0.2),
     TorusSpec(4.0, 7.0), 5.0, 600.0),
    (ModelParams(kind="nilpotent"), TORUS, 5.0, 600.0),
    # shells from r = 40 to 500 put the term on every ring's x/y loops;
    # with 5 to 600, ring 50 lies in no shell's support
    (ModelParams(lam=0.1 - 0.07j, mu=0.3 + 0.2j, alpha=0.2),
     TorusSpec(4.0, 7.0), 40.0, 500.0),
], ids=["semisimple-4-x-7", "nilpotent-2pi-x-2pi", "every-ring-4-x-7"])
def test_perturbed_table_entries_are_circle_holonomies(params, torus, r_lo,
                                                       r_hi):
    conn = perturb(model_connection(params, torus), delta=0.5, amplitude=0.3,
                   seed=4, r_lo=r_lo, r_hi=r_hi)
    _assert_entries_are_circle_holonomies(conn)


def _loop_vectors(conn, kind, bases):
    """Rotation vectors of the circles of one kind through bases by the
    LOOP_STEPS path-ordered product, whichever route the table takes."""
    return _su2.log_su2(_path_ordered_product(
        conn, *circle_paths(conn.torus, kind, np.array(bases), LOOP_STEPS)))


def _assert_entries_are_circle_holonomies(conn):
    """Every entry of conn's table on RINGS equals, bit for bit, the
    rotation vector of its own loop's LOOP_STEPS path-ordered product."""
    torus = conn.torus
    table = holonomy_table(conn, RINGS)
    ths = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
    half_x, half_y = torus.period_x / 2.0, torus.period_y / 2.0

    def hol(kind, r, th, x=0.0, y=0.0):
        return _loop_vectors(conn, kind, [[r, th, x, y]])[0]

    assert table.rings == RINGS and table.torus == torus
    assert np.array_equal(table.thetas, ths)
    assert table.x.shape == table.y.shape == (4, 24, 3)
    assert table.x_half.shape == table.y_half.shape == (4, 8, 3)
    assert table.theta.shape == (4, 3)
    assert table.axis_theta.shape == (8, 3)
    for j, r in enumerate(RINGS):
        assert np.array_equal(table.theta[j], hol("theta", r, 0.0))
        for i, th in enumerate(ths):
            assert np.array_equal(table.x[j, i], hol("x", r, th))
            assert np.array_equal(table.y[j, i], hol("y", r, th))
        for i, th in enumerate(ths[::3]):
            assert np.array_equal(table.x_half[j, i], hol("x", r, th, y=half_y))
            assert np.array_equal(table.y_half[j, i], hol("y", r, th, x=half_x))
    for i, th in enumerate(ths[::3]):
        assert np.array_equal(table.axis_theta[i], hol("theta", RINGS[-1], th))


def test_perturbed_table_reads_its_base_once_per_xy_loop():
    base = model_connection(ModelParams(lam=0.1 - 0.07j, mu=0.3 + 0.2j,
                                        alpha=0.2), TORUS)
    read = []
    base_evaluate = base.evaluate

    def counted(points):
        read.append(math.prod(np.shape(points)[:-1]))
        return base_evaluate(points)

    base.evaluate = counted
    conn = perturb(base, delta=0.5, amplitude=0.3, seed=4, r_lo=5.0,
                   r_hi=600.0)
    holonomy_table(conn, RINGS)
    # the 256 x/y loops read the base at their base points alone; the 12
    # theta loops read it, through the perturbation, at all their nodes
    assert sum(read) == 256 + 12 * 2 * LOOP_STEPS == 832


def _reader_shape(conn, kind="x"):
    """Shape of conn's along_circle on the LOOP_STEPS nodes of two circles
    of that kind: (LOOP_STEPS, 2, 2, 3), or (2, 3) when it is
    constant along every circle."""
    bases = np.array([[RINGS[0], 0.3, 0.0, 0.0], [RINGS[-1], 1.1, 0.5, 0.5]])
    nodes = circle_paths(conn.torus, kind, bases, LOOP_STEPS)[0]
    coords = nodes[:, :, 0, {"x": 2, "y": 3}[kind]]
    return conn.along_circle(kind, bases, coords).shape


def test_only_a_torus_invariant_base_is_split_out():
    # the base's along_circle, constant along each circle, broadcast over
    # the loop's nodes, plus the term must be the connection's along-loop
    # component at every node; shells from r = 40 to 500 reach every ring
    ths = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
    for torus in (TORUS, TorusSpec(4.0, 7.0)):
        half_x, half_y = torus.period_x / 2.0, torus.period_y / 2.0
        for params in (ModelParams(lam=0.1 - 0.07j, mu=0.3 + 0.2j,
                                   alpha=0.2), ModelParams(kind="nilpotent")):
            base = model_connection(params, torus)
            conn = perturb(base, delta=0.5, amplitude=0.3, seed=4, r_lo=40.0,
                           r_hi=500.0)
            for kind, comp, x, y, step in (("x", 2, 0.0, 0.0, 1),
                                           ("y", 3, 0.0, 0.0, 1),
                                           ("x", 2, 0.0, half_y, 3),
                                           ("y", 3, half_x, 0.0, 3)):
                bases = np.array([[r, th, x, y] for r in RINGS
                                  for th in ths[::step]])
                nodes = circle_paths(torus, kind, bases, LOOP_STEPS)[0]
                coords = nodes[:, :, 0, comp]
                assert np.array_equal(base.along_circle(kind, bases, coords),
                                      base.evaluate(bases)[:, comp])
                out = conn.along_circle(kind, bases, coords)
                assert out.shape == nodes.shape[:-1] + (3,)
                assert out.flags.writeable
                assert np.array_equal(out, conn.evaluate(nodes)[..., comp, :])
    clean = model_connection(ModelParams(mu=1.0), TORUS)
    once = perturb(clean, delta=0.5, amplitude=0.3, seed=1, r_lo=5.0,
                   r_hi=600.0)
    # a perturbation of a perturbation reads its base's along_circle too
    assert _reader_shape(perturb(once, delta=0.5, amplitude=0.05, seed=2,
                                 r_lo=5.0, r_hi=600.0)) \
        == (LOOP_STEPS, 2, 2, 3)
    assert ConnectionSource(evaluate=once.evaluate,
                            derivative=once.derivative,
                            torus=TORUS).along_circle is None
    assert _reader_shape(once) == (LOOP_STEPS, 2, 2, 3)
    assert _reader_shape(clean) == (2, 3)


def _invariant_connections(torus):
    """A clean semisimple model, the clean nilpotent model and a flat
    connection on torus: each is constant along its x- and y-circles."""
    return [model_connection(ModelParams(lam=0.1 - 0.07j, mu=0.3 + 0.2j,
                                         alpha=0.2), torus),
            model_connection(ModelParams(kind="nilpotent"), torus),
            flat_connection(reduce_dual((0.3, 0.2), torus), torus)]


@pytest.mark.parametrize("torus", [TORUS, TorusSpec(4.0, 7.0)],
                         ids=["2pi-x-2pi", "4-x-7"])
def test_closed_form_loops_equal_the_sampler(torus):
    # a torus-invariant connection's x/y loops are exp(-L a) at the base,
    # not sampled: each rotation vector must equal the LOOP_STEPS product's
    # to rounding, and the theta loops' must still be that product's itself
    ths = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
    half_x, half_y = torus.period_x / 2.0, torus.period_y / 2.0
    for conn in _invariant_connections(torus):
        assert _reader_shape(conn, "x") == _reader_shape(conn, "y") \
            == (2, 3)
        table = holonomy_table(conn, RINGS)

        def hol(kind, bases):
            return _loop_vectors(conn, kind, bases)

        full = [[r, th, 0.0, 0.0] for r in RINGS for th in ths]
        for field, kind, bases in (
                (table.x, "x", full), (table.y, "y", full),
                (table.x_half, "x",
                 [[r, th, 0.0, half_y] for r in RINGS for th in ths[::3]]),
                (table.y_half, "y",
                 [[r, th, half_x, 0.0] for r in RINGS for th in ths[::3]])):
            ref = hol(kind, bases).reshape(field.shape)
            assert np.max(np.abs(field - ref)) < 1e-14, conn.name
        assert np.array_equal(
            table.theta, hol("theta", [[r, 0.0, 0.0, 0.0] for r in RINGS]))
        assert np.array_equal(
            table.axis_theta,
            hol("theta", [[RINGS[-1], th, 0.0, 0.0] for th in ths[::3]]))


def test_only_invariant_constructors_declare_torus_invariance():
    conn = model_connection(ModelParams(mu=1.0), TORUS)
    assert _reader_shape(conn) == (2, 3)
    assert _reader_shape(flat_connection(reduce_dual((0.3, 0.2), TORUS),
                                         TORUS)) == (2, 3)
    assert _reader_shape(perturb(conn, delta=0.5, amplitude=0.05, seed=1,
                                 r_lo=5.0, r_hi=600.0)) \
        == (LOOP_STEPS, 2, 2, 3)
    assert ConnectionSource(evaluate=conn.evaluate,
                            derivative=conn.derivative,
                            torus=TORUS).along_circle is None


def test_closed_form_table_checks_the_domain():
    conn = model_connection(ModelParams(mu=1.0), TORUS)
    assert _reader_shape(conn) == (2, 3)
    with pytest.raises(DomainError, match="r_min"):
        holonomy_table(conn, (conn.r_min / 2.0, 100.0, 200.0, 400.0))


def test_perturbed_table_checks_the_domain():
    # ring 1 is below the nilpotent model's r_min, where its ln r^2 is 0:
    # a base read before the domain check would divide by zero there
    conn = perturb(model_connection(ModelParams(kind="nilpotent"), TORUS),
                   delta=0.5, amplitude=0.3, seed=4, r_lo=5.0, r_hi=600.0)
    assert conn.along_circle is not None
    with pytest.raises(DomainError, match="r_min"):
        holonomy_table(conn, (1.0, 100.0, 200.0, 400.0))


# the 9 of the 27 clean round-trip models (configs/invariants_roundtrip.json)
# whose grid indices sum to a multiple of 3
CLEAN_GRID = [
    (lam, mu, alpha)
    for i, lam in enumerate((0.0, 0.1, -0.05 + 0.07j))
    for j, mu in enumerate((0.0, 1.0, 0.3 - 0.2j))
    for k, alpha in enumerate((-0.25, 0.0, 0.25)) if (i + j + k) % 3 == 0]


@pytest.mark.parametrize("lam,mu,alpha", CLEAN_GRID)
def test_extraction_matches_public_fits(lam, mu, alpha):
    # the extraction must give what the public fits give on one table
    conn = model_connection(ModelParams(lam=lam, mu=mu, alpha=alpha), TORUS)
    inv = extract_invariants(conn, RINGS)
    table = holonomy_table(conn, RINGS)
    fl = flat_limit(table)
    states = asymptotic_states(fl.xi)
    a = limiting_holonomy(table, fl.axis, kind="semisimple")
    m, diag = residue(table, fl)
    lam_hat = diag["lambda_hat"]
    if states.flipped:
        lam_hat, a, m = -lam_hat, principal_alpha(-a), -m
    assert inv.kind == "semisimple"
    assert (inv.xi0.xi1, inv.xi0.xi2) == (states.xi0.xi1, states.xi0.xi2)
    assert inv.alpha == a
    assert inv.mu == m
    assert inv.diagnostics["residue_fit"]["lambda_hat"] == lam_hat


def _gauge_rotation(w):
    """The rotation R of su(2) vectors that conjugation by the constant
    SU(2) element g = exp(i w.sigma) is: g (i v.sigma) g^-1 = i (R v).sigma,
    read column by column from the matrices."""
    g = as_matrix(_su2.expm_su2(w))
    return np.stack([to_vector(g @ from_vector(e) @ np.conj(g.T))
                     for e in np.eye(3)], axis=-1)


def _conjugated(conn, R):
    """conn in the gauge of a constant SU(2) element with rotation R: every
    component, partial and along-circle value turned by R."""
    along = conn.along_circle
    return ConnectionSource(
        evaluate=lambda pts: conn.evaluate(pts) @ R.T,
        derivative=lambda pts, axes=AXES: conn.derivative(pts, axes) @ R.T,
        torus=conn.torus, r_min=conn.r_min, name=conn.name,
        along_circle=lambda kind, bases, coords:
            along(kind, bases, coords) @ R.T)


def _frame_draws(n):
    """n clean semisimple models, each with one gauge: lambda in
    [-1/4, 1/4]^2, mu in [-1, 1]^2, alpha = -1/2 or uniform in
    [-0.45, 0.45] with equal odds, and g = exp(i w.sigma) for a normal w."""
    rng = np.random.default_rng(1)
    draws = []
    for k in range(n):
        lam = complex(*rng.uniform(-0.25, 0.25, 2))
        mu = complex(*rng.uniform(-1.0, 1.0, 2))
        alpha = -0.5 if rng.random() < 0.5 else float(rng.uniform(-0.45,
                                                                  0.45))
        marks = [pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 1: at alpha = -1/2 the theta holonomies are near "
            "-I, whose rotation axis is arbitrary"))] if alpha == -0.5 else []
        draws.append(pytest.param(ModelParams(lam=lam, mu=mu, alpha=alpha),
                                  rng.normal(size=3), marks=marks,
                                  id=f"{k}-alpha-{alpha:+.2f}"))
    return draws


@pytest.mark.parametrize("p, w", _frame_draws(60))
def test_extraction_does_not_depend_on_a_constant_gauge(p, w):
    # (xi0, alpha, mu) and lambda_hat are gauge invariants: extracted in
    # the model's own frame and after conjugation by a constant SU(2)
    # element, each scores within 1e-9 and 1e-6 of the model; lambda_hat
    # is reported in the branch of (xi0, alpha, mu) in both frames
    conn = model_connection(p, TORUS)
    R = _gauge_rotation(w)
    assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-14
    for frame, tol in ((conn, 1e-9), (_conjugated(conn, R), 1e-6)):
        errs = roundtrip_errors(p, extract_invariants(frame, RINGS), TORUS)
        assert errs.pop("kind_ok")
        assert max(errs.values()) <= tol, errs


def test_decay_exponent_semisimple():
    conn = model_connection(ModelParams(mu=1.0), TORUS)
    fit = decay_exponent(conn, np.geomspace(20.0, 500.0, 8),
                         kind="semisimple")
    assert fit["gamma"] == pytest.approx(-2.0, abs=1e-9)
    assert fit["monotone"]


def test_decay_exponent_nilpotent_log_power():
    conn = model_connection(ModelParams(kind="nilpotent"), TORUS)
    rings = np.geomspace(math.e ** 2, math.e ** 6, 10)
    fit = decay_exponent(conn, rings, kind="nilpotent")
    assert fit["gamma"] == pytest.approx(-2.0, abs=1e-9)
    assert fit["log_power"] == pytest.approx(-2.0, abs=1e-9)


def test_decay_exponent_flat_connection_sentinel():
    conn = flat_connection(reduce_dual((0.3, 0.2), TORUS), TORUS)
    for kind in ("semisimple", "nilpotent"):
        fit = decay_exponent(conn, np.geomspace(20.0, 500.0, 8), kind=kind)
        assert fit["gamma"] == -math.inf


def test_every_kind_keyed_fit_rejects_an_unknown_kind():
    # a misspelt kind would fit alpha one way and mu the other; each fit
    # keyed by the kind names the two kinds instead
    conn = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j,
                                        alpha=0.1), TORUS)
    table = holonomy_table(conn, RINGS)
    axis = flat_limit(table).axis
    msg = "kind must be 'semisimple' or 'nilpotent'"
    for kind in ("Semisimple", "nil", ""):
        with pytest.raises(ValueError, match=msg):
            extract_invariants(conn, RINGS, kind=kind)
    for kind in ("Semisimple", None):
        with pytest.raises(ValueError, match=msg):
            limiting_holonomy(table, axis, kind)
        with pytest.raises(ValueError, match=msg):
            decay_exponent(conn, np.geomspace(20.0, 500.0, 8), kind)


def test_instanton_number_monotone_guard():
    def ev(points):
        points = np.asarray(points, float)
        out = np.zeros(points.shape[:-1] + (4, 3))
        out[..., 2, 2] = points[..., 0]  # a_x = i r sigma3
        return out

    def dv(points, axes=AXES):
        points = np.asarray(points, float)
        out = np.zeros(points.shape[:-1] + (4, 4, 3))
        out[..., 0, 2, 2] = 1.0
        return out[..., list(axes), :, :]

    grow = ConnectionSource(evaluate=ev, torus=TORUS, derivative=dv,
                            r_min=1e-3)
    with pytest.raises(ExtractionError):
        instanton_number(grow, 100.0, r_inner=1.0)


@pytest.mark.parametrize("r_inner,R", [
    (5e-4, 100.0),   # inside the core r < r_min = 1e-3
    (0.0, 100.0),
    (100.0, 100.0),  # empty range
])
def test_instanton_number_rejects_r_inner_outside_range(r_inner, R):
    conn = model_connection(ModelParams(lam=0.1, mu=0.3, alpha=0.1), TORUS)
    with pytest.raises(ValueError, match="r_inner") as e:
        instanton_number(conn, R, r_inner=r_inner)
    assert f"r_min = {conn.r_min}" in str(e.value)
    assert not isinstance(e.value, DomainError)


@pytest.mark.parametrize("lam,mu,alpha,R", [
    (0.1, 1.0, 0.0, 400.0),
    (0.1 - 0.07j, 0.3 + 0.2j, 0.2, 100.0),
    (-0.05 + 0.07j, 0.3 - 0.2j, -0.25, 50.0),
    (0.0, 2.0j, 0.4, 1000.0),
])
def test_energy_matches_closed_form(lam, mu, alpha, R):
    # |F|^2 integrated over 1 <= r <= R and the 2 pi x 2 pi torus, over
    # 8 pi^2: 8 pi |mu|^2 (1 - 1/R^2), independent of lambda and alpha
    conn = model_connection(ModelParams(lam=lam, mu=mu, alpha=alpha), TORUS)
    got = instanton_number(conn, R, r_inner=1.0)["energy"]
    expected = 8.0 * math.pi * abs(mu) ** 2 * (1.0 - R ** -2.0)
    assert abs(got - expected) <= 1e-13 * expected


def test_poincare_constant_untwisted():
    # lowest nonzero Fourier symbol on the square torus is 1
    assert poincare_constant(None, torus=TORUS) == pytest.approx(1.0)


def test_poincare_constant_twisted_hand_values():
    # xi = (0.3, 0.15): off-diagonal symbol min over integer shifts of
    # (n + 0.6)^2 + (m + 0.3)^2 is 0.16 + 0.09 = 0.25
    assert poincare_constant(reduce_dual((0.3, 0.15), TORUS),
                             torus=TORUS) == pytest.approx(0.25)
    # order-two (0.5, 0): the off-diagonal shift is integral, its zero mode
    # joins the excluded kernel, and the bound returns to 1
    assert poincare_constant(reduce_dual((0.5, 0.0), TORUS),
                             torus=TORUS) == pytest.approx(1.0)
    # on the 4 x 7 torus the symbol is k_x^2 (n + 0.6)^2 + k_y^2 (m + 0.3)^2
    # with k = 2 pi / L; its least value 0.16 k_x^2 + 0.09 k_y^2 = 0.467 lies
    # below the untwisted k_y^2 = 0.806
    torus = TorusSpec(4.0, 7.0)
    kx, ky = TWO_PI / 4.0, TWO_PI / 7.0
    assert poincare_constant(reduce_dual((0.3, 0.15), torus), torus=torus) \
        == pytest.approx(0.16 * kx ** 2 + 0.09 * ky ** 2)


@given(l1=st.floats(0.01, 0.49), l2=st.floats(0.01, 0.49))
@settings(max_examples=50, deadline=None)
def test_poincare_constant_positive_and_bounded(l1, l2):
    c = poincare_constant(reduce_dual((l1, l2), TORUS), torus=TORUS)
    assert 0.0 < c <= 1.0 + 1e-12


def _run_demo(*args):
    """scripts/extraction_demo.py run with args, RuntimeWarnings as
    errors."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src") + os.pathsep
           + os.environ.get("PYTHONPATH", "")}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         str(root / "scripts" / "extraction_demo.py"), *args],
        env=env, capture_output=True, text=True, timeout=120)


def test_extraction_demo_scores_alpha_on_the_circle():
    # target alpha = -1/2 sits on the cut and lambda = -0.1 + 0.07i needs the
    # branch flip, so the extracted alpha is -1/2 again: the error is a gap
    # on the circle, 0 here, not |(-1/2) - (+1/2)| = 1
    proc = _run_demo("--lam", "-0.1", "0.07", "--alpha", "-0.5")
    assert proc.returncode == 0, proc.stderr
    errors = [float(e) for e in re.findall(r"\|dalpha\|=(\S+)", proc.stdout)]
    assert len(errors) == 3, proc.stdout
    assert max(errors) < 1e-9, proc.stdout


@pytest.mark.parametrize("args,message", [
    (("--amplitude", "-0.05"), "--amplitude must be >= 0"),
    (("--delta", "0"), "--delta must be > 0"),
], ids=["negative-amplitude", "zero-delta"])
def test_extraction_demo_rejects_a_bad_perturbation(args, message):
    # a negative amplitude once ran the clean model without a word
    proc = _run_demo(*args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""


def test_extraction_demo_reports_a_failed_ring_family():
    # perturbed alpha = -1/2 has theta holonomies near -I (an open
    # extraction fault, ROADMAP item 1): the two inner families fail with a
    # branch collision, and the outer one still runs
    proc = _run_demo("--lam", "-0.1", "0.07", "--alpha", "-0.5",
                     "--amplitude", "0.05")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("rings")]
    assert len(lines) == 3, proc.stdout
    failed = [ln for ln in lines if ": extraction failed: " in ln]
    assert failed and all("branch collision" in ln for ln in failed)
    assert len(failed) < 3
