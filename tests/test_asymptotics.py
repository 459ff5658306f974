"""Tests for asymptotic-invariant extraction: flat limits, limiting
holonomy, residue fits, the shared holonomy table, decay exponents, the
curvature energy, and the twisted Poincare constant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipl.asymptotics import (
    E3,
    ExtractionError,
    FlatLimit,
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
)
from ipl.gauge import (LOOP_STEPS, ConnectionSource, DomainError,
                       circle_holonomies, flat_connection)
from ipl.geometry import TorusSpec, reduce_dual
from ipl.models import ModelParams, model_connection, perturb

TORUS = TorusSpec()
RINGS = (50.0, 100.0, 200.0, 400.0)


def synthetic_flat_limit(lambda1, lambda2):
    return FlatLimit(lambda1=lambda1, lambda2=lambda2, rings=(1.0, 2.0, 3.0, 4.0),
                     per_ring=np.zeros((4, 2)), drift=0.0, axis=E3.copy(),
                     torus=TORUS)


def test_flat_limit_needs_four_rings():
    conn = model_connection(ModelParams(mu=1.0), TORUS)
    with pytest.raises(ValueError):
        holonomy_table(conn, (50.0, 100.0, 200.0))


def test_flat_limit_of_flat_connection():
    xi = reduce_dual((0.3, 0.2), TORUS)
    conn = flat_connection(xi, TORUS)
    fl = flat_limit(holonomy_table(conn, RINGS))
    assert fl.drift < 1e-10
    states = asymptotic_states(fl)
    assert states.xi0.xi1 == pytest.approx(0.3, abs=1e-9)
    assert states.xi0.xi2 == pytest.approx(0.2, abs=1e-9)
    assert not states.order_two


def test_branch_canonicalization_flips_above_half():
    # raw exponents (0, 0.7): the first nonzero reduced component exceeds
    # 1/2, so the canonical representative is the sign-flipped (0, 0.3)
    states = asymptotic_states(synthetic_flat_limit(0.0, 0.7))
    assert states.flipped
    assert states.xi0.xi1 == pytest.approx(0.0, abs=1e-12)
    assert states.xi0.xi2 == pytest.approx(0.3, abs=1e-12)

    states2 = asymptotic_states(synthetic_flat_limit(0.2, 0.9))
    assert not states2.flipped
    assert states2.xi0.xi1 == pytest.approx(0.2, abs=1e-12)


def test_order_two_detection():
    assert asymptotic_states(synthetic_flat_limit(0.0, 0.0)).order_two
    assert asymptotic_states(synthetic_flat_limit(1.0, 0.0)).order_two
    assert not asymptotic_states(synthetic_flat_limit(0.4, 0.0)).order_two


def test_limiting_holonomy_of_model():
    alpha = 0.2
    conn = model_connection(ModelParams(lam=0.1, mu=0.5, alpha=alpha), TORUS)
    table = holonomy_table(conn, RINGS)
    got = limiting_holonomy(table, flat_limit(table).axis)
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
    lam_hat = complex(*inv.diagnostics["residue_fit"]["lambda_hat"])
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
                   amplitude=0.3, seed=4, r_lo=5.0, r_hi=600.0)
    table = holonomy_table(conn, RINGS)
    ths = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
    half_x, half_y = TORUS.period_x / 2.0, TORUS.period_y / 2.0

    def hol(kind, r, th, x=0.0, y=0.0):
        return circle_holonomies(conn, kind, np.array([[r, th, x, y]]),
                                 LOOP_STEPS)[0]

    assert table.rings == RINGS and table.torus == TORUS
    assert np.array_equal(table.thetas, ths)
    assert table.x.shape == table.y.shape == (4, 24, 2, 2)
    assert table.x_half.shape == table.y_half.shape == (4, 8, 2, 2)
    assert table.theta.shape == (4, 2, 2)
    assert table.axis_theta.shape == (8, 2, 2)
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
    states = asymptotic_states(fl)
    a = limiting_holonomy(table, fl.axis)
    m, diag = residue(table, fl)
    if states.flipped:
        a, m = principal_alpha(-a), -m
    assert inv.kind == "semisimple"
    assert (inv.xi0.xi1, inv.xi0.xi2) == (states.xi0.xi1, states.xi0.xi2)
    assert inv.alpha == a
    assert inv.mu == m
    assert inv.diagnostics["residue_fit"]["lambda_hat"] == [
        diag["lambda_hat"].real, diag["lambda_hat"].imag]


def test_decay_exponent_semisimple():
    conn = model_connection(ModelParams(mu=1.0), TORUS)
    fit = decay_exponent(conn, np.geomspace(20.0, 500.0, 8), with_log=False)
    assert fit["gamma"] == pytest.approx(-2.0, abs=1e-9)
    assert fit["monotone"]


def test_decay_exponent_nilpotent_log_power():
    conn = model_connection(ModelParams(kind="nilpotent"), TORUS)
    rings = np.geomspace(math.e ** 2, math.e ** 6, 10)
    fit = decay_exponent(conn, rings, components="kahler", with_log=True)
    assert fit["gamma"] == pytest.approx(-2.0, abs=1e-9)
    assert fit["log_power"] == pytest.approx(-2.0, abs=1e-9)


def test_decay_exponent_flat_connection_sentinel():
    conn = flat_connection(reduce_dual((0.3, 0.2), TORUS), TORUS)
    fit = decay_exponent(conn, np.geomspace(20.0, 500.0, 8))
    assert fit["gamma"] == -math.inf


def test_instanton_number_monotone_guard():
    sigma3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

    def ev(points):
        points = np.asarray(points, float)
        out = np.zeros(points.shape[:-1] + (4, 2, 2), dtype=complex)
        out[..., 2, :, :] = (1j * points[..., 0])[..., None, None] * sigma3
        return out

    def dv(points, axis):
        points = np.asarray(points, float)
        out = np.zeros(points.shape[:-1] + (4, 2, 2), dtype=complex)
        if axis == 0:
            out[..., 2, :, :] = (1j * np.ones(points.shape[:-1]))[..., None, None] * sigma3
        return out

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
    # exponents (0.3, 0.15): off-diagonal symbol min over integer shifts of
    # (n + 0.6)^2 + (m + 0.3)^2 is 0.16 + 0.09 = 0.25
    fl = synthetic_flat_limit(0.3, 0.15)
    assert poincare_constant(fl, torus=TORUS) == pytest.approx(0.25)
    # order-two (0.5, 0): the off-diagonal shift is integral, its zero mode
    # joins the excluded kernel, and the bound returns to 1
    fl2 = synthetic_flat_limit(0.5, 0.0)
    assert poincare_constant(fl2, torus=TORUS) == pytest.approx(1.0)


@given(l1=st.floats(0.01, 0.49), l2=st.floats(0.01, 0.49))
@settings(max_examples=50, deadline=None)
def test_poincare_constant_positive_and_bounded(l1, l2):
    c = poincare_constant(synthetic_flat_limit(l1, l2), torus=TORUS)
    assert 0.0 < c <= 1.0 + 1e-12
