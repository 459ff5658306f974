"""Tests for parabolic stability and degree arithmetic on extension
bundles, the existence obstruction table, and section-count consistency
against the declared charge."""

import pytest
from hypothesis import given, settings, strategies as st

from ipl.geometry import DualTorusPoint, TorusSpec, xi_from_zeta
from ipl.stability import (
    BundleModel,
    SubsheafSpec,
    alpha_stable_extension,
    existence_obstruction,
    h0_consistency,
    h0_total,
    parabolic_degree,
)

TORUS = TorusSpec()
XI_GENERIC = DualTorusPoint(0.3, 0.2, TORUS)


def test_parabolic_degree_hand_values():
    assert parabolic_degree(SubsheafSpec(1, "minus"), 0.2) == pytest.approx(0.8)
    assert parabolic_degree(SubsheafSpec(1, "plus"), 0.2) == pytest.approx(1.2)
    assert parabolic_degree(SubsheafSpec(0, "minus"), -0.3) == pytest.approx(0.3)


def test_parabolic_degree_validation():
    with pytest.raises(ValueError):
        SubsheafSpec(1, "up")
    with pytest.raises(ValueError):
        parabolic_degree(SubsheafSpec(1, "minus"), 0.5)
    with pytest.raises(ValueError):
        parabolic_degree(SubsheafSpec(1, "minus"), -0.6)


def test_positive_twist_family_is_never_stable():
    # the distinguished line subsheaf has parabolic degree b - alpha > 0
    # for every b >= 1 and every admissible alpha
    for b in range(1, 6):
        for alpha in (-0.4, -0.2, 0.0, 0.2, 0.4):
            v = alpha_stable_extension(b, alpha)
            assert v.verdict == "unstable"
            assert v.witness == SubsheafSpec(b, "minus")
            assert v.witness_degree == pytest.approx(b - alpha)


def test_zero_twist_depends_on_alpha_sign():
    ok = alpha_stable_extension(0, 0.2)
    assert ok.verdict == "no_destabilizer_found"
    assert ok.witness_degree == pytest.approx(-0.2)
    bad = alpha_stable_extension(0, -0.2)
    assert bad.verdict == "unstable"
    assert bad.witness_degree == pytest.approx(0.2)


ORDER_TWO = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]
GENERIC = [(0.3, 0.2), (0.25, 0.75), (0.1, 0.0)]


def test_existence_obstruction_table():
    for k in (1, 2, 3):
        for xi_raw in ORDER_TWO + GENERIC:
            for mu in (0.0, 1.0, 0.3 - 0.2j):
                xi = DualTorusPoint(*xi_raw, TORUS)
                got = existence_obstruction(k, xi, mu)
                order_two = xi_raw in ORDER_TWO
                if order_two and k == 1:
                    assert got == "blocked_order2_k1"
                elif not order_two and mu == 0.0:
                    assert got == "blocked_mu0"
                else:
                    assert got == "ok"


def test_existence_obstruction_requires_positive_charge():
    with pytest.raises(ValueError):
        existence_obstruction(0, XI_GENERIC, 1.0)


@given(k=st.integers(1, 6), xi1=st.floats(0.01, 0.49), xi2=st.floats(0.01, 0.49))
@settings(max_examples=100, deadline=None)
def test_generic_point_with_nonzero_mu_is_unobstructed(k, xi1, xi2):
    xi = DualTorusPoint(xi1, xi2, TORUS)
    assert existence_obstruction(k, xi, 0.7) == "ok"
    assert existence_obstruction(k, xi, 0.0) == "blocked_mu0"


def test_h0_consistent_when_jumping_point_in_domain():
    bundle = BundleModel(lam=0.11 + 0.07j, mu=1.0, r_min=5.0, k=1, torus=TORUS)
    xi = xi_from_zeta(bundle.lam + 0.05, TORUS)
    rep = h0_consistency(bundle, xi, domain=(5.0, 1000.0))
    assert rep == {"h0_total": 1, "k": 1, "consistent": True, "note": ""}


def test_h0_below_charge_when_domain_misses_the_point():
    bundle = BundleModel(lam=0.11 + 0.07j, mu=1.0, r_min=5.0, k=1, torus=TORUS)
    xi = DualTorusPoint(0.31, 0.17, TORUS)
    rep = h0_consistency(bundle, xi, domain=(5.0, 1000.0))
    assert rep["h0_total"] == 0
    assert not rep["consistent"]
    assert "below" in rep["note"]


def test_h0_order_two_contradiction_at_unit_charge():
    # 2*lam lies in the dual lattice, so the two asymptotic eigenlines
    # coincide and the infinity fiber alone contributes two sections
    bundle = BundleModel(lam=0.25j, mu=0.3, r_min=5.0, k=1, torus=TORUS)
    xi = DualTorusPoint(0.5, 0.0, TORUS)
    assert h0_total(bundle, xi, domain=(5.0, 1000.0)) == 2
    rep = h0_consistency(bundle, xi, domain=(5.0, 1000.0))
    assert rep["h0_total"] == 2
    assert not rep["consistent"]
    assert "exceeds" in rep["note"]
    assert "contradictory" in rep["note"]
