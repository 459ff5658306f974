"""Tests for torus/dual-torus arithmetic, annulus grids, coordinate-circle
sampling, and the conventions sheet."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipl.gauge import circle_paths
from ipl.geometry import (
    TWO_PI,
    AnnulusGrid,
    DualTorusPoint,
    TorusSpec,
    conventions_hash,
    conventions_sheet,
    covering_radius,
    dual_lattice,
    in_dual_lattice,
    lattice_distance,
    lattice_reduce,
    lattice_translates,
    reduce_dual,
    xi_from_zeta,
    zeta_from_xi,
)

TORUS = TorusSpec()

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                 allow_nan=False)
small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_torus_validation():
    with pytest.raises(ValueError):
        TorusSpec(period_x=0.0)
    with pytest.raises(ValueError):
        TorusSpec(period_y=-1.0)
    assert TORUS.area == pytest.approx(TWO_PI * TWO_PI)


def test_dual_lattice_generators_square_torus():
    # by hand: pi / period in each slot for the (2pi, 2pi) torus
    g_re, g_im = dual_lattice(TORUS)
    assert g_re == pytest.approx(0.5)
    assert g_im == pytest.approx(0.5j)


def test_covering_radius_square_torus():
    # half the diagonal of the (0.5, 0.5i) cell: sqrt(2)/4
    assert covering_radius(TORUS) == pytest.approx(math.sqrt(2.0) / 4.0)


def test_zeta_of_integer_xi_lands_in_lattice():
    for n, m in ((1, 0), (0, 1), (2, -3), (-1, 4)):
        z = zeta_from_xi(float(n), float(m), TORUS)
        assert in_dual_lattice(z, TORUS)
        assert lattice_distance(z, TORUS) < 1e-12


def test_zeta_from_xi_hand_values():
    # c_i = 2 pi xi_i / L_i = xi_i on the square torus; zeta = (i c1 - c2)/2
    assert zeta_from_xi(1.0, 0.0, TORUS) == pytest.approx(0.5j)
    assert zeta_from_xi(0.0, 1.0, TORUS) == pytest.approx(-0.5)
    assert zeta_from_xi(0.4, 0.6, TORUS) == pytest.approx(-0.3 + 0.2j)


@given(xi1=unit, xi2=unit)
@settings(max_examples=200)
def test_xi_zeta_round_trip(xi1, xi2):
    pt = xi_from_zeta(zeta_from_xi(xi1, xi2, TORUS), TORUS)
    assert min(abs(pt.xi1 - xi1), 1.0 - abs(pt.xi1 - xi1)) < 1e-9
    assert min(abs(pt.xi2 - xi2), 1.0 - abs(pt.xi2 - xi2)) < 1e-9


@given(re=small, im=small)
@settings(max_examples=200)
def test_lattice_reduce_within_covering_radius(re, im):
    z = lattice_reduce(complex(re, im), TORUS)
    assert abs(z) <= covering_radius(TORUS) + 1e-12


@given(n=st.integers(-4, 4), m=st.integers(-4, 4))
def test_lattice_reduce_kills_lattice_points(n, m):
    g_re, g_im = dual_lattice(TORUS)
    assert abs(lattice_reduce(n * g_re + m * g_im, TORUS)) < 1e-12


def test_lattice_translates_contains_nearest():
    g_re, _ = dual_lattice(TORUS)
    ts = lattice_translates(g_re * 1.02, 0.1, TORUS)
    assert any(abs(t - g_re) < 1e-12 for t in ts)


def test_reduce_dual_and_minus():
    pt = reduce_dual((1.3, -0.8), TORUS)
    assert pt.xi1 == pytest.approx(0.3)
    assert pt.xi2 == pytest.approx(0.2)
    mn = pt.minus
    assert mn.xi1 == pytest.approx(0.7)
    assert mn.xi2 == pytest.approx(0.8)


def test_order_two_points():
    for xi in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
        assert reduce_dual(xi, TORUS).is_order_two()
    assert not reduce_dual((0.3, 0.2), TORUS).is_order_two()


@given(xi1=unit, xi2=unit)
@settings(max_examples=100)
def test_minus_is_involution(xi1, xi2):
    pt = DualTorusPoint(xi1=xi1, xi2=xi2, torus=TORUS)
    back = pt.minus.minus
    assert min(abs(back.xi1 - xi1), 1.0 - abs(back.xi1 - xi1)) < 1e-12
    assert min(abs(back.xi2 - xi2), 1.0 - abs(back.xi2 - xi2)) < 1e-12


def test_annulus_grid_spacings():
    rs = AnnulusGrid(2.0, 32.0, n_r=8).rs
    assert rs.shape == (8,)
    assert np.all(np.diff(rs) > 0)
    assert rs[0] >= 2.0 - 1e-12 and rs[-1] <= 32.0 + 1e-12
    with pytest.raises(ValueError):
        AnnulusGrid(2.0, 32.0, n_r=2)
    with pytest.raises(ValueError):
        AnnulusGrid(32.0, 2.0)


def test_loop_points_and_tangents_close_up():
    pts, tans = circle_paths(TORUS, "x", np.array([[10.0, 0.3, 0.0, 1.0]]),
                             64)
    assert pts.shape == tans.shape == (64, 2, 1, 4)
    # x-circle: only the x coordinate moves, at the two Gauss nodes of each
    # of 64 steps
    assert np.ptp(pts[..., 0]) == 0.0
    assert np.ptp(pts[..., 1]) == 0.0
    t = pts[:, :, 0, 2] / TORUS.period_x
    assert np.all((t > 0.0) & (t < 1.0))
    assert np.all(np.diff(t.ravel()) > 0.0)
    # the nodes sit symmetrically about each step's midpoint, 1/sqrt(3)
    # of a half step away
    k = np.arange(64)
    assert np.allclose(t.mean(axis=1), (k + 0.5) / 64)
    assert np.allclose(np.diff(t, axis=1)[:, 0], 1.0 / (64 * math.sqrt(3.0)))
    # unit-speed-in-t parametrization: tangent is one full period
    assert np.mean(tans[..., 2]) == pytest.approx(TORUS.period_x)
    assert np.ptp(tans[..., 2]) == 0.0


def test_conventions_sheet_and_hash():
    sheet = conventions_sheet(TORUS)
    for key in ("coordinates", "orientation", "self_dual_basis",
                "dual_lattice_basis", "zeta_of_xi", "holonomy_transport",
                "model_parameters"):
        assert key in sheet
    h1 = conventions_hash(TORUS)
    assert h1 == conventions_hash(TORUS)
    assert h1 != conventions_hash(TorusSpec(period_x=TWO_PI, period_y=4.0))
