"""Tests for the spectral correspondence: holomorphic bundle models,
jumping-point counting, pole residues of the matching field, Nahm-pole
weights, and the Fourier mode-gap inequality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipl.geometry import TWO_PI, TorusSpec, covering_radius, reduce_dual, \
    xi_from_zeta
from ipl.spectral import (
    BundleModel,
    SingularPointError,
    fourier_gap,
    gap_region_scale,
    in_hypothesis_region,
    jumping_points,
    nahm_weights,
    phi_residue,
)

from conftest import GAP_TORI

TORUS = TorusSpec()
BUNDLE = BundleModel(lam=0.11 + 0.07j, mu=1.0, r_min=5.0, k=1, torus=TORUS)


def total_multiplicity(data):
    return sum(m for _, m in data.points)


def test_bundle_model_validation():
    # |mu|/r_min must stay below the dual covering radius
    assert abs(BUNDLE.mu) / BUNDLE.r_min < covering_radius(TORUS)
    with pytest.raises(ValueError):
        BundleModel(lam=0.0, mu=1.0, r_min=2.0, k=1, torus=TORUS)
    with pytest.raises(ValueError):
        BundleModel(lam=0.0, mu=1.0, r_min=5.0, k=0, torus=TORUS)


def test_jumping_point_closed_form_plus_branch():
    # zeta(w) = lam + mu/w equals lam + dz exactly at w = mu/dz
    dz = 0.01 * np.exp(0.7j)
    xi = xi_from_zeta(BUNDLE.lam + dz, TORUS)
    data = jumping_points(BUNDLE, xi, domain=(5.0, 1e4), branch="plus")
    assert len(data.points) == 1
    w, mult = data.points[0]
    assert mult == 1
    assert abs(w - BUNDLE.mu / dz) < 1e-9
    # the same dual point sees nothing on the reflected branch
    empty = jumping_points(BUNDLE, xi, domain=(5.0, 1e4), branch="minus")
    assert empty.points == ()


def test_jumping_point_minus_branch_near_reflected_pole():
    dz = 0.01 * np.exp(0.7j)
    xi = xi_from_zeta(-BUNDLE.lam + dz, TORUS)
    data = jumping_points(BUNDLE, xi, domain=(5.0, 1e4), branch="minus")
    assert len(data.points) == 1
    w, mult = data.points[0]
    assert mult == 1
    assert abs(w + BUNDLE.mu / dz) < 1e-9


def test_counting_is_one_near_pole():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rad = rng.uniform(0.005, 0.02)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        xi = xi_from_zeta(BUNDLE.lam + rad * np.exp(1j * ang), TORUS)
        data = jumping_points(BUNDLE, xi, domain=(5.0, 1e4), branch="both")
        assert total_multiplicity(data) == 1


def test_singular_at_poles():
    x0 = xi_from_zeta(BUNDLE.lam, TORUS)
    with pytest.raises(SingularPointError):
        jumping_points(BUNDLE, x0, domain=(5.0, 1e4), branch="plus")
    with pytest.raises(SingularPointError):
        jumping_points(BUNDLE, x0.minus, domain=(5.0, 1e4), branch="minus")


def test_mu_zero_has_no_jumping_points():
    flat = BundleModel(lam=0.11 + 0.07j, mu=0.0, r_min=5.0, k=1, torus=TORUS)
    for xi_raw in [(0.31, 0.41), (0.12, 0.77), (0.9, 0.05)]:
        xi = reduce_dual(xi_raw, TORUS)
        data = jumping_points(flat, xi, domain=(5.0, 1e9), branch="both")
        assert data.points == ()


def test_jumping_point_blow_up_rate():
    # |w| = |mu|/|dz| exactly, so the 1/(2|dz|) lower bound holds with margin
    for j in range(6):
        dz = 0.05 * (0.5 ** j) * (0.8 - 0.6j)
        xi = xi_from_zeta(BUNDLE.lam + dz, TORUS)
        data = jumping_points(BUNDLE, xi, domain=(5.0, 1e12), branch="plus")
        w, _ = data.points[0]
        assert abs(w) >= abs(BUNDLE.mu) / (2.0 * abs(dz))
        assert abs(w) * abs(dz) == pytest.approx(abs(BUNDLE.mu), rel=1e-9)


def test_phi_residue_signs_at_both_poles():
    x0 = xi_from_zeta(BUNDLE.lam, TORUS)
    approach = [x0.zeta + 0.02 * (0.5 ** j) * (1 + 0.7j) for j in range(6)]
    res, diag = phi_residue(BUNDLE, x0, approach)
    assert abs(res - BUNDLE.mu) < 1e-10
    assert diag["converged"]
    assert diag["sign"] == 1

    xm = x0.minus
    approach_m = [xm.zeta + 0.02 * (0.5 ** j) * (1 + 0.7j) for j in range(6)]
    res_m, diag_m = phi_residue(BUNDLE, xm, approach_m)
    assert abs(res_m + BUNDLE.mu) < 1e-10
    assert diag_m["sign"] == -1


def test_nahm_weights_hand_values():
    assert nahm_weights(0.3) == ((1.3, 0.7), 0.0)
    assert nahm_weights(0.0) == ((1.0, 1.0), 0.0)
    assert nahm_weights(-0.4) == ((0.6, 1.4), 0.0)


@given(alpha=st.floats(-0.5, 0.5, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_nahm_weights_balance_exact(alpha):
    (w1, w2), balance = nahm_weights(alpha)
    assert balance == 0.0
    assert w1 == 1.0 + alpha
    assert w2 == 1.0 - alpha
    assert w1 + w2 == 2.0


def test_fourier_gap_hand_values():
    assert in_hypothesis_region(0.0, 0.25, 30.0, torus=TORUS)
    gap = fourier_gap(0.0, 0.25, 30.0, [(0, 0, 1.0)], torus=TORUS)
    assert gap == 0.0
    gap2 = fourier_gap(0.0, 0.25, 30.0, [(1, 0, 1.0)], torus=TORUS)
    assert gap2 == pytest.approx(1.0 + 1.0 / 60.0, abs=1e-15)


def test_fourier_gap_is_finite_outside_region():
    assert not in_hypothesis_region(0.3 + 0.1j, 0.25, 30.0, torus=TORUS)
    gap = fourier_gap(0.3 + 0.1j, 0.25, 30.0, [(1, 0, 1.0)], torus=TORUS)
    assert np.isfinite(gap)


def test_fourier_gap_at_w_zero_names_the_cause():
    with pytest.raises(ValueError, match="w = 0"):
        fourier_gap(0.0, 0.25, 0.0, [(1, 0, 1.0)], torus=TORUS)
    with pytest.raises(ValueError, match="w = 0"):
        fourier_gap(np.zeros(2), 0.25, np.array([30.0, 0.0]),
                    np.ones((2, 1, 3)), torus=TORUS)


def test_scalar_calls_return_python_scalars():
    gap = fourier_gap(0.01, 0.25 - 0.1j, 30.0j, [(1, 0, 1.0)], torus=TORUS)
    assert type(gap) is float
    assert type(in_hypothesis_region(0.01, 0.25, 30.0, torus=TORUS)) is bool


def test_array_calls_match_scalar_calls_row_by_row():
    rng = np.random.default_rng(11)
    n, k = 200, 4
    cov = covering_radius(TORUS)
    # lam and |w| straddle the region's edges, so both verdicts occur
    lam = 0.15 * cov * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    mu = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = 20.0 * np.abs(mu) / cov * rng.random(n) * np.exp(
        2j * np.pi * rng.random(n)) + 1e-9
    sigma = np.empty((n, k, 3), dtype=complex)
    sigma[..., :2] = rng.integers(-3, 4, (n, k, 2))
    sigma[..., 2] = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    gaps = fourier_gap(lam, mu, w, sigma, torus=TORUS)
    region = in_hypothesis_region(lam, mu, w, torus=TORUS)
    assert gaps.shape == region.shape == (n,)
    assert 0 < region.sum() < n
    for i in range(n):
        rows = [(int(a.real), int(b.real), c) for a, b, c in sigma[i]]
        assert fourier_gap(lam[i], mu[i], w[i], rows, torus=TORUS) == gaps[i]
        assert region[i] \
            == in_hypothesis_region(lam[i], mu[i], w[i], torus=TORUS)


def test_zero_coefficient_rows_change_neither_sum():
    # lam + mu/|w| and lam + mu/w differ, so a padding row that leaked into
    # either sum alone would move the gap
    lam, mu, w = 0.02 + 0.01j, 0.4 - 0.3j, 25.0 * np.exp(0.7j)
    sigma = [(1, 0, 0.3 - 0.2j), (-1, 2, 1.1)]
    padded = sigma + [(2, -3, 0.0), (0, 0, 0.0)]
    assert fourier_gap(lam, mu, w, padded, torus=TORUS) \
        == fourier_gap(lam, mu, w, sigma, torus=TORUS)
    batch = fourier_gap(lam, mu, w, [padded, sigma + [(0, 0, 0.0)] * 2],
                        torus=TORUS)
    assert batch[0] == batch[1] == fourier_gap(lam, mu, w, sigma, torus=TORUS)


def test_in_hypothesis_region_boundaries():
    assert not in_hypothesis_region(0.0, 1.0, 1.0, torus=TORUS)
    assert in_hypothesis_region(0.0, 1.0, 100.0, torus=TORUS)
    # misaligned constant mode: Re(conj(lam) mu) < its rotated counterpart
    assert not in_hypothesis_region(0.03, -0.5, 40j, torus=TORUS)
    # lam too large against the lattice
    assert not in_hypothesis_region(0.2, 0.1, 100.0, torus=TORUS)


@given(mu_re=st.floats(-1.0, 1.0), mu_im=st.floats(-1.0, 1.0),
       scale=st.floats(1.0, 4.0), ang=st.floats(0.0, 6.28),
       c1=st.floats(-1.0, 1.0), c2=st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_fourier_gap_nonnegative_on_region(mu_re, mu_im, scale, ang, c1, c2):
    mu = complex(mu_re, mu_im)
    cov = covering_radius(TORUS)
    w = (10.0 * abs(mu) / cov * scale + 1e-6) * np.exp(1j * ang)
    sigma = [(0, 0, 1.0), (1, 0, c1), (-1, 1, c2)]
    assert in_hypothesis_region(0.0, mu, w, torus=TORUS)
    assert fourier_gap(0.0, mu, w, sigma, torus=TORUS) >= -1e-15


# every mode (n, m) with |n|, |m| <= 3 but the constant one
NONZERO_MODES = np.array([(n, m) for n in range(-3, 4) for m in range(-3, 4)
                          if n or m])


@pytest.mark.parametrize("torus", GAP_TORI.values(), ids=GAP_TORI.keys())
def test_fourier_gap_holds_on_the_nonzero_modes_alone(torus):
    # with no constant mode every symbol has |g| >= g_min = 2 pi /
    # max(L_x, L_y), and the region keeps |lam| and |mu|/|w| under
    # 0.1 g_min / (2 sqrt 2): each gap is then at least about
    # 0.86 g_min^2 |sigma|^2, and must be at least half that. The scan's
    # minimum comes from the constant mode, so this is the test that sees
    # the symbol. One mode a point, so that no larger symbol hides a small
    # one: the unit symbol n + i m reads -0.002 on 0.5 x 0.5, and a region
    # scaled by the covering radius -1.1 to -15 on 30 x 1, 1 x 100, 100 x 1
    g_min = TWO_PI / max(torus.period_x, torus.period_y)
    scale = gap_region_scale(torus)
    n = 4096
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        mu = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        lam = 0.1 * scale * np.sqrt(rng.random(n)) \
            * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        w = (10.0 * np.abs(mu) / scale) * (1.0 + 3.0 * rng.random(n)) \
            * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        sigma = np.empty((n, 1, 3), dtype=complex)
        sigma[:, 0, :2] = NONZERO_MODES[rng.integers(len(NONZERO_MODES),
                                                     size=n)]
        sigma[:, 0, 2] = rng.normal(size=n) + 1j * rng.normal(size=n)
        inside = in_hypothesis_region(lam, mu, w, torus)
        assert inside.sum() > n // 4
        gap = fourier_gap(lam[inside], mu[inside], w[inside], sigma[inside],
                          torus)
        ratio = gap / (g_min ** 2 * np.abs(sigma[inside, 0, 2]) ** 2)
        assert np.min(ratio) >= 0.5, (seed, np.min(ratio))
