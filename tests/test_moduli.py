"""Tests for moduli-space linear algebra: quaternionic structures, the
dimension formula and charge-1 chart, discrete covariant calculus on an
annulus grid, tangent-vector residuals, and the L2 metric."""

import numpy as np
import pytest

from ipl.gauge import DomainError
from ipl.geometry import AnnulusGrid, TorusSpec
from ipl.models import ModelParams, model_connection
from ipl.moduli import (
    AnnulusCalculus,
    TangentVectorInstanton,
    apply_complex_structure,
    complex_structures,
    differentiation_matrix,
    fourier_diff,
    instanton_tangent_residual,
    interpolatory_weights,
    k1_chart,
    l2_metric,
    moduli_dimension,
    random_tangent,
    translation_tangent,
)

TORUS = TorusSpec()


def make_grid(n_r=12, n_theta=8):
    return AnnulusGrid(8.0, 40.0, n_r=n_r, n_theta=n_theta, n_x=6, n_y=6)


def anti_hermitian(rng, shape):
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (x - np.conj(np.swapaxes(x, -1, -2)))


def test_complex_structures_quaternion_relations():
    I1, I2, I3 = complex_structures()
    eye = np.eye(4)
    for I in (I1, I2, I3):
        assert np.array_equal(I @ I, -eye)
    assert np.array_equal(I1 @ I2, I3)
    assert np.array_equal(I2 @ I3, I1)
    assert np.array_equal(I3 @ I1, I2)
    assert np.array_equal(I1 @ I2 + I2 @ I1, np.zeros((4, 4)))


def test_moduli_dimension_formula():
    assert moduli_dimension(1) == 4
    assert moduli_dimension(2) == 12
    assert moduli_dimension(3) == 20
    with pytest.raises(ValueError):
        moduli_dimension(0)


def test_k1_chart_constraints_and_evaluation():
    f0, fp0 = 0.5 + 0.2j, 1.5 - 0.3j
    chart = k1_chart(f0, fp0)
    for c in (0.0, 0.7 - 0.1j, -1.3 + 0.4j):
        b, cc, d = chart.coefficients(c)
        assert cc == c
        assert abs(b / d - f0) <= 1e-12
        assert abs((d - b * cc) / d ** 2 - fp0) <= 1e-12
        w = np.array([2.0 + 1.0j, 5.0, -0.3j])
        np.testing.assert_allclose(chart.evaluate(c, w), (w + b) / (cc * w + d),
                                   rtol=1e-14)
    rec = chart.record
    assert rec["total_real_dim"] == 4
    assert rec["matches_dimension_formula"]
    with pytest.raises(ValueError):
        k1_chart(0.5, 0.0)


def test_interpolatory_weights_integrate_polynomials():
    nodes = 5.0 + 3.0 * np.cos(np.pi * np.arange(6)[::-1] / 5)
    w = interpolatory_weights(nodes, 2.0, 8.0)
    assert np.dot(w, np.ones(6)) == pytest.approx(6.0, abs=1e-12)
    for p in range(1, 6):
        exact = (8.0 ** (p + 1) - 2.0 ** (p + 1)) / (p + 1)
        assert np.dot(w, nodes ** p) == pytest.approx(exact, rel=1e-12)


def test_differentiation_matrix_exact_on_polynomials():
    nodes = 5.0 + 3.0 * np.cos(np.pi * np.arange(8)[::-1] / 7)
    D = differentiation_matrix(nodes)
    for p in range(1, 8):
        got = D @ nodes ** p
        np.testing.assert_allclose(got, p * nodes ** (p - 1),
                                   rtol=1e-10, atol=1e-10)


def test_fourier_diff_trig_exact():
    n = 16
    th = 2.0 * np.pi * np.arange(n) / n
    d = fourier_diff(np.sin(3.0 * th), 0, 2.0 * np.pi)
    np.testing.assert_allclose(d, 3.0 * np.cos(3.0 * th), atol=1e-12)
    # nonstandard period rescales the wavenumber
    d2 = fourier_diff(np.sin(2.0 * np.pi * np.arange(n) / n), 0, 1.0)
    np.testing.assert_allclose(
        d2, 2.0 * np.pi * np.cos(2.0 * np.pi * np.arange(n) / n), atol=1e-10)


def test_tangent_vector_validation():
    grid = make_grid()
    rng = np.random.default_rng(0)
    shape = (4, grid.n_r, grid.n_theta, grid.n_x, grid.n_y, 2, 2)
    good = anti_hermitian(rng, shape)
    tr = np.trace(good, axis1=-2, axis2=-1)
    good = good - 0.5 * tr[..., None, None] * np.eye(2)
    TangentVectorInstanton(grid, good, TORUS)
    bad = good.copy()
    bad[0, 0, 0, 0, 0] = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        TangentVectorInstanton(grid, bad, TORUS)


def test_calculus_rejects_grid_outside_domain():
    conn = model_connection(ModelParams(kind="nilpotent"), TORUS)
    grid = AnnulusGrid(0.5, 40.0, n_r=8, n_theta=8, n_x=6, n_y=6)
    with pytest.raises(DomainError):
        AnnulusCalculus(conn, grid)


def test_gauge_adjoint_identity():
    # <d0 u, a> == <u, dstar a> exactly by construction of the quadrature
    grid = make_grid()
    conn = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j,
                                        alpha=0.15), TORUS)
    calc = AnnulusCalculus(conn, grid)
    t = random_tangent(grid, TORUS, seed=3)
    rng = np.random.default_rng(0)
    u = anti_hermitian(rng, t.comps.shape[1:])
    tr = np.trace(u, axis1=-2, axis2=-1)
    u = u - 0.5 * tr[..., None, None] * np.eye(2)
    lhs = calc.inner(calc.d0(u), t.comps)
    rhs = calc.inner(u, calc.dstar(t.comps))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_translation_tangent_near_kernel():
    # translating an exact model solution solves the linearized equations;
    # the discrete residual is resolution-limited, not modeling-limited
    grid = AnnulusGrid(8.0, 40.0, n_r=20, n_theta=12, n_x=6, n_y=6)
    conn = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j,
                                        alpha=0.15), TORUS)
    calc = AnnulusCalculus(conn, grid)
    for direction in ((1.0, 0.0), (0.0, 1.0)):
        t = translation_tangent(conn, grid, direction)
        r_gauge, r_sd = instanton_tangent_residual(t, calc)
        scale = max(calc.norm(t.comps), 1e-30)
        assert r_gauge / scale <= 1e-6
        assert r_sd / scale <= 1e-6


def test_l2_metric_symmetry_positivity_isometry():
    grid = make_grid()
    conn = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j,
                                        alpha=0.15), TORUS)
    tangents = [translation_tangent(conn, grid, (1.0, 0.0)),
                translation_tangent(conn, grid, (0.0, 1.0)),
                random_tangent(grid, TORUS, seed=11)]
    n = len(tangents)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            gram[i, j] = l2_metric(tangents[i], tangents[j])
    assert np.array_equal(gram, gram.T)
    assert np.linalg.eigvalsh(gram)[0] > 0.0

    a = tangents[2]
    base = l2_metric(a, a)
    for I in complex_structures():
        aI = apply_complex_structure(a, I)
        assert l2_metric(aI, aI) == pytest.approx(base, rel=1e-12)


def test_l2_metric_uses_the_calculus_quadrature():
    # one set of quadrature weights: the L2 metric of instanton tangents is
    # AnnulusCalculus.inner on their components, bit for bit
    grid = make_grid()
    conn = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j,
                                        alpha=0.15), TORUS)
    calc = AnnulusCalculus(conn, grid)
    t1 = translation_tangent(conn, grid, (1.0, 0.0))
    t2 = random_tangent(grid, TORUS, seed=3)
    assert l2_metric(t1, t2) == calc.inner(t1.comps, t2.comps)
    assert l2_metric(t2, t2) == calc.inner(t2.comps, t2.comps)

