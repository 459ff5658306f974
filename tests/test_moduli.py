"""Tests for moduli-space linear algebra: quaternionic structures, the
dimension formula and charge-1 chart, discrete covariant calculus on an
annulus grid, tangent-vector residuals, and the L2 metric."""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import MatrixCalculus, from_vector, to_vector

from ipl import _su2, cli
from ipl.gauge import DomainError, curvature
from ipl.geometry import AnnulusGrid, TorusSpec
from ipl.models import ModelParams, model_connection, perturb
from ipl.moduli import (
    AnnulusCalculus,
    TangentVectorInstanton,
    _l2_pairing,
    apply_complex_structure,
    complex_structures,
    differentiation_matrix,
    fourier_diff,
    fourier_matrix,
    instanton_tangent_residual,
    interpolatory_weights,
    k1_chart,
    l2_metric,
    moduli_dimension,
    quadrature_weights,
    random_tangent,
    translation_tangents,
)

TORUS = TorusSpec()
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
# the two plane translations w1, w2, as (z1, z2, w1, w2) vectors
PLANE = ((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))


def make_grid(n_r=12, n_theta=8):
    return AnnulusGrid(8.0, 40.0, n_r=n_r, n_theta=n_theta, n_x=6, n_y=6)


def fft_diff(arr, axis, period):
    """Reference spectral derivative by FFT, Nyquist mode zeroed."""
    n = arr.shape[axis]
    k = 2j * np.pi * np.fft.fftfreq(n, d=period / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = [1] * arr.ndim
    shape[axis] = n
    return np.fft.ifft(np.fft.fft(arr, axis=axis) * k.reshape(shape),
                       axis=axis)


def complex_pairing(a, b, grid, torus):
    """Reference L2 pairing: a complex einsum over the 2x2 entries, weighted
    cell by cell."""
    _, w_cell = quadrature_weights(grid, torus)
    vals = np.real(np.einsum("...ij,...ij->...", a, np.conj(b)))
    return float(np.sum(w_cell * vals))


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


@pytest.mark.parametrize("n", range(4, 26))
def test_fourier_diff_matches_the_fft_formula(n):
    # the dense operator against the FFT, along the first, a middle and the
    # last axis, on 1-D, real and complex input, odd and even n
    rng = np.random.default_rng(n)
    period = 7.0
    cases = [(rng.normal(size=n), 0)]
    for shape, axis in (((n, 3, 4), 0), ((3, n, 4), 1), ((3, 4, n), 2),
                        ((2, 3, n), -1)):
        cases.append((rng.normal(size=shape), axis))
        cases.append((rng.normal(size=shape)
                      + 1j * rng.normal(size=shape), axis))
    for arr, axis in cases:
        got = fourier_diff(arr, axis, period)
        want = fft_diff(arr, axis, period)
        assert got.shape == arr.shape
        assert np.iscomplexobj(got) == np.iscomplexobj(arr)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fourier_matrix_is_skew_cached_and_read_only():
    for n in range(1, 26):
        D = fourier_matrix(n, 2.0 * np.pi)
        assert D is fourier_matrix(n, 2.0 * np.pi)
        assert D.dtype == float
        assert np.array_equal(D, -D.T)
        assert not D.flags.writeable
        with pytest.raises(ValueError):
            D[0, 0] = 1.0


def test_tangent_vector_validation():
    # components are four slots of su(2) vectors on the grid; any real
    # array of that shape is a tangent, the (..., 2, 2) matrix form is not
    grid = make_grid()
    rng = np.random.default_rng(0)
    lead = (4, grid.n_r, grid.n_theta, grid.n_x, grid.n_y)
    t = TangentVectorInstanton(grid, rng.normal(size=lead + (3,)), TORUS)
    assert t.comps.shape == lead + (3,) and t.comps.dtype == float
    for shape in (lead + (2, 2), lead + (4,), (3,) + lead[1:] + (3,)):
        with pytest.raises(ValueError, match="shape"):
            TangentVectorInstanton(grid, np.zeros(shape), TORUS)


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
    u = np.random.default_rng(0).normal(size=t.comps.shape[1:])
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
    for t in translation_tangents(calc, PLANE):
        r_gauge, r_sd = instanton_tangent_residual(t, calc)
        scale = max(calc.norm(t.comps), 1e-30)
        assert r_gauge / scale <= 1e-6
        assert r_sd / scale <= 1e-6


@pytest.mark.parametrize("torus", [TORUS, TorusSpec(4.0, 7.0)],
                         ids=["square", "oblong"])
@pytest.mark.parametrize("params", [
    ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j, alpha=0.15),
    ModelParams(kind="nilpotent")], ids=["semisimple", "nilpotent"])
def test_translation_tangents_keep_half_the_asd_curvature(torus, params):
    # |i_v F|^2 = |v|^2 |F|^2 / 2 at every node for anti-self-dual F, for
    # each unit translation (z1, z2, w1, w2); a perturbed model is not ASD
    # and misses. A tangent's vector components have |X|_F^2 = 2 |v|^2
    grid = AnnulusGrid(8.0, 40.0, n_r=8, n_theta=8, n_x=4, n_y=4)

    def worst_miss(conn):
        calc = AnnulusCalculus(conn, grid)
        f_sq = np.sum(_su2.frob_vector(curvature(conn, calc.points)) ** 2,
                      axis=-1)
        return max(float(np.max(np.abs(
            2.0 * np.sum(t.comps ** 2, axis=(0, -1)) - f_sq / 2) / f_sq))
            for t in translation_tangents(calc, np.eye(4)))

    conn = model_connection(params, torus)
    assert worst_miss(conn) <= 1e-14
    assert worst_miss(perturb(conn, delta=0.5, amplitude=0.05, seed=3,
                              r_lo=8.0, r_hi=40.0)) > 1e-3


def test_l2_metric_symmetry_positivity_isometry():
    grid = make_grid()
    conn = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j,
                                        alpha=0.15), TORUS)
    tangents = [*translation_tangents(AnnulusCalculus(conn, grid), PLANE),
                random_tangent(grid, TORUS, seed=11),
                random_tangent(grid, TORUS, seed=12)]
    n = len(tangents)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            gram[i, j] = l2_metric(tangents[i], tangents[j])
    # both triangles are computed, and agree bit for bit
    assert np.array_equal(gram, gram.T)
    assert np.linalg.eigvalsh(gram)[0] > 0.0

    a = tangents[2]
    base = l2_metric(a, a)
    for I in complex_structures():
        aI = apply_complex_structure(a, I)
        assert l2_metric(aI, aI) == pytest.approx(base, rel=1e-12)


def test_complex_structure_acts_as_its_matrix():
    # I1 maps z1 (torus-x) to +z2 (torus-y): a tangent whose only component
    # is i sigma_1, the vector (1, 0, 0), in the torus-x slot comes back as
    # +i sigma_1 in torus-y
    grid = AnnulusGrid(8.0, 40.0, n_r=4, n_theta=4, n_x=4, n_y=4)
    comps = np.zeros((4, 4, 4, 4, 4, 3))
    comps[2] = (1.0, 0.0, 0.0)
    I1, _, _ = complex_structures()
    got = apply_complex_structure(
        TangentVectorInstanton(grid=grid, comps=comps, torus=TORUS), I1).comps
    want = np.zeros_like(comps)
    want[3] = comps[2]
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("lead", [(), (3,), (4,), (6,)])
def test_l2_pairing_matches_the_complex_einsum(lead):
    # sections (n_r, ...) and stacked fields (k, n_r, ...) alike, in
    # su(2) vector form against their matrices
    grid = make_grid()
    torus = TorusSpec(4.0, 7.0)
    rng = np.random.default_rng(len(lead))
    shape = lead + (grid.n_r, grid.n_theta, grid.n_x, grid.n_y, 3)
    a = rng.normal(size=shape)
    # b leans on a, so the sum does not cancel to its rounding noise
    b = a + 0.5 * rng.normal(size=shape)
    for x, y in ((a, b), (b, a), (a, a)):
        want = complex_pairing(from_vector(x), from_vector(y),
                               grid, torus)
        assert abs(_l2_pairing(x, y, grid, torus) - want) \
            <= 1e-13 * abs(want)


def test_l2_metric_rejects_tangents_from_two_tori():
    # the same components on two tori: either order would pair them with
    # one torus's weights
    grid = make_grid()
    comps = random_tangent(grid, TORUS, seed=5).comps
    a = TangentVectorInstanton(grid, comps, TORUS)
    b = TangentVectorInstanton(grid, comps, TorusSpec(4.0, 7.0))
    for t1, t2 in ((a, b), (b, a)):
        with pytest.raises(DomainError, match="share a torus"):
            l2_metric(t1, t2)


def test_l2_metric_uses_the_calculus_quadrature():
    # one set of quadrature weights: the L2 metric of instanton tangents is
    # AnnulusCalculus.inner on their components, bit for bit
    grid = make_grid()
    conn = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j,
                                        alpha=0.15), TORUS)
    calc = AnnulusCalculus(conn, grid)
    t1, = translation_tangents(calc, ((0.0, 0.0, 1.0, 0.0),))
    t2 = random_tangent(grid, TORUS, seed=3)
    assert l2_metric(t1, t2) == calc.inner(t1.comps, t2.comps)
    assert l2_metric(t2, t2) == calc.inner(t2.comps, t2.comps)


def test_tangent_components_are_stored_contiguous():
    # a strided view of a translation tangent's components is copied to C
    # order, and pairs to the contiguous array's L2 metric bit for bit
    grid = make_grid()
    conn = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j,
                                        alpha=0.15), TORUS)
    t1, = translation_tangents(AnnulusCalculus(conn, grid), PLANE[:1])
    view = np.moveaxis(np.moveaxis(t1.comps, 0, -2).copy(), -2, 0)
    assert not view.flags.c_contiguous
    strided = TangentVectorInstanton(grid, view, TORUS)
    assert strided.comps.flags.c_contiguous
    assert np.array_equal(strided.comps, t1.comps)
    other = random_tangent(grid, TORUS, seed=3)
    assert l2_metric(strided, other) == l2_metric(t1, other)
    assert l2_metric(strided, strided) == l2_metric(t1, t1)


def test_translation_tangents_sample_the_curvature_once():
    # every direction contracts one curvature sample on calc's points,
    # taken one radius at a time: the slabs' evaluate and derivative calls
    # cover the grid exactly once, none more than a radius of it
    seen = {"evaluate": [], "derivative": []}
    conn = model_connection(ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j,
                                        alpha=0.15), TORUS)

    def recorded(name):
        fn = getattr(conn, name)

        def wrapper(points, *axes):
            seen[name].append(np.array(points).reshape(-1, 4))
            return fn(points, *axes)
        return wrapper

    calc = AnnulusCalculus(replace(conn, evaluate=recorded("evaluate"),
                                   derivative=recorded("derivative")),
                           make_grid())
    for slabs in seen.values():
        slabs.clear()
    tangents = translation_tangents(calc, PLANE)
    assert len(tangents) == 2

    def rows(p):
        return p[np.lexsort(p.T[::-1])]

    g = calc.grid
    for slabs in seen.values():
        assert max(len(p) for p in slabs) <= g.n_theta * g.n_x * g.n_y
        assert np.array_equal(rows(np.concatenate(slabs)),
                              rows(calc.points.reshape(-1, 4)))


def test_quadrature_weights_are_shared_and_read_only():
    first = quadrature_weights(make_grid(), TORUS)
    second = quadrature_weights(make_grid(), TORUS)
    assert all(a is b for a, b in zip(first, second))
    for w in first:
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0


def test_l2_metric_scales_with_the_torus_area():
    # the weights are cached per (grid, torus): the same components on a
    # 4 x 7 torus pair to the 2 pi x 2 pi value times the area ratio
    grid = make_grid()
    comps = random_tangent(grid, TORUS, seed=5).comps
    other = TorusSpec(4.0, 7.0)
    square = TangentVectorInstanton(grid, comps, TORUS)
    oblong = TangentVectorInstanton(grid, comps, other)
    assert l2_metric(oblong, oblong) == pytest.approx(
        l2_metric(square, square) * other.area / TORUS.area, rel=1e-12)


@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["clean", "perturbed"])
@pytest.mark.parametrize("torus", [TORUS, TorusSpec(4.0, 7.0)],
                         ids=["square", "oblong"])
@pytest.mark.parametrize("params", [
    ModelParams(lam=0.1 + 0.05j, mu=0.3 - 0.2j, alpha=0.15),
    ModelParams(kind="nilpotent")], ids=["semisimple", "nilpotent"])
def test_vector_calculus_matches_the_matrix_form(params, torus, perturbed):
    # d0, d*, d1, d+ and the pairing on su(2) vectors are the matrix-form
    # operators read through to_vector, on random (rough) fields
    grid = AnnulusGrid(8.0, 40.0, n_r=8, n_theta=8, n_x=4, n_y=4)
    conn = model_connection(params, torus)
    if perturbed:
        conn = perturb(conn, delta=0.5, amplitude=0.05, seed=3, r_lo=8.0,
                       r_hi=40.0)
    calc, ref = AnnulusCalculus(conn, grid), MatrixCalculus(conn, grid)
    rng = np.random.default_rng(7)
    u = rng.normal(size=calc.points.shape[:-1] + (3,))
    a, b = rng.normal(size=(2, 4) + u.shape)
    U, A, B = (from_vector(x) for x in (u, a, b))

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    close(calc.A, to_vector(ref.A))
    close(calc.d0(u), to_vector(ref.d0(U)))
    close(calc.dstar(a), to_vector(ref.dstar(A)))
    close(calc.d1(a), to_vector(ref.d1(A)))
    close(calc.dplus(a), to_vector(ref.dplus(A)))
    for x, y, X, Y in ((a, b, A, B), (a, a, A, A), (u, u, U, U)):
        close(np.array(calc.inner(x, y)), np.array(ref.inner(X, Y)))


def test_moduli_pipeline_traced_peak_stays_under_10_mb():
    # the shipped moduli_suite run holds no (..., 2, 2) tangent and no
    # whole-grid table of connection partials; it peaked at 20.2 MB with
    # them, and at 7.8 MB without
    params = cli._PIPELINES["moduli"][0](cli._load_config(
        os.path.join(CONFIGS, "moduli_suite.json")))
    tracemalloc.start()
    try:
        checks, _ = cli._run_moduli(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["pass"] for c in checks)
    assert peak <= 10e6
