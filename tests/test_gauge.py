"""Tests for curvature sampling, self-dual projection, holonomy transport,
the drift inequality and the annulus quadratic-form identity."""

import math

import numpy as np
import pytest

from ipl import _su2
from ipl.gauge import (
    BoundaryConditionError,
    ConnectionSource,
    DomainError,
    SeparableOneForm,
    TrigRadialTerm,
    circle_holonomies,
    curvature,
    curvature_norm,
    flat_connection,
    monodromy_drift_defect,
    random_quadratic_form_fixture,
    segment_transports,
    self_dual_part,
    weitzenbock_defect,
)
from ipl.geometry import TorusSpec, reduce_dual
from ipl.models import ModelParams, model_connection, perturb

TORUS = TorusSpec()
SIGMA3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])


def rand_points(rng, n, r_lo=5.0, r_hi=80.0):
    pts = np.empty((n, 4))
    pts[:, 0] = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=n))
    pts[:, 1] = rng.uniform(0, 2 * math.pi, size=n)
    pts[:, 2] = rng.uniform(0, TORUS.period_x, size=n)
    pts[:, 3] = rng.uniform(0, TORUS.period_y, size=n)
    return pts


def test_flat_connection_curvature_vanishes():
    conn = flat_connection(reduce_dual((0.3, 0.2), TORUS), TORUS)
    pts = rand_points(np.random.default_rng(0), 20)
    F = curvature(conn, pts).components
    assert np.max(np.abs(F)) == 0.0


def test_curvature_of_explicit_radial_field():
    # a_x = i g(r) sigma3 with g = 1/r: the only nonzero coordinate-frame
    # component is F_rx = g'(r) = -1/r^2 (abelian, no commutator term)
    def evaluate(points):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (4, 2, 2), dtype=complex)
        out[..., 2, :, :] = (1j / points[..., 0])[..., None, None] * SIGMA3
        return out

    def derivative(points, axis):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (4, 2, 2), dtype=complex)
        if axis == 0:
            out[..., 2, :, :] = (-1j / points[..., 0] ** 2)[..., None, None] * SIGMA3
        return out

    conn = ConnectionSource(evaluate=evaluate, torus=TORUS,
                            derivative=derivative, r_min=1e-6)
    pts = rand_points(np.random.default_rng(2), 10)
    F = curvature(conn, pts)
    expected = (-1j / pts[:, 0] ** 2)[:, None, None] * SIGMA3
    # pair order (r,th), (r,x), (r,y), (th,x), (th,y), (x,y)
    assert np.max(np.abs(F.components[..., 1, :, :] - expected)) < 1e-13
    for k in (0, 2, 3, 4, 5):
        assert np.max(np.abs(F.components[..., k, :, :])) < 1e-13


def test_self_dual_projection_matches_hand_formula():
    conn = model_connection(ModelParams(lam=0.05j, mu=0.7, alpha=0.1), TORUS)
    pts = rand_points(np.random.default_rng(3), 8)
    sample = curvature(conn, pts)
    fh = sample.unit_frame()
    c = self_dual_part(sample)
    assert np.allclose(c[..., 0, :, :],
                       0.5 * (fh[..., 0, :, :] + fh[..., 5, :, :]))
    assert np.allclose(c[..., 1, :, :],
                       0.5 * (fh[..., 1, :, :] - fh[..., 4, :, :]))
    assert np.allclose(c[..., 2, :, :],
                       0.5 * (fh[..., 2, :, :] + fh[..., 3, :, :]))


def test_curvature_norm_component_split():
    conn = model_connection(ModelParams(mu=1.0), TORUS)
    pts = rand_points(np.random.default_rng(4), 8)
    full = curvature_norm(conn, pts)
    kah = curvature_norm(conn, pts, components="kahler")
    assert np.all(kah <= full + 1e-15)
    with pytest.raises(ValueError):
        curvature_norm(conn, pts, components="bogus")


def test_domain_guard():
    conn = model_connection(ModelParams(mu=1.0), TORUS)  # r_min > 0
    with pytest.raises(DomainError):
        curvature(conn, np.array([[0.0, 0.0, 0.0, 0.0]]))


def test_flat_holonomy_closed_form():
    # transport h' = -A(gamma') h along the x-circle of length Lx gives
    # exp(-i c1 Lx sigma3) = diag(exp(-2 pi i xi1), exp(+2 pi i xi1))
    xi = reduce_dual((0.3, 0.2), TORUS)
    conn = flat_connection(xi, TORUS)
    base = np.array([[10.0, 0.0, 0.0, 0.0]])
    h = circle_holonomies(conn, "x", base, steps=256)[0]
    expected = np.diag([np.exp(-2j * math.pi * 0.3),
                        np.exp(+2j * math.pi * 0.3)])
    assert np.max(np.abs(h - expected)) < 1e-12

    hy = circle_holonomies(conn, "y", base, steps=256)[0]
    expected_y = np.diag([np.exp(-2j * math.pi * 0.2),
                          np.exp(+2j * math.pi * 0.2)])
    assert np.max(np.abs(hy - expected_y)) < 1e-12


def test_abelian_theta_holonomy_closed_form():
    # semisimple model theta component is i alpha sigma3, so the theta
    # monodromy is exp(-2 pi i alpha sigma3) for any radius
    alpha = 0.2
    conn = model_connection(ModelParams(alpha=alpha), TORUS)
    bases = np.array([[12.0, 0.0, 1.0, 2.0], [70.0, 0.0, 0.5, 0.1]])
    mats = circle_holonomies(conn, "theta", bases, steps=512)
    expected = np.diag([np.exp(-2j * math.pi * alpha),
                        np.exp(+2j * math.pi * alpha)])
    assert np.max(np.abs(mats - expected)) < 1e-10


def test_holonomy_is_special_unitary():
    conn = perturb(flat_connection(reduce_dual((0.1, 0.4), TORUS), TORUS),
                   amplitude=0.3, seed=5, r_lo=5.0, r_hi=50.0)
    base = np.array([[20.0, 0.0, 2.0, 1.0]])
    h = circle_holonomies(conn, "theta", base, steps=512)[0]
    assert _su2.su2_defect(h) < 1e-10


def test_segment_transports_compose():
    conn = model_connection(ModelParams(lam=0.1, mu=0.5, alpha=0.1), TORUS)
    way = np.array([[10.0, 0.0, 0.0, 0.0],
                    [20.0, 0.5, 1.0, 0.5],
                    [30.0, 1.0, 2.0, 1.0]])
    hops = segment_transports(conn, way, steps_per_seg=256)
    direct = segment_transports(conn, way[[0, 2]], steps_per_seg=512)
    # composing the two hops along the same polyline path differs from the
    # straight-line transport, but both must be special unitary
    assert _su2.su2_defect(hops[1] @ hops[0]) < 1e-10
    assert _su2.su2_defect(direct[0]) < 1e-10


def test_drift_defect_zero_for_flat():
    conn = flat_connection(reduce_dual((0.25, 0.1), TORUS), TORUS)
    Lx = TORUS.period_x

    def phi(t, s):
        t, s = np.broadcast_arrays(np.asarray(t, float), np.asarray(s, float))
        out = np.zeros(t.shape + (4,))
        out[..., 0] = 10.0 + 5.0 * t
        out[..., 2] = Lx * s
        out[..., 3] = 1.0
        return out

    def dphi_dt(t, s):
        t, s = np.broadcast_arrays(np.asarray(t, float), np.asarray(s, float))
        out = np.zeros(t.shape + (4,))
        out[..., 0] = 5.0
        return out

    def dphi_ds(t, s):
        t, s = np.broadcast_arrays(np.asarray(t, float), np.asarray(s, float))
        out = np.zeros(t.shape + (4,))
        out[..., 2] = Lx
        return out

    from ipl.gauge import CircleFamily
    fam = CircleFamily(phi=phi, dphi_dt=dphi_dt, dphi_ds=dphi_ds)
    d = monodromy_drift_defect(conn, fam, n_t=9)
    assert d["defect"] <= 1e-12
    assert np.max(np.abs(d["rhs"])) < 1e-15


def test_weitzenbock_identity_on_random_fixtures():
    rng = np.random.default_rng(7)
    for j in range(6):
        form = random_quadratic_form_fixture(rng, 9.0)
        gamma = None if j % 2 == 0 else reduce_dual((0.37, 0.61), TORUS)
        d = weitzenbock_defect(form, gamma, 3.0, 9.0, torus=TORUS)
        scale = max(1.0, d["grad_sq"])
        assert abs(d["defect"]) / scale < 1e-10
        assert abs(d["outer_term"]) < 1e-10


def _dense_weitzenbock(form, gamma, r_in, r_out, torus, n_r=48):
    """Tensor-grid reference for weitzenbock_defect on its nodes: every
    nabla_{alpha beta} (zero-based frame indices) as a matrix-valued field
    on the (theta, x, y) grid, and w |.|_F^2 summed point by point, one
    Gauss-Legendre radial node at a time."""
    pmax, nmax, mmax = form.max_modes()
    n_th, n_x, n_y = (max(8, 4 * k + 4) for k in (pmax, nmax, mmax))
    nodes, wts = np.polynomial.legendre.leggauss(n_r)
    rs = 0.5 * (r_out - r_in) * nodes + 0.5 * (r_out + r_in)
    wr = 0.5 * (r_out - r_in) * wts
    Lx, Ly = torus.period_x, torus.period_y
    TH, X, Y = np.meshgrid(np.linspace(0, 2 * math.pi, n_th, endpoint=False),
                           np.linspace(0, Lx, n_x, endpoint=False),
                           np.linspace(0, Ly, n_y, endpoint=False),
                           indexing="ij")
    w_ang = (2 * math.pi / n_th) * (Lx / n_x) * (Ly / n_y)
    xi = (0.0, 0.0) if gamma is None else (gamma.xi1, gamma.xi2)
    twist = [2 * math.pi * xi[0] / Lx * 1j * SIGMA3,
             2 * math.pi * xi[1] / Ly * 1j * SIGMA3]

    def field(scalar, M):
        return scalar[..., None, None] * M

    def nabla(r):
        nab = np.zeros((4, 4) + TH.shape + (2, 2), dtype=complex)
        for t in form.terms:
            T = np.asarray(t.matrix, dtype=complex)
            p, n, m = t.modes
            kx, ky = 2 * math.pi * n / Lx, 2 * math.pi * m / Ly
            ph = t.phases
            ct, st = np.cos(p * TH + ph[0]), np.sin(p * TH + ph[0])
            cx, sx = np.cos(kx * X + ph[1]), np.sin(kx * X + ph[1])
            cy, sy = np.cos(ky * Y + ph[2]), np.sin(ky * Y + ph[2])
            f, df = t.poly()(r), t.poly().deriv()(r)
            if t.component == 1:  # unit frame: ahat = a_theta / r
                f, df = f / r, df / r - f / r ** 2
            a = f * ct * cx * cy
            b = t.component
            nab[0, b] += field(df * ct * cx * cy, T)
            nab[1, b] += field(-p * f * st * cx * cy / r, T)
            for row, (k, trig) in ((2, (kx, ct * sx * cy)),
                                   (3, (ky, ct * cx * sy))):
                g = twist[row - 2]
                nab[row, b] += field(-k * f * trig, T) \
                    + field(a, g @ T - T @ g)
            if t.component == 1:
                nab[1, 0] += field(-a / r, T)
        return nab

    def nsq(F):
        return float(np.sum(np.abs(F) ** 2))

    out = dict.fromkeys(("grad_sq", "d_sq", "dstar_sq"), 0.0)
    for r, w in zip(rs, wr * rs * w_ang):
        nab = nabla(r)
        out["grad_sq"] += w * nsq(nab)
        out["d_sq"] += w * sum(nsq(nab[a, b] - nab[b, a])
                               for a in range(4) for b in range(a + 1, 4))
        out["dstar_sq"] += w * nsq(nab[1, 1] + nab[2, 2] + nab[3, 3])
    for key, rho in (("inner_term", r_in), ("outer_term", r_out)):
        out[key] = w_ang * nsq(nabla(rho)[1, 0] * -rho)  # |a_theta / r|^2
    out["defect"] = (out["d_sq"] + out["dstar_sq"] - out["grad_sq"]
                     + out["inner_term"])
    return out


def test_weitzenbock_matches_dense_tensor_grid_sum():
    rng = np.random.default_rng(23)
    n_theta_terms = 0
    for j in range(10):
        form = random_quadratic_form_fixture(rng, 9.0)
        gamma = None if j % 2 == 0 else reduce_dual(
            (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)), TORUS)
        got = weitzenbock_defect(form, gamma, 3.0, 9.0, torus=TORUS)
        ref = _dense_weitzenbock(form, gamma, 3.0, 9.0, TORUS)
        # defect and outer_term are zero up to rounding: compare on the
        # scale of grad_sq
        for key, value in ref.items():
            assert got[key] == pytest.approx(
                value, rel=1e-13, abs=1e-13 * ref["grad_sq"]), key
        n_theta_terms += sum(t.component == 1 for t in form.terms)
    assert n_theta_terms > 0


def test_weitzenbock_closed_form_single_dx_mode():
    # a_x = c T cos(kx x): the only nonzero entry is nabla_33, so
    # grad_sq = dstar_sq = |T|^2 c^2 kx^2 pi (R'^2 - R^2) Lx Ly / 2
    torus = TorusSpec(period_x=1.3, period_y=0.7)
    c, n, r_in, r_out = 1.7, 2, 3.0, 9.0
    T = _su2.from_vector([0.3, -1.1, 0.4])
    term = TrigRadialTerm(component=2, matrix=tuple(map(tuple, T)),
                          radial_coeffs=(c,), modes=(0, n, 0))
    d = weitzenbock_defect(SeparableOneForm(terms=(term,)), None,
                           r_in, r_out, torus=torus)
    kx = 2 * math.pi * n / torus.period_x
    exact = (np.sum(np.abs(T) ** 2) * c ** 2 * kx ** 2 * math.pi
             * (r_out ** 2 - r_in ** 2) * torus.period_x * torus.period_y / 2)
    assert d["grad_sq"] == pytest.approx(exact, rel=1e-14)
    assert d["dstar_sq"] == pytest.approx(exact, rel=1e-14)
    assert abs(d["d_sq"]) <= 1e-14 * exact
    assert abs(d["defect"]) <= 1e-14 * exact
    assert d["inner_term"] == d["outer_term"] == 0.0


@pytest.mark.parametrize("component, error", [
    (0, BoundaryConditionError), (4, ValueError)])
def test_weitzenbock_rejects_bad_components(component, error):
    term = TrigRadialTerm(component=component, matrix=((1j, 0), (0, -1j)),
                          radial_coeffs=(1.0,), modes=(1, 1, 0))
    with pytest.raises(error) as info:
        weitzenbock_defect(SeparableOneForm(terms=(term,)), None, 3.0, 9.0,
                           torus=TORUS)
    # a component-4 term is a plain ValueError, not a boundary violation
    assert (info.type is BoundaryConditionError) == (component == 0)

