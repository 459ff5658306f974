"""Gauge calculus on the annulus times torus: connections, curvature,
anti-self-duality, holonomy, and the integral identities used as oracles.

Index conventions (see geometry.conventions_sheet): coordinates are ordered
(r, theta, x, y); connection components are coefficients of
(dr, dtheta, dx, dy); curvature components are stored in the pair order
[(r,th), (r,x), (r,y), (th,x), (th,y), (x,y)]; "unit frame" divides every
theta-paired slot by r, i.e. uses the orthonormal coframe
(dr, r dtheta, dx, dy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _su2
from .geometry import TWO_PI, DualTorusPoint, TorusSpec

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_THETA_PAIRED = (0, 3, 4)  # entries of PAIRS containing the theta index


class DomainError(ValueError):
    """Point outside the validity domain of a connection."""


class RadialDomain:
    """A field defined on the radii r >= r_min (its `r_min`), reported by
    its `name`."""

    def check_domain(self, points) -> None:
        if np.any(np.asarray(points)[..., 0] < self.r_min):
            raise DomainError(f"{self.name}: radius below r_min = {self.r_min}")


@dataclass
class ConnectionSource(RadialDomain):
    """A connection given by callables, vectorized over leading axes.

    evaluate(points): (..., 4) float -> (..., 4, 2, 2) complex, components
    (a_r, a_theta, a_x, a_y) in the coordinate coframe.
    derivative(points, axis): the exact partials of all four components
    with respect to coordinate `axis` (0..3), same shape. Every connection
    here is a closed form (a lift of an explicit Higgs pair, a flat
    connection, or a perturbation of one), so its partials are too; there
    is no finite-difference fallback.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray, int], np.ndarray]
    torus: TorusSpec
    r_min: float = 0.0
    name: str = "connection"


@dataclass
class CurvatureSample:
    """Curvature at one or many points; components ordered per PAIRS."""

    points: np.ndarray
    components: np.ndarray  # (..., 6, 2, 2)

    def unit_frame(self) -> np.ndarray:
        """Components in the orthonormal coframe (theta slots divided by r)."""
        out = np.array(self.components, copy=True)
        r = np.asarray(self.points)[..., 0]
        for k in _THETA_PAIRED:
            out[..., k, :, :] = out[..., k, :, :] / r[..., None, None]
        return out


def curvature(conn: ConnectionSource, points) -> CurvatureSample:
    """F_ab = d_a A_b - d_b A_a + [A_a, A_b] at the given points (..., 4)."""
    points = np.asarray(points, dtype=float)
    conn.check_domain(points)
    a = conn.evaluate(points)
    d = np.stack([conn.derivative(points, ax) for ax in range(4)], axis=-4)
    # d[..., i, j, :, :] = partial_i a_j
    comps = []
    for i, j in PAIRS:
        f = d[..., i, j, :, :] - d[..., j, i, :, :]
        f = f + _su2.comm(a[..., i, :, :], a[..., j, :, :])
        comps.append(f)
    return CurvatureSample(points=points, components=np.stack(comps, axis=-3))


def self_dual_part(sample: CurvatureSample) -> np.ndarray:
    """Coefficients (c1, c2, c3) of F on the self-dual basis, shape (...,3,2,2)."""
    fh = sample.unit_frame()
    c1 = 0.5 * (fh[..., 0, :, :] + fh[..., 5, :, :])
    c2 = 0.5 * (fh[..., 1, :, :] - fh[..., 4, :, :])
    c3 = 0.5 * (fh[..., 2, :, :] + fh[..., 3, :, :])
    return np.stack([c1, c2, c3], axis=-3)


def asd_residual(conn: ConnectionSource, points) -> np.ndarray:
    """Pointwise |F^+| (Frobenius aggregate over the self-dual coefficients)."""
    c = self_dual_part(curvature(conn, points))
    return np.sqrt(2.0 * np.sum(_su2.frob(c) ** 2, axis=-1))


def curvature_norm(conn: ConnectionSource, points, components: str = "all") -> np.ndarray:
    """Pointwise |F|; components='kahler' restricts to the (1,2) and (3,4)
    orthonormal-frame slots (the instanton-density pair), components='all'
    aggregates all six."""
    fh = curvature(conn, points).unit_frame()
    n2 = _su2.frob(fh) ** 2
    if components == "all":
        return np.sqrt(np.sum(n2, axis=-1))
    if components == "kahler":
        return np.sqrt(n2[..., 0] + n2[..., 5])
    raise ValueError("components must be 'all' or 'kahler'")


# ---------------------------------------------------------------------------
# holonomy

# the two Gauss-Legendre nodes 1/2 -+ sqrt(3)/6 of each Magnus step, as
# fractions of the step
GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0

# Magnus steps per loop of every circle holonomy an extraction reads: the
# fewest whose loop error, on rings 50-400 of three perturbed models, is
# at most a fifth of a 192-step midpoint rule's on every loop kind (the
# error budget is in CHANGES.md)
LOOP_STEPS = 24


def _step_times(steps: int) -> np.ndarray:
    """Gauss node times (k + GAUSS_NODES) / steps of each step k on [0, 1],
    shape (steps, 2)."""
    return (np.arange(steps)[:, None] + GAUSS_NODES) / steps


def _path_ordered_product(conn: ConnectionSource, pts: np.ndarray,
                          tans: np.ndarray) -> np.ndarray:
    """Path-ordered product of the transport h' = -A(gamma') h along paths
    gamma parametrized by t in [0, 1], over n steps of width 1/n.

    pts, tans: (n, 2, ..., 4), gamma and gamma' at the two Gauss nodes
    t_k,i = (k + GAUSS_NODES[i]) / n of each step k (see `_step_times`).
    Returns (..., 2, 2). Each step is exp(Omega) of the fourth-order
    Magnus expansion (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros
    2009): with b_i = -A(gamma(t_k,i)) . gamma'(t_k,i) / n,
    Omega = (b_1 + b_2) / 2 + (sqrt(3) / 12) [b_2, b_1], which lies in
    su(2). A step errs O(n^-5), so a loop's error falls 16-fold per
    halving of the step.
    The steps are multiplied as a pairwise tree (a parallel prefix,
    Blelloch 1990): each level halves the count, later steps kept on the
    left, an odd last step carried up unchanged. Rounding error then grows
    with log2(n) levels rather than n sequential products, so one SU(2)
    projection at the end suffices.
    """
    n = pts.shape[0]
    conn.check_domain(pts)
    a = conn.evaluate(pts)  # (n, 2, ..., 4, 2, 2)
    b = np.einsum("k...i,k...iab->k...ab", tans, a) / -n
    omega = 0.5 * (b[:, 0] + b[:, 1]) \
        + (math.sqrt(3.0) / 12.0) * _su2.comm(b[:, 1], b[:, 0])
    steps = _su2.expm_su2(omega)
    while len(steps) > 1:
        paired = _su2.mul(steps[1::2], steps[:-1:2])
        steps = np.concatenate([paired, steps[-1:]]) if len(steps) % 2 else paired
    return _su2.project_su2(steps[0])


def circle_paths(torus: TorusSpec, kind: str, bases: np.ndarray,
                 steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-node samples and tangents, each (steps, 2, B, 4), of the
    coordinate circles of one kind ('x', 'y' or 'theta') through each base
    point, for `steps` Magnus steps of `_path_ordered_product`."""
    bases = np.asarray(bases, dtype=float)
    t = _step_times(steps)
    axis = {"theta": 1, "x": 2, "y": 3}[kind]
    period = {"theta": TWO_PI, "x": torus.period_x, "y": torus.period_y}[kind]
    pts = np.broadcast_to(bases, t.shape + bases.shape).copy()
    pts[..., axis] += period * t[..., None]
    tans = np.zeros_like(pts)
    tans[..., axis] = period
    return pts, tans


def circle_holonomies(conn: ConnectionSource, kind: str, bases: np.ndarray,
                      steps: int = LOOP_STEPS) -> np.ndarray:
    """Batched holonomies of coordinate circles through each base point.

    kind: 'x', 'y' or 'theta'. bases: (B, 4). Returns (B, 2, 2).
    """
    return _path_ordered_product(
        conn, *circle_paths(conn.torus, kind, bases, steps))


def segment_transports(conn: ConnectionSource, waypoints: np.ndarray,
                       steps_per_seg: int = 32) -> np.ndarray:
    """Transport matrices along consecutive straight segments of a path,
    `steps_per_seg` Magnus steps (two connection evaluations each) per
    segment.

    waypoints: (m, 4). Returns (m-1, 2, 2), h_k transporting from
    waypoint k to waypoint k+1.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    t = _step_times(steps_per_seg)
    a, b = waypoints[:-1], waypoints[1:]
    pts = a + t[..., None, None] * (b - a)  # (steps_per_seg, 2, m-1, 4)
    tans = np.broadcast_to(b - a, pts.shape)
    return _path_ordered_product(conn, pts, tans)


# ---------------------------------------------------------------------------
# monodromy drift along a family of circles

@dataclass
class CircleFamily:
    """Family of closed circles phi(t, s), s the loop parameter in [0, 1),
    t the family parameter in [0, 1]; dphi_dt and dphi_ds are the exact
    partials. All maps are vectorized over broadcast (T, S) inputs and
    return (..., 4) arrays."""

    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dphi_dt: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dphi_ds: Callable[[np.ndarray, np.ndarray], np.ndarray]


# Magnus steps per circle of a monodromy-drift family
DRIFT_STEPS = 128


def monodromy_drift_defect(conn: ConnectionSource, family: CircleFamily,
                           n_t: int = 9) -> dict:
    """Checks |d/dt (h^-1 m h)| <= int |F(dphi/dt, dphi/ds)| ds along the
    family; returns the max signed defect (LHS - RHS), nonpositive up to
    discretization for true connections.

    m(t) is the circle holonomy at parameter t, h(t) the transport along
    the base path phi(., 0) from 0 to t. Each circle takes DRIFT_STEPS
    Magnus steps, and the curvature integral over s is the two-point Gauss
    rule on the same nodes.
    """
    ts = np.linspace(0.0, 1.0, n_t)

    # monodromies of every circle in the family, batched over t
    Sg, Tg = np.broadcast_arrays(_step_times(DRIFT_STEPS)[..., None], ts)
    pts = family.phi(Tg, Sg)  # (DRIFT_STEPS, 2, n_t, 4)
    tans = family.dphi_ds(Tg, Sg)
    m_t = _path_ordered_product(conn, pts, tans)  # (n_t, 2, 2)

    # base-path transports between consecutive t samples
    base = family.phi(ts, np.zeros_like(ts))
    hops = segment_transports(conn, base, steps_per_seg=max(8, 1024 // n_t))
    h = np.empty((n_t, 2, 2), dtype=complex)
    h[0] = _su2.EYE2
    for k in range(1, n_t):
        h[k] = _su2.mul(hops[k - 1], h[k - 1])

    M = _su2.mul(_su2.mul(_su2.dag(h), m_t), h)

    # centered derivative of M in t
    dt = ts[1] - ts[0]
    dM = _su2.frob((M[2:] - M[:-2]) / (2 * dt))

    # curvature contracted with the family surface element
    F = curvature(conn, pts).components  # (DRIFT_STEPS, 2, n_t, 6, 2, 2)
    u = family.dphi_dt(Tg, Sg)
    v = tans
    contract = np.zeros(F.shape[:-3] + (2, 2), dtype=complex)
    for k, (i, j) in enumerate(PAIRS):
        contract += F[..., k, :, :] * (
            u[..., i] * v[..., j] - u[..., j] * v[..., i]
        )[..., None, None]
    # integral over s: equal weights 1 / (2 DRIFT_STEPS) on the Gauss nodes
    rhs = np.mean(_su2.frob(contract), axis=(0, 1))

    defect = dM - rhs[1:-1]
    return {
        "defect": float(np.max(defect)),
        "lhs": dM,
        "rhs": rhs,
        "ts": ts,
    }


# ---------------------------------------------------------------------------
# flat model connections

def flat_connection(xi: DualTorusPoint, torus: TorusSpec) -> ConnectionSource:
    """Flat diagonal connection i diag(c, -c) dx + i diag(c', -c') dy with
    holonomy exponents given by the dual-torus point."""
    c1 = TWO_PI * xi.xi1 / torus.period_x
    c2 = TWO_PI * xi.xi2 / torus.period_y
    sigma3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (4, 2, 2), dtype=complex)
        out[..., 2, :, :] = 1j * c1 * sigma3
        out[..., 3, :, :] = 1j * c2 * sigma3
        return out

    def derivative(points, axis):
        points = np.asarray(points, dtype=float)
        return np.zeros(points.shape[:-1] + (4, 2, 2), dtype=complex)

    return ConnectionSource(evaluate=evaluate, torus=torus,
                            derivative=derivative, name="flat")


# ---------------------------------------------------------------------------
# quadratic-form identity on the annulus (integration by parts oracle)

class BoundaryConditionError(ValueError):
    """Fixture violates the radial boundary requirements."""


@dataclass(frozen=True)
class TrigRadialTerm:
    """One separable term  matrix * f(r) * cos(p theta + ph0) *
    cos(n x + ph1) * cos(m y + ph2)  occupying a single angular component.

    component: 1 = dtheta, 2 = dx, 3 = dy (0 = dr is rejected by the
    quadratic-form check; see weitzenbock_defect).
    """

    component: int
    matrix: tuple  # nested 2x2 complex-able
    radial_coeffs: tuple  # polynomial coefficients, low order first
    modes: tuple  # (p, n, m) integers
    phases: tuple = (0.0, 0.0, 0.0)

    def poly(self) -> np.polynomial.Polynomial:
        return np.polynomial.Polynomial(self.radial_coeffs)


@dataclass(frozen=True)
class SeparableOneForm:
    """Sum of TrigRadialTerm's; the radial component vanishes identically."""

    terms: tuple

    def max_modes(self) -> tuple[int, int, int]:
        ms = np.array([t.modes for t in self.terms], dtype=int)
        return tuple(np.max(np.abs(ms), axis=0)) if len(self.terms) else (0, 0, 0)


def _term_factors(term: TrigRadialTerm, rs, th, xs, ys, torus: TorusSpec):
    """The term's scalar factor f(r) cos(p th + ph0) cos(kx x + ph1)
    cos(ky y + ph2) is a product of four 1-D factors; returns each one with
    its exact derivative, sampled on the r, theta, x and y nodes."""
    def trig(k, s, ph):
        return np.cos(k * s + ph), -k * np.sin(k * s + ph)
    (p, n, m), ph = term.modes, term.phases
    f = term.poly()
    return ((f(rs), f.deriv()(rs)), trig(p, th, ph[0]),
            trig(TWO_PI * n / torus.period_x, xs, ph[1]),
            trig(TWO_PI * m / torus.period_y, ys, ph[2]))


def weitzenbock_defect(form: SeparableOneForm, gamma: DualTorusPoint | None,
                       r_inner: float, r_outer: float,
                       torus: TorusSpec) -> dict:
    r"""Quadratic-form identity for twisted 1-forms on [R, R'] x T^3:

        ||d_G a||^2 + ||d_G* a||^2 - ||grad_G a||^2
            + \int_{r=R} |a_theta / r|^2 dtheta dx dy   ->   0

    up to the outer-boundary counterpart (returned as `outer_term`), which
    vanishes when the dtheta radial profiles are 0 at R'. Requires the
    radial component to vanish identically (raises BoundaryConditionError
    otherwise); G is the flat diagonal twist of `gamma` (None = untwisted).

    Every integrand is |sum_k g_k M_k|^2 with constant matrices M_k and
    separable fields g_k = R_k(r) Th_k(theta) X_k(x) Y_k(y); on the tensor
    grid (48 Gauss-Legendre nodes in r, uniform in theta, x, y) each sum
    of g_k g_l is a product of four 1-D sums, so no 4-D field is ever
    formed.
    """
    if any(t.component == 0 for t in form.terms):
        raise BoundaryConditionError(
            "radial component present: the two-boundary identity requires "
            "the dr contraction to vanish on the whole annulus"
        )
    for t in form.terms:
        if t.component not in (1, 2, 3):
            raise ValueError("term component must be one of 1, 2, 3")

    pmax, nmax, mmax = form.max_modes()
    n_th = max(8, 4 * pmax + 4)
    n_x = max(8, 4 * nmax + 4)
    n_y = max(8, 4 * mmax + 4)

    nodes, wts = np.polynomial.legendre.leggauss(48)
    rs = 0.5 * (r_outer - r_inner) * nodes + 0.5 * (r_outer + r_inner)
    wr = 0.5 * (r_outer - r_inner) * wts
    th = np.linspace(0.0, TWO_PI, n_th, endpoint=False)
    xs = np.linspace(0.0, torus.period_x, n_x, endpoint=False)
    ys = np.linspace(0.0, torus.period_y, n_y, endpoint=False)
    w_ang = (TWO_PI / n_th) * (torus.period_x / n_x) * (torus.period_y / n_y)

    # flat twist: the diagonals of c * diag(i, -i)
    if gamma is not None:
        c1 = TWO_PI * gamma.xi1 / torus.period_x
        c2 = TWO_PI * gamma.xi2 / torus.period_y
    else:
        c1 = c2 = 0.0
    gx, gy = c1 * np.array([1j, -1j]), c2 * np.array([1j, -1j])

    def gram(entries, w_r):
        """Re<e_k, e_l> integrated over the tensor grid, for entries
        e = (R, Th, X, Y, M): the 1-D Gram matrices of the four factors
        multiplied elementwise, times the matrix Gram Re<M_k, M_l>."""
        if not entries:
            return np.zeros((0, 0))
        g = w_ang
        for axis, w in enumerate((w_r, 1.0, 1.0, 1.0)):
            f = np.stack([e[axis] for e in entries])
            g = g * ((f * w) @ f.T)
        m = np.stack([e[4] for e in entries]).astype(complex)
        m = m.view(float).reshape(len(entries), 8)
        return g * (m @ m.T)

    # covariant frame derivatives nabla_{alpha beta}, alpha,beta in 1..4,
    # of the unit-frame components ahat_beta (beta 2 <-> a_theta / r,
    # 3 <-> a_x, 4 <-> a_y, ahat_1 = 0); rows alpha: e1 = d_r,
    # e2 = (1/r) d_th (+ curvature corrections), e3 = d_x + [gx, .],
    # e4 = d_y + [gy, .]. Each is a sum of entries (R, Th, X, Y, M), one
    # separable real field times a constant matrix, labelled (alpha, beta);
    # nabla_{alpha 1} = 0 except for alpha = 2.
    labels, entries = [], []
    for t in form.terms:
        T = np.asarray(t.matrix, dtype=complex)
        (f, df), (c, dc), (cx, dcx), (cy, dcy) = _term_factors(
            t, rs, th, xs, ys, torus)
        beta = t.component + 1
        if t.component == 1:
            # ahat = f(r)/r * trig; product rule for the r-partial
            f, df = f / rs, (df - f / rs) / rs
            # -ahat_theta / r from nabla_{e2} e1
            labels.append((2, 1))
            entries.append((-f / rs, c, cx, cy, T))
        labels += [(alpha, beta) for alpha in (1, 2, 3, 3, 4, 4)]
        entries += [(df, c, cx, cy, T), (f / rs, dc, cx, cy, T),
                    (f, c, dcx, cy, T), (f, c, cx, cy, _su2.comm_diag(gx, T)),
                    (f, c, cx, dcy, T), (f, c, cx, cy, _su2.comm_diag(gy, T))]

    G = gram(entries, wr * rs)
    rows, cols = np.array(labels, dtype=int).reshape(-1, 2).T

    def sq(signs):
        """|sum_k signs_k e_k|^2 integrated: one quadratic form in G."""
        return float(signs @ G @ signs)

    def block(a, b):
        return ((rows == a) & (cols == b)).astype(float)

    grad_sq = sum(sq(block(a, b)) for a in range(1, 5) for b in range(1, 5))
    d_sq = sum(sq(block(a, b) - block(b, a))
               for a in range(1, 5) for b in range(a + 1, 5))
    # d* a = -(nabla_22 + nabla_33 + nabla_44); the sign drops out of |.|^2
    dstar_sq = sq((rows == cols).astype(float))

    # boundary integrals of |a_theta / r|^2 with measure dtheta dx dy: the
    # same Gram on a single radial node; only theta-component terms count
    def boundary(rho):
        entries = []
        for t in form.terms:
            if t.component == 1:
                (f, _), (c, _), (cx, _), (cy, _) = _term_factors(
                    t, np.array([rho]), th, xs, ys, torus)
                entries.append((f / rho, c, cx, cy, np.asarray(t.matrix)))
        return float(np.sum(gram(entries, 1.0)))

    inner_term = boundary(r_inner)
    outer_term = boundary(r_outer)
    defect = d_sq + dstar_sq - grad_sq + inner_term
    return {
        "defect": defect,
        "outer_term": outer_term,
        "grad_sq": grad_sq,
        "d_sq": d_sq,
        "dstar_sq": dstar_sq,
        "inner_term": inner_term,
    }


def random_quadratic_form_fixture(rng, r_outer: float) -> SeparableOneForm:
    """Random admissible fixture of four terms, each a random quadratic
    radial profile times trig modes |p|, |n|, |m| <= 2: a_r = 0, and every
    dtheta profile also carries the factor r - r_outer, so it vanishes at
    the outer radius (and the identity target is exactly zero)."""
    terms = []
    for _ in range(4):
        comp = int(rng.integers(1, 4))
        coeffs = rng.normal(size=3)
        poly = np.polynomial.Polynomial(coeffs)
        if comp == 1:
            poly = poly * np.polynomial.Polynomial([-r_outer, 1.0])
        mat = _su2.from_vector(rng.normal(size=3))
        modes = tuple(int(v) for v in rng.integers(-2, 3, size=3))
        phases = tuple(float(v) for v in rng.uniform(0, TWO_PI, size=3))
        terms.append(TrigRadialTerm(component=comp, matrix=tuple(map(tuple, mat)),
                                    radial_coeffs=tuple(poly.coef), modes=modes,
                                    phases=phases))
    return SeparableOneForm(terms=tuple(terms))
