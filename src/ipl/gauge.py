"""Gauge calculus on the annulus times torus: connections, curvature,
anti-self-duality, holonomy, and the integral identities used as oracles.

Index conventions (see geometry.conventions_sheet): coordinates are ordered
(r, theta, x, y); connection components are coefficients of
(dr, dtheta, dx, dy); curvature components are stored in the pair order
[(r,th), (r,x), (r,y), (th,x), (th,y), (x,y)]. `curvature` returns them in
the unit frame, the orthonormal coframe (dr, r dtheta, dx, dy): every
theta-paired slot divided by r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from typing import Callable

import numpy as np

from . import _su2
from .geometry import TWO_PI, DualTorusPoint, TorusSpec

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
AXES = (0, 1, 2, 3)  # every coordinate axis: the whole table of partials
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

    evaluate(points): (..., 4) float -> (..., 4, 3) float, components
    (a_r, a_theta, a_x, a_y) in the coordinate coframe, each the su(2)
    vector v of i v.sigma.
    derivative(points, axes=AXES): (..., 4) float -> (..., len(axes), 4, 3)
    float, the rows `axes` (distinct coordinate indices) of the table of
    exact partials, entry [..., i, j] = partial_i a_j: bit for bit
    table[..., axes, :, :], formed without the other rows where the
    constructor can skip them (`perturb` does). Every connection here is a
    closed form (a lift of an explicit Higgs pair, a flat connection, or a
    perturbation of one), so its partials are too; there is no
    finite-difference fallback.
    Each call of either returns a new array that the caller may write to
    (`perturb` adds into its base's table in place).
    along_circle(kind, bases, coords), when set: the along-circle component
    (a_x for kind 'x', a_y for 'y') on the circles of that kind through the
    base points bases (B, 4), at the along-circle coordinates coords (S...):
    the circle through b meets coordinate s at (b_r, b_theta, s, b_y) for
    'x', (b_r, b_theta, b_x, s) for 'y'. It returns (S..., B, 3), or
    (B, 3) when the component is constant along every circle, as a new
    array the caller may write to. Only the constructors that know the
    component's form along the circles set it: `hitchin.lift` and
    `flat_connection` (through `read_along_circle_at_base`), and `perturb`
    on a base that has one. `circle_holonomies` then takes the x- and
    y-circles from it.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    torus: TorusSpec
    r_min: float = 0.0
    name: str = "connection"
    along_circle: Callable | None = None


def read_along_circle_at_base(conn: ConnectionSource) -> ConnectionSource:
    """Gives conn, whose components depend on (r, theta) alone, the
    along_circle that reads them once per circle, at its base point: a
    (B, 3) result. It reads through conn's evaluate as set at call time,
    so a wrapper installed on evaluate later sees every read. Returns
    conn."""
    def along_circle(kind, bases, coords):
        return conn.evaluate(bases)[:, {"x": 2, "y": 3}[kind]]

    conn.along_circle = along_circle
    return conn


def curvature(conn: ConnectionSource, points) -> np.ndarray:
    """F_ab = d_a A_b - d_b A_a + [A_a, A_b] at the given points (..., 4),
    in the unit frame: (..., 6, 3) in PAIRS order."""
    points = np.asarray(points, dtype=float)
    conn.check_domain(points)
    f = _field_strength(conn.evaluate(points), conn.derivative(points), PAIRS)
    inv_r = 1.0 / points[..., 0, None]
    for k in _THETA_PAIRED:
        f[..., k, :] *= inv_r
    return f


def _field_strength(a, d, pairs, axes=AXES) -> np.ndarray:
    """F_ij = d_i A_j - d_j A_i + [A_i, A_j] for each (i, j) of pairs, from
    the components a (..., 4, 3) and the rows `axes` of the table of their
    partials d (..., len(axes), 4, 3), which hold both indices of every
    pair: (..., len(pairs), 3)."""
    out = np.empty(a.shape[:-2] + (len(pairs), 3))
    for k, (i, j) in enumerate(pairs):
        f = out[..., k, :]
        np.subtract(d[..., axes.index(i), j, :], d[..., axes.index(j), i, :],
                    out=f)
        f += _su2.comm_vector(a[..., i, :], a[..., j, :])
    return out


def self_dual(f: np.ndarray, axis: int = -2) -> np.ndarray:
    """Coefficients (c1, c2, c3) on the self-dual basis of the 2-form with
    six unit-frame components f in PAIRS order along `axis`."""
    f = np.moveaxis(f, axis, 0)
    return np.stack([f[0] + f[5], f[1] - f[4], f[2] + f[3]], axis=axis) * 0.5


def interior(f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """i_v F (..., 4, 3), entry j = sum_i v_i F_ij, for the 2-form f
    (..., 6, 3) in PAIRS order and vectors v (..., 4) broadcast to its
    leading axes; a component of v that is zero everywhere is skipped."""
    f = np.ascontiguousarray(np.moveaxis(f, -2, 0))  # whole slots, unstrided
    out = np.zeros((4,) + f.shape[1:])
    for k, (i, j) in enumerate(PAIRS):
        if np.any(v[..., i]):
            out[j] += v[..., i, None] * f[k]
        if np.any(v[..., j]):
            out[i] -= v[..., j, None] * f[k]
    return np.moveaxis(out, 0, -2)


def asd_residual(conn: ConnectionSource, points) -> np.ndarray:
    """Pointwise |F^+| (Frobenius aggregate over the self-dual coefficients)."""
    c = self_dual(curvature(conn, points))
    return np.sqrt(2.0 * np.sum(_su2.frob_vector(c) ** 2, axis=-1))


def curvature_norm(conn: ConnectionSource, points, components: str = "all") -> np.ndarray:
    """Pointwise |F|; components='kahler' restricts to the (1,2) and (3,4)
    orthonormal-frame slots (the instanton-density pair), components='all'
    aggregates all six."""
    n2 = _su2.frob_vector(curvature(conn, points)) ** 2
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

# Magnus steps per loop of every circle holonomy an extraction samples
# (every theta-circle, and the x- and y-circles whose along_circle is not
# constant along them): the fewest whose loop error, on rings 50-400 of
# three perturbed models, is at most a fifth of a 192-step midpoint rule's
# on every loop kind (the error budget is in CHANGES.md)
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
    Returns the SU(2) pairs (..., 2), the `_magnus_product` of the
    generators b_i = -A(gamma(t_k,i)) . gamma'(t_k,i) / n.
    """
    conn.check_domain(pts)
    return _magnus_product(_magnus_generators(conn.evaluate(pts), tans))


def _magnus_generators(a: np.ndarray, tans: np.ndarray) -> np.ndarray:
    """The su(2) generators b = -A . gamma' / n (n, 2, ..., 3) of
    `_magnus_product`, from the connection a (n, 2, ..., 4, 3) sampled at
    the path's Gauss nodes and the tangents tans (n, 2, ..., 4) there."""
    t = tans[..., None]
    b = t[..., 0, :] * a[..., 0, :]  # sum_i tans_i a_i / -n
    for i in range(1, 4):
        b += t[..., i, :] * a[..., i, :]
    b /= -len(a)
    return b


def _magnus_product(b: np.ndarray) -> np.ndarray:
    """Product of n transport steps from their su(2) Magnus generators b
    (n, 2, ..., 3), b_i = -A . gamma' / n at the step's two Gauss nodes
    (see `_magnus_generators`). Returns the SU(2) pairs (..., 2) (see
    `_su2`).

    Each step is exp(Omega) of the fourth-order Magnus expansion (Iserles &
    Norsett 1999; Blanes, Casas, Oteo & Ros 2009):
    Omega = (b_1 + b_2) / 2 + (sqrt(3) / 12) [b_2, b_1], which lies in
    su(2). A step errs O(n^-5), so a loop's error falls 16-fold per
    halving of the step.
    The steps are multiplied as a pairwise tree (a parallel prefix,
    Blelloch 1990): each level halves the count, later steps kept on the
    left, an odd last step carried up unchanged. Rounding error then grows
    with log2(n) levels rather than n sequential products, so one SU(2)
    projection at the end suffices.
    """
    omega = 0.5 * (b[:, 0] + b[:, 1]) \
        + (math.sqrt(3.0) / 12.0) * _su2.comm_vector(b[:, 1], b[:, 0])
    steps = _su2.expm_su2(omega)
    while len(steps) > 1:
        paired = _su2.mul(steps[1::2], steps[:-1:2])
        steps = np.concatenate([paired, steps[-1:]]) if len(steps) % 2 else paired
    return _su2.project_su2(steps[0])


def line_paths(starts, delta, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-node samples and tangents, each (steps, 2, B, 4), of the paths
    start + t delta, t in [0, 1], from each start (B, 4) along delta (4 or
    (B, 4)), for `steps` Magnus steps of `_path_ordered_product`."""
    pts = starts + _step_times(steps)[..., None, None] * delta
    return pts, np.broadcast_to(delta, pts.shape)


def circle_paths(torus: TorusSpec, kind: str, bases: np.ndarray,
                 steps: int) -> tuple[np.ndarray, np.ndarray]:
    """`line_paths` once around the coordinate circles of one kind ('x',
    'y' or 'theta') through each base point."""
    delta = np.diag((0.0, TWO_PI, torus.period_x, torus.period_y))
    return line_paths(bases, delta[{"theta": 1, "x": 2, "y": 3}[kind]], steps)


def circle_holonomies(conn: ConnectionSource, kind: str, bases: np.ndarray,
                      steps: int = LOOP_STEPS) -> np.ndarray:
    """Holonomies of the coordinate circles of one kind ('x', 'y' or
    'theta') through each base point bases (B, 4): the SU(2) pairs (B, 2).
    This is where a loop's route is chosen.

    Theta-circles, and every circle of a connection without an
    along_circle, take the path-ordered product of `steps` Magnus steps,
    from two evaluations of the connection per step. An x-circle
    (y-circle) of a connection with an along_circle reads only a_x (a_y),
    the one component its transport sees, through along_circle: when it is
    constant along every circle (a lift, a flat connection), once per
    loop at its base point, and the loop is exp(-L a) in closed form, L the
    circle's period; otherwise (a perturbed one) at the loop's nodes,
    scaled into the Magnus generators -(L / steps) a. The nodes are shared
    by the batch, so a batch whose bases start their circles at different
    along-circle coordinates is sampled by the path-ordered product.
    """
    bases = np.asarray(bases, dtype=float)
    axis = {"x": 2, "y": 3}.get(kind)
    if axis is None or conn.along_circle is None \
            or np.any(bases[:, axis] != bases[0, axis]):
        return _path_ordered_product(
            conn, *circle_paths(conn.torus, kind, bases, steps))
    conn.check_domain(bases)
    L = conn.torus.period_x if kind == "x" else conn.torus.period_y
    a = conn.along_circle(kind, bases,
                          bases[0, axis] + L * _step_times(steps))
    if a.ndim == 2:  # constant along each circle
        return _su2.expm_su2(-L * a)
    # -(L / steps) a, rounded as _path_ordered_product rounds
    # sum_i tans_i a_i / -n
    a *= L
    a /= -steps
    return _magnus_product(a)


# ---------------------------------------------------------------------------
# monodromy drift along a family of circles

# Magnus steps per circle of a monodromy-drift family: the least power of
# two whose step-halving difference |d_N - d_{N/2}| stays under a tenth of
# the drift tolerance 1e-3 with margin. Over five tori (2pi x 2pi, 4 x 7,
# 0.5 x 0.5, 1 x 30, 30 x 1) and seeds 0-59 of the inequality suite's three
# families, 32 steps gave at most 2.15e-5 (4.6 times under 1e-4) and 16
# steps 9.3e-5; the largest |d_32 - d_512| was 1.45e-6, 0.15 % of the
# tolerance (the sweep is in CHANGES.md)
DRIFT_STEPS = 32


def monodromy_drift_defect(conn: ConnectionSource, origin, dphi_dt, dphi_ds,
                           n_t: int, steps: int = DRIFT_STEPS) -> dict:
    """Checks |d/dt (h^-1 m h)| <= int |F(dphi/dt, dphi/ds)| ds along the
    family of closed circles phi(t, s) = origin + t dphi_dt + s dphi_ds
    (4-vectors; s in [0, 1) the loop parameter, t in [0, 1] the family
    parameter); returns the max signed defect (LHS - RHS), nonpositive up
    to discretization for true connections.

    m(t) is the circle holonomy at parameter t, h(t) the transport along
    the base path phi(., 0) from 0 to t. As h' = -A(dphi/dt) h,
    d/dt (h^-1 m h) = h^-1 (m' + [A(dphi/dt), m]) h, and conjugation keeps
    the Frobenius norm: the LHS is |m' + [A(dphi/dt), m]|, the covariant
    derivative of the circle holonomy at its base point, read from the
    centred difference of m and one evaluation of A at the base points.
    Each circle takes `steps` Magnus steps, and the curvature integral over
    s is the two-point Gauss rule on the same nodes: one evaluation of the
    connection there feeds both the circle transports and the curvature.
    Only the curvature components F_ij whose coefficient in
    F(dphi/dt, dphi/ds) is nonzero are formed, in PAIRS order (a skipped
    one would add an exact zero), from only the rows of the table of
    partials that they read.
    """
    origin, dphi_dt, dphi_ds = (np.asarray(v, dtype=float)
                                for v in (origin, dphi_dt, dphi_ds))
    ts = np.linspace(0.0, 1.0, n_t)

    # every circle in the family, batched over t, at its Gauss nodes
    base = origin + ts[:, None] * dphi_dt  # (n_t, 4)
    pts, tans = line_paths(base, dphi_ds, steps)
    conn.check_domain(pts)
    a = conn.evaluate(pts)
    m_t = _magnus_product(_magnus_generators(a, tans))  # (n_t, 2)

    # A(dphi/dt) at the base points
    a_base = conn.evaluate(base)
    a_t = dphi_dt[0] * a_base[:, 0]
    for i in range(1, 4):
        a_t += dphi_dt[i] * a_base[:, i]

    # centered derivative of m in t, made covariant: m' = Re p' I + i u'.sigma
    # and [A, m] = i comm_vector(a_t, u).sigma, so the Frobenius norm is
    # sqrt(2 ((Re p')^2 + |u' + comm_vector(a_t, u)|^2))
    dm = (m_t[2:] - m_t[:-2]) / (2 * (ts[1] - ts[0]))
    cov = _su2.vector_part(dm) \
        + _su2.comm_vector(a_t[1:-1], _su2.vector_part(m_t[1:-1]))
    lhs = np.sqrt(2.0 * (dm[:, 0].real ** 2 + np.sum(cov ** 2, axis=-1)))

    # curvature contracted with the family surface element
    coeff = {(i, j): dphi_dt[i] * dphi_ds[j] - dphi_dt[j] * dphi_ds[i]
             for i, j in PAIRS}
    live = [pair for pair in PAIRS if coeff[pair]]
    axes = tuple(sorted({i for pair in live for i in pair}))
    F = _field_strength(a, conn.derivative(pts, axes), live, axes)
    contract = np.zeros(pts.shape[:-1] + (3,))
    for k, pair in enumerate(live):
        contract += F[..., k, :] * coeff[pair]
    # integral over s: equal weights 1 / (2 steps) on the Gauss nodes
    rhs = np.mean(_su2.frob_vector(contract), axis=(0, 1))

    defect = lhs - rhs[1:-1]
    return {
        "defect": float(np.max(defect)),
        "lhs": lhs,
        "rhs": rhs,
        "ts": ts,
    }


# ---------------------------------------------------------------------------
# flat model connections

def flat_connection(xi: DualTorusPoint, torus: TorusSpec) -> ConnectionSource:
    """Flat diagonal connection i c sigma3 dx + i c' sigma3 dy, the vectors
    (0, 0, c) and (0, 0, c'), with holonomy exponents given by the
    dual-torus point, a point of torus's dual."""
    if xi.torus != torus:
        raise ValueError("xi is a point of another torus's dual")
    c1, c2 = xi.c

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (4, 3))
        out[..., 2, 2] = c1
        out[..., 3, 2] = c2
        return out

    def derivative(points, axes=AXES):
        points = np.asarray(points, dtype=float)
        return np.zeros(points.shape[:-1] + (len(axes), 4, 3))

    return read_along_circle_at_base(ConnectionSource(
        evaluate=evaluate, torus=torus, derivative=derivative, name="flat"))


# ---------------------------------------------------------------------------
# quadratic-form identity on the annulus (integration by parts oracle)

class BoundaryConditionError(ValueError):
    """Fixture violates the radial boundary requirements."""


@dataclass(frozen=True)
class TrigRadialTerm:
    """One separable term  i(vector . sigma) * f(r) * cos(p theta + ph0) *
    cos(n x + ph1) * cos(m y + ph2)  occupying a single angular component.

    component: 1 = dtheta, 2 = dx, 3 = dy (0 = dr is rejected by the
    quadratic-form check; see weitzenbock_defect).
    """

    component: int
    vector: tuple  # the su(2) vector, three reals
    radial_coeffs: tuple  # polynomial coefficients, low order first
    modes: tuple  # (p, n, m) integers
    phases: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SeparableOneForm:
    """Sum of TrigRadialTerm's; the radial component vanishes identically."""

    terms: tuple

    def max_modes(self) -> tuple[int, int, int]:
        ms = np.array([t.modes for t in self.terms], dtype=int)
        return tuple(np.max(np.abs(ms), axis=0)) if len(self.terms) else (0, 0, 0)


def _term_factors(terms, rs, th, xs, ys, torus: TorusSpec):
    """Each term's scalar factor f(r) cos(p th + ph0) cos(kx x + ph1)
    cos(ky y + ph2) is a product of four 1-D factors; returns each one with
    its exact derivative, sampled on the r, theta, x and y nodes, as pairs
    of (len(terms), nodes) arrays, row t for terms[t]."""
    def trig(k, s, ph):
        arg = k[:, None] * s + ph[:, None]
        return np.cos(arg), -k[:, None] * np.sin(arg)
    def horner(c):  # in numpy's polyval order
        return reduce(lambda acc, ck: acc * rs + ck[:, None], c.T[-2::-1],
                      np.full((len(c), len(rs)), c[:, -1:]))
    # the profiles' coefficients, low order first, zero-padded to one
    # length: a leading zero keeps Horner's sums those of the term's own
    # coefficients, bit for bit
    n = max((len(t.radial_coeffs) for t in terms), default=1)
    c = np.zeros((len(terms), n))
    for row, t in zip(c, terms):
        row[:len(t.radial_coeffs)] = t.radial_coeffs
    dc = np.zeros((len(terms), max(n - 1, 1)))
    dc[:, :n - 1] = np.arange(1, n) * c[:, 1:]
    modes = np.array([t.modes for t in terms], dtype=float).reshape(-1, 3)
    ph = np.array([t.phases for t in terms], dtype=float).reshape(-1, 3)
    return ((horner(c), horner(dc)), trig(modes[:, 0], th, ph[:, 0]),
            trig(TWO_PI * modes[:, 1] / torus.period_x, xs, ph[:, 1]),
            trig(TWO_PI * modes[:, 2] / torus.period_y, ys, ph[:, 2]))


@cache
def _radial_gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 48 Gauss-Legendre nodes and weights on [-1, 1] of the radial
    quadrature, computed on first use (read-only: every call shares them)."""
    nodes, wts = np.polynomial.legendre.leggauss(48)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


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

    Every integrand is |sum_k g_k M_k|^2 with constant su(2) vectors M_k and
    separable fields g_k = R_k(r) Th_k(theta) X_k(x) Y_k(y); on the tensor
    grid (48 Gauss-Legendre nodes in r, uniform in theta, x, y) each sum
    of g_k g_l is a product of four 1-D sums, so no 4-D field is ever
    formed. Each entry k is labelled by the covariant derivative
    nabla_{alpha beta} it adds to, and the Gram of all entries, summed over
    each pair of labels, is the form Q[ab, cd] = <nabla_ab, nabla_cd>:
    ||grad a||^2, ||d a||^2 and ||d* a||^2 are sums of its entries.
    """
    if gamma is not None and gamma.torus != torus:
        raise ValueError("gamma is a point of another torus's dual")
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

    nodes, wts = _radial_gauss_legendre()
    rs = 0.5 * (r_outer - r_inner) * nodes + 0.5 * (r_outer + r_inner)
    wr = 0.5 * (r_outer - r_inner) * wts
    th = np.linspace(0.0, TWO_PI, n_th, endpoint=False)
    xs = np.linspace(0.0, torus.period_x, n_x, endpoint=False)
    ys = np.linspace(0.0, torus.period_y, n_y, endpoint=False)
    w_ang = (TWO_PI / n_th) * (torus.period_x / n_x) * (torus.period_y / n_y)

    # flat twist: i c sigma3, the vector (0, 0, c)
    c1, c2 = (0.0, 0.0) if gamma is None else gamma.c
    gx, gy = (0.0, 0.0, c1), (0.0, 0.0, c2)

    def angular_gram(Th, X, Y, M):
        """<e_k, e_l> integrated over the (theta, x, y) grid, for entries
        e_k = Th_k X_k Y_k M_k: the 1-D Gram matrices of the three factors
        multiplied elementwise, times the su(2) Gram <M_k, M_l> =
        2 M_k.M_l; contracted by einsum, no BLAS call."""
        g = (2.0 * w_ang) * np.einsum("ki,li->kl", M, M)
        for F in (Th, X, Y):
            g *= np.einsum("kn,ln->kl", F, F)
        return g

    # every term's factors in one pass, on the radial nodes and the two
    # boundary radii R, R'
    rho = np.array([r_inner, r_outer])
    (f, df), (c, dc), (cx, dcx), (cy, dcy) = _term_factors(
        form.terms, np.concatenate([rs, rho]), th, xs, ys, torus)
    comp = np.array([t.component for t in form.terms], dtype=int)
    theta = comp == 1
    f_edge, f, df = f[theta, -2:] / rho, f[:, :-2], df[:, :-2]
    # unit frame: ahat_theta = a_theta / r, its r-partial by the product rule
    f_r = f / rs
    df = np.where(theta[:, None], (df - f_r) / rs, df)
    f = np.where(theta[:, None], f_r, f)
    f_r = f / rs
    vectors = np.array([t.vector for t in form.terms], float).reshape(-1, 3)
    twist_x = _su2.comm_vector(gx, vectors)
    twist_y = _su2.comm_vector(gy, vectors)

    # covariant frame derivatives nabla_{alpha beta}, alpha,beta in 0..3,
    # of the unit-frame components ahat_beta (beta 1 <-> a_theta / r,
    # 2 <-> a_x, 3 <-> a_y, ahat_0 = 0); rows alpha: e0 = d_r,
    # e1 = (1/r) d_th (+ curvature corrections), e2 = d_x + [gx, .],
    # e3 = d_y + [gy, .]. Each is a sum of entries (R, Th, X, Y, M), one
    # separable real field times a constant su(2) vector, labelled
    # (alpha, beta); below, one line of entries per alpha and kind, a row
    # per term, beta its component. nabla_{alpha 0} = 0 except for
    # alpha = 1: -ahat_theta / r from nabla_{e1} e0.
    entries = ((0, comp, df, c, cx, cy, vectors),
               (1, comp, f_r, dc, cx, cy, vectors),
               (2, comp, f, c, dcx, cy, vectors),
               (2, comp, f, c, cx, cy, twist_x),
               (3, comp, f, c, cx, dcy, vectors),
               (3, comp, f, c, cx, cy, twist_y),
               (1, 0 * comp[theta], -f_r[theta], c[theta], cx[theta],
                cy[theta], vectors[theta]))
    label = np.concatenate([4 * alpha + beta for alpha, beta, *_ in entries])
    R, Th, X, Y, M = (np.concatenate(part)
                      for part in list(zip(*entries))[2:])
    G = angular_gram(Th, X, Y, M) * np.einsum("kn,ln->kl", R * (wr * rs), R)
    # Q[a, b, c, d] = <nabla_ab, nabla_cd>: the Gram summed over each pair
    # of labels
    Q = np.bincount((16 * label[:, None] + label).ravel(), weights=G.ravel(),
                    minlength=256).reshape(4, 4, 4, 4)
    grad_sq = float(np.einsum("abab->", Q))
    a, b = np.triu_indices(4, 1)
    d_sq = float(np.sum(Q[a, b, a, b] + Q[b, a, b, a]
                        - Q[a, b, b, a] - Q[b, a, a, b]))
    # d* a = -(nabla_11 + nabla_22 + nabla_33); the sign drops out of |.|^2
    dstar_sq = float(np.einsum("aacc->", Q))

    # boundary integrals of |a_theta / r|^2 with measure dtheta dx dy: the
    # angular Gram of the theta-component terms at r = R and at r = R'
    inner_term, outer_term = map(float, np.einsum(
        "kj,kl,lj->j", f_edge,
        angular_gram(c[theta], cx[theta], cy[theta], vectors[theta]), f_edge))
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
        if comp == 1:
            coeffs = np.convolve(coeffs, [-r_outer, 1.0])
        vector = tuple(float(v) for v in rng.normal(size=3))
        modes = tuple(int(v) for v in rng.integers(-2, 3, size=3))
        phases = tuple(float(v) for v in rng.uniform(0, TWO_PI, size=3))
        terms.append(TrigRadialTerm(component=comp, vector=vector,
                                    radial_coeffs=tuple(coeffs), modes=modes,
                                    phases=phases))
    return SeparableOneForm(terms=tuple(terms))
