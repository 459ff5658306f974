"""Model solutions on the annulus times torus and admissible perturbations.

The semisimple family is diagonal with complex monodromy exponent
zeta(w) = lambda + mu/w (holomorphic in w) and theta-holonomy exponent
alpha; the nilpotent model is the strictly-triangular Higgs pair
psi = N / (w ln r^2) with B = d + i diag(-1, 1) dtheta / ln r^2. Both are
defined as lifts of their Higgs pairs, so the reduction round trip is
exact by construction. As vectors (see `_su2`): the semisimple pair is
q = -i zeta(w) e3 with b_theta = alpha e3, and the nilpotent pair is
q = NILP / (w ln r^2) with b_theta = -e3 / ln r^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import E3, check_kind
from .gauge import ConnectionSource
from .geometry import TWO_PI, TorusSpec
from .hitchin import HiggsPairOnPlane, lift

# the strictly upper-triangular N = [[0, 1], [0, 0]] = i NILP.sigma
NILP = np.array([-0.5j, 0.5, 0.0])

DEFAULT_SEMISIMPLE_R_MIN = 1e-3
DEFAULT_NILPOTENT_R_MIN = math.sqrt(math.e)  # ln r^2 = 1


@dataclass(frozen=True)
class ModelParams:
    lam: complex = 0.0 + 0.0j
    mu: complex = 0.0 + 0.0j
    alpha: float = 0.0
    kind: str = "semisimple"

    def __post_init__(self):
        check_kind(self.kind)
        if not (-0.5 <= self.alpha < 0.5):
            raise ValueError("alpha must lie in [-1/2, 1/2)")
        if self.kind == "nilpotent" and any((self.lam, self.mu, self.alpha)):
            raise ValueError("the nilpotent model has no parameters: lambda, "
                             "mu and alpha must be 0")

    def to_json(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "mu": [self.mu.real, self.mu.imag],
            "alpha": self.alpha,
            "kind": self.kind,
        }


def hitchin_model(params: ModelParams, torus: TorusSpec) -> HiggsPairOnPlane:
    """Higgs pair of a model on the annulus beyond its core; closed-form
    fields and exact derivatives."""
    if params.kind == "semisimple":
        r0 = DEFAULT_SEMISIMPLE_R_MIN
        lam, mu, alpha = params.lam, params.mu, params.alpha

        def evaluate(points):
            points = np.asarray(points, dtype=float)
            b = np.zeros(points.shape[:-1] + (2, 3))
            b[..., 1, 2] = alpha
            w = points[..., 0] * np.exp(1j * points[..., 1])
            return b, (-1j * (lam + mu / w))[..., None] * E3

        def derivative(points):
            points = np.asarray(points, dtype=float)
            r = points[..., 0]
            w = r * np.exp(1j * points[..., 1])
            coef = np.stack([-mu / (w * r), -1j * mu / w], axis=-1)
            return (np.zeros(points.shape[:-1] + (2, 2, 3)),
                    (-1j * coef)[..., None] * E3)

        name = "semisimple-higgs"
    else:
        r0 = DEFAULT_NILPOTENT_R_MIN

        def evaluate(points):
            points = np.asarray(points, dtype=float)
            r = points[..., 0]
            w = r * np.exp(1j * points[..., 1])
            L = 2.0 * np.log(r)
            b = np.zeros(points.shape[:-1] + (2, 3))
            b[..., 1, 2] = -1.0 / L
            return b, (1.0 / (w * L))[..., None] * NILP

        def derivative(points):
            points = np.asarray(points, dtype=float)
            r = points[..., 0]
            w = r * np.exp(1j * points[..., 1])
            L = 2.0 * np.log(r)
            db = np.zeros(points.shape[:-1] + (2, 2, 3))
            db[..., 0, 1, 2] = 2.0 / (r * L ** 2)
            coef = np.stack([-(L + 2.0) / (w * r * L ** 2), -1j / (w * L)],
                            axis=-1)
            return db, coef[..., None] * NILP

        name = "nilpotent-higgs"

    return HiggsPairOnPlane(evaluate=evaluate, derivative=derivative,
                            torus=torus, r_min=r0, name=name)


def model_connection(params: ModelParams, torus: TorusSpec) -> ConnectionSource:
    """The model instanton: the lift of the model's Higgs pair."""
    conn = lift(hitchin_model(params, torus))
    conn.name = f"{params.kind}-model"
    return conn


# ---------------------------------------------------------------------------
# admissible perturbations

def _bump(u):
    """Smooth compactly supported bump on (-1, 1), max value 1 at 0."""
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui ** 2))
    return out


def _bump_deriv(u):
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui ** 2)) * (-2.0 * ui / (1.0 - ui ** 2) ** 2)
    return out


@dataclass(frozen=True)
class _PerturbTerm:
    component: int
    vector: np.ndarray  # su(2) vector v / (sqrt(2) |v|): Frobenius norm 1
    modes: tuple
    phases: tuple


@dataclass(frozen=True)
class _PerturbShell:
    """The terms sharing one radial bump, one per connection component,
    in component order."""
    center: float
    width: float
    terms: tuple


# radial bumps of a perturbation, and the largest |mode| of its trig waves
N_BUMPS = 6
MAX_MODE = 2


def _perturb_shells(seed: int, r_lo: float, r_hi: float) -> tuple:
    """The seeded random terms of `perturb`, grouped by radial bump."""
    rng = np.random.default_rng(seed)
    shells = []
    for rho in np.geomspace(r_lo, r_hi, N_BUMPS):
        terms = []
        for comp in range(4):
            v = rng.normal(size=3)
            unit = v / (math.sqrt(2.0) * np.linalg.norm(v))
            modes = tuple(int(k) for k in rng.integers(-MAX_MODE, MAX_MODE + 1,
                                                       size=3))
            phases = tuple(float(p) for p in rng.uniform(0.0, TWO_PI, size=3))
            terms.append(_PerturbTerm(component=comp, vector=unit,
                                      modes=modes, phases=phases))
        shells.append(_PerturbShell(center=float(rho), width=0.35 * float(rho),
                                    terms=tuple(terms)))
    return tuple(shells)


def _waves(coords, term: _PerturbTerm, torus: TorusSpec):
    """Wave numbers (p, k_x, k_y) of a term's trig waves in theta, x and y,
    and the waves' arguments (p theta + phase_0, ...) at coords, the
    (theta, x, y) coordinates as three arrays that broadcast together; the
    term's trig factor is the product of the three cosines."""
    p, n, m = term.modes
    ks = (p, TWO_PI * n / torus.period_x, TWO_PI * m / torus.period_y)
    return ks, [k * c + phase for k, c, phase in zip(ks, coords, term.phases)]


def _radial(r, u, delta: float):
    """Radial factor bump(u) r^-(1+delta), u = (r - center)/width."""
    return _bump(u) * r ** (-(1.0 + delta))


def perturb(conn: ConnectionSource, delta: float, amplitude: float,
            seed: int, r_lo: float, r_hi: float) -> ConnectionSource:
    """Adds a deterministic random perturbation with pointwise bound
    |a - a_base| <= amplitude * r^-(1+delta) and one derivative of matching
    decay: N_BUMPS compactly supported radial bumps, centred geometrically
    from r_lo to r_hi, times torus/theta trig waves of modes up to
    MAX_MODE, times unit su(2) directions drawn from `seed`, with exact
    derivatives added to the base's.

    A term's value, amplitude/2 g(r) (f0 f1 f2) times its su(2) direction,
    is written once (`term_value`) and read two ways. evaluate(points) adds
    every term at the points into base.evaluate(points). When the base has
    an along_circle (see gauge.ConnectionSource), so does the result: it
    broadcasts the base's along_circle over the coordinates and adds only
    the term's a_x or a_y, the one component a transport along the circle
    reads. On such a circle r, theta and the transverse coordinate are
    fixed, so the support test, g and two of the three cosines are taken
    once per circle and only the along-circle cosine once per node
    coordinate. A perturbation of a perturbation of a lift thus has one
    too.

    A term vanishes exactly outside its bump's support, so each shell's
    terms are evaluated only on the points (circles) inside that support
    and added there in one scatter (one per row of the table of partials);
    every sum equals, bit for bit, that of adding every term at every point
    (up to the sign of a zero, which adding an exact zero term can flip).
    The sums are taken in place in the base's fresh arrays."""
    if delta <= 0 or amplitude < 0:
        raise ValueError("need delta > 0 and amplitude >= 0")
    torus = conn.torus
    shells = _perturb_shells(seed, r_lo, r_hi)
    half_amp = amplitude / 2.0

    def _live_shells(points):
        """(shell, flat indices, points, u) for every shell whose support
        holds some of the (n, 4) points; u is computed as _bump sees it."""
        r = points[:, 0]
        for shell in shells:
            u = (r - shell.center) / shell.width
            idx = np.flatnonzero(np.abs(u) < 1.0)
            if idx.size:
                yield shell, idx, points[idx], u[idx]

    def term_value(term, g, coords):
        """The term at the (theta, x, y) coords, g its radial factor there:
        (..., 3) over the coords' broadcast shape."""
        f0, f1, f2 = (np.cos(arg) for arg in _waves(coords, term, torus)[1])
        return half_amp * (g * (f0 * f1 * f2))[..., None] * term.vector

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        out = conn.evaluate(points)
        lead = points.shape[:-1]
        for shell, idx, pts, u in _live_shells(points.reshape(-1, 4)):
            g = _radial(pts[:, 0], u, delta)
            block = np.empty((idx.size, 4, 3))
            for term in shell.terms:
                block[:, term.component] = term_value(term, g, pts[:, 1:].T)
            out[np.unravel_index(idx, lead)] += block
        return out

    def along_circle(kind, bases, coords):
        axis = {"x": 2, "y": 3}[kind]
        along = np.asarray(coords, dtype=float)
        a = conn.along_circle(kind, bases, along)
        out = np.broadcast_to(a, along.shape + a.shape[-2:]).copy()
        along = along[..., None]
        for shell, idx, pts, u in _live_shells(np.asarray(bases, dtype=float)):
            wave_coords = [pts[:, 1], pts[:, 2], pts[:, 3]]
            wave_coords[axis - 1] = along
            out[..., idx, :] += term_value(
                shell.terms[axis], _radial(pts[:, 0], u, delta), wave_coords)
        return out

    def derivative(points):
        points = np.asarray(points, dtype=float)
        out = np.ascontiguousarray(conn.derivative(points))
        flat = out.reshape(-1, 4, 4, 3)
        for shell, idx, pts, u in _live_shells(points.reshape(-1, 4)):
            r = pts[:, 0]
            g = _radial(r, u, delta)
            dg = (_bump_deriv(u) / shell.width) * r ** (-(1.0 + delta)) \
                + _bump(u) * (-(1.0 + delta)) * r ** (-(2.0 + delta))
            # partials[t][i]: partial_i of term t's scalar factor
            partials = []
            for term in shell.terms:
                (p, kx, ky), args = _waves(pts[:, 1:].T, term, torus)
                f0, f1, f2 = np.cos(args)
                s0, s1, s2 = np.sin(args)
                partials.append((dg * (f0 * f1 * f2),
                                 g * (-p * s0 * f1 * f2),
                                 g * (-kx * s1 * f0 * f2),
                                 g * (-ky * s2 * f0 * f1)))
            block = np.empty((idx.size, 4, 3))
            for axis in range(4):
                for term, d in zip(shell.terms, partials):
                    block[:, term.component] = (
                        half_amp * d[axis][:, None] * term.vector)
                flat[idx, axis] += block
        return out

    return ConnectionSource(
        evaluate=evaluate, torus=conn.torus, derivative=derivative,
        r_min=conn.r_min, name=f"{conn.name}+perturbation",
        along_circle=None if conn.along_circle is None else along_circle,
    )
