"""Model solutions on the annulus times torus and admissible perturbations.

The semisimple family is diagonal with complex monodromy exponent
zeta(w) = lambda + mu/w (holomorphic in w) and theta-holonomy exponent
alpha; the nilpotent model is the strictly-triangular Higgs pair
psi = N / (w ln r^2) with B = d + i diag(-1, 1) dtheta / ln r^2. Both are
defined as lifts of their Higgs pairs, so the reduction round trip is
exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _su2
from .gauge import ConnectionSource
from .geometry import TWO_PI, TorusSpec
from .hitchin import HiggsPairOnPlane, lift

SIGMA3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])
NILP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
DIAG_MINUS_PLUS = np.diag([-1.0 + 0.0j, 1.0 + 0.0j])

DEFAULT_SEMISIMPLE_R_MIN = 1e-3
DEFAULT_NILPOTENT_R_MIN = math.sqrt(math.e)  # ln r^2 = 1


@dataclass(frozen=True)
class ModelParams:
    lam: complex = 0.0 + 0.0j
    mu: complex = 0.0 + 0.0j
    alpha: float = 0.0
    kind: str = "semisimple"

    def __post_init__(self):
        if self.kind not in ("semisimple", "nilpotent"):
            raise ValueError("kind must be 'semisimple' or 'nilpotent'")
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

        def evaluate_b(points):
            points = np.asarray(points, dtype=float)
            out = np.zeros(points.shape[:-1] + (2, 2, 2), dtype=complex)
            out[..., 1, :, :] = 1j * alpha * SIGMA3
            return out

        def derivative_b(points, axis):
            points = np.asarray(points, dtype=float)
            return np.zeros(points.shape[:-1] + (2, 2, 2), dtype=complex)

        def evaluate_psi(points):
            points = np.asarray(points, dtype=float)
            w = points[..., 0] * np.exp(1j * points[..., 1])
            return (lam + mu / w)[..., None, None] * SIGMA3

        def derivative_psi(points, axis):
            points = np.asarray(points, dtype=float)
            r = points[..., 0]
            w = r * np.exp(1j * points[..., 1])
            if axis == 0:
                coef = -mu / (w * r)
            else:
                coef = -1j * mu / w
            return coef[..., None, None] * SIGMA3

        name = "semisimple-higgs"
    else:
        r0 = DEFAULT_NILPOTENT_R_MIN

        def evaluate_b(points):
            points = np.asarray(points, dtype=float)
            L = 2.0 * np.log(points[..., 0])
            out = np.zeros(points.shape[:-1] + (2, 2, 2), dtype=complex)
            out[..., 1, :, :] = (1j / L)[..., None, None] * DIAG_MINUS_PLUS
            return out

        def derivative_b(points, axis):
            points = np.asarray(points, dtype=float)
            out = np.zeros(points.shape[:-1] + (2, 2, 2), dtype=complex)
            if axis == 0:
                r = points[..., 0]
                L = 2.0 * np.log(r)
                coef = -2j / (r * L ** 2)
                out[..., 1, :, :] = coef[..., None, None] * DIAG_MINUS_PLUS
            return out

        def evaluate_psi(points):
            points = np.asarray(points, dtype=float)
            r = points[..., 0]
            w = r * np.exp(1j * points[..., 1])
            L = 2.0 * np.log(r)
            return (1.0 / (w * L))[..., None, None] * NILP

        def derivative_psi(points, axis):
            points = np.asarray(points, dtype=float)
            r = points[..., 0]
            w = r * np.exp(1j * points[..., 1])
            L = 2.0 * np.log(r)
            if axis == 0:
                coef = -(L + 2.0) / (w * r * L ** 2)
            else:
                coef = -1j / (w * L)
            return coef[..., None, None] * NILP

        name = "nilpotent-higgs"

    return HiggsPairOnPlane(
        evaluate_b=evaluate_b, evaluate_psi=evaluate_psi,
        derivative_b=derivative_b, derivative_psi=derivative_psi,
        torus=torus, r_min=r0, name=name,
    )


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
    matrix: np.ndarray  # su(2), Frobenius norm 1
    modes: tuple
    phases: tuple


@dataclass(frozen=True)
class _PerturbShell:
    """The terms sharing one radial bump, one per connection component."""
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
            mat = _su2.from_vector(v / (math.sqrt(2.0) * np.linalg.norm(v)))
            modes = tuple(int(k) for k in rng.integers(-MAX_MODE, MAX_MODE + 1,
                                                       size=3))
            phases = tuple(float(p) for p in rng.uniform(0.0, TWO_PI, size=3))
            terms.append(_PerturbTerm(component=comp, matrix=mat,
                                      modes=modes, phases=phases))
        shells.append(_PerturbShell(center=float(rho), width=0.35 * float(rho),
                                    terms=tuple(terms)))
    return tuple(shells)


def _angular(points, term: _PerturbTerm, torus: TorusSpec, want_derivs=False):
    """Trig factor of a term and, with want_derivs, its theta/x/y partials."""
    th, x, y = points[..., 1], points[..., 2], points[..., 3]
    p, n, m = term.modes
    kx, ky = TWO_PI * n / torus.period_x, TWO_PI * m / torus.period_y
    f0 = np.cos(p * th + term.phases[0])
    f1 = np.cos(kx * x + term.phases[1])
    f2 = np.cos(ky * y + term.phases[2])
    if not want_derivs:
        return f0 * f1 * f2
    d0 = -p * np.sin(p * th + term.phases[0]) * f1 * f2
    d1 = -kx * np.sin(kx * x + term.phases[1]) * f0 * f2
    d2 = -ky * np.sin(ky * y + term.phases[2]) * f0 * f1
    return f0 * f1 * f2, d0, d1, d2


def _radial(r, u, width: float, delta: float, want_deriv=False):
    """Radial factor bump(u) r^-(1+delta), u = (r - center)/width, and with
    want_deriv its r-derivative."""
    env = r ** (-(1.0 + delta))
    g = _bump(u) * env
    if not want_deriv:
        return g
    dg = (_bump_deriv(u) / width) * env + _bump(u) * (
        -(1.0 + delta)) * r ** (-(2.0 + delta))
    return g, dg


def perturb(conn: ConnectionSource, delta: float = 0.5, amplitude: float = 0.05,
            seed: int = 0, r_lo: float = 5.0,
            r_hi: float = 600.0) -> ConnectionSource:
    """Adds a deterministic random perturbation with pointwise bound
    |a - a_base| <= amplitude * r^-(1+delta) and one derivative of matching
    decay: N_BUMPS compactly supported radial bumps, centred geometrically
    from r_lo to r_hi, times torus/theta trig waves of modes up to
    MAX_MODE, times unit su(2) directions drawn from `seed`, with exact
    derivatives added to the base's.

    A term vanishes exactly outside its bump's support, so each shell's
    terms are evaluated only on the points inside that support; every sum
    equals, bit for bit, that of adding every term at every point (up to
    the sign of a zero, which adding an exact zero term can flip)."""
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

    base_eval, base_deriv = conn.evaluate, conn.derivative

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        out = np.array(base_eval(points), copy=True, order="C")
        flat = out.reshape(-1, 4, 2, 2)
        for shell, idx, pts, u in _live_shells(points.reshape(-1, 4)):
            g = _radial(pts[:, 0], u, shell.width, delta)
            for term in shell.terms:
                c = _angular(pts, term, torus)
                flat[idx, term.component] += (
                    half_amp * (g * c)[:, None, None] * term.matrix)
        return out

    def derivative(points, axis):
        points = np.asarray(points, dtype=float)
        out = np.array(base_deriv(points, axis), copy=True, order="C")
        flat = out.reshape(-1, 4, 2, 2)
        for shell, idx, pts, u in _live_shells(points.reshape(-1, 4)):
            if axis == 0:
                _, dg = _radial(pts[:, 0], u, shell.width, delta,
                                want_deriv=True)
            else:
                g = _radial(pts[:, 0], u, shell.width, delta)
            for term in shell.terms:
                if axis == 0:
                    coef = dg * _angular(pts, term, torus)
                else:
                    coef = g * _angular(pts, term, torus,
                                        want_derivs=True)[axis]
                flat[idx, term.component] += (
                    half_amp * coef[:, None, None] * term.matrix)
        return out

    return ConnectionSource(
        evaluate=evaluate, torus=conn.torus, derivative=derivative,
        r_min=conn.r_min, name=f"{conn.name}+perturbation",
    )
