"""Model solutions on the annulus times torus and admissible perturbations.

The semisimple family is diagonal with complex monodromy exponent
zeta(w) = lambda + mu/w (holomorphic in w) and theta-holonomy exponent
alpha; the nilpotent model is the strictly-triangular Higgs pair
psi = N / (w ln r^2) with B = d + i diag(-1, 1) dtheta / ln r^2. Both are
defined as lifts of their Higgs pairs, so the reduction round trip is
exact by construction. As vectors (see `_su2`): the semisimple pair is
q = -i zeta(w) e3 with b_theta = alpha e3, and the nilpotent pair is
q = NILP / (w ln r^2) with b_theta = -e3 / ln r^2. A kind is one of
KINDS. `perturb` adds seeded decaying terms to a model, radial shells
of trig waves along unit su(2) directions, each shell's four terms held
as (4, 3) arrays, one row per connection component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._su2 import E3
from .gauge import AXES, ConnectionSource
from .geometry import TWO_PI, TorusSpec
from .hitchin import HiggsPairOnPlane, lift

# the strictly upper-triangular N = [[0, 1], [0, 0]] = i NILP.sigma
NILP = np.array([-0.5j, 0.5, 0.0])

DEFAULT_SEMISIMPLE_R_MIN = 1e-3
DEFAULT_NILPOTENT_R_MIN = math.sqrt(math.e)  # ln r^2 = 1
# the two asymptotic kinds: the curvature of a semisimple end decays like
# 1/r^2, that of a nilpotent end like 1/(r ln r)^2
KINDS = ("semisimple", "nilpotent")


def check_kind(kind) -> None:
    """Raises ValueError unless kind is one of KINDS."""
    if kind not in KINDS:
        raise ValueError("kind must be 'semisimple' or 'nilpotent'")


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
class _PerturbShell:
    """The terms sharing one radial bump, row j for component j."""
    center: float
    width: float
    vectors: np.ndarray  # (4, 3) v / (sqrt(2) |v|): Frobenius norm 1
    modes: np.ndarray  # (4, 3) integer modes of the theta, x and y waves
    phases: np.ndarray  # (4, 3) phases of the theta, x and y waves


# radial bumps of a perturbation, and the largest |mode| of its trig waves
N_BUMPS = 6
MAX_MODE = 2


def _perturb_shells(seed: int, r_lo: float, r_hi: float) -> tuple:
    """The seeded random terms of `perturb`, grouped by radial bump."""
    rng = np.random.default_rng(seed)
    shells = []
    for rho in np.geomspace(r_lo, r_hi, N_BUMPS):
        # a (vector, modes, phases) draw per component, in component order
        rows = [(rng.normal(size=3),
                 rng.integers(-MAX_MODE, MAX_MODE + 1, size=3),
                 rng.uniform(0.0, TWO_PI, size=3)) for _ in range(4)]
        v, modes, phases = map(np.array, zip(*rows))
        units = np.array([x / (math.sqrt(2.0) * np.linalg.norm(x)) for x in v])
        shells.append(_PerturbShell(float(rho), 0.35 * float(rho), units,
                                    modes, phases))
    return tuple(shells)


def _radial(r, u, delta: float):
    """Radial factor bump(u) r^-(1+delta), u = (r - center)/width."""
    return _bump(u) * r ** (-(1.0 + delta))


def perturb(conn: ConnectionSource, delta: float, amplitude: float,
            seed: int, r_lo: float, r_hi: float) -> ConnectionSource:
    """Adds a deterministic random perturbation with pointwise bound
    |a - a_base| <= amplitude * r^-(1+delta) and one derivative of matching
    decay, with exact derivatives added to the base's. Its N_BUMPS shells
    are radial bumps g(r) centred geometrically from r_lo to r_hi; a
    shell's term in component j is amplitude/2 g(r) f0 f1 f2 times a unit
    su(2) direction drawn from `seed`, f_i = cos(k_i s_i + phase_i) over
    s = (theta, x, y), k = (p, 2 pi n / L_x, 2 pi m / L_y), modes up to
    MAX_MODE. Row j of a shell's directions, modes and phases is component
    j, so a reader forms all four components in one pass, points on the
    last axis (numpy's inner loop): evaluate(points) adds them into
    base.evaluate(points), derivative(points, axes) their (n, len(axes),
    4 components) partials into the base's rows `axes`, forming no other
    row. When the base has an along_circle (see gauge.ConnectionSource), so
    does the result, and a perturbation of a perturbation of a lift thus
    has one too: it adds row a_x or a_y, the one component a transport
    along the circle reads, to the base's reader, taking the support test,
    g and the two transverse cosines once per circle and the along-circle
    cosine once per node.

    A term vanishes exactly outside its bump's support, so each shell is
    added only on the points (circles) inside that support, in one scatter
    into the base's fresh arrays; every sum equals, bit for bit, that of
    adding every term at every point (up to the sign of a zero, which
    adding an exact zero term can flip)."""
    if delta <= 0 or amplitude < 0:
        raise ValueError("need delta > 0 and amplitude >= 0")
    half_amp = amplitude / 2.0
    # each shell with its wave numbers k (4, 3), row j for component j
    periods = (conn.torus.period_x, conn.torus.period_y)
    shells = [(sh, np.column_stack([sh.modes[:, 0],
                                    TWO_PI * sh.modes[:, 1:] / periods]))
              for sh in _perturb_shells(seed, r_lo, r_hi)]

    def waves(k, phases, s):  # the waves' arguments, points on a new last axis
        return k[..., None] * s + phases[..., None]

    def _live_shells(points):
        """(shell, k, flat indices, points, u) for every shell whose support
        holds some of the (n, 4) points; u is computed as _bump sees it."""
        r = points[:, 0]
        for shell, k in shells:
            u = (r - shell.center) / shell.width
            idx = np.flatnonzero(np.abs(u) < 1.0)
            if idx.size:
                yield shell, k, idx, points[idx], u[idx]

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        out, lead = conn.evaluate(points), points.shape[:-1]
        for shell, k, idx, pts, u in _live_shells(points.reshape(-1, 4)):
            f = np.cos(waves(k, shell.phases, pts.T[1:]))
            g = _radial(pts[:, 0], u, delta)
            term = half_amp * (g * (f[:, 0] * f[:, 1] * f[:, 2]))
            out[np.unravel_index(idx, lead)] += (
                term * shell.vectors.T[..., None]).T
        return out

    def along_circle(kind, bases, coords):
        axis, j = {"x": (2, 1), "y": (3, 2)}[kind]  # j: the along-circle wave
        along = np.asarray(coords, dtype=float)
        a = conn.along_circle(kind, bases, along)
        out = np.broadcast_to(a, along.shape + a.shape[-2:]).copy()
        for shell, k, idx, pts, u in _live_shells(np.asarray(bases, float)):
            kr, phr = k[axis], shell.phases[axis]
            f = list(np.cos(waves(kr, phr, pts.T[1:])))
            f[j] = np.cos(waves(kr[j], phr[j], along[..., None]))
            g = _radial(pts[:, 0], u, delta)
            term = half_amp * (g * (f[0] * f[1] * f[2]))[..., None]
            out[..., idx, :] += term * shell.vectors[axis]
        return out

    def derivative(points, axes=AXES):
        points = np.asarray(points, dtype=float)
        out = np.ascontiguousarray(conn.derivative(points, axes))
        flat = out.reshape(-1, len(axes), 4, 3)
        # the rows of axes that are torus-wave partials, their waves, and
        # the two other waves of each
        rows = [n for n, i in enumerate(axes) if i]
        wave = np.array([axes[n] - 1 for n in rows], dtype=int)
        other = np.array([1, 0, 0])[wave], np.array([2, 2, 1])[wave]
        for shell, k, idx, pts, u in _live_shells(points.reshape(-1, 4)):
            r = pts[:, 0]
            g = _radial(r, u, delta)
            args = waves(k, shell.phases, pts.T[1:])
            f = np.cos(args)
            # d[j, n]: partial_axes[n] of term j's scalar factor, by the
            # product rule
            d = np.empty((4, len(axes), idx.size))
            if 0 in axes:
                dg = (_bump_deriv(u) / shell.width) * r ** (-(1.0 + delta)) \
                    + _bump(u) * (-(1.0 + delta)) * r ** (-(2.0 + delta))
                d[:, axes.index(0)] = dg * (f[:, 0] * f[:, 1] * f[:, 2])
            if rows:
                d[:, rows] = g * (-k[:, wave, None] * np.sin(args[:, wave])
                                  * f[:, other[0]] * f[:, other[1]])
            flat[idx] += (half_amp * d * shell.vectors.T[..., None, None]).T
        return out

    return ConnectionSource(
        evaluate=evaluate, torus=conn.torus, derivative=derivative,
        r_min=conn.r_min, name=f"{conn.name}+perturbation",
        along_circle=None if conn.along_circle is None else along_circle,
    )
