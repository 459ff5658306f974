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
of trig waves along unit su(2) directions, a seed's terms drawn straight
into (N_BUMPS, 4, 3) arrays, one row per shell and connection component.
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


def _model_batch(params) -> tuple:
    """(kind, parameter arrays, n_models) of one ModelParams, or of a
    sequence of them of one kind; an array is the Python number itself for
    one model, and a (M, 1) array for a batch of M, to broadcast against
    points (..., M, P) on the model axis. Each model's -i mu is formed in
    Python, as one model's closed forms form it."""
    single = isinstance(params, ModelParams)
    batch = (params,) if single else tuple(params)
    kinds = {p.kind for p in batch}
    if len(kinds) != 1:
        raise ValueError("a batch of models needs at least one model and "
                         "one kind")
    values = [(p.lam, p.mu, -1j * p.mu, p.alpha) for p in batch]
    if single:
        return kinds.pop(), values[0], None
    return (kinds.pop(), tuple(np.array(c)[:, None] for c in zip(*values)),
            len(batch))


def _check_model_axis(points, n_models) -> np.ndarray:
    """points as floats; on a batch of n_models models, ValueError unless
    they are (..., n_models, P, d)."""
    points = np.asarray(points, dtype=float)
    if n_models is not None and (points.ndim < 3
                                 or points.shape[-3] != n_models):
        raise ValueError(f"points of a batch of {n_models} models need the "
                         f"model axis, shape (..., {n_models}, P, d); got "
                         f"{points.shape}")
    return points


def hitchin_model(params, torus: TorusSpec) -> HiggsPairOnPlane:
    """Higgs pair of a model on the annulus beyond its core; closed-form
    fields and exact derivatives. params is one ModelParams, or a sequence
    of them of one kind: a batch, whose fields take points (..., M, P, 2)
    with the model axis M (see gauge.ConnectionSource.n_models)."""
    kind, (lam, mu, neg_i_mu, alpha), n_models = _model_batch(params)
    if kind == "semisimple":
        r0 = DEFAULT_SEMISIMPLE_R_MIN

        def evaluate(points):
            points = _check_model_axis(points, n_models)
            b = np.zeros(points.shape[:-1] + (2, 3))
            b[..., 1, 2] = alpha
            w = points[..., 0] * np.exp(1j * points[..., 1])
            return b, (-1j * (lam + mu / w))[..., None] * E3

        def derivative(points):
            points = _check_model_axis(points, n_models)
            r = points[..., 0]
            w = r * np.exp(1j * points[..., 1])
            coef = np.stack([-mu / (w * r), neg_i_mu / w], axis=-1)
            return (np.zeros(points.shape[:-1] + (2, 2, 3)),
                    (-1j * coef)[..., None] * E3)

        name = "semisimple-higgs"
    else:
        r0 = DEFAULT_NILPOTENT_R_MIN

        def evaluate(points):
            points = _check_model_axis(points, n_models)
            r = points[..., 0]
            w = r * np.exp(1j * points[..., 1])
            L = 2.0 * np.log(r)
            b = np.zeros(points.shape[:-1] + (2, 3))
            b[..., 1, 2] = -1.0 / L
            return b, (1.0 / (w * L))[..., None] * NILP

        def derivative(points):
            points = _check_model_axis(points, n_models)
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


def model_connection(params, torus: TorusSpec) -> ConnectionSource:
    """The model instanton: the lift of the model's Higgs pair. params is
    one ModelParams, or a sequence of them of one kind, whose connection
    is the batch of their models (see gauge.ConnectionSource.n_models)."""
    if not isinstance(params, ModelParams):
        params = tuple(params)
    conn = lift(hitchin_model(params, torus))
    kind, _, conn.n_models = _model_batch(params)
    conn.name = f"{kind}-model"
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


# radial bumps of a perturbation, and the largest |mode| of its trig waves
N_BUMPS = 6
MAX_MODE = 2


def _perturb_draws(seed) -> tuple:
    """The seeded random terms of `perturb`: directions v / (sqrt(2) |v|)
    (Frobenius norm 1), integer modes of the theta, x and y waves, and
    their phases, each (N_BUMPS, 4, 3), [i, j] for component j of shell i.
    Drawn shell by shell, component by component, a (v, modes, phases)
    draw each."""
    rng = np.random.default_rng(seed)
    vectors, phases = np.empty((2, N_BUMPS, 4, 3))
    modes = np.empty((N_BUMPS, 4, 3), dtype=int)
    for i in range(N_BUMPS):
        for j in range(4):
            v = rng.normal(size=3)
            vectors[i, j] = v / (math.sqrt(2.0) * np.linalg.norm(v))
            modes[i, j] = rng.integers(-MAX_MODE, MAX_MODE + 1, size=3)
            phases[i, j] = rng.uniform(0.0, TWO_PI, size=3)
    return vectors, modes, phases


def _radial(r, u, delta: float):
    """Radial factor bump(u) r^-(1+delta), u = (r - center)/width."""
    return _bump(u) * r ** (-(1.0 + delta))


def perturb(conn: ConnectionSource, delta: float, amplitude: float,
            seed, r_lo: float, r_hi: float) -> ConnectionSource:
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

    On a batch of M models (conn.n_models = M) seed is a sequence of M
    seeds, model m's terms drawn from seed[m], and the result is the batch
    of the M perturbations: model m's entries are those of perturbing
    model m alone with seed[m], bit for bit where the models' points share
    their radii (a holonomy table's do). A seed count that does not match
    the batch raises ValueError. The shells' radii do not depend on the
    seed, so one support test serves every model: the models' terms sit
    on a model axis just before the points'.

    A term vanishes exactly outside its bump's support, so each shell is
    added only on the points (circles) where some model's point is inside
    that support, in one scatter into the base's fresh arrays (a slice of
    the circles when they are adjacent, as on the rings of a holonomy
    table); every sum equals, bit for bit, that of adding every term at
    every point (up to the sign of a zero, which adding an exact zero term
    can flip: so can the terms a shell adds to a model whose point at that
    position lies outside it)."""
    if delta <= 0 or amplitude < 0:
        raise ValueError("need delta > 0 and amplitude >= 0")
    n_models = conn.n_models
    if np.ndim(seed) != (n_models is not None) \
            or n_models is not None and len(seed) != n_models:
        raise ValueError("seed must be one integer, or one per model of a "
                         f"batch of {n_models}")
    seeds = [seed] if n_models is None else list(seed)
    half_amp = amplitude / 2.0
    periods = (conn.torus.period_x, conn.torus.period_y)
    # shell i of every model: its centre and width, its wave numbers k and
    # phases (4, 3, M, 1) and directions (3, 4, M, 1), row j for component
    # j, model m in column m
    vectors, modes, phases = map(np.stack, zip(*map(_perturb_draws, seeds)))
    k = np.concatenate([modes[..., :1], TWO_PI * modes[..., 1:] / periods],
                       axis=-1)
    centers = np.geomspace(r_lo, r_hi, N_BUMPS)
    shells = tuple(zip(centers, 0.35 * centers,
                       k.transpose(1, 2, 3, 0)[..., None],
                       phases.transpose(1, 2, 3, 0)[..., None],
                       vectors.transpose(1, 3, 2, 0)[..., None]))

    def batched(points):
        """points (..., 4) as (Q, M, P, 4): the batch's (..., M, P, 4), or
        one connection's as Q = M = 1."""
        if n_models is None:
            return points.reshape(1, 1, -1, 4)
        return points.reshape((-1,) + points.shape[-3:])

    def _live_shells(points):
        """(width, k, phases, vectors, q, p, points, u) for every shell
        whose support holds some of the points (Q, M, P, 4): q, p index
        the (Q, P) positions where some model's point is inside, points
        (4, M, n) are theirs, and u (M, n) is as _bump sees it."""
        r = points[..., 0]
        for center, width, k, phases, vectors in shells:
            u = (r - center) / width
            q, p = np.nonzero(np.any(np.abs(u) < 1.0, axis=1))
            if q.size:
                yield (width, k, phases, vectors, q, p,
                       np.ascontiguousarray(points[q, :, p].T),
                       np.ascontiguousarray(u[q, :, p].T))

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        out = conn.evaluate(points)
        pts4 = batched(points)
        out4 = out.reshape(pts4.shape[:-1] + (4, 3))
        for _, k, phases, vectors, q, p, pts, u in _live_shells(pts4):
            f = np.cos(k * pts[1:] + phases)
            g = _radial(pts[0], u, delta)
            term = half_amp * (g * (f[:, 0] * f[:, 1] * f[:, 2]))
            out4[q, :, p] += (term * vectors).T
        return out4.reshape(out.shape)

    def along_circle(kind, bases, coords):
        axis, j = {"x": (2, 1), "y": (3, 2)}[kind]  # j: the along-circle wave
        along = np.asarray(coords, dtype=float)
        a = conn.along_circle(kind, bases, along)
        bases = np.asarray(bases, dtype=float)
        out = np.broadcast_to(
            a, along.shape + a.shape[-bases.ndim:]).copy()
        pts4 = batched(bases)
        out4 = out.reshape(along.shape + pts4.shape[1:-1] + (3,))
        for _, k, phases, vectors, _, p, pts, u in _live_shells(pts4):
            kr, phr = k[axis], phases[axis]
            f = list(np.cos(kr * pts[1:] + phr))
            f[j] = np.cos(kr[j] * along[..., None, None] + phr[j])
            g = _radial(pts[0], u, delta)
            term = half_amp * (g * (f[0] * f[1] * f[2]))
            # the live circles, a slice when they are adjacent
            at = slice(p[0], p[-1] + 1) if p[-1] - p[0] == p.size - 1 else p
            for c, v in enumerate(vectors[:, axis]):
                out4[..., at, c] += term * v
        return out4.reshape(out.shape)

    def derivative(points, axes=AXES):
        points = np.asarray(points, dtype=float)
        out = np.ascontiguousarray(conn.derivative(points, axes))
        pts4 = batched(points)
        out4 = out.reshape(pts4.shape[:-1] + (len(axes), 4, 3))
        # the rows of axes that are torus-wave partials, their waves, and
        # the two other waves of each
        rows = [n for n, i in enumerate(axes) if i]
        wave = np.array([axes[n] - 1 for n in rows], dtype=int)
        other = np.array([1, 0, 0])[wave], np.array([2, 2, 1])[wave]
        for width, k, phases, vectors, q, p, pts, u in _live_shells(pts4):
            r = pts[0]
            g = _radial(r, u, delta)
            args = k * pts[1:] + phases
            f = np.cos(args)
            # d[j, n]: partial_axes[n] of term j's scalar factor, by the
            # product rule
            d = np.empty((4, len(axes)) + u.shape)
            if 0 in axes:
                dg = (_bump_deriv(u) / width) * r ** (-(1.0 + delta)) \
                    + _bump(u) * (-(1.0 + delta)) * r ** (-(2.0 + delta))
                d[:, axes.index(0)] = dg * (f[:, 0] * f[:, 1] * f[:, 2])
            if rows:
                d[:, rows] = g * (-k[:, wave] * np.sin(args[:, wave])
                                  * f[:, other[0]] * f[:, other[1]])
            out4[q, :, p] += (half_amp * d * vectors[:, :, None]).T
        return out4.reshape(out.shape)

    return ConnectionSource(
        evaluate=evaluate, torus=conn.torus, derivative=derivative,
        r_min=conn.r_min, name=f"{conn.name}+perturbation",
        along_circle=None if conn.along_circle is None else along_circle,
        n_models=n_models,
    )
