"""Extraction of asymptotic invariants from a connection: flat limit,
asymptotic states, limiting holonomy, residue, decay exponents, the
curvature energy, and the flat-kernel decomposition toolkit on the torus.
`holonomy_table` is the one holonomy sampler: it computes every circle
holonomy an extraction reads once, by `gauge.circle_holonomies`, and keeps
its rotation vector; the fits (`flat_limit`, `limiting_holonomy`,
`residue`) are functions of that table alone.

Sign conventions: monodromy logs are projected on a common reference axis
(aligned with the standard first eigenline whenever the holonomies are
near-diagonal), which determines (lambda, alpha, mu) as the parameters of
one eigenline; the physical data is the pair up to the joint involution
(lambda, alpha, mu) -> (-lambda, -alpha, -mu). asymptotic_states resolves
the sign by a lexicographic fundamental-domain rule and reports whether it
flipped the branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _su2
from .gauge import ConnectionSource, circle_holonomies, curvature_norm
from .geometry import TWO_PI, DualTorusPoint, TorusSpec, lattice_distance, \
    reduce_dual, xi_from_zeta
from .models import check_kind

# base angles of the x/y circles on each ring, and the stride that picks
# the coarser grid of the flat limit and of the reference axis from them
N_THETA = 24
COARSE = 3
# largest ring-to-ring drift of the flat-limit exponents, largest zeta(w)
# fit residual, and the smallest |projection| / |rotation| of a
# theta-circle's phase before the extraction gives up
DRIFT_THRESHOLD = 0.2
RESIDUAL_THRESHOLD = 0.1
COLLISION_TOL = 0.2
# sample grids of the curvature fits: theta samples and torus samples per
# period on each ring of `decay_exponent`, and Gauss-Legendre nodes in ln r,
# theta samples and torus samples per period of `instanton_number`
DECAY_N_THETA, DECAY_N_TRANS = 16, 2
ENERGY_N_R, ENERGY_N_THETA, ENERGY_N_TRANS = 64, 16, 4


class ExtractionError(RuntimeError):
    pass


@dataclass
class FlatLimit:
    lambda1: float
    lambda2: float
    per_ring: np.ndarray  # (n_rings, 2) ring-averaged exponents
    drift: float
    axis: np.ndarray
    torus: TorusSpec

    @property
    def xi(self) -> DualTorusPoint:
        """The dual-torus point of the exponents, xi = lambda L / (2 pi)."""
        return reduce_dual((self.lambda1 * self.torus.period_x / TWO_PI,
                            self.lambda2 * self.torus.period_y / TWO_PI),
                           self.torus)


@dataclass
class AsymptoticStates:
    xi0: DualTorusPoint
    flipped: bool
    order_two: bool


@dataclass
class AsymptoticInvariants:
    xi0: DualTorusPoint
    alpha: float
    mu: complex
    kind: str
    diagnostics: dict


def principal_alpha(alpha: float) -> float:
    """alpha reduced to [-1/2, 1/2); values within 1e-12 of +1/2 are the
    cut itself and map to -1/2. A zero is always +0.0."""
    alpha = alpha - math.floor(alpha + 0.5) + 0.0  # + 0.0 turns -0.0 into 0.0
    return -0.5 if alpha >= 0.5 - 1e-12 else alpha


@dataclass
class HolonomyTable:
    """Every circle holonomy an extraction reads, on `rings` of a
    connection over `torus`, each loop by `gauge.circle_holonomies` with its
    default steps, one call per loop kind.

    Every entry is the loop's rotation vector (`_su2.log_su2`), shape
    (..., 3). x, y: (n_rings, N_THETA, 3), circles at torus offset 0
    through the base angles `thetas`. x_half, y_half:
    (n_rings, N_THETA / COARSE, 3), the same circles at half the transverse
    period through thetas[::COARSE]. theta: (n_rings, 3), theta-circles
    based at theta = 0. axis_theta: (N_THETA / COARSE, 3), theta-circles on
    the outer ring through thetas[::COARSE].

    The table of a batch of M models (n_models = M, see
    gauge.ConnectionSource) has a leading model axis on every entry, and
    `model(m)` is model m's table: bit for bit the table of model m
    alone."""
    rings: tuple
    torus: TorusSpec
    thetas: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_half: np.ndarray
    y_half: np.ndarray
    theta: np.ndarray
    axis_theta: np.ndarray
    n_models: int | None = None

    def model(self, m: int) -> HolonomyTable:
        """Model m's table, of a batch's."""
        if self.n_models is None:
            raise ValueError("not the table of a batch of models")
        return replace(self, n_models=None, **{
            f: getattr(self, f)[m]
            for f in ("x", "y", "x_half", "y_half", "theta", "axis_theta")})


def _ring_bases(rs, ths, x: float = 0.0, y: float = 0.0) -> np.ndarray:
    """Base points (r, theta, x, y) on the grid rs x ths, (len(rs),
    len(ths), 4)."""
    R, T = np.meshgrid(rs, ths, indexing="ij")
    return np.stack([R, T, np.full(R.shape, x), np.full(R.shape, y)],
                    axis=-1)


def holonomy_table(conn: ConnectionSource, rings) -> HolonomyTable:
    """The `HolonomyTable` of conn on rings, which must be at least 4 and
    strictly increasing; on a batch of models, one call per loop kind for
    the whole batch. Each call's bases go ring by ring, so that the
    circles a perturbation shell reaches are adjacent."""
    rings = tuple(float(r) for r in rings)
    if len(rings) < 4 or any(b <= a for a, b in zip(rings, rings[1:])):
        raise ValueError("need at least 4 strictly increasing rings")
    Lx, Ly = conn.torus.period_x, conn.torus.period_y
    thetas = np.linspace(0.0, TWO_PI, N_THETA, endpoint=False)
    coarse = thetas[::COARSE]
    lead = () if conn.n_models is None else (conn.n_models,)

    def rotations(kind, bases):
        """Rotation vectors (..., B, 3) of the circles through bases
        (B, 4), for every model."""
        return _su2.log_su2(circle_holonomies(
            conn, kind, np.broadcast_to(bases, lead + bases.shape)))

    table = {}
    # x- and y-circles: on each ring the full and the half-offset ones
    for kind, half in (("x", {"y": Ly / 2.0}), ("y", {"x": Lx / 2.0})):
        bases = np.concatenate([_ring_bases(rings, thetas),
                                _ring_bases(rings, coarse, **half)], axis=1)
        v = rotations(kind, bases.reshape(-1, 4)).reshape(
            lead + bases.shape[:2] + (3,))
        table[kind] = np.ascontiguousarray(v[..., :N_THETA, :])
        table[f"{kind}_half"] = np.ascontiguousarray(v[..., N_THETA:, :])
    v = rotations("theta", np.concatenate([
        _ring_bases(rings, [0.0]).reshape(-1, 4),
        _ring_bases(rings[-1:], coarse).reshape(-1, 4)]))
    table["theta"], table["axis_theta"] = v[..., :len(rings), :], \
        v[..., len(rings):, :]
    return HolonomyTable(rings=rings, torus=conn.torus, thetas=thetas,
                         n_models=conn.n_models, **table)


def reference_axis(v: np.ndarray) -> np.ndarray:
    """Common axis for signed phase extraction from a batch of rotation
    vectors v (..., 3): the largest rotation's axis, sign-aligned with the
    standard first eigenline when possible. A rotation's signed phase is
    then its projection v @ axis: for families whose rotation axes align
    with the reference this is the signed eigenvalue phase, and rotations
    orthogonal to it project to zero, which is the correct reading of a
    family collapsing to the identity without a shared eigenbasis."""
    v = v.reshape(-1, 3)
    norms = np.linalg.norm(v, axis=-1)
    k = int(np.argmax(norms))
    if norms[k] < 1e-13:
        return _su2.E3.copy()
    a = v[k] / norms[k]
    if abs(a[2]) > 0.1:
        return a * np.sign(a[2])
    for comp in a:
        if abs(comp) > 1e-12:
            return a * np.sign(comp)
    return _su2.E3.copy()


def _dominant_axis(table: HolonomyTable) -> np.ndarray:
    """Reference axis from the combined theta/x/y monodromy batch on the
    outer ring, so all extracted signs share a single frame."""
    return reference_axis(np.concatenate([
        table.axis_theta, table.x[-1, ::COARSE], table.y[-1, ::COARSE]]))


def _richardson_fit(rs: np.ndarray, vals: np.ndarray) -> float:
    """Least-squares extrapolation r -> inf with basis {1, 1/r, 1/r^2}."""
    X = np.stack([rs ** (-float(p)) for p in (0, 1, 2)], axis=-1)
    coef, *_ = np.linalg.lstsq(X, vals, rcond=None)
    return float(coef[0])


def flat_limit(table: HolonomyTable) -> FlatLimit:
    """Torus monodromy exponents extrapolated over the table's rings.

    Per ring, x- and y-circle holonomies are read on a grid of theta
    samples times transverse torus offsets 0 and one half; the signed
    eigenvalue phases (common-axis convention) are unwrapped about their
    circular mean and averaged (this cancels the 1/r residue term exactly
    for the models), and the ring averages, unwrapped about the outer
    ring's, are extrapolated in 1/r.
    Raises ExtractionError when they drift by more than DRIFT_THRESHOLD
    over the rings.
    """
    rings, torus = table.rings, table.torus
    axis = _dominant_axis(table)
    per_ring = np.zeros((len(rings), 2))
    for col, (full, half, period) in enumerate((
            (table.x, table.x_half, torus.period_x),
            (table.y, table.y_half, torus.period_y))):
        phases = np.concatenate([full[:, ::COARSE], half], axis=1) @ axis
        # unwrap each ring's phases about their circular mean, so samples
        # on both sides of +-pi average to the mean, not to a jump of 2 pi
        centre = np.angle(np.mean(np.exp(1j * phases), axis=1))[:, None]
        phases = phases + np.round((centre - phases) / TWO_PI) * TWO_PI
        exps = np.mean(-phases / period, axis=1)
        # the exponents are defined modulo 2 pi / period: unwrap them about
        # the outer ring before the fit
        step = TWO_PI / period
        per_ring[:, col] = exps + np.round((exps[-1] - exps) / step) * step
    lam1 = _richardson_fit(np.array(rings), per_ring[:, 0])
    lam2 = _richardson_fit(np.array(rings), per_ring[:, 1])
    drift = float(np.max(np.abs(per_ring - per_ring[-1]), initial=0.0))
    if drift > DRIFT_THRESHOLD:
        raise ExtractionError(
            f"monodromy exponents drift {drift:.3e} over rings; "
            "curvature decay hypothesis violated")
    return FlatLimit(lambda1=lam1, lambda2=lam2, per_ring=per_ring,
                     drift=drift, axis=axis, torus=torus)


def asymptotic_states(xi: DualTorusPoint) -> AsymptoticStates:
    """+-xi0 pair of the flat limit at xi, sign resolved lexicographically:
    the first nonzero component of the representative is <= 1/2."""
    flipped = False
    for comp in (xi.xi1, xi.xi2):
        if comp > 1e-12 and abs(comp - 0.5) > 1e-12:
            if comp > 0.5:
                flipped = True
                xi = xi.minus
            break
    order_two = xi.is_order_two(tol=1e-9)
    return AsymptoticStates(xi0=xi, flipped=flipped, order_two=order_two)


def limiting_holonomy(table: HolonomyTable, axis: np.ndarray,
                      kind: str) -> float:
    """Theta-circle holonomy exponent alpha in [-1/2, 1/2), with phases
    projected on `axis` (the flat limit's) and extrapolated over the
    table's rings in the decay of `kind`: {1, 1/r, 1/r^2} for
    'semisimple', {1, 1/ln r} for 'nilpotent'."""
    check_kind(kind)
    dots = table.theta @ axis
    # a sizeable rotation nearly orthogonal to the axis has no coherent sign
    norms = np.linalg.norm(table.theta, axis=-1)
    if np.any((norms > 0.05) & (np.abs(dots) < COLLISION_TOL * norms)):
        raise ExtractionError("monodromy axis nearly orthogonal to the "
                              "reference; eigenvalue branch collision")
    alphas = -dots / TWO_PI
    rs = np.array(table.rings)
    if kind == "semisimple":
        return principal_alpha(_richardson_fit(rs, alphas))
    X = np.stack([np.ones_like(rs), 1.0 / np.log(rs)], axis=-1)
    coef, *_ = np.linalg.lstsq(X, alphas, rcond=None)
    return principal_alpha(float(coef[0]))


def residue(table: HolonomyTable, fl: FlatLimit) -> tuple[complex, dict]:
    """Residue mu of the complex monodromy exponent zeta(w) = lambda + mu/w.

    Per ring and theta sample of the table, extracts zeta(w) from the x/y
    monodromies (phases on the axis of the flat limit fl, anchored at its
    value so the mod-1 ambiguity cannot wrap), then least-squares fits
    against (1, 1/w) over all samples. Raises ExtractionError when the fit
    residual exceeds RESIDUAL_THRESHOLD.
    """
    cs = []
    for v, period, ref in ((table.x, table.torus.period_x, fl.lambda1),
                           (table.y, table.torus.period_y, fl.lambda2)):
        c = -(v @ fl.axis) / period
        c = c + np.round((ref - c) * period / TWO_PI) * TWO_PI / period
        cs.append(c)
    w = (np.array(table.rings)[:, None] * np.exp(1j * table.thetas)).ravel()
    z = ((cs[0] + 1j * cs[1]) / 2.0).ravel()
    X = np.stack([np.ones_like(w), 1.0 / w], axis=-1)
    coef, *_ = np.linalg.lstsq(X, z, rcond=None)
    lam_hat, mu_hat = complex(coef[0]), complex(coef[1])
    resid = float(np.max(np.abs(z - X @ coef)))
    if resid > RESIDUAL_THRESHOLD:
        raise ExtractionError(
            f"zeta(w) fit residual {resid:.3e} above threshold; connection "
            "is not semisimple-asymptotic on these rings")
    return mu_hat, {"lambda_hat": lam_hat, "max_residual": resid}


def decay_exponent(conn: ConnectionSource, rings, kind: str) -> dict:
    """Log-log fit of the per-ring sup of |F| against r in the decay of
    `kind`: ln sup|F| = c + gamma ln r over all six curvature slots for
    'semisimple'; ln sup|F| = c + gamma ln r + p ln ln r over the
    instanton-density pair (see curvature_norm) for 'nilpotent', where
    that pair is exactly 4 / (2 r ln r)^2 and the full norm carries an
    extra factor of about ln r.
    Returns gamma = -inf sentinel for identically flat input."""
    check_kind(kind)
    nilpotent = kind == "nilpotent"
    rings = tuple(float(r) for r in rings)
    if len(rings) < 6 or rings[-1] < 10.0 * rings[0]:
        raise ValueError("need >= 6 rings spanning at least a decade")
    ths = np.linspace(0.0, TWO_PI, DECAY_N_THETA, endpoint=False)
    xs = np.linspace(0.0, conn.torus.period_x, DECAY_N_TRANS, endpoint=False)
    ys = np.linspace(0.0, conn.torus.period_y, DECAY_N_TRANS, endpoint=False)
    pts = np.stack(np.meshgrid(rings, ths, xs, ys, indexing="ij"), axis=-1)
    sups = np.max(curvature_norm(conn, pts.reshape(len(rings), -1, 4),
                                 "kahler" if nilpotent else "all"), axis=-1)
    if np.max(sups) < 1e-14:
        return {"gamma": -math.inf, "log_power": 0.0, "monotone": True}
    rs = np.array(rings)
    cols = [np.ones_like(rs), np.log(rs)]
    if nilpotent:
        cols.append(np.log(np.log(rs)))
    Xd = np.stack(cols, axis=-1)
    coef, *_ = np.linalg.lstsq(Xd, np.log(sups), rcond=None)
    gamma = float(coef[1])
    log_power = float(coef[2]) if nilpotent else 0.0
    monotone = bool(np.all(np.diff(sups) <= 1e-12 * sups[:-1]))
    return {"gamma": gamma, "log_power": log_power, "monotone": monotone}


def instanton_number(conn: ConnectionSource, R: float,
                     r_inner: float) -> dict:
    """Curvature energy (1/8 pi^2) int_{r_inner <= r <= R} |F|^2 over
    annulus x torus, Gauss-Legendre in ln r, trapezoid in the angles. It
    is not a charge: for the semisimple model on the 2 pi x 2 pi
    torus it is 8 pi |mu|^2 (1/r_inner^2 - 1/R^2). Returns {"energy": E}.
    Dyadic-shell energies are the convergence diagnostic: raises
    ExtractionError when the outer shells grow (non-integrable tail)."""
    if not (0 < r_inner and conn.r_min <= r_inner < R):
        raise ValueError(f"need 0 < r_inner and r_min <= r_inner < R; got "
                         f"r_inner = {r_inner}, r_min = {conn.r_min}, R = {R}")
    nodes, wts = np.polynomial.legendre.leggauss(ENERGY_N_R)
    s0, s1 = math.log(r_inner), math.log(R)
    s = 0.5 * (s1 - s0) * nodes + 0.5 * (s1 + s0)
    ws = 0.5 * (s1 - s0) * wts
    rs = np.exp(s)
    ths = np.linspace(0.0, TWO_PI, ENERGY_N_THETA, endpoint=False)
    xs = np.linspace(0.0, conn.torus.period_x, ENERGY_N_TRANS, endpoint=False)
    ys = np.linspace(0.0, conn.torus.period_y, ENERGY_N_TRANS, endpoint=False)
    Rg, Tg, Xg, Yg = np.meshgrid(rs, ths, xs, ys, indexing="ij")
    pts = np.stack([Rg.ravel(), Tg.ravel(), Xg.ravel(), Yg.ravel()], axis=-1)
    dens = curvature_norm(conn, pts).reshape(Rg.shape) ** 2
    w_ang = (TWO_PI / ENERGY_N_THETA) * (conn.torus.period_x / ENERGY_N_TRANS) \
        * (conn.torus.period_y / ENERGY_N_TRANS)
    # volume element r dr = r^2 ds under s = ln r
    shell_dens = np.sum(dens, axis=(1, 2, 3)) * w_ang * rs ** 2
    total = float(np.sum(shell_dens * ws) / (8.0 * math.pi ** 2))
    # dyadic diagnostics
    n_shell = max(2, int(math.log2(R / r_inner)))
    edges = np.geomspace(r_inner, R, n_shell + 1)
    shells = np.array([np.sum((shell_dens * ws)[(rs >= a) & (rs <= b)])
                       for a, b in zip(edges[:-1], edges[1:])]) \
        / (8.0 * math.pi ** 2)
    if shells.size >= 3 and shells[-1] > shells[0] + 1e-12 \
            and shells[-1] > 1e-12:
        raise ExtractionError("shell energies grow outward; "
                              "non-integrable curvature tail")
    return {"energy": total}


# ---------------------------------------------------------------------------
# torus-fiber decomposition toolkit

def poincare_constant(gamma: DualTorusPoint | None,
                      torus: TorusSpec) -> float:
    """Smallest twisted-gradient Rayleigh quotient on the complement of the
    flat kernel of the flat twist at gamma (None: untwisted): min over
    Fourier modes (|n|, |m| <= 8) and matrix slots of
    |2 pi n / Lx + shift|^2 + |2 pi m / Ly + shift'|^2, where off-diagonal
    slots are shifted by +-2 c (c = gamma.c). Exactly-zero symbols
    (order-two twists) belong to the kernel and are excluded, keeping
    c > 0."""
    kx = TWO_PI / torus.period_x
    ky = TWO_PI / torus.period_y
    l1, l2 = (0.0, 0.0) if gamma is None else gamma.c
    trivial = gamma is None or gamma.is_trivial(1e-9)
    ns = np.arange(-8, 9)
    nn, mm = np.meshgrid(ns, ns, indexing="ij")
    best = math.inf
    # diagonal slots: untwisted, constants excluded
    q_diag = (kx * nn) ** 2 + (ky * mm) ** 2
    q_diag = q_diag[(nn != 0) | (mm != 0)]
    best = min(best, float(np.min(q_diag)))
    # off-diagonal slots
    for sgn in (+1.0, -1.0):
        q = (kx * nn + sgn * 2.0 * l1) ** 2 + (ky * mm + sgn * 2.0 * l2) ** 2
        if trivial:
            q = q[(nn != 0) | (mm != 0)]
        else:
            q = q[q > 1e-12]
        best = min(best, float(np.min(q)))
    return best


# ---------------------------------------------------------------------------
# orchestrator

def extract_invariants(table: HolonomyTable,
                       kind: str | None = None) -> AsymptoticInvariants:
    """Full invariant extraction with branch bookkeeping: fits flat_limit,
    limiting_holonomy and residue from one model's holonomy table (of a
    batch's, its `model(m)`) with a shared axis convention, detects the
    asymptotic kind when not supplied, and applies the fundamental-domain
    sign flip jointly to (xi0, alpha, mu) and to the residue fit's
    lambda_hat, so that all four are reported in one branch."""
    if kind is not None:
        check_kind(kind)
    if table.n_models is not None:
        raise ValueError("a batch's table: extract from one model's, "
                         "table.model(m)")
    fl = flat_limit(table)
    xi = fl.xi
    if kind is None:
        alpha_log = limiting_holonomy(table, fl.axis, "nilpotent")
        alpha_r = limiting_holonomy(table, fl.axis, "semisimple")
        # nilpotent regime: theta-holonomy nonzero at finite r but
        # converging to identity at a 1/ln r rate, flat limit trivial
        raw = -(table.theta @ fl.axis) / TWO_PI
        decaying = abs(alpha_log) < 0.02 and np.max(np.abs(raw)) > 5.0 * abs(alpha_log) + 1e-4
        kind = "nilpotent" if (xi.is_trivial(1e-4) and decaying) else "semisimple"
        alpha = alpha_log if kind == "nilpotent" else alpha_r
    else:
        alpha = limiting_holonomy(table, fl.axis, kind)
    diagnostics: dict = {"flat_drift": fl.drift, "per_ring": fl.per_ring}
    states = asymptotic_states(xi)
    if kind == "semisimple":
        mu, res_diag = residue(table, fl)
        lam_hat = -res_diag["lambda_hat"] if states.flipped \
            else res_diag["lambda_hat"]
        diagnostics["residue_fit"] = {"lambda_hat": lam_hat,
                                      "max_residual": res_diag["max_residual"]}
    else:
        mu = 0.0 + 0.0j
    if states.flipped:
        alpha, mu = principal_alpha(-alpha), -mu
    diagnostics["order_two"] = states.order_two
    diagnostics["branch_flipped"] = states.flipped
    return AsymptoticInvariants(xi0=states.xi0, alpha=alpha, mu=mu,
                                kind=kind, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# scoring an extraction against the model it came from

def _circle_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def roundtrip_errors(p, inv: AsymptoticInvariants, torus: TorusSpec) -> dict:
    """Errors of extracted invariants `inv` against the inputs `p` (a
    models.ModelParams) of the model they were extracted from, in the
    canonical branch frame used by the extractor: when the target's branch
    is flipped, lambda_hat is scored against -lambda. At an order-two target
    xi0 the Weyl reflection (xi0, alpha, mu) -> (-xi0, -alpha, -mu) fixes
    xi0, so both branches name the same state: alpha and mu are scored on
    the branch whose larger error is smaller."""
    states = asymptotic_states(xi_from_zeta(1j * p.lam, torus))
    lam_t, alpha_t, mu_t = p.lam, p.alpha, p.mu
    if states.flipped:
        lam_t, alpha_t, mu_t = -lam_t, principal_alpha(-alpha_t), -mu_t
    e_xi = max(_circle_gap(inv.xi0.xi1, states.xi0.xi1),
               _circle_gap(inv.xi0.xi2, states.xi0.xi2))
    fit = inv.diagnostics.get("residue_fit")
    if fit is not None:
        lam_hat = fit["lambda_hat"]
        # lambda + (pi/Lx) m + i (pi/Ly) n names the same state, and
        # zeta = i lambda is defined modulo the dual lattice
        e_lam = lattice_distance(1j * (lam_hat - lam_t), torus)
    else:
        e_lam = 0.0  # nilpotent: the dual point alone carries the limit
    e_alpha = _circle_gap(inv.alpha, alpha_t)
    e_mu = abs(inv.mu - mu_t)
    if states.order_two:
        weyl = (_circle_gap(inv.alpha, principal_alpha(-alpha_t)),
                abs(inv.mu + mu_t))
        if max(weyl) < max(e_alpha, e_mu):
            e_alpha, e_mu = weyl
    return {"lambda": max(e_lam, e_xi), "alpha": e_alpha, "mu": e_mu,
            "kind_ok": inv.kind == p.kind}
