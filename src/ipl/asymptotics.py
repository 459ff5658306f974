"""Extraction of asymptotic invariants from a connection: flat limit,
asymptotic states, limiting holonomy, residue, decay exponents, the
curvature energy, and the flat-kernel decomposition toolkit on the torus.
`holonomy_table` is the one holonomy sampler: it samples every circle
holonomy an extraction reads once, and the fits (`flat_limit`,
`limiting_holonomy`, `residue`) are functions of that table alone.

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
from dataclasses import dataclass

import numpy as np

from . import _su2
from .gauge import (LOOP_STEPS, ConnectionSource, _path_ordered_product,
                    circle_paths, curvature_norm)
from .geometry import TWO_PI, DualTorusPoint, TorusSpec, reduce_dual

E3 = np.array([0.0, 0.0, 1.0])

# base angles of the x/y circles on each ring, and the stride that picks
# the coarser grid of the flat limit and of the reference axis from them
N_THETA = 24
COARSE = 3
# largest ring-to-ring drift of the flat-limit exponents, largest zeta(w)
# fit residual, and the smallest |projection| / |rotation| of a strict
# signed phase before the extraction gives up
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
    rings: tuple
    per_ring: np.ndarray  # (n_rings, 2) ring-averaged exponents
    drift: float
    axis: np.ndarray
    torus: TorusSpec

    def xi_raw(self) -> tuple[float, float]:
        return (self.lambda1 * self.torus.period_x / TWO_PI,
                self.lambda2 * self.torus.period_y / TWO_PI)

    def is_trivial(self, tol: float = 1e-9) -> bool:
        x1, x2 = self.xi_raw()
        return (min(x1 % 1.0, 1.0 - x1 % 1.0) <= tol
                and min(x2 % 1.0, 1.0 - x2 % 1.0) <= tol)


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
    cut itself and map to -1/2."""
    alpha = alpha - math.floor(alpha + 0.5)
    return -0.5 if alpha >= 0.5 - 1e-12 else alpha


@dataclass
class HolonomyTable:
    """Every circle holonomy an extraction reads, sampled on `rings` of a
    connection over `torus` by one batched path-ordered product of
    gauge.LOOP_STEPS fourth-order Magnus steps per loop (two connection
    evaluations each; see gauge._path_ordered_product).

    x, y: (n_rings, N_THETA, 2, 2), circles at torus offset 0 through the
    base angles `thetas`. x_half, y_half: (n_rings, N_THETA / COARSE, 2, 2),
    the same circles at half the transverse period through
    thetas[::COARSE]. theta: (n_rings, 2, 2), theta-circles based at
    theta = 0. axis_theta: (N_THETA / COARSE, 2, 2), theta-circles on the
    outer ring through thetas[::COARSE]."""
    rings: tuple
    torus: TorusSpec
    thetas: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_half: np.ndarray
    y_half: np.ndarray
    theta: np.ndarray
    axis_theta: np.ndarray


def _ring_bases(rs, ths, x: float = 0.0, y: float = 0.0) -> np.ndarray:
    """Base points (r, theta, x, y) on the grid rs x ths, ring-major."""
    R, T = np.meshgrid(rs, ths, indexing="ij")
    return np.stack([R.ravel(), T.ravel(), np.full(R.size, x),
                     np.full(R.size, y)], axis=-1)


def holonomy_table(conn: ConnectionSource, rings) -> HolonomyTable:
    """Samples the `HolonomyTable` of conn on rings, which must be at least
    4 and strictly increasing."""
    rings = tuple(float(r) for r in rings)
    if len(rings) < 4 or any(b <= a for a, b in zip(rings, rings[1:])):
        raise ValueError("need at least 4 strictly increasing rings")
    Lx, Ly = conn.torus.period_x, conn.torus.period_y
    thetas = np.linspace(0.0, TWO_PI, N_THETA, endpoint=False)
    coarse = thetas[::COARSE]

    n = len(rings)
    loops = {  # field: (kind, base points, field shape)
        "x": ("x", _ring_bases(rings, thetas), (n, N_THETA)),
        "y": ("y", _ring_bases(rings, thetas), (n, N_THETA)),
        "x_half": ("x", _ring_bases(rings, coarse, y=Ly / 2.0),
                   (n, coarse.size)),
        "y_half": ("y", _ring_bases(rings, coarse, x=Lx / 2.0),
                   (n, coarse.size)),
        "theta": ("theta", _ring_bases(rings, [0.0]), (n,)),
        "axis_theta": ("theta", _ring_bases(rings[-1:], coarse),
                       (coarse.size,)),
    }
    paths = [circle_paths(conn.torus, kind, b, LOOP_STEPS)
             for kind, b, _ in loops.values()]
    mats = _path_ordered_product(conn,
                                 np.concatenate([p for p, _ in paths], axis=2),
                                 np.concatenate([t for _, t in paths], axis=2))
    fields, start = {}, 0
    for name, (_, b, shape) in loops.items():
        fields[name] = mats[start:start + len(b)].reshape(shape + (2, 2))
        start += len(b)
    return HolonomyTable(rings=rings, torus=conn.torus, thetas=thetas,
                         **fields)


def reference_axis(mats: np.ndarray) -> np.ndarray:
    """Common axis for signed phase extraction from a batch of SU(2)
    elements: the largest rotation's axis, sign-aligned with the standard
    first eigenline when possible."""
    v = _su2.log_su2(mats.reshape(-1, 2, 2))
    norms = np.linalg.norm(v, axis=-1)
    k = int(np.argmax(norms))
    if norms[k] < 1e-13:
        return E3.copy()
    a = v[k] / norms[k]
    if abs(a[2]) > 0.1:
        return a * np.sign(a[2])
    for comp in a:
        if abs(comp) > 1e-12:
            return a * np.sign(comp)
    return E3.copy()


def signed_phases(mats: np.ndarray, axis: np.ndarray,
                  strict: bool = False) -> np.ndarray:
    """Rotation angles of SU(2) elements projected on the reference axis.

    For families whose rotation axes align with the reference this is the
    signed eigenvalue phase; rotations orthogonal to the reference project
    to zero, which is the correct reading of a family collapsing to the
    identity without a shared eigenbasis. With strict=True a sizeable
    rotation that is nearly orthogonal to the reference raises instead
    (eigenvalue branch collision: no coherent sign can be chosen)."""
    v = _su2.log_su2(mats)
    dots = v @ axis
    if strict:
        norms = np.linalg.norm(v, axis=-1)
        bad = (norms > 0.05) & (np.abs(dots) < COLLISION_TOL * norms)
        if np.any(bad):
            raise ExtractionError("monodromy axis nearly orthogonal to the "
                                  "reference; eigenvalue branch collision")
    return dots


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
    eigenvalue phases (common-axis convention) are averaged (this cancels
    the 1/r residue term exactly for the models) and extrapolated in 1/r.
    Raises ExtractionError when they drift by more than DRIFT_THRESHOLD
    over the rings.
    """
    rings, torus = table.rings, table.torus
    axis = _dominant_axis(table)
    per_ring = np.zeros((len(rings), 2))
    for col, (full, half, period) in enumerate((
            (table.x, table.x_half, torus.period_x),
            (table.y, table.y_half, torus.period_y))):
        mats = np.concatenate([full[:, ::COARSE], half], axis=1)
        per_ring[:, col] = np.mean(-signed_phases(mats, axis) / period, axis=1)
    lam1 = _richardson_fit(np.array(rings), per_ring[:, 0])
    lam2 = _richardson_fit(np.array(rings), per_ring[:, 1])
    drift = float(np.max(np.abs(per_ring - per_ring[-1]), initial=0.0))
    if drift > DRIFT_THRESHOLD:
        raise ExtractionError(
            f"monodromy exponents drift {drift:.3e} over rings; "
            "curvature decay hypothesis violated")
    return FlatLimit(lambda1=lam1, lambda2=lam2, rings=rings,
                     per_ring=per_ring, drift=drift, axis=axis, torus=torus)


def asymptotic_states(fl: FlatLimit) -> AsymptoticStates:
    """+-xi0 pair of the flat limit, sign resolved lexicographically:
    the first nonzero reduced component of the representative is <= 1/2."""
    xi = reduce_dual(fl.xi_raw(), fl.torus)
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
                      basis: str = "inverse-r") -> float:
    """Theta-circle holonomy exponent alpha in [-1/2, 1/2), with phases
    projected on `axis` (the flat limit's) and extrapolated over the
    table's rings; basis 'inverse-r' fits {1, 1/r, 1/r^2} (semisimple
    decay), 'inverse-log' fits {1, 1/ln r} (nilpotent decay)."""
    alphas = -signed_phases(table.theta, axis, strict=True) / TWO_PI
    rs = np.array(table.rings)
    if basis == "inverse-r":
        alpha = _richardson_fit(rs, alphas)
    elif basis == "inverse-log":
        X = np.stack([np.ones_like(rs), 1.0 / np.log(rs)], axis=-1)
        coef, *_ = np.linalg.lstsq(X, alphas, rcond=None)
        alpha = float(coef[0])
    else:
        raise ValueError("basis must be 'inverse-r' or 'inverse-log'")
    return principal_alpha(alpha)


def residue(table: HolonomyTable, fl: FlatLimit) -> tuple[complex, dict]:
    """Residue mu of the complex monodromy exponent zeta(w) = lambda + mu/w.

    Per ring and theta sample of the table, extracts zeta(w) from the x/y
    monodromies (phases on the axis of the flat limit fl, anchored at its
    value so the mod-1 ambiguity cannot wrap), then least-squares fits
    against (1, 1/w) over all samples. Raises ExtractionError when the fit
    residual exceeds RESIDUAL_THRESHOLD.
    """
    cs = []
    for mats, period, ref in ((table.x, table.torus.period_x, fl.lambda1),
                              (table.y, table.torus.period_y, fl.lambda2)):
        c = -signed_phases(mats, fl.axis) / period
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
    return mu_hat, {"lambda_hat": lam_hat, "max_residual": resid,
                    "n_samples": int(w.size)}


def decay_exponent(conn: ConnectionSource, rings, components: str = "all",
                   with_log: bool = True) -> dict:
    """Log-log fit of the per-ring sup of |F| against r:
    ln sup|F| = c + gamma ln r + p ln ln r. components='kahler' restricts
    to the instanton-density pair of curvature slots (see curvature_norm).
    Returns gamma = -inf sentinel for identically flat input."""
    rings = tuple(float(r) for r in rings)
    if len(rings) < 6 or rings[-1] < 10.0 * rings[0]:
        raise ValueError("need >= 6 rings spanning at least a decade")
    sups = []
    ths = np.linspace(0.0, TWO_PI, DECAY_N_THETA, endpoint=False)
    xs = np.linspace(0.0, conn.torus.period_x, DECAY_N_TRANS, endpoint=False)
    ys = np.linspace(0.0, conn.torus.period_y, DECAY_N_TRANS, endpoint=False)
    T, X, Y = np.meshgrid(ths, xs, ys, indexing="ij")
    for r in rings:
        pts = np.stack([np.full(T.size, r), T.ravel(), X.ravel(), Y.ravel()],
                       axis=-1)
        sups.append(float(np.max(curvature_norm(conn, pts, components))))
    sups = np.array(sups)
    if np.max(sups) < 1e-14:
        return {"gamma": -math.inf, "log_power": 0.0, "sups": sups,
                "rings": rings, "monotone": True}
    rs = np.array(rings)
    cols = [np.ones_like(rs), np.log(rs)]
    if with_log:
        cols.append(np.log(np.log(rs)))
    Xd = np.stack(cols, axis=-1)
    coef, *_ = np.linalg.lstsq(Xd, np.log(sups), rcond=None)
    gamma = float(coef[1])
    log_power = float(coef[2]) if with_log else 0.0
    monotone = bool(np.all(np.diff(sups) <= 1e-12 * sups[:-1]))
    return {"gamma": gamma, "log_power": log_power, "sups": sups,
            "rings": rings, "monotone": monotone}


def instanton_number(conn: ConnectionSource, R: float,
                     r_inner: float) -> dict:
    """Curvature energy (1/8 pi^2) int_{r_inner <= r <= R} |F|^2 over
    annulus x torus, Gauss-Legendre in ln r, trapezoid in the angles. It
    is not a charge: for the semisimple model on the 2 pi x 2 pi
    torus it is 8 pi |mu|^2 (1/r_inner^2 - 1/R^2). Reports dyadic-shell
    energies as the convergence diagnostic; raises ExtractionError when
    the outer shells grow (non-integrable tail)."""
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
    shells = []
    for a, b in zip(edges[:-1], edges[1:]):
        m = (rs >= a) & (rs <= b)
        shells.append(float(np.sum((shell_dens * ws)[m]) / (8.0 * math.pi ** 2)))
    shells_arr = np.array(shells)
    if shells_arr.size >= 3 and shells_arr[-1] > shells_arr[0] + 1e-12 \
            and shells_arr[-1] > 1e-12:
        raise ExtractionError("shell energies grow outward; "
                              "non-integrable curvature tail")
    return {"energy": total, "shells": shells, "edges": edges.tolist()}


# ---------------------------------------------------------------------------
# torus-fiber decomposition toolkit

def poincare_constant(gamma: FlatLimit | None, torus: TorusSpec) -> float:
    """Smallest twisted-gradient Rayleigh quotient on the complement of the
    flat kernel (gamma None: untwisted): min over Fourier modes
    (|n|, |m| <= 8) and matrix slots of
    |2 pi n / Lx + shift|^2 + |2 pi m / Ly + shift'|^2, where off-diagonal
    slots are shifted by +-2 lambda. Exactly-zero symbols (order-two flat
    limits) belong to the kernel and are excluded, keeping c > 0."""
    kx = TWO_PI / torus.period_x
    ky = TWO_PI / torus.period_y
    if gamma is None:
        l1 = l2 = 0.0
    else:
        l1, l2 = gamma.lambda1, gamma.lambda2
    trivial = gamma is None or gamma.is_trivial()
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

def extract_invariants(conn: ConnectionSource, rings,
                       kind: str | None = None) -> AsymptoticInvariants:
    """Full invariant extraction with branch bookkeeping: fits flat_limit,
    limiting_holonomy and residue from one holonomy table with a shared
    axis convention, detects the asymptotic kind when not supplied, and
    applies the fundamental-domain sign flip jointly to (xi0, alpha, mu)."""
    table = holonomy_table(conn, rings)
    fl = flat_limit(table)
    if kind is None:
        alpha_log = limiting_holonomy(table, fl.axis, basis="inverse-log")
        alpha_r = limiting_holonomy(table, fl.axis)
        # nilpotent regime: theta-holonomy nonzero at finite r but
        # converging to identity at a 1/ln r rate, flat limit trivial
        raw = -signed_phases(table.theta, fl.axis) / TWO_PI
        decaying = abs(alpha_log) < 0.02 and np.max(np.abs(raw)) > 5.0 * abs(alpha_log) + 1e-4
        kind = "nilpotent" if (fl.is_trivial(1e-4) and decaying) else "semisimple"
        alpha = alpha_log if kind == "nilpotent" else alpha_r
    else:
        alpha = limiting_holonomy(
            table, fl.axis,
            basis="inverse-log" if kind == "nilpotent" else "inverse-r")
    diagnostics: dict = {"flat_drift": fl.drift, "per_ring": fl.per_ring.tolist()}
    if kind == "semisimple":
        mu, res_diag = residue(table, fl)
        diagnostics["residue_fit"] = {
            "lambda_hat": [res_diag["lambda_hat"].real, res_diag["lambda_hat"].imag],
            "max_residual": res_diag["max_residual"],
        }
    else:
        mu = 0.0 + 0.0j
    states = asymptotic_states(fl)
    if states.flipped:
        alpha, mu = principal_alpha(-alpha), -mu
    diagnostics["order_two"] = states.order_two
    diagnostics["branch_flipped"] = states.flipped
    return AsymptoticInvariants(xi0=states.xi0, alpha=alpha, mu=mu,
                                kind=kind, diagnostics=diagnostics)
