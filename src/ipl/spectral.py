"""Spectral side of the correspondence: twisted Dolbeault triviality on
torus fibers, jumping points as Higgs-field eigenvalues, residue of the
Higgs field at its poles, parabolic weights, and the Fourier-mode gap
inequality underlying the vanishing argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import (TWO_PI, TorusSpec, DualTorusPoint, covering_radius,
                       lattice_translates, lattice_distance, lattice_reduce,
                       xi_from_zeta)


# the outer radius that stands in for |w| = infinity in the scans that read
# every jumping point beyond r_min (the residue estimate, the blow-up scan)
R_FAR = 1e30


class SingularPointError(ValueError):
    """xi sits at a pole of the Higgs field (an asymptotic state)."""


@dataclass(frozen=True)
class BundleModel:
    """Rank-2 fiberwise-split model bundle with the rational exponent
    zeta(w) = lam + mu/w: its Higgs field has simple poles at the two
    asymptotic states, and each jumping point is a simple root.

    Valid for |w| >= r_min; r_min must keep |zeta(w) - lam| = |mu|/|w|
    under the dual-lattice covering radius so fibers stay close to the
    asymptotic splitting."""
    lam: complex
    mu: complex
    r_min: float
    k: int
    torus: TorusSpec

    def __post_init__(self):
        if self.r_min <= 0:
            raise ValueError("r_min must be positive")
        if self.k < 1:
            raise ValueError("declared charge k must be >= 1")
        if abs(self.mu) / self.r_min >= covering_radius(self.torus):
            raise ValueError("zeta deviates from lam by more than the "
                             "dual-lattice covering radius on |w| >= r_min")
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "mu", complex(self.mu))

    def state_distances(self, xi: DualTorusPoint) -> tuple[float, float]:
        """Distances from +zeta(xi) and from -zeta(xi) to lam modulo the
        dual lattice; xi is an asymptotic state (a pole of the Higgs field)
        over the plus or the minus eigenline where the matching one is 0."""
        z = xi.zeta
        return tuple(lattice_distance(sgn * z - self.lam, self.torus)
                     for sgn in (+1.0, -1.0))


@dataclass
class SpectralData:
    xi: DualTorusPoint
    points: tuple  # ((w, multiplicity), ...)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.points)


def jumping_points(bundle: BundleModel, xi: DualTorusPoint, domain,
                   branch: str, singular_tol: float = 1e-9) -> SpectralData:
    """Fiberwise-trivial locus: solves zeta(w) = (+-)zeta(xi) modulo the
    dual lattice on the annulus domain = (r_lo, r_hi). Each lattice
    translate target of (+-)zeta(xi) gives at most the one root
    w = mu / (target - lam), a simple eigenvalue of the transformed Higgs
    field at xi, so every multiplicity is 1.

    branch: 'plus', 'minus', or 'both' (which eigenline of the split fiber
    the twist trivializes).
    """
    if branch not in ("plus", "minus", "both"):
        raise ValueError("branch must be plus, minus, or both")
    r_lo, r_hi = float(domain[0]), float(domain[1])
    if not (bundle.r_min <= r_lo < r_hi):
        raise ValueError("domain must sit inside the bundle's validity range")
    torus = bundle.torus
    if min(bundle.state_distances(xi)) < singular_tol:
        raise SingularPointError(
            "xi coincides with an asymptotic state (Higgs field pole)")
    lam, mu = bundle.lam, bundle.mu
    if abs(mu) <= 1e-14:
        return SpectralData(xi=xi, points=())  # zeta is constant: no root
    zx = xi.zeta
    signs = {"plus": (+1.0,), "minus": (-1.0,), "both": (+1.0, -1.0)}[branch]
    points = []
    for sgn in signs:
        target0 = sgn * zx
        # admissible translates keep |target + omega - lam| small enough
        # that the root can lie inside |w| <= r_hi yet beyond r_lo
        radius = 1.2 * abs(mu) / r_lo + 1e-12
        for omega in lattice_translates(lam - target0, radius, torus):
            target = target0 + omega
            if abs(target - lam) * r_hi < 0.5 * abs(mu):
                continue  # root beyond the outer radius (or at the pole)
            # u = 1/w solves lam + mu u = target. numpy's complex128
            # division: Python's complex division rounds differently in
            # the last bit for about 2 in 5 operands
            u = np.complex128(target - lam) / mu
            if abs(u) < 1e-300:
                continue
            w = 1.0 / u
            if r_lo - 1e-9 <= abs(w) <= r_hi + 1e-9:
                points.append((w, 1))
    points.sort(key=lambda pm: (abs(pm[0]), pm[0].real, pm[0].imag))
    return SpectralData(xi=xi, points=tuple(points))


def phi_residue(bundle: BundleModel, xi0: DualTorusPoint,
                approach) -> tuple[complex, dict]:
    """Residue of the transformed Higgs field at the singular point xi0,
    estimated from an approach sequence of complex twists zeta_j:
    w(xi_j) * (zeta_j - zeta(xi0)) for the largest jumping point on
    r_min <= |w| <= R_FAR, Richardson-extrapolated. Equals +mu at the
    singularity over the plus eigenline and -mu at the opposite one."""
    d_plus, d_minus = bundle.state_distances(xi0)
    if min(d_plus, d_minus) >= 1e-9:
        raise ValueError("xi0 is not a singular point of this bundle")
    sign = 1.0 if d_plus < 1e-9 else -1.0
    z0 = xi0.zeta
    branch = "plus" if sign > 0 else "minus"
    ests, seps = [], []
    for zj in approach:
        sd = jumping_points(bundle, xi_from_zeta(zj, bundle.torus),
                            domain=(bundle.r_min, R_FAR), branch=branch)
        if not sd.points:
            raise RuntimeError("approach point produced no jumping points; "
                               "cannot continue the residue estimate")
        w = max((p for p, _ in sd.points), key=abs)
        dz = lattice_reduce(zj - z0, bundle.torus)
        ests.append(w * dz)
        seps.append(abs(dz))
    ests_arr = np.array(ests)
    seps_arr = np.array(seps)
    if len(ests) >= 3 and not np.all(np.diff(seps_arr) < 0):
        raise ValueError("approach sequence must converge monotonically")
    # Richardson in the separation; exact already for the pure rational model
    X = np.stack([np.ones_like(seps_arr), seps_arr], axis=-1).astype(complex)
    coef, *_ = np.linalg.lstsq(X, ests_arr, rcond=None)
    est = complex(coef[0])
    spread = float(np.max(np.abs(ests_arr - ests_arr[-1])))
    diag = {"estimates": ests, "separations": seps, "spread": spread,
            "sign": sign}
    if spread > 10.0 * (seps_arr[0] * abs(bundle.mu) + 1e-12):
        diag["converged"] = False
        raise RuntimeError(f"residue estimates failed to converge: {diag}")
    diag["converged"] = True
    return est, diag


def nahm_weights(alpha: float):
    """Parabolic weight pair (1+alpha, 1-alpha) at the two singular points
    of the transformed bundle, with the exact degree balance
    deg V + sum(weights) = -2 + (1+alpha) + (1-alpha) = 0 certified in
    rational arithmetic."""
    if not (-0.5 <= alpha < 0.5):
        raise ValueError("alpha must lie in [-1/2, 1/2)")
    a = Fraction(alpha)
    check = Fraction(-2) + (1 + a) + (1 - a)
    return (1.0 + alpha, 1.0 - alpha), float(check)


def gap_region_scale(torus: TorusSpec) -> float:
    """The length min(2 pi / L_x, 2 pi / L_y) / (2 sqrt 2) that scales the
    Fourier gap's hypothesis region: the least nonzero symbol |g_nm| of
    `fourier_gap`, set by the longer period, over 2 sqrt 2. On a square
    torus it is the dual-lattice covering radius; on an oblong one the
    covering radius grows with the shorter period's wide dual spacing and
    would let lam and mu/|w| outgrow that least symbol."""
    return min(TWO_PI / torus.period_x, TWO_PI / torus.period_y) \
        / (2.0 * math.sqrt(2.0))


def in_hypothesis_region(lam, mu, w, torus: TorusSpec):
    """Empirically safe region for the Fourier gap inequality: lam small
    against the torus's least nonzero symbol (`gap_region_scale`), |w|
    large against |mu|, and the constant-mode alignment
    Re(conj(lam) mu) >= Re(conj(lam) mu e^{-i arg w}) that the equality
    case forces.

    lam, mu and w broadcast against each other as complex arrays; the
    result is a bool for scalar inputs and a bool array of the broadcast
    shape otherwise. w = 0 lies outside the region."""
    scale = gap_region_scale(torus)
    lam, mu, w = (np.asarray(v, dtype=complex) for v in (lam, mu, w))
    aw = np.abs(w)
    phase = w / np.where(aw > 0, aw, 1.0)
    lm = np.conj(lam) * mu
    inside = ((np.abs(lam) <= 0.1 * scale)
              & (aw >= 10.0 * np.abs(mu) / scale)
              & (aw > 0) & (lm.real >= (lm * np.conj(phase)).real - 1e-15))
    return bool(inside) if inside.ndim == 0 else inside


def fourier_gap(lam, mu, w, sigma, torus: TorusSpec):
    """Mode-sum gap sum |g_nm + lam + mu/|w||^2 |sigma_nm|^2
    - |lam + mu/w|^2 sum |sigma_nm|^2, with g_nm = 2 pi n / L_x
    + i 2 pi m / L_y the physical symbol of mode (n, m) on torus.
    Nonnegative on the hypothesis region
    (`in_hypothesis_region`); outside it the value is still returned.

    sigma: array-like (..., K, 3) of rows (n, m, coefficient); a list of K
    triples is one point's modes. Rows with coefficient 0 add nothing to
    either sum, so points with fewer modes are padded with them. lam, mu and
    w broadcast against sigma's leading shape (...). Returns a float for a
    single point and an array of the broadcast shape otherwise. Raises
    ValueError at w = 0, where mu/|w| is undefined."""
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim < 2 or sigma.shape[-1] != 3:
        raise ValueError("sigma must have shape (..., K, 3)")
    lam, mu, w = (np.asarray(v, dtype=complex) for v in (lam, mu, w))
    if np.any(w == 0):
        raise ValueError("fourier_gap at w = 0: the symbol mu/|w| is "
                         "undefined there")
    g = TWO_PI * sigma[..., 0].real / torus.period_x \
        + 1j * (TWO_PI * sigma[..., 1].real / torus.period_y)
    c2 = np.abs(sigma[..., 2]) ** 2
    shift = (lam + mu / np.abs(w))[..., None]
    lhs = np.sum(np.abs(g + shift) ** 2 * c2, axis=-1)
    gap = lhs - np.abs(lam + mu / w) ** 2 * np.sum(c2, axis=-1)
    return float(gap) if gap.ndim == 0 else gap
