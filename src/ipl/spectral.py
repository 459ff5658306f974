"""Spectral side of the correspondence: twisted Dolbeault triviality on
torus fibers, jumping points as Higgs-field eigenvalues, residue of the
Higgs field at its poles, parabolic weights, and the Fourier-mode gap
inequality underlying the vanishing argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import (TorusSpec, DualTorusPoint, covering_radius,
                       lattice_translates, lattice_distance, lattice_reduce)


class SingularPointError(ValueError):
    """xi sits at a pole of the Higgs field (an asymptotic state)."""


@dataclass(frozen=True)
class BundleModel:
    """Rank-2 fiberwise-split model bundle with exponent
    zeta(w) = lam + mu/w + tail[0]/w^2 + tail[1]/w^3 + ...

    Valid for |w| >= r_min; r_min must keep |zeta(w) - lam| under the
    dual-lattice covering radius so fibers stay close to the asymptotic
    splitting."""
    lam: complex
    mu: complex
    r_min: float
    k: int
    torus: TorusSpec
    tail: tuple = ()

    def __post_init__(self):
        if self.r_min <= 0:
            raise ValueError("r_min must be positive")
        if self.k < 1:
            raise ValueError("declared charge k must be >= 1")
        dev = abs(self.mu) / self.r_min
        for j, c in enumerate(self.tail):
            dev += abs(c) / self.r_min ** (j + 2)
        if dev >= covering_radius(self.torus):
            raise ValueError("zeta deviates from lam by more than the "
                             "dual-lattice covering radius on |w| >= r_min")
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "tail", tuple(complex(c) for c in self.tail))

    def coeffs_low_to_high(self) -> np.ndarray:
        """(lam, mu, tail...) as polynomial coefficients in u = 1/w."""
        return np.array([self.lam, self.mu, *self.tail], dtype=complex)


@dataclass
class SpectralData:
    xi: DualTorusPoint
    points: tuple  # ((w, multiplicity), ...)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.points)


def _roots_in_annulus(coeffs, target, r_lo, r_hi):
    """Roots of zeta(w) = target with zeta given by coeffs in u = 1/w,
    restricted to r_lo <= |w| <= r_hi; returns [(w, mult)], roots within a
    relative 1e-9 of each other counted as one of higher multiplicity."""
    poly = coeffs.copy()
    poly[0] -= target
    # polynomial in u, highest-degree-first for np.roots
    rev = poly[::-1]
    nz = np.nonzero(np.abs(rev) > 1e-14)[0]
    if nz.size == 0 or nz[0] == rev.size - 1:
        return []  # constant nonzero, or identically shifted zero handled upstream
    rev = rev[nz[0]:]
    us = np.roots(rev)
    ws = []
    for u in us:
        if abs(u) < 1e-300:
            continue
        w = 1.0 / u
        if r_lo - 1e-9 <= abs(w) <= r_hi + 1e-9:
            ws.append(w)
    # cluster near-coincident roots into multiplicities
    out = []
    for w in sorted(ws, key=lambda z: (z.real, z.imag)):
        for i, (w0, m0) in enumerate(out):
            if abs(w - w0) <= 1e-9 * max(1.0, abs(w0)):
                out[i] = ((w0 * m0 + w) / (m0 + 1), m0 + 1)
                break
        else:
            out.append((w, 1))
    return out


def jumping_points(bundle: BundleModel, xi: DualTorusPoint,
                   domain=(5.0, 1e3), branch: str = "plus",
                   singular_tol: float = 1e-9) -> SpectralData:
    """Fiberwise-trivial locus: solves zeta(w) = (+-)zeta(xi) modulo the
    dual lattice on the annulus. The returned w are the eigenvalues of the
    transformed Higgs field at xi; multiplicity from root order.

    branch: 'plus', 'minus', or 'both' (which eigenline of the split fiber
    the twist trivializes); default 'plus'.
    """
    if branch not in ("plus", "minus", "both"):
        raise ValueError("branch must be plus, minus, or both")
    r_lo, r_hi = float(domain[0]), float(domain[1])
    if not (bundle.r_min <= r_lo < r_hi):
        raise ValueError("domain must sit inside the bundle's validity range")
    torus = bundle.torus
    zx = xi.zeta
    for sgn in (+1.0, -1.0):
        if lattice_distance(sgn * zx - bundle.lam, torus) < singular_tol:
            raise SingularPointError(
                "xi coincides with an asymptotic state (Higgs field pole)")
    coeffs = bundle.coeffs_low_to_high()
    scale = abs(bundle.mu) + sum(abs(c) for c in bundle.tail)
    signs = {"plus": (+1.0,), "minus": (-1.0,), "both": (+1.0, -1.0)}[branch]
    points = []
    for sgn in signs:
        target0 = sgn * zx
        # admissible translates keep |target + omega - lam| small enough
        # that the root can lie inside |w| <= r_hi yet beyond r_lo
        radius = 1.2 * scale / r_lo + 1e-12
        for omega in lattice_translates(bundle.lam - target0, radius, torus):
            target = target0 + omega
            if abs(target - bundle.lam) * r_hi < 0.5 * abs(bundle.mu):
                continue  # root beyond the outer radius (or at the pole)
            points.extend(_roots_in_annulus(coeffs, target, r_lo, r_hi))
    points.sort(key=lambda pm: (abs(pm[0]), pm[0].real, pm[0].imag))
    return SpectralData(xi=xi, points=tuple(points))


def phi_residue(bundle: BundleModel, xi0: DualTorusPoint,
                approach) -> tuple[complex, dict]:
    """Residue of the transformed Higgs field at the singular point xi0,
    estimated from an approach sequence: w(xi_j) * (zeta(xi_j) - zeta(xi0))
    for the largest jumping point on r_min <= |w| <= 1e30,
    Richardson-extrapolated. Equals +mu at the singularity over the plus
    eigenline and -mu at the opposite one."""
    z0 = xi0.zeta
    sign = None
    for sgn in (+1.0, -1.0):
        if lattice_distance(sgn * z0 - bundle.lam, bundle.torus) < 1e-9:
            sign = sgn
            break
    if sign is None:
        raise ValueError("xi0 is not a singular point of this bundle")
    ests, seps = [], []
    for xj in approach:
        zj = xj.zeta if isinstance(xj, DualTorusPoint) else complex(xj)
        branch = "plus" if sign > 0 else "minus"
        sd = jumping_points(bundle, _as_point(xj, zj, bundle.torus),
                            domain=(bundle.r_min, 1e30), branch=branch)
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


def _as_point(xj, zj, torus):
    if isinstance(xj, DualTorusPoint):
        return xj
    from .geometry import xi_from_zeta
    return xi_from_zeta(zj, torus)


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


def in_hypothesis_region(lam, mu, w, torus: TorusSpec):
    """Empirically safe region for the Fourier gap inequality: lam small
    against the lattice, |w| large against |mu|, and the constant-mode
    alignment Re(conj(lam) mu) >= Re(conj(lam) mu e^{-i arg w}) that the
    equality case forces.

    lam, mu and w broadcast against each other as complex arrays; the
    result is a bool for scalar inputs and a bool array of the broadcast
    shape otherwise. w = 0 lies outside the region."""
    cov = covering_radius(torus)
    lam, mu, w = (np.asarray(v, dtype=complex) for v in (lam, mu, w))
    aw = np.abs(w)
    phase = w / np.where(aw > 0, aw, 1.0)
    lm = np.conj(lam) * mu
    inside = ((np.abs(lam) <= 0.1 * cov) & (aw >= 10.0 * np.abs(mu) / cov)
              & (aw > 0) & (lm.real >= (lm * np.conj(phase)).real - 1e-15))
    return bool(inside) if inside.ndim == 0 else inside


def fourier_gap(lam, mu, w, sigma, torus: TorusSpec):
    """Mode-sum gap sum |g_nm + lam + mu/|w||^2 |sigma_nm|^2
    - |lam + mu/w|^2 sum |sigma_nm|^2, with g_nm the dual-lattice symbol of
    mode (n, m). Nonnegative on the hypothesis region; outside it the value
    is still returned, flagged by the second result (`in_hypothesis_region`
    at the same point).

    sigma: array-like (..., K, 3) of rows (n, m, coefficient); a list of K
    triples is one point's modes. Rows with coefficient 0 add nothing to
    either sum, so points with fewer modes are padded with them. lam, mu and
    w broadcast against sigma's leading shape (...). Returns (float, bool)
    for a single point and a pair of arrays of the broadcast shape
    otherwise. Raises ValueError at w = 0, where mu/|w| is undefined."""
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim < 2 or sigma.shape[-1] != 3:
        raise ValueError("sigma must have shape (..., K, 3)")
    lam, mu, w = (np.asarray(v, dtype=complex) for v in (lam, mu, w))
    if np.any(w == 0):
        raise ValueError("fourier_gap at w = 0: the symbol mu/|w| is "
                         "undefined there")
    ok = in_hypothesis_region(lam, mu, w, torus)
    g = sigma[..., 0].real + 1j * sigma[..., 1].real
    c2 = np.abs(sigma[..., 2]) ** 2
    shift = (lam + mu / np.abs(w))[..., None]
    lhs = np.sum(np.abs(g + shift) ** 2 * c2, axis=-1)
    gap = lhs - np.abs(lam + mu / w) ** 2 * np.sum(c2, axis=-1)
    if gap.ndim == 0:
        return float(gap), bool(ok)
    return gap, np.broadcast_to(ok, gap.shape)
