"""Torus geometry, dual-torus bookkeeping, and annulus grids.

Fixes every convention the rest of the package consumes:

- coordinates (r, theta, x, y) on the annulus times torus, w = r e^{i theta};
- torus periods (L_x, L_y), default (2 pi, 2 pi);
- dbar on the torus acts on the mode e^{i(nx+my)} as (i n - m)/2 + zeta for
  the twisted operator dbar + zeta dzbar;
- the Dolbeault twist of the flat connection i c1 dx + i c2 dy with
  c_i = 2 pi xi_i / L_i is zeta(xi) = (i c1 - c2)/2;
- orientation dx ^ dy ^ dw1 ^ dw2, orthonormal coframe (dr, r dtheta, dx, dy)
  positively ordered as (e1, e2, e3, e4) = (dr, r dtheta, dx, dy).

The full machine-readable statement is returned by `conventions_sheet`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TorusSpec:
    period_x: float = TWO_PI
    period_y: float = TWO_PI

    def __post_init__(self):
        if not (self.period_x > 0 and self.period_y > 0):
            raise ValueError("torus periods must be positive")
        if not (math.isfinite(self.period_x) and math.isfinite(self.period_y)):
            raise ValueError("torus periods must be finite")

    @property
    def area(self) -> float:
        return self.period_x * self.period_y


def _mod1(x: float) -> float:
    r = x - math.floor(x)
    return 0.0 if r >= 1.0 else r


def zeta_from_xi(xi1: float, xi2: float, torus: TorusSpec) -> complex:
    """Dolbeault twist of the flat connection with holonomy exponents xi."""
    c1 = TWO_PI * xi1 / torus.period_x
    c2 = TWO_PI * xi2 / torus.period_y
    return (1j * c1 - c2) / 2.0


def xi_from_zeta(zeta: complex, torus: TorusSpec) -> "DualTorusPoint":
    """Inverse of zeta_from_xi, reduced to the fundamental square."""
    c1 = 2.0 * zeta.imag
    c2 = -2.0 * zeta.real
    return reduce_dual(
        (c1 * torus.period_x / TWO_PI, c2 * torus.period_y / TWO_PI), torus
    )


@dataclass(frozen=True)
class DualTorusPoint:
    xi1: float
    xi2: float
    torus: TorusSpec

    def __post_init__(self):
        for v in (self.xi1, self.xi2):
            if not (0.0 <= v < 1.0):
                raise ValueError("dual-torus components must lie in [0, 1); "
                                 "use reduce_dual to construct from raw values")

    @property
    def xi(self) -> tuple[float, float]:
        return (self.xi1, self.xi2)

    @property
    def zeta(self) -> complex:
        return zeta_from_xi(self.xi1, self.xi2, self.torus)

    @property
    def minus(self) -> "DualTorusPoint":
        return reduce_dual((-self.xi1, -self.xi2), self.torus)

    def is_order_two(self, tol: float = 1e-12) -> bool:
        """True when xi = -xi on the dual torus (2 xi integral)."""
        return all(
            min(_mod1(2.0 * v), 1.0 - _mod1(2.0 * v)) <= tol
            for v in (self.xi1, self.xi2)
        )


def reduce_dual(xi_raw, torus: TorusSpec) -> DualTorusPoint:
    """Reduce raw dual-torus coordinates mod 1 per component."""
    x1, x2 = float(xi_raw[0]), float(xi_raw[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("dual-torus coordinates must be finite")
    return DualTorusPoint(_mod1(x1), _mod1(x2), torus)


def dual_lattice(torus: TorusSpec) -> tuple[complex, complex]:
    """Generators of the twists for which dbar + zeta dzbar has kernel.

    The mode e^{i(nx + my)} is killed by zeta = (m - i n)/2 in mode-index
    units; in physical units the generators are pi/L_y (real direction,
    from m) and i pi/L_x (imaginary direction, from n).
    """
    return (math.pi / torus.period_y + 0.0j, 1j * math.pi / torus.period_x)


def lattice_reduce(z: complex, torus: TorusSpec) -> complex:
    """Representative of z modulo the dual lattice nearest to zero."""
    g_re = math.pi / torus.period_y
    g_im = math.pi / torus.period_x
    re = z.real - round(z.real / g_re) * g_re
    im = z.imag - round(z.imag / g_im) * g_im
    return complex(re, im)


def lattice_distance(z: complex, torus: TorusSpec) -> float:
    return abs(lattice_reduce(z, torus))


def in_dual_lattice(z: complex, torus: TorusSpec, tol: float = 1e-10) -> bool:
    return lattice_distance(z, torus) <= tol


def covering_radius(torus: TorusSpec) -> float:
    """Largest distance from any twist to the dual lattice."""
    g_re = math.pi / torus.period_y
    g_im = math.pi / torus.period_x
    return 0.5 * math.hypot(g_re, g_im)


def lattice_translates(center: complex, radius: float, torus: TorusSpec):
    """All dual-lattice points within `radius` of `center`."""
    g_re = math.pi / torus.period_y
    g_im = math.pi / torus.period_x
    out = []
    m_lo = math.floor((center.real - radius) / g_re)
    m_hi = math.ceil((center.real + radius) / g_re)
    n_lo = math.floor((center.imag - radius) / g_im)
    n_hi = math.ceil((center.imag + radius) / g_im)
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            w = complex(m * g_re, n * g_im)
            if abs(w - center) <= radius:
                out.append(w)
    return out


@dataclass(frozen=True)
class AnnulusGrid:
    """Product grid on [r_min, r_max] x circle x torus: Chebyshev-Lobatto
    radii (the nodes of the radial differentiation matrix and of the
    positive-weight interpolatory quadrature of `moduli`), and evenly
    spaced periodic nodes."""
    r_min: float
    r_max: float
    n_r: int = 16
    n_theta: int = 16
    n_x: int = 8
    n_y: int = 8

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if min(self.n_r, self.n_theta, self.n_x, self.n_y) < 4:
            raise ValueError("all node counts must be >= 4")

    @property
    def rs(self) -> np.ndarray:
        j = np.arange(self.n_r)
        x = np.cos(np.pi * j / (self.n_r - 1))[::-1]
        return 0.5 * (self.r_min + self.r_max) + 0.5 * (
            self.r_max - self.r_min) * x

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(0.0, TWO_PI, self.n_theta, endpoint=False)

    def xs(self, torus: TorusSpec) -> np.ndarray:
        return np.linspace(0.0, torus.period_x, self.n_x, endpoint=False)

    def ys(self, torus: TorusSpec) -> np.ndarray:
        return np.linspace(0.0, torus.period_y, self.n_y, endpoint=False)


# ---------------------------------------------------------------------------
# conventions sheet

def conventions_sheet(torus: TorusSpec) -> dict:
    g1, g2 = dual_lattice(torus)
    sheet = {
        "coordinates": "(r, theta, x, y); w = r exp(i theta)",
        "torus_periods": [torus.period_x, torus.period_y],
        "torus_area": torus.area,
        "orientation": "dx ^ dy ^ dw1 ^ dw2; coframe (dr, r dtheta, dx, dy) positive",
        "self_dual_basis": [
            "e1^e2 + e3^e4",
            "e1^e3 - e2^e4",
            "e1^e4 + e2^e3",
        ],
        "dbar_on_torus": "dbar = (1/2)(d_x + i d_y) dzbar; mode (n,m) -> (i n - m)/2",
        "dual_lattice_basis": [[g1.real, g1.imag], [g2.real, g2.imag]],
        "zeta_of_xi": "zeta = (i c1 - c2)/2, c_i = 2 pi xi_i / L_i",
        "model_parameters": "lambda = (lambda1 + i lambda2)/2, mu = (mu1 + i mu2)/2; "
        "complex monodromy exponent (c1 + i c2)/2 = lambda + mu/w",
        "holonomy_transport": "h' = -A(gamma') h (path-ordered, fourth-order "
        "Magnus steps on two Gauss nodes)",
        "reduction": "psi_w = (a_y - i a_x)/2; lift: a_x = i(psi + psi^dag), "
        "a_y = psi - psi^dag",
        "asd_from_reduction": "|F^+|^2 = rho1^2/2 + 2 rho2^2 with rho1 = "
        "|F_B^{12} - 2i[psi,psi^dag]|_F, rho2 = 2 |D_wbar psi|_F",
        "norm": "Frobenius; |F|^2 = sum_{i<j} |F_ij|_F^2 in the orthonormal coframe",
        "matrix_convention": "su(2) anti-hermitian traceless; <X,Y> = Re tr(X Y^dag)",
    }
    return sheet


def conventions_hash(torus: TorusSpec) -> str:
    payload = json.dumps(conventions_sheet(torus), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
