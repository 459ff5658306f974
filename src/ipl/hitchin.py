"""Dimensional reduction between torus-invariant connections on the
annulus times torus and Higgs pairs (B, psi) on the punctured plane.

Fixed normalization (see geometry.conventions_sheet): a torus-invariant
connection a_r dr + a_th dtheta + a_x dx + a_y dy reduces to

    B = a_r dr + a_th dtheta,      psi_w = (a_y - i a_x) / 2,

and conversely a_x = i (psi_w + psi_w^dag), a_y = psi_w - psi_w^dag. With
dw ^ dwbar = -2i dw1 ^ dw2, anti-self-duality of the lift is equivalent to

    F_B^{12} = 2i [psi_w, psi_w^dag]   and   D_wbar psi_w = 0,

and the exact pointwise identity |F^+|^2 = rho1^2/2 + 2 rho2^2 holds for
the residual pair returned by hitchin_residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _su2
from .gauge import ConnectionSource, DomainError, richardson_derivative
from .geometry import TorusSpec


class NotTorusInvariantError(ValueError):
    pass


@dataclass
class HiggsPairOnPlane:
    """Pair (B, psi) on the annulus r >= r_min of the plane.

    evaluate_b(points): (..., 2) [r, theta] -> (..., 2, 2, 2), components
    (b_r, b_theta), anti-hermitian traceless. evaluate_psi(points):
    (..., 2) -> (..., 2, 2) complex traceless (the dw-coefficient of the
    Higgs field). Optional exact partials with axis 0 = r, 1 = theta.
    """

    evaluate_b: Callable[[np.ndarray], np.ndarray]
    evaluate_psi: Callable[[np.ndarray], np.ndarray]
    derivative_b: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    derivative_psi: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    torus: TorusSpec = field(default_factory=TorusSpec)
    r_min: float = 0.0
    r_max: float = math.inf
    name: str = "higgs-pair"

    @property
    def is_analytic(self) -> bool:
        return self.derivative_b is not None and self.derivative_psi is not None

    def check_domain(self, points) -> None:
        r = np.asarray(points)[..., 0]
        if np.any(r < self.r_min) or np.any(r > self.r_max):
            raise DomainError(f"{self.name}: radius outside "
                              f"[{self.r_min}, {self.r_max}]")


def pair_derivative_b(pair: HiggsPairOnPlane, points, axis: int):
    if pair.derivative_b is not None:
        return pair.derivative_b(np.asarray(points, dtype=float), axis)
    return richardson_derivative(pair.evaluate_b, points, axis, 1e-2)


def pair_derivative_psi(pair: HiggsPairOnPlane, points, axis: int):
    if pair.derivative_psi is not None:
        return pair.derivative_psi(np.asarray(points, dtype=float), axis)
    return richardson_derivative(pair.evaluate_psi, points, axis, 1e-2)


def reduce(conn: ConnectionSource, n_check: int = 16, tol: float = 1e-9,
           seed: int = 0) -> HiggsPairOnPlane:
    """Reduce a torus-invariant connection to its Higgs pair.

    Torus invariance is verified on `n_check` random (r, theta) points by
    comparing component values at random torus positions against the base
    torus position; raises NotTorusInvariantError beyond `tol`.
    """
    rng = np.random.default_rng(seed)
    r_lo = max(conn.r_min, 1e-3)
    r_hi = min(conn.r_max, r_lo * 100.0 + 10.0)
    rs = rng.uniform(r_lo + 1e-6, r_hi, size=n_check)
    ths = rng.uniform(0.0, 2 * math.pi, size=n_check)
    base = np.stack([rs, ths, np.zeros(n_check), np.zeros(n_check)], axis=-1)
    xs = rng.uniform(0.0, conn.torus.period_x, size=n_check)
    ys = rng.uniform(0.0, conn.torus.period_y, size=n_check)
    moved = np.stack([rs, ths, xs, ys], axis=-1)
    dev = float(np.max(_su2.frob(conn(moved) - conn(base))))
    if dev > tol:
        raise NotTorusInvariantError(
            f"component deviation {dev:.3e} over the torus exceeds {tol:.1e}")

    def _lift_points(points):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (4,))
        out[..., 0] = points[..., 0]
        out[..., 1] = points[..., 1]
        return out

    def psi_slice(a):
        """psi_w = (a_y - i a_x)/2 from connection components, or the same
        for their partials."""
        return (a[..., 3, :, :] - 1j * a[..., 2, :, :]) / 2.0

    def evaluate_b(points):
        return conn.evaluate(_lift_points(points))[..., :2, :, :]

    def evaluate_psi(points):
        return psi_slice(conn.evaluate(_lift_points(points)))

    derivative_b = None
    derivative_psi = None
    if conn.is_analytic:
        def derivative_b(points, axis):
            return conn.derivative(_lift_points(points), axis)[..., :2, :, :]

        def derivative_psi(points, axis):
            return psi_slice(conn.derivative(_lift_points(points), axis))

    return HiggsPairOnPlane(
        evaluate_b=evaluate_b, evaluate_psi=evaluate_psi,
        derivative_b=derivative_b, derivative_psi=derivative_psi,
        torus=conn.torus, r_min=conn.r_min, r_max=conn.r_max,
        name=f"reduce({conn.name})",
    )


def lift(pair: HiggsPairOnPlane) -> ConnectionSource:
    """Torus-invariant connection of a Higgs pair (exact inverse of reduce)."""

    def components(b, psi, shape):
        """(a_r, a_theta, a_x, a_y) from (b_r, b_theta) and psi_w, or the
        same for their partials."""
        psid = _su2.dag(psi)
        out = np.empty(shape + (4, 2, 2), dtype=complex)
        out[..., :2, :, :] = b
        out[..., 2, :, :] = 1j * (psi + psid)
        out[..., 3, :, :] = psi - psid
        return out

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        p2 = points[..., :2]
        return components(pair.evaluate_b(p2), pair.evaluate_psi(p2),
                          points.shape[:-1])

    derivative = None
    if pair.is_analytic:
        def derivative(points, axis):
            points = np.asarray(points, dtype=float)
            if axis not in (0, 1):  # torus directions: invariant
                return np.zeros(points.shape[:-1] + (4, 2, 2), dtype=complex)
            p2 = points[..., :2]
            return components(pair.derivative_b(p2, axis),
                              pair.derivative_psi(p2, axis), points.shape[:-1])

    return ConnectionSource(
        evaluate=evaluate, torus=pair.torus, derivative=derivative,
        r_min=pair.r_min, r_max=pair.r_max,
        name=f"lift({pair.name})",
    )


def hitchin_residual(pair: HiggsPairOnPlane, points) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise residual norms (rho1, rho2) of the reduced equations:

    rho1 = |F_B^{12} - 2i [psi, psi^dag]|_F  (curvature equation, unit frame)
    rho2 = 2 |d_wbar psi + [B_wbar, psi]|_F  (holomorphicity, 2-form norm)
    """
    points = np.asarray(points, dtype=float)
    pair.check_domain(points)
    r = points[..., 0]
    th = points[..., 1]
    b = pair.evaluate_b(points)
    psi = pair.evaluate_psi(points)
    psid = _su2.dag(psi)
    db_r = pair_derivative_b(pair, points, 0)
    db_th = pair_derivative_b(pair, points, 1)
    dpsi_r = pair_derivative_psi(pair, points, 0)
    dpsi_th = pair_derivative_psi(pair, points, 1)

    br, bth = b[..., 0, :, :], b[..., 1, :, :]
    f12 = (db_r[..., 1, :, :] - db_th[..., 0, :, :] + _su2.comm(br, bth))
    f12 = f12 / r[..., None, None]
    rho1 = _su2.frob(f12 - 2j * _su2.comm(psi, psid))

    phase = np.exp(1j * th)[..., None, None]
    dwbar_psi = 0.5 * phase * (dpsi_r + 1j * dpsi_th / r[..., None, None])
    bwbar = 0.5 * phase * (br + 1j * bth / r[..., None, None])
    g = dwbar_psi + _su2.comm(bwbar, psi)
    rho2 = 2.0 * _su2.frob(g)
    return rho1, rho2
