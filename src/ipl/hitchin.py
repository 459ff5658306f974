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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _su2
from .gauge import ConnectionSource, RadialDomain
from .geometry import TorusSpec


class NotTorusInvariantError(ValueError):
    pass


@dataclass
class HiggsPairOnPlane(RadialDomain):
    """Pair (B, psi) on the annulus r >= r_min of the plane.

    evaluate_b(points): (..., 2) [r, theta] -> (..., 2, 2, 2), components
    (b_r, b_theta), anti-hermitian traceless. evaluate_psi(points):
    (..., 2) -> (..., 2, 2) complex traceless (the dw-coefficient of the
    Higgs field). derivative_b(points, axis) and derivative_psi(points,
    axis) are their exact partials, axis 0 = r, 1 = theta.
    """

    evaluate_b: Callable[[np.ndarray], np.ndarray]
    evaluate_psi: Callable[[np.ndarray], np.ndarray]
    derivative_b: Callable[[np.ndarray, int], np.ndarray]
    derivative_psi: Callable[[np.ndarray, int], np.ndarray]
    torus: TorusSpec
    r_min: float = 0.0
    name: str = "higgs-pair"


# `reduce` checks torus invariance at this many random points, to this
# component deviation, with this seed
N_CHECK, CHECK_TOL, CHECK_SEED = 16, 1e-9, 0


def reduce(conn: ConnectionSource) -> HiggsPairOnPlane:
    """Reduce a torus-invariant connection to its Higgs pair.

    Torus invariance is verified on N_CHECK random (r, theta) points by
    comparing component values at random torus positions against the base
    torus position; raises NotTorusInvariantError beyond CHECK_TOL.
    """
    n = N_CHECK
    rng = np.random.default_rng(CHECK_SEED)
    r_lo = max(conn.r_min, 1e-3)
    r_hi = r_lo * 100.0 + 10.0
    rs = rng.uniform(r_lo + 1e-6, r_hi, size=n)
    ths = rng.uniform(0.0, 2 * math.pi, size=n)
    base = np.stack([rs, ths, np.zeros(n), np.zeros(n)], axis=-1)
    xs = rng.uniform(0.0, conn.torus.period_x, size=n)
    ys = rng.uniform(0.0, conn.torus.period_y, size=n)
    moved = np.stack([rs, ths, xs, ys], axis=-1)
    dev = float(np.max(_su2.frob(conn.evaluate(moved) - conn.evaluate(base))))
    if dev > CHECK_TOL:
        raise NotTorusInvariantError(
            f"component deviation {dev:.3e} over the torus exceeds "
            f"{CHECK_TOL:.1e}")

    def _lift_points(points):
        """(..., 2) plane points (r, theta) -> (r, theta, 0, 0)."""
        points = np.asarray(points, dtype=float)
        return np.concatenate([points, np.zeros_like(points)], axis=-1)

    def psi_slice(a):
        """psi_w = (a_y - i a_x)/2 from connection components, or the same
        for their partials."""
        return (a[..., 3, :, :] - 1j * a[..., 2, :, :]) / 2.0

    def evaluate_b(points):
        return conn.evaluate(_lift_points(points))[..., :2, :, :]

    def evaluate_psi(points):
        return psi_slice(conn.evaluate(_lift_points(points)))

    def derivative_b(points, axis):
        return conn.derivative(_lift_points(points), axis)[..., :2, :, :]

    def derivative_psi(points, axis):
        return psi_slice(conn.derivative(_lift_points(points), axis))

    return HiggsPairOnPlane(
        evaluate_b=evaluate_b, evaluate_psi=evaluate_psi,
        derivative_b=derivative_b, derivative_psi=derivative_psi,
        torus=conn.torus, r_min=conn.r_min, name=f"reduce({conn.name})",
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

    def derivative(points, axis):
        points = np.asarray(points, dtype=float)
        if axis not in (0, 1):  # torus directions: invariant
            return np.zeros(points.shape[:-1] + (4, 2, 2), dtype=complex)
        p2 = points[..., :2]
        return components(pair.derivative_b(p2, axis),
                          pair.derivative_psi(p2, axis), points.shape[:-1])

    return ConnectionSource(
        evaluate=evaluate, torus=pair.torus, derivative=derivative,
        r_min=pair.r_min, name=f"lift({pair.name})",
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
    db_r = pair.derivative_b(points, 0)
    db_th = pair.derivative_b(points, 1)
    dpsi_r = pair.derivative_psi(points, 0)
    dpsi_th = pair.derivative_psi(points, 1)

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
