"""Higgs pairs (B, psi) on the punctured plane, their lift to
torus-invariant connections on the annulus times torus, and the residual
of the Hitchin equations.

Fixed normalization (see geometry.conventions_sheet): a torus-invariant
connection a_r dr + a_th dtheta + a_x dx + a_y dy reduces to

    B = a_r dr + a_th dtheta,      psi_w = (a_y - i a_x) / 2,

and conversely a_x = i (psi_w + psi_w^dag), a_y = psi_w - psi_w^dag. With
dw ^ dwbar = -2i dw1 ^ dw2, anti-self-duality of the lift is equivalent to

    F_B^{12} = 2i [psi_w, psi_w^dag]   and   D_wbar psi_w = 0,

and the exact pointwise identity |F^+|^2 = rho1^2/2 + 2 rho2^2 holds for
the residual pair returned by hitchin_residual.

In vectors (see `_su2`): a component a_j = i v_j.sigma is a real v_j and
psi_w = i q.sigma a complex q, with psi_w^dag = i (-conj q).sigma; so
q = (v_y - i v_x) / 2, and conversely v_x = -2 Im q, v_y = 2 Re q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _su2
from .gauge import (AXES, ConnectionSource, RadialDomain,
                    read_along_circle_at_base)
from .geometry import TorusSpec


@dataclass
class HiggsPairOnPlane(RadialDomain):
    """Pair (B, psi) on the annulus r >= r_min of the plane.

    evaluate(points): (..., 2) [r, theta] -> the tuple (b, q); b is
    (..., 2, 3) float, the su(2) vectors of the components (b_r, b_theta),
    and q is (..., 3) complex, the sl(2,C) vector of the dw-coefficient
    psi = i q.sigma of the Higgs field. derivative(points): the tuple
    (db, dq) of exact partials, (..., 2, 2, 3) float with entry
    [..., i, j] = partial_i b_j and (..., 2, 3) complex with entry
    [..., i] = partial_i q; index 0 = r, 1 = theta. Each call of either
    returns new arrays that the caller may write to.
    """

    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    derivative: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    torus: TorusSpec
    r_min: float = 0.0
    name: str = "higgs-pair"


def lift(pair: HiggsPairOnPlane) -> ConnectionSource:
    """Torus-invariant connection of a Higgs pair: the inverse of the
    reduction psi_w = (a_y - i a_x) / 2."""

    def components(b, q, out):
        """Writes (a_r, a_theta, a_x, a_y) from (b_r, b_theta) and q into
        out (..., 4, 3), or the same for their partials."""
        out[..., :2, :] = b
        out[..., 2, :] = -2.0 * q.imag
        out[..., 3, :] = 2.0 * q.real
        return out

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        p2 = points[..., :2]
        return components(*pair.evaluate(p2),
                          np.empty(p2.shape[:-1] + (4, 3)))

    def derivative(points, axes=AXES):
        points = np.asarray(points, dtype=float)
        p2 = points[..., :2]
        table = np.zeros(p2.shape[:-1] + (4, 4, 3))
        components(*pair.derivative(p2),
                   table[..., :2, :, :])  # torus partials: invariant, zero
        return table if axes == AXES else table[..., list(axes), :, :]

    return read_along_circle_at_base(ConnectionSource(
        evaluate=evaluate, torus=pair.torus, derivative=derivative,
        r_min=pair.r_min, name=f"lift({pair.name})",
    ))


def hitchin_residual(pair: HiggsPairOnPlane, points) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise residual norms (rho1, rho2) of the reduced equations:

    rho1 = |F_B^{12} - 2i [psi, psi^dag]|_F  (curvature equation, unit frame)
    rho2 = 2 |d_wbar psi + [B_wbar, psi]|_F  (holomorphicity, 2-form norm)
    """
    points = np.asarray(points, dtype=float)
    pair.check_domain(points)
    r = points[..., 0]
    th = points[..., 1]
    b, q = pair.evaluate(points)
    db, dq = pair.derivative(points)

    br, bth = b[..., 0, :], b[..., 1, :]
    f12 = (db[..., 0, 1, :] - db[..., 1, 0, :] + _su2.comm_vector(br, bth))
    f12 = f12 / r[..., None]
    rho1 = _su2.frob_vector(f12 - 2j * _su2.comm_vector(q, -np.conj(q)))

    phase = np.exp(1j * th)[..., None]
    dwbar_q = 0.5 * phase * (dq[..., 0, :] + 1j * dq[..., 1, :] / r[..., None])
    bwbar = 0.5 * phase * (br + 1j * bth / r[..., None])
    g = dwbar_q + _su2.comm_vector(bwbar, q)
    rho2 = 2.0 * _su2.frob_vector(g)
    return rho1, rho2
