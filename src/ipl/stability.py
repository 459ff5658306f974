"""Parabolic degree arithmetic, instability certificates for extension-type
bundles, existence obstructions for the charge/asymptotic-state table, and
the fiberwise section-count consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DualTorusPoint, lattice_distance
from .spectral import BundleModel, jumping_points, SingularPointError


@dataclass(frozen=True)
class ExtensionBundleSpec:
    """Extension of an ideal-sheaf twist by a flat-times-O(b) line bundle;
    the k points of the ideal sheaf must avoid the fiber at infinity."""
    xi0: DualTorusPoint
    b: int
    k: int
    points: tuple = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        pts = tuple(complex(p) for p in self.points)
        if not pts:
            pts = tuple(complex(j + 1, 0.0) for j in range(self.k))
        if len(pts) != self.k:
            raise ValueError("need exactly k ideal-sheaf points")
        if any(not np.isfinite(p.real) or not np.isfinite(p.imag)
               for p in pts):
            raise ValueError("ideal-sheaf points must avoid the infinity fiber")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class SubsheafSpec:
    """Line subsheaf data: twist degree along the rational direction and
    which eigenline of the split infinity fiber its restriction lands in
    (plus: inside the minus-state line; minus: inside the plus-state line).
    Only meaningful when the restriction to the infinity fiber is flat."""
    d_inf: int
    side: str

    def __post_init__(self):
        if self.side not in ("plus", "minus"):
            raise ValueError("side must be 'plus' or 'minus'")


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # "unstable" or "no_destabilizer_found"
    witness: SubsheafSpec
    witness_degree: float


def parabolic_degree(sub: SubsheafSpec, alpha: float) -> float:
    """Degree corrected by the parabolic weight at infinity: d_inf + alpha
    on the plus side, d_inf - alpha on the minus side (the torus area is
    normalized to 1 in degree computations)."""
    if not (-0.5 <= alpha < 0.5):
        raise ValueError("alpha must lie in [-1/2, 1/2)")
    sign = 1.0 if sub.side == "plus" else -1.0
    return sub.d_inf + sign * alpha


def alpha_stable_extension(spec: ExtensionBundleSpec,
                           alpha: float) -> StabilityVerdict:
    """Evaluates the canonical destabilizing candidate: the extension's own
    line subbundle, of twist degree b, restricting at infinity to the plus
    asymptotic eigenline (side minus). Positive parabolic degree certifies
    instability; otherwise no verdict of stability is claimed, only that
    this family contains no destabilizer."""
    witness = SubsheafSpec(d_inf=spec.b, side="minus")
    deg = parabolic_degree(witness, alpha)
    verdict = "unstable" if deg > 0 else "no_destabilizer_found"
    return StabilityVerdict(verdict=verdict, witness=witness,
                            witness_degree=deg)


def existence_obstruction(k: int, xi0: DualTorusPoint, mu: complex) -> str:
    """Non-existence table: order-two asymptotic state with k = 1 is
    blocked; distinct +-xi0 with vanishing residue is blocked; else ok."""
    if k < 1:
        raise ValueError("k must be >= 1")
    order_two = xi0.is_order_two(tol=1e-9)
    if order_two and k == 1:
        return "blocked_order2_k1"
    if not order_two and abs(complex(mu)) == 0.0:
        return "blocked_mu0"
    return "ok"


def h0_total(bundle: BundleModel, xi: DualTorusPoint, domain=(5.0, 1e3),
             allow_singular: bool = False) -> int:
    """Total fiberwise section count: jumping multiplicity over both
    eigenline branches on the domain plus the infinity-fiber contribution
    (1 for each asymptotic eigenline that xi trivializes; 2 at a split
    order-two state). Singular xi raises unless allow_singular."""
    inf_contrib = sum(
        lattice_distance(sgn * xi.zeta - bundle.lam, bundle.torus) < 1e-9
        for sgn in (+1.0, -1.0))
    if inf_contrib and not allow_singular:
        raise SingularPointError("xi is an asymptotic state; pass "
                                 "allow_singular=True to count anyway")
    # at a singular point the escaping eigenvalue sits outside any finite
    # annulus, and singular_tol=0 counts only the interior points that remain
    interior = jumping_points(bundle, xi, domain=domain, branch="both",
                              singular_tol=0.0).total_multiplicity
    return interior + inf_contrib


def h0_consistency(bundle: BundleModel, xi: DualTorusPoint,
                   domain=(5.0, 1e3), allow_singular: bool = False) -> dict:
    """Section-count ledger against the declared charge; surfaces the
    k = 1 order-two contradiction (infinity fiber alone contributes 2)."""
    total = h0_total(bundle, xi, domain=domain, allow_singular=allow_singular)
    consistent = total == bundle.k
    note = ""
    if not consistent:
        if total > bundle.k:
            note = (f"section count {total} exceeds declared charge "
                    f"{bundle.k}; the declared data is contradictory")
        else:
            note = (f"section count {total} below declared charge "
                    f"{bundle.k}; jumping points missing from the domain")
    return {"h0_total": total, "k": bundle.k, "consistent": consistent,
            "note": note}
