"""Round-trip demo: build a model connection, optionally bury it under a
decaying random perturbation, and extract the asymptotic invariants back
from holonomy samples alone.

Usage:
    python3 scripts/extraction_demo.py [--lam RE IM] [--mu RE IM]
        [--alpha A] [--amplitude AMP] [--seed N]

Prints the errors of the recovered (lambda, alpha, mu), scored as the
`ipl invariants` report scores them (asymptotics.roundtrip_errors), for a
few nested ring families, so the convergence with ring radius is
visible directly, together with the curvature energy inside the outer
ring (8 pi |mu|^2 (1 - R^-2) for a clean model; "n/a" when a perturbed
tail makes the outer shells grow). A ring family whose extraction fails
prints "extraction failed" and the reason; the other families still run,
and the exit code is then 1. A negative --amplitude or a --delta <= 0
exits 2.
"""

import argparse
import sys

from ipl.asymptotics import (ExtractionError, extract_invariants,
                             instanton_number, roundtrip_errors)
from ipl.geometry import TorusSpec
from ipl.models import ModelParams, model_connection, perturb

RING_FAMILIES = (
    (25.0, 50.0, 100.0, 200.0),
    (50.0, 100.0, 200.0, 400.0),
    (100.0, 200.0, 400.0, 800.0),
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", nargs=2, type=float, default=[0.1, -0.07],
                    metavar=("RE", "IM"))
    ap.add_argument("--mu", nargs=2, type=float, default=[0.3, 0.2],
                    metavar=("RE", "IM"))
    ap.add_argument("--alpha", type=float, default=0.2)
    ap.add_argument("--amplitude", type=float, default=0.0,
                    help="perturbation amplitude (0 = clean model)")
    ap.add_argument("--delta", type=float, default=0.5,
                    help="perturbation decays like r^-(1+delta)")
    ap.add_argument("--seed", type=int, default=20260815)
    args = ap.parse_args()
    if args.amplitude < 0:
        ap.error("--amplitude must be >= 0")
    if args.delta <= 0:
        ap.error("--delta must be > 0")

    torus = TorusSpec()
    params = ModelParams(lam=complex(*args.lam), mu=complex(*args.mu),
                         alpha=args.alpha)
    conn = model_connection(params, torus)
    if args.amplitude > 0:
        conn = perturb(conn, delta=args.delta, amplitude=args.amplitude,
                       seed=args.seed, r_lo=5.0, r_hi=600.0)
        print(f"perturbed: amplitude {args.amplitude}, "
              f"decay r^-{1 + args.delta}, seed {args.seed}")
    print(f"target: lambda={params.lam}, alpha={params.alpha}, "
          f"mu={params.mu}")

    failed = False
    for rings in RING_FAMILIES:
        label = f"rings {rings[0]:6.1f}..{rings[-1]:6.1f}"
        try:
            inv = extract_invariants(conn, rings, kind="semisimple")
        except ExtractionError as e:
            print(f"{label}: extraction failed: {e}")
            failed = True
            continue
        e = roundtrip_errors(params, inv, torus)
        try:
            energy = instanton_number(conn, rings[-1],
                                      r_inner=max(conn.r_min, 1.0))["energy"]
            e_txt = f"{energy:.3f}"
        except ExtractionError:
            e_txt = "n/a"
        print(f"{label}: "
              f"|dlam|={e['lambda']:.2e} |dalpha|={e['alpha']:.2e} "
              f"|dmu|={e['mu']:.2e} xi0=({inv.xi0.xi1:.4f},{inv.xi0.xi2:.4f}) "
              f"energy={e_txt}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
