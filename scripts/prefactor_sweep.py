#!/usr/bin/env python3
"""Square-root-prefactor diagnostics on the binary symmetric channel.

Prints, per blocklength: the exact expurgated bound, the single-letter product
bound, the refined asymptotic bound, and the normalized sequence
sqrt(n) * exact * exp(n * (exponent - rate)), which should approach the
prefactor constant 4 * psi / sqrt(2 pi c0) from below.
"""

import argparse
import math
import sys

from expurg import dual, finite, presets, type_enum


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=0.1, help="crossover probability")
    ap.add_argument("--rate", type=float, default=0.02, help="rate in nats")
    ap.add_argument("--n", default="100,400,1600,6400", help="comma-separated blocklengths")
    args = ap.parse_args()

    ch, q, qin = presets.bsc_ml(args.p)
    rho, s = 1.0, 0.5
    rep = finite.prefactor_constants(ch, q, qin, rho, s)
    ex = dual.ex_iid(ch, q, qin, rho, s)
    const = 4.0 ** rho * rep.psi_s / math.sqrt(2.0 * math.pi * rep.c0)
    print(f"c0={rep.c0:.6f} span={rep.lattice_span} psi={rep.psi_s:.6f} "
          f"prefactor constant={const:.4f}")
    print(f"{'n':>6} {'log exact':>12} {'log product':>12} {'log refined':>12} {'normalized':>11}")
    for n_str in args.n.split(","):
        n = int(n_str)
        M = math.exp(n * args.rate)
        log_exact = type_enum.log_rcux_iid_exact(ch, q, qin, n, M, rho)
        log_prod = finite.log_rcux_iid_product(ch, q, qin, n, M, rho, s)
        log_ref = finite.log_refined_bound(ch, q, qin, rho, s, args.rate, n, rep)
        normalized = math.exp(0.5 * math.log(n) + log_exact + n * (ex - rho * args.rate))
        print(f"{n:>6} {log_exact:>12.3f} {log_prod:>12.3f} {log_ref:>12.3f} {normalized:>11.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
