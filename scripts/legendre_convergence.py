#!/usr/bin/env python3
"""Convergence study for the discrete Legendre transform.

Runs the Legendre duality check on a sequence of refined grids and prints
the quartic potential's double-transform involution error and
product-of-Hessian-determinants error per grid, with observed orders of
convergence between consecutive grids.  The check is
``torusmirror.criteria.legendre_duality``.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from torusmirror.criteria import legendre_duality


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--coarsest", type=Fraction, default=Fraction(1, 16))
    ap.add_argument("--levels", type=int, default=3)
    args = ap.parse_args()

    grids = [args.coarsest / 2**i for i in range(args.levels)]
    out = legendre_duality(grids)
    print(*out.cases, sep="\n")
    print(f"{len(out.failures)} failures", *out.failures, sep="\n")
    print(f"{'h':>8} {'involution':>12} {'det product':>12} {'ord(inv)':>9} {'ord(det)':>9}")
    prev = None
    for h in grids:
        e_inv, e_det = out.figures[f"involution h={h}"], out.figures[f"det h={h}"]
        if prev is None:
            oi = od = ""
        else:
            oi = f"{math.log2(prev[0] / e_inv):9.2f}" if e_inv else "     inf"
            od = f"{math.log2(prev[1] / e_det):9.2f}" if e_det else "     inf"
        print(f"{str(h):>8} {e_inv:12.3e} {e_det:12.3e} {oi:>9} {od:>9}")
        prev = (e_inv, e_det)
    return 1 if out.failures else 0


if __name__ == "__main__":
    sys.exit(main())
