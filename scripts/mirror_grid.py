#!/usr/bin/env python3
"""Compare Floer triangle products with theta-function products on a grid.

Sweeps convex-ordered slope triples (drawn from a pool) and half-integer
shifts, runs both sides of the comparison at a truncation cutoff, and
prints EQUAL or the first discrepancy for every combination.  The check is
``torusmirror.criteria.mirror_grid``.
"""

import argparse
import sys
import time
from fractions import Fraction
from itertools import combinations, product

from torusmirror.criteria import mirror_grid


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--slopes", default="0,1,2,3",
                    help="comma-separated integer slope pool")
    ap.add_argument("--cutoff", type=Fraction, default=Fraction(25))
    ap.add_argument("--shifts", default="0,1/2",
                    help="comma-separated rational shifts")
    args = ap.parse_args()

    pool = sorted(int(s) for s in args.slopes.split(","))
    shifts = [Fraction(s) for s in args.shifts.split(",")]
    t0 = time.monotonic()
    out = mirror_grid(list(combinations(pool, 3)), list(product(shifts, repeat=3)), args.cutoff)
    print(*out.cases, sep="\n")
    print(f"done: {len(out.cases)} comparisons, {len(out.failures)} unequal, "
          f"cutoff {args.cutoff}, {time.monotonic() - t0:.1f}s")
    return 1 if out.failures else 0


if __name__ == "__main__":
    sys.exit(main())
