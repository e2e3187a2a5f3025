#!/usr/bin/env python3
"""Associativity of the Floer triangle product on affine circle sections.

For each convex-ordered slope quadruple drawn from a pool, checks that the
two bracketings of the triangle product agree exactly up to a truncation
cutoff and that the arity-3 product vanishes for degree reasons.  The check
is ``torusmirror.criteria.fukaya_associativity``.
"""

import argparse
import sys
import time
from fractions import Fraction
from itertools import combinations

from torusmirror.criteria import fukaya_associativity


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--slopes", default="0,1,2,3,4",
                    help="comma-separated integer slope pool")
    ap.add_argument("--cutoff", type=Fraction, default=Fraction(20))
    args = ap.parse_args()

    pool = sorted(int(s) for s in args.slopes.split(","))
    t0 = time.monotonic()
    out = fukaya_associativity(list(combinations(pool, 4)), args.cutoff)
    print(*out.cases, sep="\n")
    print(f"done: {len(out.cases)} quadruples, {len(out.failures)} failures, "
          f"cutoff {args.cutoff}, {time.monotonic() - t0:.1f}s")
    return 1 if out.failures else 0


if __name__ == "__main__":
    sys.exit(main())
