#!/usr/bin/env python3
"""Homotopy transfer over a seeded corpus of graded differential algebras.

For each seeded algebra, builds an exact retraction onto cohomology,
transfers the multiplication to a minimal model, and reports whether the
structure relations and the comparison-morphism equations vanish exactly
up to the requested arities, together with timings.  The check is
``torusmirror.criteria.transfer_corpus``.
"""

import argparse
import sys
import time

from torusmirror.criteria import retraction_corpus, transfer_corpus


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20240901)
    ap.add_argument("--count", type=int, default=50, help="number of algebras")
    ap.add_argument("--relations-to", type=int, default=5, dest="nrel")
    ap.add_argument("--morphism-to", type=int, default=4, dest="nmor")
    args = ap.parse_args()

    t0 = time.monotonic()
    out = transfer_corpus(retraction_corpus(args.seed, args.count), args.nrel, args.nmor)
    print(*out.cases, sep="\n")
    print(f"done: {args.count} algebras, {len(out.failures)} failures, "
          f"{time.monotonic() - t0:.1f}s")
    return 1 if out.failures else 0


if __name__ == "__main__":
    sys.exit(main())
