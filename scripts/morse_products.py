#!/usr/bin/env python3
"""Exact Morse-theoretic products for seeded trigonometric triples.

Draws random trigonometric polynomials on the circle, keeps transversal
triples, assembles the three pairwise complexes and the triangle product
into one composed structure, and verifies the structure relations up to
arity 3 together with the expected cohomology ranks.  The check is
``torusmirror.criteria.morse_triples``.
"""

import argparse
import sys
import time

from torusmirror.criteria import morse_triples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20240901)
    ap.add_argument("--count", type=int, default=20, help="transversal triples")
    args = ap.parse_args()

    t0 = time.monotonic()
    out = morse_triples(args.seed, args.count)
    print(*out.cases, sep="\n")
    print(f"done: {len(out.cases)} transversal of {out.figures['drawn']} drawn, "
          f"{len(out.failures)} failures, {time.monotonic() - t0:.1f}s")
    return 1 if out.failures else 0


if __name__ == "__main__":
    sys.exit(main())
