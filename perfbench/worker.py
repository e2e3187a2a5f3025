"""One benchmark process: set up a workload, run its closed loop, print JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Set-up is everything
from process start (``--t0``, a ``time.monotonic()`` reading taken by the
parent just before it started this process) to the first timed check:
imports, the reference corpus (warm-up plus digest comparison) and the
pre-generated pool of seeded inputs.  ``--mode setup`` stops there;
``--mode record`` instead rewrites this workload's entry of
``expected_digests.json`` from the reference corpus.
The timed pass runs one check at a time, each after the previous verdict
is in, and stops at the end of the first round by which the check
latencies, at reference speed (see ``calibrate``), add up to ``--seconds``;
so every run does whole rounds of the same mix.  With ``--max-checks`` it
stops after exactly that many checks.  Once the pool is used up, further
rounds are generated between checks, outside the timed pass.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"


# Seconds the calibration kernel takes on an unloaded machine of the kind
# the benchmark was tuned on (2-core Xeon VM, Python 3.11).
CAL_REF_S = 0.002
# Calibration runs within this many seconds of a check are its speed sample.
CAL_WINDOW_S = 0.5


def calibrate() -> float:
    """Time a fixed interpreter-bound kernel (stdlib Fraction sums).

    The host's speed drifts by up to 40% over seconds to minutes (shared
    cores), and the kernel slows in step with the checks.  The kernel runs
    after every check (more often after long ones), and a check's latency
    is reported at reference speed: raw latency * CAL_REF_S / the median
    kernel time over the runs from CAL_WINDOW_S before the check to
    CAL_WINDOW_S after it.
    """
    start = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(1, i)
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "record"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-checks", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    t = time.perf_counter()
    from torusmirror import (  # noqa: F401  (every layer, with sympy and numpy)
        ainfty, fukaya_oh, intervals, lattice, mirror, monge, morse, novikov,
        randomgen, transfer, trees,
    )
    import_s = time.perf_counter() - t

    tracer = derived = None
    counters = defaultdict(float)
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        derived = tracing.install(tracer)
        counters = tracer.counts

    import workloads

    expected = json.loads(DIGESTS.read_text()).get(args.workload, {})
    wl = workloads.WORKLOADS[args.workload]()
    seen: set = set()
    attempted = failed = 0
    failures = []
    recorded: dict = {}  # reference check name -> digest of its output

    def run_check(check, reference: str = "") -> float:
        """Run one check; a reference check's digest must match the file."""
        nonlocal attempted, failed
        attempted += 1
        start = time.perf_counter()
        try:
            got = check.run(counters)
            elapsed = time.perf_counter() - start
            if reference:
                recorded[reference] = got
                if got != expected.get(reference) and args.mode != "record":
                    raise workloads.CheckFailed(
                        f"{reference}: output digest {got} != expected {expected.get(reference)}")
        except Exception as exc:  # every failure is counted, none stops the run
            elapsed = time.perf_counter() - start
            failed += 1
            if len(failures) < 5:
                failures.append(f"{check.kind}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        return elapsed

    for name, check in wl.reference(seen):
        run_check(check, name)
    if args.mode == "record":
        table = json.loads(DIGESTS.read_text())
        table[args.workload] = {k: v for k, v in recorded.items() if v is not None}
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 1 if failed else 0
    rounds = wl.rounds(args.seed, seen)
    pool = [next(rounds) for _ in range(wl.pool_rounds)]
    setup_s = time.monotonic() - args.t0

    raw, kinds, spans = [], [], []
    samples: list = []  # (start time, seconds) of each calibration run

    def calibrate_for(n: int) -> None:
        for _ in range(n):
            samples.append((time.perf_counter(), calibrate()))

    if args.mode != "setup":
        calibrate_for(3)
        busy = 0.0  # check time at reference speed, from the latest samples
        for batch in itertools.chain(pool, rounds):
            for check in batch:
                start = time.perf_counter()
                dt = run_check(check)
                calibrate_for(1 + min(int(dt / 0.1), 9))
                raw.append(dt)
                kinds.append(check.kind)
                spans.append((start, start + dt))
                busy += dt * CAL_REF_S / statistics.median(c for _t, c in samples[-15:])
                if len(raw) == args.max_checks:
                    break
            if len(raw) == args.max_checks or (not args.max_checks and busy >= args.seconds):
                break
    latencies = [
        (end - start) * CAL_REF_S
        / statistics.median(c for t, c in samples if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S)
        for start, end in spans
    ]

    out = {
        "setup_s": setup_s,
        "import_s": import_s,
        "latencies": latencies,
        "raw_latencies": raw,
        "kinds": kinds,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracing.report(tracer, derived)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
