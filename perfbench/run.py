#!/usr/bin/env python3
"""End-to-end benchmark of torusmirror's four check families.

    python3 perfbench/run.py --workload {mirror,transfer,morse,legendre} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/`` (no
build step), and the command fails without printing a result when that
source is absent.  Each workload runs in its own single-threaded worker
process (``worker.py``) as a closed loop with one caller: the next check
starts only after the previous verdict is in.  Inputs come from ``--seed``
alone; see ``workloads.py`` for the checks and why each workload exists.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
Check latencies are reported at reference machine speed: the host's speed
drifts by up to 40% over seconds to minutes, so each worker times a fixed
stdlib kernel next to every check and scales the check's latency by it
(see ``worker.calibrate``); the unscaled figures are printed as well.
``setup_s`` is unscaled wall time.
Set-up is measured three times, in two set-up-only processes and in the
measuring one, and ``setup_s`` is their median.  ``--trace 1`` prints the
per-layer metrics: an untraced worker runs for half of ``--seconds``, then
a traced worker (``tracer.py``) runs exactly the same checks, and the
ratio of their check times is ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 3
BUDGET_S = 170  # every process of one invocation must end within this


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    """SHA-256 over the package sources, for runs outside a git checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


class Spawner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def __call__(self, mode: str, seconds: float = 0.0, max_checks: int = 0) -> dict:
        a = self.args
        cmd = [
            sys.executable, str(WORKER), "--workload", a.workload, "--seed", str(a.seed),
            "--mode", mode, "--seconds", repr(seconds), "--max-checks", str(max_checks),
        ]
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=self.env, capture_output=True,
            text=True, timeout=max(1.0, self.deadline - t0),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Highest latency with at least 10 samples beyond it, its percentile
    and the number of samples beyond it."""
    s = sorted(latencies)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


def end_to_end(spawn, args) -> tuple:
    runs = [spawn("setup") for _ in range(SETUP_RUNS - 1)]
    main = spawn("run", seconds=args.seconds)
    runs.append(main)
    lat = main["latencies"]
    value, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "checks_per_s": len(lat) / sum(lat),
        "check_p50_s": statistics.median(lat),
        "check_tail_s": value,
        "peak_rss_mb": main["rss_kb"] / 1024,
    }
    kinds = {}
    for k, x in zip(main["kinds"], lat):
        kinds.setdefault(k, []).append(x)
    raw = main["raw_latencies"]
    setups = ", ".join(f"{r['setup_s']:.3f}" for r in runs)
    print(f"setup runs: {setups} s")
    print(f"checks: {len(lat)} in {sum(raw):.2f} s wall, {sum(lat):.2f} s at reference "
          f"speed; tail is p{pct:.1f} with {beyond} samples beyond it; unscaled: "
          f"{len(raw) / sum(raw):.3f} checks/s, p50 {statistics.median(raw):.4f} s")
    for k, xs in sorted(kinds.items()):
        print(f"  {k}: {len(xs)} checks, median {statistics.median(xs):.4f} s")
    return runs, metrics


def per_layer(spawn, args) -> tuple:
    base = spawn("run", seconds=args.seconds / 2)
    n = len(base["latencies"])
    traced = spawn("trace", max_checks=n)
    metrics = dict(traced["trace"])
    metrics["setup.import_s"] = base["import_s"]
    metrics["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(base["latencies"])
    print(f"traced {n} checks; overhead ratio {metrics['trace.overhead_ratio']:.3f}")
    return [base, traced], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "torusmirror" / "__init__.py").is_file():
        return fail(f"package source not found under {ROOT / 'src'}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    spawn = Spawner(args)
    try:
        runs, values = (per_layer if args.trace else end_to_end)(spawn, args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not produced: {missing}")

    print(f"workload {args.workload} seed {args.seed}; git {git_sha()} src {source_digest()}; "
          f"python {platform.python_version()} sympy {version('sympy')} "
          f"numpy {version('numpy')}; nproc {os.cpu_count()} "
          f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"FAILED {f}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
