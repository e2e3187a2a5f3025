"""Each experiment script runs at a tiny size and reports no failures; a
script exits 1 when any of its checks fails."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import torusmirror

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DONE_CLEAN = r"^done: .*\b0 (failures|unequal)\b"

CASES = [
    (["triangle_associativity.py", "--slopes", "0,1,2,3", "--cutoff", "6"], DONE_CLEAN),
    (["mirror_grid.py", "--slopes", "0,1,2", "--cutoff", "6"], DONE_CLEAN),
    (["morse_products.py", "--count", "1"], DONE_CLEAN),
    (["transfer_corpus.py", "--count", "2", "--relations-to", "3", "--morphism-to", "2"],
     DONE_CLEAN),
    # default three grids; the last row is the finest grid
    (["legendre_convergence.py"], r"^\s*1/64\s"),
]


def run_script(argv):
    src = str(Path(torusmirror.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv, last_line", CASES, ids=[c[0][0] for c in CASES])
def test_script_runs_clean(argv, last_line):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr  # 0 means no failures
    assert re.search(last_line, proc.stdout.splitlines()[-1]), proc.stdout


def test_script_failure_exits_1():
    """On two grids the quartic's det order falls below 1.8: the Legendre
    script reports the failure and exits 1."""
    proc = run_script(["legendre_convergence.py", "--levels", "2"])
    assert proc.returncode == 1, proc.stderr
    assert "1 failures" in proc.stdout.splitlines(), proc.stdout
