"""Each experiment script runs at a tiny size and reports no failures."""

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
    # no verdict line: the last row is the finer of the two grids
    (["legendre_convergence.py", "--levels", "2"], r"^\s*1/32\s"),
]


@pytest.mark.parametrize("argv, last_line", CASES, ids=[c[0][0] for c in CASES])
def test_script_runs_clean(argv, last_line):
    src = str(Path(torusmirror.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.search(last_line, proc.stdout.splitlines()[-1]), proc.stdout
