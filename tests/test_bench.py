"""The benchmark's self-test, run with the rest of the suite.

bench/tracing.py wraps names that census.py and equivalence.py import or
define, so renaming one of them can break a traced run or make a layer
metric read 0.  bench/selftest.py catches both at tiny sizes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
