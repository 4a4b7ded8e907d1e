"""The benchmark harness still runs against the package."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selfcheck_passes():
    """`python3 bench/selfcheck.py` runs a tiny grid and one search cell
    through the benchmark's own code and exits 0 only if every check
    holds; it writes only under the ignored bench/out/.  A source change
    that breaks a name the benchmark uses fails here."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selfcheck passed")
