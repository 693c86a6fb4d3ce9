"""The benchmark's self-test still runs against the library.

A change to a function the benchmark calls, or to a traced op count,
fails here rather than only in a benchmark run.  The self-test writes
only under the git-ignored ``bench/_out/``.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
