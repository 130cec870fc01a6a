"""The benchmark's self-test, run as a subprocess.

It pins what the benchmark relies on: public functions its tracer can wrap,
one ``cut_split`` per cut and two ``standardize`` calls per ``cut_split``.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
