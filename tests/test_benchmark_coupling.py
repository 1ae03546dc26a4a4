"""The benchmark under perfbench/ wraps modpart's public functions by name.

Its own tests run in a fresh interpreter: they time and count calls from a
cold start, which an interpreter whose caches this suite has already warmed
cannot give. A src/ change that renames a traced function or drops a name the
tracer reads fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
