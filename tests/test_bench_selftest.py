"""The benchmark's output checks accept real reports and reject tampered ones.

``bench/selftest.py`` runs the checks that ``bench/run.py`` applies to every
operation; running it here keeps them in step with the program's reports.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest: all checks behave" in result.stdout.splitlines()
