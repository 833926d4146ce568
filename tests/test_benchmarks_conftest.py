"""The benchmark suite's scale switch: a bad ``REPRO_BENCH_SCALE`` is a
pytest usage error."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_bad_scale_is_a_pytest_usage_error_not_a_traceback():
    """`REPRO_BENCH_SCALE=bogus pytest benchmarks/...` must exit with
    pytest's usage-error code (4) and a one-line ERROR, not an
    import-time ValueError traceback aborting collection."""
    env = dict(os.environ, REPRO_BENCH_SCALE="bogus",
               PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/conftest.py",
         "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    combined = proc.stdout + proc.stderr
    assert "REPRO_BENCH_SCALE must be one of quick|full" in combined
    assert "Traceback" not in combined
