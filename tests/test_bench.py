"""The benchmark's own self-test, run on a copy so the checkout stays clean.

``bench/tracing.py`` wraps every function named in its ``LAYERS`` by
looking it up in the ybx modules, so a layer that is renamed or deleted
in ``src/`` fails here rather than in a benchmark run.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest(tmp_path):
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    env.pop("YBX_BUDGET_SECS", None)
    r = subprocess.run([sys.executable, "bench/selftest.py"], cwd=tmp_path,
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "FAIL" not in r.stdout
