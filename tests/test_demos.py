"""Each demo script runs to completion and prints its walkthrough."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; every demo is deterministic
DIGESTS = {
    "01_verify_and_build":
        "87d4cec04c55df4eb6870730ab420d57b187fac6c8e2b5b5bffb4bc209d3d698",
    "02_structure_decomposition":
        "2b29744786a4c052bfe685e6bfbb621e6c49acba91edd4533907fb4f9e0d0885",
    "03_monoid_and_quotient_groups":
        "a1907a1f5d00f7254bd97ad9049c685b43be6ebc050b3f7633ed4f2242242510",
    "04_rewriting":
        "3d6ab0687c00b1cf1f281da0a7dbd56d3ba3d414695695ebb97cd509c657b08e",
    "05_census":
        "f40ac97c4d1fe4bcd394fbe6c0814a10d46b2c75985fdbc93071f7820e3b5ce0",
}


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == DIGESTS[demo.stem]
