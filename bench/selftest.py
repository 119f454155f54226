"""Self-test of the benchmark at tiny sizes; run from the root of a checkout:

    python3 bench/selftest.py

It checks that BENCHMARK.json matches the metric tables in ``run.py``,
that every workload emits every named metric, traced and untraced, with
no wrong answers, and that a deliberately wrong expected answer makes
the error rate non-zero.  It takes a few seconds.
"""

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

# A key of each workload's expected answers that its checks read.
CHECKED_KEY = {"census": "labelled", "classify": "canon_by_diagonal",
               "structure": "constant_words"}


def require(ok, message):
    if not ok:
        raise SystemExit(f"FAIL {message}")


def main():
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("YBX_BUDGET_SECS", None)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    require(spec == run.spec(), "BENCHMARK.json is stale: run --write-spec")
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run.run(root, name, seed=7, seconds=0, trace=trace,
                             sizes=workloads.TINY)
            require(result["correct"], f"{name} trace={trace}: {result['problems']}")
            require(set(result["metrics"]) == names[trace],
                    f"{name} trace={trace}: emitted {sorted(result['metrics'])}")
            print(f"ok   {name} trace={trace}: {len(names[trace])} metrics")

        workdir = root / ".bench_work" / f"selftest-{os.getpid()}"
        try:
            wl = workloads.setup(name, 7, workloads.TINY, workdir)
            key = CHECKED_KEY[name]
            wl.expected[key] = "wrong"
            p = run.run_pass(wl)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        error_rate = len({task for task, _ in p.problems}) / len(p.spans)
        require(error_rate > 0, f"{name}: a wrong {key} went unnoticed")
        print(f"ok   {name}: a wrong {key} gives error_rate {error_rate:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
