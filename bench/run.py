"""Benchmark of ybx: one workload per run, every answer checked.

Run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 45 --trace 0

The run imports ``ybx`` from ``src/`` of the checkout, sets the workload
up several times before each pass (``setup_s`` is the median), and runs
the workload's task list again and again until ``--seconds`` could be
exceeded (always at least once).  With ``--trace 0`` it reports the
end-to-end metrics, its times taken at the box's nominal speed by
``pace.py``; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
``python3 bench/run.py --write-spec`` writes ``BENCHMARK.json``.
See ``bench/README.md`` for the workloads and the metric map.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_PASS = 4

WHY = {
    "census": "enumerate -n 5: the row search does nearly all the work; "
              "judges the search-kernel rewrite",
    "classify": "enumerate -n 5 --up-to-iso plus canonical forms at n = 7: "
                "judges the dedupe path and the canonicalizer",
    "structure": "analyze and groebner at n = 8/16/24 plus the constant system: "
                 "judges the growth oracle, is_cancellative and check_overlaps",
}

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "slowest_task_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def spec():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 45,
        "workloads": [{"name": w, "why": WHY[w]} for w in workloads.WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit,
                       "better": ("higher" if name in tracing.HIGHER_IS_BETTER
                                  else "lower")}
                      for name, unit in tracing.metric_units()],
    }


@dataclass
class Pass:
    wall: float          # the task list, answer checks excluded
    spans: list          # (start, end) per task, in task order
    problems: list       # (task, problem)
    layers: dict = None  # per-layer metrics of a traced pass


def run_pass(wl, tracer=None):
    outputs = []
    gc.collect()  # garbage of earlier set-ups is not this pass's cost
    start = perf_counter()
    for task in wl.tasks:
        if tracer is not None:
            tracer.task = task.name
        t0 = perf_counter()
        try:
            out, err = task.run(), None
        except Exception as exc:  # a crash is a wrong answer, not a stop
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        outputs.append((task, out, err, (t0, perf_counter())))
    wall = perf_counter() - start
    problems = []
    for task, out, err, _ in outputs:
        if err is None:
            try:
                found = task.check(out)
            except Exception as exc:  # malformed output
                found = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            found = [err]
        problems.extend((task.name, p) for p in found)
    return Pass(wall, [span for *_, span in outputs], problems)


def commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(setup, seconds, trace):
    """Set-ups and passes until the next step could overrun ``seconds``.

    Each step sets the workload up SETUPS_PER_PASS times, so set-up is
    timed under the same changing load as the passes, then runs a pass on
    the last set-up.  A traced run adds a traced pass to each step, so the
    untraced and traced passes see the same load.  There is always one
    step.  A pacer samples the box's speed throughout, except in traced
    passes, whose spans it would distort.  Returns (set-up (start, end)
    intervals, untraced passes, traced passes, tracer, pacer).
    """
    setups, plain, traced = [], [], []
    tracer = tracing.Tracer() if trace else None
    pacer = pace.Pacer()
    start = perf_counter()
    longest = 0.0
    pacer.start()
    try:
        while True:
            t0 = perf_counter()
            for _ in range(SETUPS_PER_PASS):
                t = perf_counter()
                wl = setup()
                setups.append((t, perf_counter()))
            plain.append(run_pass(wl))
            if tracer is not None:
                pacer.stop()
                tracer.reset()
                tracer.install()
                try:
                    traced.append(run_pass(wl, tracer))
                finally:
                    tracer.uninstall()
                    pacer.start()
                traced[-1].layers = tracer.layer_metrics(traced[-1].wall)
            longest = max(longest, perf_counter() - t0)
            if perf_counter() - start + longest > seconds:
                return setups, plain, traced, tracer, pacer
    finally:
        pacer.stop()


def run(root, name, seed, seconds, trace, sizes=workloads.FULL):
    """Set up, measure and check one workload; the result object."""
    workdir = root / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        setups, plain, traced, tracer, pacer = measure(
            lambda: workloads.setup(name, seed, sizes, workdir), seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        units = dict(tracing.metric_units())
        values = {m: statistics.median(p.layers[m] for p in traced)
                  for m in traced[0].layers}
        base = statistics.median(p.wall for p in plain)
        values["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) - base) / base
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}.jsonl")
    else:
        units = {m["name"]: m["unit"] for m in END_TO_END}
        # Times at the nominal speed of the box (see pace.py), medians
        # over the run.
        tasks = [[pacer.scaled(*span) for span in p.spans] for p in plain]
        values = {
            "setup_s": statistics.median(pacer.scaled(*s) for s in setups),
            "wall_s": statistics.median(map(sum, tasks)),
            "slowest_task_s": max(map(statistics.median, zip(*tasks))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"# measured, not scaled: wall_s = "
              f"{statistics.median(p.wall for p in plain):.6g} s, setup_s = "
              f"{statistics.median(b - a for a, b in setups):.6g} s; box speed "
              f"{statistics.median(pace.NOMINAL_PROBE_S / (e - s) for s, e in pacer.samples):.3g}"
              f" x nominal over {len(pacer.samples)} probes")
    passes = plain + traced
    failed = sum(len({task for task, _ in p.problems}) for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(len(p.spans) for p in passes),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": unit}
                    for m, unit in units.items()},
        "problems": [pr for p in passes for pr in p.problems],
        "passes": f"{len(plain)}+{len(traced)}",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.write_spec:
        (root / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    src = root / "src"
    if not (src / "ybx" / "__init__.py").is_file():
        print(f"no ybx sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # a default budget would turn the census into a partial run
    os.environ.pop("YBX_BUDGET_SECS", None)

    result = run(root, args.workload, args.seed, args.seconds, args.trace)
    for task, problem in result.pop("problems")[:20]:
        print(f"WRONG {task}: {problem}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={result.pop('passes')} python={platform.python_version()} "
          f"nproc={os.cpu_count()} commit={commit(root)}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} tasks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
