"""Spans around the public functions of each ybx layer.

:class:`Tracer` wraps a function by rebinding its name in every ``ybx.*``
module that binds it, so calls from other modules and from inside the
defining module are both recorded.  A span is ``[name, start, end,
parent index, task, info]``; spans stay in memory until the run ends.
Self time is a span's duration minus the time its child spans cover.

``perms.*`` and ``identity_holds`` are not wrapped: they are called
hundreds of thousands of times, so a wrapper would distort the numbers.
Their time counts as self time of their callers.
"""

import functools
import json
import sys
from time import perf_counter

# Wrapped functions and the statistics reported for each.
LAYERS = {
    "cli.main": ("calls", "self_s"),
    "search.enumerate_solutions": ("calls", "self_s", "results"),
    "core.check": ("calls", "self_s", "ok_frac"),
    "core.promote": ("calls", "self_s"),
    "core.canonical_form": ("calls", "self_s"),
    "core.lambda_word": ("calls", "self_s"),
    "core.load_rmap": ("self_s",),
    "invariants.semigroup": ("self_s",),
    "invariants.descriptor": ("self_s",),
    "invariants.check_fineq": ("self_s",),
    "invariants.torsion": ("calls", "self_s"),
    "monoid.growth": ("self_s",),
    "monoid.is_cancellative": ("self_s",),
    "monoid.center_basis": ("self_s",),
    "monoid.sigma_discrepancies": ("self_s",),
    "groebner.solution_rules": ("self_s",),
    "groebner.normal_word_count": ("self_s",),
    "groebner.check_overlaps": ("calls", "self_s"),
    "groebner.reduce": ("calls", "self_s"),
}

UNITS = {"calls": "count", "self_s": "s", "results": "count",
         "ok_frac": "ratio"}

TRACE_METRICS = (("trace.overhead_frac", "ratio"),
                 ("trace.unattributed_s", "s"))

# Useful outcomes, where more is better; every other metric is a cost.
HIGHER_IS_BETTER = {"search.enumerate_solutions.results", "core.check.ok_frac"}

# What a span keeps from the return value.
INFO = {
    "search.enumerate_solutions": lambda result: len(result.solutions),
    "core.check": lambda report: report.ok,
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{fn}.{stat}", UNITS[stat])
           for fn, stats in LAYERS.items() for stat in stats]
    return out + list(TRACE_METRICS)


class Tracer:
    """Records spans while installed; metrics and the span file from them."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._installed = []   # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), None,
                    stack[-1] if stack else None, self.task, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span[5] = info(result)
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ybx" or name.startswith("ybx.")]
        for name in LAYERS:
            mod_name, attr = name.split(".")
            original = getattr(sys.modules[f"ybx.{mod_name}"], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapper)
                    self._installed.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._installed):
            setattr(m, attr, original)
        self._installed.clear()

    def reset(self):
        self.spans.clear()

    def layer_metrics(self, pass_wall):
        """Per-layer statistics of the spans recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        info_sum = dict.fromkeys(LAYERS, 0)
        roots = 0.0
        for i, (name, start, end, parent, _, info) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            info_sum[name] += info or 0
            if parent is None:
                roots += end - start
        out = {}
        for name, stats in LAYERS.items():
            values = {"calls": calls[name], "self_s": self_s[name],
                      "results": info_sum[name],
                      "ok_frac": info_sum[name] / calls[name] if calls[name] else 0.0}
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        out["trace.unattributed_s"] = pass_wall - roots
        return out

    def write(self, path):
        """One span a line: name, start and end in seconds from the first
        span, parent line index (0-based) and task."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task, _ in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7),
                                     round(end - t0, 7), parent, task]) + "\n")
