"""Properties over random inputs: relabeling invariance and CLI robustness.

A relabeling of a census solution is the same solution up to isomorphism,
so its canonical form and every label-free field of ``analyze`` must not
move.  Any params or solution file, however malformed, must come back as
an exit code in 0-3 (exit 2 with one JSON error for bad input), never as
an escaping exception.
"""

import contextlib
import io
import json
import os
import tempfile
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ybx import cli
from ybx.core import canonical_form, rmap_to_dict, solution_from_lambda
from ybx.search import EnumOptions, enumerate_solutions
from test_kernel_oracles import relabel_lambda


@lru_cache(maxsize=None)
def census(n):
    return enumerate_solutions(EnumOptions(n)).solutions


def run_main(argv, data):
    """cli.main on argv with FILE replaced by a file holding data as JSON."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([path if a == "FILE" else a for a in argv])
        return code, out.getvalue(), err.getvalue()
    finally:
        os.remove(path)


def label_free(report):
    return {"d": report["d"],
            "diagonal_size": len(report["diagonal"]),
            "torsion_order": report["semigroup"]["rees"]["torsion_order"],
            "growth": report["growth"],
            "center_dimension": report["center"]["dimension"],
            "cancellative": report["cancellative"]["value"],
            "latin": report["latin"]}


def analyze_fields(s):
    code, out, _ = run_main(["analyze", "FILE"], rmap_to_dict(s))
    assert code == 0
    return label_free(json.loads(out))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.integers(0, len(census(n)) - 1).map(lambda i: census(n)[i]),
    st.permutations(range(n)))))
def test_relabeling_keeps_canonical_form_and_analyze_fields(case):
    s, psi = case
    t = solution_from_lambda(relabel_lambda(s.lam, psi))
    assert canonical_form(t) == canonical_form(s)
    assert analyze_fields(t) == analyze_fields(s)


LEAF = st.one_of(st.integers(-1, 4), st.booleans(), st.none(),
                 st.just(1.5), st.just("a"))
JSON = st.recursive(LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(["0", "1", "2", "3"]), inner,
                    max_size=3)), max_leaves=12)
ROWS = st.lists(st.lists(LEAF, max_size=4), max_size=4)
INTS = st.lists(st.integers(-1, 4), max_size=5)


def _params(**fields):
    """Objects with the named fields, some dropped, or any JSON value."""
    return st.one_of(st.fixed_dictionaries({}, optional=fields), JSON)


def _construct(kind):
    return ("construct", "--type", kind, "--params", "FILE")


INPUTS = st.one_of(
    st.tuples(st.just(_construct("perm")),
              _params(images=st.one_of(INTS, JSON))),
    st.tuples(st.just(_construct("group-aut")),
              _params(table=st.one_of(ROWS, JSON), phi=st.one_of(INTS, JSON))),
    st.tuples(st.just(_construct("descriptor")),
              _params(n=st.one_of(st.integers(-1, 3), LEAF), op=ROWS,
                      q=INTS, phi=ROWS)),
    st.tuples(st.just(_construct("rees-example")),
              _params(group=st.one_of(ROWS, JSON), ncols=LEAF, A=INTS,
                      t=JSON, f=INTS, psi=INTS)),
    st.tuples(st.sampled_from([("verify", "FILE"), ("analyze", "FILE")]),
              _params(n=st.one_of(st.integers(-1, 3), LEAF),
                      **{"lambda": ROWS, "rho": st.one_of(ROWS, JSON)})),
)

REES = {"ncols": 2, "A": [0], "t": {"1": 0}, "f": [0, 1], "psi": [0, 1]}


def _counts(obj):
    """Every value stored under an "n" key of a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "n":
                yield value
            yield from _counts(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _counts(value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(INPUTS)
@example((_construct("group-aut"),
          {"table": [[0, 1], [1]], "phi": [0, 1]}))
@example((_construct("group-aut"),
          {"table": [[0, 7], [1, 0]], "phi": [0, 1]}))
@example((_construct("group-aut"),
          {"table": [[True]], "phi": [0]}))
@example((_construct("rees-example"),
          dict(REES, group=[[0, 1], [1]])))
@example((_construct("rees-example"),
          dict(REES, group=[[0, 5], [1, 0]])))
@example((_construct("rees-example"),
          dict(REES, group=[[0, 1], [1, 0]], t=[0])))
@example((_construct("descriptor"),
          {"n": True, "op": [[0]], "q": [0], "phi": [[0]]}))
def test_cli_never_raises_on_fuzzed_input(case):
    argv, data = case
    code, out, err = run_main(argv, data)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == ""
        assert list(json.loads(err)) == ["error"]
    else:
        # an accepted input has a point count, never a boolean
        assert all(type(n) is int for n in _counts(json.loads(out)))
