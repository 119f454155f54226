"""The benchmark's workloads: inputs, task lists and expected answers.

A workload is built by :func:`setup`, which imports ``ybx`` afresh, builds
the inputs and writes the solution files.  Each task runs one answer
through the CLI (``ybx.cli.main``, stdout captured in memory) or, where no
command exists, through a public library function.  Every answer is
checked against a hard-coded expectation whose source is stated next to
it; the solution tables the CLI emits are re-checked by :func:`naive_ok`,
an evaluator written here and independent of ``ybx.core.check``.
"""

import contextlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from math import gcd
from typing import Callable


@dataclass(frozen=True)
class Sizes:
    census_n: int = 5          # enumerate -n N
    iso_n: int = 5             # enumerate -n N --up-to-iso
    canon_n: int = 7           # canonical forms of the generators on N points
    relabelings: int = 3       # seeded random relabelings per generator
    structure_ns: tuple = (8, 16, 24)
    constant_lambda: int = 32


FULL = Sizes()
TINY = Sizes(census_n=4, iso_n=3, canon_n=6, relabelings=2,
             structure_ns=(8,), constant_lambda=8)

# Labelled census sizes, pinned from the seed engine, which is the oracle
# for n <= 5.
LABELLED = {4: 120, 5: 240}

# Partition numbers p(n) (OEIS A000041).
PARTITIONS = {6: 11, 7: 15}

# Isomorphism classes by diagonal size.  At a prime p the paper's
# classification gives p(p) constant-row classes (full diagonal) and p - 1
# Z_p-automorphism classes (singleton diagonal).  n = 4 is pinned from the
# seed engine.
CLASSES_BY_DIAGONAL = {
    3: {"1": 2, "3": 3},
    4: {"1": 5, "2": 4, "4": 5},
    5: {"1": 4, "5": 7},
}


def units(n):
    return [a for a in range(1, n) if gcd(a, n) == 1]


def generator_classes(n):
    """Classes among the canonical-form generators on n points.

    One constant-row solution per partition of n and one Z_n-automorphism
    solution per unit a; at a prime this is the full classification
    p(p) + (p - 1).  At n = 6 the 11 + 2 classes are pinned from the seed
    engine.
    """
    return {"1": len(units(n)), str(n): PARTITIONS[n]}


# ---------------------------------------------------------------------------
# input tables, built here so the inputs do not depend on library helpers

def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def permutation_of_type(parts):
    """A permutation whose cycles have the given lengths, on consecutive points."""
    images = []
    start = 0
    for k in parts:
        images.extend(start + (i + 1) % k for i in range(k))
        start += k
    return tuple(images)


def constant_rows(phi):
    """lam_x = phi for every x: the permutation family, full diagonal."""
    return [tuple(phi)] * len(phi)


def cyclic_automorphism_rows(n, a):
    """lam_x(y) = x + a*y over Z_n: singleton diagonal."""
    return [tuple((x + a * y) % n for y in range(n)) for x in range(n)]


def relabel(rows, psi):
    """Row psi(x) maps psi(y) to psi(lam_x(y))."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[psi[x]][psi[y]] = psi[rows[x][y]]
    return [tuple(r) for r in out]


# ---------------------------------------------------------------------------
# independent verification of emitted tables

def naive_ok(n, lam, rho):
    """r(x, y) = (lam[x][y], rho[x][y]) is an idempotent left
    non-degenerate solution: every lam_x bijective, r.r = r on X^2, and
    r12 r23 r12 = r23 r12 r23 on X^3."""
    pts = range(n)
    if any(sorted(row) != list(pts) for row in lam):
        return False

    def r(x, y):
        return lam[x][y], rho[x][y]

    def r12(t):
        return r(t[0], t[1]) + (t[2],)

    def r23(t):
        return (t[0],) + r(t[1], t[2])

    for x in pts:
        for y in pts:
            if r(*r(x, y)) != r(x, y):
                return False
            for z in pts:
                t = (x, y, z)
                if r12(r23(r12(t))) != r23(r12(r23(t))):
                    return False
    return True


# ---------------------------------------------------------------------------
# tasks and workloads

@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]   # problems found in the output


@dataclass
class Workload:
    ybx: object
    tasks: list = field(default_factory=list)
    expected: dict = field(default_factory=dict)


def run_cli(cli, argv):
    """``ybx.cli.main(argv)`` with stdout captured; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_task(wl, name, argv, check):
    cli = wl.ybx.cli

    def run():
        return run_cli(cli, argv)

    def check_output(output):
        code, stdout = output
        if code != 0:
            return [f"exit code {code}"]
        try:
            docs = [json.loads(line) for line in stdout.splitlines()]
        except json.JSONDecodeError as exc:
            return [f"output is not JSON lines: {exc}"]
        return check(docs)

    wl.tasks.append(Task(name, run, check_output))


def _check_enumeration(docs, n, count, by_diagonal):
    if not docs:
        return ["no output"]
    summary, tables = docs[-1], docs[:-1]
    want = {"n": n, "count": count, "incomplete": False,
            "classes": sum(by_diagonal.values()),
            "by_diagonal_size": by_diagonal}
    problems = [f"summary {k} = {summary.get(k)!r}, expected {v!r}"
                for k, v in want.items() if summary.get(k) != v]
    if len(tables) != count:
        problems.append(f"{len(tables)} tables emitted, expected {count}")
    seen = set()
    for i, t in enumerate(tables):
        lam = tuple(map(tuple, t["lambda"]))
        if t["n"] != n or not naive_ok(n, lam, t["rho"]):
            problems.append(f"table {i} is not a solution on {n} points")
        seen.add(lam)
    if len(seen) != len(tables):
        problems.append("duplicate tables")
    return problems


def _census(wl, sizes):
    n = sizes.census_n
    wl.expected.update(labelled=LABELLED[n], by_diagonal=CLASSES_BY_DIAGONAL[n])
    cli_task(wl, f"enumerate-{n}", ["enumerate", "-n", str(n), "--jobs", "1"],
             lambda docs: _check_enumeration(docs, n, wl.expected["labelled"],
                                             wl.expected["by_diagonal"]))


def _classify(wl, sizes, seed):
    n = sizes.iso_n
    wl.expected.update(iso_by_diagonal=CLASSES_BY_DIAGONAL[n])
    cli_task(wl, f"enumerate-{n}-iso",
             ["enumerate", "-n", str(n), "--up-to-iso", "--jobs", "1"],
             lambda docs: _check_enumeration(
                 docs, n, sum(wl.expected["iso_by_diagonal"].values()),
                 wl.expected["iso_by_diagonal"]))

    m = sizes.canon_n
    ybx = wl.ybx
    rng = random.Random(seed)
    generators = ([constant_rows(permutation_of_type(p)) for p in partitions(m)]
                  + [cyclic_automorphism_rows(m, a) for a in units(m)])
    groups = []
    for rows in generators:
        group = [rows]
        for _ in range(sizes.relabelings):
            psi = list(range(m))
            rng.shuffle(psi)
            group.append(relabel(rows, psi))
        groups.append([ybx.solution_from_lambda(r) for r in group])
    wl.expected.update(canon_by_diagonal=generator_classes(m))

    def run():
        return [[ybx.canonical_form(s) for s in group] for group in groups]

    def check(forms):
        problems = [f"generator {i}: relabelings give {len(set(f))} forms"
                    for i, f in enumerate(forms) if len(set(f)) != 1]
        by_diagonal = {}
        for form in {f[0] for f in forms}:
            rows = [form[i * m:(i + 1) * m] for i in range(m)]
            # the diagonal is the image of q(x) = lam_x^-1(x)
            size = str(len({row.index(x) for x, row in enumerate(rows)}))
            by_diagonal[size] = by_diagonal.get(size, 0) + 1
        if by_diagonal != wl.expected["canon_by_diagonal"]:
            problems.append(f"classes by diagonal size {by_diagonal}, "
                            f"expected {wl.expected['canon_by_diagonal']}")
        return problems

    wl.tasks.append(Task(f"canonical-form-{m}", run, check))


# The structure families on n points: name, lam rows, diagonal size, exponent d.
def families(n):
    return [
        ("zn-neg", cyclic_automorphism_rows(n, n - 1), 1, n),
        ("cycle", constant_rows(permutation_of_type((n,))), n, n),
        ("identity", constant_rows(tuple(range(n))), n, 1),
    ]


def _check_analyze(docs, n, diag, d):
    (rep,) = docs
    singleton = diag == 1
    # Every element of the monoid is a pair (length, last letter), so
    # each degree has exactly n elements; analyze counts degrees 1..4.
    want = {"discrepancies": [], "n": n, "d": d,
            "growth": {"model": [n] * 4, "oracle": [n] * 4},
            "latin": singleton}
    problems = [f"{k} = {rep.get(k)!r}, expected {v!r}"
                for k, v in want.items() if rep.get(k) != v]
    if len(rep["diagonal"]) != diag:
        problems.append(f"diagonal has {len(rep['diagonal'])} points, "
                        f"expected {diag}")
    if rep["cancellative"]["value"] != singleton:
        problems.append("cancellative disagrees with the diagonal size")
    if not rep["verification"]["ok"]:
        problems.append("verification failed")
    return problems


def _check_groebner(docs, n, max_deg):
    (out,) = docs
    want = {"growth": [n] * max_deg, "normal_word_counts": [n] * max_deg,
            "counts_match_growth": True}
    problems = [f"{k} = {out.get(k)!r}, expected {v!r}"
                for k, v in want.items() if out.get(k) != v]
    if out["completion"]["status"] != "confluent":
        problems.append(f"completion status {out['completion']['status']!r}")
    return problems


def _check_constant(docs, counts):
    (out,) = docs
    want = {"confluent": True, "unresolved": 0, "normal_word_counts": counts}
    return [f"{k} = {out.get(k)!r}, expected {v!r}"
            for k, v in want.items() if out.get(k) != v]


def _structure(wl, sizes, workdir):
    ybx = wl.ybx
    deg = 3
    for n in sizes.structure_ns:
        for fam, rows, diag, d in families(n):
            path = str(workdir / f"{fam}-{n}.json")
            ybx.dump_solution(ybx.solution_from_lambda(rows), path)
            cli_task(wl, f"analyze-{fam}-{n}", ["analyze", path],
                     lambda docs, n=n, diag=diag, d=d:
                     _check_analyze(docs, n, diag, d))
            cli_task(wl, f"groebner-{fam}-{n}",
                     ["groebner", path, "--max-deg", str(deg)],
                     lambda docs, n=n: _check_groebner(docs, n, deg))
    c = sizes.constant_lambda
    # Normal words of yz -> 0z are 0^(k-1) x: c per degree, degrees 1..8.
    wl.expected.update(constant_words=[c] * 8)
    cli_task(wl, f"groebner-constant-{c}", ["groebner", "--constant-lambda", str(c)],
             lambda docs: _check_constant(docs, wl.expected["constant_words"]))


WORKLOADS = ("census", "classify", "structure")


def import_ybx():
    """Import ybx afresh, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "ybx" or m.startswith("ybx.")]:
        del sys.modules[name]
    ybx = importlib.import_module("ybx")
    importlib.import_module("ybx.cli")
    return ybx


def setup(name, seed, sizes, workdir):
    """Import ybx, build the inputs of one workload and write its files."""
    wl = Workload(import_ybx())
    if name == "census":
        _census(wl, sizes)
    elif name == "classify":
        _classify(wl, sizes, seed)
    elif name == "structure":
        workdir.mkdir(parents=True, exist_ok=True)
        _structure(wl, sizes, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl
