import hashlib

import pytest

from ybx import cli, core
from ybx.core import (InvalidSolutionError, canonical_form, canonical_table,
                      diagonal_image, iso_check, rmap_from_lambda)
from ybx.fixtures import SOL_SWAP2, SOL_Z2, SOL_Z3INV, SOL_PROJ3
from ybx.invariants import descriptor, reconstruct
from ybx.monoid import is_cancellative
from ybx import search
from ybx.search import (EnumOptions, EnumResult, _orbit_minima,
                        _search_slice, by_diag_size, check_closed_forms,
                        classify, enumerate_solutions,
                        from_group_automorphism, from_permutation,
                        from_rees_example, is_latin, partition_number)

from collections import Counter
from itertools import count, permutations
import json
import time

from test_kernel_oracles import brute_force_solutions

Z2 = ((0, 1), (1, 0))
Z3 = tuple(tuple((x + y) % 3 for y in range(3)) for x in range(3))


def lam_tuples(result):
    return [s.lam for s in result.solutions]


def test_enumerate_n1():
    result = enumerate_solutions(EnumOptions(1))
    assert len(result.solutions) == 1 and result.complete


def test_enumerate_n2_exact():
    result = enumerate_solutions(EnumOptions(2))
    assert sorted(lam_tuples(result)) == sorted([
        ((0, 1), (0, 1)),
        ((1, 0), (1, 0)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
    ])


def test_enumerate_matches_brute_force():
    for n in (1, 2, 3):
        pruned = enumerate_solutions(EnumOptions(n))
        assert lam_tuples(pruned) == [s.lam for s in brute_force_solutions(n)]


def test_enumerate_n3_contains_fixtures():
    canons = {canonical_form(s)
              for s in enumerate_solutions(EnumOptions(3)).solutions}
    assert canonical_form(SOL_Z3INV) in canons
    assert canonical_form(SOL_PROJ3) in canons


def test_enumerate_soundness():
    from ybx.core import RMap, check
    result = enumerate_solutions(EnumOptions(3))
    for s, canon in zip(result.solutions, result.canonical, strict=True):
        assert check(RMap(s.n, s.lam, s.rho)).ok
        assert canon == canonical_form(s)


def test_enumerate_size_guard():
    with pytest.raises(ValueError):
        EnumOptions(8)
    with pytest.raises(ValueError):
        classify(8)


def test_enumerate_budget_zero_incomplete():
    result = enumerate_solutions(EnumOptions(4, budget_secs=0.0))
    assert not result.complete


def test_enumerate_expired_budget_builds_no_sym_table(monkeypatch):
    # a budget spent before the walk starts leaves Sym(7) unbuilt: its
    # composition table takes seconds and hundreds of MB
    clock = count()
    monkeypatch.setattr(search.time, "monotonic", lambda: next(clock))

    def no_table(n):
        raise AssertionError("_sym_index was built")

    monkeypatch.setattr(search, "_sym_index", no_table)
    for up_to_iso in (False, True):
        result = enumerate_solutions(EnumOptions(7, up_to_iso, budget_secs=0))
        assert not result.complete and result.solutions == ()


def test_enumerate_jobs_deterministic():
    one = enumerate_solutions(EnumOptions(3, jobs=1))
    two = enumerate_solutions(EnumOptions(3, jobs=2))
    assert lam_tuples(one) == lam_tuples(two)


def test_enumerate_jobs_and_budget_compose():
    for up_to_iso in (False, True):
        one = enumerate_solutions(EnumOptions(4, up_to_iso, jobs=1))
        two = enumerate_solutions(EnumOptions(4, up_to_iso, jobs=2,
                                              budget_secs=60))
        assert two.complete and lam_tuples(two) == lam_tuples(one)
        expired = enumerate_solutions(EnumOptions(4, up_to_iso, jobs=2,
                                                  budget_secs=0))
        assert not expired.complete
    expired = enumerate_solutions(EnumOptions(4, jobs=1, budget_secs=0))
    assert not expired.complete


def test_enumerate_budget_stops_relabeling(monkeypatch):
    # the walk ignores the deadline here, so only the relabeling of the
    # class representatives can see it expire; each class then keeps its
    # representative alone
    walk = search._search_slice
    monkeypatch.setattr(search, "_search_slice",
                        lambda n, first, deadline: walk(n, first))
    iso = enumerate_solutions(EnumOptions(4, up_to_iso=True, budget_secs=0))
    assert iso.complete and len(iso.solutions) == 14
    labelled = enumerate_solutions(EnumOptions(4, budget_secs=0))
    assert not labelled.complete and labelled.solutions == iso.solutions


def test_enumerate_budget_expires_mid_walk(monkeypatch, capsys):
    # a clock that moves one second per read passes the deadline on its
    # read 201, inside a slice, after 6 of the 11 classes
    events, clock = [], count()
    monkeypatch.setattr(search.time, "monotonic",
                        lambda: events.append(next(clock)) or events[-1])
    walk = search._search_slice
    monkeypatch.setattr(search, "_search_slice",
                        lambda *args: events.append("slice") or walk(*args))
    cut = enumerate_solutions(EnumOptions(5, up_to_iso=True, budget_secs=200))
    assert not cut.complete and 0 < len(cut.solutions) < 11
    at = events.index(201)
    assert events[at - 1] != "slice"
    # the walk unwinds from there at once: each later slice reads the
    # clock only at its root
    later = events[at + 1:]
    assert later and later == [
        e for t in range(202, 202 + len(later) // 2) for e in ("slice", t)]
    full = set(lam_tuples(enumerate_solutions(EnumOptions(5))))
    for s in cut.solutions:
        assert core.check(s).ok and s.lam in full
    assert cli.main(["enumerate", "-n", "5", "--budget", "1"]) == 4
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["incomplete"] is True and "classes" not in summary
    # under the same clock, the labelled run relabels no class and keeps
    # the promoted representative of each class the walk found
    clock = count()
    labelled = enumerate_solutions(EnumOptions(5, budget_secs=200))
    assert not labelled.complete and labelled.solutions == cut.solutions
    assert len(cut.solutions) == 6
    clock = count()
    assert cli.main(["enumerate", "-n", "5", "--budget", "200"]) == 4
    *tables, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert summary["incomplete"] is True and "classes" not in summary
    assert summary["count"] == 6
    assert [t["lambda"] for t in tables] == [
        [list(row) for row in s.lam] for s in cut.solutions]


def test_enumerate_jobs_capped_by_slices(monkeypatch):
    # a fork pool starts all of its workers at the first submit; this
    # stand-in records the size asked for and never starts a process
    import concurrent.futures
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    wide = enumerate_solutions(EnumOptions(3, jobs=10**6))
    assert len(asked) == 1 and asked[0] <= len(_orbit_minima(3)) == 4
    assert lam_tuples(wide) == lam_tuples(enumerate_solutions(EnumOptions(3)))


# The solutions of each slice that no relabeling moving a point to 0 turns
# into a smaller lam_0: those of the unpinned walk in
# tests/test_kernel_oracles.py kept by its brute-force
# ``relabeling_bound_holds``.  Every solution of the identity slice passes
# (201, found by a row search that composed permutation tuples directly);
# nine slices keep none, and a non-minimum lam_0 keeps none at all.
N6_SLICES = {
    (0, 1, 2, 3, 4, 5): 201, (0, 1, 2, 3, 5, 4): 13, (0, 1, 2, 4, 5, 3): 9,
    (0, 1, 3, 2, 5, 4): 29, (0, 1, 3, 4, 5, 2): 5, (0, 2, 1, 4, 5, 3): 1,
    (0, 2, 3, 4, 5, 1): 1, (1, 0, 2, 3, 4, 5): 0, (1, 0, 2, 3, 5, 4): 0,
    (1, 0, 2, 4, 5, 3): 0, (1, 0, 3, 2, 5, 4): 25, (1, 0, 3, 4, 5, 2): 1,
    (1, 2, 0, 3, 4, 5): 0, (1, 2, 0, 3, 5, 4): 0, (1, 2, 0, 4, 5, 3): 13,
    (1, 2, 3, 0, 4, 5): 0, (1, 2, 3, 0, 5, 4): 0, (1, 2, 3, 4, 0, 5): 0,
    (1, 2, 3, 4, 5, 0): 4,
}


@pytest.mark.parametrize("first, count", N6_SLICES.items(), ids=[
    {(0, 1, 2, 3, 4, 5): "identity", (1, 2, 3, 4, 5, 0): "6-cycle"}.get(
        first, "".join(map(str, first))) for first in N6_SLICES])
def test_n6_slice_counts(first, count):
    assert tuple(N6_SLICES) == _orbit_minima(6)
    found, complete = _search_slice(6, first)
    assert complete and len(found) == count
    for form, aut, lam in found:
        assert lam[0] == first
        assert core.check(rmap_from_lambda(lam)).ok
        assert canonical_table(lam)[::2] == (form, aut)


def test_n7_seven_cycle_slice():
    # q(0) = 6 is the last row, so until then only the pins of later rows
    # can cut the walk.  A 7-cycle is the largest orbit minimum, so every
    # row must be a 7-cycle too: the constant rows survive, and
    # lam_x(y) = x + y + 1 on Z_7, whose row 6 is the identity, is left to
    # the identity's slice
    first = (1, 2, 3, 4, 5, 6, 0)
    found, complete = _search_slice(7, first)
    assert complete and len(found) == 1
    assert found[0][2] == (first,) * 7
    assert core.check(rmap_from_lambda(found[0][2])).ok


def counted_relabelings(monkeypatch, calls, bend=None):
    """Count each member image taken through ``_relabelings``' index maps;
    ``bend(index)`` may corrupt a map first."""
    relabelings = search._relabelings

    class Counted(tuple):
        def __iter__(self):
            calls["relabelings"] += 1
            return super().__iter__()

    monkeypatch.setattr(search, "_relabelings", lambda n: tuple(
        (Counted(bend(index) if bend else index), g)
        for index, g in relabelings(n)))


def test_enumerate_checks_each_table_once(monkeypatch, capsys):
    # exactly one exhaustive check per emitted table: the first walk leaf
    # of each form is the only one promoted (11 checks, one per class), and
    # only it derives d; its relabelings carry d over and get one check
    # each (229 more), the promoted representative none again.  Each member
    # is relabeled once by each of the two generators of Sym(5)
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    check = counting("check", core.check)
    monkeypatch.setattr(core, "check", check)
    monkeypatch.setattr(search, "check", check)
    monkeypatch.setattr(core, "exponent", counting("exponent", core.exponent))
    counted_relabelings(monkeypatch, calls)
    assert cli.main(["enumerate", "-n", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 240 + 1
    assert calls == {"check": 240, "exponent": 11, "relabelings": 480}
    calls.clear()
    assert cli.main(["enumerate", "-n", "5", "--up-to-iso"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 11 + 1
    assert calls == {"check": 11, "exponent": 11}


@pytest.mark.parametrize("bend", ["lam-entry", "q"])
def test_class_members_reject_a_corrupted_relabeling(monkeypatch, bend):
    # constant rows of a 3-cycle: two members, and q = p^-1 is a bijection,
    # so a q' transported without the inverse of g is wrong
    rep = from_permutation((1, 2, 0))
    target = ((2, 0, 1),) * 3
    assert [s.lam for s in search._class_members(rep, 3)] == [rep.lam, target]
    if bend == "lam-entry":
        # only the relabeling is corrupted, not the promoted representative,
        # and it fails its own check: its lam_0(0) repeats lam_0(1)
        def bend(index):
            return index[1:2] + index[1:]
    else:
        # the q part of the map reads q(x) where it should read q(g^-1(x))
        def bend(index):
            return index[:9] + tuple(range(9, 12))
    counted_relabelings(monkeypatch, Counter(), bend)
    with pytest.raises(InvalidSolutionError):
        search._class_members(rep, 3)


def test_enumerate_promotes_the_first_leaf_of_each_form(monkeypatch):
    # a larger tuple of an existing form is never promoted, and a form
    # whose first tuple fails the check leaves no trace in the result
    want = {up_to_iso: enumerate_solutions(EnumOptions(3, up_to_iso))
            for up_to_iso in (True, False)}
    walk, promote = search._search_slice, core.promote
    leader = ((0, 2, 1),) * 3   # constant rows of a transposition
    larger = ((1, 0, 2),) * 3   # a relabeling of them
    bad = ((1, 0, 2), (0, 1, 2), (0, 1, 2))
    assert not core.check(rmap_from_lambda(bad)).ok
    promoted = []

    def extra(n, first, deadline):
        found, complete = walk(n, first, deadline)
        if first == (0, 1, 2):
            found.append(((-1,), 1, bad))
        for form, aut, lam in list(found):
            if lam == leader:
                found.append((form, aut, larger))
        return found, complete

    def recording(m):
        promoted.append(m.lam)
        return promote(m)

    monkeypatch.setattr(search, "_search_slice", extra)
    monkeypatch.setattr(core, "promote", recording)
    for up_to_iso, result in want.items():
        promoted.clear()
        assert enumerate_solutions(EnumOptions(3, up_to_iso)) == result
        assert leader in promoted and bad in promoted
        assert larger not in promoted
        assert len(promoted) == len(set(result.canonical)) + 1 == 6


def test_kept_leaf_flattens_to_its_form():
    # the lexicographic leader: the lam-smallest member of a class is the
    # one whose row-major flattening is the canonical form
    for n in range(1, 6):
        result = enumerate_solutions(EnumOptions(n, up_to_iso=True))
        for form, s in zip(result.canonical, result.solutions):
            assert tuple(v for row in s.lam for v in row) == form


def test_classify_counts():
    assert [r.family for r in classify(1)] == ["permutation"]
    assert len(classify(2)) == 3
    assert len(classify(3)) == 5


def test_classify_records():
    recs = classify(2)
    assert [r.diag_size for r in recs].count(2) == 2
    assert all(r.canonical for r in recs)
    members = sum(r.members for r in recs)
    assert members == 4


def test_by_diag_size():
    assert by_diag_size(2) == {1: 1, 2: 2}
    assert by_diag_size(1) == {1: 1}
    assert set(by_diag_size(3)) <= {1, 3}
    for n in (1, 2, 3):
        assert all(n % k == 0 for k in by_diag_size(n))


def test_partition_number():
    values = [partition_number(k) for k in range(11)]
    assert values == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partition_number(100) == 190569292
    with pytest.raises(ValueError):
        partition_number(-1)


def test_check_closed_forms():
    # exhaustive over Sym(n); at p = 2, 3, 5 the census is exactly the two
    # families, and at n = 4 the V4 classes of the singleton diagonal
    # are left unchecked
    for n in (1, 2, 3, 4, 5):
        assert check_closed_forms(n)
    for n in (0, 8):
        with pytest.raises(ValueError):
            check_closed_forms(n)


def _tampered(result, size, extra):
    """The census with one class of the given diagonal size dropped, or
    with one made-up class of that size added."""
    keep = list(zip(result.canonical, result.solutions, result.aut))
    i = next(i for i, (_, s, _) in enumerate(keep)
             if len(diagonal_image(s)) == size)
    if extra:
        keep.append(((-1,) * result.solutions[i].n ** 2, *keep[i][1:]))
    else:
        del keep[i]
    return EnumResult(tuple(s for _, s, _ in keep), result.complete,
                      tuple(c for c, _, _ in keep),
                      tuple(a for _, _, a in keep))


@pytest.mark.parametrize("n, size, extra", [
    (4, 4, False), (4, 4, True), (5, 1, False), (5, 1, True),
], ids=["drop-full", "add-full", "drop-z5", "add-singleton"])
def test_check_closed_forms_tampered(monkeypatch, n, size, extra):
    run = search.enumerate_solutions
    monkeypatch.setattr(search, "enumerate_solutions",
                        lambda opts: _tampered(run(opts), size, extra))
    assert not check_closed_forms(n)


def test_check_closed_forms_needs_every_cycle_type(monkeypatch):
    # without the orbit minimum of the 4-cycles, the walk and the full
    # stratum both lose the constant rows of a 4-cycle, so they still
    # agree: only the count p(4) = 5 sees the class missing
    minima = search._orbit_minima
    monkeypatch.setattr(search, "_orbit_minima", lambda n: tuple(
        p for p in minima(n) if p != (1, 2, 3, 0)))
    assert by_diag_size(4)[4] == partition_number(4) - 1
    assert not check_closed_forms(4)


# The n = 6 figures come from the walk over all 720 choices of lam_0, which
# took 325 s on one core.

@pytest.fixture(scope="session")
def census6():
    """The n = 6 up-to-iso census, built once for the tests that read it."""
    return enumerate_solutions(EnumOptions(6, up_to_iso=True))


def test_classify_n6(monkeypatch, census6):
    # the three checks share the one n = 6 census
    run = search.enumerate_solutions
    iso6 = EnumOptions(6, up_to_iso=True)
    monkeypatch.setattr(search, "enumerate_solutions",
                        lambda opts: census6 if opts == iso6 else run(opts))
    assert sum(rec.members for rec in classify(6)) == 7200
    assert by_diag_size(6) == {1: 5, 2: 8, 3: 7, 6: 11}
    assert check_closed_forms(6)


@pytest.mark.parametrize("up_to_iso, digest", [
    (False, "9f24e1c3962a246b43df5fe9557608d1e486079a0000536133a4fa1dfa94601f"),
    (True, "ddc07c03dd32a0d8318df6b4982e954962fba8b64112eb963359c3d00a086467"),
], ids=["labelled", "iso"])
def test_enumerate_n6_pinned(request, up_to_iso, digest):
    r = (request.getfixturevalue("census6") if up_to_iso
         else enumerate_solutions(EnumOptions(6)))
    assert r.complete
    assert hashlib.sha256(repr((r.solutions, r.canonical)).encode()
                          ).hexdigest() == digest


@pytest.mark.slow
def test_census_n7(monkeypatch):
    # the full n = 7 census, about 13 s on one core: run with pytest -m slow.
    # The walk promotes one leaf per class, so d is derived 21 times
    iso7 = EnumOptions(7, up_to_iso=True)
    exponent, calls = core.exponent, Counter()
    with monkeypatch.context() as patch:
        patch.setattr(core, "exponent",
                      lambda lam: calls.update(["exponent"]) or exponent(lam))
        census7 = enumerate_solutions(iso7)
    assert calls["exponent"] == len(census7.solutions) == 21
    run = search.enumerate_solutions
    monkeypatch.setattr(search, "enumerate_solutions",
                        lambda opts: census7 if opts == iso7 else run(opts))
    assert len(_orbit_minima(7)) == 30
    assert by_diag_size(7) == {1: 6, 7: 15}
    assert sum(rec.members for rec in classify(7)) == 10080
    assert check_closed_forms(7)


def test_prime_five_exhaustive_converse_within_budget():
    # pruning makes the full 120^5 walk feasible: the exhaustive census at
    # p = 5 finishes well inside a 300 s budget and has exactly 7 + 4 classes
    start = time.monotonic()
    result = enumerate_solutions(EnumOptions(5, budget_secs=300))
    assert result.complete
    assert len(set(result.canonical)) == partition_number(5) + 4
    assert check_closed_forms(5)
    assert time.monotonic() - start < 300


def test_prime_case_class_counts():
    # p = 2: two constant-row classes and one group class
    recs = classify(2)
    tags = sorted((r.family or "none") for r in recs)
    assert tags == ["group-automorphism", "permutation", "permutation"]


def test_from_permutation_examples():
    s = from_permutation((1, 0))
    assert s.lam == SOL_SWAP2.lam
    s = from_permutation((0, 1, 2))
    assert s.lam == SOL_PROJ3.lam
    s = from_permutation((1, 2, 0))
    assert s.d == 3
    assert diagonal_image(s) == (0, 1, 2)
    with pytest.raises(ValueError):
        from_permutation((0, 0))


def test_from_group_automorphism_examples():
    s = from_group_automorphism(Z2, (0, 1))
    assert s.lam == SOL_Z2.lam
    s = from_group_automorphism(Z3, (0, 2, 1))
    assert s.lam == SOL_Z3INV.lam
    with pytest.raises(ValueError):
        from_group_automorphism(Z2, (1, 0))
    with pytest.raises(ValueError):
        from_group_automorphism(((0, 1), (0, 1)), (0, 1))


@pytest.mark.parametrize("table, phi", [(Z3, (0,)), (Z2, (0, 1, 2))],
                         ids=["short", "long"])
def test_from_group_automorphism_phi_length(table, phi):
    # phi needs one entry per group element, not merely a permutation
    with pytest.raises(ValueError, match="phi must be a permutation of the group"):
        from_group_automorphism(table, phi)


def test_is_latin_examples():
    assert is_latin(SOL_Z2)
    assert not is_latin(SOL_SWAP2)
    assert is_latin(from_permutation((0,)))


def test_latin_iff_singleton_diagonal():
    for s in enumerate_solutions(EnumOptions(3)).solutions:
        assert is_latin(s) == (len(diagonal_image(s)) == 1)
        ok, _ = is_cancellative(s, 2 * s.d + 1)
        assert ok == is_latin(s)
        m, _ = reconstruct(descriptor(s))
        assert (m.lam, m.rho) == (s.lam, s.rho)


def test_conjugate_permutations_give_isomorphic_solutions():
    sols = {phi: from_permutation(phi) for phi in permutations(range(3))}
    from ybx.perms import compose, inverse
    for phi in sols:
        for psi in sols:
            conjugate = any(
                compose(compose(tau, phi), inverse(tau)) == psi
                for tau in permutations(range(3)))
            assert (iso_check(sols[phi], sols[psi]) is not None) == conjugate


def test_from_rees_example_trivial_group():
    res = from_rees_example([[0]], 4, [0, 1], {2: 0, 3: 1}, [0], [0, 1, 2, 3])
    assert res.descriptor.op == tuple(tuple(range(4)) for _ in range(4))
    assert res.descriptor.q == (0, 1, 0, 1)
    assert res.descriptor.phi[0] == (0, 1, 2, 3)
    assert res.fineq.ok
    assert res.verification.ybe1 and res.verification.left_nondegenerate
    assert not res.verification.idempotent


def test_from_rees_example_z2():
    res = from_rees_example(Z2, 2, [0], {1: 0}, [0, 1], [0, 1])
    assert res.descriptor.n == 4
    assert set(res.descriptor.q) == {0}


def test_from_rees_example_preconditions():
    with pytest.raises(ValueError):
        from_rees_example([[0]], 4, [0, 1], {2: 0, 3: 1}, [0], [1, 0, 2, 3])
    with pytest.raises(ValueError):
        from_rees_example([[0]], 3, [0], {1: 0, 2: 0}, [0], [0, 1, 2])
    with pytest.raises(ValueError):
        from_rees_example([[0]], 4, [0, 1], {2: 0, 3: 0}, [0], [0, 1, 2, 3])
    # a key names a column as the int or its plain numeral, once
    assert from_rees_example([[0]], 4, [0, 1], {2: 0, "3": 1}, [0],
                             [0, 1, 2, 3]).fineq.ok
    with pytest.raises(ValueError, match="bijectively"):
        from_rees_example([[0]], 4, [0, 1], {2: 0, "2": 0, 3: 1}, [0],
                          [0, 1, 2, 3])
