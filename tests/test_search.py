import hashlib

import pytest

from ybx import cli, core
from ybx.core import (InvalidSolutionError, canonical_form, diagonal_image,
                      iso_check)
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
from itertools import permutations
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
    # class representatives can see it expire
    walk = search._search_slice
    monkeypatch.setattr(search, "_search_slice",
                        lambda n, first, deadline: walk(n, first))
    iso = enumerate_solutions(EnumOptions(4, up_to_iso=True, budget_secs=0))
    assert iso.complete and len(iso.solutions) == 14
    labelled = enumerate_solutions(EnumOptions(4, budget_secs=0))
    assert not labelled.complete and labelled.solutions == ()


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

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    wide = enumerate_solutions(EnumOptions(3, jobs=10**6))
    assert len(asked) == 1 and asked[0] <= len(_orbit_minima(3)) == 4
    assert lam_tuples(wide) == lam_tuples(enumerate_solutions(EnumOptions(3)))


# The identity (201) and 6-cycle (14) counts were found by a row search
# that composed permutation tuples directly, independent of the id tables
# and bitmasks.  The other 17 are pins recorded from the walk before
# ``_pin``, which tested every candidate on every YBE1 quadruple.
N6_SLICES = {
    (0, 1, 2, 3, 4, 5): 201, (0, 1, 2, 3, 5, 4): 13, (0, 1, 2, 4, 5, 3): 9,
    (0, 1, 3, 2, 5, 4): 33, (0, 1, 3, 4, 5, 2): 5, (0, 2, 1, 4, 5, 3): 1,
    (0, 2, 3, 4, 5, 1): 1, (1, 0, 2, 3, 4, 5): 13, (1, 0, 2, 3, 5, 4): 33,
    (1, 0, 2, 4, 5, 3): 1, (1, 0, 3, 2, 5, 4): 77, (1, 0, 3, 4, 5, 2): 5,
    (1, 2, 0, 3, 4, 5): 9, (1, 2, 0, 3, 5, 4): 1, (1, 2, 0, 4, 5, 3): 24,
    (1, 2, 3, 0, 4, 5): 5, (1, 2, 3, 0, 5, 4): 5, (1, 2, 3, 4, 0, 5): 1,
    (1, 2, 3, 4, 5, 0): 14,
}


@pytest.mark.parametrize("first, count", N6_SLICES.items(), ids=[
    {(0, 1, 2, 3, 4, 5): "identity", (1, 2, 3, 4, 5, 0): "6-cycle"}.get(
        first, "".join(map(str, first))) for first in N6_SLICES])
def test_n6_slice_counts(first, count):
    from ybx.core import RMap, check
    assert tuple(N6_SLICES) == _orbit_minima(6)
    found, complete = _search_slice(6, first)
    assert complete and len(found) == count
    for _, s, _ in found:
        assert s.lam[0] == first
        assert check(RMap(s.n, s.lam, s.rho)).ok


def test_n7_seven_cycle_slice():
    # q(0) = 6 is the last row, so until then only the pins of later rows
    # can cut the walk
    first = (1, 2, 3, 4, 5, 6, 0)
    found, complete = _search_slice(7, first)
    assert complete and len(found) == 2
    for _, s, _ in found:
        assert s.lam[0] == first
        assert core.check(s).ok


def test_enumerate_checks_each_table_once(monkeypatch, capsys):
    # one exhaustive check per emitted table (240) and per walk leaf (27);
    # only the leaves derive d, the relabelings carry it over; each member
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
    monkeypatch.setattr(search, "relabel_lambda",
                        counting("relabel_lambda", core.relabel_lambda))
    assert cli.main(["enumerate", "-n", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 240 + 1
    assert calls == {"check": 267, "exponent": 27, "relabel_lambda": 480}


@pytest.mark.parametrize("bend", ["lam-entry", "q"])
def test_class_members_reject_a_corrupted_relabeling(monkeypatch, bend):
    # constant rows of a 3-cycle: two members, and q = p^-1 is a bijection,
    # so a q' transported with the wrong inverse is wrong
    rep = from_permutation((1, 2, 0))
    relabel, target = core.relabel_lambda, ((2, 0, 1),) * 3
    assert [s.lam for s in search._class_members(rep, 3)] == [rep.lam, target]
    if bend == "lam-entry":
        # only the member is corrupted, not the representative, so the
        # representative passes its check and the member fails its own
        monkeypatch.setattr(search, "relabel_lambda", lambda lam, psi: (
            ((0, 0, 1),) + target[1:] if relabel(lam, psi) == target
            else relabel(lam, psi)))
    else:
        monkeypatch.setattr(search, "inverse", lambda p: tuple(range(len(p))))
    with pytest.raises(InvalidSolutionError):
        search._class_members(rep, 3)


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
    # the full n = 7 census, about 20 s on one core: run with pytest -m slow
    iso7 = EnumOptions(7, up_to_iso=True)
    census7 = enumerate_solutions(iso7)
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
