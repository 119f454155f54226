"""Rewritten kernels against the nested loops they replaced.

The helpers below are those earlier kernels, kept as independent oracles:
a union-find over all n^L free words of one length, an overlap scan that
walks every pair of rules and reduces every overlap word, a
right-cancellation scan that also runs over the length of the cancelled
factor, the hand-written loops of ``check``, ``check_fineq`` and
``descriptor_diagnostics`` that the exhaustive scanner ``core.failures``
replaced, every center equation row eliminated in ``Fraction``s, which
the cycles of the point maps of ``center_basis`` replaced, the minimum over all n! relabelings that the branch-and-bound
canonical labeling replaced, the unpruned check of
every lam tuple in Sym(n)^n, the row search that tested every candidate
on every YBE1 quadruple before ``_pin`` solved the rows those quadruples
force, run over all n! choices of lam_0 that the Stab(0)-orbit minima
replaced and on every row tuple that the relabeling bound cut, the
minimum of each row's orbit under the relabelings moving its point to 0,
taken over Stab(0), that the cycle-type keys replaced, the composition
table of Sym(n)
hashed entry by entry that the build by rows replaced, q and d derived
again for each relabeling that transporting them replaced, all n!
relabelings of a class representative that growing its Sym(n)-orbit
from two generators replaced, the row-by-row conjugation of a table
that the members' flat index maps replaced, the
semigroup claims that follow from the four ``semigroup`` checks, the
torsion, round-trip and all-pairs isomorphism scans whose claims
``structure`` now checks once or derives, the union-find over two-letter
words that the fibers of r replaced, the pair-model products that
the n elements of each degree replaced, the class table built for every
length that the stop at the first repeated table replaced, the
arithmetic checks at every length that their evaluation once per word
level replaced, and the right-cancellation scan that stopped at the first
repeated rows and the normal-word count of every degree that the scans
over one period of ``core.periodic`` replaced.  Perturbed census records also check
that ``structure`` and ``conjugation_action`` report, never raise.
"""

import hashlib

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations, product
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybx import groebner, invariants, monoid, search
from ybx.core import (ALL_VALID, IDENTITY_NAMES, InvalidSolutionError, RMap,
                      Solution, VerificationReport, associativity,
                      canonical_form, canonical_table, check, diagonal_image,
                      diagonal_map, failures, forced_rho, homomorphism,
                      iso_check, lambda_word, nth, periodic, promote,
                      rmap_from_lambda, solution_from_lambda, word_level,
                      word_levels)
from ybx.groebner import (CompletionReport, RewriteSystem, Rule,
                          check_overlaps, constant_rules, normal_word_count,
                          reduce, solution_rules)
from ybx.invariants import (AllPhiReport, Descriptor, Discrepancy, FineqReport,
                            check_fineq, descriptor, descriptor_diagnostics,
                            phi_maps, q_image_in_idempotents, semigroup,
                            structure, torsion_iso)
from ybx.monoid import (ONE, MElem, center_basis,
                        conjugation_action, growth, is_cancellative, mul,
                        power, sigma, sigma_discrepancies)
from ybx.perms import compose, exponent, inverse, is_perm
from ybx.search import (EnumOptions, EnumResult, _orbit_minima, _pin,
                        _row_bounds, _search_slice, _sym_index,
                        classify, enumerate_solutions,
                        from_group_automorphism, from_permutation,
                        from_rees_example)
from pointwise import (associative_at, fineq_holds, homomorphic_at,
                       identity_holds)


def word_classes_all_words(s, length):
    """Congruence classes of the n^length words, as base-n integers."""
    n = s.n
    size = n ** length
    parent = list(range(size))

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    rewrite = [[(s.lam[a][b], s.rho[a][b]) for b in range(n)] for a in range(n)]
    strides = [n ** (length - 1 - i) for i in range(length)]
    for w in range(size):
        rest = w
        digits = []
        for st in strides:
            digits.append(rest // st)
            rest %= st
        for i in range(length - 1):
            a, b = digits[i], digits[i + 1]
            a2, b2 = rewrite[a][b]
            if (a2, b2) != (a, b):
                w2 = w + (a2 - a) * strides[i] + (b2 - b) * strides[i + 1]
                ra, rb = find(w), find(w2)
                if ra != rb:
                    parent[rb] = ra
    return sum(1 for w in range(size) if find(w) == w)


def word_classes_per_length(s, max_len):
    """Class counts of each length 1..max_len and the class table of each
    length 0..max_len - 1, one union-find built for every length."""
    n = s.n

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    moved = [(b, a, s.lam[b][a], s.rho[b][a]) for b in range(n)
             for a in range(n) if (s.lam[b][a], s.rho[b][a]) != (b, a)]
    entries = list(range(n))
    tables, counts = [tuple(entries)], [n]
    for _ in range(max_len - 1):
        size = counts[-1] * n
        parent = list(range(size))
        rows = {tuple(entries[i:i + n]) for i in range(0, len(entries), n)}
        joins = {(row[b] * n + a, row[b2] * n + a2)
                 for row in rows for b, a, b2, a2 in moved}
        for u, v in joins:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
        ids = {}
        entries = [ids.setdefault(find(node), len(ids)) for node in range(size)]
        tables.append(tuple(entries))
        counts.append(len(ids))
    return tuple(counts), tables


def arithmetic_discrepancies_per_length(s, max_len=None):
    """The bounded arithmetic checks, evaluated at every length and element."""
    d = s.d
    L = max_len if max_len is not None else 2 * d
    n = s.n
    bad = []
    image = diagonal_image(s)

    for ka in range(1, L + 1):
        rows = word_level(s, ka)[0]
        for x, kb in product(range(n), range(1, L + 1)):
            ends_ab, ends_b = word_level(s, ka + kb)[1], word_level(s, kb)[1]
            bad.extend(Discrepancy("product-grading", (ka, x, kb, y))
                       for y in range(n) if ends_ab[rows[x][y]] != ends_b[y])

    elems = [MElem(k, x) for k in range(1, L + 1) for x in range(n)]
    for u in image:
        cu = MElem(d, u)
        for a in elems:
            if monoid.component(s, a) != u:
                continue
            if lambda_word(s, u, d)[a.x] != lambda_word(s, a.x, a.k)[u]:
                bad.append(Discrepancy("central-element-commutes", (u, a.k, a.x)))
            if power(s, a, d) != power(s, cu, a.k):
                bad.append(Discrepancy("power-collapse", (u, a.k, a.x)))

    for u in image:
        if lambda_word(s, u, d) != tuple(range(n)):
            bad.append(Discrepancy("diagonal-word-identity", (u,)))

    for k in range(1, d + 1):
        rows = word_level(s, k)[0]
        for x in range(n):
            for y in range(x + 1, n):
                if rows[x] != rows[y]:
                    inv = inverse(rows[y])
                    if any(rows[x][inv[i]] == i for i in range(n)):
                        bad.append(Discrepancy("fixed-point-alternative", (k, x, y)))

    for k in range(1, 2 * d + 3):
        rows, ends = word_level(s, k)
        for x in range(n):
            if ends[x] != inverse(rows[x])[x]:
                bad.append(Discrepancy("q-power-identity", (k, x)))
    ends = word_level(s, d + 1)[1]
    for x in range(n):
        if ends[x] != s.q[x]:
            bad.append(Discrepancy("q-period", (x,)))

    bad.extend(sigma_discrepancies(s))
    return tuple(bad)


def overlap_words(rs):
    """Both one-step reducts of every overlap, from the all-pairs walk."""
    rules = {r.lhs: r.rhs for r in rs.rules}
    return {w for (a, b) in rules for (b2, c) in rules if b2 == b
            for w in (rules[(a, b)] + (c,), (a,) + rules[(b, c)])}


def overlaps_all_pairs(rs):
    rules = {r.lhs: r.rhs for r in rs.rules}
    unresolved = []
    for (a, b) in sorted(rules):
        for (b2, c) in sorted(rules):
            if b2 != b:
                continue
            left = reduce(rs, rules[(a, b)] + (c,))
            right = reduce(rs, (a,) + rules[(b, c)])
            if left != right:
                unresolved.append(((a, b, c), left, right))
    return unresolved


def is_cancellative_all_lengths(s, max_len):
    n = s.n
    lam_k = [None] + [[lambda_word(s, x, k) for x in range(n)]
                      for k in range(1, max_len + 1)]
    for k in range(1, max_len + 1):
        for x in range(n):
            for y in range(x + 1, n):
                for l in range(1, max_len + 1):
                    for z in range(n):
                        if lam_k[k][x][z] == lam_k[k][y][z]:
                            return False, ("right", MElem(k, x), MElem(k, y),
                                           MElem(l, z))
    for l in range(1, max_len + 1):
        for z in range(n):
            row = lam_k[l][z]
            for x in range(n):
                for y in range(x + 1, n):
                    if row[x] == row[y]:
                        return False, ("left", MElem(1, x), MElem(1, y),
                                       MElem(l, z))
    return True, None


def check_nested_loops(m):
    """Exhaustively verify an RMap over all triples and pairs of points."""
    n = m.n
    rng = range(n)
    results = {}
    firsts = {}

    for name in ("ybe1", "ybe2", "ybe3"):
        ok = True
        for x in rng:
            for y in rng:
                for z in rng:
                    if not identity_holds(m, name, (x, y, z)):
                        ok = False
                        firsts.setdefault(name, (x, y, z))
                        break
                if not ok:
                    break
            if not ok:
                break
        results[name] = ok

    ok = True
    for x in rng:
        if not is_perm(m.lam[x]):
            ok = False
            firsts.setdefault("left_nondegenerate", (x,))
            break
    results["left_nondegenerate"] = ok

    ok = True
    for x in rng:
        for y in rng:
            if not identity_holds(m, "idempotent", (x, y)):
                ok = False
                firsts.setdefault("idempotent", (x, y))
                break
        if not ok:
            break
    results["idempotent"] = ok

    first = None
    for name in IDENTITY_NAMES:
        if not results[name]:
            first = (name, firsts[name])
            break
    return VerificationReport(first_counterexample=first, **results)


def check_fineq_nested_loops(dsc):
    """Evaluate the four compatibility identities of a descriptor.

    When all phi_x coincide, the reduced conditions are evaluated as well
    and reported side by side.
    """
    n = dsc.n
    rng = range(n)
    results = {}
    examples = []
    for name in ("fineq1", "fineq2", "fineq3"):
        ok = True
        for x in rng:
            for y in rng:
                for z in rng:
                    if not fineq_holds(dsc, name, (x, y, z)):
                        ok = False
                        examples.append((name, (x, y, z)))
                        break
                if not ok:
                    break
            if not ok:
                break
        results[name] = ok
    ok = True
    for x in rng:
        if not fineq_holds(dsc, "fineq4", (x,)):
            ok = False
            examples.append(("fineq4", (x,)))
            break
    results["fineq4"] = ok

    allphi = None
    if len(set(dsc.phi)) == 1:
        phi = dsc.phi[0]
        op, q = dsc.op, dsc.q
        ce = []
        auto = is_perm(phi)
        failed = False
        for x in rng:
            for y in rng:
                if phi[op[x][y]] != op[phi[x]][phi[y]]:
                    auto, failed = False, True
                    ce.append(("automorphism", x, y))
                    break
            if failed:
                break
        pq = all(phi[q[x]] == q[q[x]] for x in rng)
        if not pq:
            ce.append(("phi_q_is_q2",))
        q4 = all(q[x] == q[q[q[q[x]]]] for x in rng)
        if not q4:
            ce.append(("q_is_q4",))
        ab = all(q[op[x][q[q[x]]]] == q[x] for x in rng)
        if not ab:
            ce.append(("absorbs_q2",))
        allphi = AllPhiReport(auto, pq, q4, ab, tuple(ce))

    return FineqReport(counterexamples=tuple(examples), allphi=allphi, **results)


def descriptor_diagnostics_nested_loops(dsc):
    n = dsc.n
    rng = range(n)
    op = dsc.op
    bad = []
    # the first failure of each table axiom, as semigroup() reports them
    for x, y, z in product(rng, repeat=3):
        if op[op[x][y]][z] != op[x][op[y][z]]:
            bad.append(Discrepancy("descriptor-associativity", (x, y, z)))
            break
    for x in rng:
        if len(set(op[x])) != n:
            bad.append(Discrepancy("descriptor-left-cancellative", (x,)))
            break
    for x in rng:
        if op[x][x] == x and any(op[x][y] != y for y in rng):
            bad.append(Discrepancy("descriptor-idempotent-not-left-identity", (x,)))
    for x in rng:
        if not is_perm(dsc.phi[x]):
            bad.append(Discrepancy("descriptor-phi-not-bijective", (x,)))
    info = q_image_in_idempotents(dsc)
    if not info["contained"]:
        bad.append(Discrepancy("descriptor-q-image-not-idempotent",
                               info["q_image"], info["idempotents"]))
    return tuple(bad)


def families(n):
    """Z_n with x -> -x, and constant rows of the n-cycle and the identity."""
    cycle = tuple((y + 1) % n for y in range(n))
    return [
        [tuple((x - y) % n for y in range(n)) for x in range(n)],
        [cycle] * n,
        [tuple(range(n))] * n,
    ]


@pytest.fixture(scope="module")
def census4():
    return enumerate_solutions(EnumOptions(4)).solutions


def test_growth_oracle_matches_all_words_on_census4(census4):
    assert len(census4) > 0
    for s in census4:
        want = tuple(word_classes_all_words(s, k) for k in range(1, 6))
        assert growth(s, 5).oracle == want


@pytest.mark.parametrize("family", [0, 1, 2], ids=["zn-neg", "cycle", "identity"])
def test_growth_oracle_matches_all_words_on_families(family):
    s = solution_from_lambda(families(8)[family])
    want = tuple(word_classes_all_words(s, k) for k in range(1, 5))
    assert want == (8,) * 4
    assert growth(s, 4).oracle == want


def pair_model_counts(s, max_len):
    """Distinct products of each length 1..max_len, multiplied out letter by letter."""
    level = {MElem(1, x) for x in range(s.n)}
    counts = [len(level)]
    for _ in range(max_len - 1):
        level = {mul(s, e, MElem(1, y)) for e in level for y in range(s.n)}
        counts.append(len(level))
    return tuple(counts)


def test_pair_model_has_n_elements_per_degree(census_to4):
    for s in census_to4:
        assert pair_model_counts(s, 5) == growth(s, 5).model == (s.n,) * 5


def class_state(table, n):
    """The growth state of a class table: its class count and its rows."""
    return max(table) + 1, frozenset(table[i:i + n]
                                     for i in range(0, len(table), n))


def test_word_classes_match_all_words_on_random_maps(monkeypatch):
    # on maps that are not solutions the class counts vary with the
    # length, so the level-by-level count is checked beyond "n per degree";
    # to length 10 the counts equal those of a table built for every
    # length, and the states built are those of its tables up to the first
    # state equal to an earlier one: some maps repeat only from length 2
    # on, or with a period above 1, so the counts are extended
    built = []
    next_classes = monoid._next_classes
    monkeypatch.setattr(monoid, "_next_classes",
                        lambda *a: built.append(next_classes(*a)) or built[-1])
    rng = random.Random(7)

    def table(n):
        return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))

    seen, stops = set(), set()
    for _ in range(60):
        n = rng.randint(1, 4)
        m = SimpleNamespace(n=n, lam=table(n), rho=table(n))
        want = tuple(word_classes_all_words(m, k) for k in range(1, 6))
        assert growth(m, 5).oracle == want
        seen.add(want)
        built.clear()
        counts, tables = word_classes_per_length(m, 10)
        assert growth(m, 10).oracle == counts
        states = [class_state(t, n) for t in tables]
        assert built == states[1:len(built) + 1]
        assert len(set(states[:len(built)])) == len(built)
        if len(built) < 9:
            start = states.index(built[-1])
            stops.add((start, len(built) - start))
    assert any(len(set(counts)) > 1 for counts in seen)
    assert any(start > 1 or period > 1 for start, period in stops)


def _random_system(rng, n, density=0.6):
    words = [(a, b) for a in range(n) for b in range(n)]
    rules = []
    for i, lhs in enumerate(words):
        if i and rng.random() < density:
            rules.append(Rule(lhs, words[rng.randrange(i)]))
    return RewriteSystem(n, tuple(rules))


def solution_rules_union_find(s):
    """The rewriting classes as the transitive closure of w ~ r(w)."""
    n = s.n
    parent = {}

    def find(w):
        while parent.setdefault(w, w) != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    nontrivial = 0
    for lhs in product(range(n), repeat=2):
        x, y = lhs
        rhs = (s.lam[x][y], s.rho[x][y])
        if lhs != rhs:
            nontrivial += 1
        ra, rb = find(lhs), find(rhs)
        if ra != rb:
            parent[rb] = ra

    classes = {}
    for w in product(range(n), repeat=2):
        classes.setdefault(find(w), []).append(w)
    rules = []
    for members in classes.values():
        rep = min(members)
        rules.extend(Rule(w, rep) for w in members if w != rep)
    rs = RewriteSystem(n, tuple(rules))
    unresolved = tuple(check_overlaps(rs))
    status = "confluent" if not unresolved else "not quadratically confluent"
    return rs, CompletionReport(not unresolved, unresolved, nontrivial, status)


def test_solution_rules_match_union_find(census_to4):
    sols = census_to4 + [solution_from_lambda(rows)
                         for n in (8, 16) for rows in families(n)]
    for s in sols:
        rs, report = solution_rules(s)
        want_rs, want_report = solution_rules_union_find(s)
        assert (rs.rules, report) == (want_rs.rules, want_report)


def _no_reduce(monkeypatch):
    """``check_overlaps`` reads normal forms off one map of all 3-letter
    words, so it never reduces a word by itself."""
    def no_reduce(system, word):
        raise AssertionError(f"reduce({word}) was called")

    monkeypatch.setattr(groebner, "reduce", no_reduce)


def test_overlaps_match_all_pairs_scan(monkeypatch, census4):
    systems = [constant_rules(8)]
    systems += [solution_rules(s)[0] for s in census4]
    systems += [solution_rules(solution_from_lambda(rows))[0]
                for rows in families(8)]
    rng = random.Random(11)
    systems += [_random_system(rng, n) for n in (2, 3, 4, 5) for _ in range(10)]
    wants = [overlaps_all_pairs(rs) for rs in systems]
    _no_reduce(monkeypatch)
    assert [check_overlaps(rs) for rs in systems] == wants
    assert sum(map(len, wants)) > 0


def test_overlaps_match_all_pairs_scan_dense():
    # densities from sparse (many rules ab whose b starts no rule) to full
    # (every word but 00 has a rule), up to seven letters
    rng = random.Random(17)
    systems = [_random_system(rng, n, density)
               for n in range(1, 8) for density in (0.2, 0.5, 0.8, 1.0)
               for _ in range(3)]
    dead_ends = full = unresolved = 0
    for rs in systems:
        starts = {lhs[0] for lhs in rs.rule_map()}
        dead_ends += sum(b not in starts for _, b in rs.rule_map())
        full += rs.n > 1 and len(rs.rules) == rs.n * rs.n - 1
        want = overlaps_all_pairs(rs)
        assert check_overlaps(rs) == want
        unresolved += len(want)
    assert dead_ends > 0 and full >= 6 and unresolved > 0


def test_overlaps_match_all_pairs_scan_dense_at_ten_letters():
    # n = 8..10 from sparse to nearly full; all but one of them are not
    # confluent
    rng = random.Random(23)
    systems = [_random_system(rng, n, density) for n in (8, 9, 10)
               for density in (0.3, 0.6, 0.9) for _ in range(4)]
    wants = [overlaps_all_pairs(rs) for rs in systems]
    assert [check_overlaps(rs) for rs in systems] == wants
    assert 0 < sum(not want for want in wants) < len(wants)


def _chain_system(n, second):
    """Rules (k, 0) -> (k - 1, 0) for k >= 1, so k00 walks down through k
    steps, with ``second`` rules on the second pair rewriting bc."""
    rules = {(k, 0): (k - 1, 0) for k in range(1, n)}
    rules.update(second)
    return RewriteSystem(n, tuple(Rule(l, r) for l, r in rules.items()))


def _steps(rs, word):
    """Rewriting steps of ``reduce`` on one word, counted by hand."""
    rules, w, count = rs.rule_map(), list(word), 0
    i = 0
    while i + 1 < len(w):
        image = rules.get((w[i], w[i + 1]))
        if image is None:
            i += 1
        else:
            w[i], w[i + 1] = image
            i, count = 0, count + 1
    return count


@pytest.mark.parametrize("n, second, unresolved", [
    (12, {}, 0),
    # k11 reduces to 001 by its first pair and to 000 by its second
    (12, {(k, 1): (k, 0) for k in range(1, 12)}, 11),
    (16, {(1, k): (0, k) for k in range(3, 16, 2)}, 0),
    (20, {(2, k): (1, k - 1) for k in range(2, 20)}, 18),
])
def test_overlaps_match_all_pairs_scan_on_long_reduction_chains(
        monkeypatch, n, second, unresolved):
    # some words take 2n - 2 steps or more to reach their normal form, so
    # ``normal`` is squared five or six times
    rs = _chain_system(n, second)
    assert max(_steps(rs, w) for w in product(range(n), repeat=3)) >= 2 * n - 2
    want = overlaps_all_pairs(rs)
    assert len(want) == unresolved
    _no_reduce(monkeypatch)
    assert check_overlaps(rs) == want


def test_check_overlaps_resolves_a_shared_left_and_right_word(monkeypatch):
    # overlap 120: the left reduct 10.0 and the right reduct 1.00 are one word
    rs = RewriteSystem(3, (Rule((1, 2), (1, 0)), Rule((2, 0), (0, 0))))
    assert overlap_words(rs) == {(1, 0, 0)}
    _no_reduce(monkeypatch)
    assert check_overlaps(rs) == []


def test_rewrite_system_rejects_letters_outside_range():
    # normal_word_count reads letters 0..n-1 only and would count [2, 4, 8]
    # here, blind to the stray letters 5 and 7 and to the overlap 157
    with pytest.raises(ValueError, match="outside"):
        RewriteSystem(2, (Rule((1, 5), (0, 1)), Rule((5, 7), (0, 0))))
    with pytest.raises(ValueError, match="outside"):
        RewriteSystem(2, (Rule((1, 1), (0, -1)),))


@pytest.mark.parametrize("build", [
    lambda: constant_rules(32),
    lambda: solution_rules(solution_from_lambda(families(24)[0]))[0],
], ids=["constant-32", "zn-neg-24"])
def test_check_overlaps_makes_no_reduce_call(monkeypatch, build):
    # the all-pairs scan reduces 61,504 and 25,392 overlap words here
    rs = build()
    want = overlaps_all_pairs(rs)
    _no_reduce(monkeypatch)
    assert check_overlaps(rs) == want


def test_check_overlaps_memory_stays_cubic():
    # seven lists of n^3 codes, about 25 MB traced at n = 64
    tracemalloc.start()
    try:
        assert check_overlaps(constant_rules(64)) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_is_cancellative_matches_all_lengths_scan(census4):
    verdicts = set()
    for s in census4:
        for max_len in (1, 2, 2 * s.d + 1):
            got = is_cancellative(s, max_len)
            assert got == is_cancellative_all_lengths(s, max_len)
            verdicts.add(got[0])
    assert verdicts == {True, False}


def test_is_cancellative_matches_all_lengths_scan_on_random_tables():
    # word tables read only lam and q, so any permutation rows and any q
    # make a record; half the records have latin rows, which pass level 1,
    # so that witnesses sit at higher levels too
    rng = random.Random(5)
    deep = False
    for _ in range(300):
        n = rng.randint(1, 6)
        lam = tuple(tuple(rng.sample(range(n), n)) for _ in range(n))
        if rng.random() < 0.5:
            r, c, v = (rng.sample(range(n), n) for _ in range(3))
            lam = tuple(tuple(v[(r[x] + c[y]) % n] for y in range(n))
                        for x in range(n))
        q = tuple(rng.randrange(n) for _ in range(n))
        s = Solution(n, lam, lam, q, rng.randint(1, 6))
        for max_len in range(1, 7):
            got = is_cancellative(s, max_len)
            assert got == is_cancellative_all_lengths(s, max_len)
        witness = got[1]
        deep = deep or (witness is not None and witness[1].k > 1
                        and witness[3].x > 0)
    assert deep


def is_cancellative_seen_rows(s, max_len):
    """Right cancellation scanned up to the first length whose rows repeat
    those of an earlier length."""
    n = s.n
    seen = set()
    for k in range(1, max_len + 1):
        rows = word_level(s, k)[0]
        if rows in seen:
            break
        seen.add(rows)
        cols = list(zip(*rows))
        if any(len(set(col)) < n for col in cols):
            x, y, z = min((x, col.index(v, x + 1), z)
                          for z, col in enumerate(cols)
                          for x, v in enumerate(col) if v in col[x + 1:])
            return False, ("right", MElem(k, x), MElem(k, y), MElem(1, z))
    return True, None


def normal_word_count_per_degree(rs, max_deg):
    """Irreducible words per degree, one adjacency product for every degree."""
    n = rs.n
    rules = rs.rule_map()
    allowed = [[(a, b) not in rules for b in range(n)] for a in range(n)]
    vec, counts = [1] * n, [n]
    for _ in range(max_deg - 1):
        vec = [sum(vec[a] for a in range(n) if allowed[a][b]) for b in range(n)]
        counts.append(sum(vec))
    return counts


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.lists(st.integers(0, m - 1), min_size=m, max_size=m),
    st.integers(0, m - 1), st.integers(0, 3 * m - 1),
    st.none() | st.integers(1, 3 * m))))
def test_nth_of_periodic_iterates_the_step(case):
    # a random map f on range(m): term k is f applied k times to x, the
    # stored terms are distinct, and a bound cuts a sequence that has not
    # repeated yet
    f, x, k, bound = case
    terms, start = periodic(f.__getitem__, x, bound)
    assert terms[0] == x and len(set(terms)) == len(terms) <= len(f)
    assert all(f[a] == b for a, b in zip(terms, terms[1:]))
    if start is None:
        assert bound == len(terms)
    else:
        assert f[terms[-1]] == terms[start]
        assert bound is None or len(terms) < bound
    want = x
    for _ in range(k):
        want = f[want]
    if start is not None or k < len(terms):
        assert nth(terms, start, k) == want


def bent_record(rng, s):
    """s with one q entry or one lam row replaced, rho = q . lam, d kept."""
    n, lam, q = s.n, list(s.lam), list(s.q)
    if rng.random() < 0.5:
        q[rng.randrange(n)] = rng.randrange(n)
    else:
        lam[rng.randrange(n)] = tuple(rng.sample(range(n), n))
    lam, q = tuple(lam), tuple(q)
    return Solution(n, lam, forced_rho(lam, q), q, s.d)


def test_period_scans_match_their_per_length_forms(census5):
    # the cancellation scan over the stored word levels against the stop
    # at the first repeated rows, and the periodic normal-word counts
    # against one product per degree, on the labelled census with n <= 5
    # and 1,200 records with one q entry or lam row bent
    rng = random.Random(33)
    bent = [bent_record(rng, rng.choice(census5)) for _ in range(1200)]
    verdicts, confluent = Counter(), 0
    for s in census5 + bent:
        for max_len in (1, 2, s.d + 1, 2 * s.d + 1, 4 * s.d + 4):
            got = is_cancellative(s, max_len)
            assert got == is_cancellative_seen_rows(s, max_len)
            verdicts[got[0]] += 1
        rs, report = solution_rules(s)
        confluent += report.confluent
        assert normal_word_count(rs, 12) == normal_word_count_per_degree(rs, 12)
    assert set(verdicts) == {True, False} and 0 < confluent < len(bent)


def test_normal_word_count_matches_per_degree_on_random_systems():
    # random quadratic systems: each rule sends a pair to a smaller one, so
    # the counts by last letter may grow, shrink to zero or cycle
    rng = random.Random(33)
    steady = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        words = list(product(range(n), repeat=2))
        rules = tuple(Rule(w, words[rng.randrange(i)])
                      for i, w in enumerate(words) if i and rng.random() < 0.6)
        rs = RewriteSystem(n, rules)
        for max_deg in (1, 2, 3, 7, 40):
            want = normal_word_count_per_degree(rs, max_deg)
            assert normal_word_count(rs, max_deg) == want
        steady.add(want[-1] == want[-2])
    assert steady == {True, False}


def power_right_multiplied(s, a, e):
    """a^e as the loop out = out . a, which reads levels up to (e - 1)|a|."""
    out = ONE
    for _ in range(e):
        out = mul(s, out, a)
    return out


def test_power_matches_right_multiplied_loop_on_census4(census4):
    for s in census4:
        for a in [MElem(k, x) for k in range(1, 2 * s.d + 1)
                  for x in range(s.n)]:
            for e in range(s.d + 2):
                assert power(s, a, e) == power_right_multiplied(s, a, e)


def test_arithmetic_discrepancies_match_per_length_scan(census_to4):
    sols = census_to4 + [solution_from_lambda(rows) for rows in families(8)]
    for s in sols:
        for max_len in (None, 1, 3 * s.d):
            want = arithmetic_discrepancies_per_length(s, max_len)
            assert monoid.arithmetic_discrepancies(s, max_len) == want


def test_arithmetic_discrepancies_match_per_length_scan_on_bent_records():
    # random permutation rows with a random q and d: the tuples are equal,
    # order included, and every claim fires on some record
    rng = random.Random(5)
    fired = Counter()
    for _ in range(300):
        n = rng.randint(1, 4)
        lam = tuple(tuple(rng.sample(range(n), n)) for _ in range(n))
        q = tuple(rng.randrange(n) for _ in range(n))
        bent = Solution(n, lam, forced_rho(lam, q), q, rng.randint(1, 4))
        max_len = rng.choice((None, 1, 5))
        got = monoid.arithmetic_discrepancies(bent, max_len)
        assert got == arithmetic_discrepancies_per_length(bent, max_len)
        fired.update(b.claim for b in got)
    assert set(fired) == {
        "product-grading", "central-element-commutes", "power-collapse",
        "diagonal-word-identity", "fixed-point-alternative",
        "q-power-identity", "q-period", "derived-map-constant"}


def test_product_grading_scans_the_lengths_of_one_period():
    # the word levels repeat from length 1 with period 1, so every grading
    # key up to the bound occurs at (1, 1), where this record fails
    lam, q = ((0, 1, 2), (0, 2, 1), (0, 1, 2)), (0, 0, 2)
    bent = Solution(3, lam, forced_rho(lam, q), q, 3)
    levels, start = word_levels(bent)
    assert (start, len(levels)) == (1, 2)
    for max_len in (1, 5, 40):
        got = monoid.arithmetic_discrepancies(bent, max_len)
        assert got == arithmetic_discrepancies_per_length(bent, max_len)
        assert sum(b.claim == "product-grading" for b in got) >= max_len ** 2


SYM3 = sorted(permutations(range(3)))


def test_check_matches_nested_loops_on_sym3_cubed():
    firsts = set()
    for rows in product(SYM3, repeat=3):
        m = rmap_from_lambda(rows)
        candidates = [m]
        for x, y in product(range(3), repeat=2):
            rho = [list(r) for r in m.rho]
            rho[x][y] = (rho[x][y] + 1) % 3
            candidates.append(RMap(3, m.lam, rho))
        for c in candidates:
            got = check(c)
            assert got == check_nested_loops(c)
            firsts.add(got.first_counterexample and got.first_counterexample[0])
    assert firsts == {None, "ybe1", "ybe2", "ybe3", "idempotent"}


def test_check_matches_nested_loops_on_corrupted_census5(census5):
    # one entry of lam or rho changed in a labelled n = 5 solution
    rng = random.Random(5)
    sols = [s for s in census5 if s.n == 5]
    firsts = set()
    for _ in range(2000):
        s = rng.choice(sols)
        tables = [list(map(list, s.lam)), list(map(list, s.rho))]
        row = rng.choice(tables)[rng.randrange(5)]
        y = rng.randrange(5)
        row[y] = (row[y] + rng.randrange(1, 5)) % 5
        m = RMap(5, *tables)
        got = check(m)
        assert got == check_nested_loops(m)
        firsts.add(got.first_counterexample[0])
    assert {"ybe1", "ybe2", "ybe3", "idempotent"} <= firsts


def test_check_shares_one_report_among_valid_tables(census5):
    # the report is frozen, so every valid table can get the same object
    assert ALL_VALID == check_nested_loops(census5[-1]) and ALL_VALID.ok
    for s in census5:
        assert check(s) is ALL_VALID
        assert check(RMap(s.n, s.lam, s.rho)) is ALL_VALID


def test_check_and_fineq_match_nested_loops_on_census4(census4):
    for s in census4:
        assert check(s) == check_nested_loops(s)
        dsc = descriptor(s)
        assert check_fineq(dsc) == check_fineq_nested_loops(dsc)


def first_failures(holds, names, arity, n):
    """{name: first failing point} of each identity, by the nested loop."""
    firsts = {}
    for name in names:
        for p in product(range(n), repeat=arity):
            if not holds(name, p):
                firsts[name] = p
                break
    return firsts


# Tables on 3 points found by a search: the named identity fails only at
# the last point (2, 2, 2), and the other two Yang-Baxter identities hold.
LAST_POINT_RMAPS = {
    "ybe1": (((0, 1, 0), (0, 1, 0), (2, 2, 0)), ((0, 1, 2),) * 3),
    "ybe2": (((0, 1, 2), (1, 0, 2), (2, 2, 2)),
             ((0, 0, 0), (0, 0, 0), (0, 1, 1))),
    "ybe3": (((0, 1, 2),) * 3, ((0, 0, 0), (1, 1, 0), (2, 2, 1))),
}


@pytest.mark.parametrize("name", ["ybe1", "ybe2", "ybe3"])
def test_check_finds_a_failure_at_the_last_point(name):
    m = RMap(3, *LAST_POINT_RMAPS[name])
    assert [p for p in product(range(3), repeat=3)
            if not identity_holds(m, name, p)] == [(2, 2, 2)]
    report = check(m)
    assert report == check_nested_loops(m)
    assert report.first_counterexample == (name, (2, 2, 2))


@pytest.mark.parametrize("lam, rho", [
    (((0, 0), (0, 1)), ((1, 1), (0, 0))),
    (((0, 1, 0), (0, 1, 0), (0, 1, 2)), ((0, 1, 1),) * 3),
], ids=["n2", "n3"])
def test_check_scans_on_after_ybe2_fails_first(lam, rho):
    m = RMap(len(lam), lam, rho)
    firsts = first_failures(partial(identity_holds, m),
                            ("ybe1", "ybe2"), 3, m.n)
    assert firsts["ybe2"] < firsts["ybe1"] == (m.n - 1,) * 3
    report = check(m)
    assert report == check_nested_loops(m)
    assert report.first_counterexample == ("ybe1", firsts["ybe1"])


# Descriptors on 3 points found by a search: the named identity fails only
# at the last point; in "fineq2-first" fineq2 fails before fineq1.
LAST_POINT_DESCRIPTORS = {
    "fineq1": (((0, 1, 0), (0, 1, 0), (0, 1, 2)), (0, 1, 0),
               ((0, 1, 0), (0, 1, 0), (0, 1, 2))),
    "fineq2": (((0, 1, 1), (0, 1, 2), (0, 1, 0)), (0, 1, 0),
               ((0, 1, 2),) * 3),
    "fineq3": (((0, 1, 0), (0, 1, 0), (1, 0, 2)), (0, 1, 0),
               ((0, 1, 0), (0, 1, 0), (1, 0, 2))),
    "fineq2-first": (((0, 1, 0), (1, 0, 0), (0, 1, 2)), (0, 0, 1),
                     ((0, 1, 0), (0, 1, 0), (0, 1, 2))),
}


@pytest.mark.parametrize("name", ["fineq1", "fineq2", "fineq3"])
def test_check_fineq_finds_a_failure_at_the_last_point(name):
    dsc = Descriptor(3, *LAST_POINT_DESCRIPTORS[name])
    assert [p for p in product(range(3), repeat=3)
            if not fineq_holds(dsc, name, p)] == [(2, 2, 2)]
    report = check_fineq(dsc)
    assert report == check_fineq_nested_loops(dsc)
    assert (name, (2, 2, 2)) in report.counterexamples


def test_check_fineq_scans_on_after_fineq2_fails_first():
    dsc = Descriptor(3, *LAST_POINT_DESCRIPTORS["fineq2-first"])
    firsts = first_failures(partial(fineq_holds, dsc),
                            ("fineq1", "fineq2"), 3, 3)
    assert firsts["fineq2"] < firsts["fineq1"] == (2, 2, 2)
    report = check_fineq(dsc)
    assert report == check_fineq_nested_loops(dsc)
    assert report.counterexamples[:2] == (("fineq1", (2, 2, 2)),
                                          ("fineq2", firsts["fineq2"]))


def test_check_and_fineq_match_nested_loops_on_every_small_table():
    firsts = set()
    for n in (1, 2):
        table = list(product(product(range(n), repeat=n), repeat=n))
        for lam, rho in product(table, repeat=2):
            m = RMap(n, lam, rho)
            got = check(m)
            assert got == check_nested_loops(m)
            firsts.add(got.first_counterexample)
        for op, phi in product(table, repeat=2):
            for q in product(range(n), repeat=n):
                dsc = Descriptor(n, op, q, phi)
                assert check_fineq(dsc) == check_fineq_nested_loops(dsc)
    assert {f[0] for f in firsts if f} == set(IDENTITY_NAMES)


def nullspace_fractions(rows, unknowns):
    """Basis of the rational nullspace, eliminated in Fractions."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(unknowns):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(unknowns) if c not in pivots]
    basis = []
    for c in free:
        vec = [Fraction(0)] * unknowns
        vec[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][c]
        basis.append(tuple(vec))
    return basis


def center_basis_all_rows(s, deg):
    n = s.n
    lam_deg = [lambda_word(s, x, deg) for x in range(n)]
    rows = []
    for g in range(n):
        for w in range(n):
            row = [(1 if lam_deg[x][g] == w else 0) - (1 if s.lam[g][x] == w else 0)
                   for x in range(n)]
            if any(row):
                rows.append(row)
    if not rows:
        rows = [[0] * n]
    return nullspace_fractions(rows, n)


def test_center_basis_matches_all_rows_on_census4(census4):
    for s in census4:
        for deg in (1, 2, s.d, s.d + 1):
            assert center_basis(s, deg) == center_basis_all_rows(s, deg)


@pytest.mark.parametrize("family", [0, 1, 2], ids=["zn-neg", "cycle", "identity"])
def test_center_basis_matches_all_rows_on_families(family):
    for n in (8, 16):
        s = solution_from_lambda(families(n)[family])
        for deg in sorted({1, 3, s.d, s.d + 1}):
            assert center_basis(s, deg) == center_basis_all_rows(s, deg)


@pytest.mark.parametrize("n", [8, 16, 24])
@pytest.mark.parametrize("family", [0, 1, 2], ids=["zn-neg", "cycle", "identity"])
def test_nullspace_matches_fractions_on_center_rows(family, n):
    # the indicator basis against the Fraction elimination of every
    # equation row, on the benchmark's sizes
    s = solution_from_lambda(families(n)[family])
    for deg in sorted({1, s.d, s.d + 1}):
        assert center_basis(s, deg) == center_basis_all_rows(s, deg)


def test_center_basis_matches_all_rows_on_bent_records(census5):
    # 1,000 records with one q entry or lam row bent and 500 with random
    # permutation rows and a random q: their point maps have points off
    # their cycles, and cycles that join only some classes
    rng = random.Random(35)
    records = [bent_record(rng, rng.choice(census5)) for _ in range(1000)]
    for _ in range(500):
        n = rng.randint(1, 7)
        lam = tuple(tuple(rng.sample(range(n), n)) for _ in range(n))
        q = tuple(rng.randrange(n) for _ in range(n))
        records.append(Solution(n, lam, forced_rho(lam, q), q,
                                exponent(set(lam))))
    partial = Counter()
    for s in records:
        for deg in sorted({1, 2, s.d, s.d + 1}):
            basis = center_basis(s, deg)
            assert basis == center_basis_all_rows(s, deg)
            assert all(type(v) is Fraction for vec in basis for v in vec)
            partial[0 < len(basis) < s.n] += 1
    assert partial[True] > 0 and partial[False] > 0


def _row(n):
    return st.tuples(*[st.integers(0, n - 1)] * n)


def repeated_row_descriptor(rng):
    """A descriptor on n <= 5 points whose op rows come from a pool of at
    most three rows, mostly permutations, and whose phi_x are one of at
    most two permutations."""
    n = rng.randint(1, 5)
    pool = [tuple(rng.sample(range(n), n)) if rng.random() < 0.7 else
            tuple(rng.randrange(n) for _ in range(n))
            for _ in range(rng.randint(1, 3))]
    perms = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 2))]
    return Descriptor(n, tuple(rng.choice(pool) for _ in range(n)),
                      tuple(rng.randrange(n) for _ in range(n)),
                      tuple(rng.choice(perms) for _ in range(n)))


def test_repeated_row_scans_match_nested_loops(monkeypatch):
    # the scans skip each x whose kernel inputs repeat a smaller x's; the
    # first failure of each identity must still be the nested loop's, also
    # where op rows repeat but phi does not; semigroup() reads the table
    # of a stand-in record
    monkeypatch.setattr(invariants, "word_level", lambda s, k: (s.op, s.q))
    rng = random.Random(34)
    seen = Counter()
    for _ in range(2000):
        dsc = repeated_row_descriptor(rng)
        report = check_fineq(dsc)
        assert report == check_fineq_nested_loops(dsc)
        assert descriptor_diagnostics(dsc) == \
            descriptor_diagnostics_nested_loops(dsc)
        first = [p for p in product(range(dsc.n), repeat=3)
                 if not associative_at(dsc.op, p)][:1]
        record = SimpleNamespace(n=dsc.n, d=1, q=dsc.q, op=dsc.op)
        assert [b.counterexample for b in semigroup(record).discrepancies
                if b.claim == "semigroup-associativity"] == first
        seen["fineq"] += not report.ok
        seen["later x"] += any(p[0] > 0 for _, p in report.counterexamples)
        seen["associativity"] += bool(first)
    assert seen["fineq"] > 1000 and seen["associativity"] > 1000
    assert seen["later x"] > 20


@pytest.mark.parametrize("rows, prefixes", [
    ([tuple((y + 1) % 24 for y in range(24))] * 24, 24),
    ([tuple((x - y) % 24 for y in range(24)) for x in range(24)], 576),
], ids=["24-cycle", "z24-neg"])
def test_ternary_scans_run_one_row_per_distinct_input(monkeypatch, rows,
                                                      prefixes):
    # the 24-cycle's semigroup table has one distinct row and one phi, so
    # each scan runs its kernel for x = 0 alone; Z_24 with x -> -x has 24
    # distinct rows
    calls = []
    scan = invariants.failures

    def counted(kernel, arity, n, keys=None):
        calls.append(0)

        def row(*prefix):
            calls[-1] += 1
            return kernel(*prefix)
        return scan(row, arity, n, keys)
    monkeypatch.setattr(invariants, "failures", counted)
    s = solution_from_lambda(rows)
    sg = semigroup(s)
    assert calls[0] == prefixes
    dsc = Descriptor(s.n, sg.op, s.q, phi_maps(s, sg)[0])
    calls.clear()
    assert check_fineq(dsc).ok and calls[0] == prefixes


def _table(n):
    return st.tuples(*[_row(n)] * n)


@st.composite
def rmaps(draw):
    n = draw(st.integers(1, 4))
    return RMap(n, draw(_table(n)), draw(_table(n)))


@st.composite
def descriptors(draw):
    # phi rows: arbitrary, all equal, or all equal to one permutation
    n = draw(st.integers(1, 4))
    phi = draw(st.one_of(
        _table(n),
        _row(n).map(lambda row: (row,) * n),
        st.permutations(range(n)).map(lambda row: (tuple(row),) * n)))
    return Descriptor(n, draw(_table(n)), draw(_row(n)), phi)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rmaps())
def test_check_matches_nested_loops_on_random_rmaps(m):
    assert check(m) == check_nested_loops(m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(descriptors())
def test_descriptor_scans_match_nested_loops(dsc):
    assert check_fineq(dsc) == check_fineq_nested_loops(dsc)
    assert descriptor_diagnostics(dsc) == descriptor_diagnostics_nested_loops(dsc)


def dropped_semigroup_scans(s):
    """The semigroup claims that semigroup() derives from associativity,
    left cancellativity, the left identities and component membership."""
    n = s.n
    rng = range(n)
    image = diagonal_image(s)
    op, ends = word_level(s, s.d)
    bad = []

    idem = tuple(x for x in rng if op[x][x] == x)
    if idem != image:
        bad.append(Discrepancy("idempotents-equal-diagonal", idem, image))

    parts = {u: tuple(x for x in rng if ends[x] == u) for u in image}
    sizes = {len(xs) for xs in parts.values()}
    covered = sorted(x for xs in parts.values() for x in xs)
    if covered != list(rng) or len(sizes) != 1:
        bad.append(Discrepancy("equal-size-component-cover",
                               tuple(covered), tuple(sorted(sizes))))
    for u, xs in parts.items():
        bad.extend(Discrepancy("component-closed", (u, x, y))
                   for x, y in product(xs, repeat=2) if op[x][y] not in xs)

    base = image[0]
    coords = {x: (op[x][base], ends[x]) for x in rng}
    if len(set(coords.values())) != n:
        bad.append(Discrepancy("rees-coordinates-bijective", tuple(sorted(coords))))
    if n != len(image) * len(parts[base]):
        bad.append(Discrepancy("size-product", (n, len(image), len(parts[base]))))

    def rees_multiplies(points):
        x, y = points
        gx, _ = coords[x]
        gy, uy = coords[y]
        return coords[op[x][y]] == (op[gx][gy], uy)

    bad.extend(Discrepancy("rees-multiplication", p)
               for p in product(rng, repeat=2) if not rees_multiplies(p))
    return bad


def dropped_structure_scans(s):
    """The semigroup, torsion and round-trip scans that structure() no
    longer runs: the derived semigroup claims above, closure, the group
    axioms and lam_x = x . lam_u on each X_u, the isomorphisms x -> x . v
    between every pair of torsion groups, then the table lam = x . phi_x(y)
    against that of s.  Where u lies outside X_u (these scans raised
    there), the identity axiom fails.  The round trip rho = q . lam is left
    out: structure() never reads rho, and the full verifier covers it
    (test_stale_rho_is_rejected_by_the_full_verifier).
    """
    sg = semigroup(s)
    bad = [(b.claim,) + b.counterexample for b in dropped_semigroup_scans(s)]
    for u, xs in sg.xu_dict().items():
        index = {x: i for i, x in enumerate(xs)}
        table = tuple(tuple(sg.op[x][y] for y in xs) for x in xs)
        open_at = [("torsion-closed", u, xs[i], xs[j])
                   for i, j in product(range(len(xs)), repeat=2)
                   if table[i][j] not in index]
        bad.extend(open_at)
        if not open_at:
            local = tuple(tuple(index[v] for v in row) for row in table)
            bad.extend(("torsion-associative", u, xs[i], xs[j], xs[k])
                       for i, j, k in product(range(len(xs)), repeat=3)
                       if local[local[i][j]][k] != local[i][local[j][k]])
            ui = index.get(u)
            if ui is None or \
               any(table[ui][j] != y for j, y in enumerate(xs)) or \
               any(table[i][ui] != x for i, x in enumerate(xs)):
                bad.append(("torsion-identity", u))
            for i, x in enumerate(xs):
                if u not in (table[i][j] for j in range(len(xs))):
                    bad.append(("torsion-inverses", u, x))
        for x in xs:
            if s.lam[x] != compose(sg.op[x], s.lam[u]):
                bad.append(("lambda-factorisation", u, x))
        for v in sg.xu_dict():
            bad.extend((b.claim,) + b.counterexample
                       for b in torsion_iso(sg, u, v)[1])

    phi = {x: s.lam[u] for x, _, u in sg.rees_coords}
    for x, y in product(range(s.n), repeat=2):
        if sg.op[x][phi[x][y]] != s.lam[x][y]:
            bad.append(("roundtrip-lambda", x, y))
    return bad


@pytest.fixture(scope="module")
def census_to4():
    return [s for n in range(1, 5)
            for s in enumerate_solutions(EnumOptions(n)).solutions]


def perturbed(data, census):
    """One perturbation of a census solution: a lam row, a q entry or d."""
    s = data.draw(st.sampled_from(census))
    n = s.n
    lam, q, d = list(s.lam), list(s.q), s.d
    kind = data.draw(st.sampled_from(["lam", "q", "d"]))
    if kind == "lam":
        lam[data.draw(st.integers(0, n - 1))] = data.draw(st.one_of(
            st.permutations(range(n)).map(tuple), _row(n)))
    elif kind == "q":
        q[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
    else:
        d = data.draw(st.integers(1, 6))
    return Solution(n, tuple(lam), s.rho, tuple(q), d)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_dropped_structure_scans_imply_a_discrepancy(census_to4, data):
    bent = perturbed(data, census_to4)
    found = structure(bent).discrepancies
    if dropped_structure_scans(bent):
        assert found


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_section_kernels_match_per_point_scans(census_to4, data):
    s = perturbed(data, census_to4)
    rng = range(s.n)
    sg = semigroup(s)
    op = sg.op
    phi, bad = phi_maps(s, sg)
    assert [b.counterexample for b in bad] == [
        (x, y) for x, y in product(rng, repeat=2)
        if s.lam[x][y] != op[x][phi[x][y]]]
    assert [b.counterexample for b in sigma_discrepancies(s)] == [
        (y, x, sigma(s, y, x)) for y, x in product(rng, repeat=2)
        if sigma(s, y, x) != y]
    parts = sg.xu_dict()
    for u, v in product(parts, repeat=2):
        f = [row[v] for row in op]
        want = [(u, v, x, y) for x, y in product(parts[u], repeat=2)
                if not homomorphic_at(f, op, (x, y))]
        assert [b.counterexample for b in torsion_iso(sg, u, v)[1]
                if b.claim == "torsion-iso-homomorphism"] == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    _table(n), _row(n), st.lists(st.integers(0, n - 1), max_size=n))))
def test_table_kernels_match_per_point_predicates(table_map_points):
    op, f, points = table_map_points
    n = len(op)
    assert list(failures(associativity(op), 3, n)) == [
        (0, p) for p in product(range(n), repeat=3)
        if not associative_at(op, p)]
    # the homomorphism scan runs on indices into the listed points
    for pts in (range(n), points):
        assert list(failures(homomorphism(f, op, pts), 2, len(pts))) == [
            (0, (i, j)) for i, j in product(range(len(pts)), repeat=2)
            if not homomorphic_at(f, op, (pts[i], pts[j]))]


def test_stale_rho_is_rejected_by_the_full_verifier():
    # a new lam row that makes lam another solution keeps the stale rho of
    # the census record: rho != q . lam, which structure() cannot see, but
    # the record fails as a map
    bent = Solution(2, ((0, 1), (1, 0)), ((0, 1), (0, 1)), (0, 0), 2)
    assert any(bent.q[bent.lam[x][y]] != bent.rho[x][y]
               for x, y in product(range(2), repeat=2))
    assert structure(bent).discrepancies == ()
    assert check(bent).first_counterexample == ("ybe1", (0, 1, 0))


@pytest.mark.parametrize("claim, bent", [
    ("semigroup-associativity",
     Solution(3, ((1, 0, 2), (1, 0, 2), (1, 2, 0)),
              ((0, 1, 2), (0, 1, 2), (0, 1, 2)), (1, 0, 1), 4)),
    ("semigroup-left-cancellative",
     Solution(2, ((0, 0), (0, 1)), ((1, 1), (1, 1)), (1, 1), 5)),
    ("left-identities-equal-diagonal",
     Solution(3, ((2, 0, 1), (0, 1, 2), (2, 0, 1)),
              ((0, 1, 2), (0, 1, 2), (0, 1, 2)), (1, 1, 0), 3)),
    ("component-membership",
     Solution(4, ((3, 0, 1, 2), (2, 1, 0, 3), (0, 3, 2, 1), (0, 3, 2, 1)),
              ((1, 1, 1, 1),) * 4, (1, 0, 1, 1), 4)),
], ids=["A", "L", "I", "M"])
def test_each_kept_semigroup_check_is_needed(claim, bent):
    # perturbed census records on which this is the only semigroup check
    # that fails while a derived claim fails too: without it, semigroup()
    # would report nothing
    assert {b.claim for b in semigroup(bent).discrepancies} == {claim}
    assert dropped_semigroup_scans(bent)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_conjugation_action_reports_on_perturbed_records(census_to4, data):
    # a broken record may move the conjugates off X_u or leave X_u open;
    # both are reported, never raised
    bent = perturbed(data, census_to4)
    for u in diagonal_image(bent):
        assert conjugation_action(bent, u).u == u


def test_conjugation_action_pinned_on_census4(census_to4):
    # digest of the actions before broken records were reported
    acts = tuple(conjugation_action(s, u)
                 for s in census_to4 for u in diagonal_image(s))
    assert not any(a.discrepancies for a in acts)
    assert hashlib.sha256(repr(acts).encode()).hexdigest() == \
        "0320166c066aa60aff6d1b253f974d9009c0a8aacfb27022f3d7f1589d859b5d"


Z5 = [[(x + y) % 5 for y in range(5)] for x in range(5)]


@pytest.mark.parametrize("build, message", [
    (lambda: from_group_automorphism([[0, 1], [0, 0]], [0, 1]),
     "associativity fails at (1, 0, 1)"),
    (lambda: from_group_automorphism(Z5, [0, 1, 2, 4, 3]),
     "phi is not a homomorphism at (1, 2)"),
    (lambda: from_rees_example(Z5, 2, [0], {"1": 0}, [0, 1, 2, 4, 3], [0, 1]),
     "f is not a homomorphism at (1, 2)"),
], ids=["non-associative", "phi-not-homomorphic", "rees-f-not-homomorphic"])
def test_group_construction_error_texts(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def flatten(table):
    return tuple(v for row in table for v in row)


def relabel_lambda(lam, psi):
    """Conjugated table: row psi(x) maps psi(y) to psi(lam[x][y])."""
    back = inverse(psi)
    return tuple(tuple(map(psi.__getitem__, map(lam[x].__getitem__, back)))
                 for x in back)


def canonical_table_all_relabelings(table):
    """The minimal flattened relabeling and the relabelings that reach it."""
    flats = {psi: flatten(relabel_lambda(table, psi))
             for psi in permutations(range(len(table)))}
    form = min(flats.values())
    return form, [psi for psi, flat in flats.items() if flat == form]


def assert_matches_all_relabelings(table):
    form, psi, aut = canonical_table(table)
    want, optimal = canonical_table_all_relabelings(table)
    assert form == want
    assert aut == len(optimal)
    assert psi in optimal


def assert_iso_witness(s1, s2):
    psi = iso_check(s1, s2)
    assert psi is not None
    assert relabel_lambda(s1.lam, psi) == s2.lam


@pytest.fixture(scope="module")
def census5():
    return [s for n in range(1, 6)
            for s in enumerate_solutions(EnumOptions(n)).solutions]


def test_canonical_table_matches_all_relabelings_on_census5(census5):
    assert len(census5) == 377
    for s in census5:
        assert_matches_all_relabelings(s.lam)


def test_relabelings_carry_the_derived_q_and_d(census5):
    # the labelled census transports q and d from each class
    # representative; here they are derived again from lam alone
    for s in census5:
        assert s.q == diagonal_map(s.lam)
        assert s.d == exponent(set(s.lam))
        assert s == promote(RMap(s.n, s.lam, s.rho))


def members_by_all_relabelings(rep):
    """The labelled members of a class: all n! relabelings of its
    representative, deduplicated, with q derived from each table."""
    n = rep.n
    tables = {relabel_lambda(rep.lam, psi) for psi in permutations(range(n))}
    assert len(tables) * canonical_table(rep.lam)[2] == factorial(n)
    # d is a conjugation invariant
    return {Solution(n, lam, forced_rho(lam, q), q, rep.d)
            for lam in tables for q in [diagonal_map(lam)]}


def test_class_members_match_all_relabelings():
    # every class with n <= 6; those whose Aut is not normal in Sym(n),
    # such as constant rows of a transposition, tell psi a from a psi
    for n in range(1, 7):
        for rep in enumerate_solutions(EnumOptions(n, up_to_iso=True)).solutions:
            members = search._class_members(rep, canonical_table(rep.lam)[2])
            assert len(set(members)) == len(members)
            assert set(members) == members_by_all_relabelings(rep)


def test_class_members_at_seven_points_need_no_sym_table(monkeypatch):
    # the orbit is grown from two generators of Sym(7), so the composition
    # table of the row search, 5040 x 5040 ids, is never built
    def no_table(n):
        raise AssertionError("_sym_index was built")

    monkeypatch.setattr(search, "_sym_index", no_table)
    z7 = [[(x + y) % 7 for y in range(7)] for x in range(7)]
    for rep, size in [
            (from_permutation((1, 2, 3, 4, 5, 6, 0)), 720),
            (from_permutation((1, 0, 2, 3, 4, 5, 6)), 21),
            (from_group_automorphism(z7, [3 * y % 7 for y in range(7)]), 840)]:
        members = search._class_members(rep, factorial(7) // size)
        assert len(members) == size
        assert set(members) == members_by_all_relabelings(rep)


def test_orbit_minima_at_seven_points_need_no_sym_table(monkeypatch):
    # with --jobs > 1 the main process only lists the slices, so the keys
    # and masks read Sym(7) without the 5040 x 5040 composition table
    def no_table(n):
        raise AssertionError("_sym_index was built")

    monkeypatch.setattr(search, "_sym_index", no_table)
    _row_bounds.cache_clear()
    minima, groups = _row_bounds(7)
    assert len(minima) == 30 and minima[0] == tuple(range(7))
    for group in groups:
        assert len(group) == 30
        # disjoint: the popcounts add up without a carry
        assert sum(mask for _, mask in group) == (1 << 5040) - 1
        assert sum(bin(mask).count("1") for _, mask in group) == 5040


def test_iso_check_matches_forms_on_census3(census5):
    sols = [s for s in census5 if s.n <= 3]
    for s1 in sols:
        for s2 in sols:
            if s1.n != s2.n:
                continue
            same = (canonical_table_all_relabelings(s1.lam)[0]
                    == canonical_table_all_relabelings(s2.lam)[0])
            if same:
                assert_iso_witness(s1, s2)
            else:
                assert iso_check(s1, s2) is None


def _complete_tuple(rows):
    """Full verification of a finished lam tuple; None when it fails."""
    try:
        return solution_from_lambda(rows)
    except InvalidSolutionError:
        return None


def brute_force_solutions(n):
    """Unpruned oracle: verify every lam tuple in Sym(n)^n."""
    out = []
    for rows in product(sorted(permutations(range(n))), repeat=n):
        sol = _complete_tuple(rows)
        if sol is not None:
            out.append(sol)
    out.sort(key=lambda s: (canonical_form(s), s.lam))
    return out


def ybe_ok_unpinned(ids, tables):
    """YBE1 at every quadruple (x, y, w, u) whose last row is
    j = len(ids) - 1, with w = lam_x(y) and u = q(w)."""
    perms, comp, inv, _, _ = tables
    j = len(ids) - 1

    def holds(x, y):
        ix = ids[x]
        w = perms[ix][y]
        if w > j:
            return True
        iw = ids[w]
        u = inv[iw][w]
        return u > j or comp[ix][ids[y]] == comp[iw][ids[u]]

    for k in range(j + 1):
        if not (holds(j, k) and holds(k, j)):
            return False
    # x, y < j: the quadruple reaches row j through w = j or u = q(w) = j
    for w in range(j + 1):
        if w == j or inv[ids[w]][w] == j:
            for x in range(j):
                y = inv[ids[x]][w]
                if y < j and not holds(x, y):
                    return False
    return True


def diagonal_of(ids, tables):
    """q(w) = lam_w^-1(w) of the assigned rows, derived from ``ids``."""
    return [tables[2][a][w] for w, a in enumerate(ids)]


def quadruples_below_hold(ids, a, t, tables):
    """YBE1 at the quadruples over rows 0..j-1 (j = len(ids)) and row t,
    holding id a, that reach row t as y or as u and whose x and w lie below
    j: the ones ``_pin(ids, tables, t)`` is to decide."""
    perms, comp, inv, _, _ = tables
    j = len(ids)
    rows = dict(enumerate(ids))
    rows[t] = a
    for x in range(j):
        for y in rows:
            w = perms[ids[x]][y]
            if w < j:
                u = inv[ids[w]][w]
                if t in (y, u) and u in rows and \
                        comp[ids[x]][rows[y]] != comp[ids[w]][rows[u]]:
                    return False
    return True


@lru_cache(maxsize=None)
def search_slice_unpinned(n, first):
    """The row search with no pin: every compatible candidate for row j is
    tested on every YBE1 quadruple peaking at j, and every leaf is
    verified.  Returns ([(form, solution, |Aut|), ...], complete) and the
    number of nodes below a leaf that tried candidates."""
    tables = _sym_index(n)
    perms, compat = tables[0], tables[4]
    ids = [perms.index(first)]
    found = []
    inner = 0

    def walk(domain):
        nonlocal inner
        if len(ids) == n:
            sol = _complete_tuple(tuple(perms[a] for a in ids))
            if sol is not None:
                form, _, aut = canonical_table(sol.lam)
                found.append((form, sol, aut))
            return
        inner += 1
        for a in range(len(perms)):
            if domain >> a & 1:
                ids.append(a)
                if ybe_ok_unpinned(ids, tables):
                    walk(domain & compat[a])
                ids.pop()

    walk(compat[ids[0]])
    return (found, True), inner


@lru_cache(maxsize=None)
def relabeled_row_minimum(p, x):
    """The smallest lam_0 that a relabeling psi with psi(x) = 0 makes of
    row p at x: min over psi in Stab(0) of psi (tau p tau) psi^-1, with
    tau the transposition of 0 and x."""
    n = len(p)
    tau = list(range(n))
    tau[0], tau[x] = x, 0
    r = compose(compose(tau, p), tau)
    # psi r psi^-1 sends psi(y) to psi(r(y))
    return min(tuple(psi[r[psi.index(z)]] for z in range(n))
               for psi in permutations(range(n)) if psi[0] == 0)


def relabeling_bound_holds(lam):
    """No relabeling that moves some point to 0 makes lam_0 smaller."""
    return all(relabeled_row_minimum(p, x) >= lam[0]
               for x, p in enumerate(lam))


# inner nodes entered and _pin calls of the look-ahead walk over all n!
# slices, for n = 1..5; only the orbit-minimum slices are walked.  The
# unpinned walk enters 0, 2, 20, 364 and 17,952 inner nodes
LOOK_AHEAD_TOTALS = {1: (0, 0), 2: (2, 2), 3: (10, 16), 4: (65, 121),
                     5: (125, 778)}


@pytest.mark.parametrize("n", range(1, 6))
def test_search_slice_matches_unpinned_walk(monkeypatch, n):
    # every lam_0, not only the orbit minima: 1 + 2 + 6 + 24 + 120 slices,
    # against the unpinned walk's solutions that pass the relabeling bound
    # (none when lam_0 is not an orbit minimum).  The look-ahead enters an
    # inner node once the pin of its last row, which it computes last,
    # leaves candidates in the node's domain within that row's bound.
    tables = _sym_index(n)
    perms, compat = tables[0], tables[4]
    # the ids the bound keeps for the last row, by lam_0
    last = {first: sum(1 << a for a, p in enumerate(perms)
                       if relabeled_row_minimum(p, n - 1) >= first)
            for first in perms}
    entered = Counter()
    pins = 0

    def counted(ids, q, tables, t):
        nonlocal pins
        pins += 1
        assert q == diagonal_of(ids, tables)
        mask = _pin(ids, q, tables, t)
        left = mask & last[perms[ids[0]]]
        for a in ids:
            left &= compat[a]
        if t == n - 1 and left:
            entered[ids[0]] += 1
        return mask

    monkeypatch.setattr(search, "_pin", counted)
    for first in perms:
        (found, complete), inner = search_slice_unpinned(n, first)
        want = [(form, aut, s.lam) for form, s, aut in found
                if relabeling_bound_holds(s.lam)]
        assert _search_slice(n, first) == (want, complete)
        assert entered[perms.index(first)] <= inner
    assert (sum(entered.values()), pins) == LOOK_AHEAD_TOTALS[n]


def _bits(mask, size):
    return {a for a in range(size) if mask >> a & 1}


def _kind(mask):
    return "open" if mask == -1 else "empty" if mask == 0 else "pinned"


def test_pin_keeps_every_candidate_the_unpinned_check_accepts():
    # prefixes that pass the fixed-point filter, as every walk prefix does:
    # rows drawn at random from the filter's domain, or grown one row at a
    # time among the candidates the unpinned walk keeps
    rng = random.Random(19)
    seen = Counter()
    for n in (4, 5, 6):
        tables = _sym_index(n)
        size, compat = len(tables[0]), tables[4]
        for trial in range(100):
            depth = rng.randrange(1, n)
            ids = [rng.randrange(size)]
            while len(ids) < depth:
                domain = -1
                for a in ids:
                    domain &= compat[a]
                kept = sorted(a for a in _bits(domain, size) if trial % 2 or
                              ybe_ok_unpinned(ids + [a], tables))
                if not kept:
                    break
                ids.append(rng.choice(kept))
            q = diagonal_of(ids, tables)
            mask = _pin(ids, q, tables, len(ids))
            accepted = {a for a in range(size)
                        if ybe_ok_unpinned(ids + [a], tables)}
            assert mask == -1 or len(_bits(mask, size)) <= 1
            assert accepted <= _bits(mask, size)
            if mask == 0:
                assert not accepted
            # the pin is exact on the quadruples it decides, for the next
            # row and for every later one, so a look-ahead cut on a later
            # row's pin never loses a completion
            for t in range(len(ids), n):
                later = _pin(ids, q, tables, t)
                assert _bits(later, size) == {
                    a for a in range(size)
                    if quadruples_below_hold(ids, a, t, tables)}
                if t > len(ids):
                    seen[_kind(later), "later"] += 1
            seen[_kind(mask), bool(accepted)] += 1
    assert {("open", True), ("empty", False), ("pinned", True),
            ("pinned", False), ("open", "later"), ("empty", "later"),
            ("pinned", "later")} <= set(seen)


@lru_cache(maxsize=None)
def all_slices_census(n, up_to_iso=False):
    """The unpinned row search on every choice of lam_0, sorted by
    (form, lam); up to iso, the first solution of each class is kept."""
    keyed = []
    for first in permutations(range(n)):
        (found, complete), _ = search_slice_unpinned(n, first)
        assert complete
        keyed.extend(found)
    keyed.sort(key=lambda cs: (cs[0], cs[1].lam))
    if up_to_iso:
        keyed = [cs for i, cs in enumerate(keyed)
                 if i == 0 or cs[0] != keyed[i - 1][0]]
    return EnumResult(tuple(s for _, s, _ in keyed), True,
                      tuple(c for c, _, _ in keyed),
                      tuple(aut for _, _, aut in keyed))


@pytest.mark.parametrize("up_to_iso", [False, True], ids=["labelled", "iso"])
@pytest.mark.parametrize("n", range(1, 6))
def test_enumerate_matches_all_slices_census(n, up_to_iso):
    want = all_slices_census(n, up_to_iso)
    assert enumerate_solutions(EnumOptions(n, up_to_iso=up_to_iso)) == want


def composition_by_hashes(n):
    """comp[a][b] = id of perms[a] . perms[b], one hashed lookup per entry."""
    perms = sorted(permutations(range(n)))
    ids = {p: a for a, p in enumerate(perms)}
    return tuple(tuple(ids[compose(p, r)] for r in perms) for p in perms)


@pytest.mark.parametrize("n", range(1, 7))
def test_sym_index_composition_matches_hash_per_entry(n):
    # n = 1 has no transposition: the identity row is the whole table
    assert _sym_index(n)[1] == composition_by_hashes(n)


def test_sym_index_peak_stays_near_its_tables():
    # rows gathered one at a time: no transposed copy of comp is ever
    # held, so the peak is the returned tables and little more
    tracemalloc.start()
    try:
        tables = _sym_index.__wrapped__(6)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables[1] == _sym_index(6)[1]
    assert peak <= 1.25 * retained


def test_orbit_minima():
    assert [len(_orbit_minima(n)) for n in range(1, 7)] == [1, 2, 4, 7, 12, 19]
    for n in range(1, 6):
        stab = [psi for psi in permutations(range(n)) if psi[0] == 0]
        # psi p psi^-1 sends psi(y) to psi(p(y))
        orbit_mins = {min(tuple(psi[p[psi.index(z)]] for z in range(n))
                          for psi in stab)
                      for p in permutations(range(n))}
        assert _orbit_minima(n) == tuple(sorted(orbit_mins))


def test_row_bounds_match_relabeled_orbit_minima():
    # the keys (cycle type, length of the cycle through x) give the orbit
    # minimum of each row at each point, and each id has one at each point
    for n in range(1, 6):
        perms = sorted(permutations(range(n)))
        minima, groups = _row_bounds(n)
        assert minima == _orbit_minima(n)
        for x, group in enumerate(groups):
            low = {a: m for m, mask in group for a in _bits(mask, len(perms))}
            assert len(low) == len(perms) == sum(
                bin(mask).count("1") for _, mask in group)
            for a, p in enumerate(perms):
                assert perms[low[a]] == relabeled_row_minimum(p, x)


@pytest.mark.parametrize("n", range(1, 6))
def test_smallest_class_member_starts_with_an_orbit_minimum(n):
    # the representatives of the all-slices census are the lam-smallest
    # members of their classes, so no relabeling moving a point to 0 makes
    # their lam_0 smaller: the lemma behind the relabeling bound
    for rep in all_slices_census(n, True).solutions:
        assert rep.lam[0] in _orbit_minima(n)
        assert relabeling_bound_holds(rep.lam)


@pytest.mark.parametrize("n", range(1, 6))
def test_classify_members_match_all_slices_census(n):
    members = Counter(all_slices_census(n).canonical)
    assert [(rec.canonical, rec.members) for rec in classify(n)] == \
        sorted(members.items())


def _partitions(n, largest):
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _cycle_type_rows(parts):
    """Constant rows of one permutation with the given cycle lengths."""
    images, start = [], 0
    for k in parts:
        images.extend(start + (i + 1) % k for i in range(k))
        start += k
    return [tuple(images)] * start


# the classes of the canonical-form benchmark at n = 7: constant rows of
# each cycle type, and lam_x(y) = x + a*y over Z_7 for each unit a
GENERATORS7 = ([_cycle_type_rows(p) for p in _partitions(7, 7)]
               + [[tuple((x + a * y) % 7 for y in range(7)) for x in range(7)]
                  for a in range(1, 7)])


def test_generators7_are_21_classes():
    assert len(GENERATORS7) == 21
    assert len({canonical_table(solution_from_lambda(rows).lam)[0]
                for rows in GENERATORS7}) == 21


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(GENERATORS7), st.permutations(range(7)))
def test_canonical_table_matches_all_relabelings_on_generators7(rows, psi):
    s = solution_from_lambda(rows)
    t = solution_from_lambda(relabel_lambda(s.lam, psi))
    assert_matches_all_relabelings(t.lam)
    assert canonical_table(t.lam)[0] == canonical_table(s.lam)[0]
    assert_iso_witness(s, t)
    assert_iso_witness(t, s)


def centralizer_order(parts):
    """prod_k k^m_k * m_k! for m_k cycles of length k: |C(phi)| in Sym(n)."""
    order = 1
    for k, m in Counter(parts).items():
        order *= k ** m * factorial(m)
    return order


@pytest.mark.parametrize("n", [*range(1, 11), 12])
def test_constant_rows_aut_is_the_centralizer_order(n):
    # relabelings fixing constant rows lam_x = phi are those commuting
    # with phi; every cycle type up to n = 10, the identity at n = 12
    rng = random.Random(n)
    for parts in (_partitions(n, n) if n <= 10 else [(1,) * n]):
        rows = _cycle_type_rows(parts)
        form, psi, aut = canonical_table(rows)
        assert aut == centralizer_order(parts)
        assert flatten(relabel_lambda(rows, psi)) == form
        sigma = list(range(n))
        rng.shuffle(sigma)
        assert canonical_table(relabel_lambda(rows, sigma))[0] == form


@st.composite
def pooled_tables(draw):
    """A table whose row x0 fixes at least two points besides x0.

    Row x0 permutes or maps its other points among themselves, or maps
    them anywhere.  Each other row is the identity, a repeat of an earlier
    row, a permutation, a self-map, or a permutation or self-map fixing
    the fixed points of row x0; such a self-map may send other points onto
    them.
    """
    n = draw(st.integers(3, 6))
    x0 = draw(st.integers(0, n - 1))
    fixed = draw(st.sets(st.sampled_from([y for y in range(n) if y != x0]),
                         min_size=2))
    moved = [y for y in range(n) if y not in fixed]

    def fixing(kind):
        if kind == "permutation":
            images = draw(st.permutations(moved))
        else:
            images = draw(st.lists(st.sampled_from(
                moved if kind == "among" else range(n)),
                min_size=len(moved), max_size=len(moved)))
        row = list(range(n))
        for y, v in zip(moved, images):
            row[y] = v
        return tuple(row)

    rows = {x0: fixing(draw(st.sampled_from(["permutation", "among",
                                             "anywhere"])))}
    for x in range(n):
        if x == x0:
            continue
        kind = draw(st.sampled_from(["identity", "repeat", "permutation",
                                     "self-map", "fixing permutation",
                                     "fixing self-map"]))
        if kind == "identity":
            rows[x] = tuple(range(n))
        elif kind == "repeat":
            rows[x] = draw(st.sampled_from(sorted(rows.values())))
        elif kind == "permutation":
            rows[x] = tuple(draw(st.permutations(range(n))))
        elif kind == "self-map":
            rows[x] = draw(_row(n))
        else:
            rows[x] = fixing("permutation" if kind == "fixing permutation"
                             else "anywhere")
    return tuple(rows[x] for x in range(n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pooled_tables(), st.randoms(use_true_random=False))
def test_canonical_table_matches_all_relabelings_on_pooled_tables(table,
                                                                  rnd):
    # the fixed points of row x0 are pooled once x0 is labelled 0
    assert_matches_all_relabelings(table)
    psi = list(range(len(table)))
    rnd.shuffle(psi)
    other = relabel_lambda(table, psi)
    assert canonical_table(other)[0] == canonical_table(table)[0]


@st.composite
def tables(draw):
    # rows: permutations or arbitrary self-maps
    n = draw(st.integers(1, 6))
    row = st.one_of(st.permutations(range(n)).map(tuple), _row(n))
    return tuple(draw(row) for _ in range(n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tables(), st.randoms(use_true_random=False))
def test_canonical_table_matches_all_relabelings_on_random_tables(table, rnd):
    assert_matches_all_relabelings(table)
    psi = list(range(len(table)))
    rnd.shuffle(psi)
    other = relabel_lambda(table, psi)
    assert canonical_table(other)[0] == canonical_table(table)[0]
    assert_iso_witness(SimpleNamespace(n=len(table), lam=table),
                       SimpleNamespace(n=len(table), lam=other))


def _cycle(start, step):
    out = [start]
    while step(out[-1]) != start:
        out.append(step(out[-1]))
    return out


@st.composite
def symmetric_tables(draw):
    """A table and a permutation g with T[g x][g y] = g T[x][y].

    Each orbit of g on the cells gets one drawn value v, whose g-cycle
    length divides the orbit length, and v, g v, g^2 v, ... along it.
    """
    n = draw(st.integers(1, 6))
    g = tuple(draw(st.permutations(range(n))))
    table = [[None] * n for _ in range(n)]
    for x, y in product(range(n), repeat=2):
        if table[x][y] is None:
            cells = _cycle((x, y), lambda c: (g[c[0]], g[c[1]]))
            v = draw(st.sampled_from(
                [v for v in range(n)
                 if len(cells) % len(_cycle(v, g.__getitem__)) == 0]))
            for a, b in cells:
                table[a][b] = v
                v = g[v]
    return tuple(map(tuple, table)), g


@settings(max_examples=150, deadline=None, derandomize=True)
@given(symmetric_tables(), st.randoms(use_true_random=False))
def test_canonical_table_matches_all_relabelings_on_symmetric_tables(drawn,
                                                                     rnd):
    # random tables seldom have automorphisms; these have g at least
    table, g = drawn
    assert relabel_lambda(table, g) == table
    assert_matches_all_relabelings(table)
    psi = list(range(len(table)))
    rnd.shuffle(psi)
    s1 = SimpleNamespace(n=len(table), lam=table)
    s2 = SimpleNamespace(n=len(table), lam=relabel_lambda(table, psi))
    assert_iso_witness(s1, s2)
    assert_iso_witness(s2, s1)
