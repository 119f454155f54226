"""The growth oracle, the overlap scan and the cancellation scan against
the all-words kernels they replaced.

The helpers below are those earlier kernels, kept as independent oracles:
a union-find over all n^L free words of one length, an overlap scan that
walks every pair of rules, and a right-cancellation scan that also runs
over the length of the cancelled factor.
"""

import random
from types import SimpleNamespace

import pytest

from ybx.core import lambda_word, solution_from_lambda
from ybx.groebner import (RewriteSystem, Rule, check_overlaps, constant_rules,
                          reduce, solution_rules)
from ybx.monoid import MElem, _word_classes, growth, is_cancellative
from ybx.search import EnumOptions, enumerate_solutions


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


def test_word_classes_match_all_words_on_random_maps():
    # on maps that are not solutions the class counts vary with the
    # length, so the level-by-level count is checked beyond "n per degree"
    rng = random.Random(7)

    def table(n):
        return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))

    seen = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        m = SimpleNamespace(n=n, lam=table(n), rho=table(n))
        want = tuple(word_classes_all_words(m, k) for k in range(1, 6))
        assert _word_classes(m, 5) == want
        seen.add(want)
    assert any(len(set(counts)) > 1 for counts in seen)


def _random_system(rng, n):
    words = [(a, b) for a in range(n) for b in range(n)]
    rules = []
    for i, lhs in enumerate(words):
        if i and rng.random() < 0.6:
            rules.append(Rule(lhs, words[rng.randrange(i)]))
    return RewriteSystem(n, tuple(rules))


def test_overlaps_match_all_pairs_scan(census4):
    systems = [constant_rules(8)]
    systems += [solution_rules(s)[0] for s in census4]
    systems += [solution_rules(solution_from_lambda(rows))[0]
                for rows in families(8)]
    rng = random.Random(11)
    systems += [_random_system(rng, n) for n in (2, 3, 4, 5) for _ in range(10)]
    unresolved = 0
    for rs in systems:
        want = overlaps_all_pairs(rs)
        assert check_overlaps(rs) == want
        unresolved += len(want)
    assert unresolved > 0


def test_is_cancellative_matches_all_lengths_scan(census4):
    verdicts = set()
    for s in census4:
        for max_len in (1, 2, 2 * s.d + 1):
            got = is_cancellative(s, max_len)
            assert got == is_cancellative_all_lengths(s, max_len)
            verdicts.add(got[0])
    assert verdicts == {True, False}
