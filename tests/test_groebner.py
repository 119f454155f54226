import pytest

from ybx.fixtures import (ALL_FIXTURES, SOL_PROJ3, SOL_TRIV, SOL_Z2)
from ybx.groebner import (RewriteSystem, Rule, check_overlaps, constant_rules,
                          normal_word_count, reduce, solution_rules)
from ybx.monoid import growth

from itertools import product


def is_normal(rs, word):
    """No rule applies anywhere in the word: the oracle for reduce."""
    rules = rs.rule_map()
    return all((word[i], word[i + 1]) not in rules for i in range(len(word) - 1))


def test_constant_rules_examples():
    rs = constant_rules(2)
    assert {(r.lhs, r.rhs) for r in rs.rules} == \
        {((1, 0), (0, 0)), ((1, 1), (0, 1))}
    assert constant_rules(1).rules == ()
    rs = constant_rules(3)
    assert len(rs.rules) == 6
    assert all(r.rhs[0] == 0 for r in rs.rules)


def test_rule_orientation_enforced():
    with pytest.raises(ValueError):
        RewriteSystem(2, (Rule((0, 0), (1, 0)),))
    with pytest.raises(ValueError):
        RewriteSystem(2, (Rule((1, 0), (0, 0)), Rule((1, 0), (0, 1))))


def test_reduce_examples():
    rs = constant_rules(2)
    assert reduce(rs, (1, 1, 0)) == (0, 0, 0)
    empty = RewriteSystem(3, ())
    for word in [(0,), (2, 1, 0), (1, 1)]:
        assert reduce(empty, word) == word
    rs = constant_rules(3)
    assert reduce(rs, (2, 1)) == (0, 1)


def test_reduce_idempotent_and_normal():
    rs = constant_rules(4)
    for word in product(range(4), repeat=4):
        red = reduce(rs, word)
        assert reduce(rs, red) == red
        assert is_normal(rs, red)


def test_reduce_compatible_with_concatenation():
    # confluent systems: reduce(uv) = reduce(reduce(u) reduce(v))
    rs = constant_rules(3)
    words = list(product(range(3), repeat=2))
    for u in words:
        for v in words:
            assert reduce(rs, u + v) == reduce(rs, reduce(rs, u) + reduce(rs, v))


def test_check_overlaps_examples():
    for n in range(1, 9):
        assert check_overlaps(constant_rules(n)) == []
    toy = RewriteSystem(2, (Rule((1, 0), (0, 1)),))
    assert check_overlaps(toy) == []


def test_check_overlaps_one_letter():
    # every whole map has one entry, which itemgetter returns bare
    assert check_overlaps(constant_rules(1)) == []
    assert check_overlaps(solution_rules(SOL_TRIV)[0]) == []


def test_normal_word_count_examples():
    assert normal_word_count(constant_rules(2), 4) == [2, 2, 2, 2]
    assert normal_word_count(constant_rules(1), 3) == [1, 1, 1]
    assert normal_word_count(constant_rules(3), 3) == [3, 3, 3]
    for n in range(1, 9):
        assert normal_word_count(constant_rules(n), 8) == [n] * 8
    # the counts by last letter repeat from degree 1, so a long bound
    # builds one vector
    assert normal_word_count(constant_rules(32), 10**5) == [32] * 10**5


def test_solution_rules_fixtures():
    rs, rep = solution_rules(SOL_PROJ3)
    assert rep.confluent
    assert {(r.lhs, r.rhs) for r in rs.rules} == \
        {((y, z), (0, z)) for y in (1, 2) for z in range(3)}

    rs, rep = solution_rules(SOL_TRIV)
    assert rs.rules == () and rep.confluent

    rs, rep = solution_rules(SOL_Z2)
    assert rep.confluent
    assert normal_word_count(rs, 6) == [2] * 6


def test_solution_rules_counts_match_growth():
    for s in ALL_FIXTURES.values():
        rs, rep = solution_rules(s)
        if rep.confluent:
            counts = normal_word_count(rs, 6)
            assert tuple(counts) == growth(s, 6).oracle


def test_solution_rules_on_enumerated_solutions():
    # confluent systems must reproduce the growth; word counts to degree 8
    # are checked on one representative per class (growth is relabeling
    # invariant), the full labeled set for the small sizes
    from ybx.search import EnumOptions, enumerate_solutions
    for n in (1, 2, 3):
        for s in enumerate_solutions(EnumOptions(n)).solutions:
            rs, rep = solution_rules(s)
            if rep.confluent:
                counts = normal_word_count(rs, 8)
                assert tuple(counts) == growth(s, 8).oracle
    confluent = 0
    reps = enumerate_solutions(EnumOptions(4, up_to_iso=True)).solutions
    for s in reps:
        rs, rep = solution_rules(s)
        if rep.confluent:
            confluent += 1
            counts = normal_word_count(rs, 8)
            assert tuple(counts) == growth(s, 8).oracle
    assert confluent >= 1

