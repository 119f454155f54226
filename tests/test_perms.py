import random
from itertools import permutations

import pytest

from ybx.perms import (closure, compose, cycles, exponent, identity, inverse,
                       is_perm, order)


def conjugate(p, psi):
    """psi . p . psi^-1."""
    out = [0] * len(p)
    for i in range(len(p)):
        out[psi[i]] = psi[p[i]]
    return tuple(out)


def has_fixed_point(p):
    return any(p[i] == i for i in range(len(p)))


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == tuple(p[q[i]] for i in range(3))


def test_compose_gathers_short_and_list_indices():
    # itemgetter returns the bare item for one index and needs one index
    # at least, so these two lengths take the other branch
    p = [5, 7, 9]
    assert compose(p, ()) == ()
    assert compose(p, [2]) == (9,)
    assert compose(p, [2, 0, 0, 1]) == (9, 5, 5, 7)
    assert compose((1, 2, 0), [0, 2, 1]) == (1, 0, 2)


def test_inverse():
    for p in permutations(range(4)):
        assert compose(p, inverse(p)) == identity(4)
        assert compose(inverse(p), p) == identity(4)


def test_conjugate():
    p = (1, 0, 2)
    psi = (2, 0, 1)
    assert conjugate(p, psi) == compose(psi, compose(p, inverse(psi)))


def test_cycles():
    assert cycles(identity(3)) == [(0,), (1,), (2,)]
    assert cycles((1, 0, 3, 4, 2)) == [(0, 1), (2, 3, 4)]
    assert cycles((2, 0, 1)) == [(0, 2, 1)]
    # each cycle starts at its smallest point, p steps along it, and the
    # cycles split the points in order of their first points
    for p in permutations(range(5)):
        cs = cycles(p)
        assert sorted(v for c in cs for v in c) == list(range(5))
        assert [c[0] for c in cs] == sorted(min(c) for c in cs)
        assert all(p[c[i]] == c[(i + 1) % len(c)]
                   for c in cs for i in range(len(c)))


def test_order():
    assert order(identity(5)) == 1
    assert order((1, 0, 2)) == 2
    assert order((1, 2, 0)) == 3
    assert order((1, 0, 3, 4, 2)) == 6


def test_closure_is_a_group():
    gens = {(1, 0, 2), (0, 2, 1)}
    group = closure(gens)
    assert len(group) == 6
    for g in group:
        assert inverse(g) in group
        for h in group:
            assert compose(g, h) in group


def closure_by_all_generators(perms):
    """Breadth-first closure that multiplies every element by every
    generator, duplicates and members of the group included."""
    gens = list(perms)
    group = {identity(len(gens[0]))}
    frontier = list(group)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                gh = tuple(g[j] for j in h)
                if gh not in group:
                    group.add(gh)
                    new.append(gh)
        frontier = new
    return group


def test_closure_matches_all_generators_scan():
    rng = random.Random(5)
    cases = [[identity(4)], [(1, 0, 2, 3)] * 3,
             # the second is the inverse of the first, so already in the group
             [(1, 2, 0, 3), (2, 0, 1, 3), (1, 0, 2, 3), (0, 2, 1, 3)]]
    for n in range(1, 7):
        pool = list(permutations(range(n)))
        for size in (1, 2, 3, 5):
            gens = [rng.choice(pool) for _ in range(size)]
            # a repeat, and a product of two generators, join the list
            gens += [gens[-1], compose(gens[0], gens[-1])]
            rng.shuffle(gens)
            cases.append(gens)
    for gens in cases:
        assert closure(gens) == closure_by_all_generators(gens)
        assert closure(set(gens)) == closure_by_all_generators(gens)
    with pytest.raises(ValueError):
        closure([])


def test_exponent_examples():
    assert exponent({identity(3)}) == 1
    assert exponent({(0, 1), (1, 0)}) == 2
    # the three maps y -> x - y generate all six permutations
    assert exponent({(0, 2, 1), (1, 0, 2), (2, 1, 0)}) == 6
    # the 24 maps y -> x - y on Z_24 generate the dihedral group of order 48
    z24 = [tuple((x - y) % 24 for y in range(24)) for x in range(24)]
    assert len(closure(z24)) == 48
    assert exponent(set(z24)) == 24


def test_is_perm_and_fixed_points():
    assert is_perm((2, 0, 1))
    assert not is_perm((0, 0, 1))
    assert has_fixed_point((0, 2, 1))
    assert not has_fixed_point((1, 2, 0))
