from itertools import permutations

from ybx.perms import closure, compose, exponent, identity, inverse, is_perm, order


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


def test_inverse():
    for p in permutations(range(4)):
        assert compose(p, inverse(p)) == identity(4)
        assert compose(inverse(p), p) == identity(4)


def test_conjugate():
    p = (1, 0, 2)
    psi = (2, 0, 1)
    assert conjugate(p, psi) == compose(psi, compose(p, inverse(psi)))


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


def test_exponent_examples():
    assert exponent({identity(3)}) == 1
    assert exponent({(0, 1), (1, 0)}) == 2
    # the three maps y -> x - y generate all six permutations
    assert exponent({(0, 2, 1), (1, 0, 2), (2, 1, 0)}) == 6


def test_is_perm_and_fixed_points():
    assert is_perm((2, 0, 1))
    assert not is_perm((0, 0, 1))
    assert has_fixed_point((0, 2, 1))
    assert not has_fixed_point((1, 2, 0))
