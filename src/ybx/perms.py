"""Permutations as tuples of images on {0, ..., n-1}."""

import math
from operator import itemgetter


def identity(n):
    return tuple(range(n))


def is_perm(images):
    """Whether images lists 0, ..., len(images) - 1 once each; no booleans."""
    return sorted(images) == list(range(len(images))) and \
        bool not in map(type, images)


def compose(p, q):
    """p after q: (p.q)(i) = p[q[i]]; every whole map is gathered here, by
    itemgetter in C, which returns a bare item for one index."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple(map(p.__getitem__, q))


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def cycles(p):
    """The cycles of p, each from its smallest point, in order of those."""
    result, seen = [], set()
    for i in range(len(p)):
        if i not in seen:
            cycle = [i]
            while p[cycle[-1]] != i:
                cycle.append(p[cycle[-1]])
            seen.update(cycle)
            result.append(tuple(cycle))
    return result


def order(p):
    return math.lcm(*map(len, cycles(p)))


def closure(perms):
    """Group generated by perms, by breadth-first composition.

    A generator already in the group is skipped.  A new one multiplies the
    group so far, which the earlier ones keep closed, and every generator
    multiplies what that brings in.  Inverses come for free: the
    generators have finite order.
    """
    perms = list(perms)
    if not perms:
        raise ValueError("need at least one permutation")
    group, gens = {identity(len(perms[0]))}, []
    for h in perms:
        if h not in group:
            gens.append(h)
            frontier = [compose(g, h) for g in group]
            while frontier:
                fresh = set(frontier) - group
                group |= fresh
                frontier = [compose(g, k) for g in fresh for k in gens]
    return group


def exponent(perms):
    """lcm of the element orders of the group generated by perms."""
    return math.lcm(*map(order, closure(perms)))
