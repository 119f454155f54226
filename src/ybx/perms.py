"""Permutations as tuples of images on {0, ..., n-1}."""

import math


def identity(n):
    return tuple(range(n))


def is_perm(images):
    """Whether images lists 0, ..., len(images) - 1 once each; no booleans."""
    return sorted(images) == list(range(len(images))) and \
        bool not in map(type, images)


def compose(p, q):
    """p after q: (p.q)(i) = p[q[i]]."""
    return tuple(p[j] for j in q)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def order(p):
    result = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            result = math.lcm(result, length)
    return result


def closure(perms):
    """Group generated by perms, by breadth-first composition.

    Inverses come for free: the generators have finite order.
    """
    gens = set(perms)
    if not gens:
        raise ValueError("need at least one permutation")
    group = {identity(len(next(iter(gens))))}
    frontier = list(group)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                gh = compose(g, h)
                if gh not in group:
                    group.add(gh)
                    new.append(gh)
        frontier = new
    return group


def exponent(perms):
    """lcm of the element orders of the group generated by perms."""
    result = 1
    for g in closure(perms):
        result = math.lcm(result, order(g))
    return result
