"""Exact arithmetic in the structure monoid and its quotient groups.

A monoid element is a pair (length k, last letter x); the permutation it
carries is lam_{kx}, read from the word tables of :func:`core.word_level`,
so equality of pairs is equality of elements.  Products of fractions
(k, x) . c_u^{-m} over the central elements c_u = (d, u) realise the
groups of quotients of the components; torsion elements are the degree-0
fractions.

The pair model has n elements in each degree.  The growth oracle is
deliberately independent of it: it uses only r and a union-find, and
builds the word classes of degree L+1 from the distinct rows of classes
of degree L times one appended letter, not from all n^(L+1) words.
Every table built here one length at a time depends on the one before
alone, so each stops at its period by :func:`core.periodic`.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd
from operator import itemgetter

from .core import (_gather, diagonal_image, failures, lambda_word, nth,
                   periodic, q_power, word_level, word_levels)
from .invariants import Discrepancy
from .perms import inverse


@dataclass(frozen=True)
class MElem:
    """Monoid element (length, last letter); the letter is ignored at length 0."""

    k: int
    x: int = 0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("length must be nonnegative")
        if self.k == 0:
            object.__setattr__(self, "x", 0)


ONE = MElem(0)


def mul(s, a, b):
    if a.k == 0:
        return b
    if b.k == 0:
        return a
    return MElem(a.k + b.k, lambda_word(s, a.x, a.k)[b.x])


def power(s, a, e):
    """a^e, multiplied on the left so that only the word level |a| is read."""
    out = ONE
    for _ in range(e):
        out = mul(s, a, out)
    return out


def component(s, a):
    """The diagonal point grading the element; products grade by the right factor."""
    if a.k < 1:
        raise ValueError("the identity element has no component")
    return q_power(s, a.x, a.k)


def sigma(s, y, x):
    """The derived-solution map: lam_y applied to rho at (x, lam_x^-1(y))."""
    z = inverse(s.lam[x])[y]
    return s.lam[y][s.rho[x][z]]


def sigma_discrepancies(s):
    """sigma_y(x) must equal y on every pair (the derived relation collapses)."""
    inv = [inverse(row) for row in s.lam]   # lam_x^-1, once per x
    return tuple(Discrepancy("derived-map-constant", (y, x, sigma(s, y, x)))
                 for _, (y, x) in failures(lambda y: [
                     (0, x) for x in range(s.n)
                     if s.lam[y][s.rho[x][inv[x][y]]] != y], 2, s.n))


def normal_form(s, word, t):
    """Rewrite a nonempty word as t^(k-1) . x' and return (k, x').

    Uses the iteration x' = lam_t^-1(lam_y(z)); the result is re-multiplied
    and compared against the word's own product before returning.
    """
    if not word:
        raise ValueError("word must be nonempty")
    inv_t = inverse(s.lam[t])
    y = word[0]
    for z in word[1:]:
        y = inv_t[s.lam[y][z]]
    k = len(word)

    direct = ONE
    for z in word:
        direct = mul(s, direct, MElem(1, z))
    redone = mul(s, power(s, MElem(1, t), k - 1), MElem(1, y))
    assert direct == redone, "normal form failed to re-multiply"
    return (k, y)


@dataclass(frozen=True)
class GrowthReport:
    model: tuple
    oracle: tuple

    @property
    def agree(self):
        return self.model == self.oracle

    def discrepancies(self):
        if self.agree:
            return ()
        return (Discrepancy("growth-counts-disagree", (self.model, self.oracle)),)


def _next_classes(n, left, right, state):
    """The state of one length more (see :func:`growth`)."""
    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    parent = list(range(state[0] * n))   # node (C, a) is C * n + a
    nodes = roots = [range(c, c + n) for c in range(0, len(parent), n)]
    for row in state[1]:   # spread: blocks[row[b]][a] at position b * n + a
        held = list(chain.from_iterable(map(roots.__getitem__, row)))
        if left(held) != right(held):   # a join of the row is new
            ends = list(chain.from_iterable(map(nodes.__getitem__, row)))
            for u, v in zip(left(ends), right(ends)):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[rv] = ru
            roots = [list(map(find, block)) for block in nodes]
    ids = {}
    entries = [ids.setdefault(r, len(ids)) for r in chain.from_iterable(roots)]
    return len(ids), frozenset(zip(*[iter(entries)] * n))   # its rows


def growth(s, max_len):
    """Per-degree counts: the n elements of the pair model, and word classes.

    Word classes are counted level by level.  A rewrite of a length-(L+1)
    word lies inside its length-L prefix or acts on its last pair, so the
    nodes of level L+1 are the pairs (class of the prefix, last letter),
    and r(b, a) = (b', a') joins the node of w.b.a to that of w.b'.a'.
    The joins of a prefix class read only its row of classes, one per last
    letter, so a level's state is its class count and its distinct rows;
    a row's joins are unioned only if the roots at their ends differ, so a
    degree costs the rows with a new join times the pairs r moves, not
    L * n^L.  The states stop at their period (:func:`core.periodic`): on
    a solution the tables of lengths 2 and 3 both send node (b, a) to
    lam_0^-1 lam_b(a), so two steps serve any bound; one if all lam_x agree.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = s.n
    moved = [(b * n + a, s.lam[b][a] * n + s.rho[b][a]) for b in range(n)
             for a in range(n) if (s.lam[b][a], s.rho[b][a]) != (b, a)]
    # r(b, a) = (b', a') joins positions b * n + a and b' * n + a' of a
    # spread row; position 0 joins itself, so both gathers give tuples
    left, right = (itemgetter(*ends) for ends in zip((0, 0), *moved))
    states, start = periodic(lambda state: _next_classes(n, left, right, state),
                             (n, frozenset([tuple(range(n))])), max_len)
    # every lam_{kx} is a permutation, so the pairs (k, x) of one degree
    # are n distinct elements
    return GrowthReport((n,) * max_len, tuple(nth(states, start, k)[0]
                                              for k in range(max_len)))


def is_cancellative(s, max_len):
    """Brute-force right cancellation test over elements of length <= max_len.

    Returns (verdict, witness); the witness is ("right", a, b, m) with
    a.m = b.m and a != b.  Products of unequal-length factors cannot
    collide, so pairs share a length.  Left cancellation always holds:
    m.a = (|m| + 1, lam_m(a)) and lam_m is a permutation.

    Only the lengths up to the number of stored word levels are scanned:
    every longer length repeats one of them (:func:`core.word_levels`).
    """
    n = s.n
    levels, start = word_levels(s)
    for k in range(1, min(max_len, len(levels)) + 1):
        rows = nth(levels, start, k)[0]
        cols = list(zip(*rows))   # cols[z][x] = lam_{kx}(z)
        if any(len(set(col)) < n for col in cols):
            # the first failure of the nested loop over x < y and z
            x, y, z = min((x, col.index(v, x + 1), z)
                          for z, col in enumerate(cols)
                          for x, v in enumerate(col) if v in col[x + 1:])
            return False, ("right", MElem(k, x), MElem(k, y), MElem(1, z))
    return True, None


def _nullspace(rows, unknowns):
    """Basis of the rational nullspace of a small dense integer matrix.

    Gauss-Jordan elimination runs on integer rows: each update is the
    fraction-free p . row_i - f . row_r, divided by its gcd.  Every row
    stays a multiple of its reduced row echelon row, so the basis read off
    as -row[c] / row[pivot] is exactly the rational one.
    """
    mat = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(unknowns):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                row = [p * a - f * b for a, b in zip(mat[i], mat[r])]
                g = gcd(*row)
                mat[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
    free = [c for c in range(unknowns) if c not in pivots]
    basis = []
    for c in free:
        vec = [Fraction(0)] * unknowns
        vec[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = Fraction(-mat[i][c], mat[i][pc])
        basis.append(tuple(vec))
    return basis


def center_basis(s, deg):
    """Rational basis of the homogeneous central elements of one degree.

    Solves a . g = g . a over the degree-deg basis elements: equation
    (g, w) is +1 where lam_{deg x}(g) = w and -1 where lam_g(x) = w, so the
    system is row-reduced over the integers; only the basis is rational.
    """
    if deg < 1:
        raise ValueError("degree must be >= 1")
    n = s.n
    lam_deg = word_level(s, deg)[0]
    # the basis depends only on the row space, so repeated rows are dropped
    rows = set()
    for g, lam_g in enumerate(s.lam):
        eqs = [[0] * n for _ in range(n)]
        for x, w in enumerate(lam_g):
            eqs[lam_deg[x][g]][x] += 1
            eqs[w][x] -= 1
        rows.update(map(tuple, eqs))
    rows.discard((0,) * n)
    return _nullspace(sorted(rows) or [[0] * n], n)


@dataclass(frozen=True)
class GQElem:
    """Canonical fraction (k, x) . c_u^{-m} in the quotient group of u.

    k = 0 encodes a pure power of c_u (x is then u by convention); k = d
    with x != u encodes torsion representatives; degree = k - d*m.
    """

    u: int
    k: int
    x: int
    m: int


def gq_degree(s, a):
    return a.k - s.d * a.m


def _gq_canonical(s, length, letter, cexp):
    """Reduce a nonempty numerator (length, letter) . c^{-cexp}."""
    d = s.d
    u = q_power(s, letter, length)
    a = (length - 1) // d
    k0 = length - a * d
    m = cexp - a
    if k0 == d and letter == u:
        return GQElem(u, 0, u, m - 1)
    return GQElem(u, k0, letter, m)


def gq_from(s, k, x, m=0):
    """The fraction (k, x) . c^{-m}; k = 0 gives a pure power of c_x."""
    if k == 0:
        return GQElem(x, 0, x, m)
    return _gq_canonical(s, k, x, m)


def gq_identity(s, u):
    return GQElem(u, 0, u, 0)


def torsion_elem(s, u, x):
    """The degree-0 fraction (d, x) . c_u^{-1} attached to x in X_u."""
    elem = _gq_canonical(s, s.d, x, 1)
    if elem.u != u:
        raise ValueError(f"{x} does not lie in the component of {u}")
    return elem


def _lift(s, a):
    """A representative with nonempty numerator: (length, letter, cexp)."""
    if a.k == 0:
        return s.d, a.u, a.m + 1
    return a.k, a.x, a.m


def gq_mul(s, a, b):
    """Fraction product; lands in the quotient group of b's component."""
    ka, xa, ma = _lift(s, a)
    kb, xb, mb = _lift(s, b)
    letter = lambda_word(s, xa, ka)[xb]
    return _gq_canonical(s, ka + kb, letter, ma + mb)


def gq_inverse(s, a):
    """Inverse via (k, x)^-1 = (k, x)^(d-1) . c^{-k}."""
    length, letter, cexp = _lift(s, a)
    p = power(s, MElem(length, letter), s.d - 1)
    if p.k == 0:
        return GQElem(a.u, 0, a.u, length - cexp)
    return _gq_canonical(s, p.k, p.x, length - cexp)


@dataclass(frozen=True)
class ConjugationAction:
    """Conjugation by the chosen length-1 element over a component.

    ``action`` maps each torsion point to its conjugate; the ambient group
    is the torsion group extended by powers of the base element.  ``order``
    stays 1 when the action is not a bijection of the component.
    """

    u: int
    base: int
    action: tuple   # ((y, image), ...)
    order: int
    discrepancies: tuple

    def as_dict(self):
        return dict(self.action)


def conjugation_action(s, u):
    """sigma_u: t -> g t g^-1 for the smallest generator g over u."""
    image = diagonal_image(s)
    if u not in image:
        raise ValueError(f"{u} is not a diagonal point")
    base = min(x for x in range(s.n) if s.q[x] == u)
    g = gq_from(s, 1, base)
    ginv = gq_inverse(s, g)
    op, ends = word_level(s, s.d)
    xs = tuple(x for x in range(s.n) if ends[x] == u)
    bad, act = [], {}
    for y in xs:
        res = gq_mul(s, gq_mul(s, g, torsion_elem(s, u, y)), ginv)
        if gq_degree(s, res) != 0 or res.u != u:
            bad.append(Discrepancy("conjugation-component", (u, y)))
        act[y] = res.u if res.k == 0 else res.x

    order = 1
    if sorted(act.values()) != sorted(xs):
        bad.append(Discrepancy("conjugation-bijective", (u,)))
    else:
        # X_u need not be closed on a broken record
        bad.extend(Discrepancy("conjugation-homomorphism", (u, a, b))
                   for a, b in product(xs, repeat=2)
                   if act.get(op[a][b]) != op[act[a]][act[b]])
        cur = dict(act)
        while order <= s.d + 1 and any(cur[y] != y for y in xs):
            cur = {y: act[cur[y]] for y in xs}
            order += 1
        if s.d % order != 0:
            bad.append(Discrepancy("conjugation-order-divides-exponent", (u, order)))

    # semidirect factorisation: every fraction over u is torsion times a
    # power of the base element, uniquely through its degree (1 - d..2d)
    gpow = {0: gq_identity(s, u)}
    for e in range(1, 2 * s.d + 1):
        gpow[e], gpow[-e] = gq_mul(s, gpow[e - 1], g), gq_mul(s, gpow[1 - e], ginv)
    for k in range(1, s.d + 1):
        ends = word_level(s, k)[1]
        for x in (x for x in range(s.n) if ends[x] == u):
            for m in (-1, 0, 1):
                elem = gq_from(s, k, x, m)
                deg = gq_degree(s, elem)
                t = gq_mul(s, elem, gpow[-deg])
                if gq_degree(s, t) != 0 or gq_mul(s, t, gpow[deg]) != elem:
                    bad.append(Discrepancy("semidirect-factorisation", (u, k, x, m)))

    return ConjugationAction(u, base, tuple(sorted(act.items())), order, tuple(bad))


def arithmetic_discrepancies(s, max_len=None):
    """Bounded exhaustive checks of the grading and centrality laws.

    Covers: product grading, centrality of c_u within its component, the
    power law a^d = c_u^{|a|}, the identity of lam at d times a diagonal
    point, the fixed-point alternative for equal lengths, and the q-power
    identities q^k(x) = lam_{kx}^-1(x), which also place lam_{kx}^-1(x) in
    the diagonal, and the period q^(d+1) = q, which places c_u over u.

    Each claim is evaluated once per distinct stored word level
    (:func:`core.word_levels`), or triple of them for the grading, and its
    failures are expanded to every length in lexicographic order; only the
    letters of c_u^k are built for every k, step by step.  The grading reads
    all pairs of lengths only if one below max(start, 1) + period fails.
    """
    d, n = s.d, s.n
    L = max_len if max_len is not None else 2 * d
    image = diagonal_image(s)
    stored, start = word_levels(s)
    index = [nth(range(len(stored)), start, k)
             for k in range(2 * max(L, d + 1) + 1)]
    levels, row_sets = [stored[i] for i in index], [set(r) for r, _ in stored]
    lam_d, memo = levels[d][0], {}   # lam_d[u] = lam_{du}

    def at(claim, *ks):   # claim(*ks) once per distinct stored levels of ks
        key = (claim, *map(index.__getitem__, ks))
        if key not in memo:
            memo[key] = claim(*ks)
        return memo[key]

    def grading(ka, kb, kab):
        # (ka, x) . (kb, y) = (ka + kb, lam_{ka x}(y)) must lie over q^kb(y)
        rows, ends_b, ends_ab = levels[ka][0], levels[kb][1], levels[kab][1]
        bent = {r for r in row_sets[index[ka]] if _gather(ends_ab, r) != ends_b}
        return [(x, y) for x, row in enumerate(rows) if bent and row in bent
                for y in range(n) if ends_ab[row[y]] != ends_b[y]]

    def per_level(k):
        # the letters of (k, x)^d = (dk, lam_{kx}^(d-1)(x)), the x failing
        # q^k(x) = lam_{kx}^-1(x), the x < y failing the fixed-point claim
        rows, ends = levels[k]
        letters = range(n)
        for _ in range(d - 1):
            letters = [row[c] for row, c in zip(rows, letters)]
        inv = [inverse(row) for row in rows]
        return (letters, [x for x in range(n) if ends[x] != inv[x][x]],
                [(x, y) for x, y in combinations(range(n), 2) if rows[x] != rows[y]
                 and any(rows[x][inv[y][i]] == i for i in range(n))])

    short = range(1, min(L, max(start, 1) + len(stored) - start - 1) + 1)
    pairs = list(product(short, repeat=2))
    if any(at(grading, ka, kb, ka + kb) for ka, kb in pairs):
        pairs = product(range(1, L + 1), repeat=2)
    bad = [Discrepancy("product-grading", key) for key in sorted(
        (ka, x, kb, y) for ka, kb in pairs
        for x, y in at(grading, ka, kb, ka + kb))]
    found = []
    cpow = dict(zip(image, image))   # the letter of c_u^k = (dk, lam_{du}^(k-1)(u))
    for k in range(1, L + 1):
        rows, ends = levels[k]
        for x, (u, letter) in enumerate(zip(ends, at(per_level, k)[0])):
            if lam_d[u][x] != rows[x][u]:
                found.append((u, k, x, "central-element-commutes"))
            if letter != cpow[u]:
                found.append((u, k, x, "power-collapse"))
        cpow = {u: lam_d[u][c] for u, c in cpow.items()}
    bad += [Discrepancy(claim, (u, k, x)) for u, k, x, claim in sorted(found)]
    bad += [Discrepancy("diagonal-word-identity", (u,))
            for u in image if lam_d[u] != tuple(range(n))]
    bad += [Discrepancy("fixed-point-alternative", (k, x, y))
            for k in range(1, d + 1) for x, y in at(per_level, k)[2]]
    bad += [Discrepancy("q-power-identity", (k, x))
            for k in range(1, 2 * d + 3) for x in at(per_level, k)[1]]
    bad += [Discrepancy("q-period", (x,))
            for x in range(n) if levels[d + 1][1][x] != s.q[x]]
    return tuple(bad) + sigma_discrepancies(s)
