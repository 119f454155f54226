"""Maps r(x, y) = (lam_x(y), rho_y(x)) on {0, ..., n-1} and their verification.

Conventions, fixed once for the whole package:

  - points are dense 0-based integers;
  - ``lam[x]`` is the image tuple of lam_x and ``rho[x][y] = rho_y(x)``;
  - composition lam_a lam_b applies lam_b first (``perms.compose``);
  - ``q(x) = lam_x^-1(x)`` is the diagonal map; its image is the diagonal;
  - ``d`` is the exponent of the permutation group generated by all lam_x.

A candidate table is an :class:`RMap`; :func:`check` evaluates the three
Yang-Baxter identities, left non-degeneracy and idempotency exhaustively,
and :func:`promote` upgrades a fully valid candidate to a :class:`Solution`
carrying the derived data (q, d).

:func:`check` locates its braid failures from its own maps on X^3, as
``groebner.check_overlaps`` does its overlaps, each map a tuple gathered
in C by :func:`perms.compose`, like every whole map here; every other
check locates its counterexamples by :func:`failures`, which calls a row
kernel once per prefix of the points.
"""

import json
from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, islice, product, repeat
from math import factorial
from operator import add, mul

from .perms import compose, exponent, inverse, is_perm

IDENTITY_NAMES = ("ybe1", "ybe2", "ybe3", "left_nondegenerate", "idempotent")


class SolutionFormatError(ValueError):
    """Raised for malformed input tables or files."""


def _check_table(table, n, name):
    if len(table) != n:
        raise SolutionFormatError(f"{name} must have {n} rows")
    for row in table:
        if len(row) != n:
            raise SolutionFormatError(f"{name} rows must have length {n}")
        for v in row:
            if isinstance(v, bool) or not (isinstance(v, int) and 0 <= v < n):
                raise SolutionFormatError(f"{name} entries must lie in [0, {n})")


@dataclass(frozen=True)
class RMap:
    """Candidate tables: n points, n self-maps lam[x], and rho[x][y] = rho_y(x)."""

    n: int
    lam: tuple
    rho: tuple

    def __post_init__(self):
        if self.n < 1:
            raise SolutionFormatError("n must be positive")
        object.__setattr__(self, "lam", tuple(tuple(r) for r in self.lam))
        object.__setattr__(self, "rho", tuple(tuple(r) for r in self.rho))
        _check_table(self.lam, self.n, "lambda")
        _check_table(self.rho, self.n, "rho")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the exhaustive checks on an RMap.

    ``first_counterexample`` is ``(identity name, points)`` for the first
    failing check in the order of :data:`IDENTITY_NAMES`, or None when all
    five booleans are true.  Re-evaluating the named identity at the cited
    points reproduces the failure.  ``ok`` (all five hold) is set on
    construction as a field, so the report's JSON carries it.
    """

    ybe1: bool
    ybe2: bool
    ybe3: bool
    left_nondegenerate: bool
    idempotent: bool
    first_counterexample: tuple = None
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", all(getattr(self, name)
                                           for name in IDENTITY_NAMES))


ALL_VALID = VerificationReport(True, True, True, True, True)


class InvalidSolutionError(ValueError):
    """Rejection of a candidate, carrying the verification report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"candidate fails {report.first_counterexample}")


@dataclass(frozen=True)
class Solution:
    """A verified idempotent left non-degenerate solution.

    Immutable; built by :func:`promote`.  ``q`` is the diagonal map table
    and ``d`` the exponent of the group generated by the lam_x.  One period
    of the word tables, :func:`word_levels`, is kept in ``_cache``, which
    takes no part in equality or hashing.
    """

    n: int
    lam: tuple
    rho: tuple
    q: tuple
    d: int
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)


def failures(kernel, arity, n, keys=None):
    """(index, point) for every failure of a row kernel on {0..n-1}^arity.

    ``kernel(*prefix)`` runs once per prefix of arity - 1 points, in
    lexicographic order, and returns the failing (identity index, last
    coordinate) pairs of that prefix in order of the last coordinate.  The
    points come lazily in lexicographic order: the first is the first
    counterexample of the nested loop, and the scan stops with its reader.

    With ``keys``, a prefix whose first point repeats the key (all the
    kernel reads of it) of a smaller one is skipped: it fails where that
    one fails, later, so the first failure of each index is still found.
    """
    firsts = {}   # the smallest point of each key
    heads = range(n) if keys is None else [
        x for x, key in enumerate(keys) if firsts.setdefault(key, x) == x]
    for prefix in product(*[heads][:arity - 1], *[range(n)] * (arity - 2)):
        for i, last in kernel(*prefix):
            yield i, prefix + (last,)


def associativity(op):
    """Row kernel of (x . y) . z = x . (y . z): the failing z of (x, y)."""
    def row(x, y):
        opx, xy = op[x], op[op[x][y]]
        return [(0, z) for z, v in enumerate(op[y]) if xy[z] != opx[v]]
    return row


def homomorphism(f, op, points):
    """Row kernel of f(x . y) = f(x) . f(y) on a list of points: the
    failing indices j of the i-th point."""
    def row(i):
        opx, ofx = op[points[i]], op[f[points[i]]]
        return [(0, j) for j, y in enumerate(points) if f[opx[y]] != ofx[f[y]]]
    return row


def apply_r(m, x, y):
    """Evaluate r at a pair of points: (lam[x][y], rho[x][y])."""
    n = m.n
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"points must lie in [0, {n})")
    return (m.lam[x][y], m.rho[x][y])


def check(m):
    """Exhaustively verify an RMap over all triples and pairs of points.

    r is R[x n + y] = lam_x(y) n + rho_y(x); the Yang-Baxter identities at
    (x, y, z) are the digits of r12 r23 r12 = r23 r12 r23 at (x n + y) n + z.
    Each identity is one equality of whole maps, in O(n^3) memory; only a
    failure is located, ybe(i+1) at the first code where digit i of the
    two sides differs, and valid tables share the frozen :data:`ALL_VALID`.
    """
    lam, rho, n, nn = m.lam, m.rho, m.n, m.n * m.n
    R = list(map(add, map(mul, chain.from_iterable(lam), repeat(n)),
                 chain.from_iterable(rho)))
    cube = list(range(nn * n))   # every code below is one of its ints
    r12, r23 = [], []
    for a in range(0, nn * n, nn):
        r23 += compose(cube[a:a + nn], R)
    for k in R:   # t r12 has row r(a, b) of t as its row (a, b)
        r12 += cube[k * n:k * n + n]
    h = compose(r23, r12)   # h = r23 r12
    left = compose(r12, h)
    right = compose(h, r23)
    if left == right and min(map(len, map(set, lam))) == n and \
            compose(R, R) == tuple(R):
        return ALL_VALID
    firsts = {}   # identity i is digit i; codes run in order of the points
    for c in compress(cube, map(int.__ne__, left, right)):
        for i, unit in enumerate((nn, n, 1)):
            if left[c] // unit % n != right[c] // unit % n:
                firsts.setdefault(i, (c // nn, c // n % n, c % n))
    firsts.update(islice(failures(lambda: [
        (3, x) for x in range(n) if not is_perm(lam[x])], 1, n), 1))
    firsts.update(islice(failures(lambda x: [
        (4, y) for y, k in enumerate(R[x * n:x * n + n]) if R[k] != k],
        2, n), 1))
    first = min(firsts.items(), default=None)
    return VerificationReport(
        first_counterexample=first and (IDENTITY_NAMES[first[0]], first[1]),
        **{name: i not in firsts for i, name in enumerate(IDENTITY_NAMES)})


def diagonal_map(lam):
    """q(x) = lam_x^-1(x); requires every lam[x] to be a bijection."""
    q = []
    for x, row in enumerate(lam):
        if not is_perm(row):
            raise SolutionFormatError(f"lambda[{x}] is not a bijection")
        q.append(row.index(x))
    return tuple(q)


def promote(m):
    """Verify an RMap and return the Solution carrying q and d.

    The rho table of a valid candidate is forced to equal q(lam[x][y]);
    this is re-derived and asserted rather than trusted.
    """
    report = check(m)
    if not report.ok:
        raise InvalidSolutionError(report)
    q = diagonal_map(m.lam)
    # forced by idempotency; a failure here would be a bug in check()
    assert m.rho == forced_rho(m.lam, q)
    d = exponent(set(m.lam))
    return Solution(m.n, m.lam, m.rho, q, d)


def forced_rho(lam, q):
    """The rho table q(lam[x][y]) that idempotency forces."""
    return tuple(compose(q, row) for row in lam)


def rmap_from_lambda(lam_rows):
    """Build an RMap from lam tables alone, deriving rho as q(lam[x][y])."""
    lam = tuple(tuple(r) for r in lam_rows)
    return RMap(len(lam), lam, forced_rho(lam, diagonal_map(lam)))


def solution_from_lambda(lam_rows):
    return promote(rmap_from_lambda(lam_rows))


def periodic(step, first, bound=None):
    """(terms, start): first, step(first), ... until a new term equals the
    stored ``terms[start]``, or until ``bound`` terms exist (start None);
    as each term depends on the one before alone, term k of the whole
    sequence is then :func:`nth` (terms, start, k)."""
    terms, index = [first], {first: 0}
    while bound is None or len(terms) < bound:
        term = step(terms[-1])
        start = index.setdefault(term, len(terms))
        if start < len(terms):
            return terms, start
        terms.append(term)
    return terms, None


def nth(terms, start, k):
    """Term k of the sequence that :func:`periodic` returned."""
    if k < len(terms):
        return terms[k]
    return terms[start + (k - start) % (len(terms) - start)]


def word_levels(s):
    """(levels, start) of :func:`periodic`: level k is (rows, ends) with
    rows[x] = lam_{kx} and ends[x] = q^k(x), from the identity rows and
    ends = range(n) by lam_{(k+1)x} = lam_{kx} . lam_{q^k(x)}.  Built on
    first use and kept on s by one ``setdefault``, so concurrent readers
    share one set of tables; on a valid solution start <= 1 and the period
    divides d.
    """
    if not s._cache:
        ident = tuple(range(s.n))
        s._cache.setdefault("levels", periodic(lambda level: (
            tuple(compose(row, s.lam[e]) for row, e in zip(*level)),
            compose(s.q, level[1])), ((ident,) * s.n, ident)))
    return s._cache["levels"]


def word_level(s, k):
    """Level k of :func:`word_levels`, k >= 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return nth(*word_levels(s), k)


def lambda_word(s, x, k):
    """The permutation lam_{kx} of the length-k element ending in x, k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return word_level(s, k)[0][x]


def q_power(s, x, k):
    """k-fold application of the diagonal map; k = 0 returns x."""
    return word_level(s, k)[1][x]


def diagonal_image(s):
    """The diagonal: sorted image of q."""
    return tuple(sorted(set(s.q)))


def iso_check(s1, s2):
    """A relabeling psi with lam2_psi(x) = psi lam1_x psi^-1, or None.

    The tables are isomorphic iff their canonical forms are equal, and then
    psi = psi2^-1 . psi1 for the canonical witnesses psi1, psi2, so it is
    not necessarily the lexicographically first such relabeling.  rho is
    determined by lam and q on verified solutions, so matching the lam
    tables is enough.
    """
    if s1.n != s2.n:
        raise ValueError("solutions must have the same number of points")
    form1, psi1, _ = canonical_table(s1.lam)
    form2, psi2, _ = canonical_table(s2.lam)
    if form1 != form2:
        return None
    return compose(inverse(psi2), psi1)


def _orbits(gens, fixed, n):
    """Smallest point of each orbit of the gens fixing fixed; None if none do."""
    key = tuple(fixed)
    gens = [g for g in gens if compose(g, key) == key]
    if not gens:
        return None
    orbit = [-1] * n
    for x in range(n):
        if orbit[x] < 0:
            orbit[x] = x
            todo = [x]
            for y in todo:   # grows while it is read
                for g in gens:
                    z = g[y]
                    if orbit[z] < 0:
                        orbit[z] = x
                        todo.append(z)
    return orbit


def canonical_table(table):
    """(form, psi, aut): the exact lexicographic minimum over relabelings.

    ``form`` is the smallest row-major flattening, over all n! psi, of the
    table whose row psi(x) maps psi(y) to psi(table[x][y]), with no limit
    on n; a group table is canonicalized the same way as a lam table.
    ``psi`` is one relabeling reaching it and ``aut`` is the number of
    them, the order of the automorphism group of the table.

    Depth-first branch and bound in the spirit of individualize-and-refine
    (McKay & Piperno, "Practical graph isomorphism, II", J. Symb. Comput.
    2014), without a refinement that would reorder the labels.  Labels are
    handed out while row 0 is read cell by cell; row 0 is the row of the
    point labelled 0.  A label still free when its cell is reached is a
    branch over the unlabelled points; a cell whose value is an unlabelled
    point must take the next free label to stay minimal.  A branch whose
    prefix exceeds the best form so far is cut.

    The pool.  Once a point is labelled 0, the other fixed points of its
    row are pooled if there are at least two and no other cell of the row
    reaches them.  Whichever of them takes a free label j reads j in its
    cell, so one branch hands j to the pool: the pooled point it goes to is
    anonymous, a stand-in for any of them.  Every label is in use after row
    0.  While two or more points are pooled, the later rows are read in
    order:

    - a cell whose value is a pooled point names that point by the
      smallest label the pool holds, which is forced;
    - an anonymous row is individualized, a branch over the pool, only if
      the pooled points' rows differ, and an anonymous column only if its
      row moves a pooled point.

    Once at most one point is pooled, a leaf compares its full table with
    the best.  A leaf with m points still pooled stands for m! labelings,
    and the pool's transposition and m-cycle are automorphisms.  That leaf
    is reached at once if the pooled points have equal rows, every row
    fixes them, and no other cell holds them.  A table without a pool is
    searched as if pools did not exist.

    Automorphism pruning.  A leaf equal to the best form gives the
    automorphism best^-1 . psi of the two labelings.  A branch skips a
    point sharing an orbit with one already searched there, under the
    automorphisms found that fix every named point: these keep the pool and
    carry the one subtree onto the other with every leaf's form.  A node's
    count of labelings reaching the form sums, over the orbits of its
    points, the orbit size times the count of one member searched since the
    form last changed, plus the count of its pool branch.  Members of one
    orbit have isomorphic subtrees, so the count is exact however few
    automorphisms were found.  Without a refinement the search still tries
    equal-length cycles of row 0 in every order.
    """
    n = len(table)
    psi = [-1] * n   # old point -> new label; n for an unlabelled pooled point
    pi = [-1] * n    # new label -> old point
    pooled = [0] * n   # 1 for a pooled point
    pool, handed = [], 0   # pooled points, ascending; pool labels handed out
    form, best, gens = None, None, []   # best form, its pi, automorphisms
    row0, fresh = None, False   # fresh: no free label since label 0
    solid = None   # solid[p]: p is in column p of every row and nowhere else

    def leaf():
        nonlocal form, best
        rows = [table[x] for x in pi]
        flat = tuple([psi[r[y]] for r in rows for y in pi])
        if form is None or flat < form:
            form, best = flat, tuple(pi)
            return True, 1
        if flat == form:
            gens.append(compose(best, psi))
            return False, 1
        return False, 0

    def cell(j, k, tight):
        """Read row 0 from cell j on, labels 0..k-1 in use: (changed, count).

        ``tight`` says cells 0..j-1 equal those of ``form``; ``count`` is
        the number of labelings below reaching the form as it stands on
        return.  A cell whose value is unlabelled gives it label k.
        """
        given, result = [], (False, 0)
        while j < n and pi[j] >= 0:
            v = row0[pi[j]]
            label = psi[v]
            if label < 0:
                psi[v] = label = k
                pi[k] = v
                k += 1
                given.append(v)
            if tight:
                if label > form[j]:
                    break
                tight = label == form[j]
            j += 1
        else:
            result = free(j, k, tight) if j < n else rows(1, tight)
        for v in given:
            pi[psi[v]] = psi[v] = -1
        return result

    def free(j, k, tight):
        """Branch over the points for the free label j == k."""
        nonlocal row0, fresh, handed
        if fresh:   # the first free label after 0: pool row 0's fixed points
            fresh = False
            fixed = [x for x in range(n) if row0[x] == x and psi[x] < 0]
            if len(fixed) > 1 and all(row0.count(y) == 1 for y in fixed):
                pool[:] = fixed
                for y in fixed:
                    psi[y], pooled[y] = n, 1
                result = free(j, k, tight)
                for y in fixed:
                    psi[y], pooled[y] = -1, 0
                pool.clear()
                return result
        changed, counts, searched, orbit, seen = False, {}, [], None, 0
        if handed < len(pool):   # one branch for the unlabelled pool
            x = pool[handed]
            psi[x], pi[j] = j, x
            handed += 1
            changed, counts[-1] = cell(j, k + 1, tight)
            handed -= 1
            psi[x], pi[j] = n, -1
        for x in range(n):
            if psi[x] >= 0:
                continue
            if searched and len(gens) > seen:
                named = [y for y in pi[:j] if not pooled[y]] if pool else pi[:j]
                orbit, seen = _orbits(gens, named, n), len(gens)
            if orbit and orbit[x] in map(orbit.__getitem__, searched):
                continue
            searched.append(x)
            psi[x], pi[j] = j, x
            if not j:
                row0, fresh = table[x], True
            # a new form shares this node's prefix
            improved, count = cell(j, k + 1, tight or changed)
            psi[x] = pi[j] = -1
            if improved:
                changed, counts = True, {}
            counts[x] = count
        if not orbit:
            return changed, sum(counts.values())
        pool_count = counts.pop(-1, 0)
        member = {orbit[x]: c for x, c in counts.items()}
        return changed, pool_count + sum(member.get(orbit[x], 0)
                                         for x in range(n) if psi[x] < 0)

    def take(x, label, then, *args):
        """then(*args) once the pooled point x takes the pool's label."""
        y, old = pi[label], psi[x]
        psi[y], pi[old], psi[x], pi[label] = old, y, label, x
        pool.remove(x)
        pooled[x] = 0
        result = then(*args)
        psi[x], pi[old], psi[y], pi[label] = old, x, label, y
        insort(pool, x)
        pooled[x] = 1
        return result

    def individualize(label, tight, then, *args):
        """Branch over the pool for its label: (changed, count)."""
        changed, counts, searched, orbit, seen = False, {}, [], None, 0
        points = pool[:]
        for x in points:
            if searched and len(gens) > seen:
                named = [y for y in pi if not pooled[y]]
                orbit, seen = _orbits(gens, named, n), len(gens)
            if orbit and orbit[x] in map(orbit.__getitem__, searched):
                continue
            searched.append(x)
            improved, count = take(x, label, then, *args, tight or changed)
            if improved:
                changed, counts = True, {}
            counts[x] = count
        if not orbit:
            return changed, sum(counts.values())
        member = {orbit[x]: c for x, c in counts.items()}
        return changed, sum(member.get(orbit[x], 0) for x in points)

    def rows(i, tight):
        """Read rows i, i+1, ... while two or more points are pooled."""
        nonlocal solid
        if len(pool) < 2:
            return leaf()
        lam = table[pool[0]]
        uniform = all(table[x] == lam for x in pool)
        if i < n and uniform:
            if solid is None:
                every = [table[x] for x in range(n)]
                occurs = Counter(chain.from_iterable(every))
                solid = [occurs[p] == n and col == (p,) * n
                         for p, col in enumerate(zip(*every))]
            if all(solid[x] for x in pool):   # no row tells them apart
                i = n
        if i == n:   # the pooled points are interchangeable
            changed, count = leaf()
            swap, cycle = list(range(n)), list(range(n))
            swap[pool[0]], swap[pool[1]] = pool[1], pool[0]
            for x, y in zip(pool, pool[1:] + pool[:1]):
                cycle[x] = y
            for g in (tuple(swap), tuple(cycle)):
                if g not in gens:
                    gens.append(g)
            return changed, count * factorial(len(pool))
        if not pooled[pi[i]]:
            lam = table[pi[i]]
        elif not uniform:   # the rows of the pooled points differ
            return individualize(i, tight, rows, i)
        return cells(i, 0, lam, tight)

    def cells(i, j, lam, tight):
        """Read row i, whose point maps by lam, from column j on."""
        if len(pool) < 2:
            return leaf()
        moves = None
        for j in range(j, n):
            c = pi[j]
            if pooled[c]:
                if moves is None:
                    moves = any(lam[x] != x for x in pool)
                if moves:
                    return individualize(j, tight, cells, i, j, lam)
            elif pooled[lam[c]]:   # the smallest pool label is forced
                label = min(map(psi.__getitem__, pool))
                return take(lam[c], label, cells, i, j, lam, tight)
            if tight:
                label, ref = psi[lam[c]], form[i * n + j]
                if label > ref:
                    return False, 0
                tight = label == ref
        return rows(i + 1, tight)

    aut = cell(0, 0, False)[1]
    return form, inverse(best), aut


def canonical_form(s):
    """Lexicographically minimal flattened lam table over all relabelings."""
    return canonical_table(s.lam)[0]


# ---------------------------------------------------------------------------
# solution files: {"n": int, "lambda": n x n, "rho": n x n (optional)}

def rmap_from_dict(data):
    if not isinstance(data, dict):
        raise SolutionFormatError("expected a JSON object")
    try:
        n = data["n"]
        lam = data["lambda"]
    except (KeyError, TypeError) as exc:
        raise SolutionFormatError("missing field: n and lambda are required") from exc
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SolutionFormatError("n must be a positive integer")
    rho = data.get("rho")
    try:
        lam = tuple(tuple(row) for row in lam)
        rho = None if rho is None else tuple(tuple(row) for row in rho)
    except TypeError as exc:
        raise SolutionFormatError("lambda and rho must be lists of rows") from exc
    if rho is not None:
        return RMap(n, lam, rho)
    _check_table(lam, n, "lambda")
    try:
        return rmap_from_lambda(lam)
    except SolutionFormatError as exc:
        raise SolutionFormatError(
            "rho is missing and cannot be derived: " + str(exc)) from exc


def rmap_to_dict(m):
    return {
        "n": m.n,
        "lambda": [list(row) for row in m.lam],
        "rho": [list(row) for row in m.rho],
    }


def read_json(path):
    """The parsed file; undecodable, malformed or too deep JSON is a format error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SolutionFormatError(f"invalid JSON: {exc}") from exc


def load_rmap(path):
    return rmap_from_dict(read_json(path))


def dump_solution(m, path):
    with open(path, "w", encoding="utf-8") as fh:   # json.dump is not in C
        fh.write(json.dumps(rmap_to_dict(m), sort_keys=True) + "\n")
