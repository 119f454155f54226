"""Exhaustive search and classification for small point counts.

Since rho is forced to q(lam[x][y]) on idempotent candidates, the search
space is tuples (lam_0, ..., lam_{n-1}) of permutations.  The backtracker
assigns them in point order and works on permutation ids: Sym(n) is
indexed once per n, in lexicographic order, with a composition table,
inverse lookups and one compatibility bitmask per permutation.  Two
sound filters prune:

  - equal-length words act either identically or without fixed points, so
    every quotient lam_i lam_j^-1 is the identity or fixed-point-free.
    Bit b of ``compat[a]`` records that relation between ids a and b, and
    the candidates for the next row are the AND of the masks of the rows
    already assigned;
  - the first Yang-Baxter identity, as a permutation identity
    lam_x lam_y = lam_w lam_u with w = lam_x(y) and u = q(w), checked
    once all four rows are assigned.  A quadruple whose x, w and one of
    y, u are assigned fixes its open row t outright (or, with y = u = t,
    holds already by the fixed-point filter), so the one id those
    quadruples force is ANDed into row t's domain (see :func:`_pin`).
    At each node the walk does so for the next row j, whose mask lists
    the node's candidates, and then, looking ahead, for each later row in
    turn, and cuts the node at the first row left with no candidate.
    Each candidate is then tested only on the quadruples the pin cannot
    decide, x = j or w = j, which involve its own lam_j(y) or q(j).

The smallest tuple of each form is verified by the full exhaustive check
before it is emitted; the pruning is an optimisation, never a proof.

The walk keeps lexicographic leaders under relabeling (the symmetry
breaking of Akgün, Mereb & Vendramin, "Enumeration of set-theoretic
solutions to the Yang-Baxter equation", Math. Comp. 2022).  Relabeling X
by psi conjugates the rows, lam'_{psi(x)} = psi lam_x psi^-1, so the
relabelings with psi(x) = 0 make row x into lam'_0 and give exactly one
orbit of Stab(0) acting by conjugation, fixed by the cycle type of lam_x
and the length of its cycle through x.  The slice of a given lam_0 keeps
a row only if that orbit's minimum is not below lam_0 (the bound, see
:func:`_row_bounds`), so only orbit minima can start a tuple.  This
finds every class:

  - the class member with the smallest lam has the smallest lam_0 of
    the class, so it passes the bound on every row, row 0 included;
  - that member is the one ``up_to_iso`` keeps after the sort by
    (canonical form, lam), so the representatives are exactly those of
    the walk over all n! choices of lam_0 without the bound.

The labelled census is the union of the Sym(n)-orbits of the
representatives, grown by two generators of Sym(n) (:func:`_class_members`);
each relabeling is verified by the exhaustive :func:`~ybx.core.check`, so
every emitted table is checked once.
"""

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations
from math import factorial

from .core import (InvalidSolutionError, Solution, _check_table, _gather,
                   associativity, canonical_form, canonical_table, check,
                   diagonal_image, failures, forced_rho, homomorphism,
                   solution_from_lambda, word_level)
from .invariants import Descriptor, descriptor_report
from .perms import cycles, inverse, is_perm

MAX_POINTS = 7


@dataclass(frozen=True)
class EnumOptions:
    n: int
    up_to_iso: bool = False
    jobs: int = 1
    budget_secs: float = None

    def __post_init__(self):
        if not (1 <= self.n <= MAX_POINTS):
            raise ValueError(f"n must lie in 1..{MAX_POINTS}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        # written so that NaN fails as well
        if self.budget_secs is not None and not self.budget_secs >= 0:
            raise ValueError("budget must be a non-negative number of seconds")


@dataclass(frozen=True)
class EnumResult:
    solutions: tuple
    complete: bool
    canonical: tuple   # canonical_form of each solution, in the same order
    aut: tuple         # |Aut| of each solution, in the same order


@lru_cache(maxsize=MAX_POINTS)
def _sym_index(n):
    """Sym(n) indexed for the row search, as (perms, comp, inv, inv_id,
    compat).

    ``perms`` lists Sym(n) in lexicographic order; a permutation's id is
    its position.  ``comp[a][b]`` is the id of perms[a] . perms[b];
    ``inv[a][w] = perms[a].index(w)``, so q(w) = inv[id of lam_w][w], and
    ``inv_id[a]`` is the id of perms[a]^-1; bit
    b of ``compat[a]`` is set iff perms[a] perms[b]^-1 is the identity or
    has no fixed point.  Built on first use for each n, so an n = 6 run
    never builds the n = 7 tables (about 0.7 s and 215 MB).

    ``comp`` is built by rows, by left multiplication: row t . r is
    ``lefts[i]`` gathered at row r, where t swaps the values i and i + 1 and
    ``lefts[i][c]`` is the id of t . perms[c].  Only ``lefts`` is hashed.
    """
    perms = tuple(sorted(permutations(range(n))))
    ids = {p: a for a, p in enumerate(perms)}
    inv = tuple(inverse(p) for p in perms)
    swaps = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
             for i in range(n - 1)]
    lefts = [[ids[_gather(t, p)] for p in perms] for t in swaps]
    comp = [tuple(range(len(perms)))]   # id 0 is the identity
    for a in range(1, len(perms)):
        # value i + 1 before value i: r = t . p has a smaller id
        i = next(i for i in range(n - 1) if inv[a][i] > inv[a][i + 1])
        comp.append(_gather(lefts[i], comp[lefts[i][a]]))
    comp = tuple(comp)
    # a . b^-1 fixes a point iff a and b agree somewhere
    agree = [[0] * n for _ in range(n)]   # agree[i][v]: ids mapping i to v
    for a, p in enumerate(perms):
        for i, v in enumerate(p):
            agree[i][v] |= 1 << a
    everything = (1 << len(perms)) - 1
    compat = []
    for a, p in enumerate(perms):
        meets = 0
        for i, v in enumerate(p):
            meets |= agree[i][v]
        compat.append((everything ^ meets) | (1 << a))
    return perms, comp, inv, tuple(ids[p] for p in inv), tuple(compat)


@lru_cache(maxsize=MAX_POINTS)
def _row_bounds(n):
    """The Stab(0)-orbit minima of Sym(n), and the ids of Sym(n) grouped
    at each point x by the orbit a relabeling moving x to 0 gives them.

    Row p at x goes to the orbit keyed by (cycle type of p, length of the
    cycle of p through x).  Sym(n) is read in lexicographic order, which
    gives the ids of :func:`_sym_index` without building it, so the first
    p with a given key at x = 0 is that orbit's minimum.  Returns (minima,
    groups), groups[x] = ((id of a minimum, bitmask of the ids whose key at
    x is its), ...).  There are 1, 2, 4, 7, 12, 19, 30 minima for n = 1..7.
    """
    first, keys = {}, []
    for a, p in enumerate(permutations(range(n))):
        through = [0] * n   # the length of the cycle through each point
        for cycle in cycles(p):
            for v in cycle:
                through[v] = len(cycle)
        kind = tuple(sorted(through))
        first.setdefault((kind, through[0]), (a, p))
        keys.append((kind, through))
    groups = [{} for _ in range(n)]
    for a, (kind, through) in enumerate(keys):
        for x, group in enumerate(groups):
            low = first[kind, through[x]][0]
            group[low] = group.get(low, 0) | 1 << a
    return (tuple(p for _, p in first.values()),
            tuple(tuple(group.items()) for group in groups))


def _orbit_minima(n):
    """The lexicographic minimum of each orbit of Stab(0) on Sym(n)."""
    return _row_bounds(n)[0]


def _pin(ids, q, tables, t):
    """The ids YBE1 leaves for an unassigned row t >= j = len(ids) given
    rows 0..j-1, as a mask to AND into the domain: -1 when no quadruple
    fixes lam_t, one bit when some do, 0 when two of them force different
    ids.

    With w = lam_x(y) and u = q(w) from the walk's ``q``, the quadruples
    on rows 0..j-1 and t whose x and w lie below j are decided here:
      - y = t, u < j: lam_t = lam_x^-1 lam_w lam_u;
      - y, w < j, u = t: lam_t = lam_w^-1 lam_x lam_y;
      - y = t, u = t: lam_x lam_t = lam_w lam_t, so lam_x = lam_w.  Rows x
        and w agree at t (both send it to w), so on rows that pass the
        fixed-point filter this holds already.
    """
    perms, comp, inv, inv_id, _ = tables
    j = len(ids)
    mask = -1
    for a in ids:
        w = perms[a][t]
        if w < j:
            u = q[w]
            if u < j:
                mask &= 1 << comp[inv_id[a]][comp[ids[w]][ids[u]]]
    for w, u in enumerate(q):
        if u == t:
            b = inv_id[ids[w]]
            for a in ids:
                y = inv[a][w]
                if y < j:
                    mask &= 1 << comp[b][comp[a][ids[y]]]
    return mask


def _expired(deadline):
    return deadline is not None and time.monotonic() > deadline


def _search_slice(n, first, deadline=None):
    """The walk's lam tuples with lam_0 = ``first`` that pass the bound of
    the module docstring on every row: none unless ``first`` is an orbit
    minimum.  The bound drops only tuples that are not the lam-smallest of
    their class, and the smallest passes it in the slice of its own lam_0.

    Returns ([(canonical form, |Aut|, lam), ...], complete), unverified;
    an expired deadline stops the walk, and one that expired before the
    slice starts leaves Sym(n) unbuilt.
    """
    if _expired(deadline):
        return [], False
    tables = _sym_index(n)
    perms, comp, inv, _, compat = tables
    ids = [perms.index(tuple(first))]
    q = [inv[ids[0]][0]]   # q(x) = lam_x^-1(x) of the assigned rows
    # bound[x]: the ids for row x that no relabeling moving x to 0 turns
    # into a lam_0 below ``first``
    bound = [sum(mask for low, mask in group if low >= ids[0])
             for group in _row_bounds(n)[1]]
    found = []
    complete = True

    def ybe_ok(j):
        """YBE1 at the quadruples (x, y, w, u) peaking at row j that
        ``_pin`` leaves open: x = j, or w = lam_x(y) = j.

        Quadruples on rows below j were checked at an earlier depth, and
        one with w or u above j waits for that row.
        """
        a = ids[j]
        left = comp[a]
        for y, w in enumerate(perms[a][:j + 1]):
            if w <= j:
                u = q[w]
                if u <= j and left[ids[y]] != comp[ids[w]][ids[u]]:
                    return False
        u = q[j]
        if u <= j:
            right = left[ids[u]]
            for ix in ids[:j]:
                y = inv[ix][j]
                if y <= j and comp[ix][ids[y]] != right:
                    return False
        return True

    def walk(domain):
        nonlocal complete
        j = len(ids)
        if j == n:
            lam = tuple(perms[a] for a in ids)
            form, _, aut = canonical_table(lam)
            found.append((form, aut, lam))
            return
        # look ahead: stop at the first row left with no candidate
        rest = domain & bound[j] & _pin(ids, q, tables, j)
        for t in range(j + 1, n):
            if not (rest and domain & bound[t] & _pin(ids, q, tables, t)):
                return
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            ids.append(a)
            q.append(inv[a][j])
            if ybe_ok(j):
                if _expired(deadline):
                    complete = False
                else:
                    walk(domain & compat[a])
            ids.pop()
            q.pop()
            if not complete:
                return

    if bound[0] >> ids[0] & 1:
        walk(compat[ids[0]])
    return found, complete


@lru_cache(maxsize=MAX_POINTS)
def _relabelings(n):
    """(index, g) for the transposition (0 1) and the n-cycle g, which
    generate Sym(n); both are (0 1) at n = 2, and n = 1 needs none.  Entry
    i of the relabeling g lam g^-1, g q g^-1 of a member flattened as its
    lam rows, then q, is g of entry index[i]."""
    gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)][:n - 1]
    return tuple((tuple([b * n + c for b in back for c in back]
                        + [n * n + b for b in back]), g)
                 for g in gens for back in [inverse(g)])


def _class_members(rep, aut):
    """The n!/aut relabelings of a promoted class representative: its
    Sym(n)-orbit, ``rep`` first, grown by the generators of
    :func:`_relabelings`.

    A relabeling carries q' = g q g^-1 along, with rho' = q'(lam') and the
    same d.  ``promote`` has checked ``rep``; each other member gets one
    ``check`` when it is reached, before its images are taken, which
    certifies q' too: each lam'_w is a bijection and lam'_w(q'(w)) = w.
    """
    n = rep.n
    flats = [tuple(chain.from_iterable(rep.lam)) + rep.q]
    seen = set(flats)
    members = [rep]
    for flat in flats:   # grows while it is read
        for index, g in _relabelings(n):
            image = _gather(g, _gather(flat, index))
            if image not in seen:
                lam = tuple(image[i:i + n] for i in range(0, n * n, n))
                q = image[n * n:]
                s = Solution(n, lam, forced_rho(lam, q), q, rep.d)
                report = check(s)
                if not report.ok:
                    raise InvalidSolutionError(report)
                members.append(s)
                seen.add(image)
                flats.append(image)
    assert len(members) * aut == factorial(n)
    return members


def enumerate_solutions(opts):
    """Every verified solution on n points, sorted by (canonical form, lam).

    The walk tries as lam_0 only the Stab(0)-orbit minima (see the module
    docstring) and finds the lam-smallest member of every class, the first
    leaf of its form and the only one promoted; with ``up_to_iso`` those
    members are the result.  Otherwise every distinct relabeling of each
    representative is verified and carries its form.  With ``jobs > 1``
    the slices run in a process pool, one worker per slice at most, and
    are merged in a fixed order, so the output does not depend on the
    worker count.  An expired budget stops every slice, or the relabeling
    between two classes, and yields a partial, incomplete result: each
    class found but not relabeled keeps its promoted representative.
    """
    # workers compare against the same deadline: the monotonic clock is
    # system-wide (CLOCK_MONOTONIC on Linux)
    deadline = (time.monotonic() + opts.budget_secs
                if opts.budget_secs is not None else None)
    firsts = _orbit_minima(opts.n)
    args = [opts.n] * len(firsts), firsts, [deadline] * len(firsts)
    if opts.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(opts.jobs, len(firsts))) as pool:
            slices = list(pool.map(_search_slice, *args))
    else:
        slices = list(map(_search_slice, *args))
    complete = all(done for _, done in slices)
    # by (form, lam): one form has one |Aut|
    leaves = sorted(chain.from_iterable(found for found, _ in slices))
    keyed = []
    for i, (form, aut, lam) in enumerate(leaves):
        try:   # validity is a class invariant: a failing form goes whole
            if not i or form != leaves[i - 1][0]:
                keyed.append((form, solution_from_lambda(lam), aut))
        except InvalidSolutionError:
            pass
    if not opts.up_to_iso:
        reps, keyed = keyed, []
        for canon, rep, aut in reps:
            complete = complete and not _expired(deadline)
            members = _class_members(rep, aut) if complete else [rep]
            keyed.extend((canon, s, aut) for s in members)
        keyed.sort(key=lambda cs: (cs[0], cs[1].lam))
    return EnumResult(tuple(cs[1] for cs in keyed), complete,
                      tuple(cs[0] for cs in keyed),
                      tuple(cs[2] for cs in keyed))


@dataclass(frozen=True)
class ClassificationRecord:
    """One isomorphism class: canonical table and structural signature."""

    canonical: tuple
    members: int
    diag_size: int
    d: int
    torsion_order: int
    torsion_table: tuple   # canonical group table
    family: str = None


def diagonal_strata(result):
    """{diagonal size: set of canonical forms} over an enumeration result,
    read from one member per form: relabeling keeps the diagonal size."""
    strata = {}
    for canon, s in dict(zip(result.canonical, result.solutions)).items():
        strata.setdefault(len(diagonal_image(s)), set()).add(canon)
    return strata


def classify(n):
    """Isomorphism classes on n points, in canonical-table order.

    One record per representative of the up-to-iso census; ``members``
    counts the labelled solutions of the class as n!/|Aut|.  The torsion
    group is X_u = {x : q^d(x) = u}, u = min q, under x . y = lam_dx(y).
    """
    result = enumerate_solutions(EnumOptions(n, up_to_iso=True))
    records = []
    for canon, rep, aut in zip(result.canonical, result.solutions,
                               result.aut):
        image = diagonal_image(rep)
        op, ends = word_level(rep, rep.d)
        xs = [x for x in range(n) if ends[x] == image[0]]
        local = {x: i for i, x in enumerate(xs)}
        table = tuple(tuple(local[op[x][y]] for y in xs) for x in xs)
        records.append(ClassificationRecord(
            canonical=canon,
            members=factorial(n) // aut,
            diag_size=len(image),
            d=rep.d,
            torsion_order=len(xs),
            torsion_table=canonical_table(table)[0],
            family=("permutation" if len(image) == n else
                    "group-automorphism" if len(image) == 1 else None),
        ))
    return records


def by_diag_size(n):
    """Class counts keyed by the size of the diagonal."""
    census = enumerate_solutions(EnumOptions(n, up_to_iso=True))
    return {size: len(forms) for size, forms in diagonal_strata(census).items()}


def partition_number(n):
    """Number of integer partitions of n, adding one part size at a time."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            p[m] += p[m - k]
    return p[n]


def _ints(value, name):
    """tuple(value) for a list of integers, else a ValueError naming it."""
    if not isinstance(value, (list, tuple)) or \
            any(type(v) is not int for v in value):
        raise ValueError(f"{name} must be a list of integers")
    return tuple(value)


def from_permutation(images):
    """The solution r(x, y) = (images[y], y): constant rows, full diagonal."""
    images = _ints(images, "images")
    if not is_perm(images):
        raise ValueError("images must be a permutation")
    return solution_from_lambda([images] * len(images))


def _group_axioms(table):
    """The group table as tuples of rows, and its identity element."""
    if not isinstance(table, (list, tuple)):
        raise ValueError("group table must be a list of rows")
    table = tuple(_ints(r, "group table rows") for r in table)
    n = len(table)
    _check_table(table, n, "group table")
    for _, p in failures(associativity(table), 3, n):
        raise ValueError(f"associativity fails at {p}")
    e = None
    for c in range(n):
        if all(table[c][x] == x == table[x][c] for x in range(n)):
            e = c
            break
    if e is None:
        raise ValueError("no identity element")
    for x in range(n):
        if e not in table[x]:
            raise ValueError(f"no inverse for {x}")
    return table, e


def from_group_automorphism(table, phi):
    """The latin solution lam_x(y) = x . phi(y) over a verified group table."""
    table, e = _group_axioms(table)
    phi = _ints(phi, "phi")
    n = len(table)
    if len(phi) != n or not is_perm(phi):
        raise ValueError("phi must be a permutation of the group")
    for _, p in failures(homomorphism(phi, table, range(n)), 2, n):
        raise ValueError(f"phi is not a homomorphism at {p}")
    rows = [tuple(table[x][phi[y]] for y in range(n)) for x in range(n)]
    s = solution_from_lambda(rows)
    assert diagonal_image(s) == (e,)
    assert all(v == e for row in s.rho for v in row)
    return s


def is_latin(s):
    """Whether x -> lam_x(y) is bijective for every y."""
    n = s.n
    return all(len({s.lam[x][y] for x in range(n)}) == n for y in range(n))


def check_closed_forms(n):
    """The census on n points against the paper's two closed forms.

    The full-diagonal classes must be exactly the constant-row solutions
    ``from_permutation(p)``, one class per cycle type of p: built from the
    orbit minima of the walk, which hold every cycle type, they must give
    p(n) distinct classes, so a cycle type missing from the minima fails.
    At prime n the only other classes must be the n - 1 latin solutions
    over Z_n with phi(y) = a y.  At composite n the singleton diagonal
    also holds groups other than Z_n, and it is not checked.
    """
    strata = diagonal_strata(enumerate_solutions(EnumOptions(n, up_to_iso=True)))
    full = {canonical_form(from_permutation(p)) for p in _orbit_minima(n)}
    if strata.get(n) != full or len(full) != partition_number(n):
        return False
    if n == 1 or any(n % k == 0 for k in range(2, n)):
        return True
    zn = [[(x + y) % n for y in range(n)] for x in range(n)]
    latin = {canonical_form(from_group_automorphism(
        zn, [a * y % n for y in range(n)])) for a in range(1, n)}
    return strata.keys() == {1, n} and strata[1] == latin \
        and len(latin) == n - 1


def from_rees_example(group, ncols, A, t, f, psi):
    """Descriptor over M(G, 1, ncols, J) with q folding columns onto A.

    ``t`` maps the complement columns bijectively onto A, ``f`` is an
    automorphism of the group table, and ``psi`` is a column permutation
    fixing A pointwise.  Point (g, i) is encoded as g * ncols + i.
    The descriptor comes back with its independent reports.
    """
    group, e = _group_axioms(group)
    order = len(group)
    if type(ncols) is not int or ncols < 2 or ncols % 2 != 0:
        raise ValueError("ncols must be a positive even integer")
    if not isinstance(A, (list, tuple)) or len(A) != ncols // 2 \
            or any(type(c) is not int or c not in range(ncols) for c in A):
        raise ValueError("A must be half of the columns")
    A = tuple(sorted(A))
    b_cols = tuple(sorted(set(range(ncols)) - set(A)))
    numerals = {str(c): c for c in range(ncols)}   # "2" and 2, not "02"
    if not isinstance(t, dict) or not all(str(k) in numerals for k in t):
        raise ValueError("t must be an object mapping columns to columns")
    size, t = len(t), {numerals[str(k)]: v for k, v in t.items()}
    if len(t) < size or any(type(v) is not int for v in t.values()) \
            or sorted(t) != list(b_cols) or sorted(t.values()) != list(A):
        raise ValueError("t must map the complement bijectively onto A")
    f = _ints(f, "f")
    if not is_perm(f) or len(f) != order:
        raise ValueError("f must be a permutation of the group")
    for _, p in failures(homomorphism(f, group, range(order)), 2, order):
        raise ValueError(f"f is not a homomorphism at {p}")
    psi = _ints(psi, "psi")
    if not is_perm(psi) or len(psi) != ncols:
        raise ValueError("psi must be a permutation of the columns")
    if any(psi[c] != c for c in A):
        raise ValueError("psi must fix A pointwise")

    n = order * ncols

    def enc(g, i):
        return g * ncols + i

    op = tuple(tuple(enc(group[w // ncols][v // ncols], v % ncols)
                     for v in range(n)) for w in range(n))
    theta = {c: (c if c in A else t[c]) for c in range(ncols)}
    q = tuple(enc(e, theta[w % ncols]) for w in range(n))
    phi_perm = tuple(enc(f[w // ncols], psi[w % ncols]) for w in range(n))
    return descriptor_report(Descriptor(n, op, q, (phi_perm,) * n))
