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

A completed tuple still receives the full exhaustive verification before
it is emitted; the pruning is an optimisation, never a proof.

Only the lexicographic minima of the orbits of Sym(n) under conjugation
by Stab(0) are tried as lam_0 (symmetry breaking in the spirit of Akgün,
Mereb & Vendramin, "Enumeration of set-theoretic solutions to the
Yang-Baxter equation", Math. Comp. 2022).  This finds every class:

  - relabeling X by psi conjugates the rows, lam'_{psi(x)} = psi lam_x
    psi^-1, so a relabeling that fixes 0 conjugates lam_0, and the lam_0
    values over one isomorphism class form a union of Stab(0) orbits;
  - the class member with the smallest lam has the smallest lam_0 of the
    class, which is the minimum of one of those orbits;
  - that member is the one ``up_to_iso`` keeps after the sort by
    (canonical form, lam), so the representatives are exactly those of
    the walk over all n! choices of lam_0.

The labelled census is the union of the Sym(n)-orbits of the
representatives, grown by two generators of Sym(n) (:func:`_class_members`);
each member is verified again by the exhaustive :func:`~ybx.core.check`.
"""

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial

from .core import (InvalidSolutionError, Solution, _check_table,
                   associativity, canonical_form, canonical_table, check,
                   diagonal_image, failures, forced_rho, homomorphism,
                   relabel_lambda, solution_from_lambda, word_level)
from .invariants import Descriptor, descriptor_report
from .perms import compose, inverse, is_perm

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
    never builds the n = 7 tables (about 2 s and 420 MB).

    ``comp`` is built by columns: ``rights[i][a]`` is the id of perms[a] . s
    for the transposition s of i and i + 1, and column p = r . s is
    ``rights[i]`` applied to column r.  Only those tables hash permutations.
    """
    perms = tuple(sorted(permutations(range(n))))
    ids = {p: a for a, p in enumerate(perms)}
    rights = [[ids[p[:i] + (p[i + 1], p[i]) + p[i + 2:]] for p in perms]
              for i in range(n - 1)]
    cols = [range(len(perms))]   # id 0 is the identity
    for a, p in enumerate(perms[1:], 1):
        # swapping the first descent gives r = p . s, with a smaller id
        i = next(i for i in range(n - 1) if p[i] > p[i + 1])
        cols.append(list(map(rights[i].__getitem__, cols[rights[i][a]])))
    comp = tuple(zip(*cols))
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
    inv = tuple(inverse(p) for p in perms)
    return perms, comp, inv, tuple(ids[p] for p in inv), tuple(compat)


@lru_cache(maxsize=MAX_POINTS)
def _orbit_minima(n):
    """The lexicographic minimum of each orbit of Stab(0) on Sym(n).

    Stab(0) acts by conjugation, p -> psi p psi^-1 with psi(0) = 0.
    Sym(n) is read in lexicographic order, so the first permutation met in
    each orbit is its minimum.  There are 1, 2, 4, 7, 12, 19, 30 of them
    for n = 1..7.
    """
    perms = _sym_index(n)[0]
    stab = [(psi, inverse(psi)) for psi in perms if psi[0] == 0]
    seen = set()
    minima = []
    for p in perms:
        if p not in seen:
            minima.append(p)
            seen.update(compose(compose(psi, p), inv) for psi, inv in stab)
    return tuple(minima)


def _complete_tuple(rows):
    """Full verification of a finished lam tuple; None when it fails."""
    try:
        return solution_from_lambda(rows)
    except InvalidSolutionError:
        return None


def _pin(ids, tables, t):
    """The ids YBE1 leaves for an unassigned row t >= j = len(ids) given
    rows 0..j-1, as a mask to AND into the domain: -1 when no quadruple
    fixes lam_t, one bit when some do, 0 when two of them force different
    ids.

    With w = lam_x(y) and u = q(w), the quadruples on rows 0..j-1 and t
    whose x and w lie below j are decided here:
      - y = t, u < j: lam_t = lam_x^-1 lam_w lam_u;
      - y, w < j, u = t: lam_t = lam_w^-1 lam_x lam_y;
      - y = t, u = t: lam_x lam_t = lam_w lam_t, so lam_x = lam_w.  Rows x
        and w agree at t (both send it to w), so on rows that pass the
        fixed-point filter this holds already.
    """
    perms, comp, inv, inv_id, _ = tables
    j = len(ids)
    q = [inv[a][w] for w, a in enumerate(ids)]
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


def _search_slice(n, first, deadline=None):
    """All verified solutions whose lam_0 equals the given permutation.

    Returns ([(canonical form, solution, |Aut|), ...], complete); an
    expired deadline stops the walk.
    """
    tables = _sym_index(n)
    perms, comp, inv, _, compat = tables
    ids = [perms.index(tuple(first))]
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
                iw = ids[w]
                u = inv[iw][w]
                if u <= j and left[ids[y]] != comp[iw][ids[u]]:
                    return False
        u = inv[a][j]   # q(j)
        if u <= j:
            right = left[ids[u]]
            for ix in ids[:j]:
                y = inv[ix][j]
                if y <= j and comp[ix][ids[y]] != right:
                    return False
        return True

    def walk(domain):
        nonlocal complete
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            return
        j = len(ids)
        if j == n:
            sol = _complete_tuple(tuple(perms[a] for a in ids))
            if sol is not None:
                form, _, aut = canonical_table(sol.lam)
                found.append((form, sol, aut))
            return
        # look ahead: stop at the first row left with no candidate
        rest = domain & _pin(ids, tables, j)
        for t in range(j + 1, n):
            if not (rest and domain & _pin(ids, tables, t)):
                return
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            ids.append(a)
            if ybe_ok(j):
                walk(domain & compat[a])
            ids.pop()
            if not complete:
                return

    walk(compat[ids[0]])
    return found, complete


def _slice_worker(args):
    return _search_slice(*args)


def _class_members(rep, aut):
    """The n!/aut relabelings of a class representative: its Sym(n)-orbit.

    The orbit grows from the representative by the transposition (0 1) and
    the n-cycle, which generate Sym(n).  A relabeling g carries
    q' = g q g^-1 along, with rho' = q'(lam') and the same d.  Each member
    gets one ``check`` before its images are taken, which certifies q' too:
    each lam'_w is a bijection and lam'_w(q'(w)) = w.
    """
    n = rep.n
    # at n = 2 both generators are (0 1), and n = 1 needs none
    gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)][:n - 1]
    members = [Solution(n, rep.lam, forced_rho(rep.lam, rep.q), rep.q, rep.d)]
    seen = {rep.lam}
    for s in members:   # grows while it is read
        report = check(s)
        if not report.ok:
            raise InvalidSolutionError(report)
        for g in gens:
            lam = relabel_lambda(s.lam, g)
            if lam not in seen:
                seen.add(lam)
                q = tuple(map(g.__getitem__, map(s.q.__getitem__, inverse(g))))
                members.append(Solution(n, lam, forced_rho(lam, q), q, s.d))
    assert len(members) * aut == factorial(n)
    return members


def enumerate_solutions(opts):
    """Every verified solution on n points, sorted by (canonical form, lam).

    The walk tries as lam_0 only the Stab(0)-orbit minima (see the module
    docstring).  It finds the lam-smallest member of every isomorphism
    class, and with ``up_to_iso`` those members are the result.
    Otherwise every distinct relabeling of each representative is verified
    and carries the representative's canonical form.  With ``jobs > 1`` the
    slices run in a process pool, one worker per slice at most, and are
    merged in a fixed order, so the output does not depend on the worker
    count.  An expired budget stops every slice, or the relabeling between
    two classes, and yields a partial, incomplete result.
    """
    n = opts.n
    # workers compare against the same deadline: the monotonic clock is
    # system-wide (CLOCK_MONOTONIC on Linux)
    deadline = (time.monotonic() + opts.budget_secs
                if opts.budget_secs is not None else None)
    args = [(n, f, deadline) for f in _orbit_minima(n)]
    if opts.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(opts.jobs, len(args))) as pool:
            slices = list(pool.map(_slice_worker, args))
    else:
        slices = map(_slice_worker, args)

    keyed = []
    complete = True
    for found, done in slices:
        keyed.extend(found)
        complete = complete and done
    keyed.sort(key=lambda cs: (cs[0], cs[1].lam))
    keyed = [cs for i, cs in enumerate(keyed)
             if i == 0 or cs[0] != keyed[i - 1][0]]
    if not opts.up_to_iso:
        reps, keyed = keyed, []
        for canon, rep, aut in reps:
            if deadline is not None and time.monotonic() > deadline:
                complete = False
                break
            keyed.extend((canon, s, aut) for s in _class_members(rep, aut))
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
    """{diagonal size: set of canonical forms} over an enumeration result."""
    strata = {}
    for canon, s in zip(result.canonical, result.solutions):
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


def _cycle_types(n, largest):
    """One permutation of n points per cycle type with cycles of at most
    ``largest`` points, each cycle on consecutive points."""
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        yield from ((*range(1, k), 0, *(v + k for v in rest))
                    for rest in _cycle_types(n - k, k))


def check_closed_forms(n):
    """The census on n points against the paper's two closed forms.

    The full-diagonal classes must be exactly the constant-row solutions
    ``from_permutation(p)`` for one p per cycle type, p(n) pairwise
    distinct classes.
    At prime n the only other classes must be the n - 1 latin solutions
    over Z_n with phi(y) = a y.  At composite n the singleton diagonal
    also holds groups other than Z_n, and it is not checked.
    """
    strata = diagonal_strata(enumerate_solutions(EnumOptions(n, up_to_iso=True)))
    full = [canonical_form(from_permutation(p)) for p in _cycle_types(n, n)]
    if strata.get(n) != set(full) or \
            not len(set(full)) == len(full) == partition_number(n):
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
    if not isinstance(t, dict) or not all(str(k).isdecimal() for k in t):
        raise ValueError("t must be an object mapping columns to columns")
    t = {int(k): v for k, v in t.items()}
    if any(type(v) is not int for v in t.values()) \
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
