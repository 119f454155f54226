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

Every exhaustive check runs through one scanner, :func:`failures`, which
calls a row kernel once per prefix of the points, not once per point.
"""

import json
from dataclasses import dataclass, field
from itertools import islice, product

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
    points reproduces the failure.
    """

    ybe1: bool
    ybe2: bool
    ybe3: bool
    left_nondegenerate: bool
    idempotent: bool
    first_counterexample: tuple = None

    @property
    def ok(self):
        return (self.ybe1 and self.ybe2 and self.ybe3
                and self.left_nondegenerate and self.idempotent)

    def to_json(self):
        return {
            "ybe1": self.ybe1,
            "ybe2": self.ybe2,
            "ybe3": self.ybe3,
            "left_nondegenerate": self.left_nondegenerate,
            "idempotent": self.idempotent,
            "first_counterexample": (list(self.first_counterexample)
                                     if self.first_counterexample else None),
            "ok": self.ok,
        }


class InvalidSolutionError(ValueError):
    """Rejection of a candidate, carrying the verification report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"candidate fails {report.first_counterexample}")


@dataclass(frozen=True)
class Solution:
    """A verified idempotent left non-degenerate solution.

    Immutable; built by :func:`promote`.  ``q`` is the diagonal map table
    and ``d`` the exponent of the group generated by the lam_x.  The word
    tables of :func:`word_level` are kept in ``_levels``, which takes no
    part in equality or hashing.
    """

    n: int
    lam: tuple
    rho: tuple
    q: tuple
    d: int
    _levels: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)


def failures(kernel, arity, n):
    """(index, point) for every failure of a row kernel on {0..n-1}^arity.

    ``kernel(*prefix)`` runs once per prefix of arity - 1 points, in
    lexicographic order, and returns the failing (identity index, last
    coordinate) pairs of that prefix in order of the last coordinate.  The
    points come lazily in lexicographic order: the first is the first
    counterexample of the nested loop, and the scan stops with its reader.
    """
    for prefix in product(range(n), repeat=arity - 1):
        for i, last in kernel(*prefix):
            yield i, prefix + (last,)


def _first_mismatches(left, right, pending):
    """(i, z) for the first z where a pending identity i fails in one row,
    in order of z; a reported identity leaves ``pending``.

    Each side holds the values of identity 0 over z, and the pairs of
    values of identities 1 and 2, which are compared as one.
    """
    if left == right:
        return ()
    (l0, l12), (r0, r12) = left, right
    sides = (l0, r0), *zip(zip(*l12), zip(*r12))
    found = sorted((next(z for z, (a, b) in enumerate(zip(lhs, rhs)) if a != b), i)
                   for i, (lhs, rhs) in enumerate(sides)
                   if lhs != rhs and i in pending)
    pending.difference_update(i for _, i in found)
    return [(i, z) for z, i in found]


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

    A row kernel evaluates the three Yang-Baxter identities at every z of
    (x, y); their right-hand sides read only (w, v) = r(x, y), so they are
    built once per such pair.  Each identity is evaluated until it fails.
    """
    lam, rho, n = m.lam, m.rho, m.n
    r = [list(zip(lam[x], rho[x])) for x in range(n)]
    pending, rights = {0, 1, 2}, {}

    def braid_row(x, y):
        lx, rx, ly, ry = lam[x], rho[x], lam[y], rho[y]
        wv = lx[y], rx[y]
        if wv not in rights:
            lw, rw, lv = lam[wv[0]], rho[wv[0]], lam[wv[1]]
            rights[wv] = ([lw[t] for t in lv],
                          list(zip([rw[t] for t in lv], rho[wv[1]])))
        # ybe2 and ybe3 compare the pair r(rho_{lam_y(z)}(x), rho_z(y))
        return _first_mismatches(
            ([lx[t] for t in ly], [r[rx[t]][a] for t, a in zip(ly, ry)]),
            rights[wv], pending)

    firsts = dict(islice(failures(braid_row, 3, n), 3))
    firsts.update(islice(failures(
        lambda: [(3, x) for x in range(n) if not is_perm(lam[x])], 1, n), 1))
    firsts.update(islice(failures(lambda x: [
        (4, y) for y, (w, v) in enumerate(zip(lam[x], rho[x]))
        if lam[w][v] != w or rho[w][v] != v], 2, n), 1))
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
    return tuple(tuple(map(q.__getitem__, row)) for row in lam)


def rmap_from_lambda(lam_rows):
    """Build an RMap from lam tables alone, deriving rho as q(lam[x][y])."""
    lam = tuple(tuple(r) for r in lam_rows)
    return RMap(len(lam), lam, forced_rho(lam, diagonal_map(lam)))


def solution_from_lambda(lam_rows):
    return promote(rmap_from_lambda(lam_rows))


def word_level(s, k):
    """(rows, ends) with rows[x] = lam_{kx} and ends[x] = q^k(x) for every x.

    Level 0 is the identity rows with ends = range(n); level k+1 is built
    from level k by lam_{(k+1)x} = lam_{kx} . lam_{q^k(x)} (right factor
    applied first).  Each level is built once per solution and kept on it,
    derived only from the one before it and stored by its length with
    ``setdefault``, so concurrent readers all see the same tables.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    levels = s._levels
    if not levels:
        ident = tuple(range(s.n))
        levels.setdefault(0, ((ident,) * s.n, ident))
    # the stored lengths are always 0..len(levels)-1
    for j in range(len(levels) - 1, k):
        rows, ends = levels[j]
        levels.setdefault(j + 1, (
            tuple(compose(row, s.lam[e]) for row, e in zip(rows, ends)),
            tuple(s.q[e] for e in ends)))
    return levels[k]


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


def relabel_lambda(lam, psi):
    """Conjugated table: row psi(x) maps psi(y) to psi(lam[x][y])."""
    back = inverse(psi)
    return tuple(tuple(map(psi.__getitem__, map(lam[x].__getitem__, back)))
                 for x in back)


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
    gens = [g for g in gens if all(g[p] == p for p in fixed)]
    if not gens:
        return None
    orbit = [None] * n
    for x in range(n):
        todo = [x]
        for y in todo:   # grows while it is read
            if orbit[y] is None:
                orbit[y] = x
                todo.extend(g[y] for g in gens)
    return orbit


def canonical_table(table):
    """(form, psi, aut): the exact lexicographic minimum over relabelings.

    ``form`` is the smallest row-major flattening of the conjugated table
    ``relabel_lambda(table, psi)`` over all n! relabelings, with no limit
    on n; a group table is canonicalized the same way as a lam table.
    ``psi`` is one relabeling reaching it and ``aut`` is the number of
    them, the order of the automorphism group of the table.

    Depth-first branch and bound in the spirit of individualize-and-refine
    (McKay & Piperno, "Practical graph isomorphism, II", J. Symb. Comput.
    2014), without a refinement that would reorder the labels.  Labels are
    handed out while row 0 is read cell by cell; row 0 is the row of the
    point labelled 0.  The only branches are the point for a label that is
    still free when its cell is reached; a cell whose value is an unlabelled
    point must take the next free label to stay minimal.  A branch whose
    prefix exceeds the best form so far is cut.  Every label is in use
    after row 0, and each leaf compares its full table with the best.

    Automorphism pruning.  A leaf equal to the best form gives the
    automorphism best^-1 . psi of the two labelings.  A branch skips a free
    point sharing an orbit with one already searched there, under the
    automorphisms found that fix every labelled point: these carry the one
    subtree onto the other and keep every leaf's form.  A node's count of
    leaves reaching the form sums, over the orbits of its free points, the
    orbit size times the count of one member searched since the form last
    changed.  Members of one orbit have isomorphic subtrees, so the count is
    exact however few automorphisms were found.  Without a refinement the
    search still visits more than one leaf per orbit: lam_x(y) = x + y on
    Z_7 (|Aut| = 6) takes 360 leaves.
    """
    n = len(table)
    psi = [-1] * n   # old point -> new label
    pi = [-1] * n    # new label -> old point
    form, best, gens = None, None, []   # best form, its pi, automorphisms

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
        """Fill cell (0, j) with labels 0..k-1 in use: (changed, count).

        ``tight`` says cells 0..j-1 equal those of ``form``; ``count`` is
        the number of leaves below reaching the form as it stands on return.
        """
        if j == n:
            return leaf()
        if pi[j] >= 0:
            return value(j, k, tight)
        # a free label: k == j and the labelled points are pi[:j]
        changed, counts, searched, orbit, seen = False, {}, [], None, 0
        for x in range(n):
            if psi[x] >= 0:
                continue
            if searched and len(gens) > seen:
                orbit, seen = _orbits(gens, pi[:j], n), len(gens)
            if orbit and any(orbit[y] == orbit[x] for y in searched):
                continue
            searched.append(x)
            psi[x], pi[j] = j, x
            # a new form shares this node's prefix
            improved, count = value(j, k + 1, tight or changed)
            psi[x] = pi[j] = -1
            if improved:
                changed, counts = True, {}
            counts[x] = count
        if not orbit:
            return changed, sum(counts.values())
        member = {orbit[x]: c for x, c in counts.items()}
        return changed, sum(member.get(orbit[x], 0)
                            for x in range(n) if psi[x] < 0)

    def value(j, k, tight):
        v = table[pi[0]][pi[j]]
        label = psi[v]
        forced = label < 0
        if forced:
            label = psi[v] = k
            pi[k] = v
            k += 1
        result = False, 0
        if not (tight and label > form[j]):
            result = cell(j + 1, k, tight and label == form[j])
        if forced:
            psi[v] = pi[label] = -1
        return result

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
    if isinstance(n, bool) or not isinstance(n, int):
        raise SolutionFormatError("n must be an integer")
    rho = data.get("rho")
    try:
        lam = tuple(tuple(row) for row in lam)
        rho = None if rho is None else tuple(tuple(row) for row in rho)
    except TypeError as exc:
        raise SolutionFormatError("lambda and rho must be lists of rows") from exc
    _check_table(lam, n, "lambda")
    if rho is not None:
        return RMap(n, lam, rho)
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rmap_to_dict(m), fh, sort_keys=True)
        fh.write("\n")
