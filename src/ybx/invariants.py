"""Structural decomposition of a verified solution.

Everything here is downstream of one operation: x . y = lam_{dx}(y), which
turns the point set into a left cancellative simple semigroup whose
idempotents form the diagonal.  :func:`semigroup` reads that table, the
subsets X_u and the Rees matrix coordinates off the words of length d
(:func:`core.word_level`); the torsion group on each X_u, the isomorphisms
between them, the maps phi_x = lam at q^d(x) and the classification
descriptor (table, q, phi) are read from it, and :func:`structure`
assembles them with the descriptor's compatibility identities.
:func:`reconstruct` rebuilds r from a descriptor.

Structural claims are verified exhaustively on every call, each by one
section: the four semigroup axioms that imply the Rees structure by
:func:`semigroup`, the element orders by :func:`torsion`, and
lam_x(y) = x . phi_x(y) by :func:`phi_maps`.  A violated claim is reported
as a :class:`Discrepancy` value attached to the result; it is never
raised, so the library doubles as an empirical checker.
"""

from dataclasses import dataclass, field
from itertools import islice

from .core import (RMap, SolutionFormatError, VerificationReport, _check_table,
                   associativity, check, diagonal_image, failures, homomorphism,
                   word_level)
from .perms import is_perm


@dataclass(frozen=True)
class Discrepancy:
    """A structural claim that failed, with the witnessing data."""

    claim: str
    counterexample: tuple
    context: tuple = ()


@dataclass(frozen=True)
class SimpleSemigroupTable:
    """The operation x . y = lam_{dx}(y) with its verified structure.

    ``rees_coords[x] = (g, u)`` identifies x with the pair (x . base, column)
    of the Rees matrix form M(T, 1, |diagonal|, J) based at the smallest
    diagonal point.
    """

    op: tuple
    left_identities: tuple
    idempotents: tuple
    xu: tuple          # ((u, members...), ...) sorted by u
    rees_base: int
    rees_coords: tuple  # ((x, g, u), ...) sorted by x
    discrepancies: tuple

    def xu_dict(self):
        return {row[0]: row[1:] for row in self.xu}

    def coords_dict(self):
        return {x: (g, u) for x, g, u in self.rees_coords}


def _operation_discrepancies(op, prefix):
    """The first associativity failure and the first non-injective row;
    the associativity scan runs once per distinct row op[x]."""
    n = len(op)
    bad = [Discrepancy(f"{prefix}-associativity", p)
           for _, p in islice(failures(associativity(op), 3, n, op), 1)]
    bad.extend(Discrepancy(f"{prefix}-left-cancellative", p)
               for _, p in islice(failures(
                   lambda: [(0, x) for x in range(n) if len(set(op[x])) != n],
                   1, n), 1))
    return bad


def semigroup(s):
    """Build and verify the simple semigroup on the points of s.

    The rows lam_{dx} and the columns e(x) = q^d(x) are the words of length
    d, and X_u = {x : e(x) = u}.  Four claims are checked: associativity
    (A), left cancellation (L), left identities = the diagonal D (I) and
    x . e(x) = x (M).  The Rees structure follows, with b = min D:

    - e(x . y) = e(y), so each X_u is closed: z = x . y has
      z . e(y) = x . (y . e(y)) = z by A and M, z . e(z) = z by M, and
      row z is injective by L.
    - e(u) = u on D (u . e(u) is u by M and e(u) by I), and x . x = x =
      x . e(x) gives x = e(x) by L, so the idempotents are D.
    - x -> x . u maps X_b onto X_u, with inverse y -> y . b, and
      (x . y) . u = x . (u . (y . u)) = (x . u) . (y . u): the X_u cover X
      with equal sizes, n = |D| |X_b|, and the torsion groups are isomorphic.
    - x = (x . b) . e(x), so the Rees coordinates (x . b, e(x)) are
      injective, and (x . y) . b = (x . b) . (y . b) multiplies them.
    """
    n = s.n
    rng = range(n)
    image = diagonal_image(s)

    op, ends = word_level(s, s.d)
    bad = _operation_discrepancies(op, "semigroup")

    left_ids = tuple(u for u in rng if all(op[u][y] == y for y in rng))
    idem = tuple(x for x in rng if op[x][x] == x)
    if left_ids != image:
        bad.append(Discrepancy("left-identities-equal-diagonal", left_ids, image))

    parts = {u: tuple(x for x in rng if ends[x] == u) for u in image}
    # x lies in X_u exactly when x . u = x
    bad.extend(Discrepancy("component-membership", (x, ends[x]))
               for x in rng if op[x][ends[x]] != x)

    base = image[0]
    return SimpleSemigroupTable(
        op=op,
        left_identities=left_ids,
        idempotents=idem,
        xu=tuple((u,) + xs for u, xs in sorted(parts.items())),
        rees_base=base,
        rees_coords=tuple((x, op[x][base], ends[x]) for x in rng),
        discrepancies=tuple(bad),
    )


@dataclass(frozen=True)
class TorsionGroupTable:
    """The finite group carried by X_u, with operation x . y = lam_{dx}(y)."""

    u: int
    elements: tuple
    op: tuple        # op[i][j] is a point, indices follow ``elements``
    orders: tuple    # ((element, order), ...)
    discrepancies: tuple


def torsion(s, sg, u):
    """The torsion group on X_u, read from the semigroup table sg of s,
    with the order of each element; verifies that the orders divide d.

    Closure, the group axioms and lam_x = x . lam_u on X_u are claims on
    the whole table, implied by :func:`semigroup` and :func:`phi_maps`.
    """
    xs = sg.xu_dict().get(u)
    if xs is None:
        raise ValueError(f"{u} is not a diagonal point")
    op, d = sg.op, s.d
    table = tuple(tuple(op[x][y] for y in xs) for x in xs)

    orders, bad = [], []
    for x in xs:
        y, k = x, 1
        while y != u and k <= d + 1:
            y = op[y][x]
            k += 1
        orders.append((x, k))
        if d % k != 0:
            bad.append(Discrepancy("torsion-order-divides-exponent", (u, x, k)))

    return TorsionGroupTable(u, xs, table, tuple(orders), tuple(bad))


def torsion_iso(sg, u, v):
    """The isomorphism x -> x . v between the torsion groups of u and v."""
    parts = sg.xu_dict()
    if u not in parts or v not in parts:
        raise ValueError("both points must lie in the diagonal")
    op = sg.op
    xs, ys = parts[u], parts[v]
    f = tuple(row[v] for row in op)   # x -> x . v on every point
    bad = []
    if sorted(f[x] for x in xs) != sorted(ys):
        bad.append(Discrepancy("torsion-iso-bijective", (u, v)))
    # the scan runs on local indices into xs
    bad.extend(Discrepancy("torsion-iso-homomorphism", (u, v, xs[i], xs[j]))
               for _, (i, j) in failures(homomorphism(f, op, xs), 2, len(xs)))
    return {x: f[x] for x in xs}, tuple(bad)


def phi_maps(s, sg):
    """The permutations phi_x = lam at q^d(x); constant on each X_u.

    The defining property lam_x(y) = x . phi_x(y) is verified exhaustively
    against the semigroup table sg of s; any failure is returned alongside
    the maps.
    """
    # the Rees column of x is q^d(x)
    phi = tuple(s.lam[u] for _, _, u in sg.rees_coords)
    op = sg.op

    def row(x):
        opx = op[x]
        return [(0, y) for y, (v, p) in enumerate(zip(s.lam[x], phi[x]))
                if v != opx[p]]
    return phi, tuple(Discrepancy("lambda-from-phi", p)
                      for _, p in failures(row, 2, s.n))


@dataclass(frozen=True)
class Descriptor:
    """Classification data: semigroup table, diagonal map, phi permutations."""

    n: int
    op: tuple
    q: tuple
    phi: tuple


def descriptor_from_dict(data):
    try:
        n = data["n"]
        op = tuple(tuple(r) for r in data["op"])
        q = tuple(data["q"])
        phi = tuple(tuple(p) for p in data["phi"])
    except (KeyError, TypeError) as exc:
        raise SolutionFormatError("descriptor needs n, op, q, phi") from exc
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SolutionFormatError("n must be a positive integer")
    _check_table(op, n, "op")
    _check_table(phi, n, "phi")
    if len(q) != n or any(isinstance(v, bool) or not isinstance(v, int)
                          or not 0 <= v < n for v in q):
        raise SolutionFormatError("q must be a length-n table of points")
    return Descriptor(n, op, q, phi)


def descriptor(s):
    """The semigroup table, q and the phi maps of a solution."""
    return structure(s).descriptor


@dataclass(frozen=True)
class AllPhiReport:
    """The four reduced conditions when all phi_x coincide."""

    automorphism: bool
    phi_q_is_q2: bool
    q_is_q4: bool
    absorbs_q2: bool  # q(x . q^2(x)) = q(x)
    counterexamples: tuple


@dataclass(frozen=True)
class FineqReport:
    """Exhaustive evaluation of the four descriptor identities."""

    fineq1: bool
    fineq2: bool
    fineq3: bool
    fineq4: bool
    counterexamples: tuple  # ((name, points), ...)
    allphi: AllPhiReport = None
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", self.fineq1 and self.fineq2 and
                           self.fineq3 and self.fineq4)


FINEQ_NAMES = ("fineq1", "fineq2", "fineq3", "fineq4")


def check_fineq(dsc):
    """Evaluate the four compatibility identities of a descriptor.

    With a = x . phi_x(y), b = y . phi_y(z) and c = x . phi_x(b):

      fineq1  phi_x(b) = phi_x(y) . phi_a(phi_{q(a)}(z))
      fineq2  phi_{q(c)}(q(b)) = q(a . phi_a(phi_{q(a)}(z)))
      fineq3  q(phi_{q(a)}(z)) = q(phi_c(q(b)))
      fineq4  q(x . phi_x(q(x))) = q(x)

    A row kernel compares both sides of fineq1-3 over every z of (x, y)
    as lists and returns the z where they differ; what reads only y or
    only a is built once.  The scan keeps the first point of each identity
    and stops once all three have failed; it runs once per distinct pair
    (phi_x, op[x]), all the kernel reads of x.  When all phi_x coincide, the
    reduced conditions are evaluated as well and reported side by side.
    """
    n = dsc.n
    rng = range(n)
    op, q, phi = dsc.op, dsc.q, dsc.phi
    b_rows = [[op[y][p] for p in phi[y]] for y in rng]
    qb_rows = [[q[b] for b in row] for row in b_rows]
    # fineq2 and fineq3 compare a pair: its side at c and q(b) ...
    at_c = [[(phi[q[c]][v], q[phi[c][v]]) for v in rng] for c in rng]
    # ... and its side at a, with t = phi_a(phi_{q(a)}(z))
    by_a = []
    for a in rng:
        s = phi[q[a]]
        t = [phi[a][v] for v in s]
        by_a.append((t, [(q[op[a][v]], q[w]) for v, w in zip(t, s)]))

    def fineq_row(x, y):
        px, opx = phi[x], op[x]
        t, r12 = by_a[opx[px[y]]]
        pxb = [px[b] for b in b_rows[y]]    # phi_x(b)
        oppy = op[px[y]]
        left = pxb, [at_c[opx[v]][w] for v, w in zip(pxb, qb_rows[y])]
        right = [oppy[v] for v in t], r12
        if left == right:
            return ()
        return [(i, z) for z, (a, l, b, r) in enumerate(zip(*left, *right))
                for i, (u, v) in enumerate(zip((a, *l), (b, *r))) if u != v]

    firsts = {}   # the first point of each of fineq1-3
    for i, p in failures(fineq_row, 3, n, zip(phi, op)):
        firsts.setdefault(i, p)
        if len(firsts) == 3:
            break
    firsts.update(islice(failures(
        lambda: [(3, x) for x in rng if q[op[x][phi[x][q[x]]]] != q[x]],
        1, n), 1))

    allphi = None
    if len(set(phi)) == 1:
        f = phi[0]
        ce = [("automorphism",) + p
              for _, p in islice(failures(homomorphism(f, op, rng), 2, n), 1)]
        auto = is_perm(f) and not ce
        held = {"phi_q_is_q2": all(f[q[x]] == q[q[x]] for x in rng),
                "q_is_q4": all(q[x] == q[q[q[q[x]]]] for x in rng),
                "absorbs_q2": all(q[op[x][q[q[x]]]] == q[x] for x in rng)}
        ce.extend((name,) for name, ok in held.items() if not ok)
        allphi = AllPhiReport(auto, counterexamples=tuple(ce), **held)

    return FineqReport(
        counterexamples=tuple((FINEQ_NAMES[i], p) for i, p in sorted(firsts.items())),
        allphi=allphi,
        **{name: i not in firsts for i, name in enumerate(FINEQ_NAMES)})


def q_image_in_idempotents(dsc):
    """Whether im(q) lands in, and onto, the idempotents of the table."""
    idem = tuple(x for x in range(dsc.n) if dsc.op[x][x] == x)
    image = tuple(sorted(set(dsc.q)))
    inside = all(u in idem for u in image)
    onto = set(image) == set(idem)
    return {"q_image": image, "idempotents": idem,
            "contained": inside, "onto": onto}


def descriptor_diagnostics(dsc):
    """Structural checks on a free-standing descriptor table.

    The table must be an associative, left cancellative operation whose
    idempotents are left identities, the phi entries must be bijections,
    and im(q) must consist of idempotents.  Used for descriptors read from
    files; descriptors built from a verified solution satisfy all of this
    by construction.
    """
    rng = range(dsc.n)
    op = dsc.op
    bad = _operation_discrepancies(op, "descriptor")
    for x in rng:
        if op[x][x] == x and any(op[x][y] != y for y in rng):
            bad.append(Discrepancy("descriptor-idempotent-not-left-identity", (x,)))
    for x in rng:
        if not is_perm(dsc.phi[x]):
            bad.append(Discrepancy("descriptor-phi-not-bijective", (x,)))
    info = q_image_in_idempotents(dsc)
    if not info["contained"]:
        bad.append(Discrepancy("descriptor-q-image-not-idempotent",
                               info["q_image"], info["idempotents"]))
    return tuple(bad)


def reconstruct(dsc):
    """Candidate tables lam[x][y] = op[x][phi_x(y)], rho = q . lam.

    The result is always run through the full exhaustive check; validity
    is reported, never assumed from the identities alone.
    """
    rng = range(dsc.n)
    lam = tuple(tuple(dsc.op[x][dsc.phi[x][y]] for y in rng) for x in rng)
    rho = tuple(tuple(dsc.q[v] for v in row) for row in lam)
    m = RMap(dsc.n, lam, rho)
    return m, check(m)


@dataclass(frozen=True)
class DescriptorReport:
    """A descriptor, its identities and the check of its reconstruction."""

    descriptor: Descriptor
    fineq: FineqReport
    candidate: RMap
    verification: VerificationReport


def descriptor_report(dsc):
    """Both reports, computed independently; no validity is assumed."""
    return DescriptorReport(dsc, check_fineq(dsc), *reconstruct(dsc))


@dataclass(frozen=True)
class Structure:
    """The table-level sections of a solution, each computed once."""

    semigroup: SimpleSemigroupTable
    torsion: tuple      # one TorsionGroupTable per diagonal point, sorted
    descriptor: Descriptor
    fineq: FineqReport
    discrepancies: tuple


def structure(s):
    """Every table-level section of s and its discrepancies, in order: the
    semigroup; the torsion group of each diagonal point; phi; fineq.  The
    isomorphisms x -> x . u between the torsion groups follow from the
    semigroup claims (see :func:`semigroup`), so they are not scanned.

    The descriptor reuses the semigroup table and the phi maps, so a phi
    failure is reported, not raised.
    """
    sg = semigroup(s)
    tors = tuple(torsion(s, sg, u) for u in diagonal_image(s))
    phi, phi_bad = phi_maps(s, sg)
    dsc = Descriptor(s.n, sg.op, s.q, phi)
    fineq = check_fineq(dsc)
    bad = list(sg.discrepancies)
    for t in tors:
        bad.extend(t.discrepancies)
    bad.extend(phi_bad)
    if not fineq.ok:
        bad.append(Discrepancy("descriptor-identities", fineq.counterexamples))
    return Structure(sg, tors, dsc, fineq, tuple(bad))
