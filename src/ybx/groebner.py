"""Quadratic binomial rewriting for structure algebras.

Words are tuples of letters 0..n-1, compared in degree-lexicographic
order.  Every rule replaces a two-letter factor by a smaller two-letter
factor, so reduction terminates; a system whose length-3 overlap words
all resolve to a common normal form has unique normal forms in every
degree, and counting irreducible words then counts a basis of the
algebra.

The defining relations of a solution identify each two-letter word w
with r(w).  A verified solution is idempotent, so r(w) is a fixed point
of r and the relation joins w only to it: the classes at degree 2 are
the fibers of r.  The bounded completion orients each fiber onto its
minimal word and reports any unresolved length-3 overlap as an
obstruction to quadratic confluence.
"""

from dataclasses import dataclass
from itertools import product
from operator import attrgetter

from .core import _gather, nth, periodic


@dataclass(frozen=True, order=True)
class Rule:
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True)
class RewriteSystem:
    """Quadratic rules over letters 0..n-1, ordered by their values."""

    n: int
    rules: tuple

    def __post_init__(self):
        rules = sorted(set(self.rules), key=attrgetter("lhs", "rhs"))
        object.__setattr__(self, "rules", tuple(rules))
        letters, lookup = set(range(self.n)), {}
        for rule in self.rules:
            if len(rule.lhs) != 2 or len(rule.rhs) != 2:
                raise ValueError("rules must be quadratic")
            if not letters.issuperset(rule.lhs + rule.rhs):
                raise ValueError(f"rule {rule} has a letter outside 0..{self.n - 1}")
            if (len(rule.rhs), rule.rhs) >= (len(rule.lhs), rule.lhs):
                raise ValueError(f"rule {rule} does not decrease the word order")
            if rule.lhs in lookup:
                raise ValueError(f"two rules share the left side {rule.lhs}")
            lookup[rule.lhs] = rule.rhs
        object.__setattr__(self, "_lookup", lookup)

    def rule_map(self):
        """Left side -> right side in the order of the rules; shared, not a copy."""
        return self._lookup

    def to_json(self):
        return {"n": self.n,
                "order": list(range(self.n)),
                "rules": [[list(r.lhs), list(r.rhs)] for r in self.rules]}


def constant_rules(n):
    """The confluent system of the constant-action solutions: yz -> 0z.

    The presentation collapses every product xy to yy, and interreduction
    keeps only the rules aiming at the minimal letter.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rules = tuple(Rule((y, z), (0, z)) for y in range(1, n) for z in range(n))
    return RewriteSystem(n, rules)


def reduce(rs, word):
    """Apply the leftmost applicable rule until the word is irreducible."""
    rules = rs.rule_map()
    w = list(word)
    i = 0
    while i + 1 < len(w):
        image = rules.get((w[i], w[i + 1]))
        if image is None:
            i += 1
        else:
            w[i], w[i + 1] = image
            i = 0
    return tuple(w)


def check_overlaps(rs):
    """Unresolved length-3 ambiguities; an empty list certifies confluence.

    Word abc is the code (a n + b) n + c.  ``first`` rewrites ab and
    ``second`` bc, each the identity where no rule applies; one step of
    :func:`reduce` is ``first`` where ab has a rule, else ``second``, and
    as each rule lowers its word, that step squared until idempotent is
    the normal form.  normal . first = normal . second off the overlaps,
    so one equality of whole maps certifies confluence, in O(n^3) memory;
    the codes where it fails are the unresolved overlaps, in order.
    """
    n, nn = rs.n, rs.n * rs.n
    image = list(range(nn))
    for (a, b), (c, d) in rs.rule_map().items():
        image[a * n + b] = c * n + d
    cube = list(range(nn * n))   # every code below is one of its ints
    first, second, normal = [], [], []
    for i in image:
        first += cube[i * n:i * n + n]
    for a in range(0, nn * n, nn):
        second += _gather(cube[a:a + nn], image)
    for p, i in enumerate(image):   # one step, squared below
        normal += (second if i == p else first)[p * n:p * n + n]
    normal = _gather(normal, normal)   # a tuple from here on
    while (twice := _gather(normal, normal)) != normal:
        normal = twice
    left, right = _gather(normal, first), _gather(normal, second)
    return [] if left == right else [
        tuple((v // nn, v // n % n, v % n) for v in words)
        for words in zip(cube, left, right) if words[1] != words[2]]


def normal_word_count(rs, max_deg):
    """Irreducible words per degree 1..max_deg, by adjacency counting."""
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    n = rs.n
    rules = rs.rule_map()
    sources = [[a for a in range(n) if (a, b) not in rules] for b in range(n)]
    vecs, start = periodic(lambda vec: tuple(
        sum(map(vec.__getitem__, col)) for col in sources), (1,) * n, max_deg)
    counts = list(map(sum, vecs))
    return [nth(counts, start, k) for k in range(max_deg)]


@dataclass(frozen=True)
class CompletionReport:
    confluent: bool
    unresolved: tuple
    nontrivial_relations: int
    status: str


def solution_rules(s):
    """Orient the defining relations of a solution and test confluence.

    Each word rewrites to the smallest word of its fiber under r; a fiber
    holds one fixed point, so n^2 minus the fibers relations are nontrivial.
    Returns the system and a completion report; when it is confluent,
    normal words are a basis and their counts must match the growth.
    """
    n = s.n
    fibers = {}
    rules = []
    # words arrive in lexicographic order, so the first of a fiber is its minimum
    for x, y in product(range(n), repeat=2):
        rep = fibers.setdefault((s.lam[x][y], s.rho[x][y]), (x, y))
        if rep != (x, y):
            rules.append(Rule((x, y), rep))
    rs = RewriteSystem(n, tuple(rules))

    unresolved = tuple(check_overlaps(rs))
    status = "confluent" if not unresolved else "not quadratically confluent"
    report = CompletionReport(not unresolved, unresolved, n * n - len(fibers), status)
    return rs, report
