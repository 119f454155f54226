from fractions import Fraction

import pytest

from ybx import monoid
from ybx.core import (Solution, diagonal_image, forced_rho, lambda_word,
                      solution_from_lambda, word_levels)
from ybx.fixtures import (ALL_FIXTURES, SOL_PROJ3, SOL_SWAP2, SOL_TRIV,
                          SOL_Z2, SOL_Z3INV)
from ybx.invariants import semigroup, torsion
from ybx.monoid import (GQElem, MElem, ONE, arithmetic_discrepancies,
                        center_basis, component, conjugation_action, gq_degree,
                        gq_from, gq_identity, gq_inverse, gq_mul, growth,
                        is_cancellative, mul, normal_form, power, sigma,
                        sigma_discrepancies, torsion_elem)
from test_kernel_oracles import arithmetic_discrepancies_per_length


def test_mul_examples():
    assert mul(SOL_Z2, MElem(1, 1), MElem(1, 1)) == MElem(2, 0)
    assert mul(SOL_SWAP2, MElem(1, 0), MElem(1, 0)) == MElem(2, 1)
    for s in ALL_FIXTURES.values():
        for k in range(4):
            for x in range(s.n):
                e = MElem(k, x if k else 0)
                assert mul(s, ONE, e) == e
                assert mul(s, e, ONE) == e


def test_identity_equality_ignores_letter():
    assert MElem(0, 0) == MElem(0)
    with pytest.raises(ValueError):
        MElem(-1, 0)


def test_mul_associative_up_to_three_exponents():
    for s in ALL_FIXTURES.values():
        elems = [ONE] + [MElem(k, x) for k in range(1, 3 * s.d + 1)
                         for x in range(s.n)]
        for a in elems:
            for b in elems:
                ab = mul(s, a, b)
                for c in elems:
                    assert mul(s, ab, c) == mul(s, a, mul(s, b, c))


def test_component_examples():
    assert component(SOL_SWAP2, MElem(2, 0)) == 0
    assert component(SOL_SWAP2, MElem(1, 0)) == 1
    prod = mul(SOL_SWAP2, MElem(2, 0), MElem(1, 0))
    assert prod == MElem(3, 0)
    assert component(SOL_SWAP2, prod) == component(SOL_SWAP2, MElem(1, 0)) == 1
    with pytest.raises(ValueError):
        component(SOL_Z2, ONE)


def test_grading_law():
    for s in ALL_FIXTURES.values():
        elems = [MElem(k, x) for k in range(1, 2 * s.d + 1) for x in range(s.n)]
        for a in elems:
            for b in elems:
                assert component(s, mul(s, a, b)) == component(s, b)


def test_sigma_examples():
    assert sigma(SOL_Z2, 0, 1) == 0
    assert sigma(SOL_TRIV, 0, 0) == 0
    assert sigma(SOL_Z3INV, 2, 1) == 2
    for s in ALL_FIXTURES.values():
        assert sigma_discrepancies(s) == ()


def test_normal_form_examples():
    assert normal_form(SOL_Z2, [1, 1], 0) == (2, 0)
    for s in ALL_FIXTURES.values():
        for x in range(s.n):
            for t in range(s.n):
                assert normal_form(s, [x], t) == (1, x)
    # the word 00 multiplies to (2, 1); with t = 1 the normal letter is 0
    k, xp = normal_form(SOL_SWAP2, [0, 0], 1)
    assert (k, xp) == (2, 0)
    assert mul(SOL_SWAP2, MElem(1, 1), MElem(1, 0)) == MElem(2, 1)
    with pytest.raises(ValueError):
        normal_form(SOL_Z2, [], 0)


def test_normal_form_re_multiplies_everywhere():
    from itertools import product
    for s in ALL_FIXTURES.values():
        for length in range(1, 4):
            for word in product(range(s.n), repeat=length):
                for t in range(s.n):
                    k, xp = normal_form(s, word, t)
                    assert k == length
                    direct = ONE
                    for z in word:
                        direct = mul(s, direct, MElem(1, z))
                    redone = mul(s, power(s, MElem(1, t), k - 1), MElem(1, xp))
                    assert direct == redone


def test_growth_examples():
    rep = growth(SOL_Z2, 4)
    assert rep.model == rep.oracle == (2, 2, 2, 2)
    rep = growth(SOL_TRIV, 3)
    assert rep.model == rep.oracle == (1, 1, 1)
    rep = growth(SOL_PROJ3, 2)
    assert rep.model == rep.oracle == (3, 3)
    assert rep.discrepancies() == ()


def test_growth_oracle_counts_to_eight_on_small_fixtures():
    for s in (SOL_SWAP2, SOL_Z2):
        rep = growth(s, 8)
        assert rep.model == rep.oracle == (2,) * 8


def test_growth_builds_two_class_tables_at_any_bound(monkeypatch):
    # the class table of length 3 equals that of length 2 on a solution,
    # and each table is a function of the one before, so the counts repeat
    # from there
    built = []
    next_classes = monoid._next_classes
    monkeypatch.setattr(monoid, "_next_classes",
                        lambda *a: built.append(next_classes(*a)) or built[-1])
    n = 16
    s = solution_from_lambda([tuple((x - y) % n for y in range(n))
                              for x in range(n)])
    rep = growth(s, 20000)
    assert rep.model == rep.oracle == (16,) * 20000
    assert len(built) == 2


@pytest.mark.parametrize("bound", [3, 4, 20000])
@pytest.mark.parametrize("n", [8, 16, 24])
def test_growth_of_constant_rows_takes_one_step(monkeypatch, n, bound):
    # lam_x = f for every x: r(b, a) = (f(a), q(f(a))) depends on a alone,
    # so each class of length 2 is a last letter and the rows of length 2
    # equal the row of the empty prefix: the first state repeats
    built = []
    next_classes = monoid._next_classes
    monkeypatch.setattr(monoid, "_next_classes",
                        lambda *a: built.append(next_classes(*a)) or built[-1])
    for f in (tuple((y + 1) % n for y in range(n)), tuple(range(n))):
        built.clear()
        assert growth(solution_from_lambda([f] * n), bound).oracle == \
            (n,) * bound
        assert built == [(n, frozenset([tuple(range(n))]))]


def test_growth_unions_one_prefix_row_per_step(monkeypatch):
    # on Z_24 with x -> -x the joins of the first prefix row join the ends
    # of every other row's: each step gathers the roots at the joins of
    # every row and the joins of one row, each through both getters
    steps = []
    next_classes, getter = monoid._next_classes, monoid.itemgetter

    def step(n, left, right, state):
        steps.append([len(state[1]), 0])
        return next_classes(n, left, right, state)

    def counted(*ends):
        gather = getter(*ends)

        def run(seq):
            steps[-1][1] += 1
            return gather(seq)
        return run
    monkeypatch.setattr(monoid, "_next_classes", step)
    monkeypatch.setattr(monoid, "itemgetter", counted)
    n = 24
    s = solution_from_lambda([tuple((x - y) % n for y in range(n))
                              for x in range(n)])
    assert growth(s, 5).oracle == (n,) * 5
    assert steps == [[1, 2 * (1 + 1)], [n, 2 * (n + 1)]]


def test_word_classes_extend_the_counts_by_their_period(monkeypatch):
    # a stand-in step whose states of 2 and 3 classes alternate from
    # length 2 on: the counts repeat the pair, and no fourth state is built
    states = iter([(2, frozenset({(0, 1), (1, 0)})),
                   (3, frozenset({(0, 1), (2, 0)})),
                   (2, frozenset({(0, 1), (1, 0)}))])
    monkeypatch.setattr(monoid, "_next_classes", lambda *a: next(states))
    assert growth(SOL_Z2, 7).oracle == (2, 2, 3, 2, 3, 2, 3)


def test_is_cancellative_examples():
    ok, witness = is_cancellative(SOL_Z2, 5)
    assert ok and witness is None
    ok, witness = is_cancellative(SOL_TRIV, 5)
    assert ok
    ok, witness = is_cancellative(SOL_SWAP2, 5)
    assert not ok
    side, a, b, m = witness
    assert a != b
    if side == "right":
        assert mul(SOL_SWAP2, a, m) == mul(SOL_SWAP2, b, m)
    else:
        assert mul(SOL_SWAP2, m, a) == mul(SOL_SWAP2, m, b)


def test_cancellative_iff_singleton_diagonal():
    for s in ALL_FIXTURES.values():
        ok, _ = is_cancellative(s, 2 * s.d + 1)
        assert ok == (len(diagonal_image(s)) == 1)


def test_central_element_and_power_collapse():
    for s in ALL_FIXTURES.values():
        d = s.d
        for u in diagonal_image(s):
            cu = MElem(d, u)
            for k in range(1, 2 * d + 1):
                for x in range(s.n):
                    a = MElem(k, x)
                    if component(s, a) != u:
                        continue
                    assert mul(s, cu, a) == mul(s, a, cu)
                    assert power(s, a, d) == power(s, cu, k)


def test_center_basis_examples():
    basis = center_basis(SOL_TRIV, 1)
    assert basis == [(Fraction(1),)]
    assert center_basis(SOL_SWAP2, 2) == []
    assert center_basis(SOL_SWAP2, 1) == []
    # the structure monoid of SOL_Z2 is commutative: the generators
    # (1,0), (1,1) commute, so every degree is fully central
    basis = center_basis(SOL_Z2, 2)
    assert len(basis) == 2
    assert mul(SOL_Z2, MElem(1, 0), MElem(1, 1)) == \
        mul(SOL_Z2, MElem(1, 1), MElem(1, 0))


def test_center_contains_central_power_iff_singleton():
    for s in ALL_FIXTURES.values():
        d = s.d
        image = diagonal_image(s)
        basis = center_basis(s, d)
        if len(image) == 1:
            assert basis
            # the indicator of c_u solves the same linear system
            u = image[0]
            for g in range(s.n):
                assert mul(s, MElem(d, u), MElem(1, g)) == \
                    mul(s, MElem(1, g), MElem(d, u))
        else:
            for deg in range(1, d + 1):
                assert center_basis(s, deg) == []


def test_gq_mul_examples():
    s = SOL_SWAP2
    assert gq_mul(s, torsion_elem(s, 0, 0), torsion_elem(s, 1, 1)) == \
        torsion_elem(s, 1, 1)
    z = SOL_Z2
    assert gq_mul(z, torsion_elem(z, 0, 1), torsion_elem(z, 0, 1)) == \
        torsion_elem(z, 0, 0)
    for s in ALL_FIXTURES.values():
        for u in diagonal_image(s):
            e = gq_identity(s, u)
            for x in semigroup(s).xu_dict()[u]:
                t = torsion_elem(s, u, x)
                assert gq_mul(s, e, t) == t


def test_gq_torsion_matches_torsion_table():
    for s in ALL_FIXTURES.values():
        parts = semigroup(s).xu_dict()
        for u in diagonal_image(s):
            tab = torsion(s, semigroup(s), u)
            idx = {x: i for i, x in enumerate(tab.elements)}
            assert torsion_elem(s, u, u) == gq_identity(s, u)
            for x in parts[u]:
                for y in parts[u]:
                    prod = gq_mul(s, torsion_elem(s, u, x), torsion_elem(s, u, y))
                    assert prod == torsion_elem(s, u, tab.op[idx[x]][idx[y]])


def test_gq_cross_component_torsion_product():
    for s in ALL_FIXTURES.values():
        parts = semigroup(s).xu_dict()
        for u in diagonal_image(s):
            for v in diagonal_image(s):
                for x in parts[u]:
                    for y in parts[v]:
                        prod = gq_mul(s, torsion_elem(s, u, x),
                                      torsion_elem(s, v, y))
                        expect = torsion_elem(s, v, lambda_word(s, x, s.d)[y])
                        assert prod == expect


def test_gq_inverse_examples():
    z = SOL_Z2
    assert gq_inverse(z, gq_from(z, 1, 1)) == GQElem(0, 1, 1, 1)
    for s in ALL_FIXTURES.values():
        for u in diagonal_image(s):
            e = gq_identity(s, u)
            assert gq_inverse(s, e) == e
    z3 = SOL_Z3INV
    assert gq_inverse(z3, torsion_elem(z3, 0, 1)) == torsion_elem(z3, 0, 2)


def test_gq_inverse_is_inverse():
    for s in ALL_FIXTURES.values():
        for k in range(1, s.d + 1):
            for x in range(s.n):
                for m in (-1, 0, 1):
                    a = gq_from(s, k, x, m)
                    e = gq_identity(s, a.u)
                    assert gq_mul(s, a, gq_inverse(s, a)) == e
                    assert gq_mul(s, gq_inverse(s, a), a) == e


def test_gq_degree():
    s = SOL_Z2
    assert gq_degree(s, torsion_elem(s, 0, 1)) == 0
    assert gq_degree(s, gq_from(s, 1, 1)) == 1
    assert gq_degree(s, gq_identity(s, 0)) == 0


def test_conjugation_action_examples():
    ca = conjugation_action(SOL_Z2, 0)
    assert ca.as_dict() == {0: 0, 1: 1}
    assert ca.order == 1 and not ca.discrepancies

    ca = conjugation_action(SOL_SWAP2, 0)
    assert ca.as_dict() == {0: 0}

    # inversion on the three-element torsion group; its square is trivial
    ca = conjugation_action(SOL_Z3INV, 0)
    assert ca.as_dict() == {0: 0, 1: 2, 2: 1}
    assert ca.order == 2
    assert SOL_Z3INV.d % ca.order == 0
    assert not ca.discrepancies


def test_arithmetic_discrepancies_empty_on_fixtures():
    for s in ALL_FIXTURES.values():
        assert arithmetic_discrepancies(s) == ()


@pytest.mark.parametrize("claim, lam, q, d, found", [
    ("central-element-commutes",
     ((0, 2, 3, 1), (1, 0, 2, 3), (2, 3, 1, 0), (3, 2, 0, 1)), (0,) * 4, 4,
     {"central-element-commutes", "diagonal-word-identity",
      "fixed-point-alternative"}),
    ("power-collapse", ((0, 1, 2), (1, 0, 2), (2, 0, 1)), (0, 0, 0), 3,
     {"power-collapse", "fixed-point-alternative"}),
    ("diagonal-word-identity", ((0, 2, 1), (0, 1, 2), (0, 1, 2)), (0, 1, 2), 1,
     {"diagonal-word-identity", "fixed-point-alternative", "product-grading"}),
    ("fixed-point-alternative", ((0, 1, 2), (1, 0, 2), (2, 1, 0)), (0, 0, 0),
     6, {"fixed-point-alternative"}),
    ("q-power-identity", ((0, 1), (0, 1)), (1, 1), 1,
     {"q-power-identity", "central-element-commutes", "power-collapse",
      "derived-map-constant"}),
    ("q-period", ((0, 2, 1),) * 3, (0, 0, 1), 2,
     {"q-period", "q-power-identity", "central-element-commutes",
      "power-collapse", "product-grading", "derived-map-constant"}),
], ids=["C", "P", "D", "F", "Q", "T"])
def test_each_arithmetic_claim_fires(claim, lam, q, d, found):
    # census records (n <= 4) with one q entry or one lam row changed, rho
    # rebuilt as q . lam and d kept: each is caught by this claim, with the
    # others pinned beside it
    bent = Solution(len(lam), lam, forced_rho(lam, q), q, d)
    got = arithmetic_discrepancies(bent)
    assert {b.claim for b in got} == found
    assert claim in found
    assert got == arithmetic_discrepancies_per_length(bent)


@pytest.mark.parametrize("family, stored", [
    ("zn-neg", 3), ("cycle", 16), ("identity", 1),
], ids=["zn-neg", "cycle", "identity"])
def test_arithmetic_discrepancies_keep_few_word_levels(family, stored):
    # the grading scan reads lengths up to 2L = 4d, but the word levels
    # repeat from length 1 on, so one period of them is stored (building
    # every length kept 4d + 1; the right-multiplied power kept 1,129
    # levels on Z_24 with x -> -x)
    n = 16
    rows = {"zn-neg": [tuple((x - y) % n for y in range(n)) for x in range(n)],
            "cycle": [tuple((y + 1) % n for y in range(n))] * n,
            "identity": [tuple(range(n))] * n}[family]
    s = solution_from_lambda(rows)
    assert arithmetic_discrepancies(s) == ()
    assert len(word_levels(s)[0]) == stored
