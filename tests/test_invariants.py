from collections import Counter

import pytest

from ybx.core import (Solution, SolutionFormatError, diagonal_image,
                      lambda_word)
from ybx.fixtures import (ALL_FIXTURES, SOL_PROJ3, SOL_SWAP2, SOL_TRIV,
                          SOL_Z2, SOL_Z3INV)
from ybx.invariants import (Descriptor, Discrepancy, check_fineq, descriptor,
                            descriptor_from_dict, phi_maps,
                            q_image_in_idempotents, reconstruct, semigroup,
                            structure, torsion, torsion_iso)
from ybx.monoid import ONE, MElem, component
from ybx.perms import identity, inverse
from pointwise import fineq_holds, identity_holds


def test_component_of_examples():
    assert component(SOL_SWAP2, MElem(1, 0)) == 1
    assert component(SOL_SWAP2, MElem(2, 0)) == 0
    for k in range(1, 5):
        for x in range(2):
            assert component(SOL_Z2, MElem(k, x)) == 0
    with pytest.raises(ValueError):
        component(SOL_Z2, ONE)


def test_component_is_inverse_word_image():
    for s in ALL_FIXTURES.values():
        for k in range(1, 2 * s.d + 1):
            for x in range(s.n):
                u = component(s, MElem(k, x))
                assert inverse(lambda_word(s, x, k))[x] == u
                assert u in diagonal_image(s)


def test_partition_examples():
    def parts(s):
        return semigroup(s).xu_dict()

    assert parts(SOL_SWAP2) == {0: (0,), 1: (1,)}
    assert parts(SOL_Z2) == {0: (0, 1)}
    assert parts(SOL_TRIV) == {0: (0,)}
    assert parts(SOL_Z3INV) == {0: (0, 1, 2)}
    assert parts(SOL_PROJ3) == {0: (0,), 1: (1,), 2: (2,)}


def test_semigroup_examples():
    sg = semigroup(SOL_SWAP2)
    assert sg.op == ((0, 1), (0, 1))          # right-zero table
    assert sg.rees_base == 0
    assert sg.coords_dict() == {0: (0, 0), 1: (0, 1)}
    assert not sg.discrepancies

    sg = semigroup(SOL_Z2)
    assert sg.op == ((0, 1), (1, 0))          # addition mod 2
    assert sg.left_identities == (0,)

    sg = semigroup(SOL_Z3INV)
    assert sg.op == tuple(tuple((x + y) % 3 for y in range(3))
                          for x in range(3))  # addition mod 3


def test_semigroup_structure_everywhere():
    for s in ALL_FIXTURES.values():
        sg = semigroup(s)
        assert not sg.discrepancies
        image = diagonal_image(s)
        assert sg.left_identities == image
        assert sg.idempotents == image
        parts = sg.xu_dict()
        sizes = {len(v) for v in parts.values()}
        assert len(sizes) == 1
        assert s.n == len(image) * sizes.pop()


def test_semigroup_reports_component_membership():
    # a hand-made record whose q^d column disagrees with x . u: the rows
    # of SOL_PROJ3 with q shifted cyclically, so x . q(x) = q(x) != x
    s = SOL_PROJ3
    bent = Solution(s.n, s.lam, s.rho, (1, 2, 0), s.d)
    expected = tuple(Discrepancy("component-membership", (x, (x + 1) % 3))
                     for x in range(3))
    assert semigroup(bent).discrepancies == expected
    # u lies outside X_u here; the torsion sections still return
    assert structure(bent).discrepancies[:3] == expected


def test_structure_reports_each_claim_once():
    # SOL_SWAP2 with d = 1: x . y = lam_x(y) is not associative and its
    # left identities are not the diagonal; each failed claim appears
    # under one name, and the claims derived from the four semigroup
    # checks are not scanned
    s = Solution(2, SOL_SWAP2.lam, SOL_SWAP2.rho, SOL_SWAP2.q, 1)
    claims = Counter(b.claim for b in structure(s).discrepancies)
    assert claims == {
        "semigroup-associativity": 1, "left-identities-equal-diagonal": 1,
        "torsion-order-divides-exponent": 2, "lambda-from-phi": 4,
        "descriptor-identities": 1}


def test_torsion_examples():
    t = torsion(SOL_Z2, semigroup(SOL_Z2), 0)
    assert t.elements == (0, 1)
    assert t.op == ((0, 1), (1, 0))
    assert dict(t.orders) == {0: 1, 1: 2}

    t = torsion(SOL_SWAP2, semigroup(SOL_SWAP2), 0)
    assert t.elements == (0,)

    t = torsion(SOL_Z3INV, semigroup(SOL_Z3INV), 0)
    assert t.op == tuple(tuple((x + y) % 3 for y in range(3)) for x in range(3))
    assert dict(t.orders) == {0: 1, 1: 3, 2: 3}
    assert all(SOL_Z3INV.d % k == 0 for _, k in t.orders)

    with pytest.raises(ValueError):
        torsion(SOL_Z2, semigroup(SOL_Z2), 1)


def test_torsion_iso_examples():
    f, bad = torsion_iso(semigroup(SOL_SWAP2), 0, 1)
    assert f == {0: 1} and not bad
    f, bad = torsion_iso(semigroup(SOL_Z2), 0, 0)
    assert f == {0: 0, 1: 1} and not bad
    f, bad = torsion_iso(semigroup(SOL_PROJ3), 0, 2)
    assert f == {0: 2} and not bad


def test_phi_maps_examples():
    phi, bad = phi_maps(SOL_Z3INV, semigroup(SOL_Z3INV))
    assert not bad
    assert phi == ((0, 2, 1),) * 3            # negation for every point
    phi, bad = phi_maps(SOL_SWAP2, semigroup(SOL_SWAP2))
    assert phi == ((1, 0), (1, 0))
    phi, bad = phi_maps(SOL_PROJ3, semigroup(SOL_PROJ3))
    assert phi == (identity(3),) * 3


def test_descriptor_examples():
    dsc = descriptor(SOL_Z2)
    assert dsc.op == ((0, 1), (1, 0))
    assert dsc.q == (0, 0)
    assert dsc.phi == (identity(2),) * 2

    dsc = descriptor(SOL_SWAP2)
    assert dsc.op == ((0, 1), (0, 1))
    assert dsc.q == (1, 0)
    assert dsc.phi == ((1, 0), (1, 0))


def test_check_fineq_on_fixtures():
    for s in ALL_FIXTURES.values():
        rep = check_fineq(descriptor(s))
        assert rep.ok
        assert rep.counterexamples == ()
    rep = check_fineq(descriptor(SOL_Z2))
    assert rep.allphi is not None
    assert rep.allphi.automorphism and rep.allphi.phi_q_is_q2


def test_check_fineq_automorphism_failure_past_row_zero():
    # phi = (0, 0, 2) is not a bijection; it respects every product in
    # rows 0 and 1 and fails first at (2, 2)
    op = ((0, 0, 0), (0, 0, 0), (0, 0, 1))
    phi = (0, 0, 2)
    rep = check_fineq(Descriptor(3, op, (0, 0, 0), (phi,) * 3)).allphi
    assert not rep.automorphism
    assert rep.counterexamples[0] == ("automorphism", 2, 2)


def test_check_fineq_special_instance():
    # right-zero table on 4 points with a non-surjective idempotent fold
    op = tuple(tuple(y for y in range(4)) for _ in range(4))
    q = (0, 1, 0, 1)
    phi = (identity(4),) * 4
    dsc = Descriptor(4, op, q, phi)
    rep = check_fineq(dsc)
    assert rep.fineq1 and rep.fineq4
    assert rep.fineq2 and rep.fineq3          # computed, all hold here
    info = q_image_in_idempotents(dsc)
    assert info["contained"] and not info["onto"]
    m, ver = reconstruct(dsc)
    assert m.lam == (identity(4),) * 4
    assert ver.ybe1 and ver.ybe2 and ver.ybe3 and ver.left_nondegenerate
    assert not ver.idempotent                 # the identities do not force r2 = r
    name, points = ver.first_counterexample
    assert not identity_holds(m, name, points)


def test_fineq_counterexamples_reproduce():
    op = tuple(tuple(y for y in range(4)) for _ in range(4))
    dsc = Descriptor(4, op, (0, 1, 2, 0), ((1, 0, 2, 3),) * 4)
    rep = check_fineq(dsc)
    for name, points in rep.counterexamples:
        assert not fineq_holds(dsc, name, points)


def test_reconstruct_round_trips():
    for s in ALL_FIXTURES.values():
        dsc = descriptor(s)
        m, rep = reconstruct(dsc)
        assert rep.ok
        assert m.lam == s.lam and m.rho == s.rho


def test_no_structure_discrepancies_on_fixtures():
    for s in ALL_FIXTURES.values():
        assert structure(s).discrepancies == ()


def test_descriptor_from_dict_rejects_bool_q():
    data = {"n": 2, "op": [[0, 1], [1, 0]], "q": [True, True],
            "phi": [[0, 1], [0, 1]]}
    with pytest.raises(SolutionFormatError,
                       match="^q must be a length-n table of points$"):
        descriptor_from_dict(data)
