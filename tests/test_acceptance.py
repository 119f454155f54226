"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every expected value is exact (integer tables), so all tolerances
are exact equality.
"""

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

from ybx.core import RMap, canonical_form, check, diagonal_image, lambda_word
from ybx.fixtures import (ALL_FIXTURES, SOL_PROJ3, SOL_SWAP2, SOL_TRIV,
                          SOL_Z2, SOL_Z3INV)
from ybx.invariants import (check_fineq, descriptor, phi_maps, reconstruct,
                            semigroup, structure, torsion)
from ybx.monoid import (MElem, ONE, arithmetic_discrepancies, center_basis,
                        growth, is_cancellative, mul, normal_form, power)
from ybx.groebner import check_overlaps, constant_rules, normal_word_count
from ybx.perms import compose, identity
from ybx.search import (EnumOptions, classify, enumerate_solutions,
                        from_group_automorphism, from_permutation,
                        from_rees_example, is_latin, partition_number)

from pointwise import fineq_holds, identity_holds
from test_kernel_oracles import brute_force_solutions


@contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL: {text}")
        raise
    print(f"criterion {num:2d} PASS: {text}")


def all_solutions(n):
    return enumerate_solutions(EnumOptions(n)).solutions


def class_reps(n):
    return enumerate_solutions(EnumOptions(n, up_to_iso=True)).solutions


def test_criterion_01_fixture_verification():
    with criterion(1, "fixtures verify with exact q, diagonal, d, tables, phi"):
        expected = {
            "SOL_TRIV": ((0,), (0,), 1, ((0,),), (identity(1),)),
            "SOL_SWAP2": ((1, 0), (0, 1), 2, ((0, 1), (0, 1)),
                          ((1, 0), (1, 0))),
            "SOL_Z2": ((0, 0), (0,), 2, ((0, 1), (1, 0)),
                       (identity(2), identity(2))),
            "SOL_Z3INV": ((0, 0, 0), (0,), 6,
                          tuple(tuple((x + y) % 3 for y in range(3))
                                for x in range(3)),
                          ((0, 2, 1),) * 3),
            "SOL_PROJ3": ((0, 1, 2), (0, 1, 2), 1,
                          tuple(tuple(y for y in range(3)) for _ in range(3)),
                          (identity(3),) * 3),
        }
        for name, s in ALL_FIXTURES.items():
            report = check(RMap(s.n, s.lam, s.rho))
            assert report.ok, name
            q, image, d, op, phi = expected[name]
            assert s.q == q, name
            assert diagonal_image(s) == image, name
            assert s.d == d, name
            sg = semigroup(s)
            assert sg.op == op, name
            got_phi, bad = phi_maps(s, sg)
            assert got_phi == phi and not bad, name


def test_criterion_02_enumeration_ground_truth():
    with criterion(2, "enumerate(2) = 4, classify(2) = 3, pruned = unpruned for n <= 3"):
        sols = all_solutions(2)
        assert len(sols) == 4
        s = (1, 0)
        e = (0, 1)
        assert sorted(x.lam for x in sols) == sorted(
            [(e, e), (s, s), (e, s), (s, e)])
        assert len(classify(2)) == 3
        for n in (1, 2, 3):
            assert [x.lam for x in all_solutions(n)] == \
                [x.lam for x in brute_force_solutions(n)]


def test_criterion_03_full_diagonal_equals_partition_number():
    with criterion(3, "classes with full diagonal are counted by partitions (1, 2, 3, 5)"):
        expected = {1: 1, 2: 2, 3: 3, 4: 5}
        for n in (1, 2, 3, 4):
            full = [r for r in classify(n) if r.diag_size == n]
            p = partition_number(n)
            assert p == expected[n]
            assert len(full) == p
            for rec in full:
                lam = [rec.canonical[i * n:(i + 1) * n] for i in range(n)]
                assert len(set(lam)) == 1  # constant rows: r(x, y) = (phi(y), y)


def test_criterion_04_prime_classification():
    with criterion(4, "prime sizes split into the two families (exhaustive for 2, 3)"):
        for p in (2, 3):
            classes = {r.canonical for r in classify(p)}
            fam = {canonical_form(from_permutation(phi))
                   for phi in product(*[range(p)] * p)
                   if sorted(phi) == list(range(p))}
            table = tuple(tuple((x + y) % p for y in range(p)) for x in range(p))
            for a in range(1, p):
                phi = tuple((a * x) % p for x in range(p))
                if sorted(phi) == list(range(p)):
                    fam.add(canonical_form(from_group_automorphism(table, phi)))
            assert classes == fam, p
        # p = 5: the generative direction; members verify by construction
        from itertools import permutations
        type1 = {canonical_form(from_permutation(phi))
                 for phi in permutations(range(5))}
        table = tuple(tuple((x + y) % 5 for y in range(5)) for x in range(5))
        type2 = {canonical_form(from_group_automorphism(table, tuple((a * x) % 5 for x in range(5))))
                 for a in range(1, 5)}
        assert len(type1) == partition_number(5) == 7
        assert len(type2) == 4
        assert not (type1 & type2)


def test_criterion_05_descriptor_round_trip():
    with criterion(5, "descriptor -> reconstruct is exact and the identities hold (n <= 4)"):
        for n in (1, 2, 3, 4):
            for s in all_solutions(n):
                m, report = reconstruct(descriptor(s))
                assert report.ok
                assert m.lam == s.lam and m.rho == s.rho
                assert check_fineq(descriptor(s)).ok


def test_criterion_06_structure_lemmas():
    with criterion(6, "grading, centrality, power law, torsion and partition laws (n <= 4)"):
        for n in (1, 2, 3, 4):
            for s in all_solutions(n):
                st = structure(s)
                assert st.discrepancies == ()
                assert arithmetic_discrepancies(s) == ()
                image = diagonal_image(s)
                parts = st.semigroup.xu_dict()
                assert s.n == len(image) * len(parts[image[0]])
                for u in image:
                    t = torsion(s, st.semigroup, u)
                    assert not t.discrepancies
                    assert all(s.d % k == 0 for _, k in t.orders)
                    for x in parts[u]:
                        assert s.lam[x] == compose(
                            lambda_word(s, x, s.d), s.lam[u])


def test_criterion_07_growth_and_normal_forms():
    with criterion(7, "word classes are n per degree to 8; normal forms re-multiply"):
        for n in (1, 2, 3):
            for s in all_solutions(n):
                rep = growth(s, 8)
                assert rep.model == rep.oracle == (s.n,) * 8
        # growth is invariant under relabeling; class representatives
        # stand in for the 120 labeled solutions at n = 4
        for s in class_reps(4):
            rep = growth(s, 8)
            assert rep.model == rep.oracle == (4,) * 8
        for n in (1, 2, 3, 4):
            for s in class_reps(n):
                for word in product(range(s.n), repeat=3):
                    k, xp = normal_form(s, word, 0)
                    direct = ONE
                    for z in word:
                        direct = mul(s, direct, MElem(1, z))
                    assert direct == mul(
                        s, power(s, MElem(1, 0), k - 1), MElem(1, xp))


def test_criterion_08_algebra_equivalences():
    with criterion(8, "cancellative <=> latin <=> singleton diagonal <=> central element (n <= 4)"):
        for n in (1, 2, 3, 4):
            for s in all_solutions(n):
                singleton = len(diagonal_image(s)) == 1
                ok, witness = is_cancellative(s, 2 * s.d + 1)
                assert ok == singleton
                if witness is not None:
                    side, a, b, m = witness
                    if side == "right":
                        assert a != b and mul(s, a, m) == mul(s, b, m)
                    else:
                        assert a != b and mul(s, m, a) == mul(s, m, b)
                assert is_latin(s) == singleton
                assert bool(center_basis(s, s.d)) == singleton


def test_criterion_09_constant_rewriting_systems():
    with criterion(9, "constant-row systems are confluent with n normal words per degree"):
        for n in range(1, 9):
            rs = constant_rules(n)
            assert check_overlaps(rs) == []
            assert normal_word_count(rs, 8) == [n] * 8


def test_criterion_10_rees_probe():
    with criterion(10, "the folded-column probe emits both reports consistently"):
        res = from_rees_example([[0]], 4, [0, 1], {2: 0, 3: 1}, [0],
                                [0, 1, 2, 3])
        # identity report and direct check computed independently
        assert res.fineq.ok
        assert not res.verification.ok
        for name, points in res.fineq.counterexamples:
            assert not fineq_holds(res.descriptor, name, points)
        name, points = res.verification.first_counterexample
        assert not identity_holds(res.candidate, name, points)

        # exit-code contract through the CLI: 0 or 3, never a crash
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            params = f"{tmp}/p.json"
            with open(params, "w") as fh:
                json.dump({"group": [[0]], "ncols": 4, "A": [0, 1],
                           "t": {"2": 0, "3": 1}, "f": [0],
                           "psi": [0, 1, 2, 3]}, fh)
            # the child imports ybx from this checkout, installed or not
            env = dict(os.environ)
            src = str(Path(__file__).resolve().parent.parent / "src")
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            r = subprocess.run(
                [sys.executable, "-m", "ybx.cli", "construct",
                 "--type", "rees-example", "--params", params],
                capture_output=True, text=True, env=env)
            assert r.returncode in (0, 3)
            out = json.loads(r.stdout)
            assert out["fineq"]["ok"] != out["verification"]["ok"]
            assert r.returncode == 3
