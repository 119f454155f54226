import json
from math import factorial

import pytest

from ybx.core import (InvalidSolutionError, RMap, SolutionFormatError,
                      apply_r, canonical_form, canonical_table, check,
                      diagonal_image, dump_solution, failures, iso_check,
                      lambda_word, load_rmap, promote, q_power,
                      rmap_from_dict, rmap_from_lambda, solution_from_lambda,
                      word_level)
from ybx.fixtures import (ALL_FIXTURES, SOL_PROJ3, SOL_SWAP2, SOL_TRIV,
                          SOL_Z2, SOL_Z3INV)
from ybx.perms import compose, identity, inverse
from pointwise import identity_holds
from test_kernel_oracles import relabel_lambda


def as_rmap(s):
    return RMap(s.n, s.lam, s.rho)


def plain_lambda_word(s, x, k):
    """Straight-loop oracle for the cached recurrence."""
    p = s.lam[x]
    cur = x
    for _ in range(k - 1):
        cur = s.q[cur]
        p = compose(p, s.lam[cur])
    return p


def plain_q_power(s, x, k):
    """Straight-loop oracle for the tabulated q^k."""
    for _ in range(k):
        x = s.q[x]
    return x


def test_apply_r_examples():
    assert apply_r(as_rmap(SOL_TRIV), 0, 0) == (0, 0)
    assert apply_r(as_rmap(SOL_SWAP2), 0, 0) == (1, 0)
    assert apply_r(as_rmap(SOL_Z2), 1, 1) == (0, 0)
    with pytest.raises(ValueError):
        apply_r(as_rmap(SOL_Z2), 0, 2)


def test_failures_lexicographic_and_lazy():
    def odd_sums(x):
        return [(0, y) for y in range(3) if (x + y) % 2]
    assert list(failures(odd_sums, 2, 3)) == [
        (0, (0, 1)), (0, (1, 0)), (0, (1, 2)), (0, (2, 1))]
    # one call per prefix, in lexicographic order, none after the reader stops
    tried = []

    def kernel(x, y):
        tried.append((x, y))
        return [(1, 0), (0, 2), (1, 2)] if (x, y) == (0, 1) else []
    scan = failures(kernel, 3, 4)
    assert next(scan) == (1, (0, 1, 0))
    assert tried == [(0, 0), (0, 1)]
    assert list(scan) == [(0, (0, 1, 2)), (1, (0, 1, 2))]
    assert len(tried) == 16
    # arity 1: the kernel is called once, with no prefix
    assert list(failures(lambda: [(0, 2), (3, 4)], 1, 5)) == [
        (0, (2,)), (3, (4,))]


def test_check_valid_fixtures():
    for s in ALL_FIXTURES.values():
        report = check(as_rmap(s))
        assert report.ok
        assert report.first_counterexample is None


def test_check_perturbed_rho_breaks_idempotency():
    rho = tuple(tuple(1 - y for y in range(2)) for _ in range(2))
    m = RMap(2, SOL_SWAP2.lam, rho)
    report = check(m)
    assert not report.idempotent
    assert report.first_counterexample is not None
    name, points = report.first_counterexample
    assert not identity_holds(m, name, points)


def test_check_constant_map_not_nondegenerate():
    lam = ((0, 0), (0, 0))
    m = RMap(2, lam, ((0, 0), (0, 0)))
    report = check(m)
    assert not report.left_nondegenerate
    name, points = report.first_counterexample
    assert not identity_holds(m, name, points)


def test_first_counterexample_present_iff_failure():
    for s in ALL_FIXTURES.values():
        report = check(as_rmap(s))
        booleans = (report.ybe1, report.ybe2, report.ybe3,
                    report.left_nondegenerate, report.idempotent)
        assert (report.first_counterexample is None) == all(booleans)


def test_promote_examples():
    s = promote(as_rmap(SOL_Z2))
    assert s.q == (0, 0) and s.d == 2
    s = promote(as_rmap(SOL_PROJ3))
    assert s.q == (0, 1, 2) and s.d == 1
    s = promote(as_rmap(SOL_SWAP2))
    assert s.q == (1, 0) and s.d == 2


def test_promote_rejects_and_carries_report():
    rho = tuple(tuple(1 - y for y in range(2)) for _ in range(2))
    with pytest.raises(InvalidSolutionError) as info:
        promote(RMap(2, SOL_SWAP2.lam, rho))
    assert not info.value.report.idempotent


def test_lambda_word_examples():
    assert lambda_word(SOL_Z3INV, 1, 2) == (1, 2, 0)
    for s in ALL_FIXTURES.values():
        for x in range(s.n):
            assert lambda_word(s, x, 1) == s.lam[x]
    assert lambda_word(SOL_SWAP2, 1, 2) == identity(2)
    with pytest.raises(ValueError):
        lambda_word(SOL_Z2, 0, 0)


def test_lambda_word_matches_plain_recurrence():
    for s in ALL_FIXTURES.values():
        for x in range(s.n):
            for k in range(1, 3 * s.d + 3):
                assert lambda_word(s, x, k) == plain_lambda_word(s, x, k)
            for k in range(2 * s.d + 3):
                assert q_power(s, x, k) == plain_q_power(s, x, k)


def test_word_level_shared_by_concurrent_readers():
    # threads released together on fresh solutions all see the one table
    # stored per length, which a level stored twice would break; the
    # cache takes no part in equality
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    cycle = tuple((y + 1) % 8 for y in range(8))
    workers = 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            s = solution_from_lambda([cycle] * 8)
            start = threading.Barrier(workers, timeout=60)

            def read(_):
                start.wait()
                return [word_level(s, k) for k in range(40)]

            with ThreadPoolExecutor(workers) as pool:
                seen = list(pool.map(read, range(workers), timeout=60))
            for levels in seen:
                assert all(a is b for a, b in zip(levels, seen[0]))
    finally:
        sys.setswitchinterval(interval)
    assert seen[0][0] == ((identity(8),) * 8, identity(8))
    assert s == solution_from_lambda([cycle] * 8)
    assert hash(s) == hash(solution_from_lambda([cycle] * 8))
    with pytest.raises(ValueError):
        word_level(s, -1)


def test_q_power_examples():
    assert q_power(SOL_SWAP2, 0, 2) == 0
    assert q_power(SOL_Z3INV, 2, 7) == 0
    for s in ALL_FIXTURES.values():
        for x in range(s.n):
            assert q_power(s, x, 0) == x


def test_q_power_equals_inverse_word_image():
    # q^k(x) = lam_{kx}^-1(x) for 1 <= k <= 2d + 2, and q^(d+1) = q
    for s in ALL_FIXTURES.values():
        for x in range(s.n):
            for k in range(1, 2 * s.d + 3):
                assert q_power(s, x, k) == inverse(lambda_word(s, x, k))[x]
            assert q_power(s, x, s.d + 1) == s.q[x]


def test_fixed_point_alternative():
    for s in ALL_FIXTURES.values():
        for k in range(1, s.d + 1):
            rows = [lambda_word(s, x, k) for x in range(s.n)]
            for px in rows:
                for py in rows:
                    quot = compose(px, inverse(py))
                    assert quot == identity(s.n) or \
                        all(quot[i] != i for i in range(s.n))


def test_diagonal_word_is_identity():
    for s in ALL_FIXTURES.values():
        for u in diagonal_image(s):
            assert lambda_word(s, u, s.d) == identity(s.n)


def test_iso_check_examples():
    assert iso_check(SOL_Z2, SOL_Z2) == (0, 1)
    other = solution_from_lambda([[1, 0], [0, 1]])
    assert iso_check(SOL_Z2, other) == (1, 0)
    assert iso_check(SOL_Z2, SOL_SWAP2) is None
    with pytest.raises(ValueError):
        iso_check(SOL_Z2, SOL_TRIV)


def test_canonical_form_examples():
    assert canonical_form(SOL_TRIV) == (0,)
    other = solution_from_lambda([[1, 0], [0, 1]])
    flat_z2 = tuple(v for row in SOL_Z2.lam for v in row)
    flat_other = tuple(v for row in other.lam for v in row)
    assert canonical_form(SOL_Z2) == min(flat_z2, flat_other)
    flat_swap = tuple(v for row in SOL_SWAP2.lam for v in row)
    assert canonical_form(SOL_SWAP2) == flat_swap


def test_iso_iff_equal_canonical():
    sols = [SOL_Z2, SOL_SWAP2, solution_from_lambda([[1, 0], [0, 1]]),
            solution_from_lambda([[0, 1], [0, 1]])]
    for s1 in sols:
        for s2 in sols:
            witness = iso_check(s1, s2)
            assert (witness is not None) == \
                (canonical_form(s1) == canonical_form(s2))
            if witness is not None:
                assert relabel_lambda(s1.lam, witness) == s2.lam


class CountingRows(tuple):
    """A table that counts the rows read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_canonical_table_prunes_by_automorphisms(n):
    # a search visiting one leaf per automorphism reads 432,160 rows at n = 8
    table = CountingRows([identity(n)] * n)
    assert canonical_table(table)[2] == factorial(n)
    assert table.reads < 1000


@pytest.mark.parametrize("n, units", [(8, 4), (9, 6), (10, 4)])
def test_canonical_table_reads_few_rows_of_rigid_latin_tables(n, units):
    # lam_x(y) = x + y on Z_n: its automorphisms are the units of Z_n, and
    # the row of 0 fixes every point; labelling those fixed points one by
    # one read 23,481 rows at n = 8 and 2,179,409 at n = 10
    table = CountingRows([tuple((x + y) % n for y in range(n))
                          for x in range(n)])
    assert canonical_table(table)[2] == units
    assert table.reads < 2000


def test_json_round_trip(tmp_path):
    path = tmp_path / "z2.json"
    dump_solution(as_rmap(SOL_Z2), path)
    m = load_rmap(path)
    assert m.lam == SOL_Z2.lam and m.rho == SOL_Z2.rho


def test_json_missing_rho_is_derived():
    m = rmap_from_dict({"n": 2, "lambda": [[0, 1], [1, 0]]})
    assert m.rho == SOL_Z2.rho


def test_json_missing_rho_underivable():
    with pytest.raises(SolutionFormatError):
        rmap_from_dict({"n": 2, "lambda": [[0, 0], [0, 0]]})


def test_json_malformed():
    with pytest.raises(SolutionFormatError):
        rmap_from_dict({"n": 2})
    with pytest.raises(SolutionFormatError):
        rmap_from_dict({"n": 2, "lambda": [[0, 5], [1, 0]]})
    with pytest.raises(SolutionFormatError):
        rmap_from_dict([1, 2])


@pytest.mark.parametrize("lam, message", [
    ([[0, 1]], "lambda must have 2 rows"),
    ([[0, 1], [1]], "lambda rows must have length 2"),
    ([[0, 2], [1, 0]], "lambda entries must lie in [0, 2)"),
    ([[0, True], [1, 0]], "lambda entries must lie in [0, 2)"),
], ids=["short", "ragged", "out-of-range", "boolean"])
@pytest.mark.parametrize("rho", [None, [[0, 0], [1, 1]]],
                         ids=["derived-rho", "given-rho"])
def test_json_malformed_lambda_error_text(lam, message, rho):
    data = {"n": 2, "lambda": lam}
    if rho is not None:
        data["rho"] = rho
    with pytest.raises(SolutionFormatError) as err:
        rmap_from_dict(data)
    assert str(err.value) == message


def test_rho_always_recomputed():
    # a wrong rho next to valid lam must be caught, not silently trusted
    bad = RMap(2, SOL_Z2.lam, ((1, 1), (1, 1)))
    assert not check(bad).ok


def test_rmap_from_lambda_matches_fixture_tables():
    for s in ALL_FIXTURES.values():
        m = rmap_from_lambda(s.lam)
        assert m.rho == s.rho
