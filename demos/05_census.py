#!/usr/bin/env python3
"""Exhaustive census of small solutions.

The search walks over row assignments with two sound prunes and fully
verifies every completed table.  Classes with full diagonal are counted
by integer partitions; prime sizes split into exactly two families.
Both are read off one census by ``check_closed_forms``.
"""

from ybx import (by_diag_size, check_closed_forms, classify,
                 from_rees_example, partition_number)
from ybx.search import EnumOptions, enumerate_solutions

for n in (1, 2, 3, 4):
    result = enumerate_solutions(EnumOptions(n))
    classes = classify(n)
    print(f"n={n}: {len(result.solutions):4d} labeled solutions, "
          f"{len(classes):2d} classes, by diagonal size {by_diag_size(n)}")

print()
print("== full-diagonal classes against the partition numbers ==")
for n in (1, 2, 3, 4):
    full = sum(1 for r in classify(n) if r.diag_size == n)
    print(f"n={n}: {full} classes with full diagonal, p({n}) = {partition_number(n)},"
          f" agreement: {check_closed_forms(n)}")

print()
print("== prime sizes: constant-row family and cyclic-group family ==")
for p in (2, 3, 5):
    print(f"p={p}: families exhaust the classification:",
          check_closed_forms(p))

print()
print("== class signatures at n = 4 ==")
for rec in classify(4):
    print(f"diag={rec.diag_size} members={rec.members:2d} d={rec.d} "
          f"torsion order={rec.torsion_order} family={rec.family}")

print()
print("== a descriptor whose identities hold but whose map is not idempotent ==")
res = from_rees_example([[0]], 4, [0, 1], {2: 0, 3: 1}, [0], [0, 1, 2, 3])
print("identities:", res.fineq.ok,
      " direct check:", res.verification.ok,
      " first failure:", res.verification.first_counterexample)
print("(im(q) is contained in, but not onto, the idempotents; the two")
print(" reports come from independent code paths and disagree by design)")
