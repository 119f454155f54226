#!/usr/bin/env python3
"""Building candidate maps and verifying them.

A candidate is a pair of tables: lam[x] lists the images of the first
output of r(x, .), and rho[x][y] is the second output of r(x, y).  The
checker evaluates the three Yang-Baxter identities, bijectivity of every
row, and idempotency, all exhaustively.
"""

from dataclasses import asdict

from ybx import (RMap, SOL_SWAP2, SOL_Z2, apply_r, check, promote,
                 rmap_from_lambda, solution_from_lambda)

print("== a valid candidate: lam_x(y) = x + y mod 2 ==")
m = rmap_from_lambda([[0, 1], [1, 0]])
print("lambda:", m.lam)
print("rho:   ", m.rho, "(derived as q applied to lambda)")
report = check(m)
print("report:", asdict(report))

s = promote(m)
print("promoted: q =", s.q, " d =", s.d)
print("r(1, 1) =", apply_r(m, 1, 1))

print()
print("== breaking the rho table ==")
bad = RMap(2, SOL_SWAP2.lam, ((1, 0), (1, 0)))
report = check(bad)
print("ok:", report.ok)
print("first counterexample:", report.first_counterexample)

print()
print("== a non-example: a constant row is not a bijection ==")
report = check(RMap(2, ((0, 0), (0, 1)), ((0, 0), (0, 0))))
print("left nondegenerate:", report.left_nondegenerate)

print()
print("== the five stock solutions ==")
from ybx import ALL_FIXTURES, diagonal_image
for name, sol in ALL_FIXTURES.items():
    print(f"{name:10s} n={sol.n} q={sol.q} diagonal={diagonal_image(sol)} d={sol.d}")

print()
print("== solutions with equal tables up to relabeling are isomorphic ==")
from ybx import canonical_form, iso_check
other = solution_from_lambda([[1, 0], [0, 1]])
print("witness:", iso_check(SOL_Z2, other))
print("canonical forms equal:", canonical_form(SOL_Z2) == canonical_form(other))
