#!/usr/bin/env python3
"""The left simple semigroup hiding inside a solution.

The operation x . y = lam_{dx}(y) makes the point set a left cancellative
simple semigroup: a union of isomorphic groups indexed by the diagonal,
in Rees matrix form M(T, 1, m, J).  Together with q and the maps
phi_x = lam at q^d(x), this data determines the solution completely.
"""

from ybx import (SOL_SWAP2, SOL_Z3INV, check_fineq, diagonal_image,
                 phi_maps, reconstruct, semigroup, structure, torsion,
                 torsion_iso)
from ybx.search import EnumOptions, enumerate_solutions

for s, name in ((SOL_Z3INV, "inversion over Z3"), (SOL_SWAP2, "two-point swap")):
    print(f"== {name}: n={s.n}, diagonal={diagonal_image(s)} ==")
    sg = semigroup(s)
    print("operation table:", sg.op)
    print("left identities:", sg.left_identities, "= idempotents:", sg.idempotents)
    print("partition:", sg.xu_dict())
    print("Rees coordinates (base %d):" % sg.rees_base, sg.coords_dict())
    for u in diagonal_image(s):
        t = torsion(s, sg, u)
        print(f"torsion group at {u}: elements={t.elements} orders={dict(t.orders)}")
    print("phi maps:", phi_maps(s, sg)[0])
    print()

print("== torsion groups over different diagonal points are isomorphic ==")
s4 = [x for x in enumerate_solutions(EnumOptions(4)).solutions
      if len(diagonal_image(x)) == 2][0]
print("a 4-point solution with diagonal", diagonal_image(s4))
st = structure(s4)   # every section, read from one semigroup table
u, v = diagonal_image(s4)
f, bad = torsion_iso(st.semigroup, u, v)
print(f"isomorphism X_{u} -> X_{v}:", f, "violations:", bad)

print()
print("== the classification data round trips ==")
dsc = st.descriptor
print("descriptor q:", dsc.q)
rep = check_fineq(dsc)
print("identities hold:", rep.ok, " all-phi-equal report:", rep.allphi)
m, ver = reconstruct(dsc)
print("reconstruction verified:", ver.ok,
      " tables match:", (m.lam, m.rho) == (s4.lam, s4.rho))
