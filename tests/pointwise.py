"""The per-point predicates that the row kernels of ``core.failures`` replaced.

Each one evaluates a single identity at explicit points.  The nested-loop
oracles in ``test_kernel_oracles`` call them point by point, and the tests
re-evaluate reported counterexamples with them.
"""

from ybx.perms import is_perm


def associative_at(op, points):
    """(x . y) . z == x . (y . z) for the table op at points (x, y, z)."""
    x, y, z = points
    return op[op[x][y]][z] == op[x][op[y][z]]


def homomorphic_at(f, op, points):
    """f(x . y) == f(x) . f(y) for the map f and the table op at (x, y)."""
    x, y = points
    return f[op[x][y]] == op[f[x]][f[y]]


def identity_holds(m, name, points):
    """Re-evaluate one named identity of :func:`check` at explicit points."""
    lam, rho = m.lam, m.rho
    if name == "ybe1":
        x, y, z = points
        return lam[x][lam[y][z]] == lam[lam[x][y]][lam[rho[x][y]][z]]
    if name == "ybe2":
        x, y, z = points
        lhs = lam[rho[x][lam[y][z]]][rho[y][z]]
        rhs = rho[lam[x][y]][lam[rho[x][y]][z]]
        return lhs == rhs
    if name == "ybe3":
        x, y, z = points
        lhs = rho[rho[x][y]][z]
        rhs = rho[rho[x][lam[y][z]]][rho[y][z]]
        return lhs == rhs
    if name == "left_nondegenerate":
        (x,) = points
        return is_perm(lam[x])
    if name == "idempotent":
        x, y = points
        w, v = lam[x][y], rho[x][y]
        return lam[w][v] == w and rho[w][v] == v
    raise ValueError(f"unknown identity {name!r}")


def fineq_holds(dsc, name, points):
    """Re-evaluate one descriptor identity at explicit points."""
    op, q, phi = dsc.op, dsc.q, dsc.phi
    if name == "fineq4":
        (x,) = points
        return q[op[x][phi[x][q[x]]]] == q[x]
    x, y, z = points
    a = op[x][phi[x][y]]          # x . phi_x(y)
    b = op[y][phi[y][z]]          # y . phi_y(z)
    c = op[x][phi[x][b]]          # x . phi_x(y . phi_y(z))
    if name == "fineq1":
        return phi[x][b] == op[phi[x][y]][phi[a][phi[q[a]][z]]]
    if name == "fineq2":
        return phi[q[c]][q[b]] == q[op[a][phi[a][phi[q[a]][z]]]]
    if name == "fineq3":
        return q[phi[q[a]][z]] == q[phi[c][q[b]]]
    raise ValueError(f"unknown identity {name!r}")
