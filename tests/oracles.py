"""Reference implementations that the tests check the package against.

The package computes these quantities another way (the two-step derivative
through its difference operators, the closed-form constraint violation as a
running update, the nodal constraint on the tangent planes); these are the
plain formulas.
"""

import numpy as np
import scipy.sparse as sp

from sphereflow.kkt import _check_directions


def bdf2_derivative(u_n, u_prev, u_prev2, tau):
    """Two-step derivative (3 u_n - 4 u_prev + u_prev2) / (2 tau).

    Exact for quadratic sequences; satisfies the exact relations
    2*bdf2_derivative = 3*d_t u_n - d_t u_prev and
    2*(bdf2_derivative - d_t u_n) = tau * second_difference.
    """
    if tau <= 0:
        raise ValueError(f"step size must be positive, got {tau}")
    u_n, u_prev, u_prev2 = (np.asarray(u, dtype=float) for u in (u_n, u_prev, u_prev2))
    return (3.0 * u_n - 4.0 * u_prev + u_prev2) / (2.0 * tau)


def constraint_recursion_closed_form(sq0, sq1, d2sq, n, tau):
    """Closed-form solution of the squared-length difference equation.

    Solves (3/2) s_n - 2 s_{n-1} + (1/2) s_{n-2} = (3/2) tau**4 * d2sq[n]
    for the terminal value s_n, given s_0 = ``sq0``, s_1 = ``sq1`` and the
    inhomogeneities ``d2sq`` = [a_2, ..., a_n] (squared second differences).
    Inputs may be scalars or per-node arrays.  Returns

    -1/2 (1 - 3**-(n-1)) sq0 + 3/2 (1 - 3**-n) sq1
        + 3/2 tau**4 * sum_i (1 - 3**-(n+1-i)) d2sq[i],  i = 2..n
    """
    if n < 2:
        raise ValueError(f"closed form needs n >= 2, got {n}")
    if len(d2sq) != n - 1:
        raise ValueError(f"expected {n - 1} second-difference terms, got {len(d2sq)}")
    sq0, sq1 = np.asarray(sq0, dtype=float), np.asarray(sq1, dtype=float)
    out = -0.5 * (1.0 - 3.0 ** -(n - 1)) * sq0 + 1.5 * (1.0 - 3.0**-n) * sq1
    for i, a_i in enumerate(d2sq, start=2):
        out = out + 1.5 * tau**4 * (1.0 - 3.0 ** -(n + 1 - i)) * np.asarray(a_i, dtype=float)
    return out if out.ndim else float(out)


def assemble_constraint_rows(u_hat, free):
    """Rows of the linearized nodal constraint for directions ``u_hat``.

    Row k carries the three entries u_hat(free[k]) in that node's component
    columns 3k, 3k + 1, 3k + 2, so a (len(free), 3*len(free)) CSR matrix;
    ``free`` fixes the column layout.  Raises ``KktError`` at a degenerate
    direction, as the tangent-plane solve does.
    """
    directions = np.asarray(u_hat, dtype=float)[free]
    _check_directions(directions)
    k = len(directions)
    return sp.csr_matrix((directions.ravel(), np.arange(3 * k), np.arange(0, 3 * k + 1, 3)), shape=(k, 3 * k))


def dense_saddle_solve(b, directions, rhs):
    """(K, 3) primal and (K,) multipliers of B p + u_hat m = rhs, p_z . u_hat(z) = 0, by a dense solve.

    Solves the saddle-point system [[kron(B, I3), G^T], [G, 0]] with ``numpy.linalg.solve``,
    G the rows of :func:`assemble_constraint_rows` for the (K, 3) ``directions``.
    """
    k = len(directions)
    a = np.kron(b.toarray(), np.eye(3))
    g = assemble_constraint_rows(directions, np.arange(k)).toarray()
    matrix = np.block([[a, g.T], [g, np.zeros((k, k))]])
    sol = np.linalg.solve(matrix, np.concatenate([np.ravel(rhs), np.zeros(k)]))
    return sol[: 3 * k].reshape(k, 3), sol[3 * k :]
