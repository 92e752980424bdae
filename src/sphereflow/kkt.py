"""Sparse KKT solves for the per-step linearly constrained systems.

Unknowns are ordered node-major: degree of freedom 3*k + c is component c
at the k-th free node.  The constraint block carries one row per free node,
along that node's extrapolated direction; a degenerate direction (zero, or
below ``DEGENERATE_REL_TOL`` times the largest) raises :class:`KktError`.
A constraint given as general sparse rows G is solved as the saddle-point
system [[A, G^T], [G, 0]].  One given as nodal directions is solved on the
tangent planes instead (Alouges 2008; Bartels 2016): with T a node-major
orthonormal basis of the kernel of those rows, the SPD system
T^T A T x = T^T rhs has two unknowns per node and p = T x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

TOL = 1e-12
DEGENERATE_REL_TOL = 1e-12

# the tangent-plane matrix is SPD: a symmetric ordering and diagonal pivots
# keep its LU fill well below COLAMD's (the indefinite saddle-point matrix
# keeps SuperLU's defaults)
_SPD_SPLU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


class KktError(Exception):
    """Raised when a KKT solve fails its residual contract or meets a degenerate direction."""


@dataclass
class KktSystem:
    """System matrix, constraint and right-hand side of one solve.

    a : (N, N) sparse, symmetric positive definite on the free DOFs
    g : (M, N) sparse constraint rows, or None
    rhs : (N,) vector
    directions : (N/3, 3) nodal constraint directions, or None.  They stand
        for the rows ``assemble_constraint_rows(directions, all nodes)``, one
        per node, and select the tangent-plane solve; ``g`` must then be
        None.  With neither, the solve is unconstrained.
    """

    a: sp.spmatrix
    g: sp.spmatrix | None
    rhs: np.ndarray
    directions: np.ndarray | None = None


@dataclass
class KktSolution:
    primal: np.ndarray
    multiplier: np.ndarray
    residual_primal: float
    residual_constraint: float


def _check_directions(directions):
    """Norms of the nodal ``directions``; raises :class:`KktError` at a degenerate one."""
    norms = np.linalg.norm(directions, axis=1)
    largest = norms.max(initial=0.0)
    bad = np.flatnonzero((norms < DEGENERATE_REL_TOL * largest) | (norms == 0.0))
    if bad.size:
        z = bad[0]
        raise KktError(
            f"KKT constraint direction {z} of {norms.size} is degenerate "
            f"(|u_hat| = {norms[z]:.3e}, largest {largest:.3e})"
        )
    return norms


def assemble_constraint_rows(u_hat, free):
    """Rows of the linearized nodal constraint for directions ``u_hat``.

    Row k carries the three entries u_hat(free[k]) in that node's component
    columns.  Raises :class:`KktError` at a degenerate direction.

    Parameters
    ----------
    u_hat : (nv, 3) nodal field of constraint directions
    free : index array of free nodes, defining the column layout

    Returns
    -------
    (len(free), 3*len(free)) CSR matrix.
    """
    directions = np.asarray(u_hat, dtype=float)[free]
    _check_directions(directions)
    k = len(directions)
    return sp.csr_matrix((directions.ravel(), np.arange(3 * k), np.arange(0, 3 * k + 1, 3)), shape=(k, 3 * k))


def tangent_basis(normals):
    """(3K, 2K) node-major CSR matrix T with orthonormal columns spanning the constraint kernel.

    Node k with unit normal ``normals[k]`` gets columns 2k and 2k + 1
    spanning its tangent plane (the branch-free frame of Duff et al. 2017).
    """
    k = normals.shape[0]
    x, y, z = normals.T
    sign = np.where(z >= 0.0, 1.0, -1.0)
    a = -1.0 / (sign + z)
    b = x * y * a
    # row 3k + c holds component c of node k's two frame vectors
    frames = np.array([[1.0 + sign * x * x * a, sign * b, -sign * x], [b, sign + y * y * a, -y]]).T
    cols = np.broadcast_to(2 * np.arange(k)[:, None, None] + np.arange(2), frames.shape)
    return sp.csr_matrix((frames.ravel(), cols.ravel(), np.arange(0, 6 * k + 1, 2)), shape=(3 * k, 2 * k))


def _checked_solve(matrix, rhs, finish, bound_p, what, splu_options):
    """Factor ``matrix``, solve, and enforce the residual contract.

    ``finish`` maps a solution of ``matrix x = rhs`` to a
    :class:`KktSolution` carrying the residuals of the original system.  One
    step of iterative refinement is applied if the first solve misses.
    """
    try:
        lu = splu(matrix, **splu_options)
    except RuntimeError as exc:
        raise KktError(f"KKT factorization failed ({what}): {exc}") from exc

    sol = lu.solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise KktError(f"KKT solve produced non-finite values ({what})")

    def missed(out):
        return out.residual_primal > bound_p or out.residual_constraint > TOL * (
            1.0 + np.linalg.norm(out.primal)
        )

    out = finish(sol)
    if missed(out):
        sol = sol + lu.solve(rhs - matrix @ sol)
        out = finish(sol)
    if missed(out):
        raise KktError(
            f"KKT residuals not reached (primal {out.residual_primal:.3e}, "
            f"constraint {out.residual_constraint:.3e}, tol {TOL:.1e}, {what}); "
            "system may be ill-conditioned"
        )
    return out


def _solve_saddle(a, g, rhs):
    n = a.shape[0]
    m = 0 if g is None else g.shape[0]
    if m == 0:
        kkt = a
        full_rhs = rhs
    else:
        kkt = sp.bmat([[a, g.T], [g, None]], format="csc")
        full_rhs = np.concatenate([rhs, np.zeros(m)])

    def finish(sol):
        p = sol[:n]
        rp = np.linalg.norm((kkt @ sol - full_rhs)[:n])
        rc = np.linalg.norm(g @ p) if m else 0.0
        return KktSolution(p, sol[n:], rp, rc)

    bound_p = TOL * (1.0 + np.linalg.norm(full_rhs))
    return _checked_solve(kkt, full_rhs, finish, bound_p, f"n={n}, m={m}", {})


def _solve_tangent(a, directions, rhs):
    n = a.shape[0]
    directions = np.asarray(directions, dtype=float)
    if directions.shape != (n // 3, 3) or n % 3:
        raise ValueError(f"directions must have shape ({n // 3}, 3) for n={n}, got {directions.shape}")
    norms = _check_directions(directions)
    normals = directions / norms[:, None]

    t = tangent_basis(normals)
    reduced = (t.T @ (a @ t)).tocsc()

    def finish(x):
        p = t @ x
        r = (a @ p - rhs).reshape(-1, 3)
        normal_part = np.sum(normals * r, axis=1)
        tangential = r - normals * normal_part[:, None]
        rc = np.linalg.norm(np.sum(directions * p.reshape(-1, 3), axis=1))
        return KktSolution(p, -normal_part / norms, np.linalg.norm(tangential), rc)

    bound_p = TOL * (1.0 + np.linalg.norm(rhs))
    return _checked_solve(reduced, t.T @ rhs, finish, bound_p, f"n={n}, m={norms.size}", _SPD_SPLU_OPTIONS)


def solve_kkt(system):
    """Direct solve of the constrained system A p + G^T m = rhs, G p = 0.

    Nodal ``directions`` are solved on the tangent planes, general rows
    ``g`` through the saddle-point matrix [[A, G^T], [G, 0]]; both give the
    same primal and multipliers.  The residual contract is
    ||A p + G^T m - rhs|| <= TOL*(1 + ||rhs||) and ||G p|| <= TOL*(1 + ||p||);
    one step of iterative refinement is applied if the first solve misses.
    Raises :class:`KktError` on a singular matrix, an unmet tolerance or a
    degenerate nodal direction.
    """
    a = system.a.tocsc()
    rhs = np.asarray(system.rhs, dtype=float)
    if system.directions is None:
        return _solve_saddle(a, system.g, rhs)
    if system.g is not None:
        raise ValueError("give the constraint either as rows g or as directions, not both")
    return _solve_tangent(a, system.directions, rhs)
