"""Sparse KKT solves for the per-step linearly constrained systems.

Unknowns are ordered node-major: degree of freedom 3*k + c is component c
at the k-th free node.  The constraint block carries one row per free node
whose extrapolated direction is non-degenerate.  A constraint given as
general sparse rows G is solved as the saddle-point system
[[A, G^T], [G, 0]].  One given as nodal directions is solved on the
tangent planes instead (Alouges 2008; Bartels 2016): with T a node-major
orthonormal basis of the kernel of those rows, the SPD system
T^T A T x = T^T rhs has two unknowns per constrained node and p = T x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

DEFAULT_TOL = 1e-12
ROW_DROP_REL_TOL = 1e-12

# the tangent-plane matrix is SPD: a symmetric ordering and diagonal pivots
# keep its LU fill well below COLAMD's (the indefinite saddle-point matrix
# keeps SuperLU's defaults)
_SPD_SPLU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


class KktError(Exception):
    """Raised when a KKT solve (tangent-plane or saddle-point) fails its residual contract."""


@dataclass
class KktSystem:
    """System matrix, constraint and right-hand side of one solve.

    a : (N, N) sparse, symmetric positive definite on the free DOFs
    g : (M, N) sparse constraint rows, or None
    rhs : (N,) vector
    directions : (N/3, 3) nodal constraint directions, or None.  They stand
        for the rows ``assemble_constraint_rows(directions, all nodes)`` and
        select the tangent-plane solve; ``g`` must then be None.  With
        neither, the solve is unconstrained.
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


def constrained_nodes(norms, row_drop_tol=None):
    """Mask of the nodes that carry a constraint row.

    A node keeps its row when |u_hat(z)| >= row_drop_tol, which defaults to
    ``ROW_DROP_REL_TOL`` times the largest of ``norms``.
    """
    if row_drop_tol is None:
        row_drop_tol = ROW_DROP_REL_TOL * (norms.max() if norms.size else 0.0)
    return norms >= row_drop_tol


def assemble_constraint_rows(u_hat, free, row_drop_tol=None):
    """Rows of the linearized nodal constraint for directions ``u_hat``.

    Row for free node z carries the three entries u_hat(z) in that node's
    component columns; nodes dropped by :func:`constrained_nodes` get no
    row (the constraint direction is undefined there).

    Parameters
    ----------
    u_hat : (nv, 3) nodal field of constraint directions
    free : index array of free nodes, defining the column layout
    row_drop_tol : float, defaults to 1e-12 * max_z |u_hat(z)| over free z

    Returns
    -------
    (M, 3*len(free)) CSR matrix with M <= len(free).
    """
    u_hat = np.asarray(u_hat, dtype=float)
    directions = u_hat[free]
    keep = np.flatnonzero(constrained_nodes(np.linalg.norm(directions, axis=1), row_drop_tol))
    m = keep.size
    rows = np.repeat(np.arange(m), 3)
    cols = (3 * keep[:, None] + np.arange(3)[None, :]).ravel()
    data = directions[keep].ravel()
    return sp.coo_matrix((data, (rows, cols)), shape=(m, 3 * len(free))).tocsr()


def tangent_basis(normals, keep):
    """Node-major T with orthonormal columns spanning the constraint kernel.

    A kept node with unit normal n gets two columns spanning n^perp (the
    branch-free frame of Duff et al. 2017); any other node gets its three
    unit columns, the semantics of a dropped constraint row.

    Parameters
    ----------
    normals : (K, 3) unit directions at the kept nodes (other rows ignored)
    keep : (K,) boolean mask of the kept nodes

    Returns
    -------
    (3K, 2*kept + 3*dropped) CSR matrix.
    """
    k = keep.size
    x, y, z = normals[keep].T
    sign = np.where(z >= 0.0, 1.0, -1.0)
    a = -1.0 / (sign + z)
    b = x * y * a
    frames = np.tile(np.eye(3), (k, 1, 1))
    frames[keep, :, 0] = np.column_stack([1.0 + sign * x * x * a, sign * b, -sign * x])
    frames[keep, :, 1] = np.column_stack([b, sign + y * y * a, -y])
    # row 3k + c holds frames[k, c, :width[k]] in columns first[k] + j
    width = np.where(keep, 2, 3)
    first = np.cumsum(width) - width
    comp = np.arange(3)
    used = np.broadcast_to(comp < width[:, None, None], frames.shape)
    cols = np.broadcast_to(first[:, None, None] + comp, frames.shape)[used]
    indptr = np.concatenate([[0], np.cumsum(np.repeat(width, 3))])
    return sp.csr_matrix((frames[used], cols, indptr), shape=(3 * k, int(width.sum())))


def _checked_solve(matrix, rhs, finish, bound_p, tol, what, splu_options):
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
        return out.residual_primal > bound_p or out.residual_constraint > tol * (
            1.0 + np.linalg.norm(out.primal)
        )

    out = finish(sol)
    if missed(out):
        sol = sol + lu.solve(rhs - matrix @ sol)
        out = finish(sol)
    if missed(out):
        raise KktError(
            f"KKT residuals not reached (primal {out.residual_primal:.3e}, "
            f"constraint {out.residual_constraint:.3e}, tol {tol:.1e}, {what}); "
            "system may be ill-conditioned"
        )
    return out


def _solve_saddle(a, g, rhs, tol):
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

    bound_p = tol * (1.0 + np.linalg.norm(full_rhs))
    return _checked_solve(kkt, full_rhs, finish, bound_p, tol, f"n={n}, m={m}", {})


def _solve_tangent(a, directions, rhs, tol):
    n = a.shape[0]
    directions = np.asarray(directions, dtype=float)
    if directions.shape != (n // 3, 3) or n % 3:
        raise ValueError(f"directions must have shape ({n // 3}, 3) for n={n}, got {directions.shape}")
    norms = np.linalg.norm(directions, axis=1)
    keep = constrained_nodes(norms)
    m = int(keep.sum())
    what = f"n={n}, m={m}"
    if np.any(norms[keep] == 0.0):
        raise KktError(f"KKT constraint has a vanishing direction ({what})")
    normals = np.zeros_like(directions)
    normals[keep] = directions[keep] / norms[keep, None]

    t = tangent_basis(normals, keep)
    reduced = (t.T @ (a @ t)).tocsc()

    def finish(x):
        p = t @ x
        r = (a @ p - rhs).reshape(-1, 3)
        normal_part = np.sum(normals * r, axis=1)
        tangential = r - normals * normal_part[:, None]
        rc = np.linalg.norm(np.sum(directions[keep] * p.reshape(-1, 3)[keep], axis=1))
        return KktSolution(p, -normal_part[keep] / norms[keep], np.linalg.norm(tangential), rc)

    bound_p = tol * (1.0 + np.linalg.norm(rhs))
    return _checked_solve(reduced, t.T @ rhs, finish, bound_p, tol, what, _SPD_SPLU_OPTIONS)


def solve_kkt(system, tol=DEFAULT_TOL):
    """Direct solve of the constrained system A p + G^T m = rhs, G p = 0.

    Nodal ``directions`` are solved on the tangent planes, general rows
    ``g`` through the saddle-point matrix [[A, G^T], [G, 0]]; both give the
    same primal and multipliers.  The residual contract is
    ||A p + G^T m - rhs|| <= tol*(1 + ||rhs||) and ||G p|| <= tol*(1 + ||p||);
    one step of iterative refinement is applied if the first solve misses.
    Raises :class:`KktError` on a singular matrix or an unmet tolerance.
    """
    a = system.a.tocsc()
    rhs = np.asarray(system.rhs, dtype=float)
    if system.directions is None:
        return _solve_saddle(a, system.g, rhs, tol)
    if system.g is not None:
        raise ValueError("give the constraint either as rows g or as directions, not both")
    return _solve_tangent(a, system.directions, rhs, tol)
