"""Sparse KKT solves for the per-step linearly constrained systems.

The nodal solve :func:`solve_kkt` takes a (K, K) scalar SPD block B that
acts on each component of a (K, 3) field, and one linearized constraint per
node, p_z . u_hat(z) = 0; a degenerate direction (zero, or below
``DEGENERATE_REL_TOL`` times the largest) raises :class:`KktError`.  It
solves on the tangent planes (Alouges 2008; Bartels 2016): with F_z an
orthonormal 3x2 frame of u_hat(z)^perp, the SPD system with 2x2 blocks
B_ij F_i^T F_j has two unknowns per node, and p_z = F_z x_z.  Its pattern
is that of B, whatever the directions, so :class:`TangentPlaneAnalysis`
does the pattern-only work once per block and each solve only fills in and
factors the values.  General sparse rows G on a 3N system A go through
:func:`solve_saddle`, which factors the saddle-point matrix
[[A, G^T], [G, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

TOL = 1e-12
DEGENERATE_REL_TOL = 1e-12

# the tangent-plane matrix is SPD: a symmetric minimum-degree ordering of
# the scalar block and diagonal pivots keep its LU fill well below COLAMD's
# (the indefinite saddle-point matrix keeps SuperLU's defaults); the
# ordering is found once per block, and each step factors the matrix
# permuted by it as it stands
_ORDERING_SPLU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}
_PERMUTED_SPLU_OPTIONS = dict(_ORDERING_SPLU_OPTIONS, permc_spec="NATURAL")


class KktError(Exception):
    """Raised when a KKT solve fails its residual contract or meets a degenerate direction."""


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
    columns 3k, 3k + 1, 3k + 2.  Raises :class:`KktError` at a degenerate
    direction.

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


def tangent_frames(normals):
    """(K, 3, 2) orthonormal frames of the planes normal to the unit ``normals``.

    ``frames[k]`` has the two frame vectors of node k as columns (the
    branch-free frame of Duff et al. 2017).
    """
    x, y, z = normals.T
    sign = np.where(z >= 0.0, 1.0, -1.0)
    a = -1.0 / (sign + z)
    b = x * y * a
    frames = np.empty((len(normals), 3, 2))
    frames[:, 0, 0] = 1.0 + sign * x * x * a
    frames[:, 1, 0] = sign * b
    frames[:, 2, 0] = -sign * x
    frames[:, 0, 1] = b
    frames[:, 1, 1] = sign + y * y * a
    frames[:, 2, 1] = -y
    return frames


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


def solve_saddle(a, g, rhs):
    """Direct solve of A p + G^T m = rhs, G p = 0 through [[A, G^T], [G, 0]].

    ``a`` is (N, N) sparse, SPD on the kernel of the (M, N) sparse rows
    ``g`` (None: unconstrained), and ``rhs`` has shape (N,).  The residual
    contract is ||A p + G^T m - rhs|| <= TOL*(1 + ||rhs||) and
    ||G p|| <= TOL*(1 + ||p||); one step of iterative refinement is applied
    if the first solve misses.  Raises :class:`KktError` on a singular
    matrix or an unmet tolerance.
    """
    a = a.tocsc()
    rhs = np.asarray(rhs, dtype=float)
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


class TangentPlaneAnalysis:
    """Pattern-only part of the tangent-plane solve for one (K, K) scalar block.

    Built once from a sparse SPD block B; it keeps:
    - the node order, SuperLU's minimum-degree ordering of B with each node
      keeping its two tangent unknowns together;
    - the gather index that takes the 2x2 blocks b_ij F_i^T F_j, laid out in
      the CSR order of B, straight into the ``data`` of the permuted CSC
      tangent-plane matrix;
    - that matrix, built once; each solve refills its ``data`` in place, so
      one analysis serves one solve at a time.

    :meth:`solve` does the numeric part for any directions.  Raises
    :class:`KktError` if SuperLU cannot order B (a singular block).
    """

    def __init__(self, b):
        b = b.tocsr()
        k = b.shape[0]
        if b.shape != (k, k):
            raise ValueError(f"need a square block, got {b.shape}")
        try:
            position = splu(b.tocsc(), **_ORDERING_SPLU_OPTIONS).perm_c
        except RuntimeError as exc:
            raise KktError(f"KKT ordering failed ({k} nodes): {exc}") from exc
        self.k = k
        self.nnz = b.nnz
        self._order = np.argsort(position)
        self._entry_rows = np.repeat(np.arange(k), np.diff(b.indptr))
        # unknown 2 position(i) + a of node i, for the rows and columns of
        # entry (a, c) of each block, in the (nnz, 2, 2) layout of the blocks
        unknown = 2 * position[:, None] + np.arange(2)
        rows = np.broadcast_to(unknown[self._entry_rows][:, :, None], (b.nnz, 2, 2)).ravel()
        cols = np.broadcast_to(unknown[b.indices][:, None, :], (b.nnz, 2, 2)).ravel()
        self._gather = np.lexsort((rows, cols))
        indptr = np.zeros(2 * k + 1, dtype=np.intc)
        np.cumsum(np.bincount(cols, minlength=2 * k), out=indptr[1:])
        self._matrix = sp.csc_matrix(
            (np.zeros(rows.size), rows[self._gather].astype(np.intc), indptr), shape=(2 * k, 2 * k)
        )

    def _refill(self, b, frames):
        """The permuted CSC tangent-plane matrix of ``b`` for the frames ``frames``, filled in place."""
        # np.take gathers the frames about twice as fast as fancy indexing;
        # the temporaries are freed before the factorization
        left = np.take(frames, self._entry_rows, axis=0).transpose(0, 2, 1)
        blocks = b.data[:, None, None] * (left @ np.take(frames, b.indices, axis=0))
        # the gather is in range; "clip" writes to ``out`` without a buffer
        np.take(blocks.ravel(), self._gather, out=self._matrix.data, mode="clip")
        return self._matrix

    def solve(self, b, directions, rhs):
        """:func:`solve_kkt` for a block ``b`` with the analysed pattern."""
        directions = np.asarray(directions, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        k = self.k
        analysed = b.format == "csr" and b.shape == (k, k) and b.nnz == self.nnz
        if not analysed or directions.shape != (k, 3) or rhs.shape != (k, 3):
            raise ValueError(
                f"need the analysed {k}x{k} CSR block ({self.nnz} entries) and (K, 3) directions and rhs, "
                f"got {b.format} {b.shape} ({b.nnz} entries), {directions.shape}, {rhs.shape}"
            )
        norms = _check_directions(directions)
        normals = directions / norms[:, None]
        frames = tangent_frames(normals)

        def finish(x):
            tangent = np.empty((k, 2))
            tangent[self._order] = x.reshape(k, 2)
            p = np.einsum("kcj,kj->kc", frames, tangent)
            r = b @ p - rhs
            normal_part = np.sum(normals * r, axis=1)
            tangential = r - normals * normal_part[:, None]
            rc = np.linalg.norm(np.sum(directions * p, axis=1))
            return KktSolution(p, -normal_part / norms, np.linalg.norm(tangential), rc)

        bound_p = TOL * (1.0 + np.linalg.norm(rhs))
        reduced_rhs = np.einsum("kcj,kc->kj", frames, rhs)[self._order].ravel()
        reduced = self._refill(b, frames)
        return _checked_solve(reduced, reduced_rhs, finish, bound_p, f"{k} nodes", _PERMUTED_SPLU_OPTIONS)


def solve_kkt(b, directions, rhs):
    """Nodal solve of B p + u_hat m = rhs, p_z . u_hat(z) = 0 at every node z.

    ``b`` is the (K, K) sparse SPD scalar block, applied to each component;
    ``directions`` (u_hat) and ``rhs`` have shape (K, 3).  Returns a
    :class:`KktSolution` with a (K, 3) primal and (K,) multipliers, equal to
    those of :func:`solve_saddle` on kron(B, I3) with the rows
    :func:`assemble_constraint_rows`.  The residual contract is
    ||B p + u_hat m - rhs|| <= TOL*(1 + ||rhs||) and
    ||(p_z . u_hat(z))_z|| <= TOL*(1 + ||p||); one step of iterative
    refinement is applied if the first solve misses.  Raises
    :class:`KktError` on a singular block, an unmet tolerance or a degenerate
    direction.  A one-shot :class:`TangentPlaneAnalysis`; repeated solves on
    one block should keep the analysis.
    """
    b = b.tocsr()
    return TangentPlaneAnalysis(b).solve(b, directions, rhs)
