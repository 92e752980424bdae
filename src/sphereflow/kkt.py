"""Sparse KKT solves for the per-step linearly constrained systems.

The nodal solve :func:`solve_kkt` takes a (K, K) scalar SPD block B that
acts on each component of a (K, 3) field, and one linearized constraint per
node, p_z . u_hat(z) = 0; a degenerate direction (zero, or below
``DEGENERATE_REL_TOL`` times the largest) raises :class:`KktError`.  It
solves on the tangent planes (Alouges 2008; Bartels 2016): with F_z an
orthonormal 3x2 frame of u_hat(z)^perp, the SPD system with 2x2 blocks
B_ij F_i^T F_j has two unknowns per node, and p_z = F_z x_z.  Its pattern
is that of B, whatever the directions, so :class:`TangentPlaneAnalysis`
finds a banded node order once per block and each solve only fills in the
band and factors it (LAPACK's banded Cholesky).  General sparse rows G on a
3N system A go through :func:`solve_saddle`, which LU-factors the
saddle-point matrix [[A, G^T], [G, 0]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

TOL = 1e-12
DEGENERATE_REL_TOL = 1e-12


class KktError(Exception):
    """Raised when a KKT solve fails its residual contract or meets a degenerate direction."""


@dataclass
class KktSolution:
    primal: np.ndarray
    multiplier: np.ndarray
    residual_primal: float
    residual_constraint: float


def _norm(v):
    """Euclidean norm of ``v`` raveled; the same value as ``np.linalg.norm(v)``, with less overhead."""
    v = v.ravel()
    return math.sqrt(v.dot(v))


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


def _checked_solve(solve, rhs, finish, bound_p, what):
    """Solve with the factor's ``solve`` and enforce the residual contract.

    ``finish`` maps a solution x of the factored system to a :class:`KktSolution`
    with the residuals of the original system and to a function giving
    ``rhs - matrix x``.  One step of iterative refinement is applied if the
    first solve misses.
    """
    sol = solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise KktError(f"KKT solve produced non-finite values ({what})")

    def missed(out):
        return out.residual_primal > bound_p or out.residual_constraint > TOL * (1.0 + _norm(out.primal))

    out, residual = finish(sol)
    if missed(out):
        sol = sol + solve(residual())
        out, _ = finish(sol)
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
    what = f"n={n}, m={m}"
    try:
        lu = splu(kkt)
    except RuntimeError as exc:
        raise KktError(f"KKT factorization failed ({what}): {exc}") from exc

    def finish(sol):
        p = sol[:n]
        r = kkt @ sol - full_rhs
        rc = _norm(g @ p) if m else 0.0
        return KktSolution(p, sol[n:], _norm(r[:n]), rc), lambda: -r

    return _checked_solve(lu.solve, full_rhs, finish, TOL * (1.0 + _norm(full_rhs)), what)


class TangentPlaneAnalysis:
    """Pattern-only part of the tangent-plane solve for one (K, K) scalar block.

    Built once from a sparse SPD block B (symmetric, without duplicate
    entries); it keeps index arrays only:
    - the node order, reverse Cuthill-McKee of B, with each node keeping its
      two tangent unknowns together, so the tangent-plane matrix has a
      narrow band of ``kd`` superdiagonals;
    - the positions of the upper-triangle entries in the (nnz, 2, 2) blocks
      b_ij F_i^T F_j, laid out in the CSR order of B, and their places in the
      Fortran-order (kd + 1, 2K) upper band storage of LAPACK.

    :meth:`solve` does the numeric part for any directions in a band of its
    own, so solves on one analysis do not share state.
    """

    def __init__(self, b):
        b = b.tocsr()
        k = b.shape[0]
        if b.shape != (k, k):
            raise ValueError(f"need a square block, got {b.shape}")
        self.k = k
        self.nnz = b.nnz
        # csgraph cannot order an empty graph
        self._order = reverse_cuthill_mckee(b, symmetric_mode=True) if k else np.arange(0)
        position = np.argsort(self._order)
        self._entry_rows = np.repeat(np.arange(k), np.diff(b.indptr))
        # unknown 2 position(i) + a of node i, for the rows and columns of
        # entry (a, c) of each block, in the (nnz, 2, 2) layout of the blocks
        unknown = 2 * position[:, None] + np.arange(2)
        rows = np.broadcast_to(unknown[self._entry_rows][:, :, None], (b.nnz, 2, 2)).ravel()
        cols = np.broadcast_to(unknown[b.indices][:, None, :], (b.nnz, 2, 2)).ravel()
        self._source = np.flatnonzero(rows <= cols)
        rows, cols = rows[self._source], cols[self._source]
        self.kd = int(np.max(cols - rows, initial=0))
        # entry (i, j), i <= j, sits at ab[kd + i - j, j]
        self._dest = self.kd + rows - cols + (self.kd + 1) * cols

    def _factorize(self, b, frames):
        """Band solve ``v -> x`` of the tangent-plane matrix of ``b`` for ``frames``, by banded Cholesky."""
        # np.take gathers the frames about twice as fast as fancy indexing
        left = np.take(frames, self._entry_rows, axis=0).transpose(0, 2, 1)
        blocks = b.data[:, None, None] * (left @ np.take(frames, b.indices, axis=0))
        band = np.zeros((self.kd + 1) * 2 * self.k)
        band[self._dest] = np.take(blocks.ravel(), self._source)
        factor, info = dpbtrf(band.reshape((self.kd + 1, 2 * self.k), order="F"), lower=0, overwrite_ab=1)
        if info > 0:
            node, unknown = self._order[(info - 1) // 2], (info - 1) % 2
            what = f"at tangent unknown {unknown} of node {node} ({self.k} nodes)"
            raise KktError(f"KKT tangent-plane matrix is not positive definite {what}")
        return lambda v: dpbtrs(factor, v, lower=0)[0]

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
        solve = self._factorize(b, frames)

        def reduce(field):  # F^T field, in band order
            return np.einsum("kcj,kc->kj", frames, field)[self._order].ravel()

        def finish(x):
            tangent = np.empty((k, 2))
            tangent[self._order] = x.reshape(k, 2)
            p = np.einsum("kcj,kj->kc", frames, tangent)
            r = b @ p - rhs
            normal_part = np.sum(normals * r, axis=1)
            tangential = r - normals * normal_part[:, None]
            rc = _norm(np.sum(directions * p, axis=1))
            # F^T rhs - F^T B F x = -F^T r: the band holds the factor, not the matrix
            return KktSolution(p, -normal_part / norms, _norm(tangential), rc), lambda: -reduce(r)

        return _checked_solve(solve, reduce(rhs), finish, TOL * (1.0 + _norm(rhs)), f"{k} nodes")


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
    :class:`KktError` on a block that is not positive definite on the
    tangent planes, an unmet tolerance or a degenerate direction.  A one-shot
    :class:`TangentPlaneAnalysis`; repeated solves on one block should keep
    the analysis.
    """
    b = b.tocsr()
    return TangentPlaneAnalysis(b).solve(b, directions, rhs)
