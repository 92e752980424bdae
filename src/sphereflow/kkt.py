"""Tangent-plane KKT solves for the per-step linearized sphere constraint.

The nodal solve takes a (K, K) scalar SPD block B that acts on each
component of a (K, 3) field, and one linearized constraint per node,
p_z . u_hat(z) = 0; a degenerate direction (zero, or below
``DEGENERATE_REL_TOL`` times the largest) raises :class:`KktError`.  It
solves on the tangent planes (Alouges 2008; Bartels 2016): with F_z an
orthonormal 3x2 frame of u_hat(z)^perp, the SPD system with 2x2 blocks
B_ij F_i^T F_j has two unknowns per node, and p_z = F_z x_z.  Its pattern
is that of B, whatever the directions, so :class:`TangentPlaneAnalysis`
keeps B and a banded node order found once, and each
:meth:`~TangentPlaneAnalysis.solve` only fills in the band and factors it
(LAPACK's banded Cholesky) on one BLAS thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

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


def _find_openblas_threads(libs):
    """(get, set) for the thread count of the first OpenBLAS in directory ``libs`` with scipy's symbols.

    None when no library there loads or has both symbols.
    """
    for path in sorted(Path(libs).glob("libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@functools.cache
def _openblas_threads():
    # scipy's wheels bundle the OpenBLAS that its LAPACK wrappers (dpbtrf,
    # dpbtrs) call; loading it again by path returns the handle already loaded
    return _find_openblas_threads(Path(scipy.__file__).resolve().parent.parent / "scipy.libs")


def set_blas_threads(count):
    """Set the thread count of scipy's bundled OpenBLAS to ``count``; return the previous count.

    Does nothing and returns None when ``count`` is None or this scipy
    build bundles no OpenBLAS with the thread-count symbols.
    """
    api = _openblas_threads()
    if api is None or count is None:
        return None
    get, set_ = api
    before = get()
    if before != count:
        set_(count)
    return before


@contextlib.contextmanager
def blas_threads(count):
    """Run the body with scipy's bundled OpenBLAS on ``count`` threads, then restore the caller's count.

    A no-op where :func:`set_blas_threads` is one.
    """
    before = set_blas_threads(count)
    try:
        yield
    finally:
        set_blas_threads(before)


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


class TangentPlaneAnalysis:
    """Tangent-plane solver for one (K, K) scalar block, analysed once.

    Built from a sparse SPD block B (symmetric, without duplicate entries);
    it keeps B and index arrays:
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
        b = self._b = b.tocsr()
        k = b.shape[0]
        if b.shape != (k, k):
            raise ValueError(f"need a square block, got {b.shape}")
        self.k = k
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

    def _factorize(self, frames):
        """Band solve ``v -> x`` of the tangent-plane matrix for ``frames``, by banded Cholesky."""
        b = self._b
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

    def solve(self, directions, rhs):
        """Nodal solve of B p + u_hat m = rhs, p_z . u_hat(z) = 0 at every node z.

        ``directions`` (u_hat) and ``rhs`` have shape (K, 3); B applies to
        each component.  Returns a :class:`KktSolution` with a (K, 3) primal
        and (K,) multipliers, those of the saddle-point system
        [[kron(B, I3), G^T], [G, 0]] with one row u_hat(z) per node in G.
        The residual contract is ||B p + u_hat m - rhs|| <= TOL*(1 + ||rhs||)
        and ||(p_z . u_hat(z))_z|| <= TOL*(1 + ||p||); one step of iterative
        refinement is applied if the first solve misses.  Raises
        :class:`KktError` on a block that is not positive definite on the
        tangent planes, an unmet tolerance or a degenerate direction.
        """
        directions = np.asarray(directions, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        b, k = self._b, self.k
        if directions.shape != (k, 3) or rhs.shape != (k, 3):
            raise ValueError(f"need ({k}, 3) directions and rhs, got {directions.shape}, {rhs.shape}")
        norms = _check_directions(directions)
        normals = directions / norms[:, None]
        frames = tangent_frames(normals)
        bound_p = TOL * (1.0 + _norm(rhs))

        def reduce(field):  # F^T field, in band order
            return np.einsum("kcj,kc->kj", frames, field)[self._order].ravel()

        def finish(x):
            """(solution, B p - rhs, whether the contract is missed) for the band unknowns ``x``."""
            tangent = np.empty((k, 2))
            tangent[self._order] = x.reshape(k, 2)
            p = np.einsum("kcj,kj->kc", frames, tangent)
            r = b @ p - rhs
            normal_part = np.sum(normals * r, axis=1)
            tangential = r - normals * normal_part[:, None]
            rc = _norm(np.sum(directions * p, axis=1))
            out = KktSolution(p, -normal_part / norms, _norm(tangential), rc)
            missed = out.residual_primal > bound_p or out.residual_constraint > TOL * (1.0 + _norm(p))
            return out, r, missed

        # a band a few hundred wide is too narrow for a second BLAS thread,
        # which would only spin
        with blas_threads(1):
            band_solve = self._factorize(frames)
            x = band_solve(reduce(rhs))
            if not np.all(np.isfinite(x)):
                raise KktError(f"KKT solve produced non-finite values ({k} nodes)")
            out, r, missed = finish(x)
            if missed:
                # one refinement step; F^T rhs - F^T B F x = -F^T r, since
                # the band holds the factor, not the matrix
                out, _, missed = finish(x + band_solve(-reduce(r)))
        if missed:
            raise KktError(
                f"KKT residuals not reached (primal {out.residual_primal:.3e}, "
                f"constraint {out.residual_constraint:.3e}, tol {TOL:.1e}, {k} nodes); "
                "system may be ill-conditioned"
            )
        return out
