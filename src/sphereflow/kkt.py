"""Tangent-plane KKT solves for the per-step linearized sphere constraint.

The nodal solve takes a (K, K) scalar SPD block B that acts on each
component of a (K, 3) field, and one linearized constraint per node,
p_z . u_hat(z) = 0; a degenerate direction (zero, or below
``DEGENERATE_REL_TOL`` times the largest) raises :class:`KktError`.  It
solves on the tangent planes (Alouges 2008; Bartels 2016): with F_z an
orthonormal 3x2 frame of u_hat(z)^perp, the SPD system with 2x2 blocks
B_ij F_i^T F_j has two unknowns per node, and p_z = F_z x_z.  Its pattern
is that of B, whatever the directions or B's values, so one
:class:`TangentPlaneAnalysis` orders it for every block on it; each
:meth:`~TangentPlaneAnalysis.solve` fills the band from the frames and B's
values by three gathers, one product-sum and one scatter, and factors it
by LAPACK's ``dpbsv`` on one BLAS thread; it and the thread count are called
through ctypes in the OpenBLAS that scipy's wheels bundle, loaded once per
process, so no process imports ``scipy.linalg`` unless that library is
missing.  At a few dozen nodes numpy's per-call cost outweighs the
arithmetic, so the solve keeps its calls few: the direction norms are
taken once, and per-node pairings are products with a vector of ones.  The
solve returns the increment p alone, and raises where p misses the residual
contract of :meth:`~TangentPlaneAnalysis.solve`.
"""

from __future__ import annotations

import ctypes
import functools
import math
from pathlib import Path

import numpy as np
import scipy

TOL = 1e-12
DEGENERATE_REL_TOL = 1e-12
_ONES3 = np.ones(3)
# LAPACKE's matrix_layout argument for column-major (Fortran) storage
_COL_MAJOR = 102
# where scipy's wheels bundle their OpenBLAS, beside the scipy package
_SCIPY_LIBS = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"


class KktError(Exception):
    """Raised when a KKT solve fails its residual contract or meets a degenerate direction."""


@functools.cache
def _openblas():
    """(dpbsv, get_num_threads, set_num_threads) of scipy's bundled OpenBLAS, typed for ctypes, or None.

    The first ``libscipy_openblas*.so`` in ``_SCIPY_LIBS`` that loads and
    has all three; None where none does.
    """
    int_, double_p = ctypes.c_int, ctypes.POINTER(ctypes.c_double)
    for path in sorted(_SCIPY_LIBS.glob("libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            pbsv, get, set_ = (lib.scipy_LAPACKE_dpbsv_work, lib.scipy_openblas_get_num_threads,
                               lib.scipy_openblas_set_num_threads)
        except (OSError, AttributeError):
            continue
        pbsv.argtypes, pbsv.restype = [int_, ctypes.c_char, int_, int_, int_, double_p, int_, double_p, int_], int_
        get.argtypes, get.restype = [], int_
        set_.argtypes, set_.restype = [int_], None
        return pbsv, get, set_
    return None


def _band_cholesky(band, kd, v):
    """LAPACK's banded Cholesky solve on upper band storage; returns LAPACK's ``info``.

    Factors in place the flat float64 column-major (kd + 1, n) ``band`` by
    ``dpbtrf`` and, where that succeeds (``info`` 0), overwrites the
    float64 vector ``v`` with the solution by ``dpbtrs``.  Both arrays must
    be contiguous.  This is one ctypes call of ``dpbsv``, which runs those
    two routines, in scipy's bundled OpenBLAS, on one BLAS thread: a band a
    few hundred wide is too narrow for a second, which would only spin.  The
    caller's thread count is restored after, also when the factor fails.  A
    build without that library calls the two routines through
    ``scipy.linalg.lapack``, imported only then.
    """
    api = _openblas()
    if api is None:
        from scipy.linalg.lapack import dpbtrf, dpbtrs

        factor, info = dpbtrf(band.reshape((kd + 1, -1), order="F"), lower=0, overwrite_ab=1)
        if info == 0:
            v[:] = dpbtrs(factor, v, lower=0)[0]
        return info
    # LAPACK reads (kd + 1) n doubles of the band and n of v, through a
    # c_double over each array's first element, which from_buffer refuses
    # for an array that is not contiguous or has none
    if band.dtype != np.float64 or v.dtype != np.float64 or band.size != (kd + 1) * v.size:
        raise ValueError(f"need a float64 band of (kd + 1) * {v.size} = {(kd + 1) * v.size} entries "
                         f"and a float64 vector, got {band.size} {band.dtype} and {v.dtype}")
    if not v.size:
        return 0
    pbsv, get, set_ = api
    before = get()
    if before != 1:
        set_(1)
    try:
        return pbsv(_COL_MAJOR, b"U", v.size, kd, 1, ctypes.c_double.from_buffer(band), kd + 1,
                    ctypes.c_double.from_buffer(v), v.size)
    finally:
        if before != 1:
            set_(before)


def _pair(u, v):
    """Euclidean pairing sum(u * v) of two arrays raveled, as one dot product."""
    return float(u.ravel().dot(v.ravel()))


def _norm(v):
    """Euclidean norm of ``v`` raveled; the same value as ``np.linalg.norm(v)``, with less overhead."""
    return math.sqrt(_pair(v, v))


def _nodal_dot(u, v):
    """Per-node pairings u(z) . v(z) of two (K, 3) fields.

    A matrix-vector product with ones adds the three products one after
    another, as ``(u * v).sum(axis=1)`` does, at a fraction of its cost.
    """
    return (u * v).dot(_ONES3)


def _check_directions(directions):
    """Norms of the nodal ``directions``; raises :class:`KktError` at a degenerate one."""
    norms = np.sqrt(_nodal_dot(directions, directions))
    largest = norms.max(initial=0.0)
    smallest = norms.min(initial=math.inf)
    # two reductions settle the common case; a NaN norm fails this test and
    # is flagged by neither comparison below, as the solve rejects it later
    if smallest > 0.0 and smallest >= DEGENERATE_REL_TOL * largest:
        return norms
    bad = np.flatnonzero((norms < DEGENERATE_REL_TOL * largest) | (norms == 0.0))
    if bad.size:
        z = bad[0]
        raise KktError(
            f"KKT constraint direction {z} of {norms.size} is degenerate "
            f"(|u_hat| = {norms[z]:.3e}, largest {largest:.3e})"
        )
    return norms


def tangent_frames(normals):
    """Orthonormal frames of the planes normal to the unit ``normals``, as a C-ordered (3, K, 2) array.

    ``frames[:, k]`` has the two frame vectors of node k as columns (the
    branch-free frame of Duff et al. 2017), so component c of frame vector
    a of node k sits at flat column 2 k + a of the (3, 2K) reshape.
    """
    x, y, z = normals.T
    # +1 where z >= 0, -0.0 included (adding 0.0 clears its sign bit)
    sign = np.copysign(1.0, z + 0.0)
    a = -1.0 / (sign + z)
    b = x * y * a
    sx = sign * x
    frames = np.empty((3, len(normals), 2))
    frames[0, :, 0] = 1.0 + sx * x * a
    frames[1, :, 0] = sign * b
    frames[2, :, 0] = -sx
    frames[0, :, 1] = b
    frames[1, :, 1] = sign + y * y * a
    frames[2, :, 1] = -y
    return frames


def _reverse_cuthill_mckee(b):
    """Reverse Cuthill-McKee order of the nodes of the symmetric sparse ``b``, as an int array.

    The permutation of ``scipy.sparse.csgraph.reverse_cuthill_mckee`` in
    symmetric mode, without importing csgraph: each component is searched
    breadth first from its first node in ``np.argsort(degree)`` order, the
    degree of a node being its row length plus one for a diagonal entry;
    each node's unvisited neighbours join in stable order of degree, and
    the whole order is reversed (Cuthill & McKee 1969; George & Liu 1981).
    """
    k = b.shape[0]
    degree = np.diff(b.indptr).astype(b.indices.dtype)
    rows = np.repeat(np.arange(k), degree)
    degree[rows[b.indices == rows]] += 1
    indptr, indices, degrees = b.indptr.tolist(), b.indices.tolist(), degree.tolist()
    visited = bytearray(k)
    order, head = [], 0
    for seed in np.argsort(degree).tolist():
        if not visited[seed]:
            visited[seed] = 1
            order.append(seed)
        # the nodes before head have all joined their neighbours
        while head < len(order):
            i = order[head]
            head += 1
            new = []
            for j in indices[indptr[i]:indptr[i + 1]]:
                if not visited[j]:
                    visited[j] = 1
                    new.append(j)
            order += sorted(new, key=degrees.__getitem__)
    return np.array(order[::-1], dtype=np.intp)


class TangentPlaneAnalysis:
    """Tangent-plane solver for the (K, K) scalar blocks of one symmetric pattern, analysed once.

    Reads the ``indptr``, ``indices`` and ``shape`` of the pattern in canonical
    CSR storage (a :class:`~sphereflow.fem.CsrMatrix`, or a scipy
    ``csr_matrix``) and keeps those index arrays; the node order, reverse
    Cuthill-McKee with each node's two tangent unknowns together, so the
    tangent-plane matrix has a narrow band of ``kd`` superdiagonals; and one
    gather and one entry index per entry of the upper band: the entry (a, c)
    of the 2x2 block b_ij F_i^T F_j, position(i) <= position(j), is the
    stored entry b_ij times the pairing of frame columns 2 i + a and 2 j + c,
    at a fixed place of LAPACK's Fortran-order (kd + 1, 2K) upper band
    storage.  :meth:`solve` does the numeric part for any SPD block on the
    pattern and any directions, in a band of its own.
    """

    def __init__(self, m):
        self.k = k = m.shape[0]
        if m.shape != (k, k):
            raise ValueError(f"need a square block, got {m.shape}")
        self._indptr, self._indices = m.indptr, m.indices
        self._order = _reverse_cuthill_mckee(m)
        self._position = position = np.argsort(self._order)
        entry_rows = np.repeat(np.arange(k), np.diff(m.indptr))
        upper = np.flatnonzero(position[entry_rows] <= position[m.indices])
        rows, cols = entry_rows[upper], m.indices[upper]
        # entry (a, c) of each block: frame columns 2 i + a and 2 j + c, band
        # unknowns 2 position(i) + a and 2 position(j) + c
        a, c = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        band_rows = (2 * position[rows])[:, None] + a
        band_cols = (2 * position[cols])[:, None] + c
        keep = band_rows <= band_cols
        self._left = ((2 * rows)[:, None] + a)[keep]
        self._right = ((2 * cols)[:, None] + c)[keep]
        self._entries = np.broadcast_to(upper[:, None], keep.shape)[keep]
        band_rows, band_cols = band_rows[keep], band_cols[keep]
        self.kd = int(np.max(band_cols - band_rows, initial=0))
        # entry (i, j), i <= j, sits at ab[kd + i - j, j]
        self._dest = self.kd + band_rows - band_cols + (self.kd + 1) * band_cols

    def solve(self, b, directions, rhs):
        """Nodal solve of B p + u_hat m = rhs, p_z . u_hat(z) = 0 at every node z.

        ``b`` is the block B, on the analysed pattern (else ``ValueError``);
        ``directions`` (u_hat) and ``rhs`` have shape (K, 3); B applies to
        each component.  Returns the (K, 3) float64 increment p, the primal
        part of the saddle-point system [[kron(B, I3), G^T], [G, 0]] with one
        row u_hat(z) per node in G; the flow uses no multiplier m, so none is
        formed.  The residual contract is that the part of B p - rhs tangent
        to the unit normals n_z of u_hat, whatever its scale, has norm at
        most TOL*(1 + ||rhs||), and ||(p_z . n_z)_z|| <= TOL*(1 + ||p||).
        Raises :class:`KktError` on a block that is not positive definite on
        the tangent planes, an unmet tolerance or a degenerate direction.
        """
        k = self.k
        # the flow passes the analysed arrays themselves, which identity settles
        if not (b.indptr is self._indptr and b.indices is self._indices or b.shape == (k, k)
                and np.array_equal(b.indptr, self._indptr) and np.array_equal(b.indices, self._indices)):
            raise ValueError(f"need a block on the analysed pattern, got a {b.shape} block of {b.indices.size} entries")
        directions, rhs = np.asarray(directions, dtype=float), np.asarray(rhs, dtype=float)
        if directions.shape != (k, 3) or rhs.shape != (k, 3):
            raise ValueError(f"need ({k}, 3) directions and rhs, got {directions.shape}, {rhs.shape}")
        norms = _check_directions(directions)
        normals = directions / norms[:, None]
        # (3, K, 2): component, node, frame vector
        frames = tangent_frames(normals)
        reduced_rhs = np.einsum("ckj,kc->kj", frames, rhs)  # F^T rhs, node by node
        columns = frames.reshape(3, 2 * k)
        # the product with ones sums the three components in order, as sum(axis=0) does
        values = _ONES3.dot(columns.take(self._left, axis=1) * columns.take(self._right, axis=1)) * b.data.take(
            self._entries)
        band = np.zeros((self.kd + 1) * 2 * k)
        band[self._dest] = values
        x = reduced_rhs.take(self._order, axis=0).ravel()
        info = _band_cholesky(band, self.kd, x)
        if info > 0:
            node, unknown = self._order[(info - 1) // 2], (info - 1) % 2
            raise KktError(f"KKT tangent-plane matrix is not positive definite at tangent unknown {unknown} "
                           f"of node {node} ({k} nodes)")
        if not np.isfinite(x).all():
            raise KktError(f"KKT solve produced non-finite values ({k} nodes)")
        p = np.einsum("ckj,kj->kc", frames, x.reshape(k, 2).take(self._position, axis=0))
        # the frames are orthonormal, so F^T (B p - rhs) has the norm of the
        # tangential part of the residual, the part that no multiple of u_hat cancels
        residual_primal = _norm(np.einsum("ckj,kc->kj", frames, b @ p - rhs))
        residual_constraint = _norm(_nodal_dot(normals, p))
        if residual_primal > TOL * (1.0 + _norm(rhs)) or residual_constraint > TOL * (1.0 + _norm(p)):
            raise KktError(f"KKT residuals not reached (primal {residual_primal:.3e}, constraint "
                           f"{residual_constraint:.3e}, tol {TOL:.1e}, {k} nodes); system may be ill-conditioned")
        return p
