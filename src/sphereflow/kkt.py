"""Tangent-plane KKT solves for the per-step linearized sphere constraint.

The nodal solve takes a (K, K) scalar SPD block B that acts on each
component of a (K, 3) field, and one linearized constraint per node,
p_z . u_hat(z) = 0; a degenerate direction (zero, or below
``DEGENERATE_REL_TOL`` times the largest) raises :class:`KktError`.  It
solves on the tangent planes (Alouges 2008; Bartels 2016): with F_z an
orthonormal 3x2 frame of u_hat(z)^perp, the SPD system with 2x2 blocks
B_ij F_i^T F_j has two unknowns per node, and p_z = F_z x_z.  Its pattern
is that of B, whatever the directions or B's values, so one
:class:`TangentPlaneAnalysis` lays out one band for every block on it: the
Schur complement of the red nodes, eliminated first by their 2x2 pivots
b_rr I_2.  One reverse Cuthill-McKee search of B lays it out: where the
parity of its levels two-colours a pattern of at least ``K_MIN`` nodes
(the five-point h1 block of the square mesh), the red nodes are the larger
parity class, the even one on a tie (red-black ordering; Buzbee, Golub &
Nielson 1970), and the black nodes keep their places in its order;
elsewhere no node is red, and the band holds B itself.  ``prepare`` reads
a block's values once; each ``solve`` fills the band from the frames by
gathers, one product-sum and one scatter, and factors it by LAPACK's
``dpbsv`` on one BLAS thread, called with the thread count through ctypes
in the OpenBLAS that scipy's wheels bundle, loaded once per process, so no
process imports ``scipy.linalg`` unless that library is missing.  At a few
dozen nodes numpy's per-call cost outweighs the arithmetic, so the solve
keeps its calls few: the direction norms are taken once, and per-node
pairings are products with a vector of ones.  The solve returns the
increment p alone, and raises where p misses its residual contract.
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
# smaller patterns keep every node in the band: the elimination's solve, on
# BDF2 blocks of the square mesh (one BLAS thread), takes 1.41, 1.07, 0.98,
# 0.96 and 0.72 times the band's at 49, 169, 225, 256 and 961 nodes
K_MIN = 256
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


def _reverse_cuthill_mckee(indptr, indices):
    """Reverse Cuthill-McKee order of the nodes of a symmetric CSR pattern, and each node's level, as int arrays.

    The permutation of ``scipy.sparse.csgraph.reverse_cuthill_mckee`` in
    symmetric mode, without importing csgraph: each component is searched
    breadth first from its first node in ``np.argsort(degree)`` order, the
    degree of a node being its row length plus one for a diagonal entry;
    each node's unvisited neighbours join in stable order of degree, and
    the whole order is reversed (Cuthill & McKee 1969; George & Liu 1981).
    A node's level is its breadth-first distance from its component's first
    node, so no off-diagonal entry joins two levels more than one apart.
    """
    k = len(indptr) - 1
    degree = np.diff(indptr).astype(indices.dtype)
    rows = np.repeat(np.arange(k), degree)
    degree[rows[indices == rows]] += 1
    indptr, indices, degrees = indptr.tolist(), indices.tolist(), degree.tolist()
    level = [-1] * k  # -1 until a node is visited
    order, head = [], 0
    for seed in np.argsort(degree).tolist():
        if level[seed] < 0:
            level[seed] = 0
            order.append(seed)
        # the nodes before head have all joined their neighbours
        while head < len(order):
            i = order[head]
            head += 1
            new, below = [], level[i] + 1
            for j in indices[indptr[i]:indptr[i + 1]]:
                if level[j] < 0:
                    level[j] = below
                    new.append(j)
            order += sorted(new, key=degrees.__getitem__)
    return np.array(order[::-1], dtype=np.intp), np.array(level, dtype=np.intp)


def _corners(x, off, shifts):
    """``x``, one value per 2x2 block, at the blocks' entries on or above the band's diagonal, plus ``shifts``.

    The entries run corner by corner, (0, 0), (0, 1), (1, 0) and (1, 1), each
    shifted by its ``shifts`` value; corner (1, 0) lies below the diagonal in
    the blocks from ``off`` on, which lie on it.
    """
    n = x.size
    out = np.empty(3 * n + off, x.dtype)
    for part, shift in zip(np.split(out, [n, 2 * n, 2 * n + off]), shifts):
        np.add(x[:part.size], shift, out=part)
    return out


def _outer_corners(w, off):
    """The :func:`_corners` entries of the blocks w[0, t] w[1, t]^T of the (2, T, 2) ``w``, ``off`` off-diagonal."""
    return np.concatenate([w[0, :, 0] * w[1, :, 0], w[0, :, 0] * w[1, :, 1], w[0, :off, 1] * w[1, :off, 0],
                           w[0, :, 1] * w[1, :, 1]])


class TangentPlaneAnalysis:
    """Tangent-plane solver for the (K, K) scalar blocks of one symmetric pattern, analysed once.

    Reads the ``indptr``, ``indices`` and ``shape`` of the pattern in
    canonical CSR storage (a :class:`~sphereflow.fem.CsrMatrix`, or a scipy
    ``csr_matrix``) and keeps those index arrays.  The red nodes (``_red``,
    sorted; maybe none) are eliminated, and the band holds the Schur
    complement s = B_BB - B_BR diag(b_rr)^-1 B_RB on the other, black, nodes
    (``_order``), in their places in the reverse Cuthill-McKee order of B,
    each node's two tangent unknowns together, so it has ``kd``
    superdiagonals.  Its entries are those of the 2x2 blocks s_ij F_i^T F_j,
    position(i) <= position(j), the first ``_off`` with i != j, laid out by
    :func:`_corners`: entry (a, c) is the pairing of frame columns 2 i + a
    and 2 j + c (``_left``, ``_right``) times s_ij, at a fixed place
    ``_dest`` of LAPACK's Fortran-order (kd + 1, n) upper band storage.  The
    entries ``_w_entries`` also add the blocks w_e1 w_e2^T of the triples
    (``_triples``): two edges e1, e2 of one red node, the first
    ``_off_triples`` distinct.
    """

    def __init__(self, m):
        self.k = k = m.shape[0]
        if m.shape != (k, k):
            raise ValueError(f"need a square block, got {m.shape}")
        self._indptr, self._indices = indptr, indices = m.indptr, m.indices
        entry_rows = np.repeat(np.arange(k), np.diff(indptr))
        off_diagonal = indices != entry_rows
        # one search of B: the parity of its levels may two-colour the pattern, and its order lays out the band
        reverse, level = _reverse_cuthill_mckee(indptr, indices)
        parity = level & 1
        coloured = k >= K_MIN and not (parity[entry_rows] == parity[indices]).any(where=off_diagonal)
        # the larger class; on a tie the even levels, with the search's first node
        red = parity == int(2 * parity.sum() > k) if coloured else np.zeros(k, bool)
        self._red, black = np.flatnonzero(red), np.flatnonzero(~red)
        # each node's stored diagonal entry; data.size, read as 0, where it has none
        self._diagonal = np.full(k, indices.size)
        on_diagonal = np.flatnonzero(indices == entry_rows)
        self._diagonal[entry_rows[on_diagonal]] = on_diagonal
        # an edge is an off-diagonal entry b_rb of a red row r, to a black node;
        # B_BB's off-diagonal entries exist only where no node is red
        self._edge_entries = edges = np.flatnonzero(red[entry_rows] & off_diagonal)
        entries = np.flatnonzero(~red[entry_rows] & ~red[indices] & off_diagonal)
        edge_red, edge_black = entry_rows[edges], indices[edges].astype(np.intp)
        self._edge_columns, self._edge_normals = (2 * edge_black[:, None] + [0, 1]).ravel(), np.repeat(edge_red, 2)
        # the triples: each edge with each later edge of its red node, then each edge with itself
        later = np.searchsorted(edge_red, edge_red, side="right") - np.arange(1, edges.size + 1)
        self._off_triples = n = int(later.sum())
        self._triples = triples = np.empty((2, n + edges.size), np.intp)
        triples[:, n:] = np.arange(edges.size)
        triples[0, :n] = np.repeat(np.arange(edges.size), later)
        triples[1, :n] = triples[0, :n] + 1 + np.arange(n) - np.repeat(np.cumsum(later) - later, later)
        # the black nodes numbered 0, ..., nb - 1; the Schur pattern's keys row * nb + column join each
        # black node to itself, to its neighbours in B_BB and to those that share a red neighbour
        nb, number = black.size, np.cumsum(~red) - 1
        ends, bi, bj = number[edge_black], number[entry_rows[entries]], number[indices[entries]]
        i, j = ends.take(triples[:, :n])
        keys = np.sort(np.concatenate([bi * nb + bj, i * nb + j, j * nb + i, np.arange(nb) * (nb + 1)]))
        rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], nb)
        # the black nodes in their places in B's search
        self._order = reverse[~red[reverse]]
        order = number[self._order]
        position = np.argsort(order)
        # its blocks: the upper off-diagonal pairs, then the diagonal in band order
        upper = position[rows] < position[cols]
        self._off = off = np.count_nonzero(upper)
        rows, cols = np.concatenate([rows[upper], order]), np.concatenate([cols[upper], order])
        self.kd = kd = 2 * int(np.max(position[cols] - position[rows])) + 1 if nb else 0
        self._left = _corners(2 * black[rows], off, (0, 0, 1, 1))
        self._right = _corners(2 * black[cols], off, (0, 1, 0, 1))
        # entry (i, j), i <= j, sits at ab[kd + i - j, j], flat kd (j + 1) + i
        self._dest = _corners(kd * (2 * position[cols] + 1) + 2 * position[rows], off, (0, kd, 1, kd + 1))
        # each B_BB entry above the diagonal, and each distinct triple with its earlier black node first, in its block
        above = position[bi] < position[bj]
        self._bb_entries, bb_keys = entries[above], (bi * nb + bj)[above]
        at = position[ends]
        swap = np.flatnonzero(at.take(triples[0, :n]) > at.take(triples[1, :n]))
        triples[:, swap] = triples[::-1, swap]
        i, j = ends.take(triples[:, :n])
        upper_keys = rows[:off] * nb + cols[:off]
        blocks = np.concatenate([np.searchsorted(upper_keys, i * nb + j), off + at])
        self._schur_terms = np.concatenate([off + np.arange(nb), np.searchsorted(upper_keys, bb_keys), blocks])
        size = off + nb
        self._w_entries = _corners(blocks, n, (0, size, 2 * size, 2 * size + off))

    def prepare(self, b):
        """(b, the band's coefficients, edge weights, inverse red pivots): what :meth:`solve` reads of ``b``.

        The coefficients are the Schur complement s = B_BB - B_BR
        diag(b_rr)^-1 B_RB; the weights b_rb / sqrt(b_rr), twice each.  A
        caller may keep them per block.  Raises ``ValueError`` for a block on
        another pattern and :class:`KktError` at the first red pivot b_rr not
        positive and finite.
        """
        k = self.k
        # the flow passes the analysed arrays themselves, which identity settles
        if not (b.indptr is self._indptr and b.indices is self._indices or b.shape == (k, k)
                and np.array_equal(b.indptr, self._indptr) and np.array_equal(b.indices, self._indices)):
            raise ValueError(f"need a block on the analysed pattern, got a {b.shape} block of {b.indices.size} entries")
        diagonal = np.append(b.data, 0.0).take(self._diagonal)
        pivots = diagonal.take(self._red)
        usable = (pivots > 0.0) & (pivots < math.inf)
        if not usable.all():
            raise KktError(f"KKT tangent-plane matrix is not positive definite at tangent unknown 0 "
                           f"of node {self._red[usable.argmin()]} ({k} nodes)")
        weights = b.data.take(self._edge_entries) / np.sqrt(diagonal.take(self._edge_normals[::2]))
        products = weights.take(self._triples[0]) * weights.take(self._triples[1])
        # with no red node each block has one term, which 0.0 + b_ij keeps bit for bit
        schur = np.bincount(self._schur_terms, np.concatenate([diagonal.take(self._order),
                                                               b.data.take(self._bb_entries), -products]))
        return b, _corners(schur, self._off, (0, 0, 0, 0)), np.repeat(weights, 2), 1.0 / pivots

    def solve(self, prepared, directions, rhs):
        """Nodal solve of B p + u_hat m = rhs, p_z . u_hat(z) = 0 at every node z.

        ``prepared`` is :meth:`prepare` of the block B; ``directions``
        (u_hat) and ``rhs`` have shape (K, 3); B applies to each component.
        Returns the (K, 3) float64 increment p, the primal part of the
        saddle-point system [[kron(B, I3), G^T], [G, 0]] with one row u_hat(z)
        per node in G; the flow uses no multiplier m, so none is formed.  The
        residual contract is that the part of B p - rhs tangent to the unit
        normals n_z of u_hat, whatever its scale, has norm at most
        TOL*(1 + ||rhs||), and ||(p_z . n_z)_z|| <= TOL*(1 + ||p||).  Raises
        :class:`KktError` on a block that is not positive definite on the
        tangent planes, an unmet tolerance or a degenerate direction.

        A red node r, pivot block b_rr I_2 (the frames are orthonormal), takes
        B q off the right-hand side, q_r = P_r rhs_r / b_rr with P_r = I - n_r
        n_r^T, and adds w_rb1 w_rb2^T to the band, w_rb = (b_rb / sqrt(b_rr))
        F_b^T n_r; after the band solve, p_r = P_r (rhs_r - (B p)_r) / b_rr.
        """
        b, coefficients, weights, inverse_pivots = prepared
        k, red = self.k, self._red
        directions, rhs = np.asarray(directions, dtype=float), np.asarray(rhs, dtype=float)
        if directions.shape != (k, 3) or rhs.shape != (k, 3):
            raise ValueError(f"need ({k}, 3) directions and rhs, got {directions.shape}, {rhs.shape}")
        norms = _check_directions(directions)
        normals = directions / norms[:, None]
        # (3, K, 2): component, node, frame vector
        frames = tangent_frames(normals)
        columns = frames.reshape(3, 2 * k)
        # the product with ones sums the three components in order, as sum(axis=0) does
        values = _ONES3.dot(columns.take(self._left, axis=1) * columns.take(self._right, axis=1)) * coefficients
        reduced = rhs
        # the red nodes' terms cost some 28 us of numpy calls even where there are none
        if red.size:
            red_normals = normals.take(red, axis=0)
            q = np.zeros((k, 3))
            red_rhs = rhs.take(red, axis=0)
            q[red] = (red_rhs - red_normals * _nodal_dot(red_normals, red_rhs)[:, None]) * inverse_pivots[:, None]
            reduced = rhs - b @ q
            w = _ONES3.dot(columns.take(self._edge_columns, axis=1) * normals.T.take(self._edge_normals, axis=1))
            np.add.at(values, self._w_entries,
                      _outer_corners((w * weights).reshape(-1, 2).take(self._triples, axis=0), self._off_triples))
        # allocated after the gathers are freed, the band keeps a step's peak
        # heap under twice its size, where glibc would return pages each step
        band = np.zeros((self.kd + 1) * 2 * self._order.size)
        band[self._dest] = values
        x = np.einsum("ckj,kc->kj", frames, reduced).take(self._order, axis=0).ravel()  # F^T rhs, node by node
        info = _band_cholesky(band, self.kd, x)
        if info > 0:
            node, unknown = self._order[(info - 1) // 2], (info - 1) % 2
            raise KktError(f"KKT tangent-plane matrix is not positive definite at tangent unknown {unknown} "
                           f"of node {node} ({k} nodes)")
        if not np.isfinite(x).all():
            raise KktError(f"KKT solve produced non-finite values ({k} nodes)")
        p = np.zeros((k, 3))
        p[self._order] = np.einsum("ckj,kj->kc", frames.take(self._order, axis=1), x.reshape(-1, 2))
        if red.size:
            red_rhs -= (b @ p).take(red, axis=0)
            p[red] = (red_rhs - red_normals * _nodal_dot(red_normals, red_rhs)[:, None]) * inverse_pivots[:, None]
        # the frames are orthonormal, so F^T (B p - rhs) has the norm of the
        # tangential part of the residual, the part that no multiple of u_hat cancels
        residual_primal = _norm(np.einsum("ckj,kc->kj", frames, b @ p - rhs))
        residual_constraint = _norm(_nodal_dot(normals, p))
        if residual_primal > TOL * (1.0 + _norm(rhs)) or residual_constraint > TOL * (1.0 + _norm(p)):
            raise KktError(f"KKT residuals not reached (primal {residual_primal:.3e}, constraint "
                           f"{residual_constraint:.3e}, tol {TOL:.1e}, {k} nodes); system may be ill-conditioned")
        return p
