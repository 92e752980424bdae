"""P1 finite elements on triangle meshes: stiffness, mass and lumped mass assembly.

Vector-valued nodal fields are plain (n_vertices, 3) float arrays; scalar
matrices act blockwise on the component columns, so a single N x N matrix
serves all three components.  The matrices are :class:`CsrMatrix` values
on scipy's compiled CSR kernels, loaded by file, so that no process imports
``scipy.sparse`` unless that file fails to load.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

# where scipy keeps the extension module of its CSR kernels
_SCIPY_SPARSE = Path(scipy.__file__).resolve().parent / "sparse"


@functools.cache
def _sparsetools():
    """scipy's extension module of sparse kernels, ``_SCIPY_SPARSE/_sparsetools*``, loaded by file.

    It is loaded under a name outside scipy's, so ``scipy.sparse`` is neither
    imported nor shadowed; where no such file loads, ``scipy.sparse._sparsetools``
    is imported instead, the same kernels.  A wrong argument list raises.
    """
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = _SCIPY_SPARSE / f"_sparsetools{suffix}"
        spec = importlib.util.spec_from_file_location("sphereflow._sparsetools", path)
        try:
            module = importlib.util.module_from_spec(spec)
        except (ImportError, OSError):
            continue
        spec.loader.exec_module(module)
        return module
    from scipy.sparse import _sparsetools

    return _sparsetools


def _trim(array, size):
    """The first ``size`` entries of ``array``, copied where that frees more than half of it, as scipy's ``prune``."""
    head = array[:size]
    return head.copy() if size < array.size // 2 else head


@dataclass(eq=False)
class CsrMatrix:
    """A float64 sparse matrix in compressed sparse row storage (Saad 2003, ch. 3).

    Row i holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, sorted and without duplicates.
    These are the attributes of a scipy ``csr_matrix``, so
    ``scipy.sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)``
    wraps one; every operation calls the kernel that scipy calls for it, so
    each result is bitwise scipy's.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def __post_init__(self):
        # the kernels read the arrays as the shape and indptr say, unchecked
        shape, indptr, indices = self.shape, self.indptr, self.indices
        if not (len(shape) == 2 and all(isinstance(n, (int, np.integer)) and n >= 0 for n in shape)):
            raise ValueError(f"need a shape of two non-negative ints, got {shape!r}")
        if indptr.shape != (shape[0] + 1,):
            raise ValueError(f"need an indptr of rows + 1 = {shape[0] + 1} entries, got shape {indptr.shape}")
        if indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any():
            raise ValueError("need an indptr that starts at 0 and never decreases")
        if indices.shape != (indptr[-1],) or self.data.shape != indices.shape:
            raise ValueError(f"need indices and data of indptr[-1] = {indptr[-1]} entries each, "
                             f"got {indices.shape} and {self.data.shape}")
        # one reduction: read without its sign, a negative index is a huge one
        if indices.size and not indices.view(f"u{indices.itemsize}").max() < shape[1]:
            raise ValueError(f"need column indices in [0, {shape[1]})")

    def __matmul__(self, x):
        """The (rows, k) float64 product with an (columns, k) array, by ``csr_matvecs``."""
        x = np.asarray(x, dtype=float)
        n_rows, n_cols = self.shape
        # the kernel reads x as the shape says, unchecked
        if x.ndim != 2 or x.shape[0] != n_cols:
            raise ValueError(f"need a ({n_cols}, k) array, got shape {x.shape}")
        y = np.zeros((n_rows, x.shape[1]))
        _sparsetools().csr_matvecs(n_rows, n_cols, x.shape[1], self.indptr, self.indices, self.data, x.ravel(),
                                   y.ravel())
        return y

    def _index(self, index, n):
        """``index`` as an array of the index type; raises ``IndexError`` outside [0, n)."""
        index = np.asarray(index, dtype=self.indices.dtype)
        if index.size and not (index.min() >= 0 and index.max() < n):
            raise IndexError(f"need indices in [0, {n})")
        return index

    def rows(self, index):
        """The rows ``index`` (a 1-D integer array) in its order, by ``csr_row_index``."""
        index = self._index(index, self.shape[0])
        indptr = np.zeros(index.size + 1, self.indptr.dtype)
        np.cumsum(self.indptr[index + 1] - self.indptr[index], out=indptr[1:])
        indices, data = np.empty(indptr[-1], self.indices.dtype), np.empty(indptr[-1])
        _sparsetools().csr_row_index(index.size, index, self.indptr, self.indices, self.data, indices, data)
        return CsrMatrix(data, indices, indptr, (index.size, self.shape[1]))

    def columns(self, index):
        """The columns ``index`` (a 1-D integer array) in its order, by ``csr_column_index1/2``."""
        index = self._index(index, self.shape[1])
        kernels, (n_rows, n_cols) = _sparsetools(), self.shape
        offsets, indptr = np.zeros(n_cols, self.indices.dtype), np.empty_like(self.indptr)
        kernels.csr_column_index1(index.size, index, n_rows, n_cols, self.indptr, self.indices, offsets, indptr)
        indices, data = np.empty(indptr[-1], self.indices.dtype), np.empty(indptr[-1])
        kernels.csr_column_index2(np.argsort(index).astype(index.dtype), offsets, self.indices.size, self.indices,
                                  self.data, indices, data)
        return CsrMatrix(data, indices, indptr, (n_rows, index.size))


def _coo_to_csr(rows, cols, values, n):
    """The (n, n) CSR arrays (data, indices, indptr) of the summed entries, as scipy's ``coo_matrix.tocsr()``.

    Its kernels, in its order: ``coo_tocsr``; then, unless the result is
    already canonical, ``csr_sort_indices`` where the indices are not sorted
    (the sort is unstable on equal indices, so a second one can change the
    sums) and ``csr_sum_duplicates``.
    """
    kernels = _sparsetools()
    index = np.int32 if max(values.size, n) <= np.iinfo(np.int32).max else np.int64
    indptr, indices, data = np.empty(n + 1, index), np.empty(values.size, index), np.empty_like(values)
    kernels.coo_tocsr(n, n, values.size, rows.astype(index, copy=False), cols.astype(index, copy=False), values,
                      indptr, indices, data)
    if not kernels.csr_has_canonical_format(n, indptr, indices):
        if not kernels.csr_has_sorted_indices(n, indptr, indices):
            kernels.csr_sort_indices(n, indptr, indices, data)
        kernels.csr_sum_duplicates(n, n, indptr, indices, data)
        data, indices = _trim(data, indptr[-1]), _trim(indices, indptr[-1])
    return data, indices, indptr


def assemble_p1(mesh):
    """Scalar P1 stiffness and mass matrices and lumped mass diagonal, from one pass over the cells.

    The stiffness entries are integrals of grad(phi_i).grad(phi_j), the
    mass entries of phi_i*phi_j, and the lumped diagonal takes area/3 from
    each adjacent triangle.  For the triangle (p0, p1, p2) the P1 gradient
    of hat function i is (b_i, c_i) / (2 A) with b_i = y_j - y_k,
    c_i = x_k - x_j (cyclic).  Both matrices are :class:`CsrMatrix` values
    on the pattern of the mesh's edges, from the same (row, col) entries,
    bitwise scipy's ``coo_matrix(...).tocsr()``; the stiffness stores no
    exact zero (the hypotenuse weights of right-angle cells), as after
    scipy's ``eliminate_zeros()``.

    Raises ``ValueError`` naming the first cell with a vertex index outside
    [0, n_vertices), the first cell whose signed area is not positive and
    finite (a degenerate or clockwise cell), the first vertex in no cell, or
    the first cell with a directed edge of an earlier one (a repeated cell,
    in any rotation, or an overlapping one) together with that earlier cell.

    Returns
    -------
    (stiffness, mass, lumped_weights)
    """
    nv = mesh.n_vertices
    # two reductions settle the common case
    if mesh.cells.size and not (mesh.cells.min() >= 0 and mesh.cells.max() < nv):
        cell = ((mesh.cells < 0) | (mesh.cells >= nv)).any(axis=1).argmax()
        raise ValueError(f"cell {cell} {mesh.cells[cell].tolist()} has a vertex index outside [0, {nv})")
    pts = mesh.vertices[mesh.cells]  # (nc, 3, 2)
    x = pts[:, :, 0]
    y = pts[:, :, 1]
    j = [1, 2, 0]
    k = [2, 0, 1]
    b = y[:, j] - y[:, k]
    c = x[:, k] - x[:, j]
    area = 0.5 * (
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    )
    # written so that NaN fails
    usable = (area > 0.0) & (area < np.inf)
    if not usable.all():
        cell = usable.argmin()
        raise ValueError(f"cell {cell} {mesh.cells[cell].tolist()} has signed area {area[cell]:.3e}; "
                         "each cell needs a positive, finite area, its vertices counterclockwise")
    covered = np.zeros(nv, bool)
    covered[mesh.cells] = True
    if not covered.all():
        raise ValueError(f"vertex {covered.argmin()} of {nv} is in no cell")
    # every cell is counterclockwise now, so a repeated cell, in any rotation,
    # repeats all three of its directed edges; in a valid mesh each directed
    # edge bounds one cell; the keys, below nv * nv, sort faster in 32 bits
    cells = mesh.cells.astype(np.int32 if nv * nv <= 2**31 else np.int64)
    keys = (cells * nv + cells[:, [1, 2, 0]]).ravel()
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        _, firsts = np.unique(keys, return_index=True)
        repeats = np.ones(keys.size, bool)
        repeats[firsts] = False
        edge = repeats.argmax()  # the first edge that an earlier cell has
        first, second = (keys == keys[edge]).argmax() // 3, edge // 3
        raise ValueError(f"cells {first} {mesh.cells[first].tolist()} and {second} {mesh.cells[second].tolist()} "
                         f"share the directed edge {tuple(map(int, divmod(keys[edge], nv)))}: "
                         "a repeated or overlapping cell")
    scale = 1.0 / (4.0 * area)
    # K + iM, converted once: the kernels sum duplicates in the same order for
    # any value type, so the parts are bitwise the two matrices
    local = np.empty((len(area), 3, 3), complex)
    local.real = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * scale[:, None, None]
    local.imag = ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :] * area[:, None, None]
    data, indices, indptr = _coo_to_csr(np.repeat(cells, 3, axis=1).ravel(), np.tile(cells, (1, 3)).ravel(),
                                        local.ravel(), nv)
    mass = CsrMatrix(data.imag.copy(), indices, indptr, (nv, nv))
    # K drops its zeros in place, so it takes copies of the index arrays
    k_data, k_indices, k_indptr = data.real.copy(), indices.copy(), indptr.copy()
    _sparsetools().csr_eliminate_zeros(nv, nv, k_indptr, k_indices, k_data)
    stiffness = CsrMatrix(_trim(k_data, k_indptr[-1]), _trim(k_indices, k_indptr[-1]), k_indptr, (nv, nv))
    # bincount adds in input order, as np.add.at does
    lumped_weights = np.bincount(mesh.cells.ravel(), weights=np.repeat(area / 3.0, 3), minlength=nv)
    return stiffness, mass, lumped_weights
