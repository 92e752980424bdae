"""P1 finite elements on triangle meshes: stiffness, mass and lumped mass assembly.

Vector-valued nodal fields are plain (n_vertices, 3) float arrays; scalar
matrices act blockwise on the component columns, so a single N x N matrix
serves all three components.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def assemble_p1(mesh):
    """Scalar P1 stiffness and mass matrices and lumped mass diagonal, from one pass over the cells.

    The stiffness entries are integrals of grad(phi_i).grad(phi_j), the
    mass entries of phi_i*phi_j, and the lumped diagonal takes area/3 from
    each adjacent triangle.  For the triangle (p0, p1, p2) the P1 gradient
    of hat function i is (b_i, c_i) / (2 A) with b_i = y_j - y_k,
    c_i = x_k - x_j (cyclic).  Both matrices are CSR on the pattern of the
    mesh's edges, from the same (row, col) entries; the stiffness stores no
    exact zero (the hypotenuse weights of right-angle cells).

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
    # edge bounds one cell
    tails = mesh.cells.astype(np.int64)
    keys = (tails * nv + tails[:, [1, 2, 0]]).ravel()
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
    # K + iM, converted once: duplicates are summed in the same order for any
    # value type, so the parts are bitwise the two matrices
    local = np.empty((len(area), 3, 3), complex)
    local.real = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * scale[:, None, None]
    local.imag = ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :] * area[:, None, None]
    # int32, the index type of the CSR matrices, so that no index is copied
    cells = mesh.cells.astype(np.int32)
    entries = (np.repeat(cells, 3, axis=1).ravel(), np.tile(cells, (1, 3)).ravel())
    both = sp.coo_matrix((local.ravel(), entries), shape=(nv, nv)).tocsr()
    # K drops its zeros in place, so it takes copies of the index arrays
    stiffness = sp.csr_matrix((both.data.real.copy(), both.indices.copy(), both.indptr.copy()), shape=(nv, nv))
    mass = sp.csr_matrix((both.data.imag.copy(), both.indices, both.indptr), shape=(nv, nv))
    stiffness.eliminate_zeros()
    # bincount adds in input order, as np.add.at does
    lumped_weights = np.bincount(mesh.cells.ravel(), weights=np.repeat(area / 3.0, 3), minlength=nv)
    return stiffness, mass, lumped_weights
