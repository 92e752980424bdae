"""P1 finite elements on triangle meshes: assembly and nodal norms.

Vector-valued nodal fields are plain (n_vertices, 3) float arrays; scalar
matrices act blockwise on the component columns, so a single N x N matrix
serves all three components.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _cell_geometry(mesh):
    """Per-cell shape-function gradients and areas.

    For the triangle (p0, p1, p2) the P1 gradient of hat function i is
    (b_i, c_i) / (2 A) with b_i = y_j - y_k, c_i = x_k - x_j (cyclic).
    """
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
    return b, c, area


def _accumulate(mesh, local):
    """Sum (nc, 3, 3) local matrices into a global CSR matrix."""
    nv = mesh.n_vertices
    rows = np.repeat(mesh.cells, 3, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, 3)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv))
    return mat.tocsr()


def assemble_stiffness(mesh):
    """Scalar P1 stiffness matrix, entries integral of grad(phi_i).grad(phi_j)."""
    b, c, area = _cell_geometry(mesh)
    scale = 1.0 / (4.0 * area)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * scale[:, None, None]
    return _accumulate(mesh, local)


def assemble_mass(mesh):
    """Scalar P1 mass matrix, integral of phi_i*phi_j."""
    _, _, area = _cell_geometry(mesh)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = base[None, :, :] * area[:, None, None]
    return _accumulate(mesh, local)


def lumped_mass_diagonal(mesh):
    """Diagonal of the lumped mass matrix: area/3 from each adjacent triangle."""
    _, _, area = _cell_geometry(mesh)
    diag = np.zeros(mesh.n_vertices)
    np.add.at(diag, mesh.cells.ravel(), np.repeat(area / 3.0, 3))
    return diag


def l1_nodal_norm(w, weights):
    """Lumped-quadrature L1 norm sum_z m_z |w(z)| of nodal values.

    ``weights`` is the lumped mass diagonal m.  Exact L1 norm of the P1
    interpolant whenever w has one sign.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[0] != weights.shape[0]:
        raise ValueError(f"expected {weights.shape[0]} nodal values, got {w.shape[0]}")
    return float(weights @ np.abs(w))
