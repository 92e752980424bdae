"""Structured triangulations of the square [-1/2, 1/2]^2; the boundary carries the Dirichlet data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class TriMesh:
    """Triangle mesh of a plane domain, with the nodes of its Dirichlet data; :func:`build_square_mesh` makes one.

    vertices : (nv, 2) array of finite floats, in any order
    cells : (nc, 3) integer array of vertex triples, which ``assemble_p1``
        needs in [0, nv), counterclockwise, distinct and covering each vertex
    boundary_nodes : strictly increasing indices in [0, nv) of the vertices
        where the field is fixed (Dirichlet data), at least one

    Fields of another shape or dtype, a non-finite vertex or a bad boundary
    node raise ``ValueError``.
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_nodes: np.ndarray

    def __post_init__(self):
        vertices, cells = np.asarray(self.vertices), np.asarray(self.cells)
        # the assembly reads two coordinates per vertex and indexes the vertices by the cells
        if vertices.ndim != 2 or vertices.shape[1] != 2 or vertices.dtype.kind != "f":
            raise ValueError(f"vertices must be an (nv, 2) float array, got {vertices.dtype} {vertices.shape}")
        if not np.isfinite(vertices).all():
            z = int(np.isfinite(vertices).all(axis=1).argmin())
            raise ValueError(f"vertex {z} is not finite: {vertices[z].tolist()}")
        if cells.ndim != 2 or cells.shape[1] != 3 or cells.dtype.kind not in "iu":
            raise ValueError(f"cells must be an (nc, 3) integer array, got {cells.dtype} {cells.shape}")
        # free_nodes indexes by these, and the Dirichlet data makes the h1 metric definite
        nodes, nv = np.asarray(self.boundary_nodes), self.n_vertices
        if nodes.ndim != 1 or nodes.dtype.kind not in "iu" or not nodes.size:
            raise ValueError(f"boundary_nodes must be a non-empty 1-D integer array, got {nodes.dtype} {nodes.shape}")
        bad = (nodes < 0) | (nodes >= nv)
        bad[1:] |= nodes[1:] <= nodes[:-1]
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"boundary_nodes[{i}] = {nodes[i]}: need strictly increasing vertex indices in [0, {nv})")

    @property
    def n_vertices(self):
        return self.vertices.shape[0]


def build_square_mesh(n):
    """Triangulate the square [-1/2, 1/2]^2 into 2*n*n right triangles.

    The square is cut into an n-by-n lattice of cells, each split along
    its southwest-to-northeast diagonal.  Vertex k sits at column
    k % (n+1), row k // (n+1).  The boundary vertices carry the Dirichlet
    data; :func:`free_nodes` lists the others.

    Parameters
    ----------
    n : int
        Cells per side, at least 1.

    Returns
    -------
    TriMesh
    """
    if n < 1:
        raise ValueError(f"need at least one cell per side, got n={n}")
    h = 1.0 / n
    m = n + 1
    cols, rows = np.meshgrid(np.arange(m), np.arange(m))  # row-major over (row, col)
    vertices = np.column_stack([-0.5 + cols.ravel() * h, -0.5 + rows.ravel() * h])

    # cell (ix, iy), row-major, is split into (sw, se, ne) and (sw, ne, nw)
    iy, ix = np.divmod(np.arange(n * n, dtype=np.int64), n)
    sw = iy * m + ix
    se, nw = sw + 1, sw + m
    ne = nw + 1
    cells = np.column_stack([sw, se, ne, sw, ne, nw]).reshape(2 * n * n, 3)

    on_boundary = (cols == 0) | (cols == n) | (rows == 0) | (rows == n)
    boundary = np.flatnonzero(on_boundary.ravel())
    for arr in (vertices, cells, boundary):
        arr.setflags(write=False)
    return TriMesh(vertices, cells, boundary)


def free_nodes(mesh):
    """Sorted indices of the interior vertices, the ones not fixed by the Dirichlet data."""
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[mesh.boundary_nodes] = False
    return np.flatnonzero(free)
