"""Structured triangulations of axis-aligned squares with boundary marking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Accepted values for the Dirichlet boundary selector.
DIRICHLET_SELECTORS = ("boundary", "none")


@dataclass(frozen=True)
class TriMesh:
    """Uniform right-triangle mesh of a square.

    vertices : (nv, 2) float array, lexicographic by (row, column)
    cells : (nc, 3) int array, counterclockwise vertex triples
    boundary_nodes : sorted indices of vertices on the geometric boundary
    dirichlet_nodes : sorted indices of essentially constrained vertices
    h : lattice spacing
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_nodes: np.ndarray
    dirichlet_nodes: np.ndarray
    h: float

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]


def build_square_mesh(n, lower_left=(0.0, 0.0), side=1.0, dirichlet="boundary"):
    """Triangulate a square into 2*n*n right triangles.

    The square with corner ``lower_left`` and edge length ``side`` is cut
    into an n-by-n lattice of cells, each split along its southwest-to-
    northeast diagonal.  Vertex k sits at column k % (n+1), row k // (n+1).

    Parameters
    ----------
    n : int
        Cells per side, at least 1.
    dirichlet : str
        "boundary" marks every boundary vertex as Dirichlet, "none" marks
        no vertex.

    Returns
    -------
    TriMesh
    """
    if n < 1:
        raise ValueError(f"need at least one cell per side, got n={n}")
    if dirichlet not in DIRICHLET_SELECTORS:
        raise ValueError(f"dirichlet must be one of {DIRICHLET_SELECTORS}, got {dirichlet!r}")
    x0, y0 = float(lower_left[0]), float(lower_left[1])
    side = float(side)
    if side <= 0:
        raise ValueError(f"side length must be positive, got {side}")
    h = side / n

    m = n + 1
    cols, rows = np.meshgrid(np.arange(m), np.arange(m))  # row-major over (row, col)
    vertices = np.column_stack([x0 + cols.ravel() * h, y0 + rows.ravel() * h])

    # cell (ix, iy), row-major, is split into (sw, se, ne) and (sw, ne, nw)
    iy, ix = np.divmod(np.arange(n * n, dtype=np.int64), n)
    sw = iy * m + ix
    se, nw = sw + 1, sw + m
    ne = nw + 1
    cells = np.column_stack([sw, se, ne, sw, ne, nw]).reshape(2 * n * n, 3)

    on_boundary = (cols == 0) | (cols == n) | (rows == 0) | (rows == n)
    boundary = np.flatnonzero(on_boundary.ravel())
    dirichlet_nodes = boundary.copy() if dirichlet == "boundary" else np.empty(0, dtype=np.int64)

    for arr in (vertices, cells, boundary, dirichlet_nodes):
        arr.setflags(write=False)
    return TriMesh(vertices, cells, boundary, dirichlet_nodes, h)


def free_nodes(mesh):
    """Sorted indices of vertices not marked Dirichlet."""
    return np.setdiff1d(np.arange(mesh.n_vertices), mesh.dirichlet_nodes)
