"""Structured mesh construction and marking."""

import numpy as np
import pytest

from oracles import scaled_square_mesh, square_cells
from sphereflow.mesh import TriMesh, build_square_mesh, free_nodes


def signed_areas(mesh):
    p = mesh.vertices[mesh.cells]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def test_smallest_mesh():
    m = build_square_mesh(1)
    assert m.n_vertices == 4
    assert len(m.cells) == 2
    assert len(m.boundary_nodes) == 4


def test_paper_scale_mesh():
    m = build_square_mesh(64)
    assert len(m.cells) == 8192
    assert m.n_vertices == 4225
    assert np.allclose(np.diff(np.unique(m.vertices[:, 0])), 1.0 / 64.0, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 32, 64])
def test_area_partition(n):
    areas = signed_areas(build_square_mesh(n))
    assert np.allclose(areas, 0.5 / n**2, rtol=1e-12)
    assert areas.sum() == pytest.approx(1.0, rel=1e-12)


def test_area_partition_scaled_domain():
    m = scaled_square_mesh(6, lower_left=(-2.0, 1.0), side=3.0)
    assert signed_areas(m).sum() == pytest.approx(9.0, rel=1e-12)


def test_boundary_nodes_lie_on_boundary():
    m = build_square_mesh(7)
    for z in m.boundary_nodes:
        x, y = m.vertices[z]
        assert min(abs(x + 0.5), abs(x - 0.5), abs(y + 0.5), abs(y - 0.5)) == 0.0
    # and no interior node is flagged
    for z in free_nodes(m):
        x, y = m.vertices[z]
        assert min(abs(x + 0.5), abs(x - 0.5), abs(y + 0.5), abs(y - 0.5)) > 0.0


def test_vertex_ordering_is_lexicographic():
    m = build_square_mesh(3)
    # index = row * (n+1) + col
    for idx, (x, y) in enumerate(m.vertices):
        assert x == pytest.approx(-0.5 + (idx % 4) / 3.0)
        assert y == pytest.approx(-0.5 + (idx // 4) / 3.0)


def test_free_nodes():
    assert free_nodes(build_square_mesh(1)).size == 0
    m2 = build_square_mesh(2)
    assert list(free_nodes(m2)) == [4]  # the center of the 3x3 lattice
    assert list(free_nodes(build_square_mesh(3))) == [5, 6, 9, 10]


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_square_mesh(0)


def test_mesh_is_immutable():
    m = build_square_mesh(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 99.0


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32])
def test_cells_match_loop_oracle(n):
    cells = build_square_mesh(n).cells
    assert cells.dtype == np.int64
    assert np.array_equal(cells, square_cells(n))
    assert not cells.flags.writeable


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: np.append(b[:-1], 99),
         r"boundary_nodes\[15\] = 99: need strictly increasing vertex indices in \[0, 25\)"),
        (lambda b: np.insert(b, 0, -1), r"boundary_nodes\[0\] = -1: need strictly increasing"),
        (lambda b: np.insert(b, 3, b[3]), r"boundary_nodes\[4\] = 3: need strictly increasing"),
        (lambda b: b[::-1], r"boundary_nodes\[1\] = 23: need strictly increasing"),
        (lambda b: b[:0], r"non-empty 1-D integer array, got int64 \(0,\)"),
        (lambda b: b.astype(float), r"non-empty 1-D integer array, got float64 \(16,\)"),
        (lambda b: b.reshape(4, 4), r"non-empty 1-D integer array, got int64 \(4, 4\)"),
    ],
    ids=["index-past-the-end", "negative-index", "repeated", "unsorted", "empty", "float", "two-dimensional"],
)
def test_mesh_refuses_malformed_boundary_nodes(edit, message):
    # refused at construction, naming the first bad entry: an index past the
    # end would otherwise reach free_nodes as a bare IndexError
    lattice = build_square_mesh(4)
    with pytest.raises(ValueError, match=message):
        TriMesh(lattice.vertices, lattice.cells, edit(lattice.boundary_nodes))


def replaced(array, index, value):
    array = array.copy()
    array[index] = value
    return array


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda v, c: (replaced(v, (7, 1), np.nan), c), r"vertex 7 is not finite: \[0\.0, nan\]"),
        (lambda v, c: (replaced(v, (24, 0), np.inf), c), r"vertex 24 is not finite: \[inf, 0\.5\]"),
        (lambda v, c: (np.column_stack([v, v[:, 0]]), c), r"\(nv, 2\) float array, got float64 \(25, 3\)"),
        (lambda v, c: ((v * 4).astype(np.int64), c), r"\(nv, 2\) float array, got int64 \(25, 2\)"),
        (lambda v, c: (v, c.astype(float)), r"cells must be an \(nc, 3\) integer array, got float64 \(32, 3\)"),
        (lambda v, c: (v, c.ravel()), r"cells must be an \(nc, 3\) integer array, got int64 \(96,\)"),
        (lambda v, c: (v, np.column_stack([c, c[:, 0]])), r"\(nc, 3\) integer array, got int64 \(32, 4\)"),
    ],
    ids=["nan-vertex", "infinite-vertex", "three-coordinates", "integer-vertices", "float-cells",
         "one-dimensional-cells", "four-vertex-cells"],
)
def test_mesh_refuses_malformed_vertices_and_cells(edit, message):
    # refused at construction: float and 1-D cells were bare IndexErrors in the
    # assembly, (nc, 4) cells a scipy length mismatch, and (nv, 3) vertices
    # assembled silently on their first two coordinates
    lattice = build_square_mesh(4)
    with pytest.raises(ValueError, match=message):
        TriMesh(*edit(lattice.vertices, lattice.cells), lattice.boundary_nodes)
