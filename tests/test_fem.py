"""P1 assembly against hand-computed local matrices and exact energies."""

import numpy as np
import pytest

from sphereflow.fem import assemble_mass, assemble_stiffness, l1_nodal_norm, lumped_mass_diagonal
from sphereflow.flow import harmonic_map_system
from sphereflow.initial_data import inverse_stereographic
from sphereflow.mesh import build_square_mesh

RNG = np.random.default_rng(7)


def local_matrices(p0, p1, p2):
    """Reference P1 element matrices from the coordinate formulas."""
    b = np.array([p1[1] - p2[1], p2[1] - p0[1], p0[1] - p1[1]])
    c = np.array([p2[0] - p1[0], p0[0] - p2[0], p1[0] - p0[0]])
    area = 0.5 * ((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1]))
    k_loc = (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
    m_loc = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    return k_loc, m_loc, area


def assemble_by_hand(mesh):
    nv = mesh.n_vertices
    K = np.zeros((nv, nv))
    M = np.zeros((nv, nv))
    for cell in mesh.cells:
        k_loc, m_loc, _ = local_matrices(*mesh.vertices[cell])
        for a in range(3):
            for b in range(3):
                K[cell[a], cell[b]] += k_loc[a, b]
                M[cell[a], cell[b]] += m_loc[a, b]
    return K, M


def test_assembly_matches_hand_assembly():
    mesh = build_square_mesh(3, lower_left=(-0.5, -0.5), side=1.0)
    K_hand, M_hand = assemble_by_hand(mesh)
    assert np.allclose(assemble_stiffness(mesh).toarray(), K_hand, atol=1e-14)
    assert np.allclose(assemble_mass(mesh).toarray(), M_hand, atol=1e-16)


def test_stiffness_row_sums_vanish():
    for n in (1, 4):
        K = assemble_stiffness(build_square_mesh(n))
        assert np.abs(np.asarray(K.sum(axis=1))).max() <= 1e-13


def test_interior_five_point_stencil():
    # the six-triangle patch around an interior node gives diagonal 4,
    # axis neighbors -1, and zero on the split-diagonal neighbors
    n = 4
    K = assemble_stiffness(build_square_mesh(n)).toarray()
    m = n + 1
    center = 2 * m + 2
    row = K[center]
    assert row[center] == pytest.approx(4.0)
    for neighbor in (center - 1, center + 1, center - m, center + m):
        assert row[neighbor] == pytest.approx(-1.0)
    for diag in (center - m - 1, center - m + 1, center + m - 1, center + m + 1):
        assert row[diag] == pytest.approx(0.0, abs=1e-14)
    others = set(range(m * m)) - {center, center - 1, center + 1, center - m, center + m}
    assert max(abs(row[i]) for i in others) <= 1e-14


def test_stiffness_energy_exact_on_affine():
    for n, side in ((2, 1.0), (5, 2.5)):
        mesh = build_square_mesh(n, lower_left=(0.25, -1.0), side=side)
        K = assemble_stiffness(mesh)
        u = np.column_stack([mesh.vertices[:, 0], np.zeros(mesh.n_vertices), np.zeros(mesh.n_vertices)])
        assert 0.5 * np.sum(u * (K @ u)) == pytest.approx(0.5 * side**2, rel=1e-12)
        v = np.column_stack([mesh.vertices[:, 0], mesh.vertices[:, 1], np.zeros(mesh.n_vertices)])
        assert 0.5 * np.sum(v * (K @ v)) == pytest.approx(side**2, rel=1e-12)


def test_stiffness_kernel_is_constants():
    mesh = build_square_mesh(3, dirichlet="none")
    K = assemble_stiffness(mesh)
    const = np.ones((mesh.n_vertices, 1))
    assert np.abs(K @ const).max() <= 1e-13
    assert np.linalg.matrix_rank(K.toarray(), tol=1e-10) == mesh.n_vertices - 1


def test_mass_total_and_lumped_diagonal():
    side = 1.0
    mesh = build_square_mesh(4, side=side)
    M = assemble_mass(mesh)
    ones = np.ones(mesh.n_vertices)
    assert ones @ (M @ ones) == pytest.approx(side**2, rel=1e-13)
    diag = lumped_mass_diagonal(mesh)
    assert diag.sum() == pytest.approx(side**2, rel=1e-13)
    # interior node: six adjacent triangles of area h^2/2, a third each
    center = 2 * 5 + 2
    assert diag[center] == pytest.approx(mesh.h**2, rel=1e-13)


def test_consistent_mass_positive_definite():
    mesh = build_square_mesh(3)
    M = assemble_mass(mesh)
    for _ in range(100):
        v = RNG.standard_normal(mesh.n_vertices)
        assert v @ (M @ v) > 0.0


def test_interpolate_constant_and_affine():
    # the nodal interpolant reproduces an affine map exactly, so its energy is exact
    mesh = build_square_mesh(3, lower_left=(-0.5, -0.5), side=1.0)
    K = assemble_stiffness(mesh)
    A = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
    v = mesh.vertices @ A.T
    assert 0.5 * np.sum(v * (K @ v)) == pytest.approx(0.5 * np.sum(A * A), rel=1e-12)


def test_interpolate_stereographic_unit_nodes():
    mesh = build_square_mesh(16, lower_left=(-0.5, -0.5), side=1.0)
    u = inverse_stereographic(mesh.vertices)
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-14


def test_reference_energy_on_paper_mesh():
    mesh = build_square_mesh(64, lower_left=(-0.5, -0.5), side=1.0)
    u = inverse_stereographic(mesh.vertices)
    energy = harmonic_map_system(mesh).energy(u)
    assert energy == pytest.approx(3.009, rel=0.02)


def test_l1_nodal_norm():
    mesh = build_square_mesh(4, side=1.0)
    nv = mesh.n_vertices
    diag = lumped_mass_diagonal(mesh)
    assert l1_nodal_norm(np.zeros(nv), diag) == 0.0
    assert l1_nodal_norm(np.full(nv, -0.25), diag) == pytest.approx(0.25, rel=1e-13)
    w = np.where(np.arange(nv) % 2 == 0, 1.0, -1.0)
    assert l1_nodal_norm(w, diag) == pytest.approx(diag.sum(), rel=1e-13)
    with pytest.raises(ValueError):
        l1_nodal_norm(np.zeros(3), diag)


def test_dirichlet_energy_constant_field():
    mesh = build_square_mesh(3)
    u = np.tile([1.0, 2.0, 3.0], (mesh.n_vertices, 1))
    assert harmonic_map_system(mesh).energy(u) == pytest.approx(0.0, abs=1e-13)
