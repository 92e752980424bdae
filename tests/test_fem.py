"""P1 assembly against hand-computed local matrices, exact energies and the per-matrix oracle."""

import importlib.machinery

import numpy as np
import pytest

import oracles
from oracles import delaunay_mesh, scaled_square_mesh, to_scipy
from sphereflow import fem
from sphereflow.diagnostics import constraint_violation
from sphereflow.fem import assemble_p1
from sphereflow.flow import EnergySystem, FlowConfig, run_flow
from sphereflow.initial_data import InitSpec, inverse_stereographic, make_initial
from sphereflow.kkt import TangentPlaneAnalysis
from sphereflow.mesh import TriMesh, build_square_mesh, free_nodes

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
    mesh = build_square_mesh(3)
    K_hand, M_hand = assemble_by_hand(mesh)
    K, M, _ = assemble_p1(mesh)
    assert np.allclose(to_scipy(K).toarray(), K_hand, atol=1e-14)
    assert np.allclose(to_scipy(M).toarray(), M_hand, atol=1e-16)


def test_stiffness_row_sums_vanish():
    for n in (1, 4):
        K = to_scipy(assemble_p1(build_square_mesh(n))[0])
        assert np.abs(np.asarray(K.sum(axis=1))).max() <= 1e-13


def test_interior_five_point_stencil():
    # the six-triangle patch around an interior node gives diagonal 4,
    # axis neighbors -1, and zero on the split-diagonal neighbors
    n = 4
    K = to_scipy(assemble_p1(build_square_mesh(n))[0]).toarray()
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
        mesh = scaled_square_mesh(n, lower_left=(0.25, -1.0), side=side)
        K = assemble_p1(mesh)[0]
        u = np.column_stack([mesh.vertices[:, 0], np.zeros(mesh.n_vertices), np.zeros(mesh.n_vertices)])
        assert 0.5 * np.sum(u * (K @ u)) == pytest.approx(0.5 * side**2, rel=1e-12)
        v = np.column_stack([mesh.vertices[:, 0], mesh.vertices[:, 1], np.zeros(mesh.n_vertices)])
        assert 0.5 * np.sum(v * (K @ v)) == pytest.approx(side**2, rel=1e-12)


def test_stiffness_kernel_is_constants():
    mesh = build_square_mesh(3)
    K = assemble_p1(mesh)[0]
    const = np.ones((mesh.n_vertices, 1))
    assert np.abs(K @ const).max() <= 1e-13
    assert np.linalg.matrix_rank(to_scipy(K).toarray(), tol=1e-10) == mesh.n_vertices - 1


def test_mass_total_and_lumped_diagonal():
    mesh = build_square_mesh(4)
    _, M, diag = assemble_p1(mesh)
    M = to_scipy(M)
    ones = np.ones(mesh.n_vertices)
    assert ones @ (M @ ones) == pytest.approx(1.0, rel=1e-13)
    assert diag.sum() == pytest.approx(1.0, rel=1e-13)
    # interior node: six adjacent triangles of area h^2/2, a third each
    center = 2 * 5 + 2
    assert diag[center] == pytest.approx(0.25**2, rel=1e-13)


def test_consistent_mass_positive_definite():
    mesh = build_square_mesh(3)
    M = to_scipy(assemble_p1(mesh)[1])
    for _ in range(100):
        v = RNG.standard_normal(mesh.n_vertices)
        assert v @ (M @ v) > 0.0


def test_interpolate_constant_and_affine():
    # the nodal interpolant reproduces an affine map exactly, so its energy is exact
    mesh = build_square_mesh(3)
    K = assemble_p1(mesh)[0]
    A = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
    v = mesh.vertices @ A.T
    assert 0.5 * np.sum(v * (K @ v)) == pytest.approx(0.5 * np.sum(A * A), rel=1e-12)


def test_interpolate_stereographic_unit_nodes():
    mesh = build_square_mesh(16)
    u = inverse_stereographic(mesh.vertices)
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-14


def test_reference_energy_on_paper_mesh():
    mesh = build_square_mesh(64)
    u = inverse_stereographic(mesh.vertices)
    energy = EnergySystem(mesh).energy(u)
    assert energy == pytest.approx(3.009, rel=0.02)


def test_l1_nodal_norm():
    # the lumped L1 norm sum_z m_z |w(z)| lives in constraint_violation, with w = |u|^2 - 1
    mesh = build_square_mesh(4)
    nv = mesh.n_vertices
    diag = assemble_p1(mesh)[2]
    assert constraint_violation(1.0 + np.zeros(nv), diag) == 0.0
    assert constraint_violation(1.0 + np.full(nv, -0.25), diag) == pytest.approx(0.25, rel=1e-13)
    w = np.where(np.arange(nv) % 2 == 0, 1.0, -1.0)
    assert constraint_violation(1.0 + w, diag) == pytest.approx(diag.sum(), rel=1e-13)
    with pytest.raises(ValueError):
        constraint_violation(np.zeros(3), diag)


def test_dirichlet_energy_constant_field():
    mesh = build_square_mesh(3)
    u = np.tile([1.0, 2.0, 3.0], (mesh.n_vertices, 1))
    assert EnergySystem(mesh).energy(u) == pytest.approx(0.0, abs=1e-13)


def replaced(array, index, value):
    array = array.copy()
    array[index] = value
    return array


# each malformed mesh fails the assembly before it divides by an area: a
# zero-area cell made the energy NaN, so two audits read it as skipped and
# passed, and a clockwise cell's matrices entered negated, a different problem;
# a repeated cell counted twice in every matrix, a different problem again
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda v, c: (v, np.vstack([c, [0, 1, 2]])), r"cell 32 \[0, 1, 2\] has signed area 0\.000e\+00"),
        (lambda v, c: (v, replaced(c, 5, c[5, ::-1])), r"cell 5 \[7, 8, 2\] has signed area -3\.125e-02"),
        (lambda v, c: (v, replaced(c, (7, 1), -1)), r"cell 7 \[3, -1, 8\] has a vertex index outside \[0, 25\)"),
        (lambda v, c: (v, replaced(c, (7, 1), 25)), r"cell 7 \[3, 25, 8\] has a vertex index outside \[0, 25\)"),
        (lambda v, c: (np.vstack([v, [0.75, 0.75]]), c), r"vertex 25 of 26 is in no cell"),
        (lambda v, c: (v, np.vstack([c, c[5]])),
         r"cells 5 \[2, 8, 7\] and 32 \[2, 8, 7\] share the directed edge \(2, 8\)"),
        (lambda v, c: (v, np.vstack([c, np.roll(c[5], 1)])),
         r"cells 5 \[2, 8, 7\] and 32 \[7, 2, 8\] share the directed edge \(7, 2\)"),
        (lambda v, c: (v, np.vstack([c, [2, 8, 12]])),
         r"cells 5 \[2, 8, 7\] and 32 \[2, 8, 12\] share the directed edge \(2, 8\)"),
        (lambda v, c: (np.vstack([v, [0.75, 0.75]]), np.vstack([c, c[5]])), r"vertex 25 of 26 is in no cell"),
    ],
    ids=["zero-area-cell", "clockwise-cell", "negative-index", "index-past-the-end", "vertex-in-no-cell",
         "repeated-cell", "rotated-repeated-cell", "overlapping-cell", "repeated-cell-and-vertex-in-no-cell"],
)
def test_assembly_refuses_malformed_mesh(edit, message):
    lattice = build_square_mesh(4)
    mesh = TriMesh(*edit(lattice.vertices, lattice.cells), lattice.boundary_nodes)
    with pytest.raises(ValueError, match=message):
        assemble_p1(mesh)


def same_bits(a, b):
    """Whether two arrays, or two CSR matrices part by part, are bitwise equal, dtypes included."""
    if hasattr(a, "indptr"):
        parts = ("data", "indices", "indptr")
        return tuple(a.shape) == tuple(b.shape) and all(same_bits(getattr(a, p), getattr(b, p)) for p in parts)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def jittered_mesh(n, seed):
    """The n x n lattice with each free vertex moved by up to 0.3 h in all, which keeps every cell counterclockwise."""
    lattice = build_square_mesh(n)
    free = free_nodes(lattice)
    vertices = lattice.vertices.copy()
    vertices[free] += 0.3 / n / np.sqrt(2.0) * np.random.default_rng(seed).uniform(-1.0, 1.0, (free.size, 2))
    return TriMesh(vertices, lattice.cells, lattice.boundary_nodes)


# two cells that share vertex 2 alone: row 2 of the converted entries is
# sorted but has a duplicate, so scipy sums it without sorting it again
BOWTIE = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0], [0.0, 1.0]]),
                 np.array([[0, 1, 2], [2, 3, 4]]), np.arange(5))
SETUP_MESHES = {f"unit-{n}": (lambda n=n: build_square_mesh(n)) for n in (1, 2, 3, 8, 16, 32, 64)}
SETUP_MESHES["scaled-5"] = lambda: scaled_square_mesh(5, lower_left=(0.25, -1.0), side=2.5)
SETUP_MESHES |= {
    "one-cell": lambda: TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]), np.arange(3)),
    "bowtie": lambda: BOWTIE,
    **{f"jittered-{n}": (lambda n=n: jittered_mesh(n, seed=n)) for n in (3, 8, 16)},
    **{f"delaunay-{domain}-{n}": (lambda domain=domain, n=n: delaunay_mesh(domain, n, seed=n))
       for domain in ("square", "disk") for n in (2, 6, 12)},
}


@pytest.mark.parametrize("metric", ["h1", "l2"])
@pytest.mark.parametrize("mesh_name", SETUP_MESHES)
def test_setup_matches_per_matrix_oracle_bitwise(mesh_name, metric):
    # one pass over the mesh, through the kernels of scipy's coo -> csr
    # conversion in its order, gives the bits of scipy's conversion of each
    # matrix, on and off the lattice; add.at gives the lumped weights and a
    # set difference the free nodes
    mesh = SETUP_MESHES[mesh_name]()
    system = EnergySystem(mesh, metric)
    stiffness, mass = oracles.assemble_p1_matrices(mesh)
    free = oracles.free_nodes(mesh)
    assert same_bits(system.stiffness, stiffness)
    assert same_bits(system.mass, mass)
    assert same_bits(system.lumped_weights, oracles.lumped_mass_diagonal(mesh))
    assert same_bits(system.free, free)
    # the blocks are cut from the stiffness without its zeros
    assert same_bits(system._a_ff, stiffness[free][:, free])
    assert same_bits(system._metric_ff, (mass if metric == "l2" else stiffness)[free][:, free])
    # the h1 metric block is the energy block itself, cut once
    assert (system._metric_ff is system._a_ff) == (metric == "h1")
    for kind in ("exact", "perturbed", "random"):
        spec = InitSpec(kind, seed=3, perturb_amplitude=0.5)
        assert same_bits(make_initial(mesh, spec), oracles.make_initial(mesh, spec))


@pytest.mark.parametrize("metric", ["h1", "l2"])
@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32, 64])
def test_tangent_plane_analysis_does_not_see_the_stiffness_zeros(n, metric):
    # the system analyses the pattern of metric_ff, cut from the stiffness
    # without its zeros, so the oracle's sum metric_ff + scale * a_ff, which
    # drops the oracle stiffness's zeros, has the same analysis at each scale
    mesh = build_square_mesh(n)
    system = EnergySystem(mesh, metric)
    free = oracles.free_nodes(mesh)
    k_ff = oracles.assemble_stiffness(mesh)[free][:, free]
    metric_ff = oracles.assemble_mass(mesh)[free][:, free] if metric == "l2" else k_ff
    for scale in (0.25, 1.0 / 6.0, 1e-3):
        ours = vars(system._analysis)
        oracle = vars(TangentPlaneAnalysis(metric_ff + scale * k_ff))
        assert ours.keys() == oracle.keys()
        for name, value in ours.items():
            compared = hasattr(value, "dtype") or hasattr(value, "indptr")
            assert same_bits(value, oracle[name]) if compared else value == oracle[name], name


@pytest.mark.parametrize("n", [4, 8, 32])
def test_stiffness_stores_no_zero_and_products_keep_their_bits(n):
    # the right-angle cells' hypotenuse weights are exactly 0 and are not
    # stored; K u and the right-hand side keep the oracle's bits
    mesh = build_square_mesh(n)
    system = EnergySystem(mesh)
    k_full = oracles.assemble_stiffness(mesh)
    assert np.count_nonzero(k_full.data == 0.0) > 0
    assert np.all(system.stiffness.data != 0.0)
    free = oracles.free_nodes(mesh)
    rng = np.random.default_rng(n)
    for scale in (1.0, 1e-300, 1e300):
        u = scale * rng.standard_normal((mesh.n_vertices, 3))
        assert same_bits(system.stiffness @ u, k_full @ u)
        assert same_bits(system.rhs_from(u, 1.0 / 3.0), (-(1.0 / 3.0) * (k_full @ u))[free])


def test_repeated_cell_on_a_lattice_past_32_bit_edge_keys():
    # 216^2 = 46,656 vertices: the directed-edge keys tail * nv + head pass
    # 2^31, so they are formed in 64 bits and name the right edge
    lattice = build_square_mesh(215)
    assert lattice.n_vertices**2 > 2**31
    mesh = TriMesh(lattice.vertices, np.vstack([lattice.cells, lattice.cells[-1]]), lattice.boundary_nodes)
    with pytest.raises(ValueError, match=r"cells 92449 \[46438, 46655, 46654\] and 92450 \[46438, 46655, 46654\] "
                                         r"share the directed edge \(46438, 46655\)"):
        assemble_p1(mesh)


def test_bowtie_sums_a_sorted_row_without_sorting_it():
    kernels = fem._sparsetools()
    rows = np.repeat(BOWTIE.cells, 3, axis=1).ravel().astype(np.int32)
    cols = np.tile(BOWTIE.cells, (1, 3)).ravel().astype(np.int32)
    indptr, indices = np.empty(6, np.int32), np.empty(18, np.int32)
    kernels.coo_tocsr(5, 5, 18, rows, cols, np.ones(18), indptr, indices, np.empty(18))
    assert not kernels.csr_has_canonical_format(5, indptr, indices)
    assert kernels.csr_has_sorted_indices(5, indptr, indices)


@pytest.mark.parametrize("metric", ["h1", "l2"])
def test_csr_sums_and_products_match_scipy_bitwise(metric):
    mesh = jittered_mesh(8, seed=1)
    system = EnergySystem(mesh, metric)
    stiffness, mass = oracles.assemble_p1_matrices(mesh)
    free = system.free
    k_f = stiffness[free]
    metric_ff = (mass if metric == "l2" else stiffness)[free][:, free]
    for scale in (0.25, 1.0 / 6.0, 1e-3):
        assert same_bits(system._block(scale), metric_ff + scale * k_f[:, free])
    u = RNG.standard_normal((mesh.n_vertices, 3))
    for ours, theirs in ((system.stiffness, stiffness), (system.mass, mass), (system._a_f, k_f)):
        assert same_bits(ours @ u, theirs @ u)
        assert same_bits(ours @ u[:, :1], theirs @ u[:, :1])
    for bad in (u[:, 0], u[1:]):
        with pytest.raises(ValueError, match="need a"):
            system.stiffness @ bad
    for index in ([-1], [mesh.n_vertices]):
        for select in (system.stiffness.rows, system.stiffness.columns):
            with pytest.raises(IndexError):
                select(np.array(index))


def test_csr_matrix_refuses_broken_storage():
    # the kernels read the arrays unchecked: a matrix with indptr and indices
    # swapped once crashed the interpreter inside csr_matvecs
    m = assemble_p1(build_square_mesh(4))[0]
    data, indices, indptr, shape = m.data, m.indices, m.indptr, m.shape
    past, decreasing = indices.copy(), indptr.copy()
    past[3] = shape[1]
    decreasing[[2, 3]] = decreasing[[3, 2]]
    cases = {
        "shape of two non-negative ints": [(data, indices, indptr, (25,)), (data, indices, indptr, (25, -1)),
                                           (data, indices, indptr, (25.0, 25))],
        "indptr of rows \\+ 1 = 26 entries": [(data, indptr, indices, shape), (data, indices, indptr[:-1], shape)],
        "indptr that starts at 0 and never decreases": [(data, indices, indptr + 1, shape),
                                                        (data, indices, decreasing, shape)],
        "indices and data of indptr\\[-1\\]": [(data[:-1], indices[:-1], indptr, shape),
                                               (data[:-1], indices, indptr, shape)],
        "column indices in \\[0, 25\\)": [(data, past, indptr, shape), (data, -indices, indptr, shape)],
    }
    for rule, arrays in cases.items():
        for args in arrays:
            with pytest.raises(ValueError, match=rule):
                fem.CsrMatrix(*args)
    assert same_bits(fem.CsrMatrix(data, indices, indptr, shape) @ np.eye(25), m @ np.eye(25))


def test_kernel_fallback_gives_the_same_assembly_and_flow(tmp_path, monkeypatch):
    # where the extension file does not load, the package imports scipy's
    # module the usual way: the same kernels, so the same bits
    mesh = jittered_mesh(8, seed=2)
    u0 = make_initial(mesh, InitSpec("perturbed", seed=3, perturb_amplitude=0.5))

    def results():
        system = EnergySystem(mesh, "l2")
        report = run_flow(u0, system, FlowConfig(method="bdf2", tau=0.125, t_max=0.5))
        return (system.stiffness, system.mass, system._a_f, system._metric_ff), report.u_final

    assert fem._sparsetools().__name__ == "sphereflow._sparsetools"
    matrices, u_final = results()
    monkeypatch.setattr(fem, "_SCIPY_SPARSE", tmp_path)
    try:
        fem._sparsetools.cache_clear()
        assert fem._sparsetools().__name__ == "scipy.sparse._sparsetools"
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            (tmp_path / f"_sparsetools{suffix}").write_bytes(b"not an extension module")
        fem._sparsetools.cache_clear()
        assert fem._sparsetools().__name__ == "scipy.sparse._sparsetools"
        fallback_matrices, fallback_u_final = results()
    finally:
        monkeypatch.undo()
        fem._sparsetools.cache_clear()
    assert all(same_bits(a, b) for a, b in zip(matrices, fallback_matrices))
    assert same_bits(u_final, fallback_u_final)


class RecordingKernels:
    """The kernels of ``fem._sparsetools()``, each call's name and arguments recorded."""

    def __init__(self, kernels):
        self.kernels, self.calls = kernels, []

    def __getattr__(self, name):
        kernel = getattr(self.kernels, name)

        def recorded(*args):
            self.calls.append((name, args))
            return kernel(*args)

        return recorded


def test_kernels_refuse_a_wrong_argument_list(monkeypatch):
    # the kernels are private to scipy; where one gains or loses an argument,
    # each call the package makes fails loudly, before the kernel runs
    kernels = fem._sparsetools()
    recording = RecordingKernels(kernels)
    monkeypatch.setattr(fem, "_sparsetools", lambda: recording)
    system = EnergySystem(build_square_mesh(4), "l2")
    system.rhs_from(np.ones((system.mesh.n_vertices, 3)), 1.0)
    assert {name for name, _ in recording.calls} == {
        "coo_tocsr", "csr_has_canonical_format", "csr_has_sorted_indices", "csr_sort_indices", "csr_sum_duplicates",
        "csr_eliminate_zeros", "csr_row_index", "csr_column_index1", "csr_column_index2", "csr_matvecs"}
    for name, args in recording.calls:
        for wrong in (args[:-1], args + args[-1:]):
            with pytest.raises((IndexError, ValueError)):
                getattr(kernels, name)(*wrong)
