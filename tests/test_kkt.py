"""Constraint-row oracle and tangent-plane solves against dense saddle-point references."""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from oracles import assemble_constraint_rows, dense_saddle_solve, tangent_residuals, to_scipy
from sphereflow import kkt
from sphereflow.fem import assemble_p1
from sphereflow.flow import METRICS, EnergySystem
from sphereflow.kkt import TOL, KktError, TangentPlaneAnalysis, tangent_frames
from sphereflow.mesh import build_square_mesh, free_nodes

RNG = np.random.default_rng(2718)


def random_nodal_system(rng, k_max=30):
    """Random SPD scalar block with (K, 3) nodal directions and right-hand side."""
    k = int(rng.integers(1, k_max + 1))
    base = rng.standard_normal((k, k))
    b = sp.csr_matrix(base @ base.T + k * np.eye(k))
    return b, rng.standard_normal((k, 3)), rng.standard_normal((k, 3))


def test_hand_solved_system():
    # B = I and u_hat = e_z at one node: p drops the z-component of rhs
    b = sp.identity(1, format="csr")
    p = TangentPlaneAnalysis(b).solve(b, np.array([[0.0, 0.0, 2.0]]), np.ones((1, 3)))
    assert np.allclose(p, [[1.0, 1.0, 0.0]], atol=1e-14)


def test_unconstrained_reduces_to_spd_solve():
    # with u_hat = e_z at every node the x and y components are unconstrained
    # solves with B and the z component is zero
    base = RNG.standard_normal((6, 6))
    b = base @ base.T + 6 * np.eye(6)
    rhs = RNG.standard_normal((6, 3))
    block = sp.csr_matrix(b)
    p = TangentPlaneAnalysis(block).solve(block, np.tile([0.0, 0.0, 1.0], (6, 1)), rhs)
    assert np.allclose(p[:, :2], np.linalg.solve(b, rhs[:, :2]), rtol=1e-12)
    assert np.abs(p[:, 2]).max() == 0.0


def test_orthonormal_constraints():
    b, directions, rhs = random_nodal_system(RNG)
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    p = TangentPlaneAnalysis(b).solve(b, directions, rhs)
    assert np.abs(np.sum(directions * p, axis=1)).max() <= 1e-10
    assert tangent_residuals(b, directions, rhs, p)[0] <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_matches_dense_reference():
    # blocks of the flow on the square mesh, whose band is narrower than the
    # block, against dense saddle-point solves
    for n in (3, 5, 8):
        b = bdf2_block(n)
        k = b.shape[0]
        for _ in range(5):
            directions, rhs = RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))
            primal = dense_saddle_solve(b, directions, rhs)
            p = TangentPlaneAnalysis(b).solve(b, directions, rhs)
            assert np.linalg.norm(p - primal) <= 1e-9 * (np.linalg.norm(primal) + 1.0)


def test_galerkin_orthogonality():
    # any feasible direction v (v(z) . u_hat(z) = 0 at every node) satisfies
    # v . (kron(B, I3) p - rhs) = 0
    for _ in range(20):
        b, directions, rhs = random_nodal_system(RNG)
        k = b.shape[0]
        p = TangentPlaneAnalysis(b).solve(b, directions, rhs)
        _, _, vt = np.linalg.svd(assemble_constraint_rows(directions, np.arange(k)).toarray())
        null_basis = vt[k:].T
        resid = null_basis.T @ (b @ p - rhs).ravel()
        assert np.abs(resid).max() <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_constraint_rows_single_node():
    u_hat = np.array([[0.0, 0.0, 1.0]])
    g = assemble_constraint_rows(u_hat, np.array([0]))
    assert g.shape == (1, 3)
    assert np.allclose(g.toarray(), [[0.0, 0.0, 1.0]])


def test_constraint_rows_reject_degenerate():
    # a zero direction, or one 1e-13 of the largest, raises on the row and
    # the tangent-plane path alike and names the node; 1e-11 still solves
    b = sp.identity(3, format="csr")
    rhs = np.ones((3, 3))
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for small in (0.0, 1e-13):
        directions[1, 1] = small
        message = re.escape(f"direction 1 of 3 is degenerate (|u_hat| = {small:.3e}, largest 1.000e+00)")
        with pytest.raises(KktError, match=message):
            assemble_constraint_rows(directions, np.arange(3))
        with pytest.raises(KktError, match=message):
            TangentPlaneAnalysis(b).solve(b, directions, rhs)
    directions[1, 1] = 1e-11
    rows = assemble_constraint_rows(directions, np.arange(3))
    assert rows.shape == (3, 9)
    p = TangentPlaneAnalysis(b).solve(b, directions, rhs)
    assert p.shape == (3, 3)
    assert np.abs(rows @ p.ravel()).max() <= 1e-12 * (1.0 + np.linalg.norm(p))


def test_constraint_rows_action_extracts_component():
    k = 4
    u_hat = np.tile([0.0, 0.0, 1.0], (k, 1))
    free = np.arange(k)
    g = assemble_constraint_rows(u_hat, free)
    v = RNG.standard_normal((k, 3))
    assert np.allclose(g @ v.ravel(), v[:, 2])


def test_constraint_rows_respects_free_subset():
    u_hat = RNG.standard_normal((5, 3))
    free = np.array([1, 3])
    g = assemble_constraint_rows(u_hat, free)
    assert g.shape == (2, 6)
    assert np.allclose(g.toarray()[0, :3], u_hat[1])
    assert np.allclose(g.toarray()[1, 3:], u_hat[3])


def test_tangent_solve_matches_saddle_solve():
    for _ in range(50):
        b, directions, rhs = random_nodal_system(RNG)
        rows = assemble_constraint_rows(directions, np.arange(len(directions)))
        tangent = TangentPlaneAnalysis(b).solve(b, directions, rhs)
        primal = dense_saddle_solve(b, directions, rhs)
        assert tangent.shape == rhs.shape and tangent.dtype == np.float64
        scale = 1.0 + np.linalg.norm(primal)
        assert np.linalg.norm(tangent - primal) <= 1e-10 * scale
        assert np.abs(rows @ tangent.ravel()).max() <= 1e-12 * scale


def test_tangent_frames_are_orthonormal_kernel():
    directions = RNG.standard_normal((40, 3))
    directions[:4] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1.0, -0.0], [1.0, 0.0, 0.0]]
    normals = directions / np.linalg.norm(directions, axis=1)[:, None]
    frames = tangent_frames(normals)
    # component, node, frame vector: the layout the band fill reshapes to (3, 2K)
    assert frames.shape == (3, 40, 2) and frames.flags.c_contiguous
    assert np.abs(np.einsum("cki,ckj->kij", frames, frames) - np.eye(2)).max() <= 1e-14
    assert np.abs(np.einsum("kc,ckj->kj", directions, frames)).max() <= 1e-14


def test_tangent_solve_singular_raises():
    b = sp.csr_matrix(np.diag([1.0, 0.0]))
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(KktError):
        TangentPlaneAnalysis(b).solve(b, directions, np.ones((2, 3)))


def test_tangent_solve_non_finite_rhs_raises():
    b, directions, rhs = random_nodal_system(RNG)
    rhs[0, 1] = np.nan
    with pytest.raises(KktError, match=rf"non-finite values \({b.shape[0]} nodes\)"):
        TangentPlaneAnalysis(b).solve(b, directions, rhs)


def test_tangent_solve_vanishing_directions_raise():
    with pytest.raises(KktError):
        b = sp.identity(2, format="csr")
        TangentPlaneAnalysis(b).solve(b, np.zeros((2, 3)), np.ones((2, 3)))


def test_tangent_solve_rejects_mismatched_shapes():
    b = sp.identity(2, format="csr")
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    cases = [(b, directions[:1], np.ones((2, 3))), (b, directions, np.ones(6)),
             (sp.identity(3, format="csr"), directions, np.ones((2, 3)))]
    for block, d, rhs in cases:
        with pytest.raises(ValueError):
            TangentPlaneAnalysis(block).solve(block, d, rhs)


def test_tangent_solve_without_nodes():
    b = sp.csr_matrix((0, 0))
    p = TangentPlaneAnalysis(b).solve(b, np.zeros((0, 3)), np.zeros((0, 3)))
    assert p.shape == (0, 3)
    assert assemble_constraint_rows(np.zeros((4, 3)), np.array([], dtype=int)).shape == (0, 0)


def test_tangent_solve_deterministic_bitwise():
    b, directions, rhs = random_nodal_system(RNG)
    first = TangentPlaneAnalysis(b).solve(b, directions, rhs)
    second = TangentPlaneAnalysis(b).solve(b, directions, rhs)
    assert np.array_equal(first, second)


def bdf2_block(n, scale=2.0 * 2.0**-4 / 3.0):
    """Block K_ff + scale K_ff of the h1 flow on the n x n square mesh (by default BDF2 at tau 2^-4)."""
    mesh = build_square_mesh(n)
    f = free_nodes(mesh)
    k_ff = to_scipy(assemble_p1(mesh)[0])[f][:, f]
    return k_ff + scale * k_ff


def fresh_mmd_solve(b, directions, rhs):
    """Tangent-plane primal from a fresh minimum-degree LU of T^T kron(B, I3) T."""
    k = b.shape[0]
    normals = directions / np.linalg.norm(directions, axis=1)[:, None]
    basis = sp.block_diag(list(tangent_frames(normals).transpose(1, 0, 2)), format="csr")
    reduced = (basis.T @ sp.kron(b, sp.identity(3)) @ basis).tocsc()
    lu = splu(reduced, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    return (basis @ lu.solve(basis.T @ rhs.ravel())).reshape(k, 3)


def test_cached_analysis_matches_fresh_factorization():
    # one analysis of an 8x8 or 16x16 BDF2 block serves every direction set,
    # and agrees with a per-step minimum-degree factorization of the same matrix
    for n in (8, 16):
        b = bdf2_block(n)
        k = b.shape[0]
        analysis = TangentPlaneAnalysis(b)
        cases = [(RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))) for _ in range(6)]
        first = [analysis.solve(b, directions, rhs) for directions, rhs in cases]
        for (directions, rhs), sol in zip(cases, first):
            primal = fresh_mmd_solve(b, directions, rhs)
            assert np.linalg.norm(sol - primal) <= 1e-12 * np.linalg.norm(primal)
        for (directions, rhs), sol in zip(cases, first):
            assert np.array_equal(analysis.solve(b, directions, rhs), sol)


def test_band_order_is_scipys_reverse_cuthill_mckee_on_square_meshes():
    # the package orders the band itself; scipy's csgraph, which only the
    # tests import, is the reference, on the blocks of both step kinds
    tau = 2.0**-4
    for n in range(1, 65):
        mesh = build_square_mesh(n)
        for metric in METRICS:
            system = EnergySystem(mesh, metric=metric)
            for scale in (tau, 2.0 * tau / 3.0):
                b = system._block(scale)
                order = kkt._reverse_cuthill_mckee(b)
                if b.shape[0]:
                    expected = reverse_cuthill_mckee(to_scipy(b), symmetric_mode=True)
                    assert np.array_equal(order, expected), (n, metric, scale)
                else:
                    # csgraph cannot order an empty graph
                    assert order.shape == (0,)


def test_band_order_is_scipys_reverse_cuthill_mckee_on_random_graphs():
    # several components, tied degrees, rows with and without a diagonal
    # entry, column indices sorted or not, 32- and 64-bit indices
    rng = np.random.default_rng(161)
    for case in range(300):
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 40))
            pattern = rng.random((k, k)) < rng.uniform(0.02, 0.4)
            pattern |= pattern.T
            np.fill_diagonal(pattern, rng.random(k) < 0.5)
            parts.append(sp.csr_matrix(pattern.astype(float)))
        shuffle = rng.permutation(sum(part.shape[0] for part in parts))
        b = sp.block_diag(parts, format="csr")[shuffle][:, shuffle]
        if case % 3 == 0:
            for i in range(b.shape[0]):
                row = slice(b.indptr[i], b.indptr[i + 1])
                b.indices[row] = rng.permutation(b.indices[row])
            b.has_sorted_indices = False
        if case % 5 == 0:
            b.indices, b.indptr = b.indices.astype(np.int64), b.indptr.astype(np.int64)
        assert np.array_equal(kkt._reverse_cuthill_mckee(b), reverse_cuthill_mckee(b, symmetric_mode=True)), case


@pytest.mark.parametrize("n", [8, 16, 32])
def test_analysis_half_bandwidth_on_square_mesh(n):
    # reverse Cuthill-McKee orders the (n-1)^2 free nodes of the square mesh
    # about row by row: n - 1 nodes apart at most, two unknowns each
    assert TangentPlaneAnalysis(bdf2_block(n)).kd <= 2 * n - 1


@pytest.mark.parametrize("n", [1, 2])
def test_analysis_on_meshes_with_few_free_nodes(n):
    # n = 1 has no free node, n = 2 one: an empty band and a 2x2 one
    b = bdf2_block(n, 0.5)
    k = b.shape[0]
    assert k == (n - 1) ** 2
    p = TangentPlaneAnalysis(b).solve(b, np.tile([0.0, 0.6, 0.8], (k, 1)), np.ones((k, 3)))
    assert p.shape == (k, 3)
    assert np.abs(p @ [0.0, 0.6, 0.8]).max(initial=0.0) <= 1e-15


def test_analysis_refill_leaves_no_stale_values():
    # each solve fills a band of its own: solving A, then B, then A again
    # must give A's solution bit for bit, as a fresh analysis does
    b = bdf2_block(8)
    k = b.shape[0]
    case_a, case_b = [(RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))) for _ in range(2)]
    analysis = TangentPlaneAnalysis(b)
    first = analysis.solve(b, *case_a)
    other = analysis.solve(b, *case_b)
    third = analysis.solve(b, *case_a)
    fresh = TangentPlaneAnalysis(b).solve(b, *case_a)
    assert not np.array_equal(other, first)
    for sol in (third, fresh):
        assert np.array_equal(sol, first)


def test_solve_refuses_a_block_of_another_pattern():
    # the analysis keeps the gathers of one pattern, so a block on another
    # would fill the band with the wrong entries; equal index arrays pass
    b = bdf2_block(4)
    k = b.shape[0]
    analysis = TangentPlaneAnalysis(b)
    directions, rhs = RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))
    expected = analysis.solve(b, directions, rhs)
    assert np.array_equal(analysis.solve(b.copy(), directions, rhs), expected)
    shuffle = RNG.permutation(k)
    for other in (sp.identity(k, format="csr"), b[shuffle][:, shuffle], bdf2_block(5)):
        with pytest.raises(ValueError, match="need a block on the analysed pattern"):
            analysis.solve(other, directions, rhs)


def test_analysis_non_spd_block_raises():
    # the analysis factors nothing; the band factor of each solve meets the
    # zero pivot of the singular block and names its unknown and node
    b = sp.csr_matrix(np.diag([1.0, 0.0]))
    analysis = TangentPlaneAnalysis(b)
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(KktError, match=r"not positive definite at tangent unknown 0 of node 1 \(2 nodes\)"):
        analysis.solve(b, directions, np.ones((2, 3)))


class Perturbation:
    """Offsets the first ``bad`` solutions it sees by about 1e-6 relative, an offset fixed by the first one."""

    def __init__(self, bad):
        self.bad = bad
        self.solves = 0
        self.offset = None

    def __call__(self, x):
        if self.offset is None:
            self.offset = 1e-6 * np.linalg.norm(x) * np.cos(np.arange(x.size)) / np.sqrt(x.size)
        self.solves += 1
        return x + self.offset if self.solves <= self.bad else x


def perturb_solves(monkeypatch, bad):
    """Route the band solves ``kkt._band_cholesky`` of the tangent-plane solve through a :class:`Perturbation`."""
    perturbation = Perturbation(bad)
    cholesky = kkt._band_cholesky

    def band_solve(band, kd, v):
        info = cholesky(band, kd, v)
        v[:] = perturbation(v)
        return info

    monkeypatch.setattr(kkt, "_band_cholesky", band_solve)
    return perturbation


def test_persistent_solve_error_raises(monkeypatch):
    # a solve that misses the contract raises at once, with no second band solve
    b, directions, rhs = random_nodal_system(RNG)
    perturbation = perturb_solves(monkeypatch, bad=math.inf)
    with pytest.raises(KktError, match="residuals not reached"):
        TangentPlaneAnalysis(b).solve(b, directions, rhs)
    assert perturbation.solves == 1


@pytest.mark.parametrize("scale", [1e-8, 1e5, 1e8])
def test_solve_does_not_depend_on_the_scale_of_the_directions(scale):
    # the constraint p_z . u_hat(z) = 0 is homogeneous in u_hat, so its
    # residual is taken with the unit normals
    rng = np.random.default_rng(30)
    base = rng.standard_normal((30, 30))
    b = sp.csr_matrix(base @ base.T + 30 * np.eye(30))
    directions, rhs = rng.standard_normal((30, 3)), rng.standard_normal((30, 3))
    solve = TangentPlaneAnalysis(b).solve
    ref = solve(b, directions, rhs)
    p = solve(b, scale * directions, rhs)
    assert np.linalg.norm(p - ref) <= 1e-12 * np.linalg.norm(ref)
    residual_primal, residual_constraint = tangent_residuals(b, scale * directions, rhs, p)
    assert residual_primal <= TOL * (1.0 + np.linalg.norm(rhs))
    assert residual_constraint <= TOL * (1.0 + np.linalg.norm(p))


def openblas():
    """(dpbsv, get, set) of scipy's bundled OpenBLAS; skips the test where this build has none."""
    api = kkt._openblas()
    if api is None:
        pytest.skip("this scipy build bundles no OpenBLAS with scipy's LAPACKE and thread-count symbols")
    return api


def test_blas_threads_restores_the_callers_count():
    # a solve pins one thread and hands the caller's count back, also when it raises
    _, get, set_ = openblas()
    b, directions, rhs = random_nodal_system(RNG)
    singular_block = sp.csr_matrix(np.diag([1.0, 0.0]))
    singular = TangentPlaneAnalysis(singular_block)
    before = get()
    try:
        for count in (2, 1):
            set_(count)
            TangentPlaneAnalysis(b).solve(b, directions, rhs)
            assert get() == count
            with pytest.raises(KktError, match="not positive definite"):
                singular.solve(singular_block, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), np.ones((2, 3)))
            assert get() == count
    finally:
        set_(before)
    assert get() == before


def count_blas_threads(monkeypatch):
    """Wrap the ``dpbsv`` of ``kkt._openblas()``; returns the list of the thread counts its calls ran at."""
    pbsv, get, set_ = openblas()
    seen = []

    def counted(*args):
        seen.append(get())
        return pbsv(*args)

    monkeypatch.setattr(kkt, "_openblas", lambda: (counted, get, set_))
    return seen


def test_band_solve_runs_on_one_blas_thread(monkeypatch):
    _, get, set_ = openblas()
    seen = count_blas_threads(monkeypatch)
    b, directions, rhs = random_nodal_system(RNG)
    before = get()
    set_(2)
    try:
        TangentPlaneAnalysis(b).solve(b, directions, rhs)
        assert get() == 2
    finally:
        set_(before)
    assert seen == [1]


def test_blas_thread_helpers_do_nothing_without_the_library(tmp_path, monkeypatch):
    b, directions, rhs = random_nodal_system(RNG)
    expected = TangentPlaneAnalysis(b).solve(b, directions, rhs)
    monkeypatch.setattr(kkt, "_SCIPY_LIBS", tmp_path)
    try:
        kkt._openblas.cache_clear()
        assert kkt._openblas() is None
        (tmp_path / "libscipy_openblas-0.so").write_bytes(b"not a shared library")
        kkt._openblas.cache_clear()
        assert kkt._openblas() is None
        assert np.array_equal(TangentPlaneAnalysis(b).solve(b, directions, rhs), expected)
    finally:
        monkeypatch.undo()
        kkt._openblas.cache_clear()


def band_cholesky_routines(monkeypatch):
    """``kkt._band_cholesky`` twice: on the ctypes ``dpbsv``, then with the
    lookup patched to None, on the f2py fallback of a scipy build that
    bundles no OpenBLAS with the LAPACKE symbols; skips the test where this
    build has none."""
    openblas()
    yield kkt._band_cholesky
    monkeypatch.setattr(kkt, "_openblas", lambda: None)
    yield kkt._band_cholesky


@pytest.mark.parametrize("kd", [0, 15, 63])
def test_band_cholesky_matches_scipy_lapack_bitwise(kd, monkeypatch):
    # the routines that scipy.linalg.lapack wraps, on the same bits: the
    # factor and solution of an SPD band, and the failing pivot of one that is not
    rng = np.random.default_rng(kd)
    n = 2 * kd + 40
    ab = rng.standard_normal((kd + 1, n))
    ab[kd] = np.abs(ab).sum(axis=0) + 1.0  # diagonally dominant: SPD
    v = rng.standard_normal(n)
    expected_factor, info = dpbtrf(ab, lower=0)
    assert info == 0
    expected = dpbtrs(expected_factor, v, lower=0)[0]
    indefinite = ab.copy()
    indefinite[kd, n // 2] = -1.0
    expected_info = dpbtrf(indefinite, lower=0)[1]
    assert expected_info > 0
    for cholesky in band_cholesky_routines(monkeypatch):
        band, x = ab.flatten(order="F"), v.copy()
        assert cholesky(band, kd, x) == 0
        assert np.array_equal(band.reshape(ab.shape, order="F"), expected_factor)
        assert np.array_equal(x, expected)
        assert cholesky(indefinite.flatten(order="F"), kd, v.copy()) == expected_info


def test_band_cholesky_refuses_arrays_lapack_would_overrun():
    openblas()
    cholesky = kkt._band_cholesky
    band, v = np.tile([0.5, 2.0], 8), np.ones(8)  # superdiagonal 0.5, diagonal 2: SPD
    for bad in ((np.ones(15), 1, v), (band, 1, np.ones(9)), (band.astype(np.float32), 1, v),
                (band, 1, v.astype(int))):
        with pytest.raises(ValueError, match="float64 band"):
            cholesky(*bad)
    with pytest.raises(TypeError, match="not C contiguous"):
        cholesky(np.ones(32)[::2], 1, v)
    assert cholesky(band, 1, v) == 0


def test_band_cholesky_names_the_first_failing_node(monkeypatch):
    # a block negative at node 2 of 5 is not positive definite there, by either routine
    b = sp.csr_matrix(np.diag([1.0, 2.0, -1.0, 3.0, 1.0]))
    directions = np.tile([0.0, 0.6, 0.8], (5, 1))
    for _ in band_cholesky_routines(monkeypatch):
        with pytest.raises(KktError, match=r"not positive definite at tangent unknown 0 of node 2 \(5 nodes\)"):
            TangentPlaneAnalysis(b).solve(b, directions, np.ones((5, 3)))


def test_band_cholesky_fallback_gives_the_same_primal(monkeypatch):
    b = bdf2_block(8)
    k = b.shape[0]
    directions, rhs = RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))
    openblas()
    expected = TangentPlaneAnalysis(b).solve(b, directions, rhs)
    monkeypatch.setattr(kkt, "_openblas", lambda: None)
    assert np.array_equal(TangentPlaneAnalysis(b).solve(b, directions, rhs), expected)
