"""Constraint-row oracle and tangent-plane solves against dense saddle-point references."""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import splu

from oracles import assemble_constraint_rows, dense_saddle_solve
from sphereflow import kkt
from sphereflow.fem import assemble_stiffness
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
    # B = I and u_hat = e_z at one node: p drops the z-component of rhs,
    # which the multiplier takes
    sol = TangentPlaneAnalysis(sp.identity(1, format="csr")).solve(np.array([[0.0, 0.0, 2.0]]), np.ones((1, 3)))
    assert np.allclose(sol.primal, [[1.0, 1.0, 0.0]], atol=1e-14)
    assert np.allclose(sol.multiplier, [0.5], atol=1e-14)


def test_unconstrained_reduces_to_spd_solve():
    # with u_hat = e_z at every node the x and y components are unconstrained
    # solves with B, the z component is zero and the multipliers are rhs_z
    base = RNG.standard_normal((6, 6))
    b = base @ base.T + 6 * np.eye(6)
    rhs = RNG.standard_normal((6, 3))
    sol = TangentPlaneAnalysis(sp.csr_matrix(b)).solve(np.tile([0.0, 0.0, 1.0], (6, 1)), rhs)
    assert np.allclose(sol.primal[:, :2], np.linalg.solve(b, rhs[:, :2]), rtol=1e-12)
    assert np.abs(sol.primal[:, 2]).max() == 0.0
    assert np.allclose(sol.multiplier, rhs[:, 2], rtol=1e-12)


def test_orthonormal_constraints():
    b, directions, rhs = random_nodal_system(RNG)
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    sol = TangentPlaneAnalysis(b).solve(directions, rhs)
    assert np.abs(np.sum(directions * sol.primal, axis=1)).max() <= 1e-10
    assert sol.residual_primal <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_matches_dense_reference():
    # blocks of the flow on the square mesh, whose band is narrower than the
    # block, against dense saddle-point solves
    for n in (3, 5, 8):
        b = bdf2_block(n)
        k = b.shape[0]
        for _ in range(5):
            directions, rhs = RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))
            primal, _ = dense_saddle_solve(b, directions, rhs)
            sol = TangentPlaneAnalysis(b).solve(directions, rhs)
            assert np.linalg.norm(sol.primal - primal) <= 1e-9 * (np.linalg.norm(primal) + 1.0)


def test_galerkin_orthogonality():
    # any feasible direction v (v(z) . u_hat(z) = 0 at every node) satisfies
    # v . (kron(B, I3) p - rhs) = 0
    for _ in range(20):
        b, directions, rhs = random_nodal_system(RNG)
        k = b.shape[0]
        sol = TangentPlaneAnalysis(b).solve(directions, rhs)
        _, _, vt = np.linalg.svd(assemble_constraint_rows(directions, np.arange(k)).toarray())
        null_basis = vt[k:].T
        resid = null_basis.T @ (b @ sol.primal - rhs).ravel()
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
            TangentPlaneAnalysis(b).solve(directions, rhs)
    directions[1, 1] = 1e-11
    rows = assemble_constraint_rows(directions, np.arange(3))
    assert rows.shape == (3, 9)
    sol = TangentPlaneAnalysis(b).solve(directions, rhs)
    assert sol.multiplier.shape == (3,)
    assert np.abs(rows @ sol.primal.ravel()).max() <= 1e-12 * (1.0 + np.linalg.norm(sol.primal))


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
        tangent = TangentPlaneAnalysis(b).solve(directions, rhs)
        primal, multiplier = dense_saddle_solve(b, directions, rhs)
        assert tangent.primal.shape == rhs.shape
        scale = 1.0 + np.linalg.norm(primal)
        assert np.linalg.norm(tangent.primal - primal) <= 1e-10 * scale
        assert np.abs(rows @ tangent.primal.ravel()).max() <= 1e-12 * scale
        assert tangent.multiplier.shape == multiplier.shape
        scale = 1.0 + np.linalg.norm(multiplier)
        assert np.linalg.norm(tangent.multiplier - multiplier) <= 1e-10 * scale


def test_tangent_frames_are_orthonormal_kernel():
    directions = RNG.standard_normal((40, 3))
    directions[:4] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1.0, -0.0], [1.0, 0.0, 0.0]]
    normals = directions / np.linalg.norm(directions, axis=1)[:, None]
    frames = tangent_frames(normals)
    assert frames.shape == (40, 3, 2)
    assert np.abs(np.einsum("kci,kcj->kij", frames, frames) - np.eye(2)).max() <= 1e-14
    assert np.abs(np.einsum("kc,kcj->kj", directions, frames)).max() <= 1e-14


def test_tangent_solve_singular_raises():
    b = sp.csr_matrix(np.diag([1.0, 0.0]))
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(KktError):
        TangentPlaneAnalysis(b).solve(directions, np.ones((2, 3)))


def test_tangent_solve_non_finite_rhs_raises():
    b, directions, rhs = random_nodal_system(RNG)
    rhs[0, 1] = np.nan
    with pytest.raises(KktError, match=rf"non-finite values \({b.shape[0]} nodes\)"):
        TangentPlaneAnalysis(b).solve(directions, rhs)


def test_tangent_solve_vanishing_directions_raise():
    with pytest.raises(KktError):
        TangentPlaneAnalysis(sp.identity(2, format="csr")).solve(np.zeros((2, 3)), np.ones((2, 3)))


def test_tangent_solve_rejects_mismatched_shapes():
    b = sp.identity(2, format="csr")
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    cases = [(b, directions[:1], np.ones((2, 3))), (b, directions, np.ones(6)), (sp.identity(3), directions, np.ones((2, 3)))]
    for block, d, rhs in cases:
        with pytest.raises(ValueError):
            TangentPlaneAnalysis(block).solve(d, rhs)


def test_tangent_solve_without_nodes():
    sol = TangentPlaneAnalysis(sp.csr_matrix((0, 0))).solve(np.zeros((0, 3)), np.zeros((0, 3)))
    assert sol.primal.shape == (0, 3)
    assert sol.multiplier.shape == (0,)
    assert assemble_constraint_rows(np.zeros((4, 3)), np.array([], dtype=int)).shape == (0, 0)


def test_tangent_solve_deterministic_bitwise():
    b, directions, rhs = random_nodal_system(RNG)
    first = TangentPlaneAnalysis(b).solve(directions, rhs)
    second = TangentPlaneAnalysis(b).solve(directions, rhs)
    assert np.array_equal(first.primal, second.primal)
    assert np.array_equal(first.multiplier, second.multiplier)


def bdf2_block(n, scale=2.0 * 2.0**-4 / 3.0):
    """Block K_ff + scale K_ff of the h1 flow on the n x n square mesh (by default BDF2 at tau 2^-4)."""
    mesh = build_square_mesh(n)
    f = free_nodes(mesh)
    k_ff = assemble_stiffness(mesh)[f][:, f].tocsr()
    return k_ff + scale * k_ff


def fresh_mmd_solve(b, directions, rhs):
    """Tangent-plane primal and multipliers from a fresh minimum-degree LU of T^T kron(B, I3) T."""
    k = b.shape[0]
    norms = np.linalg.norm(directions, axis=1)
    normals = directions / norms[:, None]
    basis = sp.block_diag(list(tangent_frames(normals)), format="csr")
    reduced = (basis.T @ sp.kron(b, sp.identity(3)) @ basis).tocsc()
    lu = splu(reduced, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    primal = (basis @ lu.solve(basis.T @ rhs.ravel())).reshape(k, 3)
    multiplier = -np.sum(normals * (b @ primal - rhs), axis=1) / norms
    return primal, multiplier


def test_cached_analysis_matches_fresh_factorization():
    # one analysis of an 8x8 or 16x16 BDF2 block serves every direction set,
    # and agrees with a per-step minimum-degree factorization of the same matrix
    for n in (8, 16):
        b = bdf2_block(n)
        k = b.shape[0]
        analysis = TangentPlaneAnalysis(b)
        cases = [(RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))) for _ in range(6)]
        first = [analysis.solve(directions, rhs) for directions, rhs in cases]
        for (directions, rhs), sol in zip(cases, first):
            primal, multiplier = fresh_mmd_solve(b, directions, rhs)
            assert np.linalg.norm(sol.primal - primal) <= 1e-12 * np.linalg.norm(primal)
            assert np.linalg.norm(sol.multiplier - multiplier) <= 1e-12 * np.linalg.norm(multiplier)
        for (directions, rhs), sol in zip(cases, first):
            again = analysis.solve(directions, rhs)
            assert np.array_equal(again.primal, sol.primal)
            assert np.array_equal(again.multiplier, sol.multiplier)


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
    sol = TangentPlaneAnalysis(b).solve(np.tile([0.0, 0.6, 0.8], (k, 1)), np.ones((k, 3)))
    assert sol.primal.shape == (k, 3)
    assert sol.multiplier.shape == (k,)
    assert np.abs(sol.primal @ [0.0, 0.6, 0.8]).max(initial=0.0) <= 1e-15


def test_analysis_refill_leaves_no_stale_values():
    # each solve fills a band of its own: solving A, then B, then A again
    # must give A's solution bit for bit, as a fresh analysis does
    b = bdf2_block(8)
    k = b.shape[0]
    case_a, case_b = [(RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))) for _ in range(2)]
    analysis = TangentPlaneAnalysis(b)
    first = analysis.solve(*case_a)
    other = analysis.solve(*case_b)
    third = analysis.solve(*case_a)
    fresh = TangentPlaneAnalysis(b).solve(*case_a)
    assert not np.array_equal(other.primal, first.primal)
    for sol in (third, fresh):
        assert np.array_equal(sol.primal, first.primal)
        assert np.array_equal(sol.multiplier, first.multiplier)
        assert sol.residual_primal == first.residual_primal
        assert sol.residual_constraint == first.residual_constraint


def test_analysis_non_spd_block_raises():
    # the analysis factors nothing; the band factor of each solve meets the
    # zero pivot of the singular block and names its unknown and node
    b = sp.csr_matrix(np.diag([1.0, 0.0]))
    analysis = TangentPlaneAnalysis(b)
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(KktError, match=r"not positive definite at tangent unknown 0 of node 1 \(2 nodes\)"):
        analysis.solve(directions, np.ones((2, 3)))


class Perturbation:
    """Offsets the first ``bad`` solutions it sees by about 1e-6 relative.

    The offset is fixed by the first solution, so solves that are bad every
    time also spoil the refinement correction.
    """

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
    """Route the band solves ``kkt.dpbtrs`` of the tangent-plane solve through a :class:`Perturbation`."""
    perturbation = Perturbation(bad)

    def band_solve(*args, **options):
        x, info = dpbtrs(*args, **options)
        return perturbation(x), info

    monkeypatch.setattr(kkt, "dpbtrs", band_solve)
    return perturbation


def test_refinement_restores_residual_contract(monkeypatch):
    # the tangent-plane refinement residual is formed without the matrix,
    # whose band holds the factor by then
    b, directions, rhs = random_nodal_system(RNG)
    solve = TangentPlaneAnalysis(b).solve
    ref = solve(directions, rhs)
    perturbation = perturb_solves(monkeypatch, bad=1)
    sol = solve(directions, rhs)
    assert perturbation.solves == 2
    assert sol.residual_primal <= TOL * (1.0 + np.linalg.norm(rhs))
    assert sol.residual_constraint <= TOL * (1.0 + np.linalg.norm(sol.primal))
    assert np.linalg.norm(sol.primal - ref.primal) <= 1e-10 * (1.0 + np.linalg.norm(ref.primal))


def test_persistent_solve_error_raises(monkeypatch):
    b, directions, rhs = random_nodal_system(RNG)
    perturbation = perturb_solves(monkeypatch, bad=math.inf)
    with pytest.raises(KktError, match="residuals not reached"):
        TangentPlaneAnalysis(b).solve(directions, rhs)
    assert perturbation.solves == 2


def openblas_threads():
    """(get, set) of scipy's bundled OpenBLAS thread count; skips the test where this build has none."""
    api = kkt._openblas_threads()
    if api is None:
        pytest.skip("this scipy build bundles no OpenBLAS with scipy's thread-count symbols")
    return api


def test_blas_threads_restores_the_callers_count():
    get, _ = openblas_threads()
    before = get()
    with kkt.blas_threads(2):
        assert get() == 2
        with kkt.blas_threads(1):
            assert get() == 1
        assert get() == 2
    assert get() == before


def test_band_solve_runs_on_one_blas_thread(monkeypatch):
    get, _ = openblas_threads()
    seen = []

    def band_factor(*args, **kwargs):
        seen.append(get())
        return dpbtrf(*args, **kwargs)

    monkeypatch.setattr(kkt, "dpbtrf", band_factor)
    b, directions, rhs = random_nodal_system(RNG)
    with kkt.blas_threads(2):
        TangentPlaneAnalysis(b).solve(directions, rhs)
        assert get() == 2
    assert seen == [1]


def test_blas_thread_helpers_do_nothing_without_the_library(tmp_path, monkeypatch):
    assert kkt._find_openblas_threads(tmp_path) is None
    (tmp_path / "libscipy_openblas-0.so").write_bytes(b"not a shared library")
    assert kkt._find_openblas_threads(tmp_path) is None
    b, directions, rhs = random_nodal_system(RNG)
    expected = TangentPlaneAnalysis(b).solve(directions, rhs).primal
    monkeypatch.setattr(kkt, "_openblas_threads", lambda: None)
    assert kkt.set_blas_threads(1) is None
    with kkt.blas_threads(1):
        pass
    assert np.array_equal(TangentPlaneAnalysis(b).solve(directions, rhs).primal, expected)
