"""Constraint-row oracle and tangent-plane solves against dense saddle-point references."""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee, shortest_path
from scipy.sparse.linalg import splu

from oracles import (assemble_constraint_rows, delaunay_mesh, dense_saddle_solve, jittered_mesh, tangent_residuals,
                     to_scipy, two_colourable)
from sphereflow import kkt
from sphereflow.fem import CsrMatrix, assemble_p1
from sphereflow.flow import METRICS, EnergySystem
from sphereflow.initial_data import InitSpec, make_initial
from sphereflow.kkt import K_MIN, TOL, KktError, TangentPlaneAnalysis, tangent_frames
from sphereflow.mesh import build_square_mesh, free_nodes

RNG = np.random.default_rng(2718)


def tangent_solve(b, directions, rhs):
    """The increment of one solve with the block ``b``, through an analysis of its own pattern."""
    analysis = TangentPlaneAnalysis(b)
    return analysis.solve(analysis.prepare(b), directions, rhs)


def random_nodal_system(rng, k_max=30):
    """Random SPD scalar block with (K, 3) nodal directions and right-hand side."""
    k = int(rng.integers(1, k_max + 1))
    base = rng.standard_normal((k, k))
    b = sp.csr_matrix(base @ base.T + k * np.eye(k))
    return b, rng.standard_normal((k, 3)), rng.standard_normal((k, 3))


def test_hand_solved_system():
    # B = I and u_hat = e_z at one node: p drops the z-component of rhs
    b = sp.identity(1, format="csr")
    p = tangent_solve(b, np.array([[0.0, 0.0, 2.0]]), np.ones((1, 3)))
    assert np.allclose(p, [[1.0, 1.0, 0.0]], atol=1e-14)


def test_unconstrained_reduces_to_spd_solve():
    # with u_hat = e_z at every node the x and y components are unconstrained
    # solves with B and the z component is zero
    base = RNG.standard_normal((6, 6))
    b = base @ base.T + 6 * np.eye(6)
    rhs = RNG.standard_normal((6, 3))
    block = sp.csr_matrix(b)
    p = tangent_solve(block, np.tile([0.0, 0.0, 1.0], (6, 1)), rhs)
    assert np.allclose(p[:, :2], np.linalg.solve(b, rhs[:, :2]), rtol=1e-12)
    assert np.abs(p[:, 2]).max() == 0.0


def test_orthonormal_constraints():
    b, directions, rhs = random_nodal_system(RNG)
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    p = tangent_solve(b, directions, rhs)
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
            p = tangent_solve(b, directions, rhs)
            assert np.linalg.norm(p - primal) <= 1e-9 * (np.linalg.norm(primal) + 1.0)


def test_galerkin_orthogonality():
    # any feasible direction v (v(z) . u_hat(z) = 0 at every node) satisfies
    # v . (kron(B, I3) p - rhs) = 0
    for _ in range(20):
        b, directions, rhs = random_nodal_system(RNG)
        k = b.shape[0]
        p = tangent_solve(b, directions, rhs)
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
            tangent_solve(b, directions, rhs)
    directions[1, 1] = 1e-11
    rows = assemble_constraint_rows(directions, np.arange(3))
    assert rows.shape == (3, 9)
    p = tangent_solve(b, directions, rhs)
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
        tangent = tangent_solve(b, directions, rhs)
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
        tangent_solve(b, directions, np.ones((2, 3)))


def test_tangent_solve_non_finite_rhs_raises():
    b, directions, rhs = random_nodal_system(RNG)
    rhs[0, 1] = np.nan
    with pytest.raises(KktError, match=rf"non-finite values \({b.shape[0]} nodes\)"):
        tangent_solve(b, directions, rhs)


def test_tangent_solve_vanishing_directions_raise():
    with pytest.raises(KktError):
        b = sp.identity(2, format="csr")
        tangent_solve(b, np.zeros((2, 3)), np.ones((2, 3)))


def test_tangent_solve_rejects_mismatched_shapes():
    b = sp.identity(2, format="csr")
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    cases = [(b, directions[:1], np.ones((2, 3))), (b, directions, np.ones(6)),
             (sp.identity(3, format="csr"), directions, np.ones((2, 3)))]
    for block, d, rhs in cases:
        with pytest.raises(ValueError):
            tangent_solve(block, d, rhs)


def test_tangent_solve_without_nodes():
    b = sp.csr_matrix((0, 0))
    p = tangent_solve(b, np.zeros((0, 3)), np.zeros((0, 3)))
    assert p.shape == (0, 3)
    assert assemble_constraint_rows(np.zeros((4, 3)), np.array([], dtype=int)).shape == (0, 0)


def test_tangent_solve_deterministic_bitwise():
    b, directions, rhs = random_nodal_system(RNG)
    first = tangent_solve(b, directions, rhs)
    second = tangent_solve(b, directions, rhs)
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
    # one analysis of an 8x8, 16x16 or 32x32 BDF2 block serves every direction
    # set, and agrees with a per-step minimum-degree factorization of the same
    # matrix; the 32x32 one eliminates half its nodes before the band
    for n in (8, 16, 32):
        b = bdf2_block(n)
        k = b.shape[0]
        analysis = TangentPlaneAnalysis(b)
        cases = [(RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))) for _ in range(6)]
        first = [analysis.solve(analysis.prepare(b), directions, rhs) for directions, rhs in cases]
        for (directions, rhs), sol in zip(cases, first):
            primal = fresh_mmd_solve(b, directions, rhs)
            assert np.linalg.norm(sol - primal) <= 1e-12 * np.linalg.norm(primal)
        for (directions, rhs), sol in zip(cases, first):
            assert np.array_equal(analysis.solve(analysis.prepare(b), directions, rhs), sol)


def test_band_order_is_scipys_reverse_cuthill_mckee_on_square_meshes():
    # the package orders the band itself; scipy's csgraph, which only the
    # tests import, is the reference, on the blocks of both step kinds
    tau = 2.0**-4
    for n in range(1, 65):
        mesh = build_square_mesh(n)
        for metric in METRICS:
            system = EnergySystem(mesh, metric=metric)
            for scale in (tau, 2.0 * tau / 3.0):
                b = system._block(scale)[0]
                order = kkt._reverse_cuthill_mckee(b.indptr, b.indices)[0]
                if b.shape[0]:
                    expected = reverse_cuthill_mckee(to_scipy(b), symmetric_mode=True)
                    assert np.array_equal(order, expected), (n, metric, scale)
                else:
                    # csgraph cannot order an empty graph
                    assert order.shape == (0,)


def random_graphs(two_coloured=False):
    """300 random symmetric patterns: several components, tied degrees, rows with and without a diagonal entry,
    column indices sorted or not, 32- and 64-bit indices; ``two_coloured`` keeps only the entries that join
    nodes of a random split into two colours, and each diagonal."""
    rng = np.random.default_rng(161)
    for case in range(300):
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 40))
            pattern = rng.random((k, k)) < rng.uniform(0.02, 0.4)
            pattern |= pattern.T
            np.fill_diagonal(pattern, rng.random(k) < 0.5)
            if two_coloured:
                side = rng.random(k) < 0.5
                pattern &= (side[:, None] != side) | np.eye(k, dtype=bool)
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
        yield case, b


def test_band_order_is_scipys_reverse_cuthill_mckee_on_random_graphs():
    # each component has one node of level 0, and each node's level is its
    # breadth-first distance from that node
    for case, b in random_graphs():
        order, level = kkt._reverse_cuthill_mckee(b.indptr, b.indices)
        assert np.array_equal(order, reverse_cuthill_mckee(b, symmetric_mode=True)), case
        first = np.flatnonzero(level == 0)
        assert first.size == connected_components(b, directed=False)[0], case
        distance = shortest_path(b, directed=False, unweighted=True, indices=first)
        assert np.array_equal(distance.min(axis=0), level), case


def level_parity(b):
    """The parity of each node's level in the band order's search of ``b``, and whether no off-diagonal entry
    joins two nodes of one parity."""
    parity = kkt._reverse_cuthill_mckee(b.indptr, b.indices)[1] & 1
    rows = np.repeat(np.arange(b.shape[0]), np.diff(b.indptr))
    off = rows != b.indices
    return parity, bool(np.all(parity[rows[off]] != parity[b.indices[off]]))


def test_two_colouring_is_found_exactly_where_a_breadth_first_search_finds_one():
    # the level parity two-colours the random graphs of the band order that
    # have a two-colouring, and all their two-coloured subgraphs
    found = 0
    for two_coloured in (False, True):
        for case, b in random_graphs(two_coloured):
            colours = level_parity(b)[1]
            assert colours == two_colourable(b), (two_coloured, case)
            assert colours or not two_coloured, case
            found += colours
    assert 300 < found < 600


def test_two_colouring_of_the_five_point_pattern():
    # the h1 block of every square mesh joins nodes of two level parities
    # only, and an analysis of at least K_MIN nodes eliminates the larger
    # class and keeps the other in its places in the search's order; on a
    # tie (odd n: at n = 19, 162 and 162 of 324 nodes) it eliminates the even
    # levels, with the search's first node, the last of its reversal
    tied = set()
    for n in range(2, 65):
        m = EnergySystem(build_square_mesh(n))._metric_ff
        parity, colours = level_parity(m)
        assert colours, n
        if m.shape[0] >= K_MIN:
            analysis = TangentPlaneAnalysis(m)
            red, order = analysis._red, kkt._reverse_cuthill_mckee(m.indptr, m.indices)[0]
            assert np.unique(parity[red]).size == 1 and 2 * red.size >= m.shape[0], n
            assert np.array_equal(analysis._order, order[~np.isin(order, red)]), n
            if 2 * red.size == m.shape[0]:
                assert order[-1] in red and not parity[red].any(), n
                tied.add(n)
    assert tied == set(range(17, 65, 2))


def perturbed_directions(n, seed=3):
    """The perturbed initial field of the n x n square mesh at its free nodes."""
    mesh = build_square_mesh(n)
    return make_initial(mesh, InitSpec("perturbed", seed=seed, perturb_amplitude=0.5))[free_nodes(mesh)]


@pytest.mark.parametrize("n", [17, 24, 32])
def test_reduced_solve_matches_fresh_factorization(n):
    # at both step scales, with the flow's perturbed directions, random ones
    # and random ones rescaled node by node over eight decades
    tau = 2.0**-4
    for scale in (tau, 2.0 * tau / 3.0):
        b = bdf2_block(n, scale)
        k = b.shape[0]
        analysis = TangentPlaneAnalysis(b)
        assert 2 * analysis._red.size >= k and analysis.kd <= 2 * n - 1
        rescaled = RNG.standard_normal((k, 3)) * 10.0 ** RNG.uniform(-4, 4, (k, 1))
        for directions in (perturbed_directions(n), RNG.standard_normal((k, 3)), rescaled):
            rhs = RNG.standard_normal((k, 3))
            primal = fresh_mmd_solve(b, directions, rhs)
            p = analysis.solve(analysis.prepare(b), directions, rhs)
            assert np.linalg.norm(p - primal) <= 1e-12 * np.linalg.norm(primal)


def test_reduced_solve_names_the_failing_node():
    # a red pivot that is not positive names its red node, before any band is
    # formed; black diagonals too small for the Schur complement name a black one
    b = bdf2_block(17)
    k = b.shape[0]
    analysis = TangentPlaneAnalysis(b)
    red = analysis._red
    directions, rhs = RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))
    diagonal = b.indptr[:-1] + np.array([np.flatnonzero(b.indices[b.indptr[i]:b.indptr[i + 1]] == i)[0]
                                         for i in range(k)])
    for value in (0.0, -1.0, np.nan):
        bad = b.copy()
        bad.data[diagonal[red[[40, 7]]]] = value
        message = rf"not positive definite at tangent unknown 0 of node {red[7]} \({k} nodes\)"
        with pytest.raises(KktError, match=message):
            analysis.solve(analysis.prepare(bad), directions, rhs)
    bad = b.copy()
    black = np.setdiff1d(np.arange(k), red)
    bad.data[diagonal[black]] *= 0.5
    with pytest.raises(KktError, match="not positive definite") as error:
        analysis.solve(analysis.prepare(bad), directions, rhs)
    node = int(re.search(r"of node (\d+)", str(error.value)).group(1))
    assert node in black


def test_a_diagonal_block_eliminates_every_node():
    # no entry joins two nodes, so every node has colour 0 and no band is left
    b = sp.diags(np.linspace(1.0, 2.0, K_MIN), format="csr")
    directions, rhs = RNG.standard_normal((K_MIN, 3)), RNG.standard_normal((K_MIN, 3))
    analysis = TangentPlaneAnalysis(b)
    assert analysis._red.size == K_MIN and analysis._order.size == 0
    primal = dense_saddle_solve(b, directions, rhs)
    p = analysis.solve(analysis.prepare(b), directions, rhs)
    assert np.linalg.norm(p - primal) <= 1e-12 * np.linalg.norm(primal)


def test_elimination_needs_a_two_colourable_pattern_of_k_min_nodes():
    # the l2 metric, a jittered lattice and a Delaunay mesh join nodes of one
    # colour, and the 16x16 h1 block has fewer than K_MIN nodes: their
    # analyses keep every node in the band, which is then the Schur complement
    # of no node: B's own pattern in its own order, at the kd recorded when
    # that band had a layout of its own
    lattice = build_square_mesh(17)
    systems = [EnergySystem(lattice, "l2"), EnergySystem(jittered_mesh(17, seed=4)),
               EnergySystem(delaunay_mesh("square", 16, seed=5)), EnergySystem(build_square_mesh(16))]
    for system, kd in zip(systems, (33, 33, 67, 31)):
        m = system._metric_ff
        analysis = TangentPlaneAnalysis(m)
        assert analysis._red.size == 0 and 2 * analysis._order.size == 2 * m.shape[0]
        assert np.array_equal(analysis._order, kkt._reverse_cuthill_mckee(m.indptr, m.indices)[0])
        assert analysis.kd == kd
        assert level_parity(m)[1] == (m.shape[0] < K_MIN)
    assert TangentPlaneAnalysis(EnergySystem(lattice)._metric_ff)._red.size == 128


@pytest.mark.parametrize("n, metric, products", [(16, "h1", 1), (32, "l2", 1), (32, "h1", 3)])
def test_red_terms_run_only_where_nodes_are_red(n, metric, products, monkeypatch):
    # every solve forms the residual from B p; one with red nodes also reduces
    # the right-hand side by B q and lifts the red nodes by B p, and one
    # without skips that work, whose numpy calls cost more than an N=8 band solve
    system = EnergySystem(build_square_mesh(n), metric)
    analysis, prepared = system._analysis, system._block(0.125)
    k = analysis.k
    assert (analysis._red.size > 0) == (products == 3)
    calls = []
    product = CsrMatrix.__matmul__

    def counted(m, x):
        calls.append(None)
        return product(m, x)

    monkeypatch.setattr(CsrMatrix, "__matmul__", counted)
    analysis.solve(prepared, perturbed_directions(n), RNG.standard_normal((k, 3)))
    assert len(calls) == products


@pytest.mark.parametrize("n", [8, 16, 32, 34, 64])
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
    p = tangent_solve(b, np.tile([0.0, 0.6, 0.8], (k, 1)), np.ones((k, 3)))
    assert p.shape == (k, 3)
    assert np.abs(p @ [0.0, 0.6, 0.8]).max(initial=0.0) <= 1e-15


def test_analysis_refill_leaves_no_stale_values():
    # each solve fills a band of its own: solving A, then B, then A again
    # must give A's solution bit for bit, as a fresh analysis does, with the
    # whole band (N = 8) or the Schur complement's (N = 32)
    for n in (8, 32):
        b = bdf2_block(n)
        k = b.shape[0]
        case_a, case_b = [(RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))) for _ in range(2)]
        analysis = TangentPlaneAnalysis(b)
        first = analysis.solve(analysis.prepare(b), *case_a)
        other = analysis.solve(analysis.prepare(b), *case_b)
        third = analysis.solve(analysis.prepare(b), *case_a)
        fresh = tangent_solve(b, *case_a)
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
    expected = analysis.solve(analysis.prepare(b), directions, rhs)
    assert np.array_equal(analysis.solve(analysis.prepare(b.copy()), directions, rhs), expected)
    shuffle = RNG.permutation(k)
    for other in (sp.identity(k, format="csr"), b[shuffle][:, shuffle], bdf2_block(5)):
        with pytest.raises(ValueError, match="need a block on the analysed pattern"):
            analysis.solve(analysis.prepare(other), directions, rhs)


def test_analysis_non_spd_block_raises():
    # the analysis factors nothing; the band factor of each solve meets the
    # zero pivot of the singular block and names its unknown and node
    b = sp.csr_matrix(np.diag([1.0, 0.0]))
    analysis = TangentPlaneAnalysis(b)
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(KktError, match=r"not positive definite at tangent unknown 0 of node 1 \(2 nodes\)"):
        analysis.solve(analysis.prepare(b), directions, np.ones((2, 3)))


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
        tangent_solve(b, directions, rhs)
    assert perturbation.solves == 1


@pytest.mark.parametrize("scale", [1e-8, 1e5, 1e8])
def test_solve_does_not_depend_on_the_scale_of_the_directions(scale):
    # the constraint p_z . u_hat(z) = 0 is homogeneous in u_hat, so its
    # residual is taken with the unit normals
    rng = np.random.default_rng(30)
    base = rng.standard_normal((30, 30))
    b = sp.csr_matrix(base @ base.T + 30 * np.eye(30))
    directions, rhs = rng.standard_normal((30, 3)), rng.standard_normal((30, 3))
    ref = tangent_solve(b, directions, rhs)
    p = tangent_solve(b, scale * directions, rhs)
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
            tangent_solve(b, directions, rhs)
            assert get() == count
            with pytest.raises(KktError, match="not positive definite"):
                singular.solve(singular.prepare(singular_block), np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
                               np.ones((2, 3)))
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
        tangent_solve(b, directions, rhs)
        assert get() == 2
    finally:
        set_(before)
    assert seen == [1]


def test_blas_thread_helpers_do_nothing_without_the_library(tmp_path, monkeypatch):
    b, directions, rhs = random_nodal_system(RNG)
    expected = tangent_solve(b, directions, rhs)
    monkeypatch.setattr(kkt, "_SCIPY_LIBS", tmp_path)
    try:
        kkt._openblas.cache_clear()
        assert kkt._openblas() is None
        (tmp_path / "libscipy_openblas-0.so").write_bytes(b"not a shared library")
        kkt._openblas.cache_clear()
        assert kkt._openblas() is None
        assert np.array_equal(tangent_solve(b, directions, rhs), expected)
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
            tangent_solve(b, directions, np.ones((5, 3)))


def test_band_cholesky_fallback_gives_the_same_primal(monkeypatch):
    b = bdf2_block(8)
    k = b.shape[0]
    directions, rhs = RNG.standard_normal((k, 3)), RNG.standard_normal((k, 3))
    openblas()
    expected = tangent_solve(b, directions, rhs)
    monkeypatch.setattr(kkt, "_openblas", lambda: None)
    assert np.array_equal(tangent_solve(b, directions, rhs), expected)
