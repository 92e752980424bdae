"""Constraint-row assembly, saddle-point and tangent-plane solves against references."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from sphereflow.kkt import (
    KktError,
    KktSystem,
    assemble_constraint_rows,
    solve_kkt,
    tangent_basis,
)

RNG = np.random.default_rng(2718)


def random_kkt(rng, n_max=50, m_max=10):
    """Random SPD system with full-rank constraints and its dense solution."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(0, min(m_max, n - 1) + 1))
    base = rng.standard_normal((n, n))
    a = base @ base.T + n * np.eye(n)
    g = rng.standard_normal((m, n))
    rhs = rng.standard_normal(n)
    dense = np.zeros((n + m, n + m))
    dense[:n, :n] = a
    dense[:n, n:] = g.T
    dense[n:, :n] = g
    ref = np.linalg.solve(dense, np.concatenate([rhs, np.zeros(m)])) if m else np.linalg.solve(a, rhs)
    system = KktSystem(sp.csr_matrix(a), sp.csr_matrix(g) if m else None, rhs)
    return system, ref, n, m


def test_hand_solved_system():
    a = sp.identity(2, format="csr")
    g = sp.csr_matrix(np.array([[1.0, 0.0]]))
    sol = solve_kkt(KktSystem(a, g, np.array([1.0, 1.0])))
    assert np.allclose(sol.primal, [0.0, 1.0], atol=1e-14)
    assert np.allclose(sol.multiplier, [1.0], atol=1e-14)


def test_unconstrained_reduces_to_spd_solve():
    base = RNG.standard_normal((6, 6))
    a = base @ base.T + 6 * np.eye(6)
    rhs = RNG.standard_normal(6)
    sol = solve_kkt(KktSystem(sp.csr_matrix(a), None, rhs))
    assert sol.multiplier.size == 0
    assert np.allclose(sol.primal, np.linalg.solve(a, rhs), rtol=1e-12)


def test_orthonormal_constraints():
    n, m = 20, 5
    base = RNG.standard_normal((n, n))
    a = sp.csr_matrix(base @ base.T + n * np.eye(n))
    q, _ = np.linalg.qr(RNG.standard_normal((n, m)))
    g = sp.csr_matrix(q.T)
    rhs = RNG.standard_normal(n)
    sol = solve_kkt(KktSystem(a, g, rhs))
    assert np.abs(q.T @ sol.primal).max() <= 1e-10
    assert sol.residual_primal <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_matches_dense_reference():
    for _ in range(50):
        system, ref, n, m = random_kkt(RNG)
        sol = solve_kkt(KktSystem(system.a, system.g, system.rhs))
        scale = np.linalg.norm(ref[:n]) + 1.0
        assert np.linalg.norm(sol.primal - ref[:n]) <= 1e-9 * scale


def test_galerkin_orthogonality():
    # any feasible direction v (G v = 0) satisfies v.(A p - rhs) = 0
    for _ in range(20):
        system, _, n, m = random_kkt(RNG)
        if m == 0:
            continue
        sol = solve_kkt(system)
        g = system.g.toarray()
        _, _, vt = np.linalg.svd(g)
        null_basis = vt[m:].T
        resid = null_basis.T @ (system.a @ sol.primal - system.rhs)
        assert np.abs(resid).max() <= 1e-10 * (1.0 + np.linalg.norm(system.rhs))


def test_deterministic_bitwise():
    system, _, _, _ = random_kkt(RNG)
    first = solve_kkt(system)
    second = solve_kkt(system)
    assert np.array_equal(first.primal, second.primal)
    assert np.array_equal(first.multiplier, second.multiplier)


def test_singular_system_raises():
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(KktError):
        solve_kkt(KktSystem(a, None, np.array([1.0, 1.0])))


def test_constraint_rows_single_node():
    u_hat = np.array([[0.0, 0.0, 1.0]])
    g = assemble_constraint_rows(u_hat, np.array([0]))
    assert g.shape == (1, 3)
    assert np.allclose(g.toarray(), [[0.0, 0.0, 1.0]])


def test_constraint_rows_reject_degenerate():
    # a zero direction, or one 1e-13 of the largest, raises on the row and
    # the tangent-plane path alike and names the node; 1e-11 still solves
    a = sp.identity(9, format="csc")
    rhs = np.ones(9)
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for small in (0.0, 1e-13):
        directions[1, 1] = small
        message = re.escape(f"direction 1 of 3 is degenerate (|u_hat| = {small:.3e}, largest 1.000e+00)")
        with pytest.raises(KktError, match=message):
            assemble_constraint_rows(directions, np.arange(3))
        with pytest.raises(KktError, match=message):
            solve_kkt(KktSystem(a, None, rhs, directions=directions))
    directions[1, 1] = 1e-11
    rows = assemble_constraint_rows(directions, np.arange(3))
    assert rows.shape == (3, 9)
    sol = solve_kkt(KktSystem(a, None, rhs, directions=directions))
    assert sol.multiplier.shape == (3,)
    assert np.abs(rows @ sol.primal).max() <= 1e-12 * (1.0 + np.linalg.norm(sol.primal))


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


def random_nodal_system(rng, k_max=30):
    """Random node-major SPD system with nodal directions."""
    k = int(rng.integers(1, k_max + 1))
    n = 3 * k
    base = rng.standard_normal((n, n))
    a = sp.csc_matrix(base @ base.T + n * np.eye(n))
    directions = rng.standard_normal((k, 3))
    return a, directions, rng.standard_normal(n)


def test_tangent_solve_matches_saddle_solve():
    for _ in range(50):
        a, directions, rhs = random_nodal_system(RNG)
        rows = assemble_constraint_rows(directions, np.arange(len(directions)))
        tangent = solve_kkt(KktSystem(a, None, rhs, directions=directions))
        saddle = solve_kkt(KktSystem(a, rows, rhs))
        scale = 1.0 + np.linalg.norm(saddle.primal)
        assert np.linalg.norm(tangent.primal - saddle.primal) <= 1e-10 * scale
        assert np.abs(rows @ tangent.primal).max() <= 1e-12 * scale
        assert tangent.multiplier.shape == saddle.multiplier.shape
        scale = 1.0 + np.linalg.norm(saddle.multiplier)
        assert np.linalg.norm(tangent.multiplier - saddle.multiplier) <= 1e-10 * scale


def test_tangent_basis_is_orthonormal_kernel():
    directions = RNG.standard_normal((40, 3))
    directions[:4] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 1.0, -0.0], [1.0, 0.0, 0.0]]
    normals = directions / np.linalg.norm(directions, axis=1)[:, None]
    t = tangent_basis(normals).toarray()
    assert t.shape == (120, 80)
    assert np.abs(t.T @ t - np.eye(t.shape[1])).max() <= 1e-14
    rows = assemble_constraint_rows(directions, np.arange(40)).toarray()
    assert np.abs(rows @ t).max() <= 1e-14


def test_tangent_solve_singular_raises():
    a = sp.csc_matrix(np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    directions = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(KktError):
        solve_kkt(KktSystem(a, None, np.ones(6), directions=directions))


def test_tangent_solve_vanishing_directions_raise():
    a = sp.identity(6, format="csc")
    with pytest.raises(KktError):
        solve_kkt(KktSystem(a, None, np.ones(6), directions=np.zeros((2, 3))))


def test_tangent_solve_without_nodes():
    sol = solve_kkt(KktSystem(sp.csc_matrix((0, 0)), None, np.zeros(0), directions=np.zeros((0, 3))))
    assert sol.primal.shape == (0,)
    assert sol.multiplier.shape == (0,)
    assert assemble_constraint_rows(np.zeros((4, 3)), np.array([], dtype=int)).shape == (0, 0)


def test_tangent_solve_deterministic_bitwise():
    a, directions, rhs = random_nodal_system(RNG)
    system = KktSystem(a, None, rhs, directions=directions)
    first = solve_kkt(system)
    second = solve_kkt(system)
    assert np.array_equal(first.primal, second.primal)
    assert np.array_equal(first.multiplier, second.multiplier)


def test_rows_and_directions_together_rejected():
    a = sp.identity(3, format="csc")
    rows = sp.csr_matrix(np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        solve_kkt(KktSystem(a, rows, np.ones(3), directions=np.array([[0.0, 0.0, 1.0]])))
