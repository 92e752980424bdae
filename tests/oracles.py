"""Reference implementations that the tests check the package against.

The package computes these quantities another way (the two-step derivative
through its difference operators, the closed-form constraint violation as a
running update, the per-step audits from products kept between steps, the
nodal constraint and its residuals on the tangent planes, the mesh cells
and the seeded initial fields in array arithmetic, the P1 matrices and the
free nodes in one pass over the mesh); these are the plain formulas, the
scalar splitmix64 generator, per-node loops and one assembly per matrix,
converted by ``scipy.sparse``.  The meshes the tests share, and
:func:`to_scipy`, which wraps a package matrix in scipy, live here too.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.spatial import Delaunay

from sphereflow.diagnostics import StepRecord
from sphereflow.initial_data import _GOLDEN, _MASK64, _MIX1, _MIX2, _normalize_rows, inverse_stereographic
from sphereflow.kkt import _check_directions
from sphereflow.mesh import TriMesh, build_square_mesh


class SplitMix64:
    """Deterministic 64-bit generator (splitmix state advance), one draw at a time.

    The state advances by the odd constant gamma and the output is a
    two-round xor-multiply mix of the state.  Uniform doubles use the top
    53 bits.
    """

    def __init__(self, seed):
        self.state = int(seed) & _MASK64

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self):
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.next_float()


def bdf2_derivative(u_n, u_prev, u_prev2, tau):
    """Two-step derivative (3 u_n - 4 u_prev + u_prev2) / (2 tau).

    Exact for quadratic sequences; satisfies the exact relations
    2*bdf2_derivative = 3*d_t u_n - d_t u_prev and
    2*(bdf2_derivative - d_t u_n) = tau * second_difference.
    """
    if tau <= 0:
        raise ValueError(f"step size must be positive, got {tau}")
    u_n, u_prev, u_prev2 = (np.asarray(u, dtype=float) for u in (u_n, u_prev, u_prev2))
    return (3.0 * u_n - 4.0 * u_prev + u_prev2) / (2.0 * tau)


def constraint_recursion_closed_form(sq0, sq1, d2sq, n, tau):
    """Closed-form solution of the squared-length difference equation.

    Solves (3/2) s_n - 2 s_{n-1} + (1/2) s_{n-2} = (3/2) tau**4 * d2sq[n]
    for the terminal value s_n, given s_0 = ``sq0``, s_1 = ``sq1`` and the
    inhomogeneities ``d2sq`` = [a_2, ..., a_n] (squared second differences).
    Inputs may be scalars or per-node arrays.  Returns

    -1/2 (1 - 3**-(n-1)) sq0 + 3/2 (1 - 3**-n) sq1
        + 3/2 tau**4 * sum_i (1 - 3**-(n+1-i)) d2sq[i],  i = 2..n
    """
    if n < 2:
        raise ValueError(f"closed form needs n >= 2, got {n}")
    if len(d2sq) != n - 1:
        raise ValueError(f"expected {n - 1} second-difference terms, got {len(d2sq)}")
    sq0, sq1 = np.asarray(sq0, dtype=float), np.asarray(sq1, dtype=float)
    out = -0.5 * (1.0 - 3.0 ** -(n - 1)) * sq0 + 1.5 * (1.0 - 3.0**-n) * sq1
    for i, a_i in enumerate(d2sq, start=2):
        out = out + 1.5 * tau**4 * (1.0 - 3.0 ** -(n + 1 - i)) * np.asarray(a_i, dtype=float)
    return out if out.ndim else float(out)


def assemble_constraint_rows(u_hat, free):
    """Rows of the linearized nodal constraint for directions ``u_hat``.

    Row k carries the three entries u_hat(free[k]) in that node's component
    columns 3k, 3k + 1, 3k + 2, so a (len(free), 3*len(free)) CSR matrix;
    ``free`` fixes the column layout.  Raises ``KktError`` at a degenerate
    direction, as the tangent-plane solve does.
    """
    directions = np.asarray(u_hat, dtype=float)[free]
    _check_directions(directions)
    k = len(directions)
    return sp.csr_matrix((directions.ravel(), np.arange(3 * k), np.arange(0, 3 * k + 1, 3)), shape=(k, 3 * k))


def dense_saddle_solve(b, directions, rhs):
    """(K, 3) primal p of B p + u_hat m = rhs, p_z . u_hat(z) = 0, by a dense solve.

    Solves the saddle-point system [[kron(B, I3), G^T], [G, 0]] with ``numpy.linalg.solve``,
    G the rows of :func:`assemble_constraint_rows` for the (K, 3) ``directions``.
    """
    k = len(directions)
    a = np.kron(b.toarray(), np.eye(3))
    g = assemble_constraint_rows(directions, np.arange(k)).toarray()
    matrix = np.block([[a, g.T], [g, np.zeros((k, k))]])
    sol = np.linalg.solve(matrix, np.concatenate([np.ravel(rhs), np.zeros(k)]))
    return sol[: 3 * k].reshape(k, 3)


def tangent_residuals(b, directions, rhs, primal):
    """(primal, constraint) residual norms of a nodal solve's (K, 3) ``primal``, by per-node projections.

    The first is the norm of the part of B p - rhs tangent to the unit
    normals n_z of the ``directions`` (the part that no multiplier of the
    constraint cancels), the second that of the pairings (p_z . n_z)_z.
    """
    normals = directions / np.linalg.norm(directions, axis=1)[:, None]
    r = b @ primal - rhs
    normal_part = np.sum(r * normals, axis=1)[:, None] * normals
    return float(np.linalg.norm(r - normal_part)), float(np.linalg.norm(np.sum(primal * normals, axis=1)))


def free_nodes(mesh):
    """Sorted indices of the vertices not on the boundary, by a sort-based set difference."""
    return np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_nodes)


def _cell_geometry(mesh):
    """Per-cell (b, c, area): the P1 gradient of hat function i is (b_i, c_i) / (2 area)."""
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
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def assemble_p1_matrices(mesh):
    """(stiffness, mass) of ``sphereflow.assemble_p1`` by scipy's own conversion.

    ``coo_matrix(...).tocsr()`` of each matrix's entries, and
    ``eliminate_zeros()`` for the stiffness.
    """
    stiffness = assemble_stiffness(mesh)
    stiffness.eliminate_zeros()
    return stiffness, assemble_mass(mesh)


def to_scipy(m):
    """The package's CSR matrix ``m`` as a scipy ``csr_matrix`` on the same arrays."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def assemble_stiffness(mesh):
    """Scalar P1 stiffness matrix, stored zeros included, from its own pass over the cells."""
    b, c, area = _cell_geometry(mesh)
    scale = 1.0 / (4.0 * area)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * scale[:, None, None]
    return _accumulate(mesh, local)


def assemble_mass(mesh):
    """Scalar P1 mass matrix, from its own pass over the cells."""
    _, _, area = _cell_geometry(mesh)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _accumulate(mesh, base[None, :, :] * area[:, None, None])


def lumped_mass_diagonal(mesh):
    """Lumped mass diagonal: area/3 from each adjacent triangle, summed by ``np.add.at``."""
    _, _, area = _cell_geometry(mesh)
    diag = np.zeros(mesh.n_vertices)
    np.add.at(diag, mesh.cells.ravel(), np.repeat(area / 3.0, 3))
    return diag


def square_cells(n):
    """(2 n**2, 3) cells of the n x n square mesh, (sw, se, ne) and (sw, ne, nw) per cell, cell by cell."""
    m = n + 1
    cells = np.empty((2 * n * n, 3), dtype=np.int64)
    k = 0
    for iy in range(n):
        for ix in range(n):
            sw = iy * m + ix
            se = sw + 1
            nw = sw + m
            ne = nw + 1
            cells[k] = (sw, se, ne)
            cells[k + 1] = (sw, ne, nw)
            k += 2
    return cells


def scaled_square_mesh(n, lower_left, side):
    """The n x n mesh of ``build_square_mesh``, moved onto the square with corner ``lower_left`` and edge ``side``."""
    mesh = build_square_mesh(n)
    vertices = (mesh.vertices + 0.5) * side + np.asarray(lower_left, dtype=float)
    return TriMesh(vertices, mesh.cells, mesh.boundary_nodes)


def delaunay_mesh(domain, n, seed):
    """The Delaunay mesh of random points on the square [-1/2, 1/2]^2 or the disk of radius 1/2.

    The square takes its corners and ``n`` points on each side, the disk
    ``4 n + 4`` points on its circle; the points placed on the boundary
    carry the Dirichlet data, and ``n * n`` points fall inside.
    """
    rng = np.random.default_rng(seed)
    if domain == "square":
        low, high, side = np.full(n, -0.5), np.full(n, 0.5), rng.uniform(-0.5, 0.5, (4, n))
        boundary = np.vstack([[[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
                              np.column_stack([side[0], low]), np.column_stack([high, side[1]]),
                              np.column_stack([side[2], high]), np.column_stack([low, side[3]])])
        inside = rng.uniform(-0.5, 0.5, (n * n, 2))
    else:
        angle = 2.0 * math.pi * rng.uniform(0.0, 1.0, 4 * n + 4)
        boundary = 0.5 * np.column_stack([np.cos(angle), np.sin(angle)])
        radius = 0.5 * np.sqrt(rng.uniform(0.0, 1.0, n * n))
        theta = 2.0 * math.pi * rng.uniform(0.0, 1.0, n * n)
        inside = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    points = np.vstack([boundary, inside])
    cells = Delaunay(points).simplices
    # Qhull orients its simplices either way; the assembly takes counterclockwise cells
    corners = points[cells]
    edges = corners[:, 1:] - corners[:, :1]
    clockwise = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0] < 0.0
    cells[clockwise] = cells[clockwise][:, ::-1]
    return TriMesh(points, cells, np.arange(len(boundary)))


def make_initial(mesh, spec):
    """The initial field of ``sphereflow.make_initial``, node by node from ``SplitMix64(spec.seed).uniform``."""
    values = inverse_stereographic(mesh.vertices)
    interior = free_nodes(mesh)
    gen = SplitMix64(spec.seed)
    if spec.kind == "random":
        for z in interior:
            a1 = gen.uniform(-0.5 * math.pi, 0.5 * math.pi)
            a2 = gen.uniform(-math.pi, math.pi)
            values[z] = (
                math.cos(a1) * math.cos(a2),
                math.cos(a1) * math.sin(a2),
                math.sin(a1),
            )
    elif spec.kind == "perturbed":
        amp = spec.perturb_amplitude
        for z in interior:
            values[z] = values[z] + amp * np.array([gen.uniform(-1.0, 1.0) for _ in range(3)])
    return _normalize_rows(values)


def _residual(lhs, rhs):
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def audit_steps(steps, system, tau, two_step):
    """Trace and report audit values of a flow, by the plain per-step formulas.

    ``steps`` are the (u_prev, u_n, u_next, u_dot) tuples of
    ``sphereflow.flow._steps``.  d_t u is (u_next - u_n) / tau at every
    step, every product is formed afresh from the states, every pairing
    is ``np.sum`` of a product, the nodal recursion runs node by node and
    the closed-form prediction sums its series.
    Returns (list of StepRecord, dict of the RunReport fields ``res_init``,
    ``res_energy_law``, ``res_nodal_recursion``, ``res_closed_form``,
    ``mono_violation``, ``a_sq`` and ``b_sq``).
    """
    k, m, w = system.stiffness, system.mass, system.lumped_weights
    metric = k if system.metric == "h1" else m

    def energy(u):
        return 0.5 * np.sum(u * (k @ u))

    def g_value(x, y):  # BDF2 energy (5/4)|x|^2 - x.y + (1/4)|y|^2 in the energy form
        return 1.25 * np.sum(x * (k @ x)) - np.sum(x * (k @ y)) + 0.25 * np.sum(y * (k @ y))

    records, lumped_d2, law_terms = [], [], []
    a_sum = 0.0
    mono = res_closed_form = 0.0
    dt_prev = None
    for n, (u_prev, u_n, u_next, u_dot) in enumerate(steps, start=1):
        dt = (u_next - u_n) / tau
        if two_step and u_prev is not None:
            udot_sq = np.sum(u_dot * (1.5 * (metric @ dt) - 0.5 * (metric @ dt_prev)))
        else:
            udot_sq = np.sum(u_dot * (metric @ dt))
        dt_l2_sq = np.sum(dt * (m @ dt))
        sq = np.sum(u_next * u_next, axis=1)
        delta_uni = float(np.sum(w * np.abs(sq - 1.0)))
        res_law = res_nodal = math.nan
        if u_prev is None:
            b_sq = dt_l2_sq
            lumped_dt = [np.sum(w * np.sum(dt * dt, axis=1))]
            res_init = _residual(energy(u_next) + tau * udot_sq + 0.5 * tau**2 * np.sum(dt * (k @ dt)), energy(u_n))
            g_first = g_value(u_next, u_n)
        else:
            d2 = (u_next - 2.0 * u_n + u_prev) / tau**2
            a_sum += np.sum(d2 * (m @ dt - m @ dt_prev) / tau)
            if two_step:
                grad_d2 = 0.25 * tau**4 * np.sum(d2 * (k @ dt - k @ dt_prev) / tau)
                law_terms.append(tau * udot_sq + grad_d2)
                res_law = _residual(tau * udot_sq + g_value(u_next, u_n) + grad_d2, g_value(u_n, u_prev))
                free = free_nodes(system.mesh)
                res_nodal = 0.0 if free.size else math.nan  # skipped over no node
                for z in free:
                    lhs = 1.5 * u_next[z] @ u_next[z] - 2.0 * u_n[z] @ u_n[z] + 0.5 * u_prev[z] @ u_prev[z]
                    res_nodal = max(res_nodal, _residual(lhs, 1.5 * tau**4 * (d2[z] @ d2[z])))
                lumped_d2.append(np.sum(w * np.sum(d2 * d2, axis=1)))
            else:
                lumped_dt.append(np.sum(w * np.sum(dt * dt, axis=1)))
        if two_step and u_prev is not None:
            # s_n - 1 of the nodal recursion from s_0 = 1 and s_1 - 1 = tau^2 |dt_1|^2, lumped
            predicted = 1.5 * (1.0 - 3.0**-n) * tau**2 * lumped_dt[0] + 1.5 * tau**4 * sum(
                (1.0 - 3.0 ** -(n + 1 - i)) * a_i for i, a_i in enumerate(lumped_d2, start=2)
            )
        else:
            predicted = tau**2 * sum(lumped_dt)
        res_closed = _residual(delta_uni, predicted)
        res_closed_form = max(res_closed_form, res_closed)
        mono = max(mono, np.max(np.sqrt(np.sum(u_n * u_n, axis=1)) - np.sqrt(sq)))
        records.append(StepRecord(n, n * tau, math.sqrt(udot_sq), math.sqrt(dt_l2_sq), energy(u_next), delta_uni,
                                  res_law, res_nodal, res_closed))
        dt_prev = dt
    two_step_audits = two_step and len(records) > 1
    audits = {
        "res_init": res_init,
        "res_energy_law": _residual(g_value(steps[-1][2], steps[-1][1]) + sum(law_terms), g_first)
        if two_step_audits else math.nan,
        "res_nodal_recursion": max(rec.res_nodal_recursion for rec in records[1:]) if two_step_audits else math.nan,
        "res_closed_form": res_closed_form,
        "mono_violation": mono,
        "a_sq": tau**2 * a_sum,
        "b_sq": b_sq,
    }
    return records, audits
