"""Projection-free time stepping for constrained gradient flows.

The driver minimizes (1/2) a(u,u) - b(u) subject to a linearized nodal
constraint: one linearized implicit Euler step initializes the history,
then two-step (BDF2) steps with an extrapolated constraint direction run
until the discrete time derivatives fall below the stopping threshold.
A pure Euler mode repeats initialization-type steps instead, as the first
order baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .diagnostics import (
    RunReport,
    StepRecord,
    constraint_violation,
    nodal_recursion_residual,
    relative_residual,
)
from .fem import assemble_mass, assemble_stiffness, dirichlet_energy, lumped_mass_diagonal
from .kkt import KktSystem, assemble_constraint_rows, solve_kkt
from .mesh import free_nodes
from .seqcalc import g_norm_sq

METHODS = ("euler", "bdf2")
METRICS = ("l2", "h1")

FEASIBILITY_TOL = 1e-8


@dataclass
class FlowConfig:
    """Run parameters: scheme, flow metric, step size and stopping rule."""

    method: str = "bdf2"
    metric: str = "h1"
    tau: float = 0.25
    eps_stop: float = 1e-3
    t_max: float = 1e6
    solver_tol: float = 1e-12
    max_steps: int = 10**6

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.tau <= 0:
            raise ValueError(f"step size must be positive, got {self.tau}")
        if self.eps_stop <= 0:
            raise ValueError(f"stopping threshold must be positive, got {self.eps_stop}")
        if self.t_max <= 0:
            raise ValueError(f"final time must be positive, got {self.t_max}")


@dataclass
class HistoryWindow:
    """Rolling state (u_n, u_prev, u_prev2) plus the cached first increment."""

    u_n: np.ndarray
    u_prev: np.ndarray
    u_prev2: np.ndarray | None
    dt_u1: np.ndarray
    n: int


class EnergySystem:
    """Bilinear form, flow metric and constraint assembly for one problem.

    Holds the scalar matrices of the quadratic energy (``stiffness``), the
    L2 pairing (``mass``), the chosen flow metric, an optional load, and
    the free-node restrictions used by the per-step KKT solves.  The h1
    metric is the energy form itself and needs a Dirichlet boundary to be
    definite.
    """

    def __init__(self, mesh, stiffness, mass, metric="h1", load=None, constraint_builder=None):
        if metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
        if metric == "h1" and mesh.dirichlet_nodes.size == 0:
            raise ValueError("h1 metric is singular without Dirichlet nodes")
        self.mesh = mesh
        self.stiffness = stiffness.tocsr()
        self.mass = mass.tocsr()
        self.metric = metric
        self.metric_matrix = self.mass if metric == "l2" else self.stiffness
        self.load = load
        self.free = free_nodes(mesh)
        self.lumped_weights = lumped_mass_diagonal(mesh)
        # the default builder is the nodal sphere constraint; a custom one
        # changes the feasibility notion, so the driver skips the unit check
        self.uses_sphere_constraint = constraint_builder is None
        self._constraint_builder = constraint_builder
        f = self.free
        self._a_ff = self.stiffness[f][:, f].tocsr()
        self._metric_ff = self.metric_matrix[f][:, f].tocsr()
        self._kkt_blocks = {}

    def kkt_block(self, scale):
        """Cached node-major block kron(metric_ff + scale * a_ff, I3)."""
        block = self._kkt_blocks.get(scale)
        if block is None:
            block = sp.kron(self._metric_ff + scale * self._a_ff, sp.identity(3), format="csc")
            self._kkt_blocks[scale] = block
        return block

    def constraint_rows(self, u_hat):
        if self._constraint_builder is not None:
            return self._constraint_builder(u_hat, self.free)
        return assemble_constraint_rows(u_hat, self.free)

    def kkt_system(self, scale, u_hat, rhs):
        """KKT system with block ``kkt_block(scale)``, directions ``u_hat`` and ``rhs``.

        The nodal sphere constraint goes in as the free-node directions, which
        :func:`solve_kkt` handles on the tangent planes; a custom builder's
        rows go in as a general G.
        """
        block = self.kkt_block(scale)
        if self.uses_sphere_constraint:
            return KktSystem(block, None, rhs, directions=u_hat[self.free])
        return KktSystem(block, self.constraint_rows(u_hat), rhs)

    def rhs_from(self, explicit_field, factor):
        """Free-DOF right-hand side b - factor * a(explicit_field, .)."""
        rhs = -factor * (self.stiffness @ explicit_field)
        if self.load is not None:
            rhs = rhs + self.load
        return rhs[self.free].ravel()

    def energy(self, u):
        value = dirichlet_energy(u, self.stiffness)
        if self.load is not None:
            value -= float(np.sum(self.load * u))
        return value

    def a_inner(self, u, v):
        return float(np.sum(u * (self.stiffness @ v)))

    def l2_norm_sq(self, u):
        return float(np.sum(u * (self.mass @ u)))

    def metric_norm_sq(self, u):
        return float(np.sum(u * (self.metric_matrix @ u)))

    def lumped_norm_sq(self, u):
        return float(self.lumped_weights @ np.sum(u * u, axis=1))


def harmonic_map_system(mesh, metric="h1"):
    """Assemble the Dirichlet-energy system with the nodal sphere constraint."""
    return EnergySystem(mesh, assemble_stiffness(mesh), assemble_mass(mesh), metric=metric)


def _scatter(sys, primal):
    out = np.zeros((sys.mesh.n_vertices, 3))
    out[sys.free] = primal.reshape(-1, 3)
    return out


def euler_init_step(u0, sys, cfg):
    """One linearized implicit Euler step with constraint directions u0.

    Solves the KKT system with matrix metric + tau * a for the increment,
    orthogonal to u0 at every free node, and returns (u1, dt_u1) with
    u1 = u0 + tau * dt_u1.
    """
    tau = cfg.tau
    sol = solve_kkt(sys.kkt_system(tau, u0, sys.rhs_from(u0, 1.0)), tol=cfg.solver_tol)
    dt_u1 = _scatter(sys, sol.primal)
    return u0 + tau * dt_u1, dt_u1


def bdf2_step(hist, sys, cfg):
    """One two-step update from the window (u_n, u_prev) = (u^{n-1}, u^{n-2}).

    The constraint direction is the extrapolation 2 u^{n-1} - u^{n-2}; the
    KKT matrix is metric + (2 tau / 3) * a and the returned pair is
    (u^n, udot^n) with u^n = (4 u^{n-1} - u^{n-2} + 2 tau udot^n) / 3.
    """
    tau = cfg.tau
    u_hat = 2.0 * hist.u_n - hist.u_prev
    explicit = 4.0 * hist.u_n - hist.u_prev
    system = sys.kkt_system(2.0 * tau / 3.0, u_hat, sys.rhs_from(explicit, 1.0 / 3.0))
    sol = solve_kkt(system, tol=cfg.solver_tol)
    u_dot = _scatter(sys, sol.primal)
    u_next = (explicit + 2.0 * tau * u_dot) / 3.0
    return u_next, u_dot


def run_flow(u0, sys, cfg, reference_energy=None):
    """Drive the flow from ``u0`` until the stopping rule fires.

    Records per-step norms, energies and constraint violations, accumulates
    the regularity quantities A^2 and B^2, and evaluates the identity
    audits (initialization equality, telescoped energy law, nodal recursion,
    closed-form constraint violation) alongside the stepping.

    The nodal recursion, closed-form and monotonicity audits hold only for
    the nodal sphere constraint; with a custom constraint builder they are
    NaN (skipped).

    Returns a :class:`RunReport`; ``converged`` is True only when the norm
    criterion was met before the final time or step cap.  Raises
    ``ValueError`` when ``cfg.metric`` is not the metric of ``sys``.
    """
    tau = cfg.tau
    if cfg.metric != sys.metric:
        raise ValueError(f"config metric {cfg.metric!r} does not match system metric {sys.metric!r}")
    sphere = sys.uses_sphere_constraint
    if sphere:
        defect = np.abs(np.sum(u0 * u0, axis=1) - 1.0).max()
        if defect > FEASIBILITY_TOL:
            raise ValueError(f"initial field is infeasible: max | |u|^2 - 1 | = {defect:.3e}")

    weights = sys.lumped_weights
    u1, dt_u1 = euler_init_step(u0, sys, cfg)

    b_sq = sys.l2_norm_sq(dt_u1)
    b_lumped = sys.lumped_norm_sq(dt_u1)
    res_init = relative_residual(
        dirichlet_energy(u1, sys.stiffness)
        + tau * sys.metric_norm_sq(dt_u1)
        + 0.5 * tau**2 * sys.a_inner(dt_u1, dt_u1),
        dirichlet_energy(u0, sys.stiffness),
    )

    norm_star_1 = math.sqrt(sys.metric_norm_sq(dt_u1))
    norm_l2_1 = math.sqrt(sys.l2_norm_sq(dt_u1))
    trace = [
        StepRecord(
            n=1,
            time=tau,
            norm_udot_star=norm_star_1,
            norm_dtu_l2=norm_l2_1,
            energy=sys.energy(u1),
            delta_uni=constraint_violation(u1, sys.mesh, weights=weights),
        )
    ]

    node_norms = np.linalg.norm(u1, axis=1)
    mono_violation = max(0.0, float((np.linalg.norm(u0, axis=1) - node_norms).max()))

    hist = HistoryWindow(u_n=u1, u_prev=u0, u_prev2=None, dt_u1=dt_u1, n=1)

    # Telescoped energy-law state (two-step scheme only).
    g_first = g_norm_sq(u1, u0, inner=sys.a_inner)
    g_prev = g_first
    sum_udot_star = 0.0
    sum_grad_d2 = 0.0

    sum_d2_l2 = 0.0
    s1_lumped = 0.0
    c_lumped = 0.0
    sum_dt_lumped = b_lumped
    res_nodal_max = 0.0
    bdf2_steps = 0

    converged = cfg.method == "euler" and norm_star_1 + norm_l2_1 <= cfg.eps_stop
    hit_cap = False

    while not converged:
        n = hist.n + 1
        if n > cfg.max_steps:
            hit_cap = True
            break

        res_step_law = math.nan
        res_nodal = math.nan
        if cfg.method == "bdf2":
            u_next, u_dot = bdf2_step(hist, sys, cfg)
            dt_un = (u_next - hist.u_n) / tau
            d2 = (u_next - 2.0 * hist.u_n + hist.u_prev) / tau**2
            g_new = g_norm_sq(u_next, hist.u_n, inner=sys.a_inner)
            udot_star_sq = sys.metric_norm_sq(u_dot)
            grad_d2_term = 0.25 * tau**4 * sys.a_inner(d2, d2)
            res_step_law = relative_residual(tau * udot_star_sq + g_new + grad_d2_term, g_prev)
            sum_udot_star += tau * udot_star_sq
            sum_grad_d2 += grad_d2_term
            if sphere:
                f = sys.free
                res_nodal = nodal_recursion_residual(u_next[f], hist.u_n[f], hist.u_prev[f], tau)
                res_nodal_max = max(res_nodal_max, res_nodal)
            g_prev = g_new
            bdf2_steps += 1
        else:
            u_next, u_dot = euler_init_step(hist.u_n, sys, cfg)
            dt_un = u_dot
            d2 = (u_next - 2.0 * hist.u_n + hist.u_prev) / tau**2
            udot_star_sq = sys.metric_norm_sq(u_dot)
            sum_dt_lumped += sys.lumped_norm_sq(dt_un)

        sum_d2_l2 += sys.l2_norm_sq(d2)
        a_n = sys.lumped_norm_sq(d2)
        s1_lumped += a_n
        c_lumped = a_n + c_lumped / 3.0

        next_norms = np.linalg.norm(u_next, axis=1)
        mono_violation = max(mono_violation, float((node_norms - next_norms).max()))
        node_norms = next_norms

        norm_udot_star = math.sqrt(udot_star_sq)
        norm_dtu_l2 = math.sqrt(sys.l2_norm_sq(dt_un))
        trace.append(
            StepRecord(
                n=n,
                time=n * tau,
                norm_udot_star=norm_udot_star,
                norm_dtu_l2=norm_dtu_l2,
                energy=sys.energy(u_next),
                delta_uni=constraint_violation(u_next, sys.mesh, weights=weights),
                res_energy_law=res_step_law,
                res_nodal_recursion=res_nodal,
            )
        )

        hist = HistoryWindow(u_n=u_next, u_prev=hist.u_n, u_prev2=hist.u_prev, dt_u1=dt_u1, n=n)

        if norm_udot_star + norm_dtu_l2 <= cfg.eps_stop:
            converged = True
            break
        if n * tau >= cfg.t_max:
            break

    n_stop = hist.n
    final = trace[-1]

    if cfg.method == "bdf2" and bdf2_steps > 0:
        res_energy_law = relative_residual(g_prev + sum_udot_star + sum_grad_d2, g_first)
        predicted = 1.5 * (1.0 - 3.0**-n_stop) * tau**2 * b_lumped + 1.5 * tau**4 * (
            s1_lumped - c_lumped / 3.0
        )
        res_nodal_total = res_nodal_max
    else:
        # pure Euler runs (or a two-step run cut off before any step) have
        # no two-step identities; their violation obeys the telescoped sum
        res_energy_law = math.nan
        predicted = tau**2 * sum_dt_lumped
        res_nodal_total = math.nan
    res_closed_form = relative_residual(final.delta_uni, predicted)
    if not sphere:
        # these identities hold only for the nodal sphere constraint
        res_nodal_total = res_closed_form = mono_violation = math.nan

    return RunReport(
        method=cfg.method,
        metric=cfg.metric,
        tau=tau,
        n_stop=n_stop,
        converged=converged and not hit_cap,
        energy_final=final.energy,
        delta_uni=final.delta_uni,
        delta_ener=abs(final.energy - reference_energy) if reference_energy is not None else math.nan,
        a_sq=tau**2 * sum_d2_l2,
        b_sq=b_sq,
        trace=trace,
        res_init=res_init,
        res_energy_law=res_energy_law,
        res_nodal_recursion=res_nodal_total,
        res_closed_form=res_closed_form,
        mono_violation=mono_violation,
        u_final=hist.u_n,
    )
