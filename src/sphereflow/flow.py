"""Projection-free time stepping for the harmonic-map flow into the sphere.

The driver decreases the Dirichlet energy (1/2) a(u,u) subject to the
linearized nodal unit-length constraint: one linearized implicit Euler
step initializes the history, then two-step (BDF2) steps with an
extrapolated constraint direction run until the discrete time derivatives
fall below the stopping threshold.  A pure Euler mode repeats
initialization-type steps instead, as the first order baseline.
:func:`run_sweep` runs the flows of several step sizes side by side in
worker processes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    RunReport,
    StepRecord,
    constraint_violation,
    nodal_recursion_residual,
    relative_residual,
)
from .fem import assemble_mass, assemble_stiffness, lumped_mass_diagonal
from .kkt import TangentPlaneAnalysis, set_blas_threads
from .mesh import free_nodes
from .seqcalc import backward_difference, extrapolate, g_form, gamma, second_difference

METHODS = ("euler", "bdf2")
METRICS = ("l2", "h1")

FEASIBILITY_TOL = 1e-8


@dataclass
class FlowConfig:
    """Run parameters: scheme, step size and stopping rule (the metric is the system's)."""

    method: str = "bdf2"
    tau: float = 0.25
    eps_stop: float = 1e-3
    t_max: float = 1e6
    max_steps: int = 10**6

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        # written so that NaN fails every check
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"step size must be positive and finite, got {self.tau}")
        if not (math.isfinite(self.eps_stop) and self.eps_stop > 0):
            raise ValueError(f"stopping threshold must be positive and finite, got {self.eps_stop}")
        if not self.t_max > 0:
            raise ValueError(f"final time must be positive, got {self.t_max}")
        if not self.max_steps >= 1:
            raise ValueError(f"step cap must be at least 1, got {self.max_steps}")


def _pair(u, v):
    """Euclidean pairing sum(u * v) of two nodal fields."""
    return float((u * v).sum())


class EnergySystem:
    """Dirichlet energy, flow metric and nodal sphere constraint for one mesh.

    Holds the scalar matrices of the energy (``stiffness``), the L2 pairing
    (``mass``), the chosen flow metric and the free-node restrictions used
    by the per-step tangent-plane solves.  The h1 metric is the energy form
    itself and needs a Dirichlet boundary to be definite.
    """

    def __init__(self, mesh, stiffness, mass, metric="h1"):
        if metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
        if metric == "h1" and mesh.dirichlet_nodes.size == 0:
            raise ValueError("h1 metric is singular without Dirichlet nodes")
        self.mesh = mesh
        self.stiffness = stiffness.tocsr()
        self.mass = mass.tocsr()
        self.metric = metric
        self.free = free_nodes(mesh)
        self.lumped_weights = lumped_mass_diagonal(mesh)
        f = self.free
        self._a_ff = self.stiffness[f][:, f].tocsr()
        self._metric_ff = (self.mass if metric == "l2" else self.stiffness)[f][:, f].tocsr()
        self._solvers = {}

    def solve_increment(self, scale, u_hat, rhs):
        """(K, 3) free-node increment for block metric_ff + scale * a_ff, directions ``u_hat`` and ``rhs``.

        The :class:`TangentPlaneAnalysis` of each scale's block is built on
        its first solve and kept.
        """
        solver = self._solvers.get(scale)
        if solver is None:
            solver = self._solvers[scale] = TangentPlaneAnalysis(self._metric_ff + scale * self._a_ff)
        return solver.solve(u_hat[self.free], rhs).primal

    def rhs_from(self, explicit_field, factor):
        """(K, 3) free-node right-hand side -factor * a(explicit_field, .)."""
        return (-factor * (self.stiffness @ explicit_field))[self.free]

    def energy(self, u, k_u=None):
        """Dirichlet energy (1/2) a(u, u); ``k_u`` is ``stiffness @ u`` when already formed."""
        if k_u is None:
            k_u = self.stiffness @ u
        return 0.5 * _pair(u, k_u)

    def lumped_norm_sq(self, u):
        return float(self.lumped_weights @ np.sum(u * u, axis=1))


def harmonic_map_system(mesh, metric="h1"):
    """Assemble the Dirichlet-energy system with the nodal sphere constraint."""
    return EnergySystem(mesh, assemble_stiffness(mesh), assemble_mass(mesh), metric=metric)


def _scatter(sys, increment):
    out = np.zeros((sys.mesh.n_vertices, 3))
    out[sys.free] = increment
    return out


def euler_init_step(u0, sys, cfg):
    """One linearized implicit Euler step with constraint directions u0.

    Solves the KKT system with matrix metric + tau * a for the increment,
    orthogonal to u0 at every free node, and returns (u1, dt_u1) with
    u1 = u0 + tau * dt_u1.
    """
    tau = cfg.tau
    dt_u1 = _scatter(sys, sys.solve_increment(tau, u0, sys.rhs_from(u0, 1.0)))
    return u0 + tau * dt_u1, dt_u1


def bdf2_step(u_n, u_prev, sys, cfg):
    """One two-step update from the states (u_n, u_prev) = (u^{n-1}, u^{n-2}).

    The constraint direction is the extrapolation 2 u^{n-1} - u^{n-2}; the
    KKT matrix is metric + (2 tau / 3) * a and the returned pair is
    (u^n, udot^n) with u^n = (4 u^{n-1} - u^{n-2} + 2 tau udot^n) / 3.
    """
    tau = cfg.tau
    explicit = 4.0 * u_n - u_prev
    increment = sys.solve_increment(2.0 * tau / 3.0, extrapolate(u_n, u_prev), sys.rhs_from(explicit, 1.0 / 3.0))
    u_dot = _scatter(sys, increment)
    u_next = (explicit + 2.0 * tau * u_dot) / 3.0
    return u_next, u_dot


def _steps(u0, sys, cfg):
    """Yield (u_prev, u_n, u_next, u_dot, dt) for steps 1, 2, ... of the flow.

    Step 1 is the Euler initialization and has u_prev None; later steps
    repeat it or take two-step updates, by ``cfg.method``.  ``dt`` is the
    backward difference (u_next - u_n) / tau, which an Euler step solves for.
    """
    u_prev, u_n = None, u0
    while True:
        if cfg.method == "bdf2" and u_prev is not None:
            u_next, u_dot = bdf2_step(u_n, u_prev, sys, cfg)
            dt = backward_difference(u_next, u_n, cfg.tau)
        else:
            u_next, u_dot = euler_init_step(u_n, sys, cfg)
            dt = u_dot
        yield u_prev, u_n, u_next, u_dot, dt
        u_prev, u_n = u_n, u_next


class _Audit:
    """Per-step trace, the regularity sums A^2 and B^2, and the identity audits.

    Which identities apply is fixed at construction: the energy law and the
    nodal recursion belong to the two-step scheme and are NaN (skipped) in
    the report of an Euler run; the initialization, closed-form and
    monotonicity audits apply to both schemes.

    Each step forms three sparse products, K u_next, K dt and M dt, and
    keeps them for the next step; every other pairing comes from these.
    Differences are paired through products of differences, never of
    states, which would cancel near convergence.
    """

    def __init__(self, u0, sys, cfg):
        self.sys = sys
        self.method = cfg.method
        self.tau = cfg.tau
        self.two_step = cfg.method == "bdf2"
        self.trace = []
        self.sum_d2_l2 = 0.0
        self.mono_violation = 0.0
        # kept between steps: K u_n, a(u_n, u_n) and the nodal squared
        # lengths and lengths of the newest state u_n; the previous step's
        # K dt, M dt and metric dt; the nodal squared lengths before u_n
        self.k_u = sys.stiffness @ u0
        self.a_uu = _pair(u0, self.k_u)
        self.sq = (u0 * u0).sum(axis=1)
        self.node_norms = np.sqrt(self.sq)
        self.k_dt = self.m_dt = self.metric_dt = self.sq_prev = None
        # telescoped energy law (two-step only)
        self.sum_udot_star = 0.0
        self.sum_grad_d2 = 0.0
        # closed-form constraint violation, predicted in O(1) per step from
        # lumped sums of squared second differences (two-step) or of squared
        # derivatives (Euler) and audited at every step
        self.s1_lumped = 0.0
        self.c_lumped = 0.0
        self.res_closed_form = 0.0

    def record(self, u_prev, u_n, u_next, u_dot, dt):
        """Audit one step of :func:`_steps` and return its trace record."""
        sys, tau = self.sys, self.tau
        n = len(self.trace) + 1
        k_u, k_dt, m_dt = sys.stiffness @ u_next, sys.stiffness @ dt, sys.mass @ dt
        metric_dt = k_dt if sys.metric == "h1" else m_dt
        if u_prev is None or not self.two_step:
            udot_star_sq = _pair(u_dot, metric_dt)
        else:
            # 2 udot = 3 dt_n - dt_{n-1} for a two-step step
            udot_star_sq = _pair(u_dot, 1.5 * metric_dt - 0.5 * self.metric_dt)
        dt_l2_sq = _pair(dt, m_dt)
        a_uu = _pair(u_next, k_u)
        energy = sys.energy(u_next, k_u)
        sq = (u_next * u_next).sum(axis=1)
        delta_uni = constraint_violation(sq, sys.lumped_weights)
        if self.two_step:
            # BDF2 energy of the pair g_a(u_next, u_n)
            g_new = g_form(a_uu, _pair(u_next, self.k_u), self.a_uu)
        res_law = res_nodal = math.nan
        if u_prev is None:
            self.b_sq = dt_l2_sq
            self.b_lumped = self.sum_dt_lumped = sys.lumped_norm_sq(dt)
            self.res_init = relative_residual(
                energy + tau * udot_star_sq + 0.5 * tau**2 * _pair(dt, k_dt), sys.energy(u_n, self.k_u)
            )
            if self.two_step:
                self.g_first = self.g_prev = g_new
        else:
            d2 = second_difference(u_next, u_n, u_prev, tau)
            self.sum_d2_l2 += _pair(d2, backward_difference(m_dt, self.m_dt, tau))
            if self.two_step:
                grad_d2_term = 0.25 * tau**4 * _pair(d2, backward_difference(k_dt, self.k_dt, tau))
                res_law = relative_residual(tau * udot_star_sq + g_new + grad_d2_term, self.g_prev)
                self.sum_udot_star += tau * udot_star_sq
                self.sum_grad_d2 += grad_d2_term
                self.g_prev = g_new
                f = sys.free
                d2_sq = (d2 * d2).sum(axis=1)
                res_nodal = nodal_recursion_residual(sq[f], self.sq[f], self.sq_prev[f], d2_sq[f], tau)
                a_n = float(sys.lumped_weights @ d2_sq)
                self.s1_lumped += a_n
                self.c_lumped = a_n + self.c_lumped / 3.0
            else:
                self.sum_dt_lumped += sys.lumped_norm_sq(dt)
        if self.two_step and u_prev is not None:
            predicted = 1.5 * gamma(n - 1) * tau**2 * self.b_lumped + 1.5 * tau**4 * (
                self.s1_lumped - self.c_lumped / 3.0
            )
        else:
            # Euler steps, and the initialization step of a two-step run,
            # obey the telescoped sum of squared derivatives
            predicted = tau**2 * self.sum_dt_lumped
        self.res_closed_form = max(self.res_closed_form, relative_residual(delta_uni, predicted))
        next_norms = np.sqrt(sq)
        self.mono_violation = max(self.mono_violation, float((self.node_norms - next_norms).max()))
        self.node_norms = next_norms
        self.k_u, self.a_uu, self.k_dt, self.m_dt, self.metric_dt = k_u, a_uu, k_dt, m_dt, metric_dt
        self.sq_prev, self.sq = self.sq, sq
        rec = StepRecord(
            n=n,
            time=n * tau,
            norm_udot_star=math.sqrt(udot_star_sq),
            norm_dtu_l2=math.sqrt(dt_l2_sq),
            energy=energy,
            delta_uni=delta_uni,
            res_energy_law=res_law,
            res_nodal_recursion=res_nodal,
        )
        self.trace.append(rec)
        return rec

    def report(self, converged, u_final, reference_energy):
        tau, final = self.tau, self.trace[-1]
        n_stop = final.n
        res_energy_law = res_nodal = math.nan
        if self.two_step and n_stop > 1:
            res_energy_law = relative_residual(self.g_prev + self.sum_udot_star + self.sum_grad_d2, self.g_first)
            res_nodal = max(rec.res_nodal_recursion for rec in self.trace[1:])
        return RunReport(
            method=self.method,
            metric=self.sys.metric,
            tau=tau,
            n_stop=n_stop,
            converged=converged,
            energy_final=final.energy,
            delta_uni=final.delta_uni,
            delta_ener=abs(final.energy - reference_energy) if reference_energy is not None else math.nan,
            a_sq=tau**2 * self.sum_d2_l2,
            b_sq=self.b_sq,
            trace=self.trace,
            res_init=self.res_init,
            res_energy_law=res_energy_law,
            res_nodal_recursion=res_nodal,
            res_closed_form=self.res_closed_form,
            mono_violation=self.mono_violation,
            u_final=u_final,
        )


def run_flow(u0, sys, cfg, reference_energy=None):
    """Drive the flow from ``u0`` until the stopping rule fires.

    Records per-step norms, energies and constraint violations, the
    regularity quantities A^2 and B^2, and the identity audits
    (initialization equality, telescoped energy law, nodal recursion,
    closed-form constraint violation at every step, nodal monotonicity);
    the two-step identities are NaN (skipped) for an Euler run.  ``u0``
    must have unit length at every node, to ``FEASIBILITY_TOL``.

    Returns a :class:`RunReport`; ``converged`` is True only when the norm
    criterion was met before the final time or step cap.
    """
    defect = np.abs(np.sum(u0 * u0, axis=1) - 1.0).max()
    if not defect <= FEASIBILITY_TOL:
        raise ValueError(f"initial field is infeasible: max | |u|^2 - 1 | = {defect:.3e}")

    audit = _Audit(u0, sys, cfg)
    converged = False
    for n, step in enumerate(_steps(u0, sys, cfg), start=1):
        rec = audit.record(*step)
        # a two-step run is judged from its first two-step step on; the final
        # time and the step cap hold from step 1 on
        if n > 1 or cfg.method == "euler":
            converged = rec.norm_udot_star + rec.norm_dtu_l2 <= cfg.eps_stop
        if converged or n >= cfg.max_steps or n * cfg.tau >= cfg.t_max:
            break
    return audit.report(converged, step[2], reference_energy)


# the arguments of the sweep a worker process serves, set by its initializer
_sweep = None


def _init_sweep_worker(*args):
    global _sweep
    _sweep = args
    set_blas_threads(1)


def _run_sweep_entry(index):
    u0, sys, configs, reference_energy = _sweep
    return run_flow(u0, sys, configs[index], reference_energy)


def run_sweep(u0, sys, configs, reference_energy=None):
    """:func:`run_flow` from ``u0`` for each of ``configs``; one report per config, in config order.

    The flows run side by side in forked worker processes, one per usable
    CPU (at most one per config), each with one BLAS thread; every report
    is bitwise the one :func:`run_flow` returns.  The workers inherit the
    arguments and whatever wraps this module's functions instead of
    receiving them pickled.  With one worker, without ``fork``, or in a
    daemonic process the flows run one after another in this process.  An
    exception of a flow is raised here; no worker outlives the call.
    """
    workers = min(len(configs), len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return [run_flow(u0, sys, cfg, reference_energy) for cfg in configs]
    # steps grow like 1/tau, so the finest step size starts first
    order = sorted(range(len(configs)), key=lambda i: configs[i].tau)
    # fork, not spawn: the workers inherit the arguments and whatever wraps
    # this module's functions
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_sweep_worker, initargs=(u0, sys, configs, reference_energy))
    try:
        futures = {pool.submit(_run_sweep_entry, i): i for i in order}
        reports = [None] * len(configs)
        for future in as_completed(futures):
            reports[futures[future]] = future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return reports
