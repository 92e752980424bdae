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

import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import _Audit
from .fem import assemble_p1
from .kkt import TangentPlaneAnalysis, _pair
from .mesh import free_nodes

METHODS = ("euler", "bdf2")
METRICS = ("l2", "h1")
# a run stops after this many steps at the latest
MAX_STEPS = 10**6


@dataclass
class FlowConfig:
    """Run parameters: scheme, step size and stopping rule (the metric is the system's)."""

    method: str = "bdf2"
    tau: float = 0.25
    eps_stop: float = 1e-3
    t_max: float = 1e6

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        # written so that NaN fails every check
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"step size must be positive and finite, got {self.tau}")
        # the largest power the audits form, 1.5 * tau**4, must be positive
        # and finite; ** raises OverflowError where * would give inf
        try:
            power = 1.5 * self.tau**4
        except OverflowError:
            power = math.inf
        if not 0.0 < power < math.inf:
            why = "small: its fourth power underflows to 0" if power == 0.0 else "large: 1.5 tau**4 overflows"
            raise ValueError(f"step size {self.tau:g} is too {why}")
        if not (math.isfinite(self.eps_stop) and self.eps_stop > 0):
            raise ValueError(f"stopping threshold must be positive and finite, got {self.eps_stop}")
        if not self.t_max > 0:
            raise ValueError(f"final time must be positive, got {self.t_max}")


class EnergySystem:
    """Dirichlet energy, flow metric and nodal sphere constraint for one mesh.

    Assembles the scalar matrices of the energy (``stiffness``) and the L2
    pairing (``mass``) on ``mesh``; holds the flow metric and the free-node
    restrictions of the per-step tangent-plane solves.  The h1 metric is
    the energy form, definite since the boundary carries Dirichlet data.
    """

    def __init__(self, mesh, metric="h1"):
        if metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
        self.mesh = mesh
        self.stiffness, self.mass, self.lumped_weights = assemble_p1(mesh)
        self.metric = metric
        self.free = f = free_nodes(mesh)
        # the free rows of K serve the right-hand side and the block
        self._a_f = self.stiffness.rows(f)
        self._a_ff = self._a_f.columns(f)
        self._metric_ff = self.mass.rows(f).columns(f) if metric == "l2" else self._a_ff
        self._blocks = {}

    @functools.cached_property
    def _analysis(self):
        """The :class:`TangentPlaneAnalysis` of the pattern of metric_ff, which contains a_ff's: every block's."""
        return TangentPlaneAnalysis(self._metric_ff)

    @functools.cached_property
    def _a_on_metric(self):
        """The values of a_ff on the pattern of metric_ff, 0.0 off its own, matched by sorted keys row * K + column."""
        (k, _), m, a = self._metric_ff.shape, self._metric_ff, self._a_ff
        keys = [np.repeat(np.arange(k) * k, np.diff(x.indptr)) + x.indices for x in (m, a)]
        values = np.zeros(m.data.size)
        values[np.searchsorted(*keys)] = a.data
        return values

    def _block(self, scale):
        """The block metric_ff + scale * a_ff on the pattern of metric_ff, exact zeros kept; built once per scale."""
        if scale not in self._blocks:
            self._blocks[scale] = replace(self._metric_ff, data=self._metric_ff.data + scale * self._a_on_metric)
        return self._blocks[scale]

    def solve_increment(self, scale, u_hat, rhs):
        """(n_vertices, 3) increment, zero on the boundary, for block metric_ff + scale * a_ff.

        ``u_hat`` holds the constraint directions at every vertex, ``rhs`` the free-node right-hand side.
        """
        increment = np.zeros((self.mesh.n_vertices, 3))
        increment[self.free] = self._analysis.solve(self._block(scale), u_hat[self.free], rhs)
        return increment

    def rhs_from(self, explicit_field, factor):
        """(K, 3) free-node right-hand side -factor * a(explicit_field, .)."""
        return -factor * (self._a_f @ explicit_field)

    def energy(self, u, k_u=None):
        """Dirichlet energy (1/2) a(u, u); ``k_u`` is ``stiffness @ u`` when already formed."""
        if k_u is None:
            k_u = self.stiffness @ u
        return 0.5 * _pair(u, k_u)


def extrapolate(u_prev, u_prev2):
    """Second-order predictor 2 u_prev - u_prev2."""
    return 2.0 * u_prev - u_prev2


def euler_init_step(u0, sys, cfg):
    """One linearized implicit Euler step with constraint directions u0.

    Solves the KKT system with matrix metric + tau * a for the increment,
    orthogonal to u0 at every free node, and returns (u1, dt_u1) with
    u1 = u0 + tau * dt_u1.
    """
    tau = cfg.tau
    dt_u1 = sys.solve_increment(tau, u0, sys.rhs_from(u0, 1.0))
    return u0 + tau * dt_u1, dt_u1


def bdf2_step(u_n, u_prev, sys, cfg):
    """One two-step update from the states (u_n, u_prev) = (u^{n-1}, u^{n-2}).

    The constraint direction is the extrapolation 2 u^{n-1} - u^{n-2}; the
    KKT matrix is metric + (2 tau / 3) * a and the returned pair is
    (u^n, udot^n) with u^n = (4 u^{n-1} - u^{n-2} + 2 tau udot^n) / 3.
    """
    tau = cfg.tau
    explicit = 4.0 * u_n - u_prev
    u_dot = sys.solve_increment(2.0 * tau / 3.0, extrapolate(u_n, u_prev), sys.rhs_from(explicit, 1.0 / 3.0))
    u_next = (explicit + 2.0 * tau * u_dot) / 3.0
    return u_next, u_dot


def _steps(u0, sys, cfg):
    """Yield (u_prev, u_n, u_next, u_dot) for steps 1, 2, ... of the flow.

    Step 1 is the Euler initialization and has u_prev None; later steps
    repeat it or take two-step updates, by ``cfg.method``.
    """
    u_prev, u_n = None, u0
    while True:
        if cfg.method == "bdf2" and u_prev is not None:
            u_next, u_dot = bdf2_step(u_n, u_prev, sys, cfg)
        else:
            u_next, u_dot = euler_init_step(u_n, sys, cfg)
        yield u_prev, u_n, u_next, u_dot
        u_prev, u_n = u_n, u_next


def run_flow(u0, sys, cfg, *, on_step=None):
    """Drive the flow from ``u0`` until the stopping rule fires.

    Keeps the regularity quantities A^2 and B^2 and the identity audits
    (initialization equality, telescoped energy law, nodal recursion,
    closed-form constraint violation at every step, nodal monotonicity);
    the two-step identities are NaN (skipped) for an Euler run.  ``u0``
    must have unit length at every node, to ``diagnostics.FEASIBILITY_TOL``.
    An update lost in the round-off of the states, as from a step size or a
    stopping threshold too small for the flow to resolve, or a state whose
    energy or constraint violation is not finite stops the run with a
    ``ValueError`` naming the step.  ``on_step``, when given, is called
    with the :class:`StepRecord` of each step as it finishes (norms, energy,
    constraint violation and the step's own audits); no record is kept.

    Returns a :class:`RunReport`; ``converged`` is True only when the norm
    criterion was met before the final time or the step cap ``MAX_STEPS``.
    """
    audit = _Audit(u0, sys, cfg, on_step)
    converged = False
    for n, step in enumerate(_steps(u0, sys, cfg), start=1):
        norm = audit.record(*step)
        # a two-step run is judged from its first two-step step on; the final
        # time and the step cap hold from step 1 on
        if n > 1 or cfg.method == "euler":
            converged = norm <= cfg.eps_stop
        if converged or n >= MAX_STEPS or n * cfg.tau >= cfg.t_max:
            break
    return audit.report(converged, step[2])


def run_sweep(u0, sys, configs):
    """:func:`run_flow` from ``u0`` for each of ``configs``; one report per config, in config order.

    The flows run side by side in forked worker processes, one per usable
    CPU (at most one per config); every report is bitwise the one
    :func:`run_flow` returns.  Each task receives its arguments pickled; the
    workers inherit whatever wraps this module's functions.  With one
    worker, without ``fork``, or in a daemonic process the flows run one
    after another in this process.  An exception of a flow is raised here;
    no worker outlives the call.
    """
    workers = min(len(configs), len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return [run_flow(u0, sys, cfg) for cfg in configs]
    # steps grow like 1/tau, so the finest step size starts first
    order = sorted(range(len(configs)), key=lambda i: configs[i].tau)
    sys._analysis, sys._a_on_metric  # each task receives them pickled with the system: no worker builds them
    # fork, not spawn: the workers inherit whatever wraps this module's functions
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {pool.submit(run_flow, u0, sys, configs[i]): i for i in order}
        reports = [None] * len(configs)
        for future in as_completed(futures):
            reports[futures[future]] = future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return reports
