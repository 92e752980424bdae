"""Reported quantities, the per-step identity audit of a flow run, and every formula it checks.

Residuals are always scaled by (1 + magnitude of the audited quantity) so
that near-zero identities do not blow up the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kkt import _nodal_dot, _pair

AUDIT_KEYS = ("res_init", "res_energy_law", "res_nodal_recursion", "res_closed_form", "mono_violation")

# nodal lengths may shrink by round-off only
MONO_SLACK = 1e-9

FEASIBILITY_TOL = 1e-8

# the bound of every identity audit but monotonicity's; no flag or keyword changes it
AUDIT_TOL = 1e-8

# Entries of the 2x2 matrix defining the BDF2-adapted quadratic form on
# state pairs (x, y).  Eigenvalues are (3 +/- 2*sqrt(2))/4, both positive.
G11 = 5.0 / 4.0
G12 = -1.0 / 2.0
G22 = 1.0 / 4.0


@dataclass
class StepRecord:
    """What one step of a run reports; NaN marks a not-applicable audit."""

    n: int
    time: float
    norm_udot_star: float
    norm_dtu_l2: float
    energy: float
    delta_uni: float
    res_energy_law: float = math.nan
    res_nodal_recursion: float = math.nan
    res_closed_form: float = math.nan


@dataclass
class RunReport:
    """Per-run record of stopping data, diagnostics and identity residuals."""

    method: str
    metric: str
    tau: float
    n_stop: int
    converged: bool
    energy_final: float
    delta_uni: float
    a_sq: float
    b_sq: float
    res_init: float = math.nan
    res_energy_law: float = math.nan
    res_nodal_recursion: float = math.nan
    res_closed_form: float = math.nan
    mono_violation: float = math.nan
    u_final: np.ndarray | None = None


@dataclass
class SweepRow:
    """One row of a sweep table; an EOC is NaN where it is undefined."""

    report: RunReport
    delta_ener: float
    eoc_uni: float = math.nan
    eoc_ener: float = math.nan


def relative_residual(lhs, rhs):
    """|lhs - rhs| / (1 + |lhs| + |rhs|) of two floats, or elementwise of two arrays."""
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def constraint_violation(sq, weights):
    """Lumped L1 norm sum_z m_z | |u(z)|^2 - 1 | from nodal squared lengths ``sq`` and lumped weights ``weights``."""
    return float(weights.dot(np.abs(sq - 1.0)))


def eoc(coarse, fine):
    """Convergence order log2(coarse/fine) under step halving.

    Returns NaN when either value is nonpositive or NaN (the order is undefined).
    """
    if coarse <= 0 or fine <= 0:
        return math.nan
    return math.log2(coarse / fine)


def nodal_recursion_residual(sq_n, sq_prev, sq_prev2, d2_sq, tau):
    """Per-node defect of the squared-length difference equation.

    The orthogonality of the two-step derivative to the extrapolated state
    forces (3/2)|u_n|^2 - 2|u_prev|^2 + (1/2)|u_prev2|^2 to equal
    (3/2) tau^4 |second difference|^2 node by node.  Takes the nodal
    squared lengths of the three states and of their second difference;
    returns the worst scaled residual, NaN (skipped) over no node.
    """
    if not sq_n.size:
        return math.nan
    lhs = 1.5 * sq_n - 2.0 * sq_prev + 0.5 * sq_prev2
    return float(relative_residual(lhs, 1.5 * tau**4 * d2_sq).max())


def backward_difference(u_n, u_prev, tau):
    """First backward difference (u_n - u_prev) / tau."""
    return (u_n - u_prev) / tau


def second_difference(u_n, u_prev, u_prev2, tau):
    """Second backward difference (u_n - 2 u_prev + u_prev2) / tau**2."""
    return (u_n - 2.0 * u_prev + u_prev2) / tau**2


def g_form(xx, xy, yy):
    """BDF2 form (5/4)|x|^2 - x.y + (1/4)|y|^2 of a pair, from its pairings (x, x), (x, y), (y, y).

    Positive definite; g(x, y) - 0.5*|x-y|^2 = 0.75*|x|^2 - 0.25*|y|^2.
    """
    return G11 * xx + 2.0 * G12 * xy + G22 * yy


def gamma(n):
    """Coefficient 1 - 3**-(n+1) of the inverse generating polynomial.

    gamma(0) = 2/3, gamma(1) = 8/9, and the sequence solves the recursion
    (3/2) g_n - 2 g_{n-1} + (1/2) g_{n-2} = 0, increasing toward 1.
    """
    return 1.0 - 3.0 ** -(n + 1)


class _Audit:
    """Per-step records (handed to ``on_step`` when given), the regularity sums A^2 and B^2, and the identity audits.

    Which identities apply is fixed at construction: the energy law and the
    nodal recursion belong to the two-step scheme and are NaN (skipped) in
    the report of an Euler run; the initialization, closed-form and
    monotonicity audits apply to both schemes.

    Each step forms three sparse products, K u_next, K dt and M dt, and
    keeps them for the next step; every other pairing is one dot product of
    two of the fields at hand, and every scalar residual is taken in Python
    floats.  Differences are paired through products of differences, never
    of states, which would cancel near convergence.  The newest energy and
    constraint violation are kept, and the worst per-step audits as running
    maxima, so the report needs no record of past steps.
    """

    def __init__(self, u0, sys, cfg, on_step):
        sq = _nodal_dot(u0, u0)
        defect = np.abs(sq - 1.0).max()
        if not defect <= FEASIBILITY_TOL:
            raise ValueError(f"initial field is infeasible: max | |u|^2 - 1 | = {defect:.3e}")
        self.sys = sys
        self.method, self.tau, self.eps_stop = cfg.method, cfg.tau, cfg.eps_stop
        self.n = 0
        self.on_step = on_step
        self.sum_d2_l2 = 0.0
        self.mono_violation = 0.0
        # kept between steps: K u_n, the energy and the nodal lengths of the
        # newest state u_n; the previous step's K dt, M dt and metric dt; the
        # free-node squared lengths of the last two states
        self.k_u = sys.stiffness @ u0
        self.energy = sys.energy(u0, self.k_u)
        self.node_norms = np.sqrt(sq)
        self.sq_free = sq[sys.free]
        self.k_dt = self.m_dt = self.metric_dt = self.sq_free_prev = None
        # telescoped energy law and worst nodal recursion (two-step only)
        self.sum_udot_star = 0.0
        self.sum_grad_d2 = 0.0
        self.res_nodal = math.nan
        # closed-form constraint violation, predicted in O(1) per step from
        # lumped sums of squared derivatives (Euler-type steps) and of squared
        # second differences (two-step steps) and audited at every step
        self.sum_dt_lumped = 0.0
        self.s1_lumped = 0.0
        self.c_lumped = 0.0
        self.res_closed_form = 0.0

    def record(self, u_prev, u_n, u_next, u_dot):
        """Audit one step of :func:`_steps`; return its stopping norm |u_dot|_metric + |d_t u|_L2."""
        sys, tau = self.sys, self.tau
        self.n = n = self.n + 1
        # an Euler-type step (the initialization, or any step of an Euler run)
        # solves for d_t u = (u_next - u_n) / tau; a two-step step for u_dot
        euler = u_prev is None or self.method == "euler"
        dt = u_dot if euler else backward_difference(u_next, u_n, tau)
        k_u, k_dt, m_dt = sys.stiffness @ u_next, sys.stiffness @ dt, sys.mass @ dt
        metric_dt = k_dt if sys.metric == "h1" else m_dt
        # 2 udot = 3 dt_n - dt_{n-1} for a two-step step
        udot_star_sq = (_pair(u_dot, metric_dt) if euler
                        else 1.5 * _pair(u_dot, metric_dt) - 0.5 * _pair(u_dot, self.metric_dt))
        dt_l2_sq = _pair(dt, m_dt)
        # both are squared norms; below zero, the update tau * u_dot is lost
        # in the round-off of the states
        if udot_star_sq < 0.0 or dt_l2_sq < 0.0:
            name, value = (("metric norm of u_dot", udot_star_sq) if udot_star_sq < 0.0
                           else ("L2 norm of d_t u", dt_l2_sq))
            raise ValueError(f"step {n}: squared {name} is negative ({value:.3e}); the step size {tau:g} "
                             f"or the stopping threshold {self.eps_stop:g} is below what the flow can resolve")
        energy = sys.energy(u_next, k_u)
        sq = _nodal_dot(u_next, u_next)
        sq_free = sq[sys.free]
        delta_uni = constraint_violation(sq, sys.lumped_weights)
        # a non-finite state reads NaN in the audits, which would count as skipped
        if not (math.isfinite(energy) and math.isfinite(delta_uni)):
            name, value = ("energy", energy) if not math.isfinite(energy) else ("delta_uni", delta_uni)
            raise ValueError(f"step {n}: the {name} of the new state is not finite ({value})")
        if u_prev is None:
            self.b_sq = dt_l2_sq
            self.res_init = relative_residual(energy + tau * udot_star_sq + 0.5 * tau**2 * _pair(dt, k_dt),
                                              self.energy)
            # the energy law of a two-step run starts from g_a(u_1, u_0)
            self.g_first = self.g_prev = g_form(2.0 * energy, _pair(u_next, self.k_u), 2.0 * self.energy)
        else:
            d2 = second_difference(u_next, u_n, u_prev, tau)
            self.sum_d2_l2 += _pair(d2, m_dt - self.m_dt) / tau
        res_law = res_nodal = math.nan
        if euler:
            # Euler-type steps obey the telescoped sum of squared derivatives
            self.sum_dt_lumped += float(sys.lumped_weights.dot(_nodal_dot(dt, dt)))
            predicted = tau**2 * self.sum_dt_lumped
        else:
            # BDF2 energy of the pair g_a(u_next, u_n)
            g_new = g_form(2.0 * energy, _pair(u_next, self.k_u), 2.0 * self.energy)
            grad_d2_term = 0.25 * tau**4 * (_pair(d2, k_dt - self.k_dt) / tau)
            res_law = relative_residual(tau * udot_star_sq + g_new + grad_d2_term, self.g_prev)
            self.sum_udot_star += tau * udot_star_sq
            self.sum_grad_d2 += grad_d2_term
            self.g_prev = g_new
            d2_sq = _nodal_dot(d2, d2)
            res_nodal = nodal_recursion_residual(sq_free, self.sq_free, self.sq_free_prev, d2_sq[sys.free], tau)
            # Python's max over the per-step values, NaN handling included
            self.res_nodal = res_nodal if n == 2 else max(self.res_nodal, res_nodal)
            a_n = float(sys.lumped_weights.dot(d2_sq))
            self.s1_lumped += a_n
            self.c_lumped = a_n + self.c_lumped / 3.0
            # here sum_dt_lumped holds the initialization step's term alone
            predicted = 1.5 * gamma(n - 1) * tau**2 * self.sum_dt_lumped + 1.5 * tau**4 * (
                self.s1_lumped - self.c_lumped / 3.0
            )
        res_closed = relative_residual(delta_uni, predicted)
        self.res_closed_form = max(self.res_closed_form, res_closed)
        next_norms = np.sqrt(sq)
        self.mono_violation = max(self.mono_violation, float((self.node_norms - next_norms).max()))
        self.node_norms = next_norms
        self.k_u, self.energy, self.delta_uni = k_u, energy, delta_uni
        self.k_dt, self.m_dt, self.metric_dt = k_dt, m_dt, metric_dt
        self.sq_free_prev, self.sq_free = self.sq_free, sq_free
        norm_udot_star, norm_dtu_l2 = math.sqrt(udot_star_sq), math.sqrt(dt_l2_sq)
        if self.on_step is not None:
            self.on_step(StepRecord(n, n * tau, norm_udot_star, norm_dtu_l2, energy, delta_uni, res_law, res_nodal,
                                    res_closed))
        return norm_udot_star + norm_dtu_l2

    def report(self, converged, u_final):
        tau = self.tau
        res_energy_law = math.nan
        if self.method == "bdf2" and self.n > 1:
            res_energy_law = relative_residual(self.g_prev + self.sum_udot_star + self.sum_grad_d2, self.g_first)
        return RunReport(
            method=self.method,
            metric=self.sys.metric,
            tau=tau,
            n_stop=self.n,
            converged=converged,
            energy_final=self.energy,
            delta_uni=self.delta_uni,
            a_sq=tau**2 * self.sum_d2_l2,
            b_sq=self.b_sq,
            res_init=self.res_init,
            res_energy_law=res_energy_law,
            res_nodal_recursion=self.res_nodal,
            res_closed_form=self.res_closed_form,
            mono_violation=self.mono_violation,
            u_final=u_final,
        )


def audit_identities(report):
    """Pass/fail view of the identity residuals of a finished run.

    The summary maps each of ``AUDIT_KEYS`` to the report's value: the
    initialization identity, the telescoped energy law, the worst per-step
    nodal recursion and the worst per-step closed-form constraint audit,
    each held to ``AUDIT_TOL``, and the worst monotonicity violation, held
    to ``MONO_SLACK``.  NaN residuals count as skipped, not failed; pure
    Euler runs skip both two-step entries.  Returns (passed, summary).
    """
    summary = {key: getattr(report, key) for key in AUDIT_KEYS}
    # a NaN compares false, so a skipped identity never fails
    passed = not any(value > (MONO_SLACK if key == "mono_violation" else AUDIT_TOL) for key, value in summary.items())
    return passed, summary


def build_sweep_table(reports, reference_energy):
    """Pair sweep runs with experimental orders between consecutive rows.

    Row i's ``delta_ener`` is |E_i - ``reference_energy``| for its final energy E_i, its ``eoc_uni`` the order
    of ``delta_uni`` from row i - 1 to i, and its ``eoc_ener`` that of the gaps |E_{i-2} - E_{i-1}| and
    |E_{i-1} - E_i| (no reference); each is NaN unless its runs converged and each tau halves the last.
    """
    rows, gap = [], math.nan
    for prev, report in zip([None, *reports], reports):
        row = SweepRow(report, abs(report.energy_final - reference_energy))
        last_gap, gap = gap, math.nan
        if prev and abs(report.tau - 0.5 * prev.tau) <= 1e-12 * prev.tau and report.converged and prev.converged:
            row.eoc_uni = eoc(prev.delta_uni, report.delta_uni)
            gap = abs(prev.energy_final - report.energy_final)
            row.eoc_ener = eoc(last_gap, gap)
        rows.append(row)
    return rows
