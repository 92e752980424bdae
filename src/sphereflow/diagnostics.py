"""Reported quantities and identity audits for flow runs.

Residuals are always scaled by (1 + magnitude of the audited quantity) so
that near-zero identities do not blow up the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

AUDIT_KEYS = ("res_init", "res_energy_law", "res_nodal_recursion", "res_closed_form", "mono_violation")

# nodal lengths may shrink by round-off only
MONO_SLACK = 1e-9


@dataclass
class StepRecord:
    """One row of the per-step trace; NaN marks a not-applicable audit."""

    n: int
    time: float
    norm_udot_star: float
    norm_dtu_l2: float
    energy: float
    delta_uni: float
    res_energy_law: float = math.nan
    res_nodal_recursion: float = math.nan


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
    trace: list[StepRecord] = field(default_factory=list)
    res_init: float = math.nan
    res_energy_law: float = math.nan
    res_nodal_recursion: float = math.nan
    res_closed_form: float = math.nan
    mono_violation: float = math.nan
    u_final: np.ndarray | None = None


@dataclass
class SweepRow:
    tau: float
    report: RunReport
    delta_ener: float
    eoc_uni: float | None = None
    eoc_ener: float | None = None


def relative_residual(lhs, rhs):
    """|lhs - rhs| / (1 + |lhs| + |rhs|) of two floats, or elementwise of two arrays."""
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def constraint_violation(sq, weights):
    """Lumped L1 norm sum_z m_z | |u(z)|^2 - 1 | from nodal squared lengths ``sq`` and lumped weights ``weights``."""
    return float(weights.dot(np.abs(sq - 1.0)))


def eoc(coarse, fine):
    """Convergence order log2(coarse/fine) under step halving.

    Returns None when either value is nonpositive (the order is undefined).
    """
    if coarse <= 0 or fine <= 0:
        return None
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


def audit_identities(report, tol=1e-8):
    """Pass/fail view of the identity residuals of a finished run.

    The summary maps each of ``AUDIT_KEYS`` to the report's value: the
    initialization identity, the telescoped energy law, the worst per-step
    nodal recursion, the worst per-step closed-form constraint audit, and the
    worst monotonicity violation, which must stay below ``MONO_SLACK``.  NaN
    residuals count as skipped, not failed; pure Euler runs skip both
    two-step entries.  Returns (passed, summary).
    """
    summary = {key: getattr(report, key) for key in AUDIT_KEYS}
    # a NaN compares false, so a skipped identity never fails
    passed = not any(value > (MONO_SLACK if key == "mono_violation" else tol) for key, value in summary.items())
    return passed, summary


def build_sweep_table(taus, reports, reference_energy):
    """Pair sweep runs with experimental orders between consecutive rows.

    A row's ``delta_ener`` is |final energy - ``reference_energy``|.  Orders
    are defined only across a halving step and are suppressed when either
    participating run failed to converge.
    """
    rows = []
    for i, (tau, report) in enumerate(zip(taus, reports)):
        delta_ener = abs(report.energy_final - reference_energy)
        eoc_uni = eoc_ener = None
        if i > 0:
            prev = rows[i - 1]
            halved = abs(tau - 0.5 * prev.tau) <= 1e-12 * prev.tau
            if halved and report.converged and prev.report.converged:
                eoc_uni = eoc(prev.report.delta_uni, report.delta_uni)
                eoc_ener = eoc(prev.delta_ener, delta_ener)
        rows.append(SweepRow(tau, report, delta_ener, eoc_uni, eoc_ener))
    return rows
