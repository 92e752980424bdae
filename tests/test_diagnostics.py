"""Reported quantities, EOC computation and audit aggregation."""

import dataclasses
import math

import numpy as np
import pytest

from sphereflow.diagnostics import (
    RunReport,
    StepRecord,
    audit_identities,
    build_sweep_table,
    constraint_violation,
    eoc,
    nodal_recursion_residual,
    relative_residual,
    second_difference,
)
from sphereflow.fem import assemble_p1
from sphereflow.flow import EnergySystem, FlowConfig, bdf2_step, euler_init_step
from sphereflow.initial_data import InitSpec, make_initial
from sphereflow.mesh import build_square_mesh


def _report(**overrides):
    base = dict(
        method="bdf2",
        metric="h1",
        tau=0.25,
        n_stop=10,
        converged=True,
        energy_final=3.0,
        delta_uni=1e-3,
        a_sq=0.1,
        b_sq=0.2,
        res_init=1e-12,
        res_energy_law=1e-12,
        res_nodal_recursion=1e-12,
        res_closed_form=1e-12,
        mono_violation=0.0,
    )
    base.update(overrides)
    return RunReport(**base)


def test_eoc_values():
    assert eoc(4.0, 1.0) == pytest.approx(2.0)
    assert eoc(2.0, 1.0) == pytest.approx(1.0)
    assert eoc(1.288e-1, 1.130e-1) == pytest.approx(0.19, abs=5e-3)
    assert math.isnan(eoc(0.0, 1.0))
    assert math.isnan(eoc(math.nan, 1.0)) and math.isnan(eoc(1.0, math.nan))
    assert math.isnan(eoc(1.0, -2.0))


def test_eoc_scale_invariant():
    for scale in (1e-8, 1.0, 1e6):
        assert eoc(3.7 * scale, 1.1 * scale) == pytest.approx(eoc(3.7, 1.1), rel=1e-12)


def test_constraint_violation_values():
    mesh = build_square_mesh(4)
    weights = assemble_p1(mesh)[2]
    sq = np.ones(mesh.n_vertices)
    assert constraint_violation(sq, weights) == 0.0
    c = 0.3
    assert constraint_violation((1.0 + c) * sq, weights) == pytest.approx(c, rel=1e-12)


def test_relative_residual_scaling():
    assert relative_residual(1.0, 1.0) == 0.0
    assert relative_residual(0.0, 3.0) == pytest.approx(0.75)
    # the nodal recursion takes the worst node of the same scaled residual:
    # here lhs = (1/2) sq_prev2 = (1, 2) against rhs = (3/2) d2_sq = (1, 2.5)
    zero = np.zeros(2)
    worst = nodal_recursion_residual(zero, zero, np.array([2.0, 4.0]), np.array([2.0, 5.0]) / 3.0, 1.0)
    assert worst == pytest.approx(0.5 / 5.5)
    # over no node it is skipped, not passed
    assert math.isnan(nodal_recursion_residual(*[np.zeros(0)] * 4, 1.0))


def test_nodal_recursion_negative_control():
    # a corrupted state must blow the recursion audit far past tolerance
    mesh = build_square_mesh(6)
    u0 = make_initial(mesh, InitSpec("perturbed", seed=3, perturb_amplitude=0.5))
    system = EnergySystem(mesh, metric="h1")
    cfg = FlowConfig(method="bdf2", tau=0.125)
    u1, dt_u1 = euler_init_step(u0, system, cfg)
    u2, _ = bdf2_step(u1, u0, system, cfg)

    def residual(u_n, u_prev, u_prev2):
        sq = [np.sum(u * u, axis=1) for u in (u_n, u_prev, u_prev2)]
        d2 = second_difference(u_n, u_prev, u_prev2, cfg.tau)
        return nodal_recursion_residual(*sq, np.sum(d2 * d2, axis=1), cfg.tau)

    clean = residual(u2, u1, u0)
    assert clean <= 1e-10
    corrupted = u1.copy()
    corrupted[mesh.n_vertices // 2] += 0.05
    assert residual(u2, corrupted, u0) > 1e-3


def test_audit_identities_pass_and_fail():
    ok, summary = audit_identities(_report())
    assert ok and summary["res_init"] == 1e-12
    bad, _ = audit_identities(_report(res_energy_law=1e-5))
    assert not bad
    mono_bad, _ = audit_identities(_report(mono_violation=1e-6))
    assert not mono_bad


def test_audit_identities_skips_nan():
    report = _report(res_energy_law=math.nan, res_nodal_recursion=math.nan)
    ok, summary = audit_identities(report)
    assert ok
    assert math.isnan(summary["res_energy_law"])


def test_audit_identities_summary_keys():
    _, summary = audit_identities(_report())
    assert set(summary) == {
        "res_init",
        "res_energy_law",
        "res_nodal_recursion",
        "res_closed_form",
        "mono_violation",
    }


def test_build_sweep_table_eocs():
    reports = [
        _report(tau=0.25, delta_uni=4.0, energy_final=11.0),
        _report(tau=0.125, delta_uni=1.0, energy_final=7.0),
        _report(tau=0.0625, delta_uni=0.25, energy_final=6.0),
    ]
    rows = build_sweep_table(reports, 3.0)
    assert [row.delta_ener for row in rows] == [8.0, 4.0, 3.0]
    assert math.isnan(rows[0].eoc_uni)
    assert rows[1].eoc_uni == pytest.approx(2.0)
    assert rows[2].eoc_uni == pytest.approx(2.0)
    # the energy order compares the gaps |E_0 - E_1| = 4 and |E_1 - E_2| = 1,
    # not the errors 4 and 3 against the reference, so it starts at row 2
    assert math.isnan(rows[0].eoc_ener) and math.isnan(rows[1].eoc_ener)
    assert rows[2].eoc_ener == pytest.approx(2.0)
    assert [row.eoc_ener for row in build_sweep_table(reports, -50.0)][2] == rows[2].eoc_ener


def test_build_sweep_table_suppresses_nonconverged():
    reports = [
        _report(tau=0.25, delta_uni=4.0),
        _report(tau=0.125, delta_uni=1.0, converged=False),
        _report(tau=0.0625, delta_uni=0.25),
    ]
    rows = build_sweep_table(reports, 3.009)
    assert math.isnan(rows[1].eoc_uni) and math.isnan(rows[1].eoc_ener)
    assert math.isnan(rows[2].eoc_uni) and math.isnan(rows[2].eoc_ener)


def test_build_sweep_table_requires_halving():
    rows = build_sweep_table([_report(tau=0.25), _report(tau=0.1)], 3.009)
    assert math.isnan(rows[1].eoc_uni) and math.isnan(rows[1].eoc_ener)


@pytest.mark.parametrize("broken", [dict(tau=0.1), dict(converged=False)], ids=["non-halving", "non-converged"])
def test_build_sweep_table_orders_skip_a_broken_row(broken):
    # row 1 breaks the halvings 0 -> 1 and 1 -> 2: eoc_uni, which spans one
    # halving, is back at row 3, and eoc_ener, which spans two, at row 4
    reports = [_report(tau=0.25 * 2.0**-k, delta_uni=4.0**-k, energy_final=1.0 + 2.0**-k) for k in range(5)]
    reports[1] = dataclasses.replace(reports[1], **broken)
    rows = build_sweep_table(reports, 1.0)
    assert [math.isnan(row.eoc_uni) for row in rows] == [True, True, True, False, False]
    assert [math.isnan(row.eoc_ener) for row in rows] == [True, True, True, True, False]
    assert rows[4].eoc_uni == pytest.approx(2.0) and rows[4].eoc_ener == pytest.approx(1.0)


def test_step_record_defaults():
    rec = StepRecord(n=1, time=0.25, norm_udot_star=1.0, norm_dtu_l2=1.0, energy=3.0, delta_uni=0.0)
    assert math.isnan(rec.res_energy_law)
    assert math.isnan(rec.res_nodal_recursion)
