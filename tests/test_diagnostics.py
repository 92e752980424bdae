"""Reported quantities, EOC computation and audit aggregation."""

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
)
from sphereflow.fem import lumped_mass_diagonal
from sphereflow.flow import FlowConfig, bdf2_step, euler_init_step, harmonic_map_system
from sphereflow.initial_data import InitSpec, make_initial
from sphereflow.mesh import build_square_mesh
from sphereflow.seqcalc import second_difference


def _report(**overrides):
    base = dict(
        method="bdf2",
        metric="h1",
        tau=0.25,
        n_stop=10,
        converged=True,
        energy_final=3.0,
        delta_uni=1e-3,
        delta_ener=1e-2,
        a_sq=0.1,
        b_sq=0.2,
        trace=[],
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
    assert eoc(0.0, 1.0) is None
    assert eoc(1.0, -2.0) is None


def test_eoc_scale_invariant():
    for scale in (1e-8, 1.0, 1e6):
        assert eoc(3.7 * scale, 1.1 * scale) == pytest.approx(eoc(3.7, 1.1), rel=1e-12)


def test_constraint_violation_values():
    mesh = build_square_mesh(4, side=1.0)
    weights = lumped_mass_diagonal(mesh)
    sq = np.ones(mesh.n_vertices)
    assert constraint_violation(sq, weights) == 0.0
    c = 0.3
    assert constraint_violation((1.0 + c) * sq, weights) == pytest.approx(c, rel=1e-12)


def test_relative_residual_scaling():
    assert relative_residual(1.0, 1.0) == 0.0
    assert relative_residual(0.0, 3.0) == pytest.approx(0.75)
    arr = relative_residual(np.array([1.0, 2.0]), np.array([1.0, 2.5]))
    assert arr == pytest.approx(0.5 / 5.5)


def test_nodal_recursion_negative_control():
    # a corrupted state must blow the recursion audit far past tolerance
    mesh = build_square_mesh(6, lower_left=(-0.5, -0.5), side=1.0)
    u0 = make_initial(mesh, InitSpec("perturbed", seed=3, perturb_amplitude=0.5))
    system = harmonic_map_system(mesh, metric="h1")
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
    taus = [0.25, 0.125, 0.0625]
    reports = [
        _report(tau=0.25, delta_uni=4.0, delta_ener=8.0),
        _report(tau=0.125, delta_uni=1.0, delta_ener=4.0),
        _report(tau=0.0625, delta_uni=0.25, delta_ener=2.0),
    ]
    rows = build_sweep_table(taus, reports)
    assert rows[0].eoc_uni is None
    assert rows[1].eoc_uni == pytest.approx(2.0)
    assert rows[1].eoc_ener == pytest.approx(1.0)
    assert rows[2].eoc_uni == pytest.approx(2.0)


def test_build_sweep_table_suppresses_nonconverged():
    taus = [0.25, 0.125, 0.0625]
    reports = [
        _report(tau=0.25, delta_uni=4.0),
        _report(tau=0.125, delta_uni=1.0, converged=False),
        _report(tau=0.0625, delta_uni=0.25),
    ]
    rows = build_sweep_table(taus, reports)
    assert rows[1].eoc_uni is None
    assert rows[2].eoc_uni is None


def test_build_sweep_table_requires_halving():
    rows = build_sweep_table([0.25, 0.1], [_report(tau=0.25), _report(tau=0.1)])
    assert rows[1].eoc_uni is None


def test_step_record_defaults():
    rec = StepRecord(n=1, time=0.25, norm_udot_star=1.0, norm_dtu_l2=1.0, energy=3.0, delta_uni=0.0)
    assert math.isnan(rec.res_energy_law)
    assert math.isnan(rec.res_nodal_recursion)
