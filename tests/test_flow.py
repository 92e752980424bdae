"""Driver behavior: initialization identities, stepping, stopping, audits."""

import dataclasses
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_saddle_solve
from sphereflow import flow, kkt
from sphereflow.flow import (
    METHODS,
    EnergySystem,
    FlowConfig,
    bdf2_step,
    euler_init_step,
    harmonic_map_system,
    run_flow,
    run_sweep,
)
from sphereflow.diagnostics import audit_identities
from sphereflow.fem import assemble_mass, assemble_stiffness, lumped_mass_diagonal
from sphereflow.initial_data import InitSpec, make_initial
from sphereflow.kkt import KktError, TangentPlaneAnalysis
from sphereflow.mesh import build_square_mesh, free_nodes


def unit_square_setup(n, metric="h1", init="exact", seed=1, amplitude=0.5):
    mesh = build_square_mesh(n, lower_left=(-0.5, -0.5), side=1.0)
    u0 = make_initial(mesh, InitSpec(init, seed=seed, perturb_amplitude=amplitude))
    return mesh, u0, harmonic_map_system(mesh, metric=metric)


def constant_state_setup():
    """A feasible stationary state: constant field, no essential boundary."""
    mesh = build_square_mesh(3, dirichlet="none")
    u0 = np.tile([0.0, 0.0, 1.0], (mesh.n_vertices, 1))
    system = EnergySystem(mesh, assemble_stiffness(mesh), assemble_mass(mesh), metric="l2")
    return mesh, u0, system


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(method="rk4")
    mesh = build_square_mesh(3)
    with pytest.raises(ValueError):
        EnergySystem(mesh, assemble_stiffness(mesh), assemble_mass(mesh), metric="linf")
    with pytest.raises(ValueError):
        FlowConfig(tau=0.0)
    with pytest.raises(ValueError):
        FlowConfig(eps_stop=-1.0)
    # NaN fails every check; an infinite step or threshold is no flow either
    for bad in (dict(tau=math.nan), dict(tau=math.inf), dict(eps_stop=math.nan), dict(eps_stop=math.inf),
                dict(t_max=math.nan)):
        with pytest.raises(ValueError):
            FlowConfig(**bad)
    assert FlowConfig(t_max=math.inf).t_max == math.inf
    # the step cap must allow at least one step; NaN fails the check too
    for cap in (0, -3, math.nan):
        with pytest.raises(ValueError, match="step cap"):
            FlowConfig(max_steps=cap)
    assert FlowConfig(max_steps=1).max_steps == 1


def test_h1_metric_requires_dirichlet_nodes():
    mesh = build_square_mesh(3, dirichlet="none")
    with pytest.raises(ValueError):
        EnergySystem(mesh, assemble_stiffness(mesh), assemble_mass(mesh), metric="h1")


def test_init_step_stationary_state():
    _, u0, system = constant_state_setup()
    u1, dt_u1 = euler_init_step(u0, system, FlowConfig(method="euler", tau=0.5))
    assert np.abs(dt_u1).max() == 0.0
    assert np.array_equal(u1, u0)


def test_init_step_orthogonality_and_energy_identity():
    mesh, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    cfg = FlowConfig(method="bdf2", tau=0.25)
    u1, dt_u1 = euler_init_step(u0, system, cfg)
    f = free_nodes(mesh)
    assert np.abs(np.sum(dt_u1[f] * u0[f], axis=1)).max() <= 1e-10
    lhs = (
        system.energy(u1)
        + cfg.tau * np.sum(dt_u1 * (system.stiffness @ dt_u1))
        + 0.5 * cfg.tau**2 * np.sum(dt_u1 * (system.stiffness @ dt_u1))
    )
    rhs = system.energy(u0)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)
    # energy never increases across the initialization
    assert system.energy(u1) <= rhs * (1.0 + 1e-12)


def test_init_step_nodal_identity_single_free_node():
    mesh, u0, system = unit_square_setup(2)
    cfg = FlowConfig(method="bdf2", tau=0.25)
    u1, dt_u1 = euler_init_step(u0, system, cfg)
    z = free_nodes(mesh)[0]
    lhs = np.sum(u1[z] ** 2) - 1.0
    rhs = cfg.tau**2 * np.sum(dt_u1[z] ** 2)
    assert abs(lhs - rhs) <= 1e-12


def test_init_bound_with_g_constant():
    # |grad pair|_G^2 <= (5/2) |grad u0|^2 follows from the energy identity
    from sphereflow.seqcalc import g_form

    _, u0, system = unit_square_setup(8, init="perturbed", amplitude=1.0)
    cfg = FlowConfig(method="bdf2", tau=0.5)
    u1, _ = euler_init_step(u0, system, cfg)
    k_u1, k_u0 = system.stiffness @ u1, system.stiffness @ u0
    g_sq = g_form(np.sum(u1 * k_u1), np.sum(u1 * k_u0), np.sum(u0 * k_u0))
    assert g_sq <= 2.5 * 2.0 * system.energy(u0) * (1.0 + 1e-12)


def test_bdf2_fixed_point_ten_steps():
    _, u0, system = constant_state_setup()
    cfg = FlowConfig(method="bdf2", tau=0.25)
    u_n = u_prev = u0
    for _ in range(10):
        u_next, u_dot = bdf2_step(u_n, u_prev, system, cfg)
        assert np.abs(u_next - u0).max() <= 1e-12
        u_n, u_prev = u_next, u_n


def test_bdf2_step_orthogonality_and_nodal_recursion():
    mesh, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    cfg = FlowConfig(method="bdf2", tau=0.125)
    u1, dt_u1 = euler_init_step(u0, system, cfg)
    u2, u_dot = bdf2_step(u1, u0, system, cfg)
    f = free_nodes(mesh)
    u_hat = 2.0 * u1 - u0
    assert np.abs(np.sum(u_dot[f] * u_hat[f], axis=1)).max() <= 1e-10
    lhs = 1.5 * np.sum(u2[f] ** 2, axis=1) - 2.0 * np.sum(u1[f] ** 2, axis=1) + 0.5 * np.sum(
        u0[f] ** 2, axis=1
    )
    d2 = (u2 - 2.0 * u1 + u0) / cfg.tau**2
    rhs = 1.5 * cfg.tau**4 * np.sum(d2[f] ** 2, axis=1)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_run_flow_stationary_stops_immediately():
    _, u0, system = constant_state_setup()
    euler = run_flow(u0, system, FlowConfig(method="euler", tau=0.5))
    assert euler.converged and euler.n_stop == 1
    assert euler.trace[-1].norm_dtu_l2 <= 1e-13
    bdf2 = run_flow(u0, system, FlowConfig(method="bdf2", tau=0.5))
    assert bdf2.converged and bdf2.n_stop == 2
    assert bdf2.trace[-1].norm_udot_star <= 1e-13


def test_run_flow_rejects_infeasible_start():
    _, u0, system = unit_square_setup(4)
    bad = u0.copy()
    bad[5] *= 1.5
    with pytest.raises(ValueError):
        run_flow(bad, system, FlowConfig(tau=0.25))
    bad[5] = np.nan
    with pytest.raises(ValueError):
        run_flow(bad, system, FlowConfig(tau=0.25))


def test_run_flow_audit_residuals_both_metrics():
    mesh, u0, _ = unit_square_setup(8, init="perturbed", amplitude=0.5)
    for system in [harmonic_map_system(mesh, metric=metric) for metric in ("h1", "l2")]:
        cfg = FlowConfig(method="bdf2", tau=0.125, t_max=50.0)
        report = run_flow(u0, system, cfg)
        assert audit_identities(report)[0]
        assert report.res_init <= 1e-10
        assert report.res_energy_law <= 1e-8
        assert max(rec.res_energy_law for rec in report.trace[1:]) <= 1e-8
        assert report.res_nodal_recursion <= 1e-8
        assert report.res_closed_form <= 1e-8
        assert report.mono_violation <= 1e-9
        assert report.n_stop == report.trace[-1].n
        assert report.a_sq > 0.0 and report.b_sq > 0.0


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 8),
    metric=st.sampled_from(["h1", "l2"]),
    method=st.sampled_from(["euler", "bdf2"]),
    m=st.integers(1, 6),
    init=st.sampled_from(["perturbed", "random"]),
    seed=st.integers(0, 2**16),
    max_steps=st.integers(2, 15),
)
def test_run_flow_audits_hold_for_accepted_configurations(n, metric, method, m, init, seed, max_steps):
    # every accepted configuration passes its audits to round-off; only the
    # two-step identities of an Euler run read skipped
    _, u0, system = unit_square_setup(n, metric=metric, init=init, seed=seed)
    report = run_flow(u0, system, FlowConfig(method=method, tau=2.0**-m, max_steps=max_steps))
    passed, summary = audit_identities(report, tol=1e-10)
    assert passed, summary
    skipped = {key for key, value in summary.items() if math.isnan(value)}
    assert skipped == ({"res_energy_law", "res_nodal_recursion"} if method == "euler" else set())


def test_run_flow_euler_audits_and_skips():
    _, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    report = run_flow(u0, system, FlowConfig(method="euler", tau=0.125))
    assert math.isnan(report.res_energy_law)
    assert math.isnan(report.res_nodal_recursion)
    assert report.res_init <= 1e-10
    assert report.res_closed_form <= 1e-8
    assert report.mono_violation <= 1e-9


def test_run_flow_non_convergence_flags():
    _, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    capped = run_flow(u0, system, FlowConfig(tau=0.125, t_max=0.5))
    assert not capped.converged
    assert capped.n_stop == 4
    overflow = run_flow(u0, system, FlowConfig(tau=0.125, max_steps=3))
    assert not overflow.converged
    assert overflow.n_stop == 3
    # a final time inside the first step stops after that step
    _, u0, system = unit_square_setup(4, init="perturbed", amplitude=0.5)
    for method in ("bdf2", "euler"):
        short = run_flow(u0, system, FlowConfig(method=method, tau=0.5, t_max=0.25))
        assert not short.converged
        assert short.n_stop == 1
        assert math.isnan(short.res_energy_law) and math.isnan(short.res_nodal_recursion)
        assert audit_identities(short)[0]


def test_run_flow_reference_energy_wiring():
    _, u0, system = unit_square_setup(4)
    report = run_flow(u0, system, FlowConfig(tau=0.25), reference_energy=3.009)
    assert report.delta_ener == pytest.approx(abs(report.energy_final - 3.009), rel=1e-12)
    bare = run_flow(u0, system, FlowConfig(tau=0.25))
    assert math.isnan(bare.delta_ener)


def test_constraint_violation_linear_in_tau_unconditionally():
    # delta_uni <= C tau with C stable under halving
    _, u0, system = unit_square_setup(16, init="perturbed", amplitude=0.5)
    ratios = []
    for tau in (0.25, 0.125, 0.0625):
        report = run_flow(u0, system, FlowConfig(method="bdf2", tau=tau))
        ratios.append(report.delta_uni / tau)
    assert max(ratios) <= 2.0 * ratios[0] + 1e-12


def test_rate_window_bdf2_vs_euler():
    # halving tau on the 16x16 benchmark lands in the second/first order windows
    _, u0, system = unit_square_setup(16, init="perturbed", amplitude=0.5)
    deltas = {}
    for method in ("bdf2", "euler"):
        deltas[method] = [
            run_flow(u0, system, FlowConfig(method=method, tau=tau)).delta_uni
            for tau in (0.125, 0.0625)
        ]
    eoc_bdf2 = math.log2(deltas["bdf2"][0] / deltas["bdf2"][1])
    eoc_euler = math.log2(deltas["euler"][0] / deltas["euler"][1])
    assert 1.6 <= eoc_bdf2 <= 2.2
    assert 0.85 <= eoc_euler <= 1.15


def test_corrupted_step_trips_nodal_recursion_audit(monkeypatch):
    mesh, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    cfg = FlowConfig(method="bdf2", tau=0.125)
    assert audit_identities(run_flow(u0, system, cfg))[0]
    calls = []

    def corrupted_step(u_n, u_prev, sys, cfg):
        u_next, u_dot = bdf2_step(u_n, u_prev, sys, cfg)
        calls.append(None)
        if len(calls) == 4:
            u_next = u_next.copy()
            u_next[sys.free[len(sys.free) // 2], 0] += 1e-6
        return u_next, u_dot

    monkeypatch.setattr("sphereflow.flow.bdf2_step", corrupted_step)
    report = run_flow(u0, system, cfg)
    assert len(calls) > 4
    assert report.res_nodal_recursion > 1e-8
    assert not audit_identities(report)[0]


def test_run_flow_analyses_each_scale_once(monkeypatch):
    built = []

    class CountingAnalysis(TangentPlaneAnalysis):
        def __init__(self, b):
            built.append(b.shape)
            super().__init__(b)

    monkeypatch.setattr("sphereflow.flow.TangentPlaneAnalysis", CountingAnalysis)
    for method, scales in (("bdf2", 2), ("euler", 1)):
        built.clear()
        mesh, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
        report = run_flow(u0, system, FlowConfig(method=method, tau=0.125))
        assert report.n_stop > 10
        assert len(built) == scales


class CountingMatrix:
    """A sparse matrix whose products with a field are counted."""

    def __init__(self, matrix, counter):
        self.matrix = matrix
        self.counter = counter

    def __matmul__(self, other):
        self.counter.append(None)
        return self.matrix @ other


@pytest.mark.parametrize("method", ["bdf2", "euler"])
def test_run_flow_forms_few_products_per_step(method):
    # the audit forms K u_next, K dt and M dt once per step and the step
    # forms its right-hand side: one product of the initial state, then at
    # most 4 per step
    _, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    products = []
    counting = {id(m): CountingMatrix(m, products) for m in (system.stiffness, system.mass)}
    # every attribute that holds either matrix, the metric included
    for name, value in list(vars(system).items()):
        if id(value) in counting:
            setattr(system, name, counting[id(value)])
    report = run_flow(u0, system, FlowConfig(method=method, tau=0.125))
    assert report.n_stop > 10
    assert audit_identities(report)[0]
    assert len(products) <= 4 * report.n_stop + 1


def test_tangent_and_saddle_constraint_paths_agree(monkeypatch):
    # the flow's tangent-plane solves against dense solves of the saddle-point
    # system [[kron(B, I3), G^T], [G, 0]] with one constraint row per free node
    _, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    cfg = FlowConfig(method="bdf2", tau=0.125)
    first = run_flow(u0, system, cfg)

    def dense_increment(sys, scale, u_hat, rhs):
        f = sys.free
        block = (sys.stiffness + scale * sys.stiffness)[f][:, f]
        return dense_saddle_solve(block, u_hat[f], rhs)[0]

    monkeypatch.setattr(EnergySystem, "solve_increment", dense_increment)
    second = run_flow(u0, system, cfg)
    assert first.n_stop == second.n_stop
    for a, b in zip(first.trace, second.trace):
        for key in ("norm_udot_star", "norm_dtu_l2", "energy", "delta_uni"):
            assert getattr(a, key) == pytest.approx(getattr(b, key), rel=1e-12, abs=0.0)


def test_u_final_matches_reported_constraint_violation():
    from sphereflow.diagnostics import constraint_violation

    mesh, u0, system = unit_square_setup(6, init="perturbed", amplitude=0.5)
    report = run_flow(u0, system, FlowConfig(method="bdf2", tau=0.25))
    sq = np.sum(report.u_final * report.u_final, axis=1)
    assert constraint_violation(sq, lumped_mass_diagonal(mesh)) == pytest.approx(report.delta_uni, rel=1e-12)


def test_h1_stopping_time_roughly_tau_independent():
    _, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    times = [
        run_flow(u0, system, FlowConfig(method="bdf2", tau=tau)).n_stop * tau
        for tau in (0.25, 0.125, 0.0625)
    ]
    assert max(times) <= 1.5 * min(times)


SWEEP_TAUS = (0.25, 0.125, 0.0625)


def sweep_system(metric):
    _, u0, system = unit_square_setup(6, metric=metric, init="perturbed", amplitude=0.5)
    return u0, system


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("metric", ["h1", "l2"])
def test_run_sweep_reports_equal_run_flow_bitwise(metric, method):
    u0, system = sweep_system(metric)
    configs = [FlowConfig(method=method, tau=tau, max_steps=60) for tau in SWEEP_TAUS]
    swept = run_sweep(u0, system, configs, reference_energy=3.0)
    assert multiprocessing.active_children() == []
    assert len(swept) == len(configs)
    for cfg, report in zip(configs, swept):
        expected = run_flow(u0, system, cfg, reference_energy=3.0)
        # repr gives every float exactly, NaN audits included
        assert repr(dataclasses.replace(report, u_final=None)) == repr(dataclasses.replace(expected, u_final=None))
        assert np.array_equal(report.u_final, expected.u_final)


def test_run_sweep_raises_a_workers_error(monkeypatch):
    def failing_step(*args):
        raise KktError("injected failure in a two-step step")

    monkeypatch.setattr(flow, "bdf2_step", failing_step)
    u0, system = sweep_system("h1")
    configs = [FlowConfig(method="bdf2", tau=tau) for tau in SWEEP_TAUS]
    with pytest.raises(KktError, match="injected failure in a two-step step"):
        run_sweep(u0, system, configs)
    assert multiprocessing.active_children() == []


def test_run_sweep_workers_run_one_blas_thread(monkeypatch):
    api = kkt._openblas_threads()
    if api is None:
        pytest.skip("this scipy build bundles no OpenBLAS with scipy's thread-count symbols")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: the sweep runs in this process")
    get, _ = api
    monkeypatch.setattr(flow, "run_flow", lambda *args: (os.getpid(), get()))
    u0, system = sweep_system("h1")
    with kkt.blas_threads(2):
        seen = run_sweep(u0, system, [FlowConfig(tau=tau) for tau in SWEEP_TAUS])
    assert all(pid != os.getpid() and threads == 1 for pid, threads in seen)
