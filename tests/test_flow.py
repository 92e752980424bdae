"""Driver behavior: initialization identities, stepping, stopping, audits."""

import dataclasses
import itertools
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import audit_steps, delaunay_mesh, dense_saddle_solve, to_scipy
from sphereflow import flow, kkt
from sphereflow.flow import (
    METHODS,
    EnergySystem,
    FlowConfig,
    bdf2_step,
    euler_init_step,
    run_flow,
    run_sweep,
)
from sphereflow.diagnostics import MONO_SLACK, RunReport, StepRecord, audit_identities, build_sweep_table, eoc
from sphereflow.fem import assemble_p1
from sphereflow.initial_data import InitSpec, make_initial
from sphereflow.kkt import KktError, TangentPlaneAnalysis
from sphereflow.mesh import TriMesh, build_square_mesh, free_nodes


def unit_square_setup(n, metric="h1", init="exact", seed=1, amplitude=0.5):
    mesh = build_square_mesh(n)
    u0 = make_initial(mesh, InitSpec(init, seed=seed, perturb_amplitude=amplitude))
    return mesh, u0, EnergySystem(mesh, metric=metric)


def traced_run(u0, system, cfg):
    """:func:`run_flow` and the step records its ``on_step`` receives, as (report, records)."""
    records = []
    return run_flow(u0, system, cfg, on_step=records.append), records


def constant_state_setup():
    """A feasible stationary state: a constant field, boundary values included."""
    mesh = build_square_mesh(3)
    u0 = np.tile([0.0, 0.0, 1.0], (mesh.n_vertices, 1))
    system = EnergySystem(mesh, metric="l2")
    return mesh, u0, system


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(method="rk4")
    mesh = build_square_mesh(3)
    with pytest.raises(ValueError):
        EnergySystem(mesh, metric="linf")
    with pytest.raises(ValueError):
        FlowConfig(tau=0.0)
    # tau**4 underflows to 0 below about 1e-81; 1e-80 still has a fourth power
    for tiny in (1e-200, 1e-82, 5e-324):
        with pytest.raises(ValueError, match="fourth power underflows"):
            FlowConfig(tau=tiny)
    assert FlowConfig(tau=1e-80).tau == 1e-80
    with pytest.raises(ValueError):
        FlowConfig(eps_stop=-1.0)
    # NaN fails every check; an infinite step or threshold is no flow either
    for bad in (dict(tau=math.nan), dict(tau=math.inf), dict(eps_stop=math.nan), dict(eps_stop=math.inf),
                dict(t_max=math.nan)):
        with pytest.raises(ValueError):
            FlowConfig(**bad)
    assert FlowConfig(t_max=math.inf).t_max == math.inf


@pytest.mark.parametrize(
    "tau, t_max, match",
    [
        # the update falls below the round-off of the states
        (1e-14, 1e6, "step 2: squared metric norm of u_dot is negative"),
    ],
)
def test_extreme_step_size_stops_with_value_error(tau, t_max, match):
    _, u0, system = unit_square_setup(4)
    with pytest.raises(ValueError, match=match):
        run_flow(u0, system, FlowConfig(tau=tau, t_max=t_max))


def test_non_finite_state_stops_with_value_error(monkeypatch):
    # one NaN at a free node of the last state makes its energy and delta_uni
    # NaN, which every audit would read as skipped
    mesh, u0, system = unit_square_setup(8, init="perturbed")
    node = free_nodes(mesh)[0]
    step, calls = flow.bdf2_step, []

    def corrupted_step(u_n, u_prev, sys, cfg):
        u_next, u_dot = step(u_n, u_prev, sys, cfg)
        calls.append(None)
        if len(calls) == 9:  # step 10, after the initialization and 8 two-step steps
            u_next[node] = math.nan
        return u_next, u_dot

    monkeypatch.setattr(flow, "bdf2_step", corrupted_step)
    with pytest.raises(ValueError, match=r"^step 10: the energy of the new state is not finite \(nan\)$"):
        run_flow(u0, system, FlowConfig(method="bdf2", tau=0.125, t_max=10 * 0.125))


# the edges of the accepted step sizes: 1.5 * tau**4, the largest power the
# audits form, is positive from the smallest on and finite up to the largest
SMALLEST_TAU = 1.2536856801856792e-81
LARGEST_TAU = 1.0462996383700886e77


def test_step_size_range_edges():
    for edge, beyond in ((SMALLEST_TAU, 0.0), (LARGEST_TAU, math.inf)):
        assert FlowConfig(tau=edge).tau == edge
        with pytest.raises(ValueError, match="underflows" if beyond == 0.0 else "overflows"):
            FlowConfig(tau=math.nextafter(edge, beyond))


@pytest.mark.parametrize("tau", [1e160, 1e80, 1e308])
def test_step_size_whose_audit_powers_overflow_is_rejected(tau):
    # tau**2 overflows at 1e160, tau**4 at 1e80
    with pytest.raises(ValueError, match="too large: 1.5 tau\\*\\*4 overflows"):
        FlowConfig(tau=tau)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("metric", ["h1", "l2"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_largest_step_size_audits_to_finite_residuals(n, metric, method):
    _, u0, system = unit_square_setup(n, metric=metric, init="perturbed")
    cfg = FlowConfig(method=method, tau=LARGEST_TAU, eps_stop=5e-324, t_max=4 * LARGEST_TAU)
    report = run_flow(u0, system, cfg)
    # a two-step run is judged from step 2 on
    assert report.n_stop >= (2 if method == "bdf2" else 1)
    passed, summary = audit_identities(report)
    assert passed
    # an Euler run skips the two-step audits; at n = 1 no node is free
    skipped = ({"res_energy_law", "res_nodal_recursion"} if method == "euler"
               else {"res_nodal_recursion"} if n == 1 else set())
    for key, value in summary.items():
        assert math.isnan(value) if key in skipped else math.isfinite(value), key


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
    from sphereflow.diagnostics import g_form

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
    euler, records = traced_run(u0, system, FlowConfig(method="euler", tau=0.5))
    assert euler.converged and euler.n_stop == 1
    assert records[-1].norm_dtu_l2 <= 1e-13
    bdf2, records = traced_run(u0, system, FlowConfig(method="bdf2", tau=0.5))
    assert bdf2.converged and bdf2.n_stop == 2
    assert records[-1].norm_udot_star <= 1e-13


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
    for system in [EnergySystem(mesh, metric=metric) for metric in ("h1", "l2")]:
        cfg = FlowConfig(method="bdf2", tau=0.125, t_max=50.0)
        report, records = traced_run(u0, system, cfg)
        assert audit_identities(report)[0]
        assert report.res_init <= 1e-10
        assert report.res_energy_law <= 1e-8
        assert max(rec.res_energy_law for rec in records[1:]) <= 1e-8
        assert report.res_nodal_recursion <= 1e-8
        assert report.res_closed_form <= 1e-8
        assert report.mono_violation <= 1e-9
        assert report.n_stop == records[-1].n
        assert report.a_sq > 0.0 and report.b_sq > 0.0


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 8),
    metric=st.sampled_from(["h1", "l2"]),
    method=st.sampled_from(["euler", "bdf2"]),
    m=st.integers(1, 6),
    init=st.sampled_from(["perturbed", "random"]),
    seed=st.integers(0, 2**16),
    steps=st.integers(2, 15),
    jitter=st.floats(0.0, 0.3),
    domain=st.sampled_from(["lattice", "square", "disk"]),
)
def test_run_flow_audits_hold_for_accepted_configurations(n, metric, method, m, init, seed, steps, jitter, domain):
    # every accepted configuration passes its audits to round-off, on the
    # lattice, off it and on Delaunay meshes of the square and the disk; only
    # the two-step identities of an Euler run, and the nodal recursion of a
    # mesh without free nodes (the lattice at n = 1), read skipped
    if domain == "lattice":
        lattice = build_square_mesh(n)
        free = free_nodes(lattice)
        # each interior vertex moves by at most jitter * h / sqrt(2) in each
        # coordinate, so by at most 0.3 h in all: less than half the shortest
        # altitude h / sqrt(2) of a cell, which keeps every cell's orientation
        vertices = lattice.vertices.copy()
        vertices[free] += jitter / n / math.sqrt(2.0) * np.random.default_rng(seed).uniform(-1.0, 1.0, (free.size, 2))
        mesh = TriMesh(vertices, lattice.cells, lattice.boundary_nodes)
    else:
        mesh = delaunay_mesh(domain, n, seed)
    corners = mesh.vertices[mesh.cells]
    edges = corners[:, 1:] - corners[:, :1]
    assert (edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0] > 0.0).all()
    u0 = make_initial(mesh, InitSpec(init, seed=seed, perturb_amplitude=0.5))
    system = EnergySystem(mesh, metric=metric)
    report = run_flow(u0, system, FlowConfig(method=method, tau=2.0**-m, t_max=steps * 2.0**-m))
    # each identity holds to 1e-10, tighter than the audit's own bound, and
    # monotonicity to its slack; a skipped (NaN) entry compares false
    summary = audit_identities(report)[1]
    bounds = {key: MONO_SLACK if key == "mono_violation" else 1e-10 for key in summary}
    assert not any(summary[key] > bound for key, bound in bounds.items()), summary
    skipped = {key for key, value in summary.items() if math.isnan(value)}
    expected = {"res_energy_law", "res_nodal_recursion"} if method == "euler" else set()
    assert skipped == (expected | {"res_nodal_recursion"} if not free_nodes(mesh).size else expected)


# audit values that are residuals, already scaled by 1 + the size of what
# they compare: held to 1e-12 absolute, since round-off moves them by about 1e-16
RESIDUAL_KEYS = {"res_init", "res_energy_law", "res_nodal_recursion", "res_closed_form", "mono_violation"}


def _matches_oracle(key, value, expected):
    if math.isnan(expected):
        return math.isnan(value)
    if key in RESIDUAL_KEYS:
        return abs(value - expected) <= 1e-12
    return abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("metric", ["h1", "l2"])
@pytest.mark.parametrize("n, init", [(8, "perturbed"), (6, "random")])
def test_run_flow_audit_matches_plain_formulas(n, init, metric, method):
    _, u0, system = unit_square_setup(n, metric=metric, init=init)
    cfg = FlowConfig(method=method, tau=0.125, t_max=60 * 0.125)
    report, got_records = traced_run(u0, system, cfg)
    steps = list(itertools.islice(flow._steps(u0, system, cfg), report.n_stop))
    records, audits = audit_steps(steps, system, cfg.tau, method == "bdf2")
    assert len(got_records) == len(records) == report.n_stop
    for got, expected in zip(got_records, records):
        assert (got.n, got.time) == (expected.n, expected.time)
        # the audit's scalar residuals take Python floats only
        assert all(type(value) is float for value in dataclasses.astuple(got)[1:]), got
        for field in dataclasses.fields(StepRecord)[2:]:
            key = field.name
            assert _matches_oracle(key, getattr(got, key), getattr(expected, key)), (got.n, key)
    for key, expected in audits.items():
        assert type(getattr(report, key)) is float, key
        assert _matches_oracle(key, getattr(report, key), expected), key
    assert report.energy_final == got_records[-1].energy
    assert report.delta_uni == got_records[-1].delta_uni


@pytest.mark.parametrize("metric", ["h1", "l2"])
def test_report_nodal_recursion_is_the_worst_step(metric):
    # the report keeps running maxima; each must be the maximum over the
    # records it audits, bit for bit: the nodal recursion over the two-step
    # steps', the closed form over every step's of both methods, so a run's
    # verdict is the verdict over its trace
    _, u0, system = unit_square_setup(8, metric=metric, init="perturbed")
    for method in ("bdf2", "euler"):
        report, records = traced_run(u0, system, FlowConfig(method=method, tau=0.125))
        assert report.n_stop > 10
        assert report.res_closed_form == max(rec.res_closed_form for rec in records)
        if method == "bdf2":
            assert report.res_nodal_recursion == max(rec.res_nodal_recursion for rec in records[1:])


def test_run_flow_euler_audits_and_skips():
    _, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    report = run_flow(u0, system, FlowConfig(method="euler", tau=0.125))
    assert math.isnan(report.res_energy_law)
    assert math.isnan(report.res_nodal_recursion)
    assert report.res_init <= 1e-10
    assert report.res_closed_form <= 1e-8
    assert report.mono_violation <= 1e-9


def test_run_flow_non_convergence_flags(monkeypatch):
    _, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    capped = run_flow(u0, system, FlowConfig(tau=0.125, t_max=0.5))
    assert not capped.converged
    assert capped.n_stop == 4
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    overflow = run_flow(u0, system, FlowConfig(tau=0.125))
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


def test_build_sweep_table_reference_energy_wiring():
    # the flow knows no reference energy; the sweep table measures against it
    _, u0, system = unit_square_setup(4, init="perturbed", amplitude=0.5)
    assert "delta_ener" not in {f.name for f in dataclasses.fields(RunReport)}
    with pytest.raises(TypeError):
        run_flow(u0, system, FlowConfig(tau=0.25), 3.009)
    taus = [0.25, 0.125, 0.0625]
    reports = [run_flow(u0, system, FlowConfig(tau=tau)) for tau in taus]
    assert all(report.converged for report in reports)
    rows = build_sweep_table(reports, 3.009)
    for row, report in zip(rows, reports):
        assert row.report is report
        assert row.delta_ener == abs(report.energy_final - 3.009)
    # the energy order needs no reference: it compares successive energy gaps
    energies = [report.energy_final for report in reports]
    assert math.isnan(rows[0].eoc_ener) and math.isnan(rows[1].eoc_ener)
    assert rows[2].eoc_ener == eoc(abs(energies[0] - energies[1]), abs(energies[1] - energies[2]))


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


def test_corrupted_euler_step_trips_closed_form_audit(monkeypatch):
    mesh, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    cfg = FlowConfig(method="euler", tau=0.125)
    assert audit_identities(run_flow(u0, system, cfg))[0]
    calls = []

    def corrupted_step(u_n, sys, cfg):
        u_next, u_dot = euler_init_step(u_n, sys, cfg)
        calls.append(None)
        if len(calls) == 4:
            u_next = u_next.copy()
            u_next[sys.free[len(sys.free) // 2], 0] += 1e-5
        return u_next, u_dot

    monkeypatch.setattr("sphereflow.flow.euler_init_step", corrupted_step)
    report = run_flow(u0, system, cfg)
    assert len(calls) > 4
    assert report.res_closed_form > 1e-8
    assert not audit_identities(report)[0]


class CountingAnalysis(TangentPlaneAnalysis):
    """A :class:`TangentPlaneAnalysis` that records each build in ``built`` and
    refuses one outside the process ``parent`` (a module-level class pickles)."""

    built = []
    parent = None

    def __init__(self, m):
        if os.getpid() != CountingAnalysis.parent:
            raise RuntimeError(f"tangent-plane analysis built in process {os.getpid()}, not {CountingAnalysis.parent}")
        CountingAnalysis.built.append(m.shape)
        super().__init__(m)


def count_analyses(monkeypatch):
    """Route the flow's analyses through :class:`CountingAnalysis`, built in this process only; returns its list."""
    monkeypatch.setattr("sphereflow.flow.TangentPlaneAnalysis", CountingAnalysis)
    monkeypatch.setattr(CountingAnalysis, "parent", os.getpid())
    monkeypatch.setattr(CountingAnalysis, "built", [])
    return CountingAnalysis.built


def test_run_flow_analyses_each_mesh_once(monkeypatch):
    # the Euler and the two-step blocks lie on one pattern: one analysis a
    # run, and one block a scale, which later steps reuse
    for method, scales in (("bdf2", [0.125, 2.0 * 0.125 / 3.0]), ("euler", [0.125])):
        built = count_analyses(monkeypatch)
        mesh, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
        report = run_flow(u0, system, FlowConfig(method=method, tau=0.125))
        assert report.n_stop > 10
        assert len(built) == 1
        assert sorted(system._blocks) == sorted(scales)
        assert all(system._block(scale) is block for scale, block in system._blocks.items())


def test_run_sweep_analyses_the_mesh_once_before_its_workers(monkeypatch):
    # the sweep builds the analysis before it forks and each task receives it
    # with the system, so a worker that built its own would fail the sweep
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: the sweep runs in this process")
    built = count_analyses(monkeypatch)
    u0, system = sweep_system("l2")
    reports = run_sweep(u0, system, [FlowConfig(method="bdf2", tau=tau) for tau in SWEEP_TAUS])
    assert all(report.converged for report in reports)
    assert built == [system._metric_ff.shape]


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
    # forms its right-hand side from the free rows of K: one product of the
    # initial state, then 4 per step; an exact count, so a product routed
    # around the counting wrapper (a stacked [K; M], say) fails here
    _, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    products = []
    counting = {id(m): CountingMatrix(m, products) for m in (system.stiffness, system.mass, system._a_f)}
    # every attribute that holds one of the matrices, the metric included
    for name, value in list(vars(system).items()):
        if id(value) in counting:
            setattr(system, name, counting[id(value)])
    report = run_flow(u0, system, FlowConfig(method=method, tau=0.125))
    assert report.n_stop > 10
    assert audit_identities(report)[0]
    assert len(products) == 4 * report.n_stop + 1


def test_tangent_and_saddle_constraint_paths_agree(monkeypatch):
    # the flow's tangent-plane solves against dense solves of the saddle-point
    # system [[kron(B, I3), G^T], [G, 0]] with one constraint row per free node
    _, u0, system = unit_square_setup(8, init="perturbed", amplitude=0.5)
    cfg = FlowConfig(method="bdf2", tau=0.125)
    first, first_records = traced_run(u0, system, cfg)

    def dense_increment(sys, scale, u_hat, rhs):
        f = sys.free
        stiffness = to_scipy(sys.stiffness)
        block = (stiffness + scale * stiffness)[f][:, f]
        increment = np.zeros_like(u_hat)
        increment[f] = dense_saddle_solve(block, u_hat[f], rhs)
        return increment

    monkeypatch.setattr(EnergySystem, "solve_increment", dense_increment)
    second, second_records = traced_run(u0, system, cfg)
    assert first.n_stop == second.n_stop
    for a, b in zip(first_records, second_records):
        for key in ("norm_udot_star", "norm_dtu_l2", "energy", "delta_uni"):
            assert getattr(a, key) == pytest.approx(getattr(b, key), rel=1e-12, abs=0.0)


def test_u_final_matches_reported_constraint_violation():
    from sphereflow.diagnostics import constraint_violation

    mesh, u0, system = unit_square_setup(6, init="perturbed", amplitude=0.5)
    report = run_flow(u0, system, FlowConfig(method="bdf2", tau=0.25))
    sq = np.sum(report.u_final * report.u_final, axis=1)
    assert constraint_violation(sq, assemble_p1(mesh)[2]) == pytest.approx(report.delta_uni, rel=1e-12)


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
    configs = [FlowConfig(method=method, tau=tau, t_max=60 * tau) for tau in SWEEP_TAUS]
    swept = run_sweep(u0, system, configs)
    assert multiprocessing.active_children() == []
    assert len(swept) == len(configs)
    for cfg, report in zip(configs, swept):
        expected = run_flow(u0, system, cfg)
        # repr gives every float exactly, NaN audits included
        assert repr(dataclasses.replace(report, u_final=None)) == repr(dataclasses.replace(expected, u_final=None))
        assert np.array_equal(report.u_final, expected.u_final)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("metric", ["h1", "l2"])
def test_on_step_changes_no_report_field(metric, method):
    u0, system = sweep_system(metric)
    for tau in SWEEP_TAUS:
        cfg = FlowConfig(method=method, tau=tau, t_max=60 * tau)
        plain = run_flow(u0, system, cfg)
        report, records = traced_run(u0, system, cfg)
        # repr gives every float exactly, NaN audits included
        assert repr(dataclasses.replace(report, u_final=None)) == repr(dataclasses.replace(plain, u_final=None))
        assert np.array_equal(report.u_final, plain.u_final)
        # one record per step, in order; equal runs give equal records
        assert [rec.n for rec in records] == list(range(1, plain.n_stop + 1))
        assert repr(records) == repr(traced_run(u0, system, cfg)[1])
    with pytest.raises(TypeError):
        run_flow(u0, system, cfg, records.append)


def test_run_sweep_raises_a_workers_error(monkeypatch):
    def failing_step(*args):
        raise KktError("injected failure in a two-step step")

    monkeypatch.setattr(flow, "bdf2_step", failing_step)
    u0, system = sweep_system("h1")
    configs = [FlowConfig(method="bdf2", tau=tau) for tau in SWEEP_TAUS]
    with pytest.raises(KktError, match="injected failure in a two-step step"):
        run_sweep(u0, system, configs)
    assert multiprocessing.active_children() == []


def pid_and_blas_threads(u0, system, cfg):
    """Stand-in for ``run_flow``: the process id, its BLAS thread count and
    the counts that one step's band factorizations ran at (a module-level
    function pickles)."""
    lookup, seen = kkt._openblas, []
    pbsv, get, set_ = lookup()

    def counted(*args):
        seen.append(get())
        return pbsv(*args)

    kkt._openblas = lambda: (counted, get, set_)
    try:
        euler_init_step(u0, system, cfg)
    finally:
        kkt._openblas = lookup
    return os.getpid(), get(), seen


def test_run_sweep_workers_run_one_blas_thread(monkeypatch):
    # the workers inherit the caller's count; each band solve pins one thread itself
    api = kkt._openblas()
    if api is None:
        pytest.skip("this scipy build bundles no OpenBLAS with scipy's LAPACKE and thread-count symbols")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: the sweep runs in this process")
    monkeypatch.setattr(flow, "run_flow", pid_and_blas_threads)
    u0, system = sweep_system("h1")
    _, get, set_ = api
    before = get()
    set_(2)
    try:
        seen = run_sweep(u0, system, [FlowConfig(tau=tau) for tau in SWEEP_TAUS])
    finally:
        set_(before)
    assert all(pid != os.getpid() and threads == 2 and factors == [1] for pid, threads, factors in seen)
