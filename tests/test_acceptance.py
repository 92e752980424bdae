"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts, so the suite doubles as a human-readable checklist.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import assemble_constraint_rows, constraint_recursion_closed_form, dense_saddle_solve
from sphereflow.cli import main
from sphereflow.diagnostics import audit_identities, gamma
from sphereflow.flow import EnergySystem, FlowConfig, run_flow, run_sweep
from sphereflow.initial_data import EXACT_ENERGY, InitSpec, inverse_stereographic, make_initial
from sphereflow.kkt import TangentPlaneAnalysis
from sphereflow.mesh import build_square_mesh

SEED = 1
CASES = 1000


def announce(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} {detail}".rstrip())
    return ok


def benchmark_mesh(n=32):
    return build_square_mesh(n)


# --- criterion 1: algebraic identity suite ---------------------------------


def _identity_suite_max_residuals():
    rng = np.random.default_rng(SEED)
    residuals = {}

    # pair relation: g(x,y) - |x-y|^2/2 = 3|x|^2/4 - |y|^2/4
    x = rng.standard_normal(CASES)
    y = rng.standard_normal(CASES)
    lhs = 1.25 * x * x - x * y + 0.25 * y * y - 0.5 * (x - y) ** 2
    rhs = 0.75 * x * x - 0.25 * y * y
    residuals["quadratic relation"] = np.max(
        np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
    )

    # derivative pairing: udot.u = d_t g(u, u_prev) + (tau^3/4) |d2|^2
    seq = rng.standard_normal((CASES, 5))
    tau = 0.25
    worst = 0.0
    for n in range(2, 5):
        u, v, w = seq[:, n], seq[:, n - 1], seq[:, n - 2]
        udot = (3 * u - 4 * v + w) / (2 * tau)
        g_n = 1.25 * u * u - u * v + 0.25 * v * v
        g_p = 1.25 * v * v - v * w + 0.25 * w * w
        d2 = (u - 2 * v + w) / tau**2
        lhs = udot * u
        rhs = (g_n - g_p) / tau + 0.25 * tau**3 * d2 * d2
        worst = max(worst, np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))))
    residuals["derivative pairing"] = worst

    # discrete chain rule: 2 udot.uhat = (3u^2-4v^2+w^2)/(2 tau) - (3/2) tau^3 |d2|^2
    worst = 0.0
    for n in range(2, 5):
        u, v, w = seq[:, n], seq[:, n - 1], seq[:, n - 2]
        udot = (3 * u - 4 * v + w) / (2 * tau)
        uhat = 2 * v - w
        d2 = (u - 2 * v + w) / tau**2
        lhs = 2.0 * udot * uhat
        rhs = (3 * u * u - 4 * v * v + w * w) / (2 * tau) - 1.5 * tau**3 * d2 * d2
        worst = max(worst, np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))))
    residuals["discrete chain rule"] = worst

    # closed form against forward iteration of the difference equation
    sq0 = rng.uniform(0.5, 2.0, CASES)
    sq1 = rng.uniform(0.5, 2.0, CASES)
    d2sq = rng.uniform(0.0, 3.0, (8, CASES))
    closed = constraint_recursion_closed_form(sq0, sq1, list(d2sq), 9, tau)
    prev2, prev = sq0, sq1
    for a_n in d2sq:
        prev2, prev = prev, (2.0 * prev - 0.5 * prev2 + 1.5 * tau**4 * a_n) / 1.5
    residuals["closed form"] = np.max(np.abs(closed - prev) / (1.0 + np.abs(prev)))

    # gamma recursion (3/2) g_n - 2 g_{n-1} + (1/2) g_{n-2} = 0
    g = np.array([gamma(n) for n in range(CASES + 2)])
    rec = 1.5 * g[2:] - 2.0 * g[1:-1] + 0.5 * g[:-2]
    residuals["gamma recursion"] = np.max(np.abs(rec))

    return residuals


def test_acceptance_1_algebraic_identities():
    start = time.perf_counter()
    residuals = _identity_suite_max_residuals()
    elapsed = time.perf_counter() - start
    worst = max(residuals.values())
    ok = worst <= 1e-13 and elapsed < 1.0
    detail = f"(max residual {worst:.2e}, {elapsed:.2f} s)"
    assert announce(1, "algebraic identity suite", ok, detail), residuals


# --- criteria 2 and 3: audit runs on the 32x32 benchmark -------------------


@pytest.fixture(scope="module")
def audit_runs():
    mesh = benchmark_mesh()
    reports = []
    start = time.perf_counter()
    for init, amplitude in (("exact", 0.0), ("perturbed", 0.5)):
        u0 = make_initial(mesh, InitSpec(init, seed=SEED, perturb_amplitude=amplitude))
        for metric in ("l2", "h1"):
            system = EnergySystem(mesh, metric=metric)
            for tau in (2.0**-2, 2.0**-4):
                cfg = FlowConfig(method="bdf2", tau=tau, eps_stop=1e-3)
                reports.append(run_flow(u0, system, cfg))
    return reports, time.perf_counter() - start


def test_acceptance_2_energy_law(audit_runs):
    reports, elapsed = audit_runs
    worst = max(r.res_energy_law for r in reports)
    ok = worst <= 1e-8 and elapsed < 30.0
    detail = f"(max residual {worst:.2e} over {len(reports)} runs, {elapsed:.1f} s)"
    assert announce(2, "energy-law audit", ok, detail)


def test_acceptance_3_constraint_closed_form(audit_runs):
    reports, _ = audit_runs
    worst_closed = max(r.res_closed_form for r in reports)
    worst_mono = max(r.mono_violation for r in reports)
    ok = worst_closed <= 1e-8 and worst_mono <= 1e-9
    detail = f"(closed form {worst_closed:.2e}, monotonicity {worst_mono:.2e})"
    assert announce(3, "constraint closed form", ok, detail)


# --- criterion 4: rate dichotomy --------------------------------------------


def test_acceptance_4_rate_dichotomy():
    start = time.perf_counter()
    mesh = benchmark_mesh()
    u0 = make_initial(mesh, InitSpec("perturbed", seed=SEED, perturb_amplitude=0.5))
    taus = [2.0**-m for m in range(2, 7)]
    final_eoc = {}
    for method in ("bdf2", "euler"):
        system = EnergySystem(mesh, metric="h1")
        reports = run_sweep(u0, system, [FlowConfig(method=method, tau=tau, eps_stop=1e-3) for tau in taus])
        assert all(report.converged for report in reports)
        final_eoc[method] = np.log2(reports[-2].delta_uni / reports[-1].delta_uni)
    elapsed = time.perf_counter() - start
    ok = 1.6 <= final_eoc["bdf2"] <= 2.2 and 0.85 <= final_eoc["euler"] <= 1.15 and elapsed < 300.0
    detail = f"(bdf2 eoc {final_eoc['bdf2']:.3f}, euler eoc {final_eoc['euler']:.3f}, {elapsed:.0f} s)"
    assert announce(4, "rate dichotomy", ok, detail)


# --- criterion 5: reference energy ------------------------------------------


def test_acceptance_5_reference_energy():
    start = time.perf_counter()
    mesh = benchmark_mesh(64)
    energy = EnergySystem(mesh).energy(inverse_stereographic(mesh.vertices))
    # the energies E_h that exact-data flows settle at approach the exact
    # energy at second order in h
    ok, errors = True, []
    for n in (8, 16, 32):
        mesh = benchmark_mesh(n)
        report = run_flow(make_initial(mesh, InitSpec("exact")), EnergySystem(mesh, metric="h1"),
                          FlowConfig(method="bdf2", tau=2.0**-3, eps_stop=1e-9))
        ok = ok and report.converged and audit_identities(report)[0]
        errors.append(abs(report.energy_final - EXACT_ENERGY))
    eocs = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - start
    ok = ok and 2.95 <= energy <= 3.07 and all(1.9 <= e <= 2.1 for e in eocs) and elapsed < 5.0
    detail = f"(energy {energy:.4f}, spatial eoc {' '.join(f'{e:.3f}' for e in eocs)}, {elapsed:.1f} s)"
    assert announce(5, "reference energy", ok, detail)


# --- criterion 6: regularity breakdown signature -----------------------------


def test_acceptance_6_regularity_breakdown():
    start = time.perf_counter()
    mesh = benchmark_mesh()
    u0 = make_initial(mesh, InitSpec("random", seed=SEED))
    taus = [2.0**-m for m in range(3, 7)]  # halved three times
    b_sq = {}
    for metric in ("l2", "h1"):
        system = EnergySystem(mesh, metric=metric)
        values = []
        for tau in taus:
            cfg = FlowConfig(method="bdf2", tau=tau, t_max=4 * tau)
            values.append(run_flow(u0, system, cfg).b_sq)
        b_sq[metric] = values
    elapsed = time.perf_counter() - start
    l2_ratios = [b / a for a, b in zip(b_sq["l2"], b_sq["l2"][1:])]
    h1_spread = max(b_sq["h1"]) / min(b_sq["h1"])
    ok = all(r >= 2.0 for r in l2_ratios) and h1_spread <= 2.0 and elapsed < 600.0
    detail = (
        f"(l2 ratios {['%.2f' % r for r in l2_ratios]}, h1 spread {h1_spread:.2f}, {elapsed:.0f} s)"
    )
    assert announce(6, "regularity breakdown signature", ok, detail)


# --- criterion 7: KKT oracle equivalence -------------------------------------


def test_acceptance_7_kkt_oracle():
    # the tangent-plane solve of the flow against a dense solve of the
    # saddle-point system [[kron(B, I3), G^T], [G, 0]], one row u_hat(z) per node
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    worst_orth = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 17))
        base = rng.standard_normal((k, k))
        b = sp.csr_matrix(base @ base.T + k * np.eye(k))
        directions = rng.standard_normal((k, 3))
        rhs = rng.standard_normal((k, 3))

        ref = dense_saddle_solve(b, directions, rhs)
        primal = TangentPlaneAnalysis(b).solve(b, directions, rhs)
        worst_rel = max(worst_rel, np.linalg.norm(primal - ref) / (1.0 + np.linalg.norm(ref)))
        _, _, vt = np.linalg.svd(assemble_constraint_rows(directions, np.arange(k)).toarray())
        feasible = vt[k:].T
        orth = np.abs(feasible.T @ (b @ primal - rhs).ravel()).max()
        worst_orth = max(worst_orth, orth / (1.0 + np.linalg.norm(rhs)))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-9 and worst_orth <= 1e-10 and elapsed < 10.0
    detail = f"(reference gap {worst_rel:.2e}, orthogonality {worst_orth:.2e}, {elapsed:.1f} s)"
    assert announce(7, "KKT oracle equivalence", ok, detail)


# --- criterion 8: determinism -------------------------------------------------


# the exact sweep tables a fixed configuration and seed must reproduce, by
# (method, metric, init)
PINNED_SWEEP_CSV = {
    ("bdf2", "h1", "perturbed"): (
        "tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged\n"
        "0.25,37,0.00836993,,0.00616106,0.0450013,3.01485,0.00575232,,true\n"
        "0.125,74,0.0024498,1.77255,0.00407481,0.0555572,2.99447,0.0146282,,true\n"
        "0.0625,148,0.000665567,1.88001,0.00234167,0.0622856,2.98863,0.0204727,1.80205,true\n"
    ),
    ("euler", "h1", "perturbed"): (
        "tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged\n"
        "0.25,43,0.0142392,,0.00600001,0.0450013,3.03725,0.0281511,,true\n"
        "0.125,80,0.00751462,0.922092,0.00395604,0.0555572,3.01205,0.00295029,,true\n"
        "0.0625,153,0.00386425,0.95951,0.00229322,0.0622856,2.99928,0.00982222,0.980428,true\n"
    ),
    ("bdf2", "l2", "random"): (
        "tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged\n"
        "0.25,100,2.73447,,15.4724,3.94662,38.0285,35.0194,,true\n"
        "0.125,99,2.46537,0.149459,54.2118,14.8881,35.9493,32.9402,,true\n"
        "0.0625,50,2.11286,0.222608,180.149,53.3775,32.0378,29.0287,-0.911724,true\n"
    ),
}


def test_acceptance_8_determinism(tmp_path):
    ok = True
    sizes = []
    for (method, metric, init), pinned in PINNED_SWEEP_CSV.items():
        args = [
            "sweep",
            "--mesh-n", "8",
            "--method", method,
            "--metric", metric,
            "--tau-range", "2:4",
            "--init", init,
            "--seed", "7",
            "--perturb-amplitude", "0.5",
        ]
        label = f"{method} {metric} {init}"
        first = tmp_path / f"{method}-{metric}-{init}-first.csv"
        second = tmp_path / f"{method}-{metric}-{init}-second.csv"
        code_a = main(args + ["--out", str(first)])
        code_b = main(args + ["--out", str(second)])
        identical = first.read_bytes() == second.read_bytes() == pinned.encode()
        ok = ok and identical and code_a == 0 and code_b == 0
        sizes.append(f"{label} {first.stat().st_size} bytes")
    assert announce(8, "determinism", ok, f"({', '.join(sizes)}, pinned)")


# --- criterion 9: time error of the trajectory --------------------------------


def test_acceptance_9_trajectory_rate():
    # u_final at the fixed time T from step sizes tau = 2^-6 ... 2^-10: the
    # lumped L2 norms of successive differences shrink like tau for Euler and
    # tau^2 for BDF2 (the l2 flow is stiff, not yet asymptotic at 2^-14)
    start = time.perf_counter()
    t_max = 0.25
    taus = [2.0**-m for m in range(6, 11)]
    eocs = {}
    ok = True
    for n in (8, 16):
        mesh = benchmark_mesh(n)
        u0 = make_initial(mesh, InitSpec("perturbed", seed=SEED, perturb_amplitude=0.5))
        system = EnergySystem(mesh, metric="h1")
        for method in ("euler", "bdf2"):
            reports = [run_flow(u0, system, FlowConfig(method=method, tau=tau, eps_stop=1e-14, t_max=t_max))
                       for tau in taus]
            ok = ok and all(r.n_stop == round(t_max / r.tau) and audit_identities(r)[0] for r in reports)
            gaps = [np.sqrt(system.lumped_weights @ ((a.u_final - b.u_final) ** 2).sum(axis=1))
                    for a, b in zip(reports, reports[1:])]
            eocs[method, n] = [np.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    elapsed = time.perf_counter() - start
    bands = {"euler": (0.95, 1.05), "bdf2": (1.9, 2.1)}
    ok = ok and all(bands[method][0] <= e <= bands[method][1] for (method, _), rates in eocs.items() for e in rates)
    detail = ", ".join(f"{method} N={n} eoc {' '.join(f'{e:.3f}' for e in rates)}"
                       for (method, n), rates in eocs.items())
    assert announce(9, "trajectory rate", ok, f"({detail}, {elapsed:.1f} s)")
