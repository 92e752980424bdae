"""Audits with teeth: each seeded bug in the scheme or its audit formulas fails ``audit_identities``.

Every case monkeypatches one plausible slip into ``sphereflow`` and runs
the 8x8 h1 BDF2 flow from perturbed data for 40 steps.  The clean run
passes every audit; the seeded run must fail, and in the audits named
with the case.
"""

import numpy as np
import pytest

from sphereflow import diagnostics, flow
from sphereflow.diagnostics import MONO_SLACK, audit_identities
from sphereflow.flow import EnergySystem, FlowConfig, run_flow
from sphereflow.initial_data import InitSpec, make_initial
from sphereflow.mesh import build_square_mesh

STEPS = 40
CFG = FlowConfig(method="bdf2", tau=2.0**-4, t_max=STEPS * 2.0**-4)
TOL = 1e-8


def _block_scale(right, wrong):
    """Seed a block built with scale ``wrong`` where the scheme asks for ``right``."""

    def seed(monkeypatch):
        solve = flow.EnergySystem.solve_increment

        def wrong_scale(sys, scale, u_hat, rhs):
            return solve(sys, wrong if scale == right else scale, u_hat, rhs)

        monkeypatch.setattr(flow.EnergySystem, "solve_increment", wrong_scale)

    return seed


# seeded bug -> (how to seed it, audits that must fail)
SEEDED_BUGS = {
    "extrapolate_returns_u_n": (
        lambda mp: mp.setattr(flow, "extrapolate", lambda a, b: np.array(a, dtype=float)),
        ("res_nodal_recursion", "res_closed_form"),
    ),
    "extrapolate_2a_minus_1.01b": (
        lambda mp: mp.setattr(flow, "extrapolate", lambda a, b: 2.0 * a - 1.01 * b),
        ("res_nodal_recursion", "mono_violation"),
    ),
    "g12_sign": (
        lambda mp: mp.setattr(diagnostics, "G12", -diagnostics.G12),
        ("res_energy_law",),
    ),
    "second_difference_over_tau": (
        lambda mp: mp.setattr(diagnostics, "second_difference", lambda a, b, c, tau: (a - 2.0 * b + c) / tau),
        ("res_energy_law",),
    ),
    # the audit forms d_t u of a two-step step itself; the stepping is untouched
    "backward_difference_over_2tau": (
        lambda mp: mp.setattr(diagnostics, "backward_difference", lambda a, b, tau: (a - b) / (2.0 * tau)),
        ("res_energy_law",),
    ),
    # the two-step block metric + (2 tau / 3) a, built with tau instead
    "block_scale_tau": (_block_scale(2.0 * CFG.tau / 3.0, CFG.tau), ("res_energy_law",)),
    # the Euler-type block metric + tau a, which only the initialization
    # solves with in a BDF2 run, built with 1.01 tau instead
    "init_block_scale_1.01_tau": (_block_scale(CFG.tau, 1.01 * CFG.tau), ("res_init",)),
    # gamma(n) tends to 1, so only a per-step comparison sees this bug: at
    # the last of 40 steps the prediction is off by about 1e-17
    "gamma_off_by_one": (
        lambda mp: mp.setattr(diagnostics, "gamma", lambda n: 1.0 - 3.0 ** -(n + 2)),
        ("res_closed_form",),
    ),
}


def _run():
    mesh = build_square_mesh(8)
    u0 = make_initial(mesh, InitSpec("perturbed", seed=1, perturb_amplitude=0.5))
    return run_flow(u0, EnergySystem(mesh, metric="h1"), CFG)


def _threshold(key):
    return MONO_SLACK if key == "mono_violation" else TOL


@pytest.mark.parametrize("bug", SEEDED_BUGS)
def test_seeded_bug_fails_audit(bug, monkeypatch):
    clean = _run()
    assert clean.n_stop == STEPS
    assert audit_identities(clean)[0]
    seed, tripped = SEEDED_BUGS[bug]
    seed(monkeypatch)
    report = _run()
    assert report.n_stop == STEPS
    passed, summary = audit_identities(report)
    assert not passed
    for key in tripped:
        assert summary[key] > _threshold(key), (key, summary)
