"""Projection-free implicit Euler / BDF2 solvers for sphere-constrained gradient flows."""

from types import ModuleType as _ModuleType

from .diagnostics import (
    RunReport,
    StepRecord,
    audit_identities,
    backward_difference,
    build_sweep_table,
    constraint_violation,
    eoc,
    g_form,
    gamma,
    second_difference,
)
from .fem import assemble_p1
from .flow import (
    EnergySystem,
    FlowConfig,
    bdf2_step,
    euler_init_step,
    extrapolate,
    run_flow,
    run_sweep,
)
from .initial_data import InitSpec, inverse_stereographic, make_initial
from .kkt import KktError, TangentPlaneAnalysis
from .mesh import TriMesh, build_square_mesh, free_nodes

# the imports also bind the submodules, which are not exported
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
