"""Projection-free implicit Euler / BDF2 solvers for sphere-constrained gradient flows."""

from .diagnostics import (
    RunReport,
    StepRecord,
    audit_identities,
    build_sweep_table,
    constraint_violation,
    eoc,
)
from .fem import assemble_mass, assemble_stiffness, l1_nodal_norm, lumped_mass_diagonal
from .flow import (
    EnergySystem,
    FlowConfig,
    bdf2_step,
    euler_init_step,
    harmonic_map_system,
    run_flow,
    run_sweep,
)
from .initial_data import InitSpec, SplitMix64, inverse_stereographic, make_initial
from .kkt import KktError, KktSolution, TangentPlaneAnalysis
from .mesh import TriMesh, build_square_mesh, free_nodes
from .seqcalc import backward_difference, extrapolate, g_form, gamma, second_difference

__all__ = [name for name in dir() if not name.startswith("_")]
