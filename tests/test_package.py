"""The package namespace: what ``from sphereflow import *`` binds, and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import sphereflow


def test_all_names_resolve_and_none_is_a_module():
    names = sphereflow.__all__
    assert len(names) == len(set(names))
    for name in names:
        # a submodule in __all__ would rebind a caller's ``mesh`` or ``flow``
        assert not isinstance(getattr(sphereflow, name), ModuleType), name
    namespace = {}
    exec("from sphereflow import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


# moving a name between modules must neither drop nor add a public name
PUBLIC_NAMES = {
    "EnergySystem", "FlowConfig", "InitSpec", "KktError", "RunReport", "StepRecord",
    "TangentPlaneAnalysis", "TriMesh", "assemble_p1", "audit_identities", "backward_difference",
    "bdf2_step", "build_square_mesh", "build_sweep_table", "constraint_violation", "eoc",
    "euler_init_step", "extrapolate", "free_nodes", "g_form", "gamma", "inverse_stereographic",
    "make_initial", "run_flow", "run_sweep", "second_difference",
}


def test_all_is_the_public_names():
    assert len(PUBLIC_NAMES) == 26
    assert set(sphereflow.__all__) == PUBLIC_NAMES


def loaded_after(code, prefixes):
    """Output of a fresh interpreter that runs ``code``, then prints its loaded modules that start with ``prefixes``."""
    code += f"\nprint(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))"
    source = str(Path(sphereflow.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_neither_csgraph_nor_sparse_linalg():
    # the package orders its band itself; csgraph would bring
    # scipy.sparse.linalg (ARPACK, PROPACK, SuperLU) into every process
    assert loaded_after("import sys, sphereflow.cli", ("scipy.sparse.csgraph", "scipy.sparse.linalg")) == "[]\n"


# one run and one sweep through the CLI, their output discarded
RUN_AND_SWEEP = ("import contextlib, io, sys\n"
                 "from sphereflow import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
                 "    assert cli.main(['run', '--mesh-n', '4', '--tau', '0.25', '--init', 'perturbed']) == 0\n"
                 "    assert cli.main(['sweep', '--mesh-n', '4', '--tau-range', '2:3', '--init', 'perturbed']) == 0\n")


def test_flows_load_no_scipy_linalg():
    # the band solves call LAPACK in scipy's bundled OpenBLAS through ctypes,
    # so neither a run nor a sweep imports scipy.linalg (about 8 MB)
    assert loaded_after(RUN_AND_SWEEP, ("scipy.linalg",)) == "[]\n"


def test_flows_load_no_scipy_sparse():
    # the CSR kernels come from scipy's extension file, loaded by path, so
    # neither a run nor a sweep imports scipy.sparse (about 20 MB); importing
    # it afterwards still works, beside the kernels already loaded
    code = RUN_AND_SWEEP + (
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
        "import numpy as np, scipy.sparse as sp\n"
        "from sphereflow import fem\n"
        "from sphereflow.mesh import build_square_mesh\n"
        "m, u = fem.assemble_p1(build_square_mesh(4))[0], np.ones((25, 3))\n"
        "assert np.array_equal(m @ u, sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape) @ u)\n"
        "print(fem._sparsetools().__name__)")
    assert loaded_after(code, ("scipy.sparse._sparsetools",)) == (
        "[]\nsphereflow._sparsetools\n['scipy.sparse._sparsetools']\n")
