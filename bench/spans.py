"""Outside-in tracing: spans around the package's public calls.

The package is not changed.  ``instrumented`` swaps wrappers in for the
names that ``sphereflow.cli`` and ``sphereflow.flow`` import, for the
``EnergySystem`` methods and for ``sphereflow.kkt.splu`` (whose factor
object is proxied so that triangular solves get spans too), and restores
the originals on exit.  Spans (name, start, end, parent, operation id) stay
in memory; self times and per-layer metrics are derived from them after
the run.
"""

from __future__ import annotations

import functools
import gzip
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# span name -> per-layer metric that its self time adds to
TIME_METRIC = {
    "cli.main": "cli.self_s",
    "mesh.build_square_mesh": "mesh.build_s",
    "mesh.free_nodes": "mesh.build_s",
    "initial_data.make_initial": "initial_data.make_initial_s",
    "fem.assemble_stiffness": "fem.assemble_s",
    "fem.assemble_mass": "fem.assemble_s",
    "fem.lumped_mass_diagonal": "fem.assemble_s",
    "fem.dirichlet_energy": "fem.energy_s",
    "flow.harmonic_map_system": "flow.system_s",
    "flow.EnergySystem.__init__": "flow.system_s",
    "flow.run_flow": "flow.run_self_s",
    "flow.euler_init_step": "flow.step_self_s",
    "flow.bdf2_step": "flow.step_self_s",
    "flow.EnergySystem.energy": "flow.norms_s",
    "flow.EnergySystem.a_inner": "flow.norms_s",
    "flow.EnergySystem.l2_norm_sq": "flow.norms_s",
    "flow.EnergySystem.metric_norm_sq": "flow.norms_s",
    "flow.EnergySystem.lumped_norm_sq": "flow.norms_s",
    "flow.EnergySystem.kkt_block": "flow.block_s",
    "flow.EnergySystem.rhs_from": "flow.rhs_s",
    "flow.EnergySystem.constraint_rows": "kkt.constraint_rows_s",
    "kkt.assemble_constraint_rows": "kkt.constraint_rows_s",
    "kkt.solve_kkt": "kkt.solve_self_s",
    "kkt.splu": "kkt.factor_s",
    "kkt.trisolve": "kkt.trisolve_s",
    "diagnostics.constraint_violation": "diagnostics.s",
    "diagnostics.nodal_recursion_residual": "diagnostics.s",
    "diagnostics.relative_residual": "diagnostics.s",
    "diagnostics.audit_identities": "diagnostics.s",
    "diagnostics.build_sweep_table": "diagnostics.s",
    "seqcalc.g_norm_sq": "seqcalc.s",
}
# per-layer metric -> span names whose calls it counts
CALL_METRIC = {
    "flow.steps": ("flow.euler_init_step", "flow.bdf2_step"),
    "flow.norms_calls": tuple(n for n, m in TIME_METRIC.items() if m == "flow.norms_s"),
    "kkt.factor_calls": ("kkt.splu",),
    "kkt.trisolve_calls": ("kkt.trisolve",),
    "diagnostics.calls": tuple(n for n, m in TIME_METRIC.items() if m == "diagnostics.s"),
    "seqcalc.calls": ("seqcalc.g_norm_sq",),
}
# counts that must repeat exactly between runs of the same code and seed
EXACT_COUNTS = (
    "flow.steps",
    "kkt.factor_calls",
    "kkt.fill_nnz",
    "kkt.unknowns",
    "kkt.rows_dropped",
    "flow.block_misses",
)

# the functions sphereflow.cli and sphereflow.flow call through their module
# globals (dataclass constructors are left alone)
_CLI_NAMES = ("build_square_mesh", "make_initial", "harmonic_map_system", "run_flow",
              "audit_identities", "build_sweep_table")
_FLOW_NAMES = ("constraint_violation", "nodal_recursion_residual", "relative_residual",
               "assemble_mass", "assemble_stiffness", "dirichlet_energy", "lumped_mass_diagonal",
               "assemble_constraint_rows", "solve_kkt", "free_nodes", "g_norm_sq",
               "euler_init_step", "bdf2_step")
_ENERGY_SYSTEM_METHODS = ("__init__", "kkt_block", "constraint_rows", "rhs_from", "energy",
                          "a_inner", "l2_norm_sq", "metric_norm_sq", "lumped_norm_sq")


def _span_name(func):
    """Layer-qualified span name from the module that defines ``func``."""
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"


class Tracer:
    """In-memory span recorder.  Each span is [name, start, end, parent, op, failed]."""

    def __init__(self):
        self.spans = []
        self.op_counts = {}
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._blocks = {}

    def begin_operation(self, op):
        """Tag the spans and counts that follow with operation id ``op``."""
        self.op = op
        self.counts = self.op_counts[op] = Counter()
        self._blocks = {}

    def wrap(self, name, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None, self.op, True]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
                span[5] = False
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced

    def _wrap_splu(self, splu):
        traced_splu = self.wrap("kkt.splu", splu)
        # its own span keeps the count out of solve_kkt's self time
        fill = self.wrap("trace.fill_count", lambda lu: lu.L.nnz + lu.U.nnz)

        @functools.wraps(splu)
        def factor(matrix, *args, **kwargs):
            lu = traced_splu(matrix, *args, **kwargs)
            self.counts["kkt.unknowns"] += matrix.shape[0]
            self.counts["kkt.fill_nnz"] += fill(lu)
            return _TracedLU(lu, self.wrap("kkt.trisolve", lu.solve))

        return factor

    def _wrap_rows(self, assemble):
        traced = self.wrap("kkt.assemble_constraint_rows", assemble)

        @functools.wraps(assemble)
        def rows(*args, **kwargs):
            g = traced(*args, **kwargs)
            self.counts["kkt.rows_dropped"] += g.shape[1] // 3 - g.shape[0]
            return g

        return rows

    def _wrap_block(self, kkt_block):
        traced = self.wrap("flow.EnergySystem.kkt_block", kkt_block)

        @functools.wraps(kkt_block)
        def block(system, scale):
            result = traced(system, scale)
            key = (id(system), scale)
            # a miss is a block object not handed out before for this system
            # and scale; keeping ``system`` alive keeps its id unique
            if key not in self._blocks or self._blocks[key][1] is not result:
                self.counts["flow.block_misses"] += 1
                self._blocks[key] = (system, result)
            return result

        return block

    def write(self, path):
        """Write every span as CSV (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id,name,start_s,end_s,parent,op,failed\n")
            for i, (name, start, end, parent, op, failed) in enumerate(self.spans):
                parent = "" if parent is None else parent
                handle.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent},{op},{int(failed)}\n")


class _TracedLU:
    """Factor object whose ``solve`` is traced; everything else passes through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


@contextmanager
def instrumented(tracer):
    """Swap traced wrappers into the package; yield the names left unwrapped.

    A name that a later version of the package no longer has is skipped and
    reported, so its layer reads zero instead of the run failing.
    """
    from sphereflow import cli, flow, kkt

    special = {
        (flow, "assemble_constraint_rows"): tracer._wrap_rows,
        (kkt, "splu"): tracer._wrap_splu,
    }
    targets = [(cli, attr) for attr in _CLI_NAMES] + [(flow, attr) for attr in _FLOW_NAMES]
    targets.append((kkt, "splu"))
    system = getattr(flow, "EnergySystem", None)
    if system is not None:
        targets += [(system, attr) for attr in _ENERGY_SYSTEM_METHODS]
        special[(system, "kkt_block")] = tracer._wrap_block

    patches = []
    missing = []
    try:
        for owner, attr in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            make = special.get((owner, attr))
            if make is not None:
                wrapped = make(original)
            elif owner is system:
                wrapped = tracer.wrap(f"flow.EnergySystem.{attr}", original)
            else:
                wrapped = tracer.wrap(_span_name(original), original)
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield missing
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def operation_metrics(tracer, op):
    """Per-layer self times, call counts and exact counts of one traced operation."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == op]
    child_time = Counter()
    for _, (_, start, end, parent, _, _) in spans:
        if parent is not None:
            child_time[parent] += end - start
    metrics = dict.fromkeys(TIME_METRIC.values(), 0.0)
    calls = Counter()
    errors = 0
    for i, (name, start, end, _, _, failed) in spans:
        calls[name] += 1
        if name in TIME_METRIC:
            metrics[TIME_METRIC[name]] += (end - start) - child_time[i]
        if failed and name == "kkt.solve_kkt":
            errors += 1
    for metric, names in CALL_METRIC.items():
        metrics[metric] = sum(calls[n] for n in names)
    counts = tracer.op_counts[op]
    factors = metrics["kkt.factor_calls"]
    metrics["kkt.fill_nnz"] = counts["kkt.fill_nnz"] / factors if factors else 0.0
    metrics["kkt.unknowns"] = counts["kkt.unknowns"] / factors if factors else 0.0
    metrics["kkt.rows_dropped"] = counts["kkt.rows_dropped"]
    metrics["flow.block_misses"] = counts["flow.block_misses"]
    metrics["kkt.errors"] = errors
    solves = calls["kkt.solve_kkt"]
    metrics["kkt.refine_frac"] = metrics["kkt.trisolve_calls"] / solves - 1.0 if solves else 0.0
    metrics["trace.spans"] = len(spans)
    return metrics
