"""Command-line front end: single runs and step-size sweeps.

CSV table columns carry 6 significant digits (human-comparable); trace
files carry 17 (lossless).  Exit codes: 0 success, 1 non-convergence or
audit failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import astuple, fields

from .diagnostics import StepRecord, audit_identities, build_sweep_table
from .flow import METHODS, METRICS, EnergySystem, FlowConfig, run_flow, run_sweep
from .initial_data import EXACT_ENERGY, INIT_KINDS, InitSpec, make_initial
from .mesh import build_square_mesh

CSV_HEADER = "tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged"
TRACE_HEADER = ",".join(f.name for f in fields(StepRecord))

FLOWS = ("run", "sweep")
# one row per option: key (the flag without "--", with "_" for "-"), type
# or tuple of choices, default, the subcommands that take the flag
OPTIONS = (
    ("mesh_n", int, 32, FLOWS),
    ("method", METHODS, "bdf2", FLOWS),
    ("metric", METRICS, "h1", FLOWS),
    ("tau", float, None, ("run",)),
    ("tau_range", str, None, ("sweep",)),
    ("eps_stop", float, 1e-3, FLOWS),
    ("t_max", float, 1e6, FLOWS),
    ("init", INIT_KINDS, "exact", FLOWS),
    ("seed", int, 1, FLOWS),
    ("perturb_amplitude", float, InitSpec.perturb_amplitude, FLOWS),
    ("out", str, None, FLOWS),
    ("trace_out", str, None, ("run",)),
)
DEFAULTS = {key: default for key, _, default, _ in OPTIONS}


class UsageError(Exception):
    pass


def _fmt(x, digits=6):
    return "" if math.isnan(x) else f"{x:.{digits}g}"


def _report_row(row):
    report = row.report
    cells = [
        _fmt(report.tau),
        str(report.n_stop),
        _fmt(report.delta_uni),
        _fmt(row.eoc_uni),
        _fmt(report.a_sq),
        _fmt(report.b_sq),
        _fmt(report.energy_final),
        _fmt(row.delta_ener),
        _fmt(row.eoc_ener),
        "true" if report.converged else "false",
    ]
    return ",".join(cells)


def _trace_row(rec):
    n, *values = astuple(rec)
    return ",".join([str(n), *(_fmt(x, 17) for x in values)])


def _opened(path):
    """``path`` opened for writing (a no-op context for None); an unwritable path is a usage error."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _taus(tau_range):
    """Step sizes 2**-m for a range m_lo:m_hi; tau is monotone in m, so :class:`FlowConfig` checks the end points."""
    try:
        lo, hi = (int(part) for part in tau_range.split(":"))
    except ValueError:
        raise UsageError(f"--tau-range expects m_lo:m_hi, got {tau_range!r}")
    if hi < lo:
        raise UsageError(f"--tau-range must be increasing in m, got {tau_range!r}")
    for m in (lo, hi):
        try:
            FlowConfig(tau=2.0**-m)
        except OverflowError:
            raise UsageError(f"--tau-range {tau_range}: step size 2^{-m} is too large: it overflows") from None
        except ValueError as exc:
            raise UsageError(f"--tau-range {tau_range}: {exc}") from None
    return [2.0**-m for m in range(lo, hi + 1)]


def build_parser():
    parser = argparse.ArgumentParser(prog="sphereflow")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, about in (("run", "one run at step size --tau"),
                        ("sweep", "one run per tau = 2^-m for m in --tau-range m_lo:m_hi")):
        # no abbreviations: sweep would read --tau as --tau-range
        command = sub.add_parser(name, description=about, allow_abbrev=False)
        # a flag left out sets nothing; resolve_config gives it its default
        for key, kind, default, subcommands in OPTIONS:
            if name in subcommands:
                typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
                command.add_argument(f"--{key.replace('_', '-')}", default=argparse.SUPPRESS,
                                     help=f"default {default}", **typed)
    return parser


def resolve_config(args):
    """The parsed flags over the defaults: every option, whichever subcommand takes it."""
    return argparse.Namespace(**{**DEFAULTS, **vars(args)})


def _setup(config):
    mesh = build_square_mesh(config.mesh_n)
    u0 = make_initial(mesh, InitSpec(config.init, config.seed, config.perturb_amplitude))
    system = EnergySystem(mesh, metric=config.metric)
    return mesh, u0, system


def _run_table(config, taus, trace_out=None):
    """Run each step size from one initial field; write the CSV table and, for one run, its trace.

    With a trace, the one flow writes each step's row as it finishes, so a
    flow that fails leaves the rows of the steps before.  Both outputs are
    opened before the first flow, so an unwritable path costs no
    computation; a run that fails removes a table file it created (still
    empty), never a path that was there before.  A ``ValueError`` of the
    configs, the set-up or the flows is a usage error.  Returns the audit
    results and the exit status.
    """
    new_out = config.out is not None and not os.path.lexists(config.out)
    try:
        flow_configs = [
            FlowConfig(method=config.method, tau=tau, eps_stop=config.eps_stop, t_max=config.t_max)
            for tau in taus
        ]
        _, u0, system = _setup(config)
        with _opened(config.out) as out, _opened(trace_out) as trace:
            # two handles on one file would interleave the table and the trace
            if out and trace and os.path.samestat(os.fstat(out.fileno()), os.fstat(trace.fileno())):
                raise UsageError(f"--out and --trace-out name the same file: {trace_out}")
            if trace is None:
                reports = run_sweep(u0, system, flow_configs)
            else:
                trace.write(TRACE_HEADER + "\n")
                reports = [run_flow(u0, system, flow_configs[0],
                                    on_step=lambda rec: trace.write(_trace_row(rec) + "\n"))]
            rows = build_sweep_table(reports, EXACT_ENERGY)
            (out or sys.stdout).write("\n".join([CSV_HEADER, *map(_report_row, rows)]) + "\n")
    except BaseException as exc:
        if new_out and os.path.lexists(config.out):
            os.remove(config.out)
        if isinstance(exc, ValueError):
            raise UsageError(str(exc)) from exc
        raise
    audits = [audit_identities(r) for r in reports]
    ok = all(r.converged for r in reports) and all(passed for passed, _ in audits)
    return audits, 0 if ok else 1


def cmd_run(config):
    if config.tau is None:
        raise UsageError("run requires --tau")
    audits, status = _run_table(config, [config.tau], config.trace_out)
    for _, summary in audits:
        for key, value in summary.items():
            print(f"{key} = {value:.3e}" if not math.isnan(value) else f"{key} = skipped", file=sys.stderr)
    return status


def cmd_sweep(config):
    if config.tau_range is None:
        raise UsageError("sweep requires --tau-range")
    taus = _taus(config.tau_range)
    if len(taus) < 2:
        raise UsageError("sweep needs at least two step sizes (use --tau-range m_lo:m_hi with m_hi > m_lo)")
    return _run_table(config, taus)[1]


COMMANDS = {"run": cmd_run, "sweep": cmd_sweep}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.subcommand](resolve_config(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
