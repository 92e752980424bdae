"""Command-line front end: single runs, step-size sweeps, trace audits.

CSV table columns carry 6 significant digits (human-comparable); trace
files carry 17 (lossless for audit reuse).  Exit codes: 0 success,
1 non-convergence or audit failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import astuple, fields

from .diagnostics import StepRecord, audit_identities, build_sweep_table
from .flow import METHODS, METRICS, FlowConfig, harmonic_map_system, run_flow
from .initial_data import INIT_KINDS, InitSpec, make_initial
from .mesh import build_square_mesh

CSV_HEADER = "tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged"
TRACE_HEADER = ",".join(f.name for f in fields(StepRecord))

FLOWS = ("run", "sweep")
# one row per option: key (the flag without "--", with "_" for "-"; also
# the config-file key), type or tuple of choices, default, the subcommands
# that take the flag (a config file may set any key)
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
    ("perturb_amplitude", float, 0.5, FLOWS),
    ("ref_energy", float, 3.009, FLOWS),
    ("out", str, None, FLOWS),
    ("trace_out", str, None, ("run",)),
    ("audit", ("on", "off"), "on", FLOWS),
    ("audit_tol", float, 1e-8, (*FLOWS, "audit")),
)
DEFAULTS = {key: default for key, _, default, _ in OPTIONS}


class UsageError(Exception):
    pass


def _fmt(x, digits=6):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.{digits}g}"


def _report_row(row):
    report = row.report
    cells = [
        _fmt(row.tau),
        str(report.n_stop),
        _fmt(report.delta_uni),
        _fmt(row.eoc_uni),
        _fmt(report.a_sq),
        _fmt(report.b_sq),
        _fmt(report.energy_final),
        _fmt(report.delta_ener),
        _fmt(row.eoc_ener),
        "true" if report.converged else "false",
    ]
    return ",".join(cells)


def _trace_lines(report):
    yield TRACE_HEADER
    for rec in report.trace:
        n, *values = astuple(rec)
        yield ",".join([str(n), *(_fmt(x, 17) for x in values)])


def _opened(path):
    """``path`` opened for writing (a no-op context for None); an unwritable path is a usage error."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _read_lines(path):
    try:
        with open(path) as handle:
            return handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _add_options(parser, subcommand=None):
    """Add the flags that ``subcommand`` takes (None: every flag)."""
    # a flag left out sets nothing, so it cannot hide a config-file value
    for key, kind, default, subcommands in OPTIONS:
        if subcommand is None or subcommand in subcommands:
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            parser.add_argument(f"--{key.replace('_', '-')}", default=argparse.SUPPRESS,
                                help=f"default {default}", **typed)


def load_config_file(path):
    """Parse a flat key=value configuration file with the flag declarations.

    Returns a dict of the values set in the file; a malformed line, an
    unknown key or a bad value is a :class:`UsageError` naming ``path:line``.
    """
    parser = argparse.ArgumentParser(exit_on_error=False)
    _add_options(parser)
    values = argparse.Namespace()
    for lineno, line in enumerate(_read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            parser.parse_args([f"--{key.replace('_', '-')}={raw.strip()}"], namespace=values)
        except argparse.ArgumentError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
    return vars(values)


def _taus(tau_range):
    """Step sizes 2**-m for a range m_lo:m_hi."""
    try:
        lo, hi = (int(part) for part in tau_range.split(":"))
    except (ValueError, AttributeError):
        raise UsageError(f"--tau-range expects m_lo:m_hi, got {tau_range!r}")
    if hi < lo:
        raise UsageError(f"--tau-range must be increasing in m, got {tau_range!r}")
    return [2.0**-m for m in range(lo, hi + 1)]


def build_parser():
    parser = argparse.ArgumentParser(prog="sphereflow")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, about in (("run", "one run at step size --tau"),
                        ("sweep", "one run per tau = 2^-m for m in --tau-range m_lo:m_hi")):
        # no abbreviations: sweep would read --tau as --tau-range
        command = sub.add_parser(name, description=about, allow_abbrev=False)
        command.add_argument("--config", help="flat key=value config file")
        _add_options(command, name)
    audit = sub.add_parser("audit", allow_abbrev=False)
    audit.add_argument("--trace-in", dest="trace_in", required=True)
    _add_options(audit, "audit")
    return parser


def resolve_config(args):
    """Apply precedence: command-line flags beat config file beats defaults."""
    config_file = getattr(args, "config", None)
    file_values = load_config_file(config_file) if config_file else {}
    config = argparse.Namespace(**{**DEFAULTS, **file_values, **vars(args)})
    # NaN would make every audit comparison false, so every audit would pass
    if not config.audit_tol >= 0:
        raise UsageError(f"--audit-tol must be nonnegative, got {config.audit_tol}")
    return config


def _setup(config):
    mesh = build_square_mesh(config.mesh_n, lower_left=(-0.5, -0.5), side=1.0, dirichlet="boundary")
    u0 = make_initial(mesh, InitSpec(config.init, config.seed, config.perturb_amplitude))
    system = harmonic_map_system(mesh, metric=config.metric)
    return mesh, u0, system


def _prepare(config, taus):
    """Initial field, system and one FlowConfig per step size; bad values are usage errors."""
    try:
        flow_configs = [
            FlowConfig(method=config.method, tau=tau, eps_stop=config.eps_stop, t_max=config.t_max)
            for tau in taus
        ]
        _, u0, system = _setup(config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return u0, system, flow_configs


def _run_table(config, taus, trace_out=None):
    """Run each step size from one initial field; write the CSV table and, for one run, its trace.

    Both outputs are opened before the first flow, so an unwritable path
    costs no computation.  Returns the audit results (none with
    ``--audit off``) and the exit status.
    """
    u0, system, flow_configs = _prepare(config, taus)
    with _opened(config.out) as out, _opened(trace_out) as trace:
        # two handles on one file would interleave the table and the trace
        if out and trace and os.path.samestat(os.fstat(out.fileno()), os.fstat(trace.fileno())):
            raise UsageError(f"--out and --trace-out name the same file: {trace_out}")
        reports = [run_flow(u0, system, cfg, reference_energy=config.ref_energy) for cfg in flow_configs]
        rows = build_sweep_table(taus, reports)
        (out or sys.stdout).write("\n".join([CSV_HEADER, *map(_report_row, rows)]) + "\n")
        if trace is not None:
            trace.write("\n".join(_trace_lines(reports[0])) + "\n")
    audits = [audit_identities(r, tol=config.audit_tol) for r in reports] if config.audit == "on" else []
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
    taus = _taus(config.tau_range)
    if len(taus) < 2:
        raise UsageError("sweep needs at least two step sizes (use --tau-range m_lo:m_hi with m_hi > m_lo)")
    return _run_table(config, taus)[1]


def cmd_audit(config):
    maxima = {"res_energy_law": 0.0, "res_nodal_recursion": 0.0}
    counted = {key: 0 for key in maxima}
    header, *rows = _read_lines(config.trace_in) or [""]
    columns = header.strip().split(",")
    missing = [key for key in maxima if key not in columns]
    if missing:
        raise UsageError(f"{config.trace_in}: not a trace file (no column {', '.join(missing)})")
    index = {key: columns.index(key) for key in maxima}
    for lineno, line in enumerate(rows, 2):
        cells = line.strip().split(",")
        for key, idx in index.items():
            if idx < len(cells) and cells[idx]:
                try:
                    value = float(cells[idx])
                except ValueError:
                    raise UsageError(f"{config.trace_in}:{lineno}: {key} is not a number: {cells[idx]!r}") from None
                # a non-finite cell sticks as nan (max(nan, x) is nan) and fails
                maxima[key] = max(maxima[key], value) if math.isfinite(value) else math.nan
                counted[key] += 1
    ok = True
    for key, value in maxima.items():
        if counted[key] == 0:
            print(f"{key}: skipped (no records)")
            continue
        print(f"{key}: max {value:.3e} over {counted[key]} steps")
        if not value <= config.audit_tol:
            ok = False
    return 0 if ok else 1


COMMANDS = {"run": cmd_run, "sweep": cmd_sweep, "audit": cmd_audit}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.subcommand](resolve_config(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
