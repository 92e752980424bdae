"""Command-line front end: single runs, step-size sweeps, trace audits.

CSV table columns carry 6 significant digits (human-comparable); trace
files carry 17 (lossless for audit reuse).  Exit codes: 0 success,
1 non-convergence or audit failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .diagnostics import audit_identities, build_sweep_table
from .flow import FlowConfig, harmonic_map_system, run_flow
from .initial_data import InitSpec, make_initial
from .mesh import build_square_mesh

CSV_HEADER = "tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged"
TRACE_HEADER = "n,time,norm_udot_star,norm_dtu_l2,energy,delta_uni,res_energy_law,res_nodal_recursion"

DEFAULTS = {
    "mesh_n": 32,
    "method": "bdf2",
    "metric": "h1",
    "tau": None,
    "tau_range": None,
    "eps_stop": 1e-3,
    "t_max": 1e6,
    "init": "exact",
    "seed": 1,
    "perturb_amplitude": 0.5,
    "ref_energy": 3.009,
    "out": None,
    "trace_out": None,
    "audit": "on",
    "audit_tol": 1e-8,
}

class UsageError(Exception):
    pass


def _fmt(x, digits=6):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.{digits}g}"


def _report_row(tau, report, eoc_uni=None, eoc_ener=None):
    cells = [
        _fmt(tau),
        str(report.n_stop),
        _fmt(report.delta_uni),
        _fmt(eoc_uni),
        _fmt(report.a_sq),
        _fmt(report.b_sq),
        _fmt(report.energy_final),
        _fmt(report.delta_ener),
        _fmt(eoc_ener),
        "true" if report.converged else "false",
    ]
    return ",".join(cells)


def _trace_lines(report):
    yield TRACE_HEADER
    for rec in report.trace:
        cells = [
            str(rec.n),
            _fmt(rec.time, 17),
            _fmt(rec.norm_udot_star, 17),
            _fmt(rec.norm_dtu_l2, 17),
            _fmt(rec.energy, 17),
            _fmt(rec.delta_uni, 17),
            _fmt(rec.res_energy_law, 17),
            _fmt(rec.res_nodal_recursion, 17),
        ]
        yield ",".join(cells)


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _read_lines(path):
    try:
        with open(path) as handle:
            return handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


def load_config_file(path):
    """Parse a flat key=value configuration file with the flag declarations.

    Returns a namespace of the values set in the file; a malformed line, an
    unknown key or a bad value is a :class:`UsageError` naming ``path:line``.
    """
    parser = argparse.ArgumentParser(exit_on_error=False)
    _add_common(parser)
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
    return values


@dataclass
class CliConfig:
    subcommand: str
    mesh_n: int
    method: str
    metric: str
    tau: float | None
    tau_range: str | None
    eps_stop: float
    t_max: float
    init: str
    seed: int
    perturb_amplitude: float
    ref_energy: float
    out: str | None
    trace_out: str | None
    audit: str
    audit_tol: float

    def taus(self):
        """Step sizes 2**-m for the configured m_lo:m_hi range."""
        try:
            lo, hi = (int(part) for part in self.tau_range.split(":"))
        except (ValueError, AttributeError):
            raise UsageError(f"--tau-range expects m_lo:m_hi, got {self.tau_range!r}")
        if hi < lo:
            raise UsageError(f"--tau-range must be increasing in m, got {self.tau_range!r}")
        return [2.0**-m for m in range(lo, hi + 1)]


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--mesh-n", type=int, dest="mesh_n")
    parser.add_argument("--method", choices=("euler", "bdf2"))
    parser.add_argument("--metric", choices=("l2", "h1"))
    parser.add_argument("--tau", type=float)
    parser.add_argument("--tau-range", dest="tau_range", help="m_lo:m_hi meaning 2^-m")
    parser.add_argument("--eps-stop", type=float, dest="eps_stop")
    parser.add_argument("--t-max", type=float, dest="t_max")
    parser.add_argument("--init", choices=("exact", "perturbed", "random"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--perturb-amplitude", type=float, dest="perturb_amplitude")
    parser.add_argument("--ref-energy", type=float, dest="ref_energy")
    parser.add_argument("--out")
    parser.add_argument("--trace-out", dest="trace_out")
    parser.add_argument("--audit", choices=("on", "off"))
    parser.add_argument("--audit-tol", type=float, dest="audit_tol")


def build_parser():
    parser = argparse.ArgumentParser(prog="sphereflow")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("run", "sweep"):
        _add_common(sub.add_parser(name))
    audit = sub.add_parser("audit")
    audit.add_argument("--trace-in", dest="trace_in", required=True)
    audit.add_argument("--audit-tol", type=float, dest="audit_tol")
    return parser


def _check_audit_tol(tol):
    # NaN would make every audit comparison false, so every audit would pass
    if not tol >= 0:
        raise UsageError(f"--audit-tol must be nonnegative, got {tol}")
    return tol


def resolve_config(args):
    """Apply precedence: command-line flags beat config file beats defaults."""
    merged = dict(DEFAULTS)
    layers = [args]
    if getattr(args, "config", None):
        layers.insert(0, load_config_file(args.config))
    for layer in layers:
        for key in DEFAULTS:
            value = getattr(layer, key, None)
            if value is not None:
                merged[key] = value
    _check_audit_tol(merged["audit_tol"])
    return CliConfig(subcommand=args.subcommand, **merged)


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


def cmd_run(config):
    if config.tau is None:
        raise UsageError("run requires --tau")
    u0, system, (flow_config,) = _prepare(config, [config.tau])
    report = run_flow(u0, system, flow_config, reference_energy=config.ref_energy)

    _write(config.out, CSV_HEADER + "\n" + _report_row(config.tau, report) + "\n")
    if config.trace_out is not None:
        _write(config.trace_out, "\n".join(_trace_lines(report)) + "\n")

    status = 0 if report.converged else 1
    if config.audit == "on":
        passed, summary = audit_identities(report, tol=config.audit_tol)
        for key, value in summary.items():
            print(f"{key} = {value:.3e}" if not math.isnan(value) else f"{key} = skipped", file=sys.stderr)
        if not passed:
            status = 1
    return status


def cmd_sweep(config):
    taus = config.taus()
    if len(taus) < 2:
        raise UsageError("sweep needs at least two step sizes (use --tau-range m_lo:m_hi with m_hi > m_lo)")
    u0, system, flow_configs = _prepare(config, taus)

    reports = [run_flow(u0, system, cfg, reference_energy=config.ref_energy) for cfg in flow_configs]
    rows = build_sweep_table(taus, reports)
    lines = [CSV_HEADER]
    lines += [_report_row(row.tau, row.report, row.eoc_uni, row.eoc_ener) for row in rows]
    _write(config.out, "\n".join(lines) + "\n")

    status = 0 if all(r.converged for r in reports) else 1
    if config.audit == "on":
        if not all(audit_identities(r, tol=config.audit_tol)[0] for r in reports):
            status = 1
    return status


def cmd_audit(args):
    tol = _check_audit_tol(args.audit_tol if args.audit_tol is not None else DEFAULTS["audit_tol"])
    maxima = {"res_energy_law": 0.0, "res_nodal_recursion": 0.0}
    counted = {key: 0 for key in maxima}
    header, *rows = _read_lines(args.trace_in) or [""]
    columns = header.strip().split(",")
    missing = [key for key in maxima if key not in columns]
    if missing:
        raise UsageError(f"{args.trace_in}: not a trace file (no column {', '.join(missing)})")
    index = {key: columns.index(key) for key in maxima}
    for lineno, line in enumerate(rows, 2):
        cells = line.strip().split(",")
        for key, idx in index.items():
            if idx < len(cells) and cells[idx]:
                try:
                    value = float(cells[idx])
                except ValueError:
                    raise UsageError(f"{args.trace_in}:{lineno}: {key} is not a number: {cells[idx]!r}") from None
                # a non-finite cell sticks as nan (max(nan, x) is nan) and fails
                maxima[key] = max(maxima[key], value) if math.isfinite(value) else math.nan
                counted[key] += 1
    ok = True
    for key, value in maxima.items():
        if counted[key] == 0:
            print(f"{key}: skipped (no records)")
            continue
        print(f"{key}: max {value:.3e} over {counted[key]} steps")
        if not value <= tol:
            ok = False
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "audit":
            return cmd_audit(args)
        config = resolve_config(args)
        if args.subcommand == "run":
            return cmd_run(config)
        return cmd_sweep(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
