"""Benchmark workloads: CLI argument lists and output checks.

Each workload is one operation made of one or more ``sphereflow.cli.main``
calls.  The perturbed workloads take their data only from the seed; the
smooth workload has no random input.  Why each workload exists is recorded
in ``why`` (and in README.md): each layer does most of the work in one
workload and little in another.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

CSV_HEADER = "tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged"
AUDIT_TOL = 1e-8
# identities that only the two-step scheme has; Euler reports them skipped
TWO_STEP_AUDITS = ("res_energy_law", "res_nodal_recursion")
AUDIT_KEYS = ("res_init", "res_energy_law", "res_nodal_recursion", "res_closed_form", "mono_violation")
# energies are printed with 6 significant digits: allow one unit in the last
ENERGY_ABS_TOL = 1.5e-5
# unrecorded seeds: N_stop and energy must lie within the recorded seeds'
# range widened on each side by its own width plus a floor
N_STOP_FLOOR = 2
ENERGY_FLOOR = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    methods: tuple
    mesh_n: int
    step_args: tuple
    init: str
    eoc_bands: dict | None = None

    def argvs(self, seed):
        """The ``sphereflow`` argument lists of one operation."""
        init = ["--init", self.init]
        if self.init != "exact":
            init += ["--perturb-amplitude", "0.5", "--seed", str(seed)]
        return [
            [self.subcommand, "--mesh-n", str(self.mesh_n), "--method", method, "--metric", "h1",
             *self.step_args, *init]
            for method in self.methods
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bdf2-n32",
            why="paper's 32x32 BDF2 run on rough data: LU refactoring dominates, so any KKT backend change shows",
            subcommand="run",
            methods=("bdf2",),
            mesh_n=32,
            step_args=("--tau", "0.03125"),
            init="perturbed",
        ),
        Workload(
            name="bdf2-n64-smooth",
            why="largest system (15,876 unknowns) on smooth data: factorization and LU fill set time and peak memory",
            subcommand="run",
            methods=("bdf2",),
            mesh_n=64,
            step_args=("--tau", "0.0625", "--eps-stop", "1e-6"),
            init="exact",
        ),
        Workload(
            name="dichotomy-n8",
            why="Euler-vs-BDF2 tau sweep at N=8: per-step Python, assembly and audit overhead, not factorization",
            subcommand="sweep",
            methods=("bdf2", "euler"),
            mesh_n=8,
            step_args=("--tau-range", "2:7"),
            init="perturbed",
            eoc_bands={"bdf2": (1.6, 2.2), "euler": (0.85, 1.15)},
        ),
    )
}


def load_references():
    with open(REFERENCES) as handle:
        return json.load(handle)


def parse_csv(text):
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    return [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]


def _audit_problems(stderr, method):
    problems = []
    seen = set()
    for line in stderr.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep or key not in AUDIT_KEYS:
            problems.append(f"unexpected stderr line {line!r}")
            continue
        seen.add(key)
        if value == "skipped":
            if method != "euler" or key not in TWO_STEP_AUDITS:
                problems.append(f"{key} skipped on a {method} run")
        elif not float(value) <= AUDIT_TOL:
            problems.append(f"audit {key} = {value} above {AUDIT_TOL:g}")
    return problems, seen


def check_operation(workload, seed, calls, references):
    """Check one operation's CLI results; return (problems, steps taken).

    ``calls`` holds one (exit code, stdout, stderr) triple per argument list.
    A run prints its audit lines on stderr; a sweep folds its audits into
    the exit code.  Each CSV row must have converged and match the recorded
    N_stop and energy for this seed, or, for a seed with no record, lie
    within the range of the recorded seeds.  ``references=None`` skips that
    comparison (used when recording references).
    """
    problems = []
    steps = 0
    for method, (code, stdout, stderr) in zip(workload.methods, calls):
        if code != 0:
            problems.append(f"{method}: exit code {code}")
        audit_problems, seen = _audit_problems(stderr, method)
        problems += [f"{method}: {p}" for p in audit_problems]
        if workload.subcommand == "run" and seen != set(AUDIT_KEYS):
            problems.append(f"{method}: audit lines missing: {sorted(set(AUDIT_KEYS) - seen)}")
        try:
            rows = parse_csv(stdout)
        except ValueError as exc:
            problems.append(f"{method}: {exc}")
            continue
        steps += sum(int(row["N_stop"]) for row in rows)
        problems += [f"{method}: tau {row['tau']} did not converge" for row in rows if row["converged"] != "true"]
        if references is not None:
            recorded = references.get(workload.name, {})
            problems += [f"{method}: {p}" for p in _reference_problems(rows, recorded, method, str(seed))]
        if workload.eoc_bands is not None:
            lo, hi = workload.eoc_bands[method]
            last = rows[-1]["eoc_uni"] if rows else ""
            if not (last and lo <= float(last) <= hi):
                problems.append(f"{method}: last EOC {last!r} outside [{lo}, {hi}]")
    return problems, steps


def _reference_problems(rows, recorded, method, seed):
    """Compare (N_stop, energy) per row with this seed's record or the recorded range."""
    series = [(int(row["N_stop"]), float(row["energy"])) for row in rows]
    exact = recorded.get(seed, recorded.get("any"))
    if exact is not None:
        expected = [tuple(pair) for pair in exact[method]]
        if len(expected) != len(series):
            return [f"{len(series)} rows, reference has {len(expected)}"]
        return [
            f"row {i}: N_stop/energy {got} differ from reference {want}"
            for i, (got, want) in enumerate(zip(series, expected))
            if got[0] != want[0] or not math.isclose(got[1], want[1], rel_tol=0.0, abs_tol=ENERGY_ABS_TOL)
        ]
    known = [record[method] for record in recorded.values()]
    if not known or any(len(k) != len(series) for k in known):
        return [f"no reference with {len(series)} rows for this workload"]
    problems = []
    for i, pair in enumerate(series):
        for column, (label, floor) in enumerate((("N_stop", N_STOP_FLOOR), ("energy", ENERGY_FLOOR))):
            value = pair[column]
            lo = min(k[i][column] for k in known)
            hi = max(k[i][column] for k in known)
            slack = hi - lo + floor
            if not lo - slack <= value <= hi + slack:
                problems.append(f"row {i}: {label} {value} outside recorded range [{lo}, {hi}] +- {slack:g}")
    return problems
