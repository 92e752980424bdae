"""sphereflow benchmark: time to solution, per-step cost, set-up time and memory.

Run from the repository root:

    python3 bench/run.py --workload bdf2-n32 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

With ``--trace 0`` one process repeats the workload operation until the next
repeat would overrun ``--seconds`` (at least two repeats), with a batch of
set-up calls before each and after the last, and reports the median
``wall_s`` and ``ms_per_step``, the fastest set-up call as ``setup_s`` and
the process's peak resident memory.  With
``--trace 1`` it runs the operation once untraced and twice traced, checks
that the traced output is byte-identical and that the exact counts repeat,
and reports per-layer metrics derived from the spans, which it writes to
``.bench_out/``.  Every operation is checked (exit code, audits, reference
N_stop and energy, EOC bands); the last stdout line is the JSON result.
BLAS and OpenMP are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# neither module imports numpy or sphereflow at import time
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPERATIONS = 2
MIN_SETUPS = 5
SETUP_SECONDS = 0.5
TRACED_OPERATIONS = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ms_per_step": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="data seed of the perturbed workloads")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_operation(main, argvs):
    """Run one workload operation; return its wall time and per-call results."""
    buffers = [(io.StringIO(), io.StringIO()) for _ in argvs]
    codes = []
    start = perf_counter()
    for argv, (out, err) in zip(argvs, buffers):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(main(argv))
    wall = perf_counter() - start
    return wall, [(code, out.getvalue(), err.getvalue()) for code, (out, err) in zip(codes, buffers)]


class Session:
    """Operations of one run, each checked against the workload's references."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.argvs = workload.argvs(seed)
        self.references = workloads.load_references()
        self.attempted = 0
        self.failed = 0
        self.first_output = None
        self.steps = None

    def operation(self, main):
        """Run and check one operation; return its wall time (None if it failed)."""
        self.attempted += 1
        try:
            wall, calls = run_operation(main, self.argvs)
        except Exception as exc:  # an exception in the package fails the operation
            self._fail([f"{type(exc).__name__}: {exc}"])
            return None
        problems, steps = workloads.check_operation(self.workload, self.seed, calls, self.references)
        if self.first_output is None:
            self.first_output = calls
            self.steps = steps
        elif calls != self.first_output:
            problems.append("output differs from the first operation of this run")
        if problems:
            self._fail(problems)
            return None
        return wall

    def _fail(self, problems):
        self.failed += 1
        for problem in problems:
            print(f"FAILED {self.workload.name} operation {self.attempted}: {problem}", file=sys.stderr)


def setup_call(argv):
    """The CLI's own set-up for ``argv`` (mesh, initial data, energy system)."""
    from sphereflow import cli

    config = cli.resolve_config(cli.build_parser().parse_args(argv))
    return functools.partial(cli._setup, config)


def measure_setups(setup, times):
    """Append set-up times for about SETUP_SECONDS (at least MIN_SETUPS)."""
    budget_start = perf_counter()
    count = 0
    while count < MIN_SETUPS or perf_counter() - budget_start < SETUP_SECONDS:
        start = perf_counter()
        setup()
        times.append(perf_counter() - start)
        count += 1


def run_untraced(session, seconds):
    """Alternate set-up batches and operations, so both sample the same load."""
    from sphereflow import cli

    setup = setup_call(session.argvs[0])
    setup()  # loads lazily imported code
    setups, walls = [], []
    start = perf_counter()
    while True:
        measure_setups(setup, setups)
        wall = session.operation(cli.main)
        if wall is None:
            break
        walls.append(wall)
        elapsed = perf_counter() - start
        if len(walls) >= MIN_OPERATIONS and elapsed + statistics.median(walls) + SETUP_SECONDS > seconds:
            break
    measure_setups(setup, setups)
    record = {"setups": len(setups), "walls_s": walls, "steps": session.steps}
    if not walls:
        return {}, record
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": wall_s,
        # the fastest call: slow calls are the host's preemption and
        # contention, which a median of a few dozen calls does not remove
        "setup_s": min(setups),
        "ms_per_step": 1000.0 * wall_s / session.steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, record


def run_traced(session):
    from sphereflow import cli

    untraced = session.operation(cli.main)
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    walls, per_op = [], []
    for op in range(1, TRACED_OPERATIONS + 1):
        tracer.begin_operation(op)
        with spans.instrumented(tracer) as missing:
            wall = session.operation(traced_main)
        if wall is not None:
            walls.append(wall)
            per_op.append(spans.operation_metrics(tracer, op))
    record = {"unwrapped": missing, "untraced_wall_s": untraced, "traced_walls_s": walls, "steps": session.steps}
    if untraced is None or len(per_op) < TRACED_OPERATIONS:
        return {}, record

    mismatched = [name for name in spans.EXACT_COUNTS if len({m[name] for m in per_op}) != 1]
    if mismatched:
        session.failed += 1
        for name in mismatched:
            print(f"FAILED exact-count self-check: {name} differs between traced operations: "
                  f"{[m[name] for m in per_op]}", file=sys.stderr)
        return {}, record

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{session.workload.name}-seed{session.seed}.csv.gz"
    tracer.write(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))

    metrics = {}
    for name, first in per_op[0].items():
        unit = _layer_unit(name)
        # times are medians over the traced operations; counts repeat exactly
        metrics[name] = (statistics.median(m[name] for m in per_op) if unit == "s" else first, unit)
    metrics["trace.overhead_s"] = (statistics.median(walls) - untraced, "s")
    return metrics, record


def _layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "kkt.fill_nnz":
        return "nnz"
    if name == "kkt.unknowns":
        return "unknowns"
    return "count"


def run_one(args):
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'")
    import sphereflow

    if Path(sphereflow.__file__).resolve().parent != ROOT / "src" / "sphereflow":
        sys.exit(f"sphereflow imported from {sphereflow.__file__}, not from this checkout")

    session = Session(workload, args.seed)
    if args.trace:
        metrics, record = run_traced(session)
    else:
        metrics, record = run_untraced(session, args.seconds)
    failed_frac = session.failed / session.attempted
    record.update(workload=workload.name, seed=args.seed, trace=args.trace, why=workload.why,
                  failed_frac=failed_frac, machine=machine_record())
    print("# run " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:16s} {name:28s} {value:14.6g} {unit}")
    print(f"{workload.name:16s} {'failed_frac':28s} {failed_frac:14.6g} ratio")
    result = {
        "correct": session.failed == 0 and bool(metrics),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.exit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "sphereflow" / "__init__.py").is_file():
        sys.exit(f"no sphereflow sources under {ROOT / 'src'}; run from a checkout of the repository")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
