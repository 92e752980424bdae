"""Record reference N_stop and energy per CSV row into references.json.

Run from the repository root at a commit whose outputs are trusted:

    python3 bench/record_references.py

The perturbed workloads are recorded for each seed in SEEDS; the seed-free
workload (exact initial data) is recorded once, under "any".  Operations
must pass every check except the reference comparison itself.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

SEEDS = range(16)


def main():
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.ROOT / "src"))
    from sphereflow import cli

    references = {}
    for workload in workloads.WORKLOADS.values():
        seeds = [None] if workload.init == "exact" else SEEDS
        records = references[workload.name] = {}
        for seed in seeds:
            _, calls = run.run_operation(cli.main, workload.argvs(seed))
            problems, _ = workloads.check_operation(workload, seed, calls, None)
            if problems:
                sys.exit(f"{workload.name} seed {seed}: {problems}")
            records["any" if seed is None else str(seed)] = {
                method: [[int(row["N_stop"]), float(row["energy"])] for row in workloads.parse_csv(stdout)]
                for method, (_, stdout, _) in zip(workload.methods, calls)
            }
            print(workload.name, seed, "recorded", flush=True)
    with open(workloads.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
