"""Rebuild the ROADMAP baseline table with one command.

    python3 perfbench/baseline.py [--seed N]

Runs certify, convert and sweep one after another in traced mode (per
workload: set-up, untraced passes for half of BENCHMARK.json's
run_seconds, one traced pass) and
prints, per flagship, the build time and the verify time with exact
component checks (certify), the verify time without them through the CLI
(sweep) and the execute time per codeword (convert), each the median over
the untraced passes, plus each workload's tracing overhead.  The table,
the overheads and the machine details (Python version, nproc, CPU model,
git commit, seed) go to .perfbench_work/baseline-seed<N>.json; each
workload also leaves its trace file there.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BASELINE_COLUMNS, format_baseline, load_spec, machine_info, run, use_sources
from workloads import WORK

# which workload measures each baseline column
SOURCE = {"build_ms": "certify", "verify_on_ms": "certify",
          "verify_off_cli_ms": "sweep", "execute_us": "convert"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rebuild the stripemerge baseline table")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not use_sources():
        print("baseline: no stripemerge sources under src/", file=sys.stderr)
        return 2
    seconds = load_spec()["run_seconds"]

    table: dict = {}
    runs = {}
    for workload in ("certify", "convert", "sweep"):
        out = run(workload, args.seed, seconds, trace=True)
        runs[workload] = {"attempted": out["attempted"], "failed": out["failed"],
                          "trace_overhead_pct": out["metrics"]["trace.overhead_pct"],
                          "results_file": out["results_file"]}
        for name, row in out["baseline"].items():
            dst = table.setdefault(name, dict.fromkeys(BASELINE_COLUMNS))
            for col, value in row.items():
                if SOURCE[col] == workload:
                    dst[col] = value
        for problem in out["problems"][:20]:
            print(f"baseline: {workload}: {problem}", file=sys.stderr)

    table = dict(sorted(table.items()))
    for line in format_baseline(table):
        print(line)
    for workload, r in runs.items():
        print(f"{workload}: {r['attempted']} ops, {r['failed']} failed, "
              f"tracing overhead {r['trace_overhead_pct']:.1f} %")
    path = WORK / f"baseline-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine_info(args.seed), "seconds": seconds,
                   "table": table, "runs": runs}, fh, indent=1)
    print(f"written to {path}")
    return 0 if all(r["failed"] == 0 for r in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
