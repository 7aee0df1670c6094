"""Benchmark of stripemerge: certify, convert and sweep workloads.

    python3 perfbench/run.py --workload certify|convert|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  Each workload is one closed-loop client in one process with no
extra threads.  Set-up (import, fields and groups, inputs made from the
seed, and for convert the bundles) runs at least five times and for at
least two seconds, and reports the median.  The timed loop then runs
whole passes over the workload's inputs until S seconds have passed,
checking every output (see workloads.py).

--trace 0 prints the end-to-end metrics: setup_s, op_p50_ms, ops_per_s
and peak_rss_mb, plus op_p90_ms (when the run has at least P90_MIN_OPS
ops; the report gives the sample count and how many lie beyond it),
read_payload_MBps (convert) and failed_frac.

Every time among these is scaled to a reference host speed.  On a shared
host the speed at which one core runs Python swings by up to half within
seconds to minutes, so raw times of the same code differ between runs by
more than any useful bound.  The run therefore times a fixed pure-Python
loop (`reference()`, which calls no library code) in the gaps before and
after each set-up and each op, and multiplies the set-up or op's time by
REF_NOMINAL_S / (mean reference time in those two gaps); see HostSpeed.
The host's speed changes within a second, so only reference times right
next to an op track it well.  After each event the gap holds as many
reference times as take REF_SHARE of the event's time, and at least one,
so that a long op is scaled by a steady mean.  A library that gets
faster still shows in full, since the loop does not use it.  The report
prints the raw times and the run's median reference time beside the
scaled ones.

--trace 1 runs whole passes untraced for half of S, then sets up again
and runs one pass with the tracer installed (tracer.py), and prints the
per-layer metrics of that traced work, the tracing overhead against the
untraced pass and the baseline rows this workload measures; it writes
spans and machine details to .perfbench_work/trace-<workload>-seed<N>.json.  The inputs,
expected outputs and checks of the traced set-up and pass run with the
tracer paused, so the per-layer figures are the library's own.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metrics are the end_to_end
(trace 0) or per_layer (trace 1) list of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import LAYERS, Tracer
from workloads import WORK, WORKLOADS, OpResult, load_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set up at least SETUP_REPS times and until SETUP_SECONDS have been spent
# (at most MAX_SETUP_REPS times), so that a cheap set-up still gets a
# steady median
SETUP_REPS, SETUP_SECONDS, MAX_SETUP_REPS = 5, 2.0, 40
P90_MIN_OPS = 20  # op_p90_ms is reported from this many ops on
# The reference loop's time on a quiet 2-vCPU Xeon host under CPython
# 3.11, which every end-to-end time is scaled to
REF_NOMINAL_S = 0.017
REF_SHARE = 0.1

# The per-layer metrics the traced run reports, by layer.  BENCHMARK.json
# carries every count but only the times that all three workloads
# exercise, so that none of its times reads zero on every run.
LAYER_REPORT = {
    "field": ["field.add_enc.calls", "field.sub_enc.calls", "field.mul_enc.calls",
              "field.inv_enc.calls", "field.self_s", "field.field_create.total_s"],
    "poly": ["poly.mul.calls", "poly.divmod.calls", "poly.eval.calls", "poly.self_s"],
    "matrix": ["matrix.rank_of_rows.calls", "matrix.rank_of_rows.cells",
               "matrix.rank_of_rows.self_s", "matrix.rref.calls", "matrix.rref.self_s",
               "matrix.kernel.calls"],
    "codes": ["codes.distance_at_least.calls", "codes.distance_at_least.self_s", "codes.subsets",
              "codes.subset_budget_max_share", "codes.check_locality.calls",
              "codes.check_locality.total_s", "codes.contains.calls", "codes.contains.self_s",
              "codes.encode.calls", "codes.encode.self_s"],
    "grs": ["grs.grs_code.calls", "grs.grs_code.total_s", "grs.grs_dual_prescribed.calls",
            "grs.grs_dual_prescribed.total_s"],
    "pgl": ["pgl.eval_at.calls", "pgl.eval_at.self_s", "pgl.substitute.calls",
            "pgl.substitute.self_s", "pgl.split_structure.total_s",
            "pgl.fixed_field_generator.total_s", "pgl.group.total_s"],
    "bounds": ["bounds.total_lower.calls", "bounds.self_s"],
    "convert": [f"convert.build_{kind}.{what}" for kind in ("mds_merge", "lrc_merge", "mds_to_lrc")
                for what in ("calls", "total_s", "self_s")]
    + ["convert.execute.calls", "convert.execute.self_s", "convert.verify_convertible.calls",
       "convert.verify_convertible.total_s", "convert.verify_convertible.self_s",
       "convert.verify.executes", "convert.read_symbols", "convert.written_symbols"],
    "sim": ["sim.simulate.calls", "sim.simulate.self_s", "sim.node_reads", "sim.node_writes"],
    "cli": ["cli.main.calls", "cli.main.self_s", "cli.bytes_in", "cli.bytes_out",
            "cli.exit_nonzero"],
}

# baseline column -> (workload step it is the median of, scale)
BASELINE_COLUMNS = {
    "build_ms": ("build", 1e3),
    "verify_on_ms": ("verify_on", 1e3),
    "verify_off_cli_ms": ("verify_off_cli", 1e3),
    "execute_us": ("execute_per_codeword", 1e6),
}

_pc = time.perf_counter

# The reference loop sums random entries of a table keyed by pairs: a
# working set of a few MB, as the library's element objects and tables
# have.  Timed beside each workload's ops under load, a loop over a few
# small ints followed the ops' slow-downs less closely on all three.
_REF_TABLE = {(i, j): i * j % 1009 for i in range(200) for j in range(200)}
_ref_rng = random.Random(0)
_REF_KEYS = [(_ref_rng.randrange(200), _ref_rng.randrange(200)) for _ in range(50_000)]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("share"):
        return "ratio"
    if name.startswith("cli.bytes"):
        return "B"
    return "count"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def use_sources() -> bool:
    """Put the checkout's src/ first on the import path; False if it has no library."""
    if not (SRC / "stripemerge" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def import_library() -> SimpleNamespace:
    """Import stripemerge afresh, dropping any earlier import of it."""
    for name in [n for n in sys.modules if n == "stripemerge" or n.startswith("stripemerge.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"stripemerge.{m}") for m in LAYERS})


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop that calls no library code."""
    table, s = _REF_TABLE, 0
    t0 = _pc()
    for _ in range(2):
        for key in _REF_KEYS:
            s = (s + table[key]) % 1009
    return _pc() - t0


class HostSpeed:
    """Reference times taken in the gaps between the timed events (set-ups
    or ops) of a run: gaps[k] comes before event k and after event k-1."""

    def __init__(self):
        self.gaps: list[list[float]] = [[reference()]]

    def after_event(self, seconds: float) -> None:
        gap = [reference()]
        while sum(gap) < REF_SHARE * seconds:
            gap.append(reference())
        self.gaps.append(gap)

    def factors(self) -> list[float]:
        """Per event, REF_NOMINAL_S over the mean reference time in the
        gaps before and after it."""
        return [REF_NOMINAL_S * (len(before) + len(after)) / (sum(before) + sum(after))
                for before, after in zip(self.gaps, self.gaps[1:])]


def setup(workload, seed: int):
    """Set up repeatedly, with reference times before and after each
    set-up; return the last state, the set-up times and the HostSpeed."""
    totals, host, st = [], HostSpeed(), None
    while len(totals) < SETUP_REPS or (
        sum(totals) < SETUP_SECONDS and len(totals) < MAX_SETUP_REPS
    ):
        if st is not None:
            workload.teardown(st)
            st = None
        gc.collect()  # every set-up starts from a collected heap
        t0 = _pc()
        st = workload.setup(import_library(), seed)
        totals.append(_pc() - t0)
        host.after_event(totals[-1])
    return st, totals, host


def run_op(workload, st, i: int) -> OpResult:
    t0 = _pc()
    try:
        return workload.op(st, i)
    except Exception as exc:  # a failing op is counted, and the run goes on
        return OpResult(_pc() - t0, [f"op {i}: {type(exc).__name__}: {exc}"])


def measure(workload, st, seconds: float, host: HostSpeed | None = None) -> list:
    """Whole passes of ops, until `seconds` have passed, with reference
    times between ops when `host` is given."""
    results, i, start = [], 0, _pc()
    while True:
        results.append(run_op(workload, st, i))
        i += 1
        if host is not None:
            host.after_event(results[-1].seconds)
        if i % st.round == 0 and _pc() - start >= seconds:
            return results


def end_to_end(results: list, setup_s: float, scales: list | None = None) -> dict:
    """End-to-end metrics; each op's time is multiplied by its entry in `scales`."""
    lat = [r.seconds * f for r, f in zip(results, scales or [1.0] * len(results))]
    m = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": sum(1 for r in results if r.problems) / len(results),
    }
    if len(lat) >= P90_MIN_OPS:
        m["op_p90_ms"] = statistics.quantiles(lat, n=10)[8] * 1e3
    read_bytes = sum(r.read_bytes for r in results)
    if read_bytes:
        m["read_payload_MBps"] = read_bytes / sum(lat) / 1e6
    return m


def baseline_rows(steps: dict) -> dict:
    """Rows of the ROADMAP baseline table from untraced step times: build
    and verify with component checks (certify), verify without them
    through the CLI (sweep) and execute per codeword (convert)."""
    catalog = load_json("instances.json")
    keep = set(catalog["flagships"]) | set(catalog["convert"])
    rows: dict = {}
    for (name, step), values in steps.items():
        if name in keep:
            rows.setdefault(name, {})[step] = statistics.median(values)
    return {name: {col: r[step] * scale if step in r else None
                   for col, (step, scale) in BASELINE_COLUMNS.items()}
            for name, r in sorted(rows.items())}


def format_baseline(table: dict) -> list[str]:
    lines = [f"{'instance':<24}" + "".join(f"{c:>19}" for c in BASELINE_COLUMNS)]
    for name, row in table.items():
        cells = "".join(f"{'-' if v is None else f'{v:.3f}':>19}" for v in row.values())
        lines.append(f"{name:<24}{cells}")
    return lines


def machine_info(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def traced_pass(workload, lib, seed: int):
    """Set up again and run one pass of ops with the tracer installed."""
    tracer, st, results = Tracer(), None, []
    tracer.install()
    try:
        with tracer.span("bench.setup", -1):
            st = workload.setup(lib, seed, quiet=tracer.paused)
        for i in range(st.round):
            with tracer.span("bench.op", i):
                results.append(run_op(workload, st, i))
    finally:
        tracer.uninstall()
        if st is not None:
            workload.teardown(st)
    return tracer, results


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns everything main() prints."""
    workload = WORKLOADS[name]
    st, setups, setup_host = setup(workload, seed)
    setup_s = statistics.median(setups)
    gc.collect()
    host = None if trace else HostSpeed()  # a traced run reports no scaled times
    try:
        results = measure(workload, st, seconds / 2 if trace else seconds, host)
    finally:
        workload.teardown(st)
    out: dict = {"workload": name, "seed": seed, "setup_reps": len(setups),
                 "baseline": baseline_rows(st.steps)}
    if not trace:
        scaled_setup_s = statistics.median(
            t * f for t, f in zip(setups, setup_host.factors()))
        out["metrics"] = end_to_end(results, scaled_setup_s, host.factors())
        out["raw"] = end_to_end(results, setup_s)
        refs = [r for h in (setup_host, host) for gap in h.gaps for r in gap]
        out["reference"] = {"median_ms": statistics.median(refs) * 1e3, "samples": len(refs)}
    else:
        passes = [sum(r.seconds for r in results[k: k + st.round])
                  for k in range(0, len(results), st.round)]
        tracer, traced = traced_pass(workload, st.lib, seed)
        results += traced
        metrics = tracer.summary()
        metrics["trace.overhead_pct"] = 100 * (
            sum(r.seconds for r in traced) / statistics.median(passes) - 1
        )
        out.update(metrics=metrics, untraced_passes=len(passes), traced_ops=len(traced),
                   results_file=str(WORK / f"trace-{name}-seed{seed}.json"))
        WORK.mkdir(parents=True, exist_ok=True)
        with open(out["results_file"], "w", encoding="utf-8") as fh:
            json.dump({"machine": machine_info(seed), "workload": name, "seconds": seconds,
                       "per_layer": metrics, "baseline": out["baseline"],
                       "untraced_setup_s": setup_s,
                       "spans": tracer.spans_table()}, fh)
    out["attempted"] = len(results)
    if "op_p90_ms" in out["metrics"]:
        out["beyond_p90"] = sum(1 for r in results if r.seconds * 1e3 > out["raw"]["op_p90_ms"])
    out["failed"] = sum(1 for r in results if r.problems)
    out["problems"] = [p for r in results for p in r.problems]
    return out


def report_lines(out: dict, trace: bool) -> list[str]:
    lines = [f"workload {out['workload']} seed {out['seed']}: {out['attempted']} ops, "
             f"{out['failed']} failed"]
    m = out["metrics"]
    if not trace:
        raw, ref = out["raw"], out["reference"]
        lines.append(f"  times scaled to a reference loop time of {REF_NOMINAL_S * 1e3:.1f} ms; "
                     f"this run's median {ref['median_ms']:.3f} ms over {ref['samples']} samples "
                     f"(raw values in brackets)")
        lines.append(f"  setup_s            {m['setup_s']:.4f} s [{raw['setup_s']:.4f}] "
                     f"(median of {out['setup_reps']} set-ups)")
        lines.append(f"  op_p50_ms          {m['op_p50_ms']:.4f} ms [{raw['op_p50_ms']:.4f}] "
                     f"({out['attempted']} samples)")
        if "op_p90_ms" in m:
            lines.append(f"  op_p90_ms          {m['op_p90_ms']:.4f} ms [{raw['op_p90_ms']:.4f}] "
                         f"({out['attempted']} samples, {out['beyond_p90']} beyond it)")
        lines.append(f"  ops_per_s          {m['ops_per_s']:.4f} 1/s [{raw['ops_per_s']:.4f}]")
        if "read_payload_MBps" in m:
            lines.append(f"  read_payload_MBps  {m['read_payload_MBps']:.6f} MB/s "
                         f"[{raw['read_payload_MBps']:.6f}] (1 B per symbol)")
        lines.append(f"  failed_frac        {m['failed_frac']:.4f}")
        lines.append(f"  peak_rss_mb        {m['peak_rss_mb']:.2f} MB")
    else:
        lines.append(f"  per-layer metrics over one traced set-up and one traced pass of "
                     f"{out['traced_ops']} ops")
        for layer, names in LAYER_REPORT.items():
            if not any(m[n] for n in names):
                lines.append(f"  {layer}: not called by this workload")
                continue
            for n in names:
                lines.append(f"  {n:<36} {m[n]:.6g} {unit_of(n)}")
        lines.append(f"  trace.overhead_pct                   {m['trace.overhead_pct']:.2f} % "
                     f"(traced pass vs median of {out['untraced_passes']} untraced passes)")
        cost = m["trace.field_wrapper_s"]
        lines.append(f"  self_s of spans that call field ops include the tracer's cost of about "
                     f"{cost * 1e9:.0f} ns per outermost field call: {m['trace.field_outer_calls']} "
                     f"calls, {m['trace.field_outer_calls'] * cost:.3f} s in all")
        lines.append(f"  spans and machine details: {out['results_file']}")
    lines.append("  baseline (untraced medians):")
    lines += ["    " + ln for ln in format_baseline(out["baseline"])]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stripemerge benchmark")
    parser.add_argument("--workload", required=True, choices=["certify", "convert", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not use_sources():
        print(f"perfbench: no stripemerge sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()

    trace = bool(args.trace)
    out = run(args.workload, args.seed, args.seconds, trace)
    for line in report_lines(out, trace):
        print(line)
    for problem in out["problems"][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {w["name"]: {"value": out["metrics"][w["name"]], "unit": w["unit"]}
                    for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
