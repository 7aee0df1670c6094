"""The benchmark's three closed-loop workloads and their output checks.

Each workload has a `setup(lib, seed, quiet)` that builds everything an
op needs from the seed, and an `op(state, i)` that returns the seconds
spent in library calls plus a list of problems found by the checks;
checks run outside the timed calls.  `lib` is the namespace of imported
stripemerge modules, always reached through module attributes so that the
tracer's wrappers are seen.  Benchmark-side work that calls the library
(making input codewords, encoding expected outputs, checking bundles) runs
under `quiet()`, which the traced run sets to `Tracer.paused`, so that it
is neither timed nor traced.

- certify: build the three flagship instances, convert one random
  codeword per stripe and run `verify_convertible` with exact component
  checks.  Dominated by distance checks (codes -> matrix -> field).
- convert: setup builds four bundles, including GF(49) for the per-digit
  addition path; an op converts one 1024-column chunk of every instance
  in turn and replays each through `simulate`.  Dominated by
  `execute`, membership checks and field arithmetic; no builders and no
  distance checks are timed.
- sweep: construct-then-verify through the CLI (`--skip-distance`) over a
  fixed pool of requests, reshuffled by the seed every pass.  Exercises
  the builders, elimination, the verifier's execute-based bijectivity
  check and JSON read and write.

Every bundle built is checked against golden.json: the SHA-256 of its
canonical JSON, taken before any call can fill a lazily computed matrix,
and its (read, write) access pair.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHUNK = 1024  # symbols per coordinate in one convert op
RING = 8  # distinct message sets per flagship in certify
MAX_T, MAX_K = 8, 32  # most stripes and longest initial message of any flagship

_pc = time.perf_counter


def load_json(name: str) -> dict:
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def bundle_digest(obj) -> str:
    """SHA-256 of a bundle's canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_bundle(golden: dict, name: str, obj: dict, read: int, write: int) -> list[str]:
    want = golden[name]
    problems = []
    if bundle_digest(obj) != want["sha256"]:
        problems.append(f"{name}: bundle digest differs from golden")
    if [read, write] != want["read_write"]:
        problems.append(f"{name}: (read, write) = ({read}, {write}), golden {want['read_write']}")
    return problems


def prepare(lib, request: dict):
    """Build the field and groups of a request now; return the builder call."""
    fld = lib.field.FieldCtx.from_obj(request["field"])
    p = request["params"]
    kind = request["kind"]
    if kind == "mds_to_lrc":
        return lambda: lib.convert.build_mds_to_lrc(
            fld, s=p["s"], a=p["a"], tprime=p["tprime"], delta=p["delta"],
            k_init=p["k_init"], n_init=p["n_init"],
        )
    group = lib.pgl.build_group(fld, request["group"])
    if kind == "mds_merge":
        return lambda: lib.convert.build_mds_merge(
            fld, group, k=p["k"], t=p["t"], lprime=p["lprime"],
            evaluate_at_pole=p.get("evaluate_at_pole", False),
            per_initial_dims=p.get("per_initial_dims"),
        )
    if kind == "lrc_merge":
        sub = lib.pgl.cyclic_subgroup_of_order(group, p["subgroup_order"])
        return lambda: lib.convert.build_lrc_merge(
            fld, group, sub, k=p["k"], t=p["t"], lprime=p["lprime"], delta=p["delta"],
        )
    raise ValueError(f"unknown construction kind {kind!r}")


def check_conversion(cc, words, final_encs, expected_encs) -> list[str]:
    """The converted word equals the independently encoded one and keeps
    every unchanged coordinate's input value."""
    problems = []
    if final_encs != expected_encs:
        problems.append("converted word differs from final.encode(messages)")
    for i, pairs in enumerate(cc.plan.unchanged):
        if any(final_encs[dst] != words[i][src].enc for src, dst in pairs):
            problems.append(f"unchanged coordinate of stripe {i} altered")
    return problems


@dataclass
class OpResult:
    seconds: float
    problems: list[str]
    read_bytes: int = 0


@dataclass
class State:
    lib: object
    golden: dict
    round: int = 1  # ops in one pass over the workload's inputs
    items: list = field(default_factory=list)
    steps: dict = field(default_factory=lambda: defaultdict(list))
    extra: dict = field(default_factory=dict)
    quiet: object = nullcontext  # context for untimed, untraced library calls


class Workload:
    name = ""

    def teardown(self, st: State) -> None:
        """Release what set-up made outside the process."""


class Certify(Workload):
    name = "certify"

    def setup(self, lib, seed: int, quiet=nullcontext) -> State:
        catalog = load_json("instances.json")
        st = State(lib, load_json("golden.json"), quiet=quiet)
        rng = random.Random(seed)
        for name in catalog["flagships"]:
            request = catalog["requests"][name]
            q = request["field"]["p"] ** request["field"]["s"]
            ring = [[[rng.randrange(q) for _ in range(MAX_K)] for _ in range(MAX_T)]
                    for _ in range(RING)]
            st.items.append((name, prepare(lib, request), ring))
        return st

    def op(self, st: State, i: int) -> OpResult:
        lib = st.lib
        problems: list[str] = []
        busy = 0.0
        for name, build, ring in st.items:
            t0 = _pc()
            cc = build()
            t1 = _pc()
            with st.quiet():
                access = cc.static_access()
                problems += check_bundle(st.golden, name, cc.to_obj(),
                                         access.read_cost, access.write_cost)
                msgs = [[cc.field.element(v) for v in ring[i % RING][j][: code.k]]
                        for j, code in enumerate(cc.initials)]
                words = [code.encode(m) for code, m in zip(cc.initials, msgs)]
            t2 = _pc()
            final, _ = lib.convert.execute(cc, words)
            t3 = _pc()
            with st.quiet():
                expected = cc.final.encode([e for m in msgs for e in m])
                problems += check_conversion(cc, words, [e.enc for e in final],
                                             [e.enc for e in expected])
            t4 = _pc()
            report = lib.convert.verify_convertible(cc)
            t5 = _pc()
            if not (report.ok and report.components_ok is True and report.access_optimal):
                problems.append(f"{name}: verify_convertible verdict {report.to_obj()}")
            st.steps[(name, "build")].append(t1 - t0)
            st.steps[(name, "verify_on")].append(t5 - t4)
            busy += (t1 - t0) + (t3 - t2) + (t5 - t4)
        return OpResult(busy, problems)


@dataclass
class Chunk:
    name: str
    cc: object
    layout: object
    columns: list  # per column, one input codeword per initial stripe
    expected: list  # per column, the final codeword encodings
    problems: list  # found while building the bundle in set-up
    access: object  # the bundle's static access report


class Convert(Workload):
    name = "convert"

    def setup(self, lib, seed: int, quiet=nullcontext) -> State:
        catalog = load_json("instances.json")
        st = State(lib, load_json("golden.json"), quiet=quiet)
        rng = random.Random(seed)
        for name in catalog["convert"]:
            cc = prepare(lib, catalog["requests"][name])()
            with quiet():
                access = cc.static_access()
                problems = check_bundle(st.golden, name, cc.to_obj(),
                                        access.read_cost, access.write_cost)
                fld, q = cc.field, cc.field.q
                columns, expected = [], []
                for _ in range(CHUNK):
                    msgs = [[fld.element(rng.randrange(q)) for _ in range(code.k)]
                            for code in cc.initials]
                    columns.append([code.encode(m) for code, m in zip(cc.initials, msgs)])
                    expected.append([e.enc for e in cc.final.encode([e for m in msgs for e in m])])
            # fill the lazily computed parity matrices outside the timed ops
            lib.convert.execute(cc, columns[0])
            st.items.append(Chunk(name, cc, lib.sim.layout_one_per_symbol(cc), columns, expected,
                                  problems, access))
        return st

    def op(self, st: State, i: int) -> OpResult:
        lib = st.lib
        problems: list[str] = []
        busy, read_bytes = 0.0, 0
        for chunk in st.items:
            cc = chunk.cc
            t0 = _pc()
            results = [lib.convert.execute(cc, words) for words in chunk.columns]
            t1 = _pc()
            sim = lib.sim.simulate(cc, chunk.layout)
            t2 = _pc()
            busy += t2 - t0
            read_bytes += chunk.access.read_cost * CHUNK
            st.steps[(chunk.name, "execute_per_codeword")].append((t1 - t0) / CHUNK)
            problems += self.check(st.golden, chunk, results, sim)
        return OpResult(busy, problems, read_bytes=read_bytes)

    @staticmethod
    def check(golden: dict, chunk: Chunk, results: list, sim) -> list[str]:
        """Problems in one converted chunk: access pairs, converted words
        and per-node totals."""
        problems = list(chunk.problems)
        want = golden[chunk.name]["read_write"]
        if any([a.read_cost, a.write_cost] != want for _, a in results):
            problems.append(f"{chunk.name}: execute access differs from golden {want}")
        for col, ((final, _), words) in enumerate(zip(results, chunk.columns)):
            bad = check_conversion(chunk.cc, words, [e.enc for e in final], chunk.expected[col])
            if bad:
                problems += [f"{chunk.name} column {col}: {b}" for b in bad]
                break
        node_reads = sum(io["reads"] for io in sim.per_node.values()) * CHUNK
        node_writes = sum(io["writes"] for io in sim.per_node.values()) * CHUNK
        if (node_reads, node_writes) != (chunk.access.read_cost * CHUNK,
                                         chunk.access.write_cost * CHUNK):
            problems.append(f"{chunk.name}: simulate per-node totals differ from static access")
        return problems


class Sweep(Workload):
    name = "sweep"

    def setup(self, lib, seed: int, quiet=nullcontext) -> State:
        catalog = load_json("instances.json")
        st = State(lib, load_json("golden.json"), quiet=quiet)
        workdir = WORK / f"sweep-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        for name, request in sorted(catalog["requests"].items()):
            path = workdir / f"{name}.request.json"
            path.write_text(json.dumps(request), encoding="utf-8")
            st.items.append(name)
        st.round = len(st.items)
        st.extra.update(workdir=workdir, rng=random.Random(seed), order=[])
        return st

    def teardown(self, st: State) -> None:
        shutil.rmtree(st.extra["workdir"], ignore_errors=True)

    def op(self, st: State, i: int) -> OpResult:
        main = st.lib.cli.main
        if i % len(st.items) == 0:
            st.extra["order"] = st.extra["rng"].sample(st.items, len(st.items))
        name = st.extra["order"][i % len(st.items)]
        workdir = st.extra["workdir"]
        request = str(workdir / f"{name}.request.json")
        bundle = str(workdir / f"{name}.bundle.json")
        verdict = str(workdir / f"{name}.verify.json")
        t0 = _pc()
        rc_construct = main(["construct", "--request", request, "--out", bundle])
        t1 = _pc()
        rc_verify = main(["verify", "--skip-distance", "--bundle", bundle, "--out", verdict])
        t2 = _pc()
        st.steps[(name, "verify_off_cli")].append(t2 - t1)
        if (rc_construct, rc_verify) != (0, 0):
            return OpResult(t2 - t0, [f"{name}: exit codes {rc_construct}, {rc_verify}"])
        with open(bundle, encoding="utf-8") as fh:
            obj = json.load(fh)
        with open(verdict, encoding="utf-8") as fh:
            report = json.load(fh)
        measured = report["measured"]
        problems = check_bundle(st.golden, name, obj, measured["read_cost"], measured["write_cost"])
        if not (report["ok"] and report["access_optimal"] and report["components_ok"] is None):
            problems.append(f"{name}: verify verdict {report}")
        return OpResult(t2 - t0, problems)


WORKLOADS = {w.name: w for w in (Certify(), Convert(), Sweep())}
