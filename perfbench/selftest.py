"""Self-tests of the benchmark: one short pass of each workload, the
command-line contract, and the negative cases (a corrupted chunk, a wrong
golden digest) that must be counted as failed ops, not crash or pass.

    python3 -m pytest -q perfbench/selftest.py
    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import FIELD_OPS, Tracer  # noqa: E402
from workloads import CHUNK, WORK, WORKLOADS, OpResult, load_json  # noqa: E402

if not run.use_sources():
    raise RuntimeError("no stripemerge sources under src/")

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _command(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_golden_pins_flagship_access_pairs():
    golden = load_json("golden.json")
    pinned = {"q23_mds_merge": [16, 4], "q32_lrc_merge": [8, 6], "q23_mds_to_lrc": [12, 4]}
    assert {name: golden[name]["read_write"] for name in pinned} == pinned
    catalog = load_json("instances.json")
    assert set(golden) == set(catalog["requests"])


def test_one_pass_of_each_workload_is_clean():
    for name in WORKLOADS:
        out = run.run(name, seed=3, seconds=0.0, trace=False)
        assert out["failed"] == 0, out["problems"]
        assert out["attempted"] >= 1
        assert all(out["metrics"][m] > 0 for m in E2E)
        assert out["metrics"]["failed_frac"] == 0


def test_each_op_is_scaled_by_the_reference_times_around_it():
    host = run.HostSpeed()
    host.after_event(1.0)
    assert sum(host.gaps[-1]) >= run.REF_SHARE * 1.0
    nominal = run.REF_NOMINAL_S
    # the host ran at half speed around both ops
    host.gaps = [[nominal], [3 * nominal, 3 * nominal, nominal], [nominal]]
    assert [round(f, 12) for f in host.factors()] == [0.5, 0.5]
    results = [OpResult(0.2, []), OpResult(0.4, [])]
    m = run.end_to_end(results, 1.0, host.factors())
    assert abs(m["op_p50_ms"] - 150.0) < 1e-9
    assert abs(m["ops_per_s"] - 2 / 0.3) < 1e-9
    assert m["setup_s"] == 1.0  # set-up is scaled by the caller


def test_traced_pass_reports_every_layer_metric():
    out = run.run("sweep", seed=3, seconds=0.0, trace=True)
    assert out["failed"] == 0, out["problems"]
    m = out["metrics"]
    assert set(PER_LAYER) <= set(m)
    for names in run.LAYER_REPORT.values():
        assert set(names) <= set(m)
    rounds = len(load_json("instances.json")["requests"])
    assert m["cli.main.calls"] == 2 * rounds
    assert m["cli.exit_nonzero"] == 0
    assert m["convert.verify.executes"] == m["convert.execute.calls"] > 0
    assert m["codes.distance_at_least.calls"] == 0  # --skip-distance
    assert Path(out["results_file"]).is_file()


def test_tracer_wraps_every_binding_and_restores_them():
    lib = run.import_library()

    def names():
        return (lib.codes.is_mds, lib.matrix.rank_of_rows, lib.convert.execute,
                lib.field.FieldCtx.add_enc)

    is_mds, rank_of_rows, execute, _ = originals = names()
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.convert.is_mds is lib.codes.is_mds is not is_mds
        assert lib.codes.rank_of_rows is lib.bounds.rank_of_rows is lib.matrix.rank_of_rows
        assert lib.codes.rank_of_rows is not rank_of_rows
        assert lib.sim.execute is lib.cli.execute is lib.convert.execute is not execute
        fld = lib.field.FieldCtx(7, 2)
        fld.add_enc(3, 4)
        assert tracer.field_calls[FIELD_OPS.index("add_enc")] == 1
        with tracer.paused():
            assert lib.convert.execute is execute and lib.codes.rank_of_rows is rank_of_rows
            fld.add_enc(3, 4)
        assert lib.convert.execute is not execute
        assert tracer.field_calls[FIELD_OPS.index("add_enc")] == 1
        code = lib.codes.LinearCode(fld, generator=lib.matrix.MatQ(fld, [[1, 1, 1]]))
        assert lib.convert.is_mds(code)
    finally:
        tracer.uninstall()
    assert names() == originals
    assert lib.convert.is_mds is is_mds and lib.sim.execute is execute
    m = tracer.summary()
    assert m["codes.is_mds.calls"] == m["codes.distance_at_least.calls"] == 1
    assert m["codes.subsets"] > 0 and m["field.field_create.calls"] == 1


def test_command_prints_the_contract_line():
    proc = _command(["--workload", "sweep", "--seed", "4", "--seconds", "0", "--trace", "0"],
                    run.ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == E2E


def test_fails_without_the_library():
    with tempfile.TemporaryDirectory(dir=_workdir()) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _command(["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                        tmp)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_traced_convert_leaves_out_benchmark_work():
    out = run.run("convert", seed=3, seconds=0.0, trace=True)
    assert out["failed"] == 0, out["problems"]
    m = out["metrics"]
    chunks = len(load_json("instances.json")["convert"])
    # one set-up execute per bundle, then one op of CHUNK columns per bundle
    assert m["convert.execute.calls"] == chunks * (1 + CHUNK)
    assert m["sim.simulate.calls"] == chunks
    # input words and expected outputs are encoded with the tracer paused
    assert m["codes.encode.calls"] == 0


def test_corrupted_chunk_is_counted_as_failed():
    workload = WORKLOADS["convert"]
    st, *_ = run.setup(workload, 5)
    results = [run.run_op(workload, st, 0)]
    bad_expected = st.items[1]
    bad_expected.expected[9][-1] = (bad_expected.expected[9][-1] + 1) % bad_expected.cc.field.q
    results.append(run.run_op(workload, st, 1))
    bad_input = st.items[0]
    word = list(bad_input.columns[7][0])
    fld = bad_input.cc.field
    word[0] = fld.element((word[0].enc + 1) % fld.q)  # no longer a codeword
    bad_input.columns[7][0] = tuple(word)
    results.append(run.run_op(workload, st, 2))
    assert [len(r.problems) for r in results] == [0, 1, 1]
    assert "column 9" in results[1].problems[0]
    assert "not a codeword" in results[2].problems[0]
    assert run.end_to_end(results, 1.0)["failed_frac"] == 2 / 3


def test_wrong_digest_is_counted_as_failed():
    workload = WORKLOADS["sweep"]
    st, *_ = run.setup(workload, 6)
    try:
        st.golden["q27_mds_merge"] = dict(st.golden["q27_mds_merge"], sha256="0" * 64)
        results = run.measure(workload, st, 0.0)
    finally:
        workload.teardown(st)
    failed = [p for r in results for p in r.problems]
    assert failed == ["q27_mds_merge: bundle digest differs from golden"]


def _workdir() -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    return WORK


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_"):
            test()
            print(f"ok {test_name}")
