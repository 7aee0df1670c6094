import copy
import json
import random

import pytest

from stripemerge.cli import main
from stripemerge.convert import (
    ConvertibleCode,
    build_lrc_merge,
    build_mds_merge,
    build_mds_to_lrc,
    execute,
)
from stripemerge.field import field_create
from stripemerge.pgl import cyclic_subgroup_of_order, subgroup_cyclic_qplus1, subgroup_dihedral
from stripemerge.sim import (
    ClusterLayout,
    layout_one_per_symbol,
    layout_single_node,
    simulate,
)

Q23_REQUEST = {
    "kind": "mds_merge",
    "field": {"p": 23, "s": 1},
    "group": {"kind": "cyclic_qplus1", "quad": [21, 5], "d": 4},
    "params": {
        "k": 5,
        "t": 4,
        "lprime": 4,
        "evaluate_at_pole": True,
        "per_initial_dims": [5, 5, 5, 4],
    },
}

VI_REQUEST = {
    "kind": "mds_to_lrc",
    "field": {"p": 23, "s": 1},
    "params": {"s": 2, "a": 1, "tprime": 2, "delta": 2, "k_init": 4,
               "n_init": [9, 9, 9, 9]},
}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def cc_q23():
    F = field_create(23, 1)
    group = subgroup_cyclic_qplus1(F, (F.element(21), F.element(5)), 4)
    return build_mds_merge(F, group, k=5, t=4, lprime=4,
                           evaluate_at_pole=True, per_initial_dims=(5, 5, 5, 4))


def test_simulate_single_node(cc_q23):
    report = simulate(cc_q23, layout_single_node(cc_q23))
    assert report.per_node["node0"] == {"reads": 16, "writes": 4}
    assert report.unchanged_in_place


def test_simulate_one_node_per_symbol(cc_q23):
    report = simulate(cc_q23, layout_one_per_symbol(cc_q23))
    reads = [io["reads"] for io in report.per_node.values() if io["reads"]]
    writes = [io["writes"] for io in report.per_node.values() if io["writes"]]
    assert reads == [1] * 16 and writes == [1] * 4
    assert report.unchanged_in_place


def test_simulate_relabel_invariance(cc_q23):
    base = layout_one_per_symbol(cc_q23)
    renamed = ClusterLayout(
        tuple(f"x{n}" for n in base.nodes),
        {lab: f"x{n}" for lab, n in base.placement.items()},
    )
    a = simulate(cc_q23, base)
    b = simulate(cc_q23, renamed)
    assert a.totals == b.totals
    assert sorted(io["reads"] for io in a.per_node.values()) == sorted(
        io["reads"] for io in b.per_node.values()
    )


def test_simulate_with_words_and_missing_placement(cc_q23):
    rng = random.Random(1)
    words = []
    for code in cc_q23.initials:
        msg = [cc_q23.field.element(rng.randrange(23)) for _ in range(code.k)]
        words.append(code.encode(msg))
    report = simulate(cc_q23, layout_single_node(cc_q23), words)
    assert report.totals.read_cost == 16
    bad = ClusterLayout(("n",), {})
    with pytest.raises(ValueError):
        simulate(cc_q23, bad)


def test_cli_bounds(tmp_path, capsys):
    params = {
        "k_initial": [5, 5, 5, 4],
        "n_initial": [9, 9, 9, 8],
        "n_final": 23,
        "k_final": 19,
        "d_final": 5,
        "r": 19,
        "delta": 2,
    }
    path = write_json(tmp_path / "params.json", params)
    assert main(["bounds", "--params", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["min_write"], out["min_read"]) == (4, 16)


def test_cli_construct_convert_verify_simulate(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", VI_REQUEST)
    bundle = str(tmp_path / "bundle.json")
    assert main(["construct", "--request", req, "--out", bundle]) == 0
    capsys.readouterr()

    assert main(["convert", "--bundle", bundle, "--seed", "7"]) == 0
    conv = json.loads(capsys.readouterr().out)
    assert conv["access"]["read_cost"] == 12 and conv["access"]["write_cost"] == 4

    assert main(["verify", "--bundle", bundle]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["access_optimal"]

    assert main(["simulate", "--bundle", bundle, "--policy", "one-per-symbol"]) == 0
    sim = json.loads(capsys.readouterr().out)
    assert sim["totals"]["read_cost"] == 12 and sim["unchanged_in_place"]


def test_cli_construct_lrc_with_subgroup_order(tmp_path, capsys):
    request = {
        "kind": "lrc_merge",
        "field": {"p": 2, "s": 5},
        "group": {"kind": "dihedral", "u": 3, "variant": "q_plus"},
        "params": {"k": 2, "t": 2, "lprime": 2, "delta": 2, "subgroup_order": 3},
    }
    req = write_json(tmp_path / "req.json", request)
    bundle = str(tmp_path / "bundle.json")
    assert main(["construct", "--request", req, "--out", bundle]) == 0
    capsys.readouterr()
    assert main(["verify", "--bundle", bundle, "--skip-distance"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["access_optimal"]
    assert rep["measured"]["read_cost"] == 8 and rep["measured"]["write_cost"] == 6


def test_cli_construct_validation_error(tmp_path, capsys):
    bad = dict(Q23_REQUEST, params=dict(Q23_REQUEST["params"], t=5))  # t > group order
    path = write_json(tmp_path / "bad.json", bad)
    assert main(["construct", "--request", path]) == 2
    err = json.loads(capsys.readouterr().out)
    assert "error" in err


def test_cli_verify_detects_corruption(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", VI_REQUEST)
    bundle_path = tmp_path / "bundle.json"
    assert main(["construct", "--request", req, "--out", str(bundle_path)]) == 0
    capsys.readouterr()
    obj = json.loads(bundle_path.read_text())
    w, triples = obj["plan"]["terms"][0]
    triples[0][2] = (triples[0][2] + 1) % 23 or 1
    bad_path = write_json(tmp_path / "corrupt.json", obj)
    code = main(["verify", "--bundle", bad_path, "--skip-distance"])
    assert code == 3
    capsys.readouterr()


def test_cli_demo(tmp_path, capsys):
    out = str(tmp_path / "demo.json")
    assert main(["demo-q23", "--out", out]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "demo.json").read_text())
    assert report["diffs"] == []
    assert report["verify"]["access_optimal"]


def test_cli_output_dir_env(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "outputs"
    monkeypatch.setenv("STRIPEMERGE_OUT", str(outdir))
    req = write_json(tmp_path / "req.json", VI_REQUEST)
    assert main(["construct", "--request", req, "--out", "bundle.json"]) == 0
    assert (outdir / "bundle.json").exists()


def test_cli_convert_with_messages(tmp_path, capsys):
    req = write_json(tmp_path / "req.json", VI_REQUEST)
    bundle = str(tmp_path / "bundle.json")
    assert main(["construct", "--request", req, "--out", bundle]) == 0
    capsys.readouterr()
    msgs = {"messages": [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [0, 0, 0, 1]]}
    words = write_json(tmp_path / "msgs.json", msgs)
    assert main(["convert", "--bundle", bundle, "--words", words]) == 0
    out = json.loads(capsys.readouterr().out)
    # cross-check against the library path
    cc = ConvertibleCode.from_obj(json.loads(open(bundle).read()))
    words_lib = [
        code.encode([cc.field.element(e) for e in m])
        for code, m in zip(cc.initials, msgs["messages"])
    ]
    final_word, _ = execute(cc, words_lib)
    assert out["final_codeword"] == [e.enc for e in final_word]


def _bundles():
    F23, F32 = field_create(23, 1), field_create(2, 5)
    dihedral = subgroup_dihedral(F32, 3, "q_plus")
    q32 = build_lrc_merge(F32, dihedral, cyclic_subgroup_of_order(dihedral, 3),
                          k=2, t=2, lprime=2)
    vi = build_mds_to_lrc(F23, s=2, a=1, tprime=2, delta=2, k_init=4, n_init=(9, 9, 9, 9))
    return q32.to_obj(), vi.to_obj()


Q32_BUNDLE, VI_BUNDLE = _bundles()


def edited(bundle, edit):
    obj = copy.deepcopy(bundle)
    edit(obj["plan"])
    return obj


# a storage read past the end of stripe 0, through the schedule (q32) and,
# without one, through the plan's reads (vi)
STORAGE_99 = edited(Q32_BUNDLE, lambda plan: plan["schedule"][0]["storage"].append(99))
READS_50 = edited(VI_BUNDLE, lambda plan: plan["reads"][0].append(50))

MALFORMED = [
    ("construct", dict(VI_REQUEST, params=dict(VI_REQUEST["params"], s="2"))),
    ("construct", dict(VI_REQUEST, params=dict(VI_REQUEST["params"], n_init=9))),
    ("construct", dict(VI_REQUEST, field={"p": 23, "s": True})),
    ("construct", [VI_REQUEST]),
    ("verify", [VI_REQUEST]),
    ("verify", edited(Q32_BUNDLE, lambda plan: plan.update(unchanged=5))),
    ("simulate", STORAGE_99),
    ("verify", STORAGE_99),
    ("simulate", READS_50),
    ("verify", READS_50),
    ("convert", READS_50),
]


@pytest.mark.parametrize("command, payload", MALFORMED,
                         ids=["str_int", "int_for_list", "bool_int", "list_request",
                              "list_bundle", "int_for_plan_list", "storage_99_simulate",
                              "storage_99_verify", "reads_50_simulate", "reads_50_verify",
                              "reads_50_convert"])
def test_cli_malformed_json_is_a_validation_error(tmp_path, capsys, command, payload):
    path = write_json(tmp_path / "input.json", payload)
    flag = "--request" if command == "construct" else "--bundle"
    extra = ["--skip-distance"] if command == "verify" else []
    assert main([command, flag, path, *extra]) == 2
    err = json.loads(capsys.readouterr().out)
    assert set(err) == {"error"}
