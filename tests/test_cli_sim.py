import copy
import functools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stripemerge import codes
from stripemerge.cli import main
from stripemerge.codes import LocalityCertificate, check_locality, is_optimal_lrc
from stripemerge.convert import (
    ConvertibleCode,
    build_lrc_merge,
    build_mds_merge,
    build_mds_to_lrc,
    execute,
    verify_convertible,
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

Q32_REQUEST = {
    "kind": "lrc_merge",
    "field": {"p": 2, "s": 5},
    "group": {"kind": "dihedral", "u": 3, "variant": "q_plus"},
    "params": {"k": 2, "t": 2, "lprime": 2, "delta": 2, "subgroup_order": 3},
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


def test_simulate_reports_an_unchanged_symbol_off_its_node(cc_q23):
    # plan.validate gives an unchanged pair one label on both sides, so
    # a layout, keyed by label, moves the initial and the final symbol
    # together; only a final coordinate relabelled after validation can
    # land on another node than its source
    i, (src, dst) = next((i, pairs[0]) for i, pairs in enumerate(cc_q23.plan.unchanged) if pairs)
    label = cc_q23.initials[i].labels[src]
    base = layout_single_node(cc_q23)
    moved = ClusterLayout(("node0", "node1"), dict(base.placement, **{label: "node1"}))
    assert simulate(cc_q23, moved).unchanged_in_place
    cc = ConvertibleCode.from_obj(cc_q23.to_obj())
    labels = list(cc.final.labels)
    labels[dst] = "relabelled"
    cc.final.labels = tuple(labels)
    off = ClusterLayout(("node0", "node1"), dict(base.placement, relabelled="node1"))
    report = simulate(cc, off)
    assert not report.unchanged_in_place
    assert report.to_obj()["unchanged_in_place"] is False
    assert report.totals == simulate(cc_q23, base).totals


def test_forged_locality_certificate_fails_verify(tmp_path, capsys):
    # swapping two coordinates across repair groups leaves groups of full
    # spread, and claiming delta = 3 for the true groups a local distance
    # of 2: check_locality refuses both, so the final code is not an
    # optimal LRC and verify exits 3
    req = write_json(tmp_path / "req.json", Q32_REQUEST)
    bundle = tmp_path / "bundle.json"
    assert main(["construct", "--request", req, "--out", str(bundle)]) == 0
    capsys.readouterr()
    obj = json.loads(bundle.read_text())
    cc = ConvertibleCode.from_obj(obj)
    groups = [list(g) for g in obj["final_cert"]["groups"]]
    groups[0][-1], groups[1][0] = groups[1][0], groups[0][-1]
    swapped = LocalityCertificate(cc.final_cert.r, cc.final_cert.delta, tuple(map(tuple, groups)))
    for group in swapped.groups[:2]:
        assert cc.final.generator.submatrix_cols(list(group)).kernel() == []
    wider = LocalityCertificate(cc.final_cert.r, 3, cc.final_cert.groups)
    assert is_optimal_lrc(cc.final, cc.final_cert)
    for forged in (swapped, wider):
        assert not check_locality(cc.final, forged)
        assert not is_optimal_lrc(cc.final, forged)
    obj["final_cert"]["groups"] = groups
    assert main(["verify", "--bundle", write_json(tmp_path / "forged.json", obj)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["components_ok"] is False and report["ok"] is False
    assert report["bijective"] and report["membership_ok"] and report["unchanged_ok"]


def test_locality_group_repeating_a_coordinate_fails_verify(tmp_path, capsys):
    # a repeated column raises a group's local distance: an extra group
    # (0, 0) used to pass check_locality, and verify exited 0
    obj = copy.deepcopy(Q32_BUNDLE)
    obj["final_cert"]["groups"].append([0, 0])
    assert main(["verify", "--bundle", write_json(tmp_path / "bundle.json", obj)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["message"] == "group (0, 0) repeats coordinate 0"


def test_component_walk_over_budget_leaves_components_unknown(cc_q23, tmp_path, capsys,
                                                               monkeypatch):
    # a bundle carries no places, so its components take the subset walk;
    # with a budget of one rank check it gives up, and verify reports
    # components_ok null, still ok; the builder's MDS codes carry their
    # places, and grs_certificate proves them without a walk
    monkeypatch.setattr(codes, "distance_at_least",
                        functools.partial(codes.distance_at_least, budget=1))
    req = write_json(tmp_path / "req.json", VI_REQUEST)
    bundle = str(tmp_path / "bundle.json")
    assert main(["construct", "--request", req, "--out", bundle]) == 0
    capsys.readouterr()
    with open(bundle, encoding="utf-8") as fh:
        loaded = ConvertibleCode.from_obj(json.load(fh))
    with pytest.raises(codes.InfeasibleCheck):
        codes.is_mds(loaded.initials[0])
    report = verify_convertible(loaded)
    assert report.components_ok is None and report.ok
    assert verify_convertible(cc_q23).components_ok is True
    assert main(["verify", "--bundle", bundle]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["components_ok"] is None and out["ok"] is True


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
    # t above the group order; t = 2^62 used to exhaust memory building the
    # default dimensions (k,) * t before t was checked
    for params in (dict(Q23_REQUEST["params"], t=5), {"k": 4, "t": 2 ** 62, "lprime": 4}):
        path = write_json(tmp_path / "bad.json", dict(Q23_REQUEST, params=params))
        assert main(["construct", "--request", path]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["message"] == "need 1 <= t <= 4"


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
    # the map stays injective; the exact product with H_F^T flags the rows
    report = json.loads(capsys.readouterr().out)
    assert report["bijective"] is True and report["membership_ok"] is False
    assert report["ok"] is False


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
    with open(bundle, encoding="utf-8") as fh:
        cc = ConvertibleCode.from_obj(json.load(fh))
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
    q23 = build_mds_merge(F23, subgroup_cyclic_qplus1(F23, (F23.element(21), F23.element(5)), 4),
                          k=5, t=4, lprime=4, evaluate_at_pole=True, per_initial_dims=(5, 5, 5, 4))
    return q32.to_obj(), vi.to_obj(), q23.to_obj()


Q32_BUNDLE, VI_BUNDLE, Q23_BUNDLE = _bundles()
VI_SINGLE_NODE = layout_single_node(ConvertibleCode.from_obj(VI_BUNDLE))


def edited(bundle, edit):
    obj = copy.deepcopy(bundle)
    edit(obj)
    return obj


def set_at(bundle, path, value):
    """A copy of bundle with the field at `path` (keys and indices) set to value."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edited(bundle, edit)


def q32_with(path, value):
    return set_at(Q32_BUNDLE, path, value)


def group_with(request, **group):
    """request with its group spec's keys updated from group."""
    return dict(request, group=dict(request["group"], **group))


# a storage read past the end of stripe 0, through the schedule (q32) and,
# without one, through the plan's reads (vi)
STORAGE_99 = edited(Q32_BUNDLE, lambda b: b["plan"]["schedule"][0]["storage"].append(99))
READS_50 = edited(VI_BUNDLE, lambda b: b["plan"]["reads"][0].append(50))


def repeated(bundle, path):
    """A copy of bundle whose list at `path` repeats its first entry."""
    def edit(obj):
        for key in path:
            obj = obj[key]
        obj.append(obj[0])
    return edited(bundle, edit)


def split_first_term(bundle):
    """A copy of a prime-field bundle whose first written symbol reads its
    first read twice, with two nonzero coefficients that sum to its own."""
    def edit(obj):
        triples = obj["plan"]["terms"][0][1]
        i, coord, coeff = triples[0]
        part = 2 if coeff == 1 else 1
        triples[:1] = [[i, coord, part], [i, coord, (coeff - part) % obj["field"]["p"]]]
    return edited(bundle, edit)


# stripe 0 of q32 rebuilds coordinate 8 from storage 6 and 7: a second,
# wrong recipe for it ahead of the first, and a recipe for storage
# coordinate 6, used to be dropped without a word, and convert and verify
# exited 0
RECON_8_TWICE = edited(Q32_BUNDLE, lambda b: b["plan"]["schedule"][0]["recon"].insert(
    0, [8, [[6, 1], [7, 1]]]))
RECON_OF_STORAGE_6 = edited(Q32_BUNDLE, lambda b: b["plan"]["schedule"][0]["recon"].append(
    [6, [[7, 1]]]))

# (bundle, what its error names): a plan coordinate given twice used to
# verify ok with a per_symbol_read or read_cost that counts it twice, or
# (written) to exit 2 with the conversion kernel's word-length message
REPEATED = [
    (repeated(Q23_BUNDLE, ["plan", "written"]), "plan.written repeats coordinate 19"),
    (repeated(Q23_BUNDLE, ["plan", "terms"]), r"plan.terms repeats coordinate \d+"),
    (repeated(Q23_BUNDLE, ["plan", "reads", 0]), r"plan.reads\[0\] repeats coordinate \d+"),
    (repeated(Q32_BUNDLE, ["plan", "schedule", 1, "storage"]),
     r"plan.schedule\[1\].storage repeats coordinate \d+"),
    (split_first_term(Q23_BUNDLE), r"plan.terms of written coordinate \d+ repeats a read"),
    (RECON_8_TWICE, r"plan.schedule\[0\].recon repeats coordinate 8"),
    (RECON_OF_STORAGE_6, r"plan.schedule\[0\].recon rebuilds storage coordinate 6"),
]

# (bundle, the field its error names): stored n, k and params that disagree
# with the matrices
SHAPE_MISMATCH = [
    (set_at(VI_BUNDLE, ["final", "n"], 99), "final: n is 99"),
    (set_at(VI_BUNDLE, ["final", "k"], 3), "final: k is 3"),
    (set_at(VI_BUNDLE, ["initials", 0, "k"], 7), r"initials\[0\]: k is 7"),
    (set_at(VI_BUNDLE, ["params", "n_final"], 23), "params.n_final is 23"),
    (set_at(VI_BUNDLE, ["params", "d_final"], 5), "params.d_final is 5"),
    (set_at(VI_BUNDLE, ["params", "d_final"], 3), "params.d_final is 3"),
    (set_at(VI_BUNDLE, ["params", "r"], 10), "params.r is 10"),
    (set_at(VI_BUNDLE, ["params", "n_initial"], [11] * 4), "params.n_initial is"),
    (q32_with(["params", "n_initial"], [14, 14]), "params.n_initial is"),
]


def without(bundle, path):
    """A copy of bundle with the key at the end of `path` deleted."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]
    return edited(bundle, edit)


# (bundle, the section and key its error names): required keys left out
MISSING_KEY = [
    (without(VI_BUNDLE, ["final", "n"]), "final: code has no key 'n'"),
    (without(VI_BUNDLE, ["plan"]), "bundle has no key 'plan'"),
    (without(VI_BUNDLE, ["params", "r"]), "params: params has no key 'r'"),
    (without(VI_BUNDLE, ["kind"]), "bundle has no key 'kind'"),
    (without(VI_BUNDLE, ["plan", "terms"]), "plan has no key 'terms'"),
    (without(VI_BUNDLE, ["final_cert", "groups"]), "final_cert: certificate has no key 'groups'"),
    (without(VI_BUNDLE, ["field", "p"]), "field: field has no key 'p'"),
    (without(VI_BUNDLE, ["initials", 1, "k"]), r"initials\[1\]: code has no key 'k'"),
    (without(Q32_BUNDLE, ["plan", "schedule", 0, "recon"]),
     "plan.schedule entry has no key 'recon'"),
]

MALFORMED = [
    ("construct", dict(VI_REQUEST, params=dict(VI_REQUEST["params"], s="2"))),
    ("construct", dict(VI_REQUEST, params=dict(VI_REQUEST["params"], n_init=9))),
    ("construct", dict(VI_REQUEST, field={"p": 23, "s": True})),
    ("construct", [VI_REQUEST]),
    ("verify", [VI_REQUEST]),
    ("verify", edited(Q32_BUNDLE, lambda b: b["plan"].update(unchanged=5))),
    ("simulate", STORAGE_99),
    ("verify", STORAGE_99),
    ("simulate", READS_50),
    ("verify", READS_50),
    ("convert", READS_50),
    ("verify", q32_with(["initials"], 5)),
    ("verify", q32_with(["initials", 0, "generator"], 5)),
    ("verify", q32_with(["initials", 0, "labels"], 5)),
    ("verify", q32_with(["params", "k_initial"], 5)),
    ("verify", q32_with(["final_cert", "groups"], 5)),
    ("verify", q32_with(["final_cert", "r"], "2")),
    ("verify", q32_with(["field", "p"], "2")),
    # read as 1 by int() before, so verify judged a code not in the file
    ("verify", q32_with(["initials", 0, "generator", 0, 0], 1.9)),
    ("verify", q32_with(["initials", 0, "generator", 0, 0], True)),
    # an unknown kind used to skip the component checks and exit 0
    ("verify", q32_with(["kind"], 5)),
    ("verify", q32_with(["kind"], "mds")),
    # a falsy schedule used to be read as no schedule
    ("verify", q32_with(["plan", "schedule"], 0)),
    ("verify", q32_with(["plan", "schedule"], False)),
    # a missing certificate the kind needs used to exit 1 in a full verify
    ("verify", q32_with(["final_cert"], None)),
    ("verify", q32_with(["initial_cert"], None)),
    ("verify", edited(VI_BUNDLE, lambda b: b.update(final_cert=None))),
    # "<command> <flag>": the payload goes to <flag>, next to a valid bundle
    ("simulate --layout", {"nodes": 5, "placement": {}}),
    ("simulate --layout", {"nodes": ["n"], "placement": 5}),
    ("simulate --layout", {"nodes": [["n"]],
                           "placement": {lab: ["n"] for lab in VI_SINGLE_NODE.placement}}),
    ("convert --words", {"codewords": 5}),
    ("convert --words", {"messages": 5}),
    ("convert --words", {"messages": [[1.9, 2, 3, 4]] + [[0] * 4] * 3}),
    ("convert --words", {"messages": [[True, 2, 3, 4]] + [[0] * 4] * 3}),
    # coefficients outside [0, q) used to exit 1 with IndexError, or (-1
    # over GF(23)) to be read as q - 1 and verified ok
    ("verify", q32_with(["plan", "terms", 0, 1, 0, 2], 32)),
    ("convert", q32_with(["plan", "terms", 0, 1, 0, 2], 32)),
    ("verify", q32_with(["plan", "terms", 0, 1, 0, 2], 10 ** 6)),
    ("verify", q32_with(["plan", "schedule", 1, "recon", 0, 1, 0, 1], 32)),
    ("convert", q32_with(["plan", "schedule", 1, "recon", 0, 1, 0, 1], 32)),
    ("verify", set_at(VI_BUNDLE, ["plan", "terms", 0, 1, 0, 2], -1)),
    # group specs used to exit 1 with TypeError or IndexError, or read 21.0 as 21
    ("construct", group_with(Q23_REQUEST, kind="explicit", elements=[[1, 0, 0]])),
    ("construct", group_with(Q32_REQUEST, u="3")),
    ("construct", group_with(Q23_REQUEST, d="4")),
    ("construct", dict(Q23_REQUEST, group=[1])),
    ("construct", group_with(Q32_REQUEST, kind="explicit", elements=[[40, 1, 0, 1]])),
    ("construct", group_with(Q23_REQUEST, quad=[21.0, 5])),
    ("construct", dict(Q32_REQUEST, subgroup={"kind": "explicit", "elements": [[40, 1, 0, 1]]})),
    ("construct", dict(group_with(Q23_REQUEST, kind="affine", mult=[1, 22.0], add=[0]),
                       params={"k": 5, "t": 2, "lprime": 4})),
    # a stored shape the matrices contradict used to exit 0, or 3 for d_final 5
    *(("verify", payload) for payload, _ in SHAPE_MISMATCH),
    *(("verify", payload) for payload, _ in REPEATED),
    ("convert", RECON_8_TWICE),
    ("convert", RECON_OF_STORAGE_6),
    # a stored kind the certificates contradict used to exit 0, its own
    # checks run and the other certificate unread
    ("verify", q32_with(["kind"], "mds_to_lrc")),
    ("verify", set_at(VI_BUNDLE, ["initial_cert"],
                      {"r": 4, "delta": 2, "groups": [[0, 1, 2, 3, 4], [5, 6, 7, 8]]})),
    # a non-boolean switch used to build the pole variant ("false") or
    # the plain one (0), whatever it was meant to say
    *(("construct", dict(Q23_REQUEST, params=dict(Q23_REQUEST["params"], evaluate_at_pole=v)))
      for v in ("false", 1)),
    # a field past the size limit used to be tried for primality first, by
    # trial division that did not finish for p = 2^61 - 1
    ("construct", dict(VI_REQUEST, field={"p": 2 ** 61 - 1, "s": 1})),
    ("verify", set_at(VI_BUNDLE, ["field", "p"], 2 ** 61 - 1)),
    # a fifth message used to be dropped, and a "random" that is not true
    # to convert random words
    ("convert --words", {"messages": [[1, 2, 3, 4]] * 5}),
    ("convert --words", {"random": "no"}),
]


@pytest.mark.parametrize("command, payload", MALFORMED,
                         ids=["str_int", "int_for_list", "bool_int", "list_request",
                              "list_bundle", "int_for_plan_list", "storage_99_simulate",
                              "storage_99_verify", "reads_50_simulate", "reads_50_verify",
                              "reads_50_convert", "int_for_initials", "int_for_generator",
                              "int_for_labels", "int_for_k_initial", "int_for_cert_groups",
                              "str_for_cert_r", "str_for_field_p", "float_entry",
                              "bool_entry", "int_kind", "unknown_kind", "zero_schedule",
                              "false_schedule", "null_final_cert", "null_initial_cert",
                              "null_mds_to_lrc_final_cert", "int_for_layout_nodes",
                              "int_for_layout_placement", "list_layout_node",
                              "int_for_codewords", "int_for_messages", "float_message_entry",
                              "bool_message_entry", "terms_coeff_32_verify",
                              "terms_coeff_32_convert", "terms_coeff_10e6", "recon_coeff_32_verify",
                              "recon_coeff_32_convert", "terms_coeff_negative",
                              "explicit_short_row", "str_for_dihedral_u", "str_for_cyclic_d",
                              "list_group", "explicit_coeff_40", "float_quad",
                              "subgroup_coeff_40", "float_affine_mult", "final_n_99",
                              "final_k_3", "initial_k_7", "params_n_final_23",
                              "params_d_final_5", "params_d_final_3", "params_r_10",
                              "params_n_initial_11", "q32_params_n_initial_14",
                              "repeated_written", "repeated_terms", "repeated_reads_0",
                              "repeated_storage_1", "split_term", "recon_8_twice",
                              "recon_of_storage_6", "recon_8_twice_convert",
                              "recon_of_storage_6_convert", "q32_kind_mds_to_lrc",
                              "vi_stray_initial_cert",
                              "str_for_evaluate_at_pole", "int_for_evaluate_at_pole",
                              "field_p_2_61_request", "field_p_2_61_bundle",
                              "five_messages_for_four_stripes", "str_for_random"])
def test_cli_malformed_json_is_a_validation_error(tmp_path, capsys, command, payload):
    command, _, side_flag = command.partition(" ")
    path = write_json(tmp_path / "input.json", payload)
    if side_flag:
        args = ["--bundle", write_json(tmp_path / "bundle.json", VI_BUNDLE), side_flag, path]
    else:
        args = ["--request" if command == "construct" else "--bundle", path]
    extra = ["--skip-distance"] if command == "verify" else []
    assert main([command, *args, *extra]) == 2
    err = json.loads(capsys.readouterr().out)
    assert set(err) == {"error"}


def test_evaluate_at_pole_must_be_a_boolean(tmp_path, capsys):
    for value in ("false", "no", 1, 0, [], None):
        request = dict(Q23_REQUEST, params=dict(Q23_REQUEST["params"], evaluate_at_pole=value))
        assert main(["construct", "--request", write_json(tmp_path / "r.json", request)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["message"].startswith("params.evaluate_at_pole must be a JSON boolean")


@pytest.mark.parametrize("payload, names", SHAPE_MISMATCH)
def test_shape_mismatch_names_the_field(payload, names):
    with pytest.raises(ValueError, match=f"^{names}"):
        ConvertibleCode.from_obj(payload)


@pytest.mark.parametrize("payload, names", REPEATED,
                         ids=["written", "terms", "reads_0", "storage_1", "split_term",
                              "recon_8_twice", "recon_of_storage_6"])
def test_repeated_plan_coordinate_names_its_list(tmp_path, capsys, payload, names):
    path = write_json(tmp_path / "bundle.json", payload)
    assert main(["verify", "--bundle", path, "--skip-distance"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert re.match(f"^{names}$", err["message"])


@pytest.mark.parametrize("payload, names", MISSING_KEY)
def test_missing_key_names_its_section(tmp_path, capsys, payload, names):
    path = write_json(tmp_path / "bundle.json", payload)
    assert main(["verify", "--bundle", path, "--skip-distance"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValueError"
    assert re.match(f"^{names}$", err["message"])


def test_request_missing_key_names_its_section(tmp_path, capsys):
    for request, names in (
        ({k: v for k, v in VI_REQUEST.items() if k != "field"}, "request has no key 'field'"),
        (dict(VI_REQUEST, params={"s": 2}), "params has no key 'a'"),
    ):
        path = write_json(tmp_path / "request.json", request)
        assert main(["construct", "--request", path]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["message"] == names


def closed_stdout_cases():
    # another nonzero coefficient over GF(23) keeps the bundle well-formed
    # and fails verification
    coeff = VI_BUNDLE["plan"]["terms"][0][1][0][2]
    wrong = set_at(VI_BUNDLE, ["plan", "terms", 0, 1, 0, 2], coeff % 22 + 1)
    return [(Q23_BUNDLE, 0), ({}, 2), (wrong, 3)]


@pytest.mark.parametrize("payload, code", closed_stdout_cases(),
                         ids=["ok", "validation", "verification"])
def test_closed_stdout_keeps_the_exit_code(tmp_path, payload, code):
    # the reader closes its end of the pipe before the child writes: the
    # child must exit with the command's own code and write no traceback
    bundle = write_json(tmp_path / "bundle.json", payload)
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stripemerge.cli", "verify", "--bundle", bundle,
             "--skip-distance"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (code, "")
