"""Seeded fuzz of the command line's exit-code contract.

Every benchmark request and the four bundles of the convert workload
(perfbench/instances.json) are mutated: each integer of a request's
params is set to +-2^62, and seeded random edits drop a key or list
entry, or replace a value by one of another type, by null, by +-2^62 or
by an out-of-range index.  construct, convert, simulate and verify
--skip-distance, called in process, must each return 0, 2, 3 or 4, with
no exception escaping.  The side inputs of the four bundles are mutated
the same way: --words documents (messages, codewords and random: true)
for convert and simulate, and --layout documents for simulate.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from stripemerge.cli import main
from stripemerge.convert import ConvertibleCode
from stripemerge.sim import layout_one_per_symbol

INSTANCES = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "instances.json").read_text(
        encoding="utf-8"))
REQUESTS = INSTANCES["requests"]
REPLACEMENTS = (None, "3", 2.5, True, [], {}, 2 ** 62, -2 ** 62, -1, 99)
BUNDLE_COMMANDS = (["convert"], ["simulate"], ["verify", "--skip-distance"])


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    out = {}
    path = tmp_path_factory.mktemp("bundles")
    for name in INSTANCES["convert"]:
        (path / "request.json").write_text(json.dumps(REQUESTS[name]), encoding="utf-8")
        assert main(["construct", "--request", str(path / "request.json"),
                     "--out", str(path / "bundle.json")]) == 0
        out[name] = json.loads((path / "bundle.json").read_text(encoding="utf-8"))
    return out


def mutated(doc, rng):
    """A copy of doc with one random key or entry dropped or replaced."""
    doc = copy.deepcopy(doc)
    parent, key = None, None
    node = doc
    # below the top level, stop at each level with probability 0.3, so that
    # structure is edited about as often as the matrix entries that outnumber it
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.7):
        parent = node
        key = rng.choice(sorted(node)) if isinstance(node, dict) else rng.randrange(len(node))
        node = node[key]
    if rng.random() < 0.2:
        del parent[key]
    else:
        parent[key] = rng.choice(REPLACEMENTS)
    return doc


def cases(bundles):
    """(command, document) pairs: the params sweep, then the random edits."""
    out = []
    for request in REQUESTS.values():
        for key, value in request.get("params", {}).items():
            if isinstance(value, int) and not isinstance(value, bool):
                for big in (2 ** 62, -2 ** 62):
                    out.append((["construct"], dict(request, params={**request["params"],
                                                                     key: big})))
    rng = random.Random(2024)
    requests, docs = sorted(REQUESTS.items()), sorted(bundles.items())
    for _ in range(100):
        out.append((["construct"], mutated(rng.choice(requests)[1], rng)))
    for _ in range(100):
        out.append((rng.choice(BUNDLE_COMMANDS), mutated(rng.choice(docs)[1], rng)))
    return out


def side_cases(bundles):
    """(bundle name, [command, flag], document) triples: seeded random
    edits of each bundle's --words and --layout documents."""
    rng = random.Random(2025)
    docs = []
    for name, bundle in sorted(bundles.items()):
        cc = ConvertibleCode.from_obj(bundle)
        messages = [[rng.randrange(cc.field.q) for _ in range(code.k)] for code in cc.initials]
        codewords = [[e.enc for e in code.encode(cc.field.word(m))]
                     for code, m in zip(cc.initials, messages)]
        for words in ({"messages": messages}, {"codewords": codewords}, {"random": True}):
            docs += [(name, ["convert", "--words"], words), (name, ["simulate", "--words"], words)]
        docs.append((name, ["simulate", "--layout"], layout_one_per_symbol(cc).to_obj()))
    out = []
    for _ in range(120):
        name, command, doc = rng.choice(docs)
        out.append((name, command, mutated(doc, rng)))
    return out


def escapes(runs, tmp_path, capsys):
    """The (arguments, flag, document) runs whose call main([*arguments,
    flag, <the document's file>]) breaks the exit-code contract, one line
    each."""
    doc_path, out_path = tmp_path / "input.json", str(tmp_path / "output.json")
    escaped = []
    for args, flag, doc in runs:
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            code = main([*args, flag, str(doc_path), "--out", out_path])
        except Exception as exc:  # the contract is that none escapes
            code = exc
        capsys.readouterr()
        if code not in (0, 2, 3, 4):
            escaped.append(f"{' '.join(args)} {flag} {json.dumps(doc)[:300]}: {code!r}")
    return escaped


def test_mutated_inputs_keep_the_exit_code_contract(bundles, tmp_path, capsys):
    escaped = escapes([(command, "--request" if command[0] == "construct" else "--bundle", doc)
                       for command, doc in cases(bundles)], tmp_path, capsys)
    assert not escaped, "\n".join(escaped[:5])


def test_mutated_words_and_layouts_keep_the_exit_code_contract(bundles, tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.json" for name in bundles}
    for name, path in paths.items():
        path.write_text(json.dumps(bundles[name]), encoding="utf-8")
    escaped = escapes([([command, "--bundle", str(paths[name])], flag, doc)
                       for name, (command, flag), doc in side_cases(bundles)], tmp_path, capsys)
    assert not escaped, "\n".join(escaped[:5])
