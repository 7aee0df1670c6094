"""The command line's JSON writer, cli._json_text, against json.dumps.

Every document the command line writes must be the bytes of
json.dumps(obj, indent=2, sort_keys=True): the 15 benchmark bundles,
the output of every command, errors included, and the corner cases of
the format (empty containers, nested lists, bools, None, floats,
non-ASCII text, keys that are not strings).
"""

import json
from pathlib import Path

import pytest

from stripemerge import cli
from stripemerge.cli import _construct, _json_text, main
from stripemerge.codes import InfeasibleCheck

INSTANCES = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "instances.json").read_text(
        encoding="utf-8"))
REQUESTS = INSTANCES["requests"]


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def bundles():
    return {name: _construct(request).to_obj() for name, request in REQUESTS.items()}


def test_every_bundle_is_written_as_json_dumps_writes_it(bundles):
    assert len(bundles) == 15
    for name, obj in bundles.items():
        assert _json_text(obj) == dumps(obj), name


CORNERS = [
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}]},
    [[1, 2], [3, [4, []]], []],
    {"ok": True, "bad": False, "none": None, "mixed": [1, True, None, False, 0, -7]},
    {"x": 1.5, "y": [0.1, 2.0, -0.0, 1e300], "nan": float("nan"), "inf": [float("inf")]},
    {"text": "Möbius été ☃ \U0001d53d \"quoted\" back\\slash\nnew\ttab\x00"},
    {"élément": ["GF(ℤ/23)", "plain"], "": ""},
    {"z": 1, "a": 2, "M": {"b": [1, 2], "A": "s"}},
    {"ints": {1: "one", 2: [3, 4]}, "nested": [{3: {"k": [5]}}]},
    {"bools": {True: 1, False: [2]}, "null": {None: []}},
    ("tuple", (1, 2), [(3,), ()]),
    [2 ** 100, -2 ** 70, 0],
    "top-level string",
    7,
    None,
    True,
]


@pytest.mark.parametrize("obj", CORNERS, ids=range(len(CORNERS)))
def test_corner_cases_are_written_as_json_dumps_writes_them(obj):
    assert _json_text(obj) == dumps(obj)


@pytest.fixture
def emitted(monkeypatch):
    """Every object _emit writes in this test."""
    seen = []
    emit = cli._emit

    def recording(obj, out):
        seen.append((obj, out))
        return emit(obj, out)

    monkeypatch.setattr(cli, "_emit", recording)
    return seen


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_every_command_writes_json_dumps_bytes(tmp_path, capsys, emitted):
    request = write_json(tmp_path / "request.json", REQUESTS["q23_mds_to_lrc"])
    bundle = tmp_path / "bundle.json"
    messages = write_json(tmp_path / "messages.json",
                          {"messages": [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [0, 0, 0, 1]]})
    params = write_json(tmp_path / "params.json", {
        "k_initial": [5, 5, 5, 4], "n_initial": [9, 9, 9, 8], "n_final": 23, "k_final": 19,
        "d_final": 5, "r": 19, "delta": 2,
    })
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{\"kind\": ", encoding="utf-8")
    bad_request = write_json(tmp_path / "bad.json",
                             dict(REQUESTS["q23_mds_merge"], params={"k": 4, "t": 9, "lprime": 4}))
    assert main(["construct", "--request", request, "--out", str(bundle)]) == 0
    runs = [
        (["construct", "--request", request], 0),
        (["convert", "--bundle", str(bundle), "--seed", "3"], 0),
        (["convert", "--bundle", str(bundle), "--words", messages], 0),
        (["verify", "--bundle", str(bundle)], 0),
        (["verify", "--bundle", str(bundle), "--skip-distance"], 0),
        (["bounds", "--params", params], 0),
        (["simulate", "--bundle", str(bundle)], 0),
        (["simulate", "--bundle", str(bundle), "--policy", "one-per-symbol",
          "--words", messages], 0),
        (["demo-q23"], 0),
        (["construct", "--request", bad_request], 2),
        (["construct", "--request", str(malformed)], 2),
        (["verify", "--bundle", str(tmp_path / "missing.json")], 2),
    ]
    corrupt = json.loads(bundle.read_text(encoding="utf-8"))
    triples = corrupt["plan"]["terms"][0][1]
    triples[0][2] = (triples[0][2] + 1) % 23 or 1
    runs.append((["verify", "--bundle", write_json(tmp_path / "corrupt.json", corrupt),
                  "--skip-distance"], 3))
    capsys.readouterr()
    for argv, code in runs:
        emitted.clear()
        assert main(argv) == code, argv
        (obj, out), = emitted
        assert out is None
        assert capsys.readouterr().out == dumps(obj) + "\n", argv
    # --out writes the same bytes to the file
    emitted.clear()
    assert main(["construct", "--request", request, "--out", str(bundle)]) == 0
    (obj, _), = emitted
    assert bundle.read_text(encoding="utf-8") == dumps(obj) + "\n"


@pytest.mark.parametrize("error, code", [(InfeasibleCheck("C(30,7) = 2035800 rank checks"), 4),
                                         (AssertionError("plan ≠ code"), 3),
                                         (KeyError("k"), 2)])
def test_error_documents_are_written_as_json_dumps_writes_them(tmp_path, capsys, monkeypatch,
                                                               emitted, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "total_lower", fail)
    params = write_json(tmp_path / "params.json", {
        "k_initial": [2, 2], "n_initial": [4, 4], "n_final": 6, "k_final": 4, "d_final": 3,
        "r": 4, "delta": 2,
    })
    assert main(["bounds", "--params", params]) == code
    (obj, _), = emitted
    assert "error" in obj
    assert capsys.readouterr().out == dumps(obj) + "\n"
