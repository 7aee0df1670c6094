"""Every benchmark request, built through the CLI, must reproduce its pinned
bundle byte for byte and convert correctly.

The requests and digests are the benchmark's own (perfbench/instances.json
and perfbench/golden.json); this test only reads them.  They cover MDS
merges over GF(23), GF(27) and GF(49), LRC merges over GF(32) and GF(64),
and MDS-to-LRC conversions over GF(23), GF(25), GF(27) and GF(49).
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from stripemerge.cli import main
from stripemerge.convert import ConvertibleCode, execute, verify_convertible

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
REQUESTS = json.loads((BENCH / "instances.json").read_text(encoding="utf-8"))["requests"]
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def canonical_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_bundle_matches_golden_and_converts(name, tmp_path, capsys):
    request = tmp_path / "request.json"
    request.write_text(json.dumps(REQUESTS[name]), encoding="utf-8")
    bundle = tmp_path / "bundle.json"
    assert main(["construct", "--request", str(request), "--out", str(bundle)]) == 0
    capsys.readouterr()
    obj = json.loads(bundle.read_text(encoding="utf-8"))
    assert canonical_digest(obj) == GOLDEN[name]["sha256"]

    cc = ConvertibleCode.from_obj(obj)
    access = cc.static_access()
    assert [access.read_cost, access.write_cost] == GOLDEN[name]["read_write"]

    field = cc.field
    rng = random.Random(name)
    for _ in range(3):
        msgs = [[field.element(rng.randrange(field.q)) for _ in range(code.k)]
                for code in cc.initials]
        words = [code.encode(m) for code, m in zip(cc.initials, msgs)]
        final_word, _ = execute(cc, words)
        assert final_word == cc.final.encode([e for m in msgs for e in m])
        for i, pairs in enumerate(cc.plan.unchanged):
            for src, dst in pairs:
                assert final_word[dst] == words[i][src]

    report = verify_convertible(cc, trials=5, check_components=False)
    assert report.ok and report.access_optimal
