"""Record golden.json: bundle digests and (read, write) pairs.

    python3 perfbench/golden.py

Builds every request of instances.json twice, once through the builders
in process and once through `stripemerge construct`, checks that both
give the same canonical bundle, and writes its SHA-256 and access pair.
Run it only when a change is meant to alter bundles; the benchmark
counts any bundle that differs from this file as a failed op.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from run import import_library, use_sources
from workloads import HERE, bundle_digest, load_json, prepare


def main() -> int:
    if not use_sources():
        raise SystemExit("golden: no stripemerge sources under src/")
    lib = import_library()
    golden = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, request in load_json("instances.json")["requests"].items():
            cc = prepare(lib, request)()
            digest = bundle_digest(cc.to_obj())
            req, out = Path(tmp) / "request.json", Path(tmp) / "bundle.json"
            req.write_text(json.dumps(request), encoding="utf-8")
            if lib.cli.main(["construct", "--request", str(req), "--out", str(out)]) != 0:
                raise SystemExit(f"golden: construct failed for {name}")
            if bundle_digest(json.loads(out.read_text(encoding="utf-8"))) != digest:
                raise SystemExit(f"golden: CLI and in-process bundles differ for {name}")
            access = cc.static_access()
            golden[name] = {"sha256": digest, "read_write": [access.read_cost, access.write_cost]}
            print(f"{name:<24} {access.read_cost:>3} {access.write_cost:>3} {digest}")
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
