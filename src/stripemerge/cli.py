"""Command-line front end: construct, convert, verify, bounds, simulate.

All interchange is JSON on files or stdin/stdout.  Exit codes: 0 success,
2 validation error, 3 verification failure, 4 infeasible exact check.
The only environment knob is STRIPEMERGE_OUT, which redirects relative
output paths into a directory.  --seed feeds random test-vector
generation and nothing else; constructions are deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import Optional, Sequence

from .bounds import MergeParams, total_lower
from .codes import InfeasibleCheck
from .convert import (
    ConvertibleCode,
    build_lrc_merge,
    build_mds_merge,
    build_mds_to_lrc,
    execute,
    verify_convertible,
)
from .field import FieldCtx
from .pgl import (build_group, cyclic_subgroup_of_order, fixed_field_generator, place_obj,
                  split_structure)
from .schema import as_int, as_ints, as_list, as_object, within
from .sim import ClusterLayout, layout_one_per_symbol, layout_single_node, simulate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY = 3
EXIT_INFEASIBLE = 4


# request keys whose values must be integers, lists of integers or JSON
# booleans; null leaves an optional list at its default
_INT_KEYS = frozenset({"p", "s", "k", "t", "lprime", "delta", "subgroup_order", "a",
                       "tprime", "k_init"})
_BOOL_KEYS = frozenset({"evaluate_at_pole"})
_LIST_KEYS = frozenset({"modulus", "per_initial_dims", "n_init", "elements"})
_OPTIONAL_KEYS = frozenset({"modulus", "per_initial_dims", "elements"})


def _read_json(path: str) -> dict:
    if path == "-":
        obj = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _require_ints(obj, what: str) -> dict:
    """Reject a request section whose integer, list or boolean values are malformed."""
    obj = as_object(obj, what)
    for key, value in obj.items():
        if value is None and key in _OPTIONAL_KEYS:
            continue
        if key in _INT_KEYS:
            as_int(value, f"{what}.{key}")
        if key in _LIST_KEYS:
            as_ints(value, f"{what}.{key}")
        if key in _BOOL_KEYS and not isinstance(value, bool):
            raise ValueError(f"{what}.{key} must be a JSON boolean, got {value!r}")
    return obj


def _out_path(path: str) -> str:
    base = os.environ.get("STRIPEMERGE_OUT")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


_quote = json.encoder.encode_basestring_ascii


def _json_text(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True) with every line after
    the first indented by indent, byte for byte, by a walk that joins a
    list of exact ints (a codeword, a matrix row) with one str.join
    instead of json's pure-Python indenting encoder.  Strings are quoted
    by json's own ASCII encoder; a dict with a key that is not a str and
    every other leaf (bools, None, floats) go to json.dumps itself."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        if set(map(type, obj)) == {int}:
            body = sep.join(map(str, obj))
        else:
            body = sep.join([_json_text(x, inner) for x in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(obj, dict) and set(map(type, obj)) <= {str}:
        if not obj:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([_quote(k) + ": " + _json_text(v, inner)
                                     for k, v in sorted(obj.items())])
        return "{\n" + inner + body + "\n" + indent + "}"
    if type(obj) is int:
        return str(obj)
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _emit(obj: dict, out: Optional[str]) -> None:
    text = _json_text(obj)
    if out:
        with open(_out_path(out), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so that neither a
        # later write nor the flush at exit fails, and keep the exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _construct(request: dict) -> ConvertibleCode:
    request = as_object(request, "request")
    kind = request["kind"]
    field = FieldCtx.from_obj(_require_ints(request["field"], "field"))
    params = _require_ints(request.get("params", {}), "params")
    if kind == "mds_merge":
        group = within("group", build_group, field, request["group"])
        return build_mds_merge(
            field,
            group,
            k=params["k"],
            t=params["t"],
            lprime=params["lprime"],
            evaluate_at_pole=params.get("evaluate_at_pole", False),
            per_initial_dims=params.get("per_initial_dims"),
        )
    if kind == "lrc_merge":
        group = within("group", build_group, field, request["group"])
        if "subgroup" in request:
            sub = within("subgroup", build_group, field, request["subgroup"])
        else:
            sub = cyclic_subgroup_of_order(group, params["subgroup_order"])
        return build_lrc_merge(
            field,
            group,
            sub,
            k=params["k"],
            t=params["t"],
            lprime=params["lprime"],
            delta=params.get("delta", 2),
        )
    if kind == "mds_to_lrc":
        return build_mds_to_lrc(
            field,
            s=params["s"],
            a=params["a"],
            tprime=params["tprime"],
            delta=params["delta"],
            k_init=params["k_init"],
            n_init=params["n_init"],
            elements=params.get("elements"),
        )
    raise ValueError(f"unknown construction kind {kind!r}")


def _load_words(cc: ConvertibleCode, obj: dict, rng: random.Random):
    """One codeword per initial stripe: given, encoded from one message
    per stripe, or random when `random` is JSON true."""
    field, t = cc.field, len(cc.initials)
    if "codewords" in obj:
        return [
            tuple(field.element(e) for e in as_ints(w, "codewords entry"))
            for w in as_list(obj["codewords"], "codewords", t)
        ]
    if "messages" in obj:
        return [
            code.encode([field.element(e) for e in as_ints(msg, "messages entry")])
            for code, msg in zip(cc.initials, as_list(obj["messages"], "messages", t))
        ]
    if obj.get("random") is True:
        return [
            code.encode([field.element(rng.randrange(field.q)) for _ in range(code.k)])
            for code in cc.initials
        ]
    raise ValueError("need messages, codewords, or random: true")


def _cmd_construct(args) -> int:
    cc = _construct(_read_json(args.request))
    _emit(cc.to_obj(), args.out)
    return EXIT_OK


def _cmd_convert(args) -> int:
    cc = ConvertibleCode.from_obj(_read_json(args.bundle))
    rng = random.Random(args.seed)
    source = _read_json(args.words) if args.words else {"random": True}
    words = _load_words(cc, source, rng)
    final_word, report = execute(cc, words)
    _emit(
        {
            "final_codeword": [e.enc for e in final_word],
            "final_labels": list(cc.final.labels),
            "access": report.to_obj(),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    cc = ConvertibleCode.from_obj(_read_json(args.bundle))
    report = verify_convertible(cc, check_components=not args.skip_distance)
    _emit(report.to_obj(), args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_bounds(args) -> int:
    params = MergeParams.from_obj(_read_json(args.params))
    _emit(total_lower(params).to_obj(), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cc = ConvertibleCode.from_obj(_read_json(args.bundle))
    if args.layout:
        layout = ClusterLayout.from_obj(_read_json(args.layout))
    elif args.policy == "one-per-symbol":
        layout = layout_one_per_symbol(cc)
    else:
        layout = layout_single_node(cc)
    words = None
    if args.words:
        words = _load_words(cc, _read_json(args.words), random.Random(args.seed))
    report = simulate(cc, layout, words)
    _emit(report.to_obj(), args.out)
    return EXIT_OK


def _cmd_demo_q23(args) -> int:
    """Build the q = 23 four-stripe merge and diff it against recorded values."""
    field = FieldCtx(23, 1)
    group = build_group(
        field, {"kind": "cyclic_qplus1", "quad": [21, 5], "d": 4}
    )
    diffs: list[str] = []

    expected_orbits = [
        {0, 22, 8, 1},
        {2, 13, 16, 18},
        {3, 12, 15, 10},
        {4, 6, 20, 5},
        {7, 21, 17, 11},
        {9, "inf", 14, 19},
    ]
    got_orbits = [
        {place_obj(field, p) for p in orbit} for orbit in split_structure(group).free_orbits
    ]
    for want in expected_orbits:
        if want not in got_orbits:
            diffs.append(f"missing orbit {sorted(map(str, want))}")

    z = fixed_field_generator(group)
    if z.num.to_obj() != [7, 4, 8, 0, 1] or z.den.to_obj() != [21, 11, 4, 1]:
        diffs.append(f"fixed-field generator {z.to_obj()}")

    cc = build_mds_merge(
        field, group, k=5, t=4, lprime=4,
        evaluate_at_pole=True, per_initial_dims=(5, 5, 5, 4),
    )
    report = verify_convertible(cc)
    measured = report.measured
    for name, got, want in (
        ("write_cost", measured.write_cost, 4),
        ("read_cost", measured.read_cost, 16),
        ("per_symbol_read", measured.per_symbol_read, 16),
        ("access_optimal", report.access_optimal, True),
        ("components_ok", report.components_ok, True),
        ("unchanged_ok", report.unchanged_ok, True),
        ("bijective", report.bijective, True),
    ):
        if got != want:
            diffs.append(f"{name}: got {got}, want {want}")
    # components_ok includes is_mds(cc.final), so the distance is n - k + 1
    d_final = cc.final.n - cc.final.k + 1
    if d_final != 5:
        diffs.append(f"final distance: got {d_final}, want 5")

    _emit({"diffs": diffs, "verify": report.to_obj()}, args.out)
    return EXIT_OK if not diffs else EXIT_VERIFY


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="stripemerge",
        description="Construct, execute and verify merge conversions of erasure-coded stripes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a convertible code bundle")
    p.add_argument("--request", required=True, help="construction request JSON (- for stdin)")
    p.add_argument("--out", help="bundle output path (default stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("convert", help="run a conversion on codewords")
    p.add_argument("--bundle", required=True)
    p.add_argument("--words", help="messages/codewords JSON; omitted = random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("verify", help="verify a bundle end to end")
    p.add_argument("--bundle", required=True)
    p.add_argument("--skip-distance", action="store_true",
                   help="skip exact component-distance checks")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="access-cost floors for merge parameters")
    p.add_argument("--params", required=True, help="merge parameter JSON (- for stdin)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", help="replay a conversion against a cluster layout")
    p.add_argument("--bundle", required=True)
    p.add_argument("--layout", help="layout JSON; omitted = --policy")
    p.add_argument("--policy", choices=["single", "one-per-symbol"], default="single")
    p.add_argument("--words")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("demo-q23",
                       help="reproduce the q=23 four-stripe merge and diff recorded values")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_demo_q23)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleCheck as exc:
        _emit({"error": {"type": "infeasible", "message": str(exc)}}, None)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, None)
        return EXIT_VALIDATION
    except AssertionError as exc:
        _emit({"error": {"type": "verification", "message": str(exc)}}, None)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
