"""Per-layer tracing of stripemerge, installed from the benchmark's side.

`Tracer.install()` replaces the public functions and methods of every
stripemerge module with timing wrappers and `uninstall()` puts the
originals back; an untraced run never creates a Tracer, so it pays
nothing.  A module-level function is rebound in every module that holds
it, because a caller that imported it by name (`convert` binds `is_mds`,
`codes` binds `rank_of_rows`, `sim` and `cli` bind `execute`) would
otherwise keep calling the original.  Methods are patched on their class.

Each wrapped call records a span [name, start, end, parent, op id,
field seconds inside, pre-hook value, nested-in-same-name flag]; spans
stay in memory until `summary()` and `spans_table()` read them.  Field
operations are far too frequent for spans: they get call counts and one
aggregate time, taken only at the outermost field call, and a span's
self time excludes the field time spent inside it.  It still holds the
wrapper's own cost for each outermost field call the span makes, which is
of the order of a whole field operation; `install()` measures that cost
(`field_wrapper_s`) and `summary()` reports it with the number of such
calls (`trace.field_outer_calls`), so that field-heavy self times can be
read with it in mind.  Subtracting it is not reliable: the spans' own
time between field calls is smaller than the drift of that cost.

`paused()` puts the originals back for a stretch of benchmark-side work
(making inputs, computing expected outputs, checking them) so that the
per-layer figures hold only the library calls a workload measures.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_pc = time.perf_counter

FIELD_OPS = ("add_enc", "sub_enc", "mul_enc", "inv_enc", "neg_enc", "pow_enc")

# (module, function, span name); several group constructors share one name
# so that pgl.group.total_s counts only the outermost of nested calls.
FUNCTIONS = (
    ("field", "primitive_quadratic_search", "field.primitive_quadratic_search"),
    ("field", "primitive_quadratic_check", "field.primitive_quadratic_check"),
    ("poly", "poly_from_roots", "poly.from_roots"),
    ("matrix", "rank_of_rows", "matrix.rank_of_rows"),
    ("matrix", "vandermonde", "matrix.vandermonde"),
    ("codes", "distance_at_least", "codes.distance_at_least"),
    ("codes", "min_distance", "codes.min_distance"),
    ("codes", "is_mds", "codes.is_mds"),
    ("codes", "check_locality", "codes.check_locality"),
    ("codes", "is_optimal_lrc", "codes.is_optimal_lrc"),
    ("grs", "grs_code", "grs.grs_code"),
    ("grs", "grs_dual_prescribed", "grs.grs_dual_prescribed"),
    ("grs", "annihilator", "grs.annihilator"),
    ("pgl", "split_structure", "pgl.split_structure"),
    ("pgl", "fixed_field_generator", "pgl.fixed_field_generator"),
    ("pgl", "build_group", "pgl.group"),
    ("pgl", "subgroup_cyclic_qplus1", "pgl.group"),
    ("pgl", "subgroup_affine", "pgl.group"),
    ("pgl", "subgroup_dihedral", "pgl.group"),
    ("pgl", "cyclic_subgroup_of_order", "pgl.group"),
    ("bounds", "mds_merge_lower", "bounds.mds_merge_lower"),
    ("bounds", "total_lower", "bounds.total_lower"),
    ("bounds", "rdel_lower", "bounds.rdel_lower"),
    ("bounds", "rdel_lower_simplified", "bounds.rdel_lower_simplified"),
    ("bounds", "read_lower", "bounds.read_lower"),
    ("bounds", "unchanged_upper", "bounds.unchanged_upper"),
    ("bounds", "redundant_cover_sets", "bounds.redundant_cover_sets"),
    ("convert", "build_mds_merge", "convert.build_mds_merge"),
    ("convert", "build_lrc_merge", "convert.build_lrc_merge"),
    ("convert", "build_mds_to_lrc", "convert.build_mds_to_lrc"),
    ("convert", "execute", "convert.execute"),
    ("convert", "verify_convertible", "convert.verify_convertible"),
    ("sim", "simulate", "sim.simulate"),
    ("sim", "layout_one_per_symbol", "sim.layout_one_per_symbol"),
    ("sim", "layout_single_node", "sim.layout_single_node"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name); every field construction, through
# field_create or FieldCtx.from_obj, runs FieldCtx.__init__
METHODS = (
    ("field", "FieldCtx", "__init__", "field.field_create"),
    ("poly", "Poly", "__add__", "poly.add"),
    ("poly", "Poly", "__sub__", "poly.sub"),
    ("poly", "Poly", "__mul__", "poly.mul"),
    ("poly", "Poly", "__pow__", "poly.pow"),
    ("poly", "Poly", "divmod", "poly.divmod"),
    ("poly", "Poly", "gcd", "poly.gcd"),
    ("poly", "Poly", "eval", "poly.eval"),
    ("pgl", "RationalFunction", "eval_at", "pgl.eval_at"),
    ("pgl", "RationalFunction", "substitute", "pgl.substitute"),
    ("matrix", "MatQ", "__matmul__", "matrix.matmul"),
    ("matrix", "MatQ", "rref", "matrix.rref"),
    ("matrix", "MatQ", "rank", "matrix.rank"),
    ("matrix", "MatQ", "kernel", "matrix.kernel"),
    ("matrix", "MatQ", "solve", "matrix.solve"),
    ("matrix", "MatQ", "invert", "matrix.invert"),
    ("codes", "LinearCode", "encode", "codes.encode"),
    ("codes", "LinearCode", "contains", "codes.contains"),
)

LAYERS = ("field", "poly", "matrix", "codes", "grs", "pgl", "bounds", "convert", "sim", "cli")

_CLI_INPUTS = ("--request", "--bundle", "--params", "--layout", "--words")

# span record slots
NAME, START, END, PARENT, OP, FIELD_IN, PRE, NESTED = range(8)


def _in_benchmark(module) -> bool:
    path = getattr(module, "__file__", None)
    return bool(path) and Path(path).resolve().parent == Path(__file__).resolve().parent


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _cli_paths(argv, flags):
    argv = list(argv or ())
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in flags and argv[i + 1] != "-"]


def _field_wrapper(fn, idx, calls, busy, field_time, outer):
    """Count every call of field op `idx`; time only the outermost ones."""

    @functools.wraps(fn)
    def wrapper(field, *args):
        calls[idx] += 1
        if busy[0]:
            return fn(field, *args)
        busy[0] = 1
        outer[0] += 1
        t0 = _pc()
        try:
            return fn(field, *args)
        finally:
            field_time[0] += _pc() - t0
            busy[0] = 0

    return wrapper


def field_wrapper_cost(n: int = 20000, repeats: int = 5) -> float:
    """Seconds an outermost wrapped field call adds to its caller beyond
    the part the wrapper times itself: the best of `repeats` loops of `n`
    wrapped calls of a trivial method, less an empty loop and the timed
    part."""

    def raw(field, a, b):
        return a

    best = float("inf")
    for _ in range(repeats):
        field_time = [0.0]
        wrapped = _field_wrapper(raw, 0, [0], [0], field_time, [0])
        t0 = _pc()
        for _ in range(n):
            pass
        t1 = _pc()
        for _ in range(n):
            wrapped(None, 1, 2)
        t2 = _pc()
        best = min(best, ((t2 - t1) - (t1 - t0) - field_time[0]) / n)
    return max(best, 0.0)


class Tracer:
    """Spans and counters for one traced stretch of a benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.field_calls = [0] * len(FIELD_OPS)
        self.field_time = [0.0]
        self.field_outer = [0]
        self.field_wrapper_s = 0.0
        self._field_busy = [0]
        self.op = -1
        self.origin = _pc()
        self._restore: list[tuple[object, str, object, object]] = []
        self._hooks = {
            "matrix.rank_of_rows": (None, self._after_rank),
            "codes.distance_at_least": (self._before_distance, self._after_distance),
            "convert.execute": (None, self._after_execute),
            "sim.simulate": (None, self._after_simulate),
            "cli.main": (self._before_cli, self._after_cli),
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.field_wrapper_s = field_wrapper_cost()
        mods = {name: sys.modules[f"stripemerge.{name}"] for name in LAYERS}
        holders = [m for name, m in list(sys.modules.items())
                   if name.startswith("stripemerge") or _in_benchmark(m)]
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for mod, attr, span in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            wrapped[id(fn)] = (fn, self._span_wrapper(fn, span))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if value is original:
                    self._patch(holder, attr, wrapper)
        for mod, cls_name, meth, span in METHODS:
            cls = getattr(mods[mod], cls_name)
            self._patch(cls, meth, self._span_wrapper(cls.__dict__[meth], span))
        field_cls = mods["field"].FieldCtx
        for idx, meth in enumerate(FIELD_OPS):
            self._patch(field_cls, meth, _field_wrapper(
                field_cls.__dict__[meth], idx, self.field_calls, self._field_busy,
                self.field_time, self.field_outer))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original, _ = self._restore.pop()
            setattr(target, attr, original)

    @contextmanager
    def paused(self):
        """Run benchmark-side work on the original functions, unrecorded."""
        for target, attr, original, _ in reversed(self._restore):
            setattr(target, attr, original)
        try:
            yield
        finally:
            for target, attr, _, replacement in self._restore:
                setattr(target, attr, replacement)

    def _patch(self, target, attr, replacement) -> None:
        self._restore.append((target, attr, target.__dict__[attr], replacement))
        setattr(target, attr, replacement)

    def _open(self, name: str, pre_value) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op,
               self.field_time[0], pre_value, self.active[name] > 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active[name] += 1
        rec[START] = _pc()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = _pc()
        rec[FIELD_IN] = self.field_time[0] - rec[FIELD_IN]
        self.active[rec[NAME]] -= 1
        self.stack.pop()

    def _span_wrapper(self, fn, name):
        pre, post = self._hooks.get(name, (None, None))
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = open_span(name, pre(fn, args, kwargs) if pre else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(rec)
            if post:
                post(rec, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, op: int):
        """A benchmark-side span (set-up, one op) that library spans nest under."""
        self.op = op
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)

    # -- hooks: counts taken at the layer boundary ---------------------------

    def _after_rank(self, rec, args, kwargs, result) -> None:
        rows = args[1] if len(args) > 1 else kwargs["rows"]
        if rows:
            self.counters["matrix.rank_of_rows.cells"] += len(rows) * len(rows[0])
        if self.active["codes.distance_at_least"]:
            self.counters["codes.subsets"] += 1

    def _before_distance(self, fn, args, kwargs):
        budget = args[2] if len(args) > 2 else kwargs.get(
            "budget", inspect.signature(fn).parameters["budget"].default
        )
        return (self.counters["codes.subsets"], budget)

    def _after_distance(self, rec, args, kwargs, result) -> None:
        start, budget = rec[PRE]
        share = (self.counters["codes.subsets"] - start) / budget
        key = "codes.subset_budget_max_share"
        self.counters[key] = max(self.counters[key], share)

    def _after_execute(self, rec, args, kwargs, result) -> None:
        access = result[1]
        self.counters["convert.read_symbols"] += access.read_cost
        self.counters["convert.written_symbols"] += access.write_cost
        if self.active["convert.verify_convertible"]:
            self.counters["convert.verify.executes"] += 1

    def _after_simulate(self, rec, args, kwargs, result) -> None:
        for io in result.per_node.values():
            self.counters["sim.node_reads"] += io["reads"]
            self.counters["sim.node_writes"] += io["writes"]

    def _before_cli(self, fn, args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        self.counters["cli.bytes_in"] += sum(_file_size(p) for p in _cli_paths(argv, _CLI_INPUTS))
        return argv

    def _after_cli(self, rec, args, kwargs, result) -> None:
        self.counters["cli.bytes_out"] += sum(_file_size(p) for p in _cli_paths(rec[PRE], ("--out",)))
        if result != 0:
            self.counters["cli.exit_nonzero"] += 1

    # -- read-out ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics over everything traced so far."""
        spans = self.spans
        child_dur = [0.0] * len(spans)
        child_field = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_dur[rec[PARENT]] += rec[END] - rec[START]
                child_field[rec[PARENT]] += rec[FIELD_IN]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(spans):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            calls[name] += 1
            self_s[name] += dur - child_dur[i] - (rec[FIELD_IN] - child_field[i])
            if not rec[NESTED]:
                total_s[name] += dur

        m: dict[str, float] = {}
        for idx, op in enumerate(FIELD_OPS):
            m[f"field.{op}.calls"] = self.field_calls[idx]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        m["field.self_s"] += self.field_time[0]
        m["trace.field_outer_calls"] = self.field_outer[0]
        m["trace.field_wrapper_s"] = self.field_wrapper_s
        for name in {n for _, _, n in FUNCTIONS} | {n for _, _, _, n in METHODS}:
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
            m[f"{name}.total_s"] = total_s.get(name, 0.0)
        for key in ("matrix.rank_of_rows.cells", "codes.subsets", "codes.subset_budget_max_share",
                    "convert.read_symbols", "convert.written_symbols", "convert.verify.executes",
                    "sim.node_reads", "sim.node_writes", "cli.bytes_in", "cli.bytes_out",
                    "cli.exit_nonzero"):
            m[key] = self.counters.get(key, 0)
        return m

    def spans_table(self) -> dict:
        """Spans in compact form: name index, start and end in microseconds
        from the tracer's creation, parent span index, op id."""
        names: dict[str, int] = {}
        rows = []
        for rec in self.spans:
            idx = names.setdefault(rec[NAME], len(names))
            rows.append([idx, round((rec[START] - self.origin) * 1e6, 1),
                         round((rec[END] - self.origin) * 1e6, 1), rec[PARENT], rec[OP]])
        return {"names": list(names), "columns": ["name", "start_us", "end_us", "parent", "op"],
                "spans": rows}
