"""Rules every library module keeps.

A bare `assert` vanishes under `python -O`, so internal consistency
checks in the package raise AssertionError explicitly instead.  The
field's exp, log and Zech tables are read only in field.py, where the
arithmetic methods and the kernels tested against them live.  The
decision whether a field's addition and product tables are built tuples
(q <= TABLE_Q) or rows made on lookup is FieldCtx.__init__'s alone: no
other code names TABLE_Q, and no module tests a table against None.  The
column-table kernel is built only for encoding (LinearCode.encode) and
for execute's one conversion kernel (ConvertibleCode._runner); every
other map, membership and the plan's generator_rows included, stays on
the exact field operations it is tested against.  The row kernel,
FieldCtx.row_logs and sub_scaled, is called only by matrix.echelon, the
one elimination routine, by MatQ.rref's back-substitution over its
pivots, by Poly.divmod, by the subset walk's prefix step in
distance_at_least and by grs_certificate's residues: a new elimination
loop goes through echelon instead.
Every function, method and class of the package is named somewhere in
the package or the benchmark besides its own definition: library code
that only its own test calls is deleted.  No module imports dataclasses
or fractions, which every process would pay for at start-up, and a
fresh interpreter that imports the command line loads neither.  A place
is a plain int, its index, with q for infinity: no module names a point
class ProjPoint or reads an attribute finite or is_infinity of one.  A
scalar is a plain int, its encoding: poly.py, matrix.py, grs.py, pgl.py
and bounds.py name no FieldElem and call no word-API method (element,
word, encodings), and codes.py and convert.py do so only in encode,
contains, execute and verify_convertible.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "stripemerge").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements on lines {lines}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "field.py"],
                         ids=[p.name for p in SOURCES if p.name != "field.py"])
def test_field_tables_are_read_only_in_field_py(path):
    # table reads stay behind FieldCtx's arithmetic methods and kernels
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("_exp", "_log", "_zech")]
    assert lines == [], f"{path.name}: field tables read on lines {lines}"


# (module, enclosing class.function) of every ColumnSums construction
COLUMN_SUMS_BUILDERS = {
    ("codes.py", "LinearCode.encode"),
    ("convert.py", "ConvertibleCode._runner"),
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def scoped_nodes(tree):
    """(enclosing class.function, node) for every node of a module."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + (child.name,))
                continue
            found.append((".".join(scope), child))
            walk(child, scope)

    walk(tree, ())
    return found


def calls_of(tree, names):
    """(enclosing class.function, line) of each call of a function or
    method named in names."""
    found = []
    for scope, node in scoped_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((scope, node.lineno))
    return found


def package_calls(names):
    """(module, enclosing class.function, line) of each such call in the package."""
    return [(path.name, *call) for path in SOURCES for call in calls_of(parse(path), names)]


def test_column_sums_is_built_only_by_its_callers():
    calls = package_calls(("ColumnSums",))
    stray = [call for call in calls if call[:2] not in COLUMN_SUMS_BUILDERS]
    assert stray == [], f"ColumnSums built outside its callers: {stray}"
    assert {call[:2] for call in calls} == COLUMN_SUMS_BUILDERS


# (module, enclosing class.function) of every call of the row kernel,
# FieldCtx.sub_scaled or row_logs: the one elimination routine, rref's
# back-substitution, polynomial division, the subset walk's prefix step
# and the GRS certificate's residues modulo K
ROW_KERNEL_CALLERS = {
    ("matrix.py", "echelon"),
    ("matrix.py", "MatQ.rref"),
    ("poly.py", "Poly.divmod"),
    ("codes.py", "distance_at_least.walk"),
    ("codes.py", "grs_certificate"),
}


def test_rows_are_eliminated_only_by_echelon_and_its_peers():
    calls = package_calls(("sub_scaled", "row_logs"))
    stray = [call for call in calls if call[:2] not in ROW_KERNEL_CALLERS]
    assert stray == [], f"row kernel called outside its callers: {stray}"
    assert {call[:2] for call in calls} == ROW_KERNEL_CALLERS


def test_row_kernel_calls_are_found():
    source = ("def _kept(f, rows):\n"
              "    logs = f.row_logs(rows[0], 0)\n"
              "    f.sub_scaled(rows[1], 1, logs)\n"
              "class Elim:\n"
              "    def loop(self, f):\n"
              "        def step(row):\n"
              "            sub_scaled(row, 2, [])\n"
              "        return step\n")
    assert calls_of(ast.parse(source), ("sub_scaled", "row_logs")) == [
        ("_kept", 2), ("_kept", 3), ("Elim.loop.step", 7)]


ARITH_TABLES = ("add_table", "mul_table")


def table_q_reads(tree):
    """(enclosing class.function, line) of every read of TABLE_Q: a
    name, an attribute such as field.TABLE_Q, or an import."""
    return [(scope, node.lineno) for scope, node in scoped_nodes(tree)
            if isinstance(node, ast.Name) and node.id == "TABLE_Q" and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == "TABLE_Q"
            or isinstance(node, ast.alias) and node.name == "TABLE_Q"]


def table_forks(tree):
    """Lines that branch on whether a field holds add_table or mul_table:
    a comparison of one, or of a name bound to one, with None, or one
    used as a truth value (the test of an if, a while or a conditional
    expression, an operand of and, or and not)."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                bound.update(t.id for t, v in pairs if isinstance(t, ast.Name)
                             and isinstance(v, ast.Attribute) and v.attr in ARITH_TABLES)

    def is_table(node):
        return (isinstance(node, ast.Attribute) and node.attr in ARITH_TABLES
                or isinstance(node, ast.Name) and node.id in bound)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = (node.left, *node.comparators)
            if any(map(is_table, sides)) and any(
                    isinstance(side, ast.Constant) and side.value is None for side in sides):
                lines.append(node.lineno)
        elif isinstance(node, (ast.If, ast.While, ast.IfExp)) and is_table(node.test):
            lines.append(node.lineno)
        elif isinstance(node, ast.BoolOp) and any(map(is_table, node.values)):
            lines.append(node.lineno)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) and is_table(node.operand):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_field_ctx_init_decides_how_tables_are_stored(path):
    # FieldCtx.__init__ alone reads TABLE_Q, and every other reader of
    # add_table and mul_table indexes them with no fallback for a field
    # without them
    tree = parse(path)
    allowed = {"FieldCtx.__init__"} if path.name == "field.py" else set()
    assert [read for read in table_q_reads(tree) if read[0] not in allowed] == [], \
        f"{path.name}: TABLE_Q named outside FieldCtx.__init__"
    lines = table_forks(tree)
    assert lines == [], f"{path.name}: branches on add_table or mul_table on lines {lines}"


FORKS = [
    "if f.mul_table is None:\n    pass",
    "add = f.add_table\nif add is not None:\n    pass",
    "add, mul = f.add_table, f.mul_table\nwhile None is mul:\n    pass",
    "if f.mul_table:\n    pass",
    "table = f.add_table\nwhile table:\n    pass",
    "x = 1 if f.mul_table else 2",
    "ok = f.add_table and f.mul_table",
    "ok = not f.add_table",
]


@pytest.mark.parametrize("source", FORKS)
def test_table_forks_are_found(source):
    assert table_forks(ast.parse(source)) != []


def test_table_q_reads_are_found():
    source = "from .field import TABLE_Q\nimport stripemerge.field as F\nn = F.TABLE_Q\nm = TABLE_Q"
    assert [line for _, line in table_q_reads(ast.parse(source))] == [1, 3, 4]


def test_indexing_a_table_is_not_a_fork():
    assert table_forks(ast.parse("row = f.mul_table[a]\nb = f.add_table[row[c]][d]")) == []


def names_used(path, strings):
    """Every name a file uses: names, attributes and imported names, and
    with strings its string constants too (the tracer looks its targets
    up by name with getattr)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_library_name_has_a_caller():
    # a definition is not a use, so a name only its own test calls fails;
    # dunder methods are called by the language
    used = set().union(*(names_used(p, False) for p in SOURCES),
                       *(names_used(p, True) for p in BENCHMARK))
    unused = [
        (path.name, node.lineno, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert unused == [], f"defined but named nowhere else in src/ or perfbench/: {unused}"


# modules whose import costs every process its start-up: dataclasses builds
# each class through inspect, and fractions is needed by no bound
HEAVY_IMPORTS = ("dataclasses", "fractions")


def imported_modules(tree):
    """(top-level module name, line) of every import statement."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name.partition(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.partition(".")[0], node.lineno))
    return found


def test_imported_modules_are_found():
    source = "import dataclasses\nfrom fractions import Fraction\nimport os.path\nfrom . import x"
    assert imported_modules(ast.parse(source)) == [("dataclasses", 1), ("fractions", 2),
                                                   ("os", 3)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_imports_dataclasses_or_fractions(path):
    lines = [(name, line) for name, line in imported_modules(parse(path))
             if name in HEAVY_IMPORTS]
    assert lines == [], f"{path.name}: imports {lines}"


def test_cli_loads_without_dataclasses_or_fractions():
    # a fresh interpreter without site, so that nothing but the package imports
    code = ("import sys, stripemerge.cli; "
            f"print(sorted(set({HEAVY_IMPORTS!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# a place is its index, q for infinity, so no module wraps it in a class
PLACE_CLASS = "ProjPoint"
PLACE_ATTRS = ("finite", "is_infinity")


def place_wrapper_uses(tree):
    """Lines that name the class PLACE_CLASS (a name, an attribute, an
    import, a definition or a string such as an __all__ entry) or read an
    attribute in PLACE_ATTRS."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id == PLACE_CLASS
                   or isinstance(node, ast.Attribute) and node.attr in (PLACE_CLASS, *PLACE_ATTRS)
                   or isinstance(node, ast.alias) and node.name.rpartition(".")[2] == PLACE_CLASS
                   or isinstance(node, ast.ClassDef) and node.name == PLACE_CLASS
                   or isinstance(node, ast.Constant) and node.value == PLACE_CLASS})


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_places_are_plain_indices(path):
    lines = place_wrapper_uses(parse(path))
    assert lines == [], f"{path.name}: a place wrapped in a class on lines {lines}"


def test_place_wrapper_uses_are_found():
    source = ("from .pgl import ProjPoint\n"
              "class ProjPoint:\n"
              "    pass\n"
              "inf = pgl.ProjPoint.infinity()\n"
              "enc = pt.finite.enc\n"
              "if pt.is_infinity:\n"
              "    pass\n"
              "__all__ = ['ProjPoint']\n"
              "finite, is_infinity = 1, pt == q\n")
    assert place_wrapper_uses(ast.parse(source)) == [1, 2, 4, 5, 6, 8]


# a scalar is its encoding: FieldElem is only the symbol type of the word
# API, so the modules of scalars name it nowhere and call no word-API
# method, and codes.py and convert.py do so only in the word API itself
SYMBOL_CLASS = "FieldElem"
WORD_METHODS = ("element", "word", "encodings")
SCALAR_MODULES = ("poly.py", "matrix.py", "grs.py", "pgl.py", "bounds.py")
WORD_API = {"codes.py": ("LinearCode.encode", "LinearCode.contains"),
            "convert.py": ("execute", "verify_convertible")}


def symbol_uses(tree, imports=True):
    """(enclosing class.function, line) of each line that names the class
    SYMBOL_CLASS (a name, an attribute, a definition, a string such as an
    __all__ entry, or, with imports, an import) or calls a method in
    WORD_METHODS."""
    # scoped_nodes opens a class's scope without listing the class itself
    found = {("", node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and node.name == SYMBOL_CLASS}
    for scope, node in scoped_nodes(tree):
        if (isinstance(node, ast.Name) and node.id == SYMBOL_CLASS
                or isinstance(node, ast.Attribute) and node.attr == SYMBOL_CLASS
                or isinstance(node, ast.Constant) and node.value == SYMBOL_CLASS
                or imports and isinstance(node, ast.alias)
                and node.name.rpartition(".")[2] == SYMBOL_CLASS
                or isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) in WORD_METHODS):
            found.add((scope, node.lineno))
    return sorted(found, key=lambda use: use[1])


@pytest.mark.parametrize("name", SCALAR_MODULES + tuple(WORD_API))
def test_scalars_are_plain_ints(name):
    path = ROOT / "src" / "stripemerge" / name
    allowed = WORD_API.get(name, ())
    # codes.py and convert.py import the class for the word API's annotations
    stray = [(scope, line) for scope, line in symbol_uses(parse(path), imports=not allowed)
             if not any(scope == api or scope.startswith(api + ".") for api in allowed)]
    assert stray == [], f"{name}: a scalar wrapped as a symbol at {stray}"


def test_symbol_uses_are_found():
    source = ("from .field import FieldCtx, FieldElem\n"
              "class FieldElem:\n"
              "    pass\n"
              "def f(c: FieldElem) -> int:\n"
              "    return field.FieldElem(field, c).enc\n"
              "def g(field):\n"
              "    return field.element(3), field.word([1]), field.encodings(w)\n"
              "__all__ = ['FieldElem']\n"
              "def h(field):\n"
              "    return field.scalar(3), field.elements, word(w)\n")
    tree = ast.parse(source)
    assert symbol_uses(tree) == [("", 1), ("", 2), ("f", 4), ("f", 5), ("g", 7), ("", 8)]
    assert symbol_uses(tree, imports=False) == [("", 2), ("f", 4), ("f", 5), ("g", 7), ("", 8)]
