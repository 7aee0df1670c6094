"""Rules every library module keeps.

A bare `assert` vanishes under `python -O`, so internal consistency
checks in the package raise AssertionError explicitly instead.  The
field's exp, log and Zech tables are read only in field.py, where the
arithmetic methods and the kernels tested against them live.  The
column-table kernel is built only for membership checks and encoding
(LinearCode.checks and encode) and for execute's one conversion kernel
(ConvertibleCode._runner); every other map, the plan's generator_rows
included, stays on the exact field operations it is tested against.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "stripemerge").glob("*.py"))


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
    ("codes.py", "LinearCode.checks"),
    ("codes.py", "LinearCode.encode"),
    ("convert.py", "ConvertibleCode._runner"),
}


def column_sums_calls(path):
    """(module, enclosing class.function, line) of each ColumnSums(...) call."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "ColumnSums":
                    found.append((path.name, ".".join(scope), child.lineno))
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), ())
    return found


def test_column_sums_is_built_only_by_its_callers():
    calls = [call for path in SOURCES for call in column_sums_calls(path)]
    stray = [call for call in calls if call[:2] not in COLUMN_SUMS_BUILDERS]
    assert stray == [], f"ColumnSums built outside its callers: {stray}"
    assert {call[:2] for call in calls} == COLUMN_SUMS_BUILDERS
