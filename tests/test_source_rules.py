"""Rules every library module keeps.

A bare `assert` vanishes under `python -O`, so internal consistency
checks in the package raise AssertionError explicitly instead.  The
field's exp, log and Zech tables are read only in field.py, where the
arithmetic methods and the kernels tested against them live.
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
