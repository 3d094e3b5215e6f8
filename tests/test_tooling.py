"""Checks on the test suite's own structure."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import would reach whatever package the file sits in
            yield "." * node.level + (node.module or "")


def test_oracles_import_no_package_code():
    """The oracles stay independent of socrec, so a shared bug cannot make
    the library and its cross-check agree."""
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    modules = list(_imported_modules(tree))
    assert modules, "no imports found; the parse missed the file's header"
    offending = [m for m in modules
                 if m.startswith(".") or m == "socrec" or m.startswith("socrec.")]
    assert offending == []
