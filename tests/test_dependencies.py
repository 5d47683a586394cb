"""The library's third-party imports match `[project].dependencies`."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in ("ImportError", "ModuleNotFoundError") for t in types)


def _imports(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(required, optional) top-level modules imported by absolute imports;
    optional ones sit in a `try` whose handler catches ImportError."""
    guarded = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.Try) and any(map(_catches_import_error, node.handlers))
        for stmt in node.body
        for sub in ast.walk(stmt)
    }
    required: set[str] = set()
    optional: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        (optional if id(node) in guarded else required).update(name.split(".")[0] for name in names)
    return required, optional


def test_declared_dependencies_match_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower().replace("-", "_")
                for dep in project["dependencies"]}
    required: set[str] = set()
    optional: set[str] = set()
    for path in sorted((ROOT / "src" / "sparsekit").glob("*.py")):
        req, opt = _imports(ast.parse(path.read_text(), str(path)))
        required |= req
        optional |= opt
    first_party = set(sys.stdlib_module_names) | {"sparsekit"}
    assert required - first_party <= declared, "imported but not declared"
    assert declared <= required | optional, "declared but never imported"
