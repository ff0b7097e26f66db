"""The library stays pure Python with exact arithmetic: checked on its source."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "glci").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def test_library_imports_only_stdlib_and_uses_no_floats():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                roots = []
            for root in roots:
                assert root in sys.stdlib_module_names or root == "glci", (where, root)
            assert not (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            ), f"{where}: floating-point literal"
            assert not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ), f"{where}: float() call"


def test_every_module_level_definition_is_used():
    """Each top-level function and class in the library is named somewhere
    in the library or its tests besides its own definition."""
    named = set()
    for path in SOURCES + TESTS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in named
    ]
    assert not unused, unused
