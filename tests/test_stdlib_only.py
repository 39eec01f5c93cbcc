"""The package runs on the Python standard library alone."""

import ast
import sys

from conftest import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "asmsim").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_standard_library():
    assert SOURCES
    foreign = {f"{path.name}: {name}" for path in SOURCES for name in absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not foreign
