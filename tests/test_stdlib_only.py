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


def test_no_module_imports_dataclasses():
    """Records are named tuples; ``dataclasses`` would cost every process its
    import and class generation, also in modules the CLI imports lazily."""
    users = {path.name for path in SOURCES for name in absolute_imports(path)
             if name.partition(".")[0] == "dataclasses"}
    assert not users


def unused_imports(path):
    """Names ``path`` imports but never reads; ``from __future__`` is a directive."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.partition(".")[0], node.lineno)
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used}


def test_every_import_is_used():
    # __init__ imports only to re-export
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    assert modules
    assert not set().union(*map(unused_imports, modules))
