"""Every asmsim name that the benchmark under ``bench/`` uses resolves.

``bench/`` runs the package in subprocesses, where a missing name shows up
only as an opaque failure string; this reads the benchmark's sources with
``ast`` instead, so a deletion that breaks the benchmark fails here and
names what is missing.
"""

import ast
import importlib

import pytest

from conftest import REPO_ROOT

BENCH_FILES = sorted((REPO_ROOT / "bench").glob("*.py"))
PACKAGE = REPO_ROOT / "src" / "asmsim"


def trees(source):
    """The module ``source`` and every string constant in it that is itself
    Python importing asmsim, such as a script run in a child interpreter."""
    tree = ast.parse(source)
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "asmsim import" in node.value:
            yield from trees(node.value)


def used_names(path):
    """(module, name) for every ``from asmsim... import name`` in ``path``,
    and for every ``alias.attr`` where ``alias`` is an asmsim module that
    ``path`` imports (as ``from asmsim import cli``)."""
    found, modules = set(), {}
    for tree in trees(path.read_text(encoding="utf-8")):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("asmsim"):
                for alias in node.names:
                    if node.module == "asmsim" and (PACKAGE / f"{alias.name}.py").is_file():
                        modules[alias.asname or alias.name] = f"asmsim.{alias.name}"
                    else:
                        found.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
    return found


def test_the_scan_sees_imports_module_attributes_and_embedded_scripts():
    traced = used_names(REPO_ROOT / "bench" / "traced.py")
    assert ("asmsim.corpus", "load_datasets") in traced
    assert ("asmsim.cli", "build_parser") in traced
    # only the set-up probe, a script in a string, calls it in run.py
    assert ("asmsim.cli", "resolve_config") in used_names(REPO_ROOT / "bench" / "run.py")


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_every_asmsim_name_the_benchmark_uses_resolves(path):
    missing = sorted(f"{module}.{name}" for module, name in used_names(path)
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, f"{path.name} uses names asmsim no longer has: {missing}"
