"""The package runs on the Python standard library alone, and its records are
plain ``collections.namedtuple`` classes."""

import ast
import builtins
import importlib
import re
import sys

import pytest

from asmsim import errors
from asmsim.asm_parser import ParserConfig

from conftest import REPO_ROOT
from test_bench_surface import trees
from test_readme import readme_block

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


def test_no_module_imports_dataclasses_or_typing():
    """Records are plain named tuples; ``dataclasses`` or ``typing`` would cost
    every process its import and a second layer of class generation, also in
    modules the CLI imports lazily."""
    users = {f"{path.name}: {name}" for path in SOURCES for name in absolute_imports(path)
             if name.partition(".")[0] in {"dataclasses", "typing"}}
    assert not users


# Every record of the package: its fields and their defaults.
RECORDS = {
    "asm_parser.ParserConfig": (("comment_markers", "branch_mnemonics", "strict"), {
        "comment_markers": frozenset({"@", "//"}),
        "branch_mnemonics": frozenset({"b", "bl", "blx", "bx", "cbz", "cbnz", "tbb",
                                       "tbh"}),
        "strict": False}),
    "asm_parser.AssemblyProgram": (("mnemonics", "operands", "labels", "diagnostics"),
                                   {"diagnostics": ()}),
    "config.ToolConfig": (("compiler_command", "compiler_flags", "parser", "strides",
                           "output_format", "ngram_mode", "jobs"), {
        "compiler_command": "arm-none-eabi-gcc", "compiler_flags": ("-S", "-mthumb", "-O0"),
        "parser": ParserConfig(), "strides": None, "output_format": "markdown",
        "ngram_mode": "blocks", "jobs": 1}),
    "corpus.ProgramEntry": (("id", "path", "programmer", "application"), {}),
    "corpus.ManifestData": (("datasets", "metadata"), {}),
    "corpus.CorpusGrid": (("programmers", "applications", "cells"), {}),
    "corpus.GroupingScheme": (("kind", "stride"), {"stride": None}),
    "corpus.Subset": (("label", "members"), {}),
    "corpus.PairValue": (("id_a", "id_b", "value"), {}),
    "corpus.SubsetSummary": (("label", "pairs", "mean"), {}),
    "corpus.GroupingResult": (("scheme", "subsets", "mean"), {}),
    "corpus.MetricStudy": (("kind", "groupings", "td_mean", "normalized"), {}),
    "corpus.StudyReport": (("dataset", "programmers", "applications", "strides",
                            "metrics"), {}),
    "corpus.SuiteSummary": (("means", "normalized"), {}),
    "corpus.StudySuite": (("reports", "summary"), {}),
    "crosscompile.CompileOutcome": (("entry", "output", "cached", "error"),
                                    {"cached": False, "error": None}),
    "crosscompile.CompileResult": (("outcomes", "manifest_path"), {}),
    "features.PatternSet": (("patterns",), {}),
    "features.ProgramFeatures": (("frequency", "patterns2", "patterns3"), {}),
}


def test_every_record_keeps_its_fields_and_no_instance_dict():
    """Each record is a ``collections.namedtuple`` class, or a subclass of one
    with ``__slots__ = ()``: a subclass without it gives every instance a
    ``__dict__``."""
    found = {}
    for path in SOURCES:
        if path.stem.startswith("__"):  # __init__ re-exports; __main__ runs the CLI
            continue
        module = importlib.import_module(f"asmsim.{path.stem}")
        found.update((f"{path.stem}.{name}", cls) for name, cls in vars(module).items()
                     if isinstance(cls, type) and issubclass(cls, tuple)
                     and hasattr(cls, "_fields") and cls.__module__ == module.__name__)
    assert found.keys() == RECORDS.keys()
    for name, cls in found.items():
        assert cls.__dictoffset__ == 0, name
        assert (cls._fields, cls._field_defaults) == RECORDS[name], name


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


def test_every_export_has_a_reader():
    """Code that cannot change an output is deleted: ``asmsim/__init__.py``
    re-exports exactly the names that the README's ``## Library`` example and
    the files under ``bench/`` (scripts they hold as strings included) import
    with ``from asmsim import``, submodules left out; every other name is
    imported from its own module."""
    init = REPO_ROOT / "src" / "asmsim" / "__init__.py"
    exported = {alias.asname or alias.name
                for node in ast.parse(init.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    readers = [readme_block("## Library", "python"),
               *(path.read_text(encoding="utf-8")
                 for path in sorted((REPO_ROOT / "bench").glob("*.py")))]
    imported = {alias.name for text in readers for tree in trees(text)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "asmsim"
                for alias in node.names if not (init.parent / f"{alias.name}.py").is_file()}
    assert exported
    assert exported == imported


def reads_a_file(call):
    """True if ``call`` reads a file: it calls ``read_text`` or ``read_bytes``,
    ``open(file, mode)`` or ``path.open(mode)`` with no mode or any but a
    constant one without ``r`` and ``+``, or ``os.open(file, flags)`` with
    flags that do not name ``O_WRONLY``."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("read_text", "read_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and ast.unparse(func.value) == "os":
        return "O_WRONLY" not in ast.unparse(call.args[1])
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    mode = ([k.value for k in call.keywords if k.arg == "mode"] or modes or [None])[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("r+"))


def holders(path, test):
    """``module.function`` for each function of ``path`` that holds a node for
    which ``test`` is true (``module`` for code outside any function)."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{path.stem}.{node.name}"
        elif test(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return found


def callers(path, test):
    """``module.function`` for each function of ``path`` that makes a call for
    which ``test`` is true (``module`` for code outside any function)."""
    return holders(path, lambda node: isinstance(node, ast.Call) and test(node))


def test_only_read_input_reads_a_file():
    """Every input file is read by ``corpus.read_input``, so that a failed read
    is an InputError in one place, and no read can wait on a FIFO that
    ``corpus.program_files`` has not checked."""
    readers = set().union(*(callers(path, reads_a_file) for path in SOURCES))
    assert readers == {"corpus.read_input"}


def test_one_output_rule():
    """``corpus.make_dir`` is the one maker of an output directory, and
    ``corpus.replace_file`` the one rename of a whole file over its final name,
    so that each failure is one InputError, and a failed rename leaves no
    partial file: no other function calls ``mkdir``, ``os.replace`` or a
    ``rename``. ``corpus.partial_path`` is the one name a file is staged under,
    and ``make_dir``, whose pattern matches that name, the one sweep of those
    that a killed run leaves: no other function holds a string constant or an
    f-string part with ``.partial`` as in a file name, and no other function
    calls ``os.kill``. Only ``make_dir`` lists a directory (``iterdir``,
    ``os.scandir`` or ``os.listdir``): ``crosscompile.compile_corpus`` takes
    its cache hits and its prune of the entries that a run with no failed
    compile does not name from the listing that ``make_dir`` returns, and
    the prune's pattern matches no staging name, so neither deletes what
    the other leaves. Each function that stages a file binds
    the ``partial_path`` result to a name and unlinks that name in a
    ``finally`` of its own, so no exit path leaves the partial file behind."""
    def makes_a_dir(call):
        return getattr(call.func, "attr", None) in ("mkdir", "makedirs")

    def renames(call):
        return (ast.unparse(call.func) == "os.replace"
                or getattr(call.func, "attr", None) in ("rename", "renames"))

    assert set().union(*(callers(path, makes_a_dir) for path in SOURCES)) == {
        "corpus.make_dir"}
    assert set().union(*(callers(path, renames) for path in SOURCES)) == {
        "corpus.replace_file"}

    def names_a_partial(node):  # not `corpus.partial_path`, as a docstring names it
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.search(r"\.partial\b", node.value) is not None)

    def kills(call):
        return ast.unparse(call.func) == "os.kill"

    def lists(call):
        return (ast.unparse(call.func) in ("os.scandir", "os.listdir")
                or getattr(call.func, "attr", None) == "iterdir")

    assert set().union(*(holders(path, names_a_partial) for path in SOURCES)) == {
        "corpus.partial_path", "corpus.make_dir"}
    assert set().union(*(callers(path, kills) for path in SOURCES)) == {"corpus.make_dir"}
    assert set().union(*(callers(path, lists) for path in SOURCES)) == {"corpus.make_dir"}

    def stages(node):
        return isinstance(node, ast.Call) and (
            ast.unparse(node.func).rpartition(".")[2] == "partial_path")

    staged, unlinked, calls, bound = set(), set(), set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls |= set(filter(stages, ast.walk(tree)))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = f"{path.stem}.{function.name}"
            for node in ast.walk(function):
                if isinstance(node, (ast.Assign, ast.NamedExpr)) and stages(node.value):
                    bound.add(node.value)
                    names = node.targets if isinstance(node, ast.Assign) else [node.target]
                    staged |= {(owner, ast.unparse(name)) for name in names}
                elif isinstance(node, ast.Try):
                    unlinked |= {(owner, ast.unparse(call.func.value))
                                 for statement in node.finalbody for call in ast.walk(statement)
                                 if isinstance(call, ast.Call)
                                 and getattr(call.func, "attr", None) == "unlink"}
    assert calls == bound, [ast.unparse(call) for call in calls - bound]  # each bound to a name
    assert {owner for owner, _ in staged} == {"corpus.write_file", "crosscompile.compile_entry"}
    assert staged <= unlinked, staged - unlinked


def test_one_command_reading():
    """``compile_corpus`` is the one reading of the compiler command, which
    ``ToolConfig.__new__`` checks as it comes from outside: no other function
    calls ``shlex.split``, so the placeholders are filled by one rule, in
    ``crosscompile.build_command``, in words that were split once."""
    def splits(call):
        return ast.unparse(call.func) == "shlex.split"

    assert set().union(*(callers(path, splits) for path in SOURCES)) == {
        "config.__new__", "crosscompile.compile_corpus"}


def test_one_cache_key():
    """``compile_corpus`` keys each source's cache file on the word list that it
    hands to ``compile_entry``, so the key is the argv template that runs and
    two spellings of one command share the cache: no other function calls
    ``content_hash``, and that call and the ``compile_entry`` call both pass
    the name ``words``."""
    def named(name):
        return lambda call: ast.unparse(call.func).rpartition(".")[2] == name

    assert set().union(*(callers(path, named("content_hash")) for path in SOURCES)) == {
        "crosscompile.compile_corpus"}
    for name in ("content_hash", "compile_entry"):
        passed = [[ast.unparse(arg) for arg in node.args] for path in SOURCES
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Call) and named(name)(node)]
        assert passed and all("words" in args for args in passed), (name, passed)


def test_one_escape_rule():
    """``errors.one_line`` is the one rule that escapes outside text in a line
    asmsim writes: no other function calls ``str.translate``, and no module
    imports ``csv``, whose writer leaves a bare CR in a field unquoted."""
    def translates(call):
        return getattr(call.func, "attr", None) == "translate"

    assert set().union(*(callers(path, translates) for path in SOURCES)) == {"errors.one_line"}
    assert not [path.name for path in SOURCES if "csv" in absolute_imports(path)]


def test_one_stdout_writer():
    """``cli._write_parts`` is the one writer of asmsim's output, so that every
    failed write to stdout is one InputError: ``src/`` calls no ``print`` and
    reads no attribute of ``sys.stdout`` but ``fileno``, which only that
    function calls, and no call opens or writes fd 1 by its number."""
    def prints(call):
        return getattr(call.func, "id", None) == "print"

    def opens_stdout(call):
        func = ast.unparse(call.func)
        return func == "sys.stdout.fileno" or (
            func in ("open", "os.fdopen", "os.write") and bool(call.args)
            and isinstance(call.args[0], ast.Constant) and call.args[0].value == 1)

    assert not set().union(*(callers(path, prints) for path in SOURCES))
    read = {ast.unparse(node) for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            if isinstance(node, ast.Attribute)
            and ast.unparse(node.value) in ("sys.stdout", "sys.__stdout__")}
    assert read == {"sys.stdout.fileno"}
    assert set().union(*(callers(path, opens_stdout) for path in SOURCES)) == {
        "cli._write_parts"}


def test_one_parser_class():
    """Every parser is ``cli._Parser``, whose usage error is an InputError and
    whose help goes through ``cli._write_parts``, so that argparse neither
    prints nor exits on a usage error: ``src/`` calls ``argparse.ArgumentParser``
    nowhere, and no call names a ``parser_class``, so subparsers take their
    parent's."""
    def builds_another_parser(call):
        return (ast.unparse(call.func).rpartition(".")[2] == "ArgumentParser"
                or any(keyword.arg == "parser_class" for keyword in call.keywords))

    assert not set().union(*(callers(path, builds_another_parser) for path in SOURCES))


def formats_a_caught_oserror(tree, where):
    """``where:line`` of each ``raise`` in an ``except`` clause of ``tree`` that
    catches an OSError, or a subclass of one, as a name that the raised error
    formats: ``{exc}`` (with any conversion), ``str(exc)``, ``repr(exc)`` or
    ``format(exc)``."""
    found = set()
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught = [getattr(builtins, ast.unparse(t), None) for t in types]
        if not any(isinstance(c, type) and issubclass(c, OSError) for c in caught):
            continue
        for node in ast.walk(handler):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            for part in ast.walk(node.exc):
                if isinstance(part, ast.FormattedValue):
                    values = [part.value]
                elif (isinstance(part, ast.Call)
                      and ast.unparse(part.func) in ("str", "repr", "format")):
                    values = part.args[:1]
                else:
                    continue
                if any(isinstance(v, ast.Name) and v.id == handler.name for v in values):
                    found.add(f"{where}:{node.lineno}")
    return found


def test_one_reason_rule():
    """``errors.reason`` is the one rule for what an error message says of an
    OSError: no other function reads ``strerror``, and no error raised where an
    OSError is caught formats the caught exception, so no message repeats as a
    Python repr the file that the error's entity names."""
    readers = {f"{path.stem}.{node.name}" for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(node, ast.FunctionDef) and "strerror" in ast.unparse(node)}
    assert readers == {"errors.reason"}
    assert not set().union(*(
        formats_a_caught_oserror(ast.parse(path.read_text(encoding="utf-8")), path.name)
        for path in SOURCES))


@pytest.mark.parametrize("caught, message, formats", [
    ("OSError", 'f"cannot run compiler: {exc}"', True),
    ("(OSError, ValueError)", 'f"cannot read: {exc!r}"', True),
    ("PermissionError", '"cannot read: " + str(exc)', True),
    ("OSError", 'f"cannot run compiler: {reason(exc)}"', False),
    ("ValueError", 'f"not valid JSON: {exc}"', False),
])
def test_the_reason_rule_sees_a_caught_oserror_formatted(caught, message, formats):
    source = (f"try:\n    run()\nexcept {caught} as exc:\n"
              f"    raise ToolError({message}) from exc\n")
    found = formats_a_caught_oserror(ast.parse(source), "m.py")
    assert found == ({"m.py:4"} if formats else set())


def test_one_error_class_per_exit_code():
    """An error class that no ``except`` clause in ``src/`` or ``bench/`` names
    is told apart only by its exit code, so two such classes with one code
    would be one failure spelled twice."""
    caught = set()
    for path in [*SOURCES, *sorted((REPO_ROOT / "bench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(ast.unparse(t).rpartition(".")[2] for t in types)
    codes = {name: cls.exit_code for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.AsmSimError)
             and cls is not errors.AsmSimError and name not in caught}
    assert codes
    assert len(set(codes.values())) == len(codes), codes


def test_one_line_break_set():
    """``errors.LINE_BREAKS`` is the one spelling of the characters at which
    ``str.splitlines`` ends a line, read by the parser's comment cut and by the
    escape rule: no other string constant in ``src/`` holds U+2028."""
    holders = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = {id(node.value): f"{path.stem}.{node.targets[0].id}" for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
        holders.update(names.get(id(node), f"{path.name}:{node.lineno}")
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and "\u2028" in str(node.value))
    assert holders == {"errors.LINE_BREAKS"}
