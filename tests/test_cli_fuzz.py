"""``cli.main``, run in-process on corrupt inputs, ends with a documented exit code
and one ``error:`` line, and lets no exception escape.

Each example builds a small corpus in a fresh directory and corrupts some of
it: manifests and configs with wrong JSON types, deep nesting, non-UTF-8 bytes,
integers past Python's 4 300-digit limit and duplicate keys; program paths that
are missing, directories or FIFOs; empty and unclassifiable assembly; and
strides out of range; program and output paths whose name is over the 255 bytes
that one may take; a lone surrogate in a dataset name. Some command lines are
malformed: no command or an unknown one, an unknown flag or one that the command
does not read, a flag value of the wrong form, a missing argument; others ask
for help, ``--help`` or ``-h`` at the top level or after the command, which
ends the parse, so ``cli.main`` returns 0 and writes the help. No FIFO is
ever the manifest or the config, since reading a pipe that has no writer blocks.
``compile`` runs ``sh`` as its compiler, and ``--jobs`` stays at 4 or less; its
cache may already hold a directory named like a stale partial file.
"""

import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asmsim import cli

PROGRAMS = {
    "plain": b"\tmov r0, r1\nloop:\n\tadds r0, #1\n\tcmp r0, #3\n\tbne loop\n\tbx lr\n",
    "other": b"\tpush {r4, lr}\n\tbl helper\n\tmovs r4, r0\n\tpop {r4, pc}\n",
    "empty": b"",
    "comments": b"@ only a comment\n\t.text\n",
    "unclassifiable": b"\t!!! junk\n\tmov r0, r1\n",
    "non_utf8": b"\tmov r0, r1 @ caf\xe9\n\tb\xff r0\n",
}
# a file with the program's text, or what stands where the file should be
PATH_KINDS = ("file", "file", "file", "missing", "directory", "fifo", "long_name")
LONG_NAME = "n" * 300

# the name of a compile's partial file whose process is gone: no pid_max reaches the pid
STALE_PARTIAL = "0123456789abcdef.999999999.partial.s"

# compilers that copy the source, fail, or do not exist; sh ignores the
# compiler_flags appended after its two arguments
COMPILERS = ("sh -c 'cp \"$0\" \"$1\"' {input} {output}",
             "sh -c 'exit 1' {input} {output}",
             "/nonexistent/asmsim-cc {input} {output}")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=5)

# ways to corrupt a JSON document's text, besides giving a field a wrong value
RAW_FAULTS = ("none", "deep", "non_utf8", "big_int", "duplicate_key", "truncated")

# ways to malform a command line, or to ask for help; most are whole
USAGE_FAULTS = ("none",) * 6 + ("no_command", "unknown_command", "unknown_flag",
                                "unread_flag", "bad_value", "missing_argument", "help")
# for each command, flags of the others that it does not take
UNREAD_FLAGS = {"extract": [["--jobs", "1"], ["--strides", "1"], ["--cc", "cc"]],
                "compare": [["--strides", "1"], ["--glob", "*.s"], ["--out", "o"]],
                "compile": [["--strict"], ["--linear-ngrams"], ["--format", "csv"]],
                "study": [["--cc", "cc"], ["--metric", "cosine"], ["--glob", "*.s"]]}
BAD_VALUES = ("--strides=x", "--jobs=x", "--format=yaml")


def with_member(text, key, value):
    """The JSON text of an object, ``text``, with the member ``key: value`` (both
    JSON texts) added last; any other ``text`` becomes an object's first member."""
    if not text.startswith("{"):
        return f'{{"value": {text}, {key}: {value}}}'
    return text[:-1] + (", " if text != "{}" else "") + f"{key}: {value}}}"


def faulty_json(draw, doc):
    """The bytes of ``doc`` with one drawn fault in them, or none."""
    fault = draw(st.sampled_from(RAW_FAULTS))
    text = json.dumps(doc)
    if fault == "deep":
        depth = draw(st.sampled_from([40, 5_000, 200_000]))
        text = with_member(text, '"nest"', "[" * depth + "]" * depth)
    elif fault == "non_utf8":
        cut = draw(st.integers(0, len(text)))
        return text[:cut].encode() + b"\xff\xfe" + text[cut:].encode()
    elif fault == "big_int":
        digits = draw(st.sampled_from([4_300, 4_301, 9_000]))
        text = with_member(text, '"n"', "7" * digits)
    elif fault == "duplicate_key":
        key = draw(st.sampled_from([*doc, "x"] if isinstance(doc, dict) else ["value"]))
        text = with_member(text, json.dumps(key), json.dumps(draw(json_values)))
    elif fault == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text.encode()


def with_wrong_type(draw, doc):
    """``doc`` with one drawn node, maybe the root, replaced by a random JSON value."""
    if not draw(st.booleans()):
        return doc
    doc = json.loads(json.dumps(doc))
    path = []
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else
                                   range(len(node))))
        path.append(key)
        node = node[key]
    value = draw(json_values)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def make_program(draw, path, whole=False):
    """Whatever the drawn path kind, or a file if ``whole``, puts at ``path``, and
    the path that names it: ``path``, or for ``long_name`` one beside it that no
    file can have."""
    kind = "file" if whole else draw(st.sampled_from(PATH_KINDS))
    if kind == "long_name":
        return path.with_name(LONG_NAME + path.name)
    if kind == "file":
        path.write_bytes(PROGRAMS[draw(st.sampled_from(sorted(PROGRAMS)))])
    elif kind == "directory":
        path.mkdir()
        (path / "inner.s").write_bytes(PROGRAMS["plain"])
    elif kind == "fifo":
        os.mkfifo(path)
    return path


def manifest_doc(draw, root, whole):
    """A 2x2 grid of programs made in ``root`` (files, if ``whole``), in the single
    or the multi-dataset form, with metadata; its name may be a lone surrogate."""
    programs = [{"id": f"{p}-{a}",
                 "path": make_program(draw, root / f"{p}_{a}.s", whole).name,
                 "programmer": p, "application": a} for a in ("x", "y") for p in ("p", "q")]
    doc = {"name": draw(st.sampled_from(["grid", "grid", "\ud800"])), "programs": programs}
    if draw(st.booleans()):
        doc = {"datasets": [doc, {**doc, "name": "again"}][:draw(st.integers(0, 2))]}
    if draw(st.booleans()):
        doc["metadata"] = draw(st.dictionaries(st.text(max_size=4), json_values, max_size=2))
    return doc


def config_doc(draw):
    """Some settings, each valid or not; a compiler is only ever one of
    ``COMPILERS``, and ``jobs`` never exceeds 4."""
    values = {
        "compiler_command": st.sampled_from(COMPILERS) | st.integers() | st.none(),
        "compiler_flags": st.lists(st.sampled_from(["-S", "-O2"]), max_size=2) | json_values,
        "strides": st.lists(st.integers(-2, 5), max_size=3) | json_values,
        "output_format": st.sampled_from(["markdown", "csv", "json", "yaml"]) | json_values,
        "ngram_mode": st.sampled_from(["blocks", "linear", "none"]),
        "jobs": st.integers(max_value=4) | st.booleans() | st.text(max_size=2),
        "parser": st.fixed_dictionaries({}, optional={
            "comment_markers": st.lists(st.sampled_from(["@", "//", ";", "", " ", "\n"]),
                                        max_size=3),
            "branch_mnemonics": st.lists(st.sampled_from(["b", "bl", "B", "b.n", "", "bx"]),
                                         max_size=3),
            "strict": st.booleans() | st.integers(0, 1),
            "isa": json_values}) | json_values,
        "unknown": json_values,
    }
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=3))
    return {key: draw(values[key]) for key in keys}


def write_json_input(draw, path, doc, whole=False):
    """``path`` as a JSON file with ``doc`` and a drawn fault, or missing or a
    directory; never a FIFO. If ``whole``, a JSON file with ``doc`` as it is."""
    if whole:
        path.write_text(json.dumps(doc))
        return
    kind = draw(st.sampled_from(["file", "file", "file", "missing", "directory"]))
    if kind == "file":
        path.write_bytes(faulty_json(draw, with_wrong_type(draw, doc)))
    elif kind == "directory":
        path.mkdir()


def strides_flag(draw):
    if not draw(st.booleans()):
        return []
    strides = draw(st.lists(st.integers(-2, 6), min_size=1, max_size=3))
    return ["--strides=" + ",".join(map(str, strides))]


def build_argv(draw, root):
    """A drawn command over inputs built in ``root``. A whole ``study`` or ``compile``
    has a manifest of files as drawn, no config and no usage fault, so that it
    gets past its checks: with every fault drawn, few of them would."""
    command = draw(st.sampled_from(["study", "compile", "extract", "compare"]))
    whole = command in ("study", "compile") and draw(st.booleans())
    argv = [command]
    if command in ("study", "compile"):
        manifest = root / "manifest.json"
        write_json_input(draw, manifest, manifest_doc(draw, root, whole), whole)
        argv.append(str(manifest))
    elif command == "extract":
        for k in range(draw(st.integers(1, 2))):
            argv.append(str(make_program(draw, root / f"in{k}.s")))
        if draw(st.booleans()):  # a directory whose *.s matches are of every kind
            holder = root / "dir"
            holder.mkdir()
            for k in range(draw(st.integers(0, 3))):
                make_program(draw, holder / f"m{k}.s")
            argv.append(str(holder))
            argv += draw(st.sampled_from([[], ["--glob", LONG_NAME]]))
    else:
        for name in ("a.s", "b.s"):
            argv.append(str(make_program(draw, root / name)))
        argv += draw(st.sampled_from([[], ["--metric", "cosine"], ["--format", "json"]]))
    positional = len(argv)  # the command, its positional arguments and some flags

    if command != "compile":
        argv += draw(st.sampled_from([[], ["--strict"]]))
        argv += draw(st.sampled_from([[], ["--linear-ngrams"]]))
    if command == "study":
        argv += strides_flag(draw)
        argv += draw(st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]))
        argv += draw(st.sampled_from([[], ["--out", str(root / "report")],
                                      ["--out", str(root / LONG_NAME)]]))
    if command == "compile":
        if draw(st.booleans()):  # a directory named like a stale partial file
            (root / "asm" / "cache" / STALE_PARTIAL).mkdir(parents=True)
        argv += ["--cc", draw(st.sampled_from(COMPILERS)), "--out", str(root / "asm")]
    if command in ("study", "compile"):
        argv += draw(st.sampled_from([[], ["--jobs", "1"], ["--jobs", "4"]]))
    if command == "extract" and draw(st.booleans()):
        argv += ["--out", str(root / draw(st.sampled_from(["json", LONG_NAME])))]
    if not whole and draw(st.booleans()):
        config = root / "config.json"
        write_json_input(draw, config, config_doc(draw))
        argv += ["--config", str(config)]
    return argv if whole else malformed(draw, argv, positional)


def malformed(draw, argv, positional):
    """``argv`` with one drawn usage fault, or none. ``argv[1:positional]``
    holds the command's positional arguments, and maybe some of its flags: a
    missing argument drops them all."""
    fault = draw(st.sampled_from(USAGE_FAULTS))
    command = argv[0]
    flag = draw(st.integers(1, len(argv)))  # where a flag goes in
    if fault == "no_command":
        return []
    if fault == "unknown_command":
        return ["bogus", *argv[1:]]
    if fault == "unknown_flag":
        return [*argv[:flag], "--bogus", *argv[flag:]]
    if fault == "unread_flag":
        return [*argv[:flag], *draw(st.sampled_from(UNREAD_FLAGS[command])), *argv[flag:]]
    if fault == "bad_value":
        return [*argv, draw(st.sampled_from(BAD_VALUES))]
    if fault == "missing_argument":
        return [command, *argv[positional:]]
    if fault == "help":
        help_flag = draw(st.sampled_from(["--help", "-h"]))
        return draw(st.sampled_from([[help_flag, *argv], [command, help_flag, *argv[1:]]]))
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_corrupt_inputs_end_in_one_error_line(data, tmp_path, capfd, monkeypatch):
    monkeypatch.delenv("ASMSIM_CC", raising=False)
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    argv = build_argv(data.draw, root)
    capfd.readouterr()
    code = cli.main(argv)  # raises nothing
    out, err = capfd.readouterr()
    lines = err.splitlines()
    if {"--help", "-h"} & set(argv):
        assert code == 0 and out.startswith("usage: asmsim") and not lines, (argv, lines)
        return
    assert code in {0, 2, 3, 4, 5}, argv
    if code == 0:
        assert all(line.startswith("warning: ") for line in lines), (argv, lines)
    else:
        assert lines and lines[-1].startswith(f"error: code={code} "), (argv, lines)
        assert all(line.startswith("warning: ") for line in lines[:-1]), (argv, lines)
