import gc
import json
import os
import re
import resource
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest

from asmsim.cli import _write_parts, build_parser, main, resolve_config, run_manifest_study
from asmsim.config import ToolConfig
from asmsim.corpus import load_datasets
from asmsim.errors import InputError
from conftest import GOLDEN, REPO_ROOT, run_cli

QUOTED = r'"((?:[^"\\]|\\.)*)"'
DIAGNOSTIC_RE = re.compile(rf"^error: code=(\d+) entity={QUOTED} message={QUOTED}$")


def unquote(text):
    return json.loads(f'"{text}"')


def write_asm(path, *lines):
    path.write_text("".join(f"\t{line}\n" for line in lines))
    return path


def last_diagnostic(result):
    lines = [l for l in result.stderr.decode().splitlines() if l.startswith("error:")]
    assert lines, f"no diagnostic on stderr: {result.stderr!r}"
    match = DIAGNOSTIC_RE.match(lines[-1])
    assert match, f"diagnostic not machine-parseable: {lines[-1]!r}"
    return int(match.group(1)), unquote(match.group(2)), unquote(match.group(3))


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029", "\x7f"],
                         ids=["nel", "line-separator", "paragraph-separator", "del"])
def test_unicode_line_breaks_in_a_diagnostic_are_escaped(separator):
    error = InputError(f"no such{separator}file", entity=f"x y{separator}.s")
    [line] = error.diagnostic().splitlines()
    assert line.isprintable()
    match = DIAGNOSTIC_RE.match(line)
    assert match and match.group(1) == "2"
    assert unquote(match.group(2)) == f"x y{separator}.s"
    assert unquote(match.group(3)) == f"no such{separator}file"


PATH_KINDS = {"fifo": (os.mkfifo, "not a regular file"),
              "directory": (os.mkdir, "not a regular file"),
              "missing": (lambda path: None, "no such file or directory")}
PATH_COMMANDS = {"extract": (("extract", "a.s", "b.s"), "b.s"),
                 "compare-first": (("compare", "b.s", "a.s"), "b.s"),
                 "compare-second": (("compare", "a.s", "b.s"), "b.s"),
                 "study": (("study", "m.json"), "m.json#programs[1]"),
                 "compile": (("compile", "m.json", "--cc", "/no/such/cc"),
                             "m.json#programs[1]")}


# a directory argument of extract is read as a directory
@pytest.mark.parametrize("make, problem, command, entity", [
    pytest.param(*PATH_KINDS[kind], *PATH_COMMANDS[name], id=f"{name}-{kind}")
    for name in PATH_COMMANDS for kind in PATH_KINDS
    if (name, kind) != ("extract", "directory")])
def test_a_program_path_that_is_no_regular_file_exits_2(tmp_path, make, problem, command,
                                                        entity):
    """An argument and a manifest entry pass the rule of a directory match:
    a path must name a regular file, checked before any file is read."""
    write_asm(tmp_path / "a.s", "mov r0, r1")
    make(tmp_path / "b.s")  # a FIFO's read would wait for a writer forever
    (tmp_path / "m.json").write_text(json.dumps({"programs": [
        {"id": name, "path": f"{name}.s", "programmer": "p", "application": name}
        for name in ("a", "b")]}))
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run([sys.executable, "-m", "asmsim", *command], cwd=tmp_path,
                            capture_output=True, env=env, timeout=60)
    assert result.returncode == 2 and result.stdout == b""
    assert len(result.stderr.splitlines()) == 1
    assert last_diagnostic(result) == (2, entity, f"{problem}: b.s")
    assert not (tmp_path / "asmsim-out").exists()  # nothing compiled


def copying_cc(folder):
    """A compiler command that copies its input, already assembly; its argv
    ends ``-o OUTPUT INPUT``."""
    cc = folder / "cc.py"
    cc.write_text("import shutil, sys\n"
                  "if sys.argv[1:] == ['--version']:\n    print('cc 1')\n"
                  "else:\n    shutil.copy(sys.argv[-1], sys.argv[-2])\n")
    return f"{sys.executable} {cc}"


def test_a_line_break_in_compile_out_keeps_the_manifest_line_whole(tmp_path, corpus_manifest):
    out = tmp_path / "o\nut"
    result = run_cli("compile", corpus_manifest, "--out", out, "--cc", copying_cc(tmp_path))
    assert result.returncode == 0
    shown = str(out / "manifest.json").replace("\n", "\\n")
    assert result.stdout.decode().splitlines() == [
        "compiled 9, cached 0, failed 0", f"manifest: {shown}"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [
    ("extract", "{corpus}"),
    ("compare", "{corpus}/ada_fib.s", "{corpus}/ben_fib.s"),
    ("compare", "{corpus}/ada_fib.s", "{corpus}/ben_fib.s", "--format", "json"),
    ("study", "{corpus}/manifest.json"),
    ("compile", "{corpus}/manifest.json", "--out", "{tmp}/asm", "--cc", "{cc}"),
], ids=["extract", "compare", "compare-json", "study", "compile"])
def test_a_failed_write_to_stdout_exits_2(fixtures_dir, tmp_path, command):
    """Every write to /dev/full fails with ENOSPC."""
    argv = [arg.format(corpus=fixtures_dir / "corpus3x3", tmp=tmp_path,
                       cc=copying_cc(tmp_path)) for arg in command]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "asmsim", *argv], stdout=full,
                                stderr=subprocess.PIPE, env=env, timeout=60)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr.decode()
    assert len(result.stderr.splitlines()) == 1
    assert last_diagnostic(result) == (2, "<stdout>", "cannot write: No space left on device")


LONG = "n" * 300  # a file name over the 255 bytes that one may take


# each path is one that the system refuses to look up, or a glob pattern
# that pathlib refuses
@pytest.mark.parametrize("args, entity, message", [
    (("study", "{manifest}", "--out", "{tmp}/{long}"), "{tmp}/{long}",
     "cannot write file: File name too long"),
    (("extract", "{tmp}/{long}.s"), "{tmp}/{long}.s", "cannot read file: File name too long"),
    (("compare", "{corpus}/ada_fib.s", "{tmp}/{long}.s"), "{tmp}/{long}.s",
     "cannot read file: File name too long"),
    (("extract", "{corpus}", "--out", "{tmp}/{long}"), "{tmp}/{long}",
     "cannot create directory: File name too long"),
    (("extract", "{corpus}", "--glob", "{long}"), "{corpus}",
     "cannot read directory: File name too long"),
    (("extract", "{corpus}", "--glob", ""), "{corpus}", "cannot read directory: "),
    (("extract", "{corpus}", "--glob", "/*.s"), "{corpus}", "cannot read directory: "),
], ids=["study-out", "extract", "compare", "extract-out", "extract-glob", "empty-glob",
        "absolute-glob"])
def test_a_path_that_cannot_be_looked_up_exits_2(fixtures_dir, tmp_path, args, entity,
                                                 message):
    names = dict(corpus=fixtures_dir / "corpus3x3", tmp=tmp_path, long=LONG,
                 manifest=fixtures_dir / "corpus3x3" / "manifest.json")
    result = run_cli(*(arg.format(**names) for arg in args))
    assert result.returncode == 2 and result.stdout == b""
    assert len(result.stderr.splitlines()) == 1
    code, shown, text = last_diagnostic(result)
    assert (code, shown) == (2, entity.format(**names)) and text.startswith(message)
    assert list(tmp_path.iterdir()) == []


def test_out_takes_a_name_of_the_longest_length(corpus_manifest, tmp_path):
    """The temporary file beside ``--out`` has a name of its own length, so it
    is valid whenever the name of ``--out`` is."""
    out_file = tmp_path / ("n" * 250 + ".md")
    result = run_cli("study", corpus_manifest, "--out", out_file)
    assert result.returncode == 0 and result.stderr == b""
    assert out_file.read_bytes() == (GOLDEN / "study_3x3.md").read_bytes()
    assert list(tmp_path.iterdir()) == [out_file]


@pytest.mark.parametrize("command, problem", [
    (("extract", "{corpus}"), "File exists"),
    (("compile", "{corpus}/manifest.json", "--cc", "/no/such/cc"), "Not a directory"),
], ids=["extract", "compile"])
def test_an_out_directory_that_is_a_file_exits_2(fixtures_dir, tmp_path, command, problem):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    result = run_cli(*(arg.format(corpus=fixtures_dir / "corpus3x3") for arg in command),
                     "--out", taken)
    assert result.returncode == 2
    assert result.stderr.decode() == (f'error: code=2 entity="{taken}" '
                                      f'message="cannot create directory: {problem}"\n')


class TestExtract:
    def test_single_file(self, tmp_path):
        asm = write_asm(tmp_path / "a.s", "mov r0, r1", "add r0, r1")
        result = run_cli("extract", asm)
        assert result.returncode == 0
        dump = json.loads(result.stdout)
        assert list(dump) == ["mnemonics", "freq", "ngrams2", "ngrams3"]
        assert dump["freq"] == {"add": 1, "mov": 1}

    def test_directory_glob_lexicographic(self, tmp_path):
        write_asm(tmp_path / "b.s", "sub r0, r1")
        write_asm(tmp_path / "a.s", "mov r0, r1")
        write_asm(tmp_path / "c.txt", "and r0, r1")
        result = run_cli("extract", tmp_path, "--glob", "*.s")
        assert result.returncode == 0
        dumps = [json.loads(line) for line in result.stdout.decode().splitlines()]
        assert [d["mnemonics"] for d in dumps] == [["mov"], ["sub"]]

    def test_bundled_fixture_tree(self, fixtures_dir):
        result = run_cli("extract", fixtures_dir / "corpus3x3", "--glob", "*.s")
        assert result.returncode == 0
        dumps = [json.loads(line) for line in result.stdout.decode().splitlines()]
        assert len(dumps) == 9
        # lexicographic input order: ada_checksum first, cyd_minmax last
        assert "eors" in dumps[0]["mnemonics"]
        assert all(list(d) == ["mnemonics", "freq", "ngrams2", "ngrams3"]
                   for d in dumps)

    @pytest.mark.parametrize("flags, golden", [
        ((), "extract_3x3.jsonl"),
        (("--linear-ngrams",), "extract_3x3_linear.jsonl"),
    ])
    def test_fixture_features_match_golden_bytes(self, fixtures_dir, golden_dir,
                                                 flags, golden):
        result = run_cli("extract", fixtures_dir / "corpus3x3", *flags)
        assert result.returncode == 0
        assert result.stdout == (golden_dir / golden).read_bytes()

    def test_unreadable_path_exits_2(self, tmp_path):
        result = run_cli("extract", tmp_path / "missing.s")
        assert result.returncode == 2
        code, entity, _ = last_diagnostic(result)
        assert code == 2
        assert entity.endswith("missing.s")

    @pytest.mark.parametrize("make", [os.mkfifo, os.mkdir], ids=["fifo", "directory"])
    def test_directory_match_that_is_no_regular_file_exits_2(self, tmp_path, make):
        write_asm(tmp_path / "a.s", "mov r0, r1")
        make(tmp_path / "b.s")  # a FIFO's read would wait for a writer forever
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        result = subprocess.run([sys.executable, "-m", "asmsim", "extract", str(tmp_path)],
                                capture_output=True, env=env, timeout=60)
        assert result.returncode == 2
        assert last_diagnostic(result) == (2, str(tmp_path / "b.s"),
                                           f"not a regular file: {tmp_path / 'b.s'}")
        assert result.stdout == b""  # checked before any file is read

    def test_out_directory(self, tmp_path):
        asm = write_asm(tmp_path / "a.s", "mov r0, r1")
        out = tmp_path / "dumps"
        result = run_cli("extract", asm, "--out", out)
        assert result.returncode == 0
        dump = json.loads((out / "a.json").read_text())
        assert dump["mnemonics"] == ["mov"]

    def test_out_gives_a_repeated_stem_a_serial(self, tmp_path):
        inputs = []
        for folder, mnemonic in (("one", "mov"), ("two", "add")):
            (tmp_path / folder).mkdir()
            inputs.append(write_asm(tmp_path / folder / "a.s", f"{mnemonic} r0, r1"))
        out = tmp_path / "dumps"
        result = run_cli("extract", *inputs, "--out", out)
        assert result.returncode == 0 and result.stdout == b""
        assert sorted(path.name for path in out.iterdir()) == ["a-2.json", "a.json"]
        assert json.loads((out / "a.json").read_text())["mnemonics"] == ["mov"]
        assert json.loads((out / "a-2.json").read_text())["mnemonics"] == ["add"]

    def test_lenient_warns_on_stderr(self, tmp_path):
        asm = tmp_path / "a.s"
        asm.write_text("\tmov r0, r1\n\t!!!\n")
        result = run_cli("extract", asm)
        assert result.returncode == 0
        assert f"warning: {asm}:2:" in result.stderr.decode()

    def test_lenient_warnings_quote_the_raw_lines(self, tmp_path):
        # line breaks \r\n, \u2028 and a lone \r; bytes that are no UTF-8 read as U+FFFD
        for raw in ("\t!!! a @ c\r\n\t!!! b  \u2028\tnop // d\n\t!!! e\n\t!!! f @\t\n".encode(),
                    b"\t!!! g\r\tnop\r\t!!! h \xff @ i\n\t!!! \xe2\x82 j\r"):
            asm = tmp_path / "a.s"
            asm.write_bytes(raw)
            result = run_cli("extract", asm)
            assert result.returncode == 0
            text = raw.decode("utf-8", "replace")
            assert result.stderr.decode().splitlines() == [
                f"warning: {asm}:{line_no}: unclassifiable line: {line.strip()!r}"
                for line_no, line in enumerate(text.splitlines(), start=1) if "!!!" in line]

    @pytest.mark.parametrize("char", ["\n", "\r", "\x0b", "\x1c", "\x7f", "\x85", "\u2028",
                                      "\u2029"],
                             ids=["newline", "cr", "vt", "fs", "del", "nel", "line-separator",
                                  "paragraph-separator"])
    def test_a_warning_path_escapes_its_control_characters(self, tmp_path, char):
        asm = tmp_path / f"a{char}b.s"
        asm.write_text("\t!!! one\n\tnop\n\t!!! two\n")
        result = run_cli("extract", asm)
        assert result.returncode == 0
        # one line per skipped line, the path escaped as in an error: line
        shown = str(asm).replace(char, json.dumps(char)[1:-1])
        assert result.stderr.decode().splitlines() == [
            f"warning: {shown}:1: unclassifiable line: '!!! one'",
            f"warning: {shown}:3: unclassifiable line: '!!! two'"]

    def test_closed_stdout_exits_2_without_traceback(self, fixtures_dir):
        # about 400 KB of lines, far more than a pipe and the child's stdout
        # buffer hold, so writes are still pending when the pipe closes
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        child = subprocess.Popen(
            [sys.executable, "-m", "asmsim", "extract", *[str(fixtures_dir / "corpus5x5")] * 40],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert json.loads(child.stdout.readline())
        child.stdout.close()
        stderr = child.communicate(timeout=60)[1].decode()
        assert child.returncode == 2
        assert "Traceback" not in stderr
        assert [l for l in stderr.splitlines() if l.startswith("error:")] == [
            'error: code=2 entity="<stdout>" message="the reader closed the pipe"']

    def test_strict_rejects_with_position(self, tmp_path):
        asm = tmp_path / "a.s"
        asm.write_text("\tmov r0, r1\n\t!!!\n")
        result = run_cli("extract", asm, "--strict")
        assert result.returncode == 3
        code, entity, _ = last_diagnostic(result)
        assert code == 3 and entity == f"{asm}:2"


class TestCompare:
    @pytest.fixture
    def pair(self, tmp_path):
        a = write_asm(tmp_path / "a.s", "mov r0, r1", "add r0, r1", "b out")
        b = write_asm(tmp_path / "b.s", "mov r0, r1", "sub r0, r1")
        return a, b

    def test_self_comparison_identity_values(self, tmp_path):
        asm = write_asm(tmp_path / "a.s", "mov r0, r1", "add r0, r1")
        result = run_cli("compare", asm, asm)
        assert result.returncode == 0
        assert result.stdout.decode().splitlines() == [
            "jaccard 1.0000", "cosine 1.0000", "ngram2 0.00", "ngram3 0.00"]

    def test_hand_computed_values(self, pair):
        a, b = pair
        result = run_cli("compare", a, b)
        # existence {mov,add,b} vs {mov,sub}: 1 shared of 4
        # frequencies: dot 1, norms sqrt(3)*sqrt(2)
        # 2-grams {(mov,add),(add,b)} vs {(mov,sub)}; 3-grams {(mov,add,b)} vs {}
        assert result.stdout.decode().splitlines() == [
            "jaccard 0.2500", "cosine 0.4082", "ngram2 1.73", "ngram3 1.00"]

    def test_symmetry(self, pair):
        a, b = pair
        assert run_cli("compare", a, b).stdout == run_cli("compare", b, a).stdout

    def test_single_metric_and_json(self, pair):
        a, b = pair
        result = run_cli("compare", a, b, "--metric", "jaccard")
        assert result.stdout.decode() == "jaccard 0.2500\n"
        result = run_cli("compare", a, b, "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["jaccard"] == 0.25
        assert set(doc) == {"jaccard", "cosine", "ngram2", "ngram3"}

    def test_empty_program_cosine_exits_3(self, tmp_path):
        empty = tmp_path / "empty.s"
        empty.write_text("")
        other = write_asm(tmp_path / "b.s", "mov r0, r1")
        result = run_cli("compare", empty, other, "--metric", "cosine")
        assert result.returncode == 3
        code, _, message = last_diagnostic(result)
        assert code == 3 and "empty" in message

    def test_empty_program_error_names_the_empty_file(self, tmp_path):
        empty = tmp_path / "empty.s"
        empty.write_text("")
        other = write_asm(tmp_path / "b.s", "mov r0, r1")
        for a, b in ((empty, empty), (other, empty), (empty, other)):
            result = run_cli("compare", a, b)
            assert result.returncode == 3 and result.stdout == b""
            assert last_diagnostic(result) == (
                3, str(empty), "cosine similarity is undefined for an empty program")

    def test_jaccard_survives_empty_input(self, tmp_path):
        empty = tmp_path / "empty.s"
        empty.write_text("")
        result = run_cli("compare", empty, empty, "--metric", "jaccard")
        assert result.returncode == 0
        assert result.stdout.decode() == "jaccard 1.0000\n"

    def test_missing_file_exits_2(self, tmp_path):
        # warn.s would warn if it were read: both paths are checked before either is
        warn = write_asm(tmp_path / "warn.s", "mov r0, r1", "!!! junk")
        missing = tmp_path / "missing.s"
        result = run_cli("compare", warn, missing)
        assert result.returncode == 2 and result.stdout == b""
        assert len(result.stderr.splitlines()) == 1  # the error line, no warning
        assert last_diagnostic(result) == (2, str(missing),
                                           f"no such file or directory: {missing}")

    def test_table_formats_rejected(self, pair):
        a, b = pair
        assert run_cli("compare", a, b, "--format", "csv").returncode == 2
        assert run_cli("compare", a, b, "--format", "markdown").returncode == 2


class TestStudy:
    def test_markdown_to_stdout_and_file(self, corpus_manifest, tmp_path):
        direct = run_cli("study", corpus_manifest)
        assert direct.returncode == 0
        out_file = tmp_path / "report.md"
        to_file = run_cli("study", corpus_manifest, "--out", out_file)
        assert to_file.returncode == 0 and to_file.stdout == b""
        assert out_file.read_bytes() == direct.stdout == (GOLDEN / "study_3x3.md").read_bytes()
        assert list(tmp_path.iterdir()) == [out_file]  # no temporary file is left

    @pytest.mark.parametrize("fmt, golden", [("json", "study_3x3.json"), ("csv", None)])
    def test_stdout_and_out_file_bytes_are_equal(self, corpus_manifest, tmp_path, fmt, golden):
        direct = run_cli("study", corpus_manifest, "--format", fmt)
        out_file = tmp_path / "report"
        to_file = run_cli("study", corpus_manifest, "--format", fmt, "--out", out_file)
        assert direct.returncode == 0 and to_file.returncode == 0
        assert out_file.read_bytes() == direct.stdout
        if golden is not None:
            assert direct.stdout == (GOLDEN / golden).read_bytes()
        assert list(tmp_path.iterdir()) == [out_file]

    # a name that stdout's ASCII encoding cannot hold, and one from a manifest
    # file name with a byte that is not UTF-8, which Python reads as a surrogate
    @pytest.mark.parametrize("manifest_name, name, env_extra, shown", [
        ("manifest.json", "café", {"PYTHONIOENCODING": "ascii"}, "café".encode()),
        (os.fsdecode(b"caf\xe9.json"), None, None, b"caf\xe9"),
    ], ids=["ascii-stdout", "undecodable-name"])
    def test_stdout_takes_the_out_bytes_whatever_its_encoding(self, fixtures_dir, tmp_path,
                                                              manifest_name, name, env_extra,
                                                              shown):
        corpus = tmp_path / "corpus"
        shutil.copytree(fixtures_dir / "corpus3x3", corpus)
        doc = json.loads((corpus / "manifest.json").read_text())
        doc.pop("name")  # without a name, the dataset takes the manifest's stem
        if name is not None:
            doc["name"] = name
        manifest = corpus / manifest_name
        manifest.write_text(json.dumps(doc))
        out_file = tmp_path / "report.md"
        direct = run_cli("study", manifest, env_extra=env_extra)
        to_file = run_cli("study", manifest, "--out", out_file, env_extra=env_extra)
        assert direct.returncode == 0 and to_file.returncode == 0
        assert direct.stdout == out_file.read_bytes()
        assert b"- dataset `" + shown + b"`: " in direct.stdout

    def test_out_keeps_the_old_files_symlink_and_permissions(self, corpus_manifest, tmp_path):
        (tmp_path / "reports").mkdir()
        report = tmp_path / "reports" / "report.md"
        report.write_text("the previous report\n")
        report.chmod(0o600)
        link = tmp_path / "latest.md"
        link.symlink_to(report)
        assert run_cli("study", corpus_manifest, "--out", link).returncode == 0
        assert link.is_symlink()
        assert report.read_bytes() == (GOLDEN / "study_3x3.md").read_bytes()
        assert stat.S_IMODE(report.stat().st_mode) == 0o600
        assert sorted(tmp_path.rglob("*")) == [link, report.parent, report]

    def test_out_that_is_no_regular_file_is_written_in_place(self, corpus_manifest, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        # opening a FIFO blocks until the other end opens it too
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        result = run_cli("study", corpus_manifest, "--out", fifo)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert result.returncode == 0
        assert received == [(GOLDEN / "study_3x3.md").read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_failed_write_keeps_the_old_out_file(self, fixtures_dir, tmp_path):
        out_file = tmp_path / "report.json"
        out_file.write_bytes(b"the previous report\n")
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}

        def limit_file_size():  # the 195 KB report stops at 16 KB with EFBIG
            resource.setrlimit(resource.RLIMIT_FSIZE,
                               (16384, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

        result = subprocess.run(
            [sys.executable, "-m", "asmsim", "study", str(fixtures_dir / "corpus5x5" /
             "manifest.json"), "--format", "json", "--out", str(out_file)],
            capture_output=True, env=env, preexec_fn=limit_file_size, timeout=60)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr.decode()
        code, entity, message = last_diagnostic(result)
        assert (code, entity) == (2, str(out_file)) and "too large" in message
        assert out_file.read_bytes() == b"the previous report\n"
        assert list(tmp_path.iterdir()) == [out_file]

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_2_without_traceback(self, fixtures_dir, unbuffered):
        # a 195 KB report, more than the pipe holds: the reader closes it midway
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        child = subprocess.Popen(
            [sys.executable, "-m", "asmsim", "study",
             str(fixtures_dir / "corpus5x5" / "manifest.json"), "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert child.stdout.read(10) == b'{\n  "metad'
        child.stdout.close()
        stderr = child.communicate(timeout=60)[1].decode()
        assert child.returncode == 2
        assert "Traceback" not in stderr
        assert [l for l in stderr.splitlines() if l.startswith("error:")] == [
            'error: code=2 entity="<stdout>" message="the reader closed the pipe"']

    def test_csv_format(self, corpus_manifest):
        result = run_cli("study", corpus_manifest, "--format", "csv")
        assert result.returncode == 0
        lines = result.stdout.decode().splitlines()
        assert lines[0] == "dataset,metric,grouping,subset,pairs,value,kind"
        assert any(line.startswith(",jaccard,") for line in lines)  # a summary row

    def test_json_format(self, corpus_manifest):
        result = run_cli("study", corpus_manifest, "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["datasets"][0]["name"] == "corpus3x3"

    def test_text_format_rejected(self, corpus_manifest):
        assert run_cli("study", corpus_manifest, "--format", "text").returncode == 2

    def test_quotes_and_backslashes_in_a_diagnostic_are_escaped(self, tmp_path):
        folder = tmp_path / 'say "hi" \\ bye'
        folder.mkdir()
        manifest = folder / "manifest.json"
        manifest.write_text(json.dumps({"programs": {}}))
        result = run_cli("study", manifest)
        assert result.returncode == 5
        assert last_diagnostic(result) == (5, str(manifest), '"programs" must be a list')

    @pytest.mark.parametrize("name", ["x\n.s", "x\u0000.s", "x\r\t\x1b.s"],
                             ids=["newline", "nul", "cr-tab-esc"])
    def test_control_characters_in_a_diagnostic_are_escaped(self, tmp_path, name):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"programs": [
            {"id": "a", "path": name, "programmer": "p", "application": "x"}]}))
        result = run_cli("study", manifest)
        assert result.returncode == 2
        assert result.stderr.count(b"\n") == 1 and result.stderr.endswith(b"\n")
        assert not any(byte < 0x20 for byte in result.stderr[:-1])
        assert last_diagnostic(result) == (2, f"{manifest}#programs[0]",
                                           f"no such file or directory: {tmp_path / name}")

    def test_unwritable_out_exits_2(self, corpus_manifest, tmp_path):
        target = tmp_path / "no" / "dir" / "report.md"
        result = run_cli("study", corpus_manifest, "--out", target)
        assert result.returncode == 2
        code, entity, _ = last_diagnostic(result)
        assert code == 2 and entity == str(target)

    def test_out_that_is_a_symlink_loop_exits_2(self, corpus_manifest, tmp_path):
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        result = run_cli("study", corpus_manifest, "--out", loop)
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert last_diagnostic(result) == (
            2, str(loop), "cannot write file: Too many levels of symbolic links")
        assert list(tmp_path.iterdir()) == [loop] and loop.is_symlink()

    def test_a_failed_write_names_the_out_path_not_a_temporary_file(self, corpus_manifest,
                                                                     tmp_path):
        target = tmp_path / "no" / "report.md"
        first, second = (run_cli("study", corpus_manifest, "--out", target).stderr
                         for _ in range(2))
        assert first == second  # each run writes under a name holding its pid
        assert b".partial" not in first
        assert first.decode() == (f'error: code=2 entity="{target}" '
                                  'message="cannot write file: No such file or directory"\n')

    def test_report_bytes_do_not_depend_on_the_hash_seed(self, corpus_manifest):
        golden = (GOLDEN / "study_3x3.md").read_bytes()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONHASHSEED": seed}
            result = subprocess.run([sys.executable, "-S", "-m", "asmsim", "study",
                                     str(corpus_manifest)], capture_output=True, env=env)
            assert result.returncode == 0
            assert result.stdout == golden

    def test_5x5_output_deterministic(self, fixtures_dir):
        manifest = fixtures_dir / "corpus5x5" / "manifest.json"
        one = run_cli("study", manifest)
        two = run_cli("study", manifest, "--jobs", 4)
        assert one.returncode == 0
        assert one.stdout == two.stdout
        assert b"Totally Different 3" in one.stdout

    def test_multi_dataset_manifest(self, tmp_path, fixtures_dir):
        corpus = fixtures_dir / "corpus3x3"
        programs = json.loads((corpus / "manifest.json").read_text())["programs"]
        for program in programs:
            program["path"] = str(corpus / program["path"])
        manifest = tmp_path / "multi.json"
        manifest.write_text(json.dumps({"datasets": [
            {"name": "first", "programs": programs},
            {"name": "second", "programs": programs},
        ]}))
        result = run_cli("study", manifest, "--format", "markdown")
        assert result.returncode == 0
        text = result.stdout.decode()
        assert "| `first` |" in text and "| `second` |" in text
        assert text.count("| Average |") == 4

    def test_incomplete_grid_exits_5(self, tmp_path, fixtures_dir):
        corpus = fixtures_dir / "corpus3x3"
        programs = json.loads((corpus / "manifest.json").read_text())["programs"]
        for program in programs:
            program["path"] = str(corpus / program["path"])
        manifest = tmp_path / "incomplete.json"
        manifest.write_text(json.dumps({"programs": programs[:-1]}))
        result = run_cli("study", manifest)
        assert result.returncode == 5
        code, _, message = last_diagnostic(result)
        assert code == 5 and "missing cells" in message

    @pytest.mark.parametrize("command", ["study", "compile"])
    def test_empty_datasets_list_exits_5(self, tmp_path, command):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"datasets": []}')
        out = tmp_path / "out"
        result = run_cli(command, manifest, "--out", out)
        assert result.returncode == 5 and result.stdout == b""
        assert len(result.stderr.decode().splitlines()) == 1  # no traceback
        assert last_diagnostic(result)[:2] == (5, str(manifest))
        assert not out.exists()

    @pytest.mark.parametrize("form", ["single", "multi"])
    @pytest.mark.parametrize("command", ["study", "compile"])
    def test_empty_programs_list_exits_5(self, tmp_path, corpus_manifest, command, form):
        programs = json.loads(corpus_manifest.read_text())["programs"]
        for program in programs:
            program["path"] = str(corpus_manifest.parent / program["path"])
        manifest = tmp_path / "m.json"
        if form == "single":
            doc, entity = {"programs": []}, str(manifest)
        else:
            doc = {"datasets": [{"name": "full", "programs": programs},
                                {"name": "empty", "programs": []}]}
            entity = f"{manifest}#datasets[1]"
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = run_cli(command, manifest, "--out", out)
        assert result.returncode == 5 and result.stdout == b""
        assert len(result.stderr.decode().splitlines()) == 1  # one error: line, no traceback
        assert last_diagnostic(result)[:2] == (5, entity)
        assert not out.exists()  # no report and no derived manifest

    @staticmethod
    def with_metadata(corpus_manifest, tmp_path, metadata):
        """A copy of ``corpus_manifest`` in ``tmp_path`` whose ``"metadata"``
        is the JSON text ``metadata``."""
        doc = json.loads(corpus_manifest.read_text())
        for program in doc["programs"]:
            program["path"] = str(corpus_manifest.parent / program["path"])
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({**doc, "metadata": None}).replace("null", metadata))
        return manifest

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    @pytest.mark.parametrize("command", ["study", "compile"])
    def test_metadata_number_that_is_not_finite_exits_5(self, tmp_path, corpus_manifest,
                                                        command, number):
        manifest = self.with_metadata(corpus_manifest, tmp_path, f'{{"budget": {number}}}')
        out = tmp_path / "out"
        result = run_cli(command, manifest, "--out", out)
        assert result.returncode == 5 and result.stdout == b""
        assert len(result.stderr.decode().splitlines()) == 1  # one error: line, no traceback
        assert last_diagnostic(result) == (
            5, str(manifest), f"manifest is not valid JSON: number {number} is not finite")
        assert not out.exists()  # no report, nothing compiled

    @pytest.mark.parametrize("command", ["study", "compile"])
    def test_metadata_that_is_not_an_object_exits_5(self, tmp_path, corpus_manifest, command):
        manifest = self.with_metadata(corpus_manifest, tmp_path, '["budget"]')
        out = tmp_path / "out"
        result = run_cli(command, manifest, "--out", out)
        assert result.returncode == 5 and result.stdout == b""
        assert len(result.stderr.splitlines()) == 1
        assert last_diagnostic(result) == (5, str(manifest), '"metadata" must be an object')
        assert not out.exists()

    def test_program_entry_that_is_not_an_object_exits_5(self, tmp_path, corpus_manifest):
        manifest = self.with_metadata(corpus_manifest, tmp_path, "{}")
        doc = json.loads(manifest.read_text())
        doc["programs"][1] = doc["programs"][1]["path"]
        manifest.write_text(json.dumps(doc))
        result = run_cli("study", manifest)
        assert result.returncode == 5 and result.stdout == b""
        assert len(result.stderr.splitlines()) == 1
        assert last_diagnostic(result) == (5, f"{manifest}#programs[1]",
                                           "program entry must be an object")

    def test_finite_metadata_numbers_keep_their_report_bytes(self, tmp_path, corpus_manifest):
        metadata = ('{"ratio": 0.1, "max": 1.7976931348623157e308, "tiny": 5e-324, '
                    '"under": 1e-999, "zero": -0.0, "count": 100000000000000000000000000001}')
        manifest = self.with_metadata(corpus_manifest, tmp_path, metadata)
        result = run_cli("study", manifest, "--format", "json")
        assert result.returncode == 0
        expected = json.loads((GOLDEN / "study_3x3.json").read_bytes())
        expected["metadata"] = {**json.loads(metadata), **expected["metadata"]}
        assert result.stdout == (json.dumps(expected, indent=2) + "\n").encode()

    def test_markdown_metadata_is_json_unless_a_one_line_string(self, tmp_path,
                                                                corpus_manifest):
        metadata = ('{"ok": true, "none": null, "flags": ["-S", "-O0"], "multi": "a\\nb", '
                    '"sep": "x\\u2028y", "count": 3, "text": "plain words", "two\\nlines": 1}')
        manifest = self.with_metadata(corpus_manifest, tmp_path, metadata)
        result = run_cli("study", manifest)
        assert result.returncode == 0
        lines = result.stdout.decode().splitlines()
        start = lines.index("- count: 3")  # the keys are sorted
        assert lines[start:start + 10] == [
            "- count: 3", '- flags: ["-S", "-O0"]', '- multi: "a\\nb"',
            "- ngram_mode: blocks", "- none: null", "- ok: true", '- sep: "x\\u2028y"',
            "- text: plain words", '- "two\\nlines": 1', ""]

    def test_empty_program_exits_3_naming_entry(self, tmp_path):
        for name in ("a", "b"):
            for app in ("x", "y"):
                write_asm(tmp_path / f"{name}{app}.s", "mov r0, r1", f"add r{ord(name) % 4}, r1")
        (tmp_path / "ax.s").write_text("@ only a comment\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"programs": [
            {"id": f"{n}-{a}", "path": f"{n}{a}.s", "programmer": n, "application": a}
            for n in ("a", "b") for a in ("x", "y")]}))
        result = run_cli("study", manifest)
        assert result.returncode == 3
        code, entity, _ = last_diagnostic(result)
        assert code == 3 and entity == "a-x"

    def test_invalid_stride_exits_5(self, corpus_manifest):
        result = run_cli("study", corpus_manifest, "--strides", "3")
        assert result.returncode == 5

    def test_repeated_stride_exits_5(self, fixtures_dir):
        manifest = fixtures_dir / "corpus5x5" / "manifest.json"
        result = run_cli("study", manifest, "--strides", "1,2,2", "--format", "json")
        assert result.returncode == 5
        code, _, message = last_diagnostic(result)
        assert code == 5 and "repeat" in message
        assert result.stdout == b""

    @pytest.mark.parametrize("second, extra, problem, dataset", [
        (lambda programs: programs, ("--strides", "3"), "stride 3 is invalid", "first"),
        (lambda programs: programs, ("--strides", "1,1"), "repeat a stride", "first"),
        (lambda programs: [p for p in programs if p["application"] != "fib"], (),
         "need a square grid", "second"),
        (lambda programs: programs[:-1], (), "missing cells", "second"),
    ], ids=["invalid-stride", "repeated-stride", "non-square", "incomplete"])
    def test_invalid_corpus_exits_5_before_any_program_is_read(self, tmp_path, fixtures_dir,
                                                               second, extra, problem,
                                                               dataset):
        # every file gets an unclassifiable line, so reading any of them writes a warning
        corpus = fixtures_dir / "corpus3x3"
        for source in corpus.glob("*.s"):
            (tmp_path / source.name).write_text(source.read_text() + "\t!!! junk\n")
        programs = json.loads((corpus / "manifest.json").read_text())["programs"]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"datasets": [
            {"name": "first", "programs": programs},
            {"name": "second", "programs": second(programs)}]}))
        result = run_cli("study", manifest, *extra)
        assert result.returncode == 5 and result.stdout == b""
        assert len(result.stderr.decode().splitlines()) == 1  # the error: line alone
        code, entity, message = last_diagnostic(result)
        assert (code, entity) == (5, dataset) and problem in message

    def test_strict_parse_failure_exits_3_with_position(self, tmp_path):
        for name in ("a", "b"):
            for app in ("x", "y"):
                write_asm(tmp_path / f"{name}{app}.s", "mov r0, r1", "add r2, r1")
        bad = tmp_path / "ax.s"
        bad.write_text("\tmov r0, r1\n\t=== junk\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"programs": [
            {"id": f"{n}-{a}", "path": f"{n}{a}.s", "programmer": n, "application": a}
            for n in ("a", "b") for a in ("x", "y")]}))
        assert run_cli("study", manifest).returncode == 0
        result = run_cli("study", manifest, "--strict")
        assert result.returncode == 3
        code, entity, _ = last_diagnostic(result)
        assert code == 3 and entity == f"{bad}:2"

    def test_lenient_warns_on_stderr_report_unchanged(self, tmp_path):
        for name in ("a", "b"):
            for app in ("x", "y"):
                write_asm(tmp_path / f"{name}{app}.s", "mov r0, r1", f"add r{ord(name) % 4}, r1")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"programs": [
            {"id": f"{n}-{a}", "path": f"{n}{a}.s", "programmer": n, "application": a}
            for n in ("a", "b") for a in ("x", "y")]}))
        clean = run_cli("study", manifest)
        bad = write_asm(tmp_path / "ax.s", "mov r0, r1", "=== junk", "add r1, r1")
        result = run_cli("study", manifest)
        assert result.returncode == 0
        assert f"warning: {bad}:2:" in result.stderr.decode()
        assert result.stdout == clean.stdout

    def test_linear_ngrams_change_pattern_metrics_only(self, corpus_manifest):
        blocks = json.loads(run_cli("study", corpus_manifest, "--format", "json").stdout)
        linear = json.loads(run_cli("study", corpus_manifest, "--format", "json",
                                    "--linear-ngrams").stdout)
        get = lambda doc, metric: doc["datasets"][0]["metrics"][metric]["td_mean"]
        assert get(blocks, "jaccard") == get(linear, "jaccard")
        assert get(blocks, "cosine") == get(linear, "cosine")
        assert get(blocks, "euclidean2") != get(linear, "euclidean2")


class TestConfigPrecedence:
    def test_config_file_sets_format_cli_overrides(self, corpus_manifest, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output_format": "csv"}))
        via_file = run_cli("study", corpus_manifest, "--config", config)
        assert via_file.stdout.decode().startswith("dataset,metric")
        overridden = run_cli("study", corpus_manifest, "--config", config,
                             "--format", "markdown")
        assert overridden.stdout.decode().startswith("# Assembly similarity study")

    def test_repeated_config_stride_exits_5(self, corpus_manifest, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"strides": [1, 1]}))
        result = run_cli("study", corpus_manifest, "--config", config)
        assert result.returncode == 5
        assert "repeat" in last_diagnostic(result)[2]

    def test_empty_config_strides_exit_5_naming_the_dataset(self, corpus_manifest, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"strides": []}))
        result = run_cli("study", corpus_manifest, "--config", config)
        assert result.returncode == 5 and result.stdout == b""
        assert last_diagnostic(result) == (
            5, "corpus3x3", "at least one totally-different stride is required")

    def test_bad_config_exits_2(self, corpus_manifest, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"jobs": 0}))
        assert run_cli("study", corpus_manifest, "--config", config).returncode == 2

    def test_bad_flag_exits_2_naming_no_entity(self, corpus_manifest):
        result = run_cli("study", corpus_manifest, "--jobs", "0")
        assert result.returncode == 2
        assert last_diagnostic(result)[:2] == (2, "-")

    def test_empty_cc_flag_exits_2_before_compiling(self, corpus_manifest, tmp_path):
        result = run_cli("compile", corpus_manifest, "--cc", "", "--out", tmp_path / "asm")
        assert result.returncode == 2
        assert last_diagnostic(result)[:2] == (2, "-")
        assert not (tmp_path / "asm").exists()

    @pytest.mark.parametrize("cc", ['gcc "x', "   "], ids=["unclosed-quote", "blank"])
    def test_cc_flag_without_a_program_exits_2_before_compiling(self, corpus_manifest,
                                                                tmp_path, cc):
        result = run_cli("compile", corpus_manifest, "--cc", cc, "--out", tmp_path / "asm")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr.decode()
        assert last_diagnostic(result)[:2] == (2, "-")
        assert not (tmp_path / "asm").exists()

    @pytest.mark.parametrize("which, code", [("config", 2), ("manifest", 5)])
    def test_file_that_is_not_utf8_exits_with_its_code(self, corpus_manifest, tmp_path,
                                                        which, code):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"jobs": "\xff"}')
        args = ((corpus_manifest, "--config", bad) if which == "config" else (bad,))
        result = run_cli("study", *args)
        assert result.returncode == code
        assert "Traceback" not in result.stderr.decode()
        assert last_diagnostic(result)[:2] == (code, str(bad))

    @pytest.mark.parametrize("which, doc, code, message", [
        ("manifest", {"name": "\ud800"}, 5, r"manifest holds a lone surrogate: '\ud800'"),
        ("manifest", {"metadata": {"k\udc80": 1}}, 5,
         r"manifest holds a lone surrogate: '\udc80'"),
        ("config", {"output_format": "csv\udfff"}, 2,
         r"config file holds a lone surrogate: '\udfff'"),
    ], ids=["manifest-name", "metadata-key", "config-string"])
    def test_a_lone_surrogate_exits_with_the_files_code(self, corpus_manifest, tmp_path,
                                                        which, doc, code, message):
        """No UTF-8 text holds a lone surrogate, so no report or error could
        write one; the manifest's programs are missing, so it exits 5 before
        any is read."""
        bad = tmp_path / "bad.json"
        if which == "manifest":
            doc = {**json.loads(corpus_manifest.read_text()), **doc}
        bad.write_text(json.dumps(doc))
        args = ((corpus_manifest, "--config", bad) if which == "config" else (bad,))
        result = run_cli("study", *args)
        assert result.returncode == code and result.stdout == b""
        assert len(result.stderr.splitlines()) == 1
        assert last_diagnostic(result) == (code, str(bad), message)

    def test_an_escaped_surrogate_pair_is_accepted(self, corpus_manifest, tmp_path):
        doc = json.loads(corpus_manifest.read_text())
        for program in doc["programs"]:
            program["path"] = str(corpus_manifest.parent / program["path"])
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({**doc, "name": "\U0001f600"}))  # "\ud83d\ude00"
        assert b'"\\ud83d\\ude00"' in manifest.read_bytes()
        result = run_cli("study", manifest)
        assert result.returncode == 0
        assert "- dataset `\U0001f600`: 3 applications" in result.stdout.decode()

    def test_config_number_that_is_not_finite_exits_2(self, corpus_manifest, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"jobs": 1e999}')
        result = run_cli("study", corpus_manifest, "--config", config)
        assert result.returncode == 2 and result.stdout == b""
        assert last_diagnostic(result) == (
            2, str(config), "config file is not valid JSON: number 1e999 is not finite")

    @pytest.mark.parametrize("which, code", [("config", 2), ("manifest", 5)])
    def test_file_nested_too_deeply_exits_with_its_code(self, corpus_manifest, tmp_path,
                                                        which, code):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        args = ((corpus_manifest, "--config", deep) if which == "config" else (deep,))
        result = run_cli("study", *args)
        assert result.returncode == code
        assert len(result.stderr.decode().splitlines()) == 1  # no traceback
        assert last_diagnostic(result)[:2] == (code, str(deep))

    def test_comment_marker_holding_a_line_break_exits_2(self, corpus_manifest, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"parser": {"comment_markers": ["@\n"]}}))
        result = run_cli("study", corpus_manifest, "--config", config)
        assert result.returncode == 2
        assert result.stdout == b""
        assert last_diagnostic(result)[:2] == (2, str(config))
        assert "line break" in last_diagnostic(result)[2]

    @pytest.mark.parametrize("marker", [" ", "\t"], ids=["space", "tab"])
    def test_whitespace_only_comment_marker_exits_2(self, corpus_manifest, tmp_path, marker):
        # it would cut every line at its first space: no operands, no label targets
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"parser": {"comment_markers": ["@", marker]}}))
        result = run_cli("study", corpus_manifest, "--config", config)
        assert result.returncode == 2 and result.stdout == b""
        assert last_diagnostic(result)[:2] == (2, str(config))

    @pytest.mark.parametrize("args", [
        ("extract", "{corpus}/ada_fib.s", "--format", "json"),
        ("compile", "{corpus}/manifest.json", "--out", "{tmp}/asm", "--format", "csv"),
    ], ids=["extract", "compile"])
    def test_format_flag_only_where_it_is_read(self, fixtures_dir, tmp_path, args):
        argv = [arg.format(corpus=fixtures_dir / "corpus3x3", tmp=tmp_path) for arg in args]
        result = run_cli(*argv)
        assert result.returncode == 2
        assert b"unrecognized arguments: --format" in result.stderr
        assert not (tmp_path / "asm").exists()


# The ToolConfig keys that each command reads, and the flags that it takes.
READS = {"extract": {"parser", "ngram_mode"},
         "compare": {"parser", "ngram_mode"},
         "compile": {"compiler_command", "compiler_flags", "jobs"},
         "study": {"parser", "ngram_mode", "strides", "output_format"}}
TAKES = {"extract": ["--config", "--strict", "--linear-ngrams"],
         "compare": ["--config", "--strict", "--linear-ngrams"],
         "compile": ["--config", "--jobs", "--cc"],
         "study": ["--config", "--strict", "--linear-ngrams", "--strides", "--format",
                   "--jobs"]}
# flags that set no config key: inputs, outputs and compare's own --format
NOT_SETTINGS = {"-h", "--help", "--out", "--glob", "--metric"}
POSITIONAL = {"extract": ["a.s"], "compare": ["a.s", "b.s"],
              "compile": ["m.json"], "study": ["m.json"]}
FLAG_VALUES = {"--strict": [], "--linear-ngrams": [], "--strides": ["1"], "--jobs": ["2"],
               "--cc": ["other-cc"], "--format": ["csv"]}
KEY_VALUES = {"parser": {"strict": True}, "ngram_mode": "linear", "strides": [1],
              "output_format": "csv", "compiler_command": "other-cc",
              "compiler_flags": ["-O1"], "jobs": 3}


class TestFlagSurface:
    @pytest.mark.parametrize("args, flag", [
        (("extract", "{corpus}/ada_fib.s", "--strides", "1"), b"--strides"),
        (("compare", "{corpus}/ada_fib.s", "{corpus}/ben_fib.s", "--jobs", "2"), b"--jobs"),
        (("compile", "{corpus}/manifest.json", "--out", "{tmp}/asm", "--strict"), b"--strict"),
    ], ids=["extract-strides", "compare-jobs", "compile-strict"])
    def test_a_flag_the_command_does_not_read_exits_2(self, fixtures_dir, tmp_path,
                                                      args, flag):
        argv = [arg.format(corpus=fixtures_dir / "corpus3x3", tmp=tmp_path) for arg in args]
        result = run_cli(*argv)
        assert result.returncode == 2 and len(result.stderr.splitlines()) == 1
        assert b"unrecognized arguments: " + flag in result.stderr
        assert not (tmp_path / "asm").exists()

    @pytest.mark.parametrize("command", list(TAKES))
    def test_each_command_takes_only_its_flags(self, command):
        [subparsers] = [a for a in build_parser()._actions if a.choices]
        options = {option for action in subparsers.choices[command]._actions
                   for option in action.option_strings}
        if command == "compare":
            options.discard("--format")  # text or json; no config key
        assert sorted(options - NOT_SETTINGS) == sorted(TAKES[command])
        for flag in set().union(*TAKES.values()) - set(TAKES[command]):
            # compare's own --format takes only text or json
            own = (command, flag) == ("compare", "--format")
            with pytest.raises(InputError, match="invalid choice: 'csv'" if own
                               else "unrecognized arguments"):
                build_parser().parse_args(
                    [command, *POSITIONAL[command], flag, *FLAG_VALUES[flag]])

    @pytest.mark.parametrize("command, flag", [(c, f) for c in TAKES for f in TAKES[c]])
    def test_each_flag_changes_a_setting_the_command_reads(self, command, flag, tmp_path,
                                                           monkeypatch):
        monkeypatch.delenv("ASMSIM_CC", raising=False)
        if flag == "--config":
            values = [tmp_path / "config.json"]
            values[0].write_text(json.dumps({key: KEY_VALUES[key] for key in READS[command]}))
        else:
            values = FLAG_VALUES[flag]

        def config(*flag_args):
            return resolve_config(build_parser().parse_args(
                [command, *POSITIONAL[command], *map(str, flag_args)]))

        plain, flagged = config(), config(flag, *values)
        changed = {name for name in ToolConfig._fields
                   if getattr(plain, name) != getattr(flagged, name)}
        if (command, flag) == ("study", "--jobs"):
            # the known exception: bench/run.py passes it, study reads no jobs
            assert changed == {"jobs"}
        elif flag == "--config":
            assert changed == READS[command]
        else:
            assert len(changed) == 1 and changed <= READS[command]


# malformed command lines, each with the start of argparse's message for it
USAGE_ERRORS = {
    "no-command": ((), "the following arguments are required: command"),
    "unknown-command": (("bogus",), "argument command: invalid choice: 'bogus'"),
    "unknown-flag": (("study", "m.json", "--bogus"), "unrecognized arguments: --bogus"),
    "unread-flag": (("extract", "a.s", "--strides", "1"), "unrecognized arguments: --strides 1"),
    "strides-value": (("study", "m.json", "--strides=x"),
                      "argument --strides: expected comma-separated integers, got 'x'"),
    "jobs-value": (("compile", "m.json", "--jobs=x"), "argument --jobs: invalid int value: 'x'"),
    "format-value": (("study", "m.json", "--format=yaml"),
                     "argument --format: invalid choice: 'yaml'"),
    "missing-argument": (("compare", "a.s"), "the following arguments are required: file_b"),
}
HELP_COMMANDS = [(), ("extract",), ("compare",), ("compile",), ("study",)]
HELP_IDS = ["asmsim", "extract", "compare", "compile", "study"]


def command_parser(command):
    """The parser of ``asmsim <command>``, or with no command the top-level one."""
    parser = build_parser()
    if command:
        [subparsers] = [a for a in parser._actions if a.choices]
        parser = subparsers.choices[command[0]]
    return parser


def help_process(command, redirect="", **options):
    """``asmsim <command> --help`` run in a shell, with the ``exec`` redirections
    ``redirect`` applied."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "COLUMNS": "80"}
    return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m",
                           "asmsim", *command, "--help"], env=env, **options)


class TestUsage:
    @pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_a_usage_error_is_one_error_line(self, argv, message, capfd):
        capfd.readouterr()
        assert main(list(argv)) == 2  # raises nothing: neither argparse's exit nor its usage
        out, err = capfd.readouterr()
        [line] = err.splitlines()
        match = DIAGNOSTIC_RE.match(line)
        assert out == "" and match and match.group(1, 2) == ("2", "-")
        assert unquote(match.group(3)).startswith(message)

    @pytest.mark.parametrize("command", HELP_COMMANDS, ids=HELP_IDS)
    def test_help_writes_the_parsers_help(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the width that the child formats to
        result = help_process(command, capture_output=True)
        assert result.returncode == 0 and result.stderr == b""
        assert result.stdout == command_parser(command).format_help().encode()

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    @pytest.mark.parametrize("command", HELP_COMMANDS, ids=HELP_IDS)
    def test_help_in_process_returns_0(self, command, flag, capfd, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        capfd.readouterr()
        assert main([*command, flag]) == 0  # raises nothing: argparse's exit stays inside
        out, err = capfd.readouterr()
        assert out == command_parser(command).format_help() and err == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", HELP_COMMANDS, ids=HELP_IDS)
    def test_help_to_a_full_disk_exits_2(self, command):
        result = help_process(command, redirect=">/dev/full", stderr=subprocess.PIPE)
        assert result.returncode == 2
        assert result.stderr == (b'error: code=2 entity="<stdout>" '
                                 b'message="cannot write: No space left on device"\n')

    @pytest.mark.parametrize("command", HELP_COMMANDS, ids=HELP_IDS)
    def test_help_without_stdout_exits_2(self, command):
        # `>&-` starts the interpreter without fd 1, so its sys.stdout is None
        result = help_process(command, redirect=">&-", stderr=subprocess.PIPE)
        assert result.returncode == 2
        assert result.stderr == b'error: code=2 entity="<stdout>" message="stdout is closed"\n'


class TestProcessPolicy:
    @staticmethod
    def study_garbage(manifest, fmt, out):
        """Objects in reference cycles that one in-process study leaves
        behind; the collector stays off throughout, so none is freed early."""
        gc.collect()
        gc.disable()
        try:
            assert main(["study", str(manifest), "--format", fmt, "--out", str(out)]) == 0
            return gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
    def test_study_leaves_no_cycles_per_subset_or_pair(self, fixtures_dir, tmp_path, fmt):
        small, large = (fixtures_dir / name / "manifest.json"
                        for name in ("corpus3x3", "corpus5x5"))
        self.study_garbage(small, fmt, tmp_path / "warm")  # first-call caches
        assert (self.study_garbage(small, fmt, tmp_path / "small")
                == self.study_garbage(large, fmt, tmp_path / "large"))

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("empty, code", [(False, 0), (True, 3)])
    def test_study_restores_the_gc_state(self, tmp_path, enabled, empty, code):
        for name in ("a", "b"):
            for app in ("x", "y"):
                write_asm(tmp_path / f"{name}{app}.s", "mov r0, r1", f"add r{ord(name) % 4}, r1")
        if empty:
            (tmp_path / "ax.s").write_text("@ only a comment\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"programs": [
            {"id": f"{n}-{a}", "path": f"{n}{a}.s", "programmer": n, "application": a}
            for n in ("a", "b") for a in ("x", "y")]}))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["study", str(manifest), "--out", str(tmp_path / "r.md")]) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_streamed_json_report_peaks_below_half_its_length(self, fixtures_dir, tmp_path):
        manifest = load_datasets(fixtures_dir / "corpus5x5" / "manifest.json")
        # the study runs here; the report is rendered as it is written below
        parts = run_manifest_study(manifest, ToolConfig(output_format="json"))
        report = tmp_path / "report.json"
        tracemalloc.start()
        try:
            _write_parts(parts, report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a report joined before it is written peaks at about twice its length
        assert peak < report.stat().st_size / 2

    def test_importing_the_cli_loads_no_compile_modules(self):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        probe = ("import asmsim.cli, sys; print(sorted({'subprocess', 'concurrent.futures', "
                 "'hashlib', 'csv'} & set(sys.modules)))")
        # -S: no site hooks, whose imports are not the package's
        result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                                env=env, check=True)
        assert result.stdout == b"[]\n"

    @pytest.mark.parametrize("module", ["asmsim.cli", "asmsim.crosscompile"])
    def test_importing_loads_no_class_generation_modules(self, module):
        """Records are plain ``collections.namedtuple`` classes: no import pulls in
        ``dataclasses`` and the source-inspection modules it imports, or ``typing``."""
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        probe = (f"import {module}, sys; print(sorted({{'dataclasses', 'inspect', 'ast', "
                 "'dis', 'tokenize', 'typing'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                                env=env, check=True)
        assert result.stdout == b"[]\n"

    @pytest.mark.parametrize("args, code", [
        (("extract", "{corpus}"), 2),
        (("compare", "{corpus}/ada_fib.s", "{corpus}/ada_minmax.s"), 2),
        (("study", "{corpus}/manifest.json"), 2),
        (("compile", "{corpus}/manifest.json", "--out", "{tmp}/asm"), 2),  # prints a summary
        (("extract", "{corpus}", "--out", "{tmp}/out"), 0),
        (("study", "{corpus}/manifest.json", "--out", "{tmp}/out"), 0),
    ], ids=["extract", "compare", "study", "compile", "extract-out", "study-out"])
    def test_closed_stdout_exits_2_unless_output_goes_to_files(self, fixtures_dir, tmp_path,
                                                               args, code):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        argv = [arg.format(corpus=fixtures_dir / "corpus3x3", tmp=tmp_path) for arg in args]
        # `>&-` starts the interpreter without fd 1, so its sys.stdout is None
        result = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
                                 "asmsim", *argv], capture_output=True, env=env)
        assert result.returncode == code
        assert "Traceback" not in result.stderr.decode()
        if code == 2:
            assert last_diagnostic(result)[:2] == (2, "<stdout>")
            assert not (tmp_path / "asm").exists()
        else:
            assert (tmp_path / "out").exists()

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
    @pytest.mark.parametrize("empty, code", [(False, 0), (True, 3)], ids=["report", "error"])
    def test_unusable_stderr_changes_neither_output_nor_status(self, fixtures_dir, tmp_path,
                                                               unbuffered, redirect,
                                                               empty, code):
        # every file gets an unclassifiable line, so lenient mode warns once per file;
        # in the error case one holds nothing else, so the study fails after reading all
        for source in (fixtures_dir / "corpus3x3").iterdir():
            text = source.read_text() + ("\t!!! junk\n" if source.suffix == ".s" else "")
            (tmp_path / source.name).write_text(text)
        if empty:
            (tmp_path / "cyd_minmax.s").write_text("@ only a comment\n\t!!! junk\n")
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        argv = [sys.executable, "-m", "asmsim", "study", str(tmp_path / "manifest.json")]
        normal = subprocess.run(argv, capture_output=True, env=env)
        assert normal.returncode == code
        assert normal.stderr.decode().count("warning:") == 9
        # `2>&-` starts the interpreter without fd 2, so its sys.stderr is None;
        # `2</dev/null` gives it an fd 2 that every write fails on
        result = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *argv],
                                stdout=subprocess.PIPE, env=env)
        assert result.returncode == code
        assert result.stdout == normal.stdout
        assert b"warning:" not in result.stdout and b"error:" not in result.stdout
