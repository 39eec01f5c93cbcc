import gc
import json
import os
import re
import resource
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


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"],
                         ids=["nel", "line-separator", "paragraph-separator"])
def test_unicode_line_breaks_in_a_diagnostic_are_escaped(separator):
    error = InputError(f"no such{separator}file", entity=f"x y{separator}.s")
    [line] = error.diagnostic().splitlines()
    match = DIAGNOSTIC_RE.match(line)
    assert match and match.group(1) == "2"
    assert unquote(match.group(2)) == f"x y{separator}.s"
    assert unquote(match.group(3)) == f"no such{separator}file"


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

    def test_out_directory(self, tmp_path):
        asm = write_asm(tmp_path / "a.s", "mov r0, r1")
        out = tmp_path / "dumps"
        result = run_cli("extract", asm, "--out", out)
        assert result.returncode == 0
        dump = json.loads((out / "a.json").read_text())
        assert dump["mnemonics"] == ["mov"]

    def test_lenient_warns_on_stderr(self, tmp_path):
        asm = tmp_path / "a.s"
        asm.write_text("\tmov r0, r1\n\t!!!\n")
        result = run_cli("extract", asm)
        assert result.returncode == 0
        assert f"warning: {asm}:2:" in result.stderr.decode()

    def test_lenient_warnings_quote_the_raw_lines(self, tmp_path):
        text = "\t!!! a @ c\r\n\t!!! b  \u2028\tnop // d\n\t!!! e\n\t!!! f @\t\n"
        asm = tmp_path / "a.s"
        asm.write_bytes(text.encode())
        result = run_cli("extract", asm)
        assert result.returncode == 0
        assert result.stderr.decode().splitlines() == [
            f"warning: {asm}:{line_no}: unclassifiable line: {line.strip()!r}"
            for line_no, line in enumerate(text.splitlines(), start=1) if "!!!" in line]

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
        a = write_asm(tmp_path / "a.s", "mov r0, r1")
        assert run_cli("compare", a, tmp_path / "nope.s").returncode == 2

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
        assert any(line.startswith("(all),jaccard") for line in lines)

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
                                           f"program file not found: {tmp_path / name}")

    def test_unwritable_out_exits_2(self, corpus_manifest, tmp_path):
        target = tmp_path / "no" / "dir" / "report.md"
        result = run_cli("study", corpus_manifest, "--out", target)
        assert result.returncode == 2
        code, entity, _ = last_diagnostic(result)
        assert code == 2 and entity == str(target)

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
        assert "| first |" in text and "| second |" in text
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
        assert result.returncode == 2
        assert b"unrecognized arguments: " + flag in result.stderr
        assert not (tmp_path / "asm").exists()

    @pytest.mark.parametrize("command", list(TAKES))
    def test_each_command_takes_only_its_flags(self, command, capsys):
        [subparsers] = [a for a in build_parser()._actions if a.choices]
        options = {option for action in subparsers.choices[command]._actions
                   for option in action.option_strings}
        if command == "compare":
            options.discard("--format")  # text or json; no config key
        assert sorted(options - NOT_SETTINGS) == sorted(TAKES[command])
        for flag in set().union(*TAKES.values()) - set(TAKES[command]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(
                    [command, *POSITIONAL[command], flag, *FLAG_VALUES[flag]])
            assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
                 "'hashlib'} & set(sys.modules)))")
        # -S: no site hooks, whose imports are not the package's
        result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                                env=env, check=True)
        assert result.stdout == b"[]\n"

    @pytest.mark.parametrize("module", ["asmsim.cli", "asmsim.crosscompile"])
    def test_importing_loads_no_class_generation_modules(self, module):
        """Records are named tuples: no import pulls in ``dataclasses`` and the
        source-inspection modules it imports."""
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        probe = (f"import {module}, sys; print(sorted({{'dataclasses', 'inspect', 'ast', "
                 "'dis', 'tokenize'} & set(sys.modules)))")
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
    @pytest.mark.parametrize("extra, code", [((), 0), (("--strides", "3"), 5)],
                             ids=["report", "error"])
    def test_unusable_stderr_changes_neither_output_nor_status(self, fixtures_dir, tmp_path,
                                                               unbuffered, redirect,
                                                               extra, code):
        # every file gets an unclassifiable line, so lenient mode warns once per file
        for source in (fixtures_dir / "corpus3x3").iterdir():
            text = source.read_text() + ("\t!!! junk\n" if source.suffix == ".s" else "")
            (tmp_path / source.name).write_text(text)
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        argv = [sys.executable, "-m", "asmsim", "study", str(tmp_path / "manifest.json"),
                *extra]
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
