import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from asmsim import crosscompile
from asmsim.config import ToolConfig
from asmsim.corpus import load_datasets, make_dir
from asmsim.crosscompile import (CompileOutcome, build_command, compile_corpus,
                                 content_hash)
from asmsim.errors import InputError, ToolError

from conftest import FIXTURES, REPO_ROOT, gone_pid, run_cli

# Every fake compiler below but VERSIONED_CC starts with this: it answers
# `--version` as a real compiler does, since the cache key asks for it.
ANSWERS_VERSION = """\
import sys
if sys.argv[1:] == ["--version"]:
    print("fake-cc 1.0")
    sys.exit()
"""

# Stands in for the cross-compiler: copies input to output (the test
# sources are already assembly), logs every invocation, and fails on
# sources containing the FAIL marker.
FAKE_CC = ANSWERS_VERSION + """\
import pathlib, sys
args = sys.argv[1:]
pathlib.Path(__file__).with_name("calls.log").open("a").write(" ".join(args) + "\\n")
out = args[args.index("-o") + 1]
src = pathlib.Path(args[-1]).read_text()
if "FAIL" in src:
    sys.stderr.write("fake-cc: cannot compile\\n")
    sys.exit(1)
pathlib.Path(out).write_text(src)
"""


# Writes half of its output, then SIGKILLs the `asmsim compile` process
# that started it, as an interrupted run would. It kills nothing else.
KILLING_CC = ANSWERS_VERSION + """\
import os, pathlib, signal, sys
args = sys.argv[1:]
out = args[args.index("-o") + 1]
src = pathlib.Path(args[-1]).read_text()
pathlib.Path(out).write_text(src[:len(src) // 2])
parent = os.getppid()
argv = pathlib.Path(f"/proc/{parent}/cmdline").read_bytes().split(b"\\0")
if argv[1:4] != [b"-m", b"asmsim", b"compile"]:
    sys.exit("fake-cc: parent is not asmsim compile")
os.kill(parent, signal.SIGKILL)
"""

# Copies input to output once a second compile has started, so it
# succeeds only when compiles run side by side.
PAIRED_CC = ANSWERS_VERSION + """\
import pathlib, sys, time
args = sys.argv[1:]
here = pathlib.Path(__file__).parent
(here / ("started-" + pathlib.Path(args[-1]).name)).touch()
deadline = time.monotonic() + 20
while len(list(here.glob("started-*"))) < 2:
    if time.monotonic() > deadline:
        sys.exit("fake-cc: no second compile started")
    time.sleep(0.01)
out = args[args.index("-o") + 1]
pathlib.Path(out).write_text(pathlib.Path(args[-1]).read_text())
"""

# Leaves a started-<source> marker, then copies input to output once a file
# named `go` exists beside it, so a test decides when each compile ends.
WAITING_CC = ANSWERS_VERSION + """\
import pathlib, sys, time
args = sys.argv[1:]
here = pathlib.Path(__file__).parent
(here / ("started-" + pathlib.Path(args[-1]).name)).touch()
deadline = time.monotonic() + 60
while not (here / "go").exists():
    if time.monotonic() > deadline:
        sys.exit("fake-cc: no go file")
    time.sleep(0.01)
out = args[args.index("-o") + 1]
pathlib.Path(out).write_text(pathlib.Path(args[-1]).read_text())
"""

# Copies input to output; answers `--version` with the line kept in
# version.txt next to it, so a test can upgrade it between runs.
VERSIONED_CC = """\
import pathlib, sys
args = sys.argv[1:]
if args == ["--version"]:
    print(pathlib.Path(__file__).with_name("version.txt").read_text().strip())
    sys.exit()
out = args[args.index("-o") + 1]
pathlib.Path(out).write_text(pathlib.Path(args[-1]).read_text())
"""

# Copies input to output with each `#include "name"` line replaced by the
# text of the file `name` beside the input, as a C preprocessor would.
INCLUDING_CC = ANSWERS_VERSION + """\
import pathlib, re, sys
args = sys.argv[1:]
out = args[args.index("-o") + 1]
src = pathlib.Path(args[-1])
text = re.sub(r'^#include "(.+)"\\n', lambda m: src.with_name(m[1]).read_text(),
              src.read_text(), flags=re.M)
pathlib.Path(out).write_text(text)
"""

# Fails every compile; its stderr and `--version` line are not UTF-8 when
# the script is run with the argument "bad-stderr" or "bad-version".
FAILING_CC = """\
import sys
mode = sys.argv[1]
if sys.argv[2:] == ["--version"]:
    sys.stdout.buffer.write(b"cc 1.0 \\xff\\n" if mode == "bad-version" else b"cc 1.0\\n")
    sys.exit()
sys.stderr.buffer.write(b"fatal: caf\\xe9\\n" if mode == "bad-stderr" else b"fatal: cafe\\n")
sys.exit(1)
"""


@pytest.fixture
def fake_cc(tmp_path):
    script = tmp_path / "fake_cc.py"
    script.write_text(FAKE_CC)
    (tmp_path / "calls.log").write_text("")
    return script


def call_count(fake_cc):
    return len(fake_cc.with_name("calls.log").read_text().splitlines())


def make_sources(tmp_path, name="src"):
    src_dir = tmp_path / name
    src_dir.mkdir()
    programs = []
    for programmer in ("a", "b"):
        for app in ("x", "y"):
            path = src_dir / f"{programmer}{app}.c"
            path.write_text(f"\tmov r{ord(programmer) % 4}, r1\n"
                            f"\tadd r{ord(app) % 4}, r2\n\tbx lr\n")
            programs.append({"id": f"{programmer}-{app}", "path": path.name,
                             "programmer": programmer, "application": app})
    manifest = src_dir / "manifest.json"
    manifest.write_text(json.dumps({"programs": programs}))
    return manifest


def fake_config(fake_cc):
    return ToolConfig(compiler_command=f"{sys.executable} {fake_cc}",
                      compiler_flags=())


class TestBuildCommand:
    def test_plain_command_gets_output_and_input_appended(self):
        argv = build_command(["cc", "-S"], Path("in.c"), Path("out.s"))
        assert argv == ["cc", "-S", "-o", "out.s", "in.c"]

    def test_placeholders_substituted(self):
        argv = build_command(["cc", "-x", "{input}", "--out={output}"], Path("a.c"),
                             Path("b.s"))
        assert argv == ["cc", "-x", "a.c", "--out=b.s"]

    @pytest.mark.parametrize("source", ["src{output}/a.c", "src\\g<1>/a.c"])
    def test_placeholder_text_in_a_path_is_left_alone(self, source):
        argv = build_command(["cc", "{input}", "-o", "{output}"], Path(source), Path("b.s"))
        assert argv == ["cc", source, "-o", "b.s"]


class TestContentHash:
    def test_sensitive_to_inputs(self):
        base = content_hash(b"src", ["cc", "-S"], "cc 1.0")
        assert base == content_hash(b"src", ["cc", "-S"], "cc 1.0")
        assert base != content_hash(b"other", ["cc", "-S"], "cc 1.0")
        assert base != content_hash(b"src", ["cc2", "-S"], "cc 1.0")
        assert base != content_hash(b"src", ["cc", "-O2"], "cc 1.0")
        assert base != content_hash(b"src", ["cc", "-S"], "cc 1.1")
        assert base != content_hash(b"src", ["cc", "-S"], None)
        # swapped flags give the compiler another argv
        assert content_hash(b"src", ["cc", "-S", "-O2"], "cc 1.0") != \
            content_hash(b"src", ["cc", "-O2", "-S"], "cc 1.0")


class TestCompileCorpus:
    def test_compiles_and_derives_manifest(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        result = compile_corpus(load_datasets(manifest), fake_config(fake_cc), out)
        assert not result.failures and result.cache_hits == 0
        assert call_count(fake_cc) == 4

        derived = load_datasets(result.manifest_path)
        [(name, entries)] = derived.datasets
        assert len(entries) == 4
        assert all(e.path.suffix == ".s" and e.path.is_file() for e in entries)
        assert derived.metadata["compiler_flags"] == []
        assert "compiler_command" in derived.metadata

    def test_cache_skips_compiler(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        config = fake_config(fake_cc)
        compile_corpus(load_datasets(manifest), config, out)
        first_calls = call_count(fake_cc)
        again = compile_corpus(load_datasets(manifest), config, out)
        assert again.cache_hits == 4
        assert call_count(fake_cc) == first_calls

    @pytest.mark.parametrize("command, flags", [
        ("{python}  {cc}  ", ()),  # extra spaces between the words
        ("{python} '{cc}'", ()),  # a word written in quotes
        ("{python}", ("{cc}",)),  # the script word moved into the flags
    ])
    def test_respelled_command_shares_the_cache(self, tmp_path, fake_cc, command, flags):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        compile_corpus(load_datasets(manifest), fake_config(fake_cc), out)
        names = {"python": sys.executable, "cc": str(fake_cc)}
        respelled = ToolConfig(compiler_command=command.format(**names),
                               compiler_flags=tuple(f.format(**names) for f in flags))
        result = compile_corpus(load_datasets(manifest), respelled, out)
        assert result.cache_hits == 4 and not result.failures
        assert call_count(fake_cc) == 4
        assert len(list((out / "cache").glob("*.s"))) == 4

    def test_changed_flags_invalidate_cache(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        compile_corpus(load_datasets(manifest), fake_config(fake_cc), out)
        first_calls = call_count(fake_cc)
        other = ToolConfig(compiler_command=f"{sys.executable} {fake_cc}",
                           compiler_flags=("-DX",))
        compile_corpus(load_datasets(manifest), other, out)
        assert call_count(fake_cc) == first_calls + 4

    def test_single_failure_does_not_stop_run(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        (tmp_path / "src" / "ax.c").write_text("FAIL\n")
        result = compile_corpus(load_datasets(manifest), fake_config(fake_cc),
                                tmp_path / "out")
        assert [o.entry.id for o in result.failures] == ["a-x"]
        derived = load_datasets(result.manifest_path)
        assert [e.id for e in derived.datasets[0][1]] == ["a-y", "b-x", "b-y"]

    def test_multi_dataset_manifest_round_trip(self, tmp_path, fake_cc):
        make_sources(tmp_path)
        src = tmp_path / "src"
        doc = json.loads((src / "manifest.json").read_text())
        multi = src / "multi.json"
        multi.write_text(json.dumps({"datasets": [
            {"name": "one", "programs": doc["programs"]},
            {"name": "two", "programs": doc["programs"]},
        ]}))
        result = compile_corpus(load_datasets(multi), fake_config(fake_cc),
                                tmp_path / "out")
        derived = load_datasets(result.manifest_path)
        assert [name for name, _ in derived.datasets] == ["one", "two"]
        assert all(len(entries) == 4 for _, entries in derived.datasets)
        # identical sources across datasets hit the cache instead of recompiling
        assert result.cache_hits == 4

    def test_repeated_source_same_result_for_any_jobs(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["programs"][3]["path"] = doc["programs"][0]["path"]
        manifest.write_text(json.dumps(doc))
        compiler = f"{sys.executable} {fake_cc}"
        lines, calls = [], []
        for jobs in (1, 2):
            result = run_cli("compile", manifest, "--out", tmp_path / f"out{jobs}",
                             "--cc", compiler, "--jobs", jobs)
            assert result.returncode == 0
            lines.append(result.stdout.decode().splitlines()[0])
            calls.append(call_count(fake_cc))
        assert lines == ["compiled 3, cached 1, failed 0"] * 2
        assert calls == [3, 6]  # one compiler call per distinct source
        one, two = tmp_path / "out1", tmp_path / "out2"
        assert (one / "manifest.json").read_bytes() == (two / "manifest.json").read_bytes()
        assert sorted(p.name for p in (one / "cache").iterdir()) == \
            sorted(p.name for p in (two / "cache").iterdir())
        for path in (one / "cache").iterdir():
            assert path.read_bytes() == (two / "cache" / path.name).read_bytes()

    def test_jobs_run_compilers_side_by_side(self, tmp_path):
        manifest = make_sources(tmp_path)
        paired = tmp_path / "paired_cc.py"
        paired.write_text(PAIRED_CC)
        config = ToolConfig(compiler_command=f"{sys.executable} {paired}",
                            compiler_flags=(), jobs=2)
        result = compile_corpus(load_datasets(manifest), config, tmp_path / "out")
        assert not result.failures and result.cache_hits == 0

    def test_failed_manifest_write_keeps_previous(self, tmp_path, fake_cc, monkeypatch):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        compile_corpus(load_datasets(manifest), fake_config(fake_cc), out)
        before = (out / "manifest.json").read_bytes()

        real_replace = os.replace

        def failing_replace(source, target):
            if Path(target).name != "manifest.json":
                return real_replace(source, target)
            # the new manifest is whole beside the old one, then the rename fails
            assert Path(source).parent == Path(target).parent
            assert Path(source).read_bytes() == before
            raise OSError("disk full")

        datasets = load_datasets(manifest)
        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(InputError, match="disk full") as excinfo:
            compile_corpus(datasets, fake_config(fake_cc), out)
        monkeypatch.undo()
        assert excinfo.value.entity == str(out / "manifest.json")
        assert (out / "manifest.json").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["cache", "manifest.json"]

    @pytest.mark.parametrize("failure", [None, ToolError, OSError])
    def test_many_workers_compile_each_hash_once(self, tmp_path, monkeypatch, failure):
        """More workers than cores, switching threads as often as they can: every
        distinct source compiles exactly once, every worker ends, and a worker's
        exception reaches the caller and ends the run before every source compiled."""
        src = tmp_path / "src"
        src.mkdir()
        programs = []
        for i in range(60):  # 40 distinct sources; the last 20 repeat the first 20
            path = src / f"p{i}.c"
            path.write_text(f"\tmov r0, #{i % 40}\n")
            programs.append({"id": f"p{i}", "path": path.name,
                             "programmer": f"m{i % 6}", "application": f"a{i // 6}"})
        manifest = src / "manifest.json"
        manifest.write_text(json.dumps({"programs": programs}))
        calls, workers = [], set()

        def compile_entry(entry, config, target):
            calls.append((entry.id, target.name))
            workers.add(threading.current_thread())
            time.sleep(0.001)
            if failure is not None and entry.id == "p7":
                raise failure("no compiler")
            target.write_text(entry.path.read_text())
            return CompileOutcome(entry, target)

        monkeypatch.setattr(crosscompile, "compile_entry", compile_entry)
        config = ToolConfig(compiler_command="/no/such/compiler", jobs=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            if failure is None:
                result = compile_corpus(load_datasets(manifest), config, tmp_path / "out")
            else:
                with pytest.raises(failure, match="no compiler"):
                    compile_corpus(load_datasets(manifest), config, tmp_path / "out")
        finally:
            sys.setswitchinterval(interval)
        targets = [target for _, target in calls]
        assert len(targets) == len(set(targets))
        assert 1 < len(workers) <= 8 and not any(w.is_alive() for w in workers)
        if failure is not None:
            assert "p7" in dict(calls) and len(calls) < 40
        else:
            assert len(calls) == 40
            assert [o.entry.id for o in result.outcomes] == [p["id"] for p in programs]
            assert result.cache_hits == 20 and not result.failures

    def test_missing_compiler(self, tmp_path):
        manifest = make_sources(tmp_path)
        config = ToolConfig(compiler_command="/no/such/compiler")
        with pytest.raises(ToolError) as excinfo:
            compile_corpus(load_datasets(manifest), config, tmp_path / "out")
        assert excinfo.value.exit_code == 4

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_missing_compiler_starts_no_more_compiles(self, tmp_path, monkeypatch,
                                                      corpus_manifest, jobs):
        """A compiler that cannot start ends the run after the compiles already
        started: one ``--version`` probe, then at most one attempt per worker."""
        run = crosscompile.subprocess.run
        calls = []

        def spy(argv, **kwargs):
            calls.append(argv)
            return run(argv, **kwargs)

        monkeypatch.setattr(crosscompile.subprocess, "run", spy)
        config = ToolConfig(compiler_command="/no/such/compiler", jobs=jobs)
        with pytest.raises(ToolError, match="cannot run compiler") as excinfo:
            compile_corpus(load_datasets(corpus_manifest), config, tmp_path / "out")
        assert excinfo.value.entity == "ada-checksum"
        assert calls[0] == ["/no/such/compiler", "--version"]
        assert len(calls) == 2 if jobs == 1 else 2 <= len(calls) <= 1 + jobs


class TestCompileCli:
    def test_end_to_end_compile_then_study(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        result = run_cli("compile", manifest, "--out", out, "--cc",
                         f"{sys.executable} {fake_cc}")
        assert result.returncode == 0
        assert "compiled 4, cached 0, failed 0" in result.stdout.decode()

        rerun = run_cli("compile", manifest, "--out", out, "--cc",
                        f"{sys.executable} {fake_cc}")
        assert "compiled 0, cached 4, failed 0" in rerun.stdout.decode()

        study = run_cli("study", out / "manifest.json", "--format", "json")
        assert study.returncode == 0
        doc = json.loads(study.stdout)
        assert doc["metadata"]["compiler_command"].endswith("fake_cc.py")

    def test_source_under_a_directory_named_like_a_placeholder(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path, "src{output}")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "compiler_command": f"{sys.executable} {fake_cc} -o {{output}} {{input}}",
            "compiler_flags": []}))
        out = tmp_path / "out"
        result = run_cli("compile", manifest, "--out", out, "--config", config)
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().splitlines()[0] == "compiled 4, cached 0, failed 0"
        [(_, sources)] = load_datasets(manifest).datasets
        [(_, derived)] = load_datasets(out / "manifest.json").datasets
        assert {e.id: e.path.read_text() for e in derived} == \
            {e.id: e.path.read_text() for e in sources}

    def test_cli_failure_exit_code(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        (tmp_path / "src" / "ax.c").write_text("FAIL\n")
        result = run_cli("compile", manifest, "--out", tmp_path / "out", "--cc",
                         f"{sys.executable} {fake_cc}")
        assert result.returncode == 4
        assert "failed 1" in result.stdout.decode()
        assert 'entity="a-x"' in result.stderr.decode()

    def test_cli_failures_end_in_one_error_line(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        for name in ("ax.c", "by.c"):
            (tmp_path / "src" / name).write_text("FAIL\n")
        result = run_cli("compile", manifest, "--out", tmp_path / "out", "--cc",
                         f"{sys.executable} {fake_cc}")
        assert result.returncode == 4
        assert "failed 2" in result.stdout.decode()
        # the second failure is a warning, the first the one error line, last
        assert result.stderr.decode().splitlines() == [
            'warning: code=4 entity="b-y" message="fake-cc: cannot compile"',
            'error: code=4 entity="a-x" message="fake-cc: cannot compile"']

    def failing_compile(self, tmp_path, corpus_manifest, mode):
        script = tmp_path / "failing_cc.py"
        script.write_text(FAILING_CC)
        return run_cli("compile", corpus_manifest, "--out", tmp_path / mode, "--cc",
                       f"{sys.executable} {script} {mode}")

    def test_cli_non_utf8_compiler_stderr_is_a_recorded_failure(self, tmp_path,
                                                                 corpus_manifest):
        result = self.failing_compile(tmp_path, corpus_manifest, "bad-stderr")
        stderr = result.stderr.decode()
        assert result.returncode == 4
        assert "Traceback" not in stderr
        assert 'error: code=4 entity="ada-checksum" message="fatal: caf\ufffd"' in stderr

    def test_cli_non_utf8_compiler_version_does_not_crash(self, tmp_path, corpus_manifest):
        plain = self.failing_compile(tmp_path, corpus_manifest, "plain")
        result = self.failing_compile(tmp_path, corpus_manifest, "bad-version")
        assert "Traceback" not in result.stderr.decode()
        assert result.returncode == plain.returncode == 4

    @pytest.mark.skipif(not Path("/proc/self/cmdline").is_file(),
                        reason="the killing fake compiler reads /proc")
    def test_killed_compile_leaves_no_cache_hit(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        compiler = f"{sys.executable} {fake_cc}"  # one command, so one cache key
        fake_cc.write_text(KILLING_CC)
        killed = run_cli("compile", manifest, "--out", out, "--jobs", 1, "--cc", compiler)
        assert killed.returncode == -signal.SIGKILL, killed.stderr.decode()

        fake_cc.write_text(FAKE_CC)
        rerun = run_cli("compile", manifest, "--out", out, "--cc", compiler)
        assert rerun.returncode == 0
        assert "compiled 4, cached 0, failed 0" in rerun.stdout.decode()
        [(_, sources)] = load_datasets(manifest).datasets
        [(_, derived)] = load_datasets(out / "manifest.json").datasets
        assert {e.id: e.path.read_text() for e in derived} == \
            {e.id: e.path.read_text() for e in sources}

    def test_interrupted_compile_starts_no_further_compiles(self, tmp_path):
        script = tmp_path / "waiting_cc.py"
        script.write_text(WAITING_CC)
        src = tmp_path / "src"
        src.mkdir()
        programs = []
        for k in range(8):
            (src / f"p{k}.c").write_text(f"\tmov r0, #{k}\n\tbx lr\n")
            programs.append({"id": f"p{k}", "path": f"p{k}.c",
                             "programmer": f"p{k}", "application": "x"})
        manifest = src / "manifest.json"
        manifest.write_text(json.dumps({"programs": programs}))
        out = tmp_path / "out"
        stderr = tmp_path / "stderr.txt"
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        with stderr.open("wb") as sink:
            run = subprocess.Popen(
                [sys.executable, "-m", "asmsim", "compile", str(manifest), "--out", str(out),
                 "--jobs", "2", "--cc", f"{sys.executable} {script}"],
                stdout=subprocess.DEVNULL, stderr=sink, env=env)
        try:
            deadline = time.monotonic() + 60
            while len(list(tmp_path.glob("started-*"))) < 2:
                assert time.monotonic() < deadline and run.poll() is None
                time.sleep(0.01)
            run.send_signal(signal.SIGINT)
            # the traceback is written as the main thread ends, before the
            # interpreter waits for the compiles in flight
            while b"KeyboardInterrupt" not in stderr.read_bytes():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            (tmp_path / "go").touch()
            assert run.wait(timeout=60) == -signal.SIGINT
        finally:
            (tmp_path / "go").touch()
            run.kill()
            run.wait()
        assert len(list(tmp_path.glob("started-*"))) == 2
        assert len(list((out / "cache").glob("*.s"))) == 2
        assert not list(out.rglob("*.partial"))

    @staticmethod
    def assert_upgrade_invalidates_cache(tmp_path, compiler):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        lines = []
        for release in ("fake-cc 1.0", "fake-cc 1.1", "fake-cc 1.1"):
            (tmp_path / "version.txt").write_text(release + "\n")
            result = run_cli("compile", manifest, "--out", out, "--cc", compiler)
            assert result.returncode == 0, result.stderr.decode()
            lines.append(result.stdout.decode().splitlines()[0])
            metadata = json.loads((out / "manifest.json").read_text())["metadata"]
            assert metadata["compiler_version"] == release
        assert lines == ["compiled 4, cached 0, failed 0",
                         "compiled 4, cached 0, failed 0",
                         "compiled 0, cached 4, failed 0"]

    def test_compiler_upgrade_invalidates_cache(self, tmp_path):
        compiler = tmp_path / "versioned_cc"
        compiler.write_text(f"#!{sys.executable}\n" + VERSIONED_CC)
        compiler.chmod(0o755)
        self.assert_upgrade_invalidates_cache(tmp_path, compiler)

    def test_compiler_upgrade_behind_wrapper_invalidates_cache(self, tmp_path):
        # `python3 versioned_cc.py --version` reaches the script, not only python3
        script = tmp_path / "versioned_cc.py"
        script.write_text(VERSIONED_CC)
        self.assert_upgrade_invalidates_cache(tmp_path, f"{sys.executable} {script}")

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 13: the cache key covers no file that the "
                              "source includes, so an edited header is a cache hit")
    def test_edited_header_is_compiled_again(self, tmp_path):
        script = tmp_path / "including_cc.py"
        script.write_text(INCLUDING_CC)
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.c").write_text('#include "k.h"\n\tbx lr\n')
        manifest = src / "manifest.json"
        manifest.write_text(json.dumps({"programs": [
            {"id": "a", "path": "a.c", "programmer": "p", "application": "x"}]}))
        out = tmp_path / "out"
        texts = []
        for header in ("\tmov r0, #3\n", "\tmov r0, #1024\n"):
            (src / "k.h").write_text(header)
            result = run_cli("compile", manifest, "--out", out, "--cc",
                             f"{sys.executable} {script}")
            assert result.returncode == 0, result.stderr.decode()
            [(_, [entry])] = load_datasets(out / "manifest.json").datasets
            texts.append(entry.path.read_text())
        assert texts == ["\tmov r0, #3\n\tbx lr\n", "\tmov r0, #1024\n\tbx lr\n"]

    def test_stale_partial_files_removed(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        compiler = f"{sys.executable} {fake_cc}"
        assert run_cli("compile", manifest, "--out", out, "--cc", compiler).returncode == 0
        pid = gone_pid()
        dead = out / "cache" / f".asmsim-{pid}-0.partial"
        live = out / "cache" / f".asmsim-{os.getpid()}-0.partial"
        held = out / "cache" / f".asmsim-{pid}-1.partial"
        dead.write_text("\tmov r0,")
        live.write_text("\tmov r0,")
        held.mkdir()  # named like a dead compile's file, but a directory
        rerun = run_cli("compile", manifest, "--out", out, "--cc", compiler)
        assert rerun.returncode == 0, rerun.stderr.decode()
        assert rerun.stdout.decode().splitlines()[0] == "compiled 0, cached 4, failed 0"
        assert not dead.exists()
        assert live.read_text() == "\tmov r0,"
        assert held.is_dir()

    def test_stale_partial_file_beside_the_manifest_removed(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        compiler = f"{sys.executable} {fake_cc}"
        assert run_cli("compile", manifest, "--out", out, "--cc", compiler).returncode == 0
        written = (out / "manifest.json").read_bytes()
        dead = out / f".asmsim-{gone_pid()}-0.partial"
        dead.write_text('{"programs": [')  # as a run killed while writing the manifest
        rerun = run_cli("compile", manifest, "--out", out, "--cc", compiler)
        assert rerun.returncode == 0, rerun.stderr.decode()
        assert not dead.exists()
        assert (out / "manifest.json").read_bytes() == written

    @staticmethod
    def compile_with_flags(tmp_path, fake_cc, manifest, out, flags):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"compiler_command": f"{sys.executable} {fake_cc}",
                                      "compiler_flags": flags}))
        return run_cli("compile", manifest, "--out", out, "--config", config)

    def test_cache_keeps_only_the_last_runs_entries(self, tmp_path, fake_cc,
                                                    corpus_manifest):
        out = tmp_path / "out"
        lines = []
        for flags in (["-DA"], ["-DB"], ["-DA"]):
            result = self.compile_with_flags(tmp_path, fake_cc, corpus_manifest, out, flags)
            assert result.returncode == 0, result.stderr.decode()
            lines.append(result.stdout.decode().splitlines()[0])
            [(_, derived)] = load_datasets(out / "manifest.json").datasets
            assert sorted((out / "cache").iterdir()) == sorted(e.path for e in derived)
        assert lines == ["compiled 9, cached 0, failed 0"] * 3
        assert call_count(fake_cc) == 27

    def test_run_with_a_failed_compile_prunes_nothing(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        assert self.compile_with_flags(tmp_path, fake_cc, manifest, out,
                                       ["-DA"]).returncode == 0
        first = set((out / "cache").iterdir())
        (tmp_path / "src" / "ax.c").write_text("FAIL\n")
        result = self.compile_with_flags(tmp_path, fake_cc, manifest, out, ["-DB"])
        assert result.returncode == 4
        assert result.stdout.decode().splitlines()[0] == "compiled 3, cached 0, failed 1"
        cache = set((out / "cache").iterdir())
        assert first < cache and len(cache) == 7

    def test_prune_deletes_only_files_named_like_an_entry(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        compiler = f"{sys.executable} {fake_cc}"
        assert run_cli("compile", manifest, "--out", out, "--cc", compiler).returncode == 0
        cache = out / "cache"
        entries = set(cache.iterdir())
        stale = cache / "fedcba9876543210.s"
        kept = [cache / "notes.txt", cache / "FEDCBA9876543210.s",
                cache / "fedcba987654321.s", cache / "fedcba9876543210.s.bak",
                cache / "fedcba9876543210.12345.partial.s"]  # a pre-rule partial file
        for path in [stale, *kept]:
            path.write_text("\tbx lr\n")
        held = cache / "0123456789abcdef.s"  # named like an entry, but a directory
        held.mkdir()
        rerun = run_cli("compile", manifest, "--out", out, "--cc", compiler)
        assert rerun.returncode == 0, rerun.stderr.decode()
        assert rerun.stdout.decode().splitlines()[0] == "compiled 0, cached 4, failed 0"
        assert set(cache.iterdir()) == {*entries, *kept, held}

    def test_dangling_symlink_named_like_an_entry_is_pruned(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        compiler = f"{sys.executable} {fake_cc}"
        assert run_cli("compile", manifest, "--out", out, "--cc", compiler).returncode == 0
        cache = out / "cache"
        entries = set(cache.iterdir())
        stale = cache / "fedcba9876543210.s"
        stale.symlink_to(tmp_path / "gone.s")  # a link an older asmsim published, target gone
        rerun = run_cli("compile", manifest, "--out", out, "--cc", compiler)
        assert rerun.returncode == 0, rerun.stderr.decode()
        assert rerun.stdout.decode().splitlines()[0] == "compiled 0, cached 4, failed 0"
        assert not os.path.lexists(stale)
        assert set(cache.iterdir()) == entries

    def test_symlink_at_an_entrys_name_is_compiled_again(self, tmp_path, fake_cc,
                                                         corpus_manifest):
        out = tmp_path / "out"
        compiler = f"{sys.executable} {fake_cc}"
        assert run_cli("compile", corpus_manifest, "--out", out, "--cc",
                       compiler).returncode == 0
        [(_, [first, *_])] = load_datasets(out / "manifest.json").datasets
        outside = tmp_path / "outside.s"
        outside.write_text("\tmov r0, #7\n")
        first.path.unlink()
        first.path.symlink_to(outside)
        rerun = run_cli("compile", corpus_manifest, "--out", out, "--cc", compiler)
        assert rerun.returncode == 0, rerun.stderr.decode()
        assert rerun.stdout.decode().splitlines()[0] == "compiled 1, cached 8, failed 0"
        assert not first.path.is_symlink() and first.path.is_file()
        [(_, [source, *_])] = load_datasets(corpus_manifest).datasets
        assert first.path.read_text() == source.path.read_text()
        assert outside.read_text() == "\tmov r0, #7\n"

    def test_partial_file_of_another_users_process_stays(self, tmp_path, monkeypatch):
        # os.kill(pid, 0) raises PermissionError for a live process of another user
        outcomes = {101: PermissionError, 102: ProcessLookupError}

        def kill(pid, sig):
            raise outcomes[pid]()

        held = tmp_path / ".asmsim-101-0.partial"
        gone = tmp_path / ".asmsim-102-0.partial"
        held.write_text("\tmov r0,")
        gone.write_text("\tmov r0,")
        monkeypatch.setattr(os, "kill", kill)
        make_dir(tmp_path)
        assert held.read_text() == "\tmov r0,"
        assert not gone.exists()

    def test_partial_file_that_cannot_be_deleted_stays(self, tmp_path, monkeypatch):
        # as a dead process's file of another user in a sticky cache directory
        held = tmp_path / f".asmsim-{gone_pid()}-0.partial"
        held.write_text("\tmov r0,")

        def unlink(path, missing_ok=False):
            raise PermissionError(13, "Operation not permitted", str(path))

        monkeypatch.setattr(Path, "unlink", unlink)
        make_dir(tmp_path)
        monkeypatch.undo()
        assert held.read_text() == "\tmov r0,"

    def test_cache_directory_that_cannot_be_listed_compiles(self, tmp_path, fake_cc,
                                                            monkeypatch):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        compile_corpus(load_datasets(manifest), fake_config(fake_cc), out)
        stale = out / "cache" / "fedcba9876543210.s"
        stale.write_text("\tbx lr\n")
        entries = set((out / "cache").iterdir())
        real_scandir = os.scandir

        def scandir(path="."):
            if Path(path) == out / "cache":
                raise PermissionError(13, "Permission denied", str(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        result = compile_corpus(load_datasets(manifest), fake_config(fake_cc), out)
        monkeypatch.undo()
        assert len(result.outcomes) == 4
        assert not result.failures and result.cache_hits == 0
        assert call_count(fake_cc) == 8  # every source compiled again
        assert set((out / "cache").iterdir()) == entries  # and nothing pruned

    def test_cache_directory_is_listed_once_per_run(self, tmp_path, fake_cc, monkeypatch):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        listed = []

        def spy(real):
            def lister(path="."):
                listed.append(Path(path))
                return real(path)
            return lister

        monkeypatch.setattr(os, "scandir", spy(os.scandir))
        monkeypatch.setattr(os, "listdir", spy(os.listdir))
        for hits in (0, 4):  # cold, then warm
            listed.clear()
            result = compile_corpus(load_datasets(manifest), fake_config(fake_cc), out)
            assert result.cache_hits == hits and not result.failures
            assert listed.count(out / "cache") == 1
        monkeypatch.undo()
        assert call_count(fake_cc) == 4

    def test_make_dir_returns_its_listing(self, tmp_path, monkeypatch):
        (tmp_path / "entry.s").write_text("\tbx lr\n")
        (tmp_path / "link.s").symlink_to(tmp_path / "entry.s")
        (tmp_path / "sub").mkdir()
        dead = tmp_path / f".asmsim-{gone_pid()}-0.partial"
        dead.write_text("\tmov r0,")
        assert make_dir(tmp_path) == {"entry.s": True, "link.s": False, dead.name: True}
        assert not dead.exists()  # swept, but in the listing taken before the sweep

        dead.write_text("\tmov r0,")

        def scandir(path="."):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(os, "scandir", scandir)
        assert make_dir(tmp_path) == {}
        monkeypatch.undo()
        assert dead.read_text() == "\tmov r0,"  # a directory that cannot be listed is not swept

    def test_cache_entry_that_is_a_directory_exits_2(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        compiler = f"{sys.executable} {fake_cc}"
        assert run_cli("compile", manifest, "--out", out, "--cc", compiler).returncode == 0
        [(_, [first, *_])] = load_datasets(out / "manifest.json").datasets
        taken = first.path
        taken.unlink()
        taken.mkdir()
        result = run_cli("compile", manifest, "--out", out, "--cc", compiler)
        assert result.returncode == 2 and result.stdout == b""
        assert result.stderr.decode().splitlines() == [
            f'error: code=2 entity="{taken}" message="cannot write file: Is a directory"']
        assert not list((out / "cache").glob("*.partial"))

        taken.rmdir()
        reruns = [run_cli("compile", manifest, "--out", out, "--cc", compiler)
                  for _ in range(2)]
        assert [r.stdout.decode().splitlines()[0] for r in reruns] == [
            "compiled 1, cached 3, failed 0", "compiled 0, cached 4, failed 0"]

    def test_cli_missing_compiler_exit_code(self, tmp_path, corpus_manifest):
        out = tmp_path / "out"
        result = run_cli("compile", corpus_manifest, "--out", out, "--cc",
                         "/no/such/compiler")
        assert result.returncode == 4 and result.stdout == b""
        assert not (out / "manifest.json").exists()
        assert result.stderr.decode().splitlines() == [
            'error: code=4 entity="ada-checksum" '
            'message="cannot run compiler /no/such/compiler: No such file or directory"']

    def test_cli_compiler_whose_interpreter_is_missing_cannot_run(self, tmp_path):
        manifest = make_sources(tmp_path)
        compiler = tmp_path / "cc.sh"
        compiler.write_text("#!/no/such/interpreter\nexit 0\n")
        compiler.chmod(0o755)
        result = run_cli("compile", manifest, "--out", tmp_path / "out", "--cc", compiler)
        assert result.returncode == 4 and result.stdout == b""
        assert result.stderr.decode().splitlines() == [
            f'error: code=4 entity="a-x" '
            f'message="cannot run compiler {compiler}: No such file or directory"']

    def test_cli_single_dataset_manifest_is_derived_in_the_datasets_form(self, tmp_path,
                                                                        fake_cc):
        manifest = make_sources(tmp_path)
        manifest.write_text(json.dumps({"name": "grid", **json.loads(manifest.read_text())}))
        out = tmp_path / "out"
        result = run_cli("compile", manifest, "--out", out, "--cc",
                         f"{sys.executable} {fake_cc}")
        assert result.returncode == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert list(doc) == ["datasets", "metadata"]
        [dataset] = doc["datasets"]
        assert dataset["name"] == "grid"
        assert [p["id"] for p in dataset["programs"]] == ["a-x", "a-y", "b-x", "b-y"]

    def test_cli_compiler_without_execute_bit_exits_4(self, tmp_path):
        manifest = make_sources(tmp_path)
        compiler = tmp_path / "cc_noexec"
        compiler.write_text("#!/bin/sh\nexit 0\n")
        compiler.chmod(0o644)
        result = run_cli("compile", manifest, "--out", tmp_path / "out", "--cc", compiler)
        assert result.returncode == 4 and result.stdout == b""
        assert result.stderr.decode().splitlines() == [
            f'error: code=4 entity="a-x" '
            f'message="cannot run compiler {compiler}: Permission denied"']

    def test_cli_compiler_that_writes_no_output_is_a_recorded_failure(self, tmp_path):
        manifest = make_sources(tmp_path)
        result = run_cli("compile", manifest, "--out", tmp_path / "out", "--cc",
                         f"{sys.executable} -c pass")
        assert result.returncode == 4
        assert result.stdout.decode().splitlines()[0] == "compiled 0, cached 0, failed 4"
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 4 and lines[-1] == (
            'error: code=4 entity="a-x" '
            'message="compiler reported success but wrote no output"')

    @pytest.mark.parametrize("leaves", [
        'mkdir "$1"',
        'mkdir "$1" && touch "$1/x"',
        'mkdir -p "$1/a/b" && touch "$1/x" "$1/a/b/y"',
        'ln -s "$2" "$1"',  # a symlink to a directory outside <out>
    ], ids=["empty", "filled", "nested", "symlink"])
    def test_cli_compiler_that_writes_a_directory_is_a_recorded_failure(self, tmp_path,
                                                                       leaves):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "kept").write_text("kept")
        # sh ignores the words after its three arguments
        command = f"sh -c {shlex.quote(leaves)} {{input}} {{output}} {shlex.quote(str(outside))}"
        for _ in range(2):  # the staging name is the call's, so all it holds goes
            result = run_cli("compile", manifest, "--out", out, "--cc", command)
            assert result.returncode == 4, result.stderr.decode()
            assert result.stdout.decode().splitlines()[0] == "compiled 0, cached 0, failed 4"
            assert result.stderr.decode().splitlines()[-1] == (
                'error: code=4 entity="a-x" '
                'message="compiler reported success but wrote no output"')
            assert [path.name for path in (out / "cache").iterdir()] == []
        assert [path.name for path in outside.iterdir()] == ["kept"]
        assert (outside / "kept").read_text() == "kept"

    def test_cli_compiler_that_writes_a_symlink_is_a_recorded_failure(self, tmp_path,
                                                                     corpus_manifest):
        out = tmp_path / "out"
        outside = tmp_path / "outside.s"  # a file: only a regular file is an entry
        outside.write_text("\tmov r0, #1\n")
        links = shlex.quote('ln -s "$2" "$1"')
        command = f"sh -c {links} {{input}} {{output}} {shlex.quote(str(outside))}"
        result = run_cli("compile", corpus_manifest, "--out", out, "--cc", command)
        assert result.returncode == 4, result.stderr.decode()
        assert result.stdout.decode().splitlines()[0] == "compiled 0, cached 0, failed 9"
        assert [path.name for path in (out / "cache").iterdir()] == []
        assert outside.read_text() == "\tmov r0, #1\n"

    def test_manifest_path_that_is_a_directory_exits_2(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        result = run_cli("compile", manifest, "--out", out, "--cc",
                         f"{sys.executable} {fake_cc}")
        stderr = result.stderr.decode()
        assert result.returncode == 2
        assert f'error: code=2 entity="{out / "manifest.json"}"' in stderr
        assert "Traceback" not in stderr
        assert (out / "manifest.json").is_dir()

    def test_out_path_that_cannot_be_created_exits_2(self, tmp_path, corpus_manifest):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x"
        result = run_cli("compile", corpus_manifest, "--out", out)
        stderr = result.stderr.decode()
        assert result.returncode == 2
        assert f'error: code=2 entity="{out}"' in stderr
        assert "Traceback" not in stderr


class TestCompilerPrecedence:
    def test_cli_beats_file_beats_env(self, tmp_path, fake_cc):
        manifest = make_sources(tmp_path)
        good = f"{sys.executable} {fake_cc}"
        config = tmp_path / "config.json"

        # env var alone selects the compiler
        result = run_cli("compile", manifest, "--out", tmp_path / "o1",
                         env_extra={"ASMSIM_CC": good})
        assert result.returncode == 0

        # a config file beats the env var
        config.write_text(json.dumps({"compiler_command": "/broken/cc",
                                      "compiler_flags": []}))
        result = run_cli("compile", manifest, "--out", tmp_path / "o2",
                         "--config", config, env_extra={"ASMSIM_CC": good})
        assert result.returncode == 4

        # --cc beats the config file
        result = run_cli("compile", manifest, "--out", tmp_path / "o3",
                         "--config", config, "--cc", good)
        assert result.returncode == 0


@pytest.mark.skipif(shutil.which("arm-none-eabi-gcc") is None,
                    reason="external cross-compiler not installed")
def test_real_cross_compiler(tmp_path):
    source = tmp_path / "main.c"
    source.write_text("int main(void) { return 7; }\n")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"programs": [
        {"id": "m", "path": "main.c", "programmer": "p", "application": "a"}]}))
    result = compile_corpus(load_datasets(manifest), ToolConfig(), tmp_path / "out")
    assert not result.failures
    derived = load_datasets(result.manifest_path)
    assert derived.datasets[0][1][0].path.read_text().strip()


@pytest.mark.skipif(shutil.which("llc") is None, reason="llc not installed")
def test_llc_as_the_cross_compiler(tmp_path):
    """LLVM IR compiled by the host's llc to Thumb, a real ARM cross-compiler,
    is cached, and its output passes a strict study."""
    names = {("p", "x"): "calls", ("p", "y"): "loops", ("q", "x"): "pop_pc",
             ("q", "y"): "select"}
    programs = [{"id": f"{p}-{a}", "path": str(FIXTURES / "llvm" / f"{name}.ll"),
                 "programmer": p, "application": a} for (p, a), name in names.items()]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"programs": programs}))
    config = tmp_path / "llc.json"
    config.write_text(json.dumps({
        "compiler_command": "llc -mtriple=thumbv7m-none-eabi -O0 {input} -o {output}",
        "compiler_flags": []}))
    out = tmp_path / "out"
    result = run_cli("compile", manifest, "--config", config, "--out", out)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().startswith("compiled 4, cached 0, failed 0\n")
    study = run_cli("study", out / "manifest.json", "--strict", "--strides", "1")
    assert study.returncode == 0, study.stderr.decode()
    assert study.stderr == b""
