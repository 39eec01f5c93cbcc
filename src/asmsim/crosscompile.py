"""Cross-compile corpus sources to assembly, with content-hash caching.

Each source is compiled into ``<out>/cache/<hash>.s`` where the hash covers the source
bytes, the command's words with the flags appended (placeholders unfilled) and the first
line of the compiler's ``--version`` output, so a command respelled with the same words
shares the cache and reruns with unchanged inputs never invoke the compiler. ``jobs``
compiler processes run at once and each distinct hash is compiled once per run.
:func:`corpus.make_dir` makes and sweeps ``<out>/cache`` and ``<out>``, and a derived
manifest of the assembly files is written by :func:`corpus.write_file` beside the cache,
for the study step to read. An entry is a regular file, found by ``make_dir``'s listing
(one per run); after a run with no failed compile, the cache keeps only the manifest's entries.
"""

from __future__ import annotations

import hashlib
import json
import re
import shlex
import shutil
import subprocess
from collections import namedtuple
from collections.abc import Sequence
from contextlib import suppress
from itertools import islice, takewhile
from pathlib import Path
from threading import Semaphore, Thread

from .config import ToolConfig
from .corpus import (ManifestData, ProgramEntry, make_dir, partial_path, read_input,
                     replace_file, write_file)
from .errors import ToolError, reason


CompileOutcome = namedtuple("CompileOutcome", "entry output cached error",
                            defaults=(False, None))
CompileOutcome.__doc__ = """A :class:`ProgramEntry`'s compile: its assembly's
``Path``, or None and an ``error`` message."""


class CompileResult(namedtuple("CompileResult", "outcomes manifest_path")):
    """A list of :class:`CompileOutcome` and the derived manifest's ``Path``."""

    __slots__ = ()

    @property
    def failures(self) -> list[CompileOutcome]:
        return [o for o in self.outcomes if o.error is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)


_PLACEHOLDER = re.compile(r"\{(input|output)\}")  # in a compiler command's words


def build_command(words: Sequence[str], input_path: Path, output_path: Path) -> list[str]:
    """Fill ``{input}`` and ``{output}`` in a compiler command's ``words``, in
    one pass and by a function, so neither placeholder text nor a backslash in
    a path is read again; ``-o <output>`` and ``<input>`` are appended for each
    placeholder that no word holds."""
    paths = {"input": str(input_path), "output": str(output_path)}
    held = {name for word in words for name in _PLACEHOLDER.findall(word)}
    argv = [_PLACEHOLDER.sub(lambda match: paths[match[1]], word) for word in words]
    if "output" not in held:
        argv += ["-o", paths["output"]]
    if "input" not in held:
        argv.append(paths["input"])
    return argv


def content_hash(source: bytes, words: Sequence[str], version: str | None) -> str:
    """Key of ``source`` compiled by the argv template ``words`` under ``version``."""
    command = json.dumps([list(words), version]).encode("utf-8")
    return hashlib.sha256(source + b"\x00" + command).hexdigest()[:16]


def compiler_version(words: Sequence[str]) -> str | None:
    """First line of ``<compiler> --version``, if the tool cooperates.

    ``<compiler>`` is the leading ``words`` (the command's, then the flags), up to
    the first option or placeholder, so a wrapped compiler (``ccache gcc``,
    ``python3 cc.py``, ``env CC=clang cc``) reports its own version, not the wrapper's.
    """
    argv = list(takewhile(lambda w: not (w.startswith("-") or _PLACEHOLDER.search(w)), words))
    if not argv:
        return None
    try:
        proc = subprocess.run([*argv, "--version"], capture_output=True,
                              text=True, errors="replace", timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0 or not proc.stdout:
        return None
    return proc.stdout.splitlines()[0].strip()


def compile_entry(entry: ProgramEntry, words: Sequence[str],
                  target: Path) -> CompileOutcome:
    """Compile one entry into the cache file ``target`` by the command ``words``.

    The compiler writes ``target``'s :func:`corpus.partial_path`, whose regular file is
    renamed over ``target`` on success, so a killed or failed compile leaves no partial
    ``target`` to take as a cache hit; what else it leaves at that name is removed.
    """
    partial = partial_path(target)
    argv = build_command(words, entry.path, partial)
    try:
        try:
            proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, errors="replace")
        except OSError as exc:
            raise ToolError(f"cannot run compiler {argv[0]}: {reason(exc)}",
                            entity=entry.id) from exc
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()
            message = detail[-1] if detail else f"compiler exited with {proc.returncode}"
            return CompileOutcome(entry, None, error=message)
        if partial.is_symlink() or not partial.is_file():
            return CompileOutcome(entry, None,
                                  error="compiler reported success but wrote no output")
        replace_file(partial, target, str(target))
        return CompileOutcome(entry, target, cached=False)
    finally:  # the name is this call's, so whatever the compiler left there goes
        with suppress(OSError):  # a file or a symlink, whose target is not followed
            partial.unlink(missing_ok=True)  # gone after a rename
        shutil.rmtree(partial, ignore_errors=True)  # a directory, best effort as the sweep


def compile_corpus(manifest: ManifestData, config: ToolConfig,
                   out_dir: Path) -> CompileResult:
    """Compile every dataset entry and write the derived manifest.

    Individual compile failures are recorded and skipped, for the caller to
    report; a compiler that cannot start raises once the running compiles end.
    Outcomes are those of a serial run: the first entry with an uncached
    hash compiles it; later ones report a cache hit or the same error.
    """
    listed = make_dir(cache_dir := out_dir / "cache", str(out_dir))  # unlisted: no hit, no prune
    make_dir(out_dir)  # made above with the cache directory: this call only sweeps it

    entries = [entry for _, dataset in manifest.datasets for entry in dataset]
    # the one reading of the command: its words, then the flags, placeholders unfilled
    words = [*shlex.split(config.compiler_command), *config.compiler_flags]
    version = compiler_version(words)
    targets = [cache_dir / f"{content_hash(read_input(e.path, 'source', e.id), words, version)}.s"
               for e in entries]
    first = {}  # the first entry of each cache file not yet written
    for entry, target in zip(entries, targets):
        if target not in first and not listed.get(target.name):
            first[target] = entry
    jobs = iter(first.items())  # each next() hands one cache file to one worker
    done: dict[Path, CompileOutcome | Exception] = {}
    ended = Semaphore(0)  # released by each worker as it ends

    def work() -> None:
        for target, entry in jobs:
            try:
                done[target] = compile_entry(entry, words, target)
            except Exception as exc:  # raised below, in entry order; no more compiles start
                done[target] = exc
                for _ in jobs:
                    pass
        ended.release()

    workers = [Thread(target=work) for _ in range(min(config.jobs, len(first)))]
    for worker in workers:
        worker.start()
    # not Thread.join: one that is interrupted marks its thread ended, so the exit kills it
    try:
        for _ in workers:
            ended.acquire()
    except BaseException:  # an interrupt: each worker ends with the compile it holds
        for _ in jobs:
            pass
        raise

    outcomes: list[CompileOutcome] = []
    for entry, target in zip(entries, targets):
        outcome = done.get(target, CompileOutcome(entry, target, cached=True))
        if isinstance(outcome, Exception):
            raise outcome
        if outcome.entry is not entry:  # a later entry with the same cache file
            outcome = outcome._replace(entry=entry, cached=outcome.error is None)
        outcomes.append(outcome)

    results = iter(outcomes)
    derived_datasets = []
    for name, dataset in manifest.datasets:
        # a manifest entry holds the fields of a ProgramEntry, in order
        programs = [{**o.entry._asdict(), "path": str(o.output.relative_to(out_dir))}
                    for o in islice(results, len(dataset)) if o.output is not None]
        derived_datasets.append({"name": name, "programs": programs})

    metadata = {**manifest.metadata, "compiler_command": config.compiler_command,
                "compiler_flags": list(config.compiler_flags)}
    if version is not None:
        metadata["compiler_version"] = version
    doc = {"datasets": derived_datasets, "metadata": metadata}

    manifest_path = out_dir / "manifest.json"
    # json.dumps escapes every character that is not ASCII
    write_file(manifest_path, [f"{json.dumps(doc, indent=2)}\n".encode()])
    if all(o.error is None for o in outcomes):  # a failed compile prunes nothing
        for name in listed.keys() - {target.name for target in targets}:  # a stale symlink too
            if re.fullmatch(r"[0-9a-f]{16}\.s", name):
                with suppress(OSError):  # best effort, as make_dir's sweep
                    (cache_dir / name).unlink()
    return CompileResult(outcomes, manifest_path)
