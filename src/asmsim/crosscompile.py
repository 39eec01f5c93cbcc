"""Cross-compile corpus sources to assembly, with content-hash caching.

Each source is compiled into ``<out>/cache/<hash>.s`` where the hash
covers the source bytes, the compiler command, its flags, and the first
line of the compiler's ``--version`` output; reruns with unchanged inputs
never invoke the compiler. ``jobs`` compiler processes run at once, each
distinct hash is compiled once per run, and a compile replaces its cache
file only on success; partial files of compiles whose process is gone
are removed. A derived manifest pointing at the assembly files is
written (atomically, by :func:`corpus.write_file`) next to the cache so
the study step can consume it directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
from collections import deque
from itertools import islice, takewhile
from pathlib import Path
from threading import Thread
from typing import NamedTuple, Sequence

from .config import ToolConfig
from .corpus import ManifestData, ProgramEntry, write_file
from .errors import InputError, ToolError


class CompileOutcome(NamedTuple):
    entry: ProgramEntry
    output: Path | None
    cached: bool = False
    error: str | None = None


class CompileResult(NamedTuple):
    outcomes: list[CompileOutcome]
    manifest_path: Path

    @property
    def failures(self) -> list[CompileOutcome]:
        return [o for o in self.outcomes if o.error is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)


def build_command(template: str, flags: Sequence[str],
                  input_path: Path, output_path: Path) -> list[str]:
    """Expand a command template into argv.

    ``{input}`` and ``{output}`` placeholders are substituted wherever
    they appear; a plain command without placeholders gets ``-o <output>
    <input>`` appended.
    """
    argv = shlex.split(template) + list(flags)
    has_input = any("{input}" in arg for arg in argv)
    has_output = any("{output}" in arg for arg in argv)
    argv = [arg.replace("{input}", str(input_path)).replace("{output}", str(output_path))
            for arg in argv]
    if not has_output:
        argv += ["-o", str(output_path)]
    if not has_input:
        argv.append(str(input_path))
    return argv


def content_hash(source: bytes, template: str, flags: Sequence[str],
                 version: str | None) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(b"\x00")
    digest.update(json.dumps([template, list(flags), version]).encode("utf-8"))
    return digest.hexdigest()[:16]


def _names_program(word: str) -> bool:
    return not (word.startswith("-") or "{input}" in word or "{output}" in word)


def compiler_version(template: str) -> str | None:
    """First line of ``<compiler> --version``, if the tool cooperates.

    ``<compiler>`` is the template's leading words, up to the first option or
    placeholder, so a wrapped compiler (``ccache gcc``, ``python3 cc.py``,
    ``env CC=clang cc``) reports its own version, not the wrapper's.
    """
    argv = list(takewhile(_names_program, shlex.split(template)))
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


def compile_entry(entry: ProgramEntry, config: ToolConfig,
                  target: Path) -> CompileOutcome:
    """Compile one entry into the cache file ``target``.

    The compiler writes a name private to this process, which replaces
    ``target`` only on success, so a killed or failed compile never leaves
    a partial ``target`` for a later run to take as a cache hit.
    """
    partial = target.with_name(f"{target.stem}.{os.getpid()}.partial.s")
    argv = build_command(config.compiler_command, config.compiler_flags,
                         entry.path, partial)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, errors="replace")
    except FileNotFoundError as exc:
        raise ToolError(f"compiler not found: {argv[0]}", entity=entry.id) from exc
    except OSError as exc:
        raise ToolError(f"cannot run compiler: {exc}", entity=entry.id) from exc
    if proc.returncode != 0:
        partial.unlink(missing_ok=True)
        detail = proc.stderr.strip().splitlines()
        message = detail[-1] if detail else f"compiler exited with {proc.returncode}"
        return CompileOutcome(entry, None, error=message)
    if not partial.is_file():
        return CompileOutcome(entry, None,
                              error="compiler reported success but wrote no output")
    os.replace(partial, target)
    return CompileOutcome(entry, target, cached=False)


_PARTIAL = re.compile(r"[0-9a-f]{16}\.(\d{1,9})\.partial\.s")


def remove_stale_partials(cache_dir: Path) -> None:
    """Delete the ``<hash>.<pid>.partial.s`` files of compiles whose process is
    gone, as a killed run leaves them; a live run's files stay."""
    for path in cache_dir.iterdir():
        match = _PARTIAL.fullmatch(path.name)
        if match is None:
            continue
        try:
            os.kill(int(match[1]), 0)
        except ProcessLookupError:
            path.unlink(missing_ok=True)
        except PermissionError:
            pass  # alive, under another user


def compile_corpus(manifest: ManifestData, config: ToolConfig,
                   out_dir: Path) -> CompileResult:
    """Compile every dataset entry and write the derived manifest.

    Individual compile failures are recorded and skipped so one bad file
    cannot sink a corpus run; the caller decides how to report them.
    Outcomes are those of a serial run: the first entry with an uncached
    hash compiles it; later ones report a cache hit or the same error.
    """
    cache_dir = out_dir / "cache"
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create directory: {exc}", entity=str(out_dir)) from exc
    remove_stale_partials(cache_dir)

    entries = [entry for _, dataset in manifest.datasets for entry in dataset]
    version = compiler_version(config.compiler_command)
    keys, first = [], {}  # first: the first entry of each hash not in the cache
    for entry in entries:
        try:
            source = entry.path.read_bytes()
        except OSError as exc:
            raise InputError(f"cannot read source: {exc}", entity=entry.id) from exc
        keys.append(key := content_hash(source, config.compiler_command,
                                        config.compiler_flags, version))
        if key not in first and not (cache_dir / f"{key}.s").is_file():
            first[key] = entry
    pending = deque(first.items())
    done: dict[str, CompileOutcome | Exception] = {}

    def work() -> None:
        while True:
            try:
                key, entry = pending.popleft()  # deque pops are thread-safe
            except IndexError:
                return
            try:
                done[key] = compile_entry(entry, config, cache_dir / f"{key}.s")
            except Exception as exc:  # raised below, in entry order
                done[key] = exc

    workers = [Thread(target=work) for _ in range(min(config.jobs, len(pending)))]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    outcomes: list[CompileOutcome] = []
    for entry, key in zip(entries, keys):
        outcome = done.get(key)
        if outcome is None:
            outcome = CompileOutcome(entry, cache_dir / f"{key}.s", cached=True)
        elif isinstance(outcome, Exception):
            raise outcome
        elif outcome.entry is not entry:  # a later entry with the same hash
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
    doc = ({**derived_datasets[0]} if len(derived_datasets) == 1
           else {"datasets": derived_datasets})
    doc["metadata"] = metadata

    manifest_path = out_dir / "manifest.json"
    write_file(manifest_path, (json.dumps(doc, indent=2), "\n"))
    return CompileResult(outcomes, manifest_path)
