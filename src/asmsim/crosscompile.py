"""Cross-compile corpus sources to assembly, with content-hash caching.

Each source is compiled into ``<out>/cache/<hash>.s`` where the hash covers the
source bytes, the compiler command, its flags, and the first line of the compiler's
``--version`` output; reruns with unchanged inputs never invoke the compiler. ``jobs``
compiler processes run at once, each distinct hash is compiled once per run, and a
compile replaces its cache file only on success, by :func:`corpus.replace_file`,
whose failed rename is exit 2 and leaves no partial file. The partial files of
compiles whose process is gone are removed; a directory so named stays. A derived
manifest pointing at the assembly files is written (atomically, by
:func:`corpus.write_file`) next to the cache so the study step can consume it directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
from collections import namedtuple
from collections.abc import Sequence
from itertools import islice, takewhile
from pathlib import Path
from threading import Thread

from .config import ToolConfig
from .corpus import ManifestData, ProgramEntry, make_dir, read_input, replace_file, write_file
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


def content_hash(source: bytes, template: str, flags: Sequence[str],
                 version: str | None) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(b"\x00")
    digest.update(json.dumps([template, list(flags), version]).encode("utf-8"))
    return digest.hexdigest()[:16]


def compiler_version(words: Sequence[str]) -> str | None:
    """First line of ``<compiler> --version``, if the tool cooperates.

    ``<compiler>`` is the command's leading words, up to the first option or
    placeholder, so a wrapped compiler (``ccache gcc``, ``python3 cc.py``,
    ``env CC=clang cc``) reports its own version, not the wrapper's.
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

    The compiler writes a name private to this process, which replaces
    ``target`` only on success, so a killed or failed compile never leaves
    a partial ``target`` for a later run to take as a cache hit.
    """
    partial = target.with_name(f"{target.stem}.{os.getpid()}.partial.s")
    argv = build_command(words, entry.path, partial)
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, errors="replace")
    except FileNotFoundError as exc:
        raise ToolError(f"compiler not found: {argv[0]}", entity=entry.id) from exc
    except OSError as exc:
        raise ToolError(f"cannot run compiler {argv[0]}: {reason(exc)}",
                        entity=entry.id) from exc
    if proc.returncode != 0:
        partial.unlink(missing_ok=True)
        detail = proc.stderr.strip().splitlines()
        message = detail[-1] if detail else f"compiler exited with {proc.returncode}"
        return CompileOutcome(entry, None, error=message)
    if not partial.is_file():
        return CompileOutcome(entry, None,
                              error="compiler reported success but wrote no output")
    replace_file(partial, target, str(target))
    return CompileOutcome(entry, target, cached=False)


_PARTIAL = re.compile(r"[0-9a-f]{16}\.(\d{1,9})\.partial\.s")


def remove_stale_partials(cache_dir: Path) -> None:
    """Delete the ``<hash>.<pid>.partial.s`` regular files of compiles whose process
    is gone, as a killed run leaves them; a live run's files, and a directory, stay."""
    for path in cache_dir.iterdir():
        match = _PARTIAL.fullmatch(path.name)
        if match is None or not path.is_file():
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
    make_dir(cache_dir := out_dir / "cache", str(out_dir))
    remove_stale_partials(cache_dir)

    entries = [entry for _, dataset in manifest.datasets for entry in dataset]
    words = shlex.split(config.compiler_command)  # the one reading of the command
    version = compiler_version(words)
    words += config.compiler_flags
    keys, first = [], {}  # first: the first entry of each hash not in the cache
    for entry in entries:
        source = read_input(entry.path, "source", entry.id)
        keys.append(key := content_hash(source, config.compiler_command,
                                        config.compiler_flags, version))
        if key not in first and not (cache_dir / f"{key}.s").is_file():
            first[key] = entry
    jobs = iter(first.items())  # each next() hands one hash to one worker
    done: dict[str, CompileOutcome | Exception] = {}

    def work() -> None:
        for key, entry in jobs:
            try:
                done[key] = compile_entry(entry, words, cache_dir / f"{key}.s")
            except Exception as exc:  # raised below, in entry order
                done[key] = exc

    workers = [Thread(target=work) for _ in range(min(config.jobs, len(first)))]
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
    # json.dumps escapes every character that is not ASCII
    write_file(manifest_path, [f"{json.dumps(doc, indent=2)}\n".encode()])
    return CompileResult(outcomes, manifest_path)
