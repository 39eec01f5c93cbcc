"""Command-line front end.

Subcommands: ``extract`` (feature dumps), ``compare`` (pairwise metrics),
``compile`` (cross-compile a corpus to assembly), ``study`` (run the full
grouping study and render a report).

Exit codes: 0 ok, 2 usage or I/O (any failed read or write, stdout
included), 3 degenerate input, 4 external tool failure, 5 invalid corpus.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from .asm_parser import parse_assembly
from .config import ToolConfig, config_from_dict, load_tool_config
from .corpus import (ManifestData, ProgramEntry, build_grid, build_suite, check_strides,
                     load_datasets, make_dir, program_files, read_input, run_study,
                     write_file)
from .errors import (AsmSimError, EmptyProgramError, InputError, ManifestError, ToolError,
                     one_line, reason)
from .features import (NGram, PatternSet, ProgramFeatures, features_for_program,
                       features_to_dict)
from .metrics import METRIC_ORDER, MetricKind, pair_value
from .report import OUTPUT_FORMATS, format_value, render_parts


def _parse_strides(value: str) -> list[int]:
    try:
        return [int(part) for part in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}") from None


# ToolConfig key -> the flag that sets it, whose dest is that key, and its options
_SETTINGS = {
    "jobs": ("--jobs", dict(
        type=int, metavar="N",
        help="compiler processes run at once (compile; study accepts and ignores it)")),
    "parser": ("--strict", dict(action="store_const", const={"strict": True},
                                help="abort on unclassifiable assembly lines")),
    "ngram_mode": ("--linear-ngrams", dict(
        action="store_const", const="linear",
        help="let instruction patterns cross basic-block boundaries")),
    "strides": ("--strides", dict(type=_parse_strides, metavar="S1,S2,...",
                                  help="explicit totally-different strides")),
    "compiler_command": ("--cc", dict(
        metavar="CMD", help="compiler command template ({input}/{output} placeholders)")),
    "output_format": ("--format", dict(choices=OUTPUT_FORMATS,
                                       help="report format (default: markdown)")),
}


class _Parser(argparse.ArgumentParser):
    """Each parser and subparser: a usage error is an InputError; help goes to _write_parts."""

    def error(self, message):
        raise InputError(message)

    def print_help(self, file=None):
        _write_parts([self.format_help()])


def _command(sub, name: str, func, help: str, *settings: str) -> argparse.ArgumentParser:
    """A subcommand taking ``--config`` and the flags of ``settings``, the
    ToolConfig keys that it reads."""
    command = sub.add_parser(name, help=help)
    command.add_argument("--config", type=Path, metavar="PATH", help="JSON config file")
    for key in settings:
        flag, options = _SETTINGS[key]
        command.add_argument(flag, dest=key, **options)
    command.set_defaults(func=func)
    return command


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="asmsim",
        description="Assembly-level program similarity metrics and corpus studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = _command(sub, "extract", cmd_extract, "dump per-file feature sets as JSON",
                         "parser", "ngram_mode")
    p_extract.add_argument("paths", nargs="+", type=Path,
                           help="assembly files or directories")
    p_extract.add_argument("--glob", default="*.s", metavar="PATTERN",
                           help="pattern for directory inputs (default: *.s)")
    p_extract.add_argument("--out", type=Path, metavar="DIR",
                           help="write one JSON file per input instead of stdout")

    p_compare = _command(sub, "compare", cmd_compare, "compare two assembly files",
                         "parser", "ngram_mode")
    p_compare.add_argument("file_a", type=Path)
    p_compare.add_argument("file_b", type=Path)
    p_compare.add_argument("--metric", choices=[*(kind.value for kind in METRIC_ORDER), "all"],
                           default="all")
    p_compare.add_argument("--format", choices=["text", "json"], default="text",
                           help="output format (default: text)")

    p_compile = _command(sub, "compile", cmd_compile,
                         "cross-compile corpus sources to assembly",
                         "jobs", "compiler_command")
    p_compile.add_argument("manifest", type=Path)
    p_compile.add_argument("--out", type=Path, default=Path("asmsim-out"),
                           metavar="DIR", help="output directory (default: asmsim-out)")

    # study reads no jobs; it takes --jobs only because bench/run.py passes it
    p_study = _command(sub, "study", cmd_study,
                       "run the grouping study over a corpus manifest",
                       "parser", "ngram_mode", "strides", "output_format", "jobs")
    p_study.add_argument("manifest", type=Path)
    p_study.add_argument("--out", type=Path, metavar="FILE",
                         help="write the report to a file instead of stdout")

    return parser


def resolve_config(args: argparse.Namespace) -> ToolConfig:
    """Defaults < environment < config file < explicit CLI flags, which
    are the set args whose dest is a ToolConfig key."""
    flags = {key: value for key, value in vars(args).items()
             if key in _SETTINGS and value is not None}
    return config_from_dict(flags, load_tool_config(args.config), entity=None)


def _stderr(text: str) -> None:
    """Write ``text`` and a newline to stderr in one write, or drop it when there is
    no usable stderr. Without fd 2, ``sys.stderr`` is None (where ``print`` would
    write to stdout); once a write fails, it becomes None, so that the flush at exit
    does not fail on the text left in its buffer and turn the exit status into 120."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text + "\n")
        except OSError:
            sys.stderr = None


def _write_parts(parts: Iterable[str], path: Path | None = None) -> None:
    """Write ``parts`` as they come to the file ``path`` (see
    :func:`corpus.write_file`), or to stdout if it is None, whatever its
    encoding: UTF-8, where a surrogate that stands for an undecodable byte of a
    path is that byte. A failed write to stdout, or a missing one, is an InputError."""
    chunks = (part.encode("utf-8", "surrogateescape") for part in parts)
    if path is not None:
        write_file(path, chunks)
        return
    if sys.stdout is None:  # the process started without fd 1
        raise InputError("stdout is closed", entity="<stdout>")
    try:
        # a buffered writer retries a short write, as when the reader closes
        # the pipe midway; the raw fd under `python -u`'s text layer drops it
        with open(sys.stdout.fileno(), "wb", closefd=False) as sink:
            sink.writelines(chunks)
    except BrokenPipeError as exc:
        raise InputError("the reader closed the pipe", entity="<stdout>") from exc
    except OSError as exc:
        raise InputError(f"cannot write: {reason(exc)}", entity="<stdout>") from exc


def file_features(path: Path, config: ToolConfig, entity: str | None = None) -> ProgramFeatures:
    """Read, parse and featurize one assembly file.

    Writes a ``warning: <path>:<line>: ...`` line to stderr for every line lenient
    mode skipped, all in one write, the path passed through :func:`one_line`;
    ``entity`` names the file in a read error.
    """
    text = read_input(path, "file", entity or str(path)).decode("utf-8", "replace")
    program = parse_assembly(text, config.parser, source_name=str(path))
    if program.diagnostics:
        shown = one_line(str(path))
        _stderr("\n".join(f"warning: {shown}:{line_no}: {message}"
                           for line_no, message in program.diagnostics))
    return features_for_program(program, config.parser, linear=config.ngram_mode == "linear")


def cmd_extract(args: argparse.Namespace, config: ToolConfig) -> int:
    # every path is checked before any file is read
    files = [file for path in args.paths for file in program_files(path, args.glob)]

    if args.out is None:  # one JSON line per file
        _write_parts(f"{json.dumps(features_to_dict(file_features(path, config)))}\n"
                     for path in files)
        return 0
    make_dir(args.out)
    used: set[str] = set()
    for path in files:
        dump = features_to_dict(file_features(path, config))
        name = f"{path.stem}.json"
        serial = 1
        while name in used:
            serial += 1
            name = f"{path.stem}-{serial}.json"
        used.add(name)
        _write_parts((json.dumps(dump, indent=2), "\n"), args.out / name)
    return 0


def cmd_compare(args: argparse.Namespace, config: ToolConfig) -> int:
    # both paths are checked before either file is read
    files = [*program_files(args.file_a), *program_files(args.file_b)]
    features = [file_features(file, config) for file in files]

    kinds = METRIC_ORDER if args.metric == "all" else [MetricKind(args.metric)]
    try:
        results = {kind: pair_value(kind, *features) for kind in kinds}
    except EmptyProgramError as exc:
        empty = args.file_b if features[0].frequency else args.file_a
        raise EmptyProgramError(exc.message, entity=str(empty)) from exc

    if args.format == "json":
        _write_parts([json.dumps({kind.value: value for kind, value in results.items()}), "\n"])
    else:
        _write_parts(f"{kind.value} {format_value(kind, value)}\n"
                     for kind, value in results.items())
    return 0


def cmd_compile(args: argparse.Namespace, config: ToolConfig) -> int:
    from .crosscompile import compile_corpus  # subprocess, hashlib, threads: compile only
    manifest = load_datasets(args.manifest)
    result = compile_corpus(manifest, config, args.out)

    compiled = sum(1 for o in result.outcomes if o.output is not None and not o.cached)
    _write_parts([f"compiled {compiled}, cached {result.cache_hits}, "
                  f"failed {len(result.failures)}\n",
                  f"manifest: {one_line(str(result.manifest_path))}\n"])
    if result.failures:
        first, *rest = (ToolError(outcome.error, entity=outcome.entry.id).diagnostic()
                        for outcome in result.failures)
        # one error line, the first failure's, last; each other one is a warning
        _stderr("\n".join([*(line.replace("error:", "warning:", 1) for line in rest), first]))
        return 4
    return 0


def corpus_features(entries: Sequence[ProgramEntry],
                    config: ToolConfig) -> dict[str, ProgramFeatures]:
    """Features of every corpus entry, keyed by entry id, in entry order;
    the entries share one tuple per distinct 2-gram, as 2-grams recur
    across a corpus."""
    pool: dict[NGram, NGram] = {}
    features = {}
    for entry in entries:
        found = file_features(entry.path, config, entry.id)
        patterns = found.patterns2.patterns
        features[entry.id] = found._replace(
            patterns2=PatternSet(tuple(map(pool.setdefault, patterns, patterns))))
    return features


def run_manifest_study(manifest: ManifestData, config: ToolConfig) -> Iterator[str]:
    """Run the study of every dataset; the report's parts are rendered as
    they are consumed. An invalid grid or stride is an error naming its dataset."""
    grids = []
    for name, entries in manifest.datasets:  # each check fails before a program is read
        try:
            grids.append(build_grid(entries))
            check_strides(grids[-1], config.strides)
        except ManifestError as exc:
            exc.entity = name
            raise
    reports = [run_study(grid, corpus_features(entries, config),
                         strides=config.strides, dataset_name=name)
               for grid, (name, entries) in zip(grids, manifest.datasets)]
    suite = build_suite(reports)
    metadata = dict(manifest.metadata)
    metadata["ngram_mode"] = config.ngram_mode
    return render_parts(suite, config.output_format, metadata)


def cmd_study(args: argparse.Namespace, config: ToolConfig) -> int:
    # A study allocates about a million small containers and no reference
    # cycles, so the cyclic collector would only rescan them.
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        _write_parts(run_manifest_study(load_datasets(args.manifest), config), args.out)
    finally:
        if gc_enabled:
            gc.enable()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse's exit once --help is written
            return exc.code
        # only extract and study with --out write no stdout; the rest fail now without it
        if args.command == "compile" or getattr(args, "out", None) is None:
            _write_parts(())
        return args.func(args, resolve_config(args))
    except AsmSimError as exc:
        _stderr(exc.diagnostic())
        return exc.exit_code
