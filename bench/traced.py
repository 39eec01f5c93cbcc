"""Traced driver: one ``asmsim study`` or ``asmsim compile`` command, timed
layer by layer from outside the package.

It takes the same arguments as the CLI, then runs the pipeline of
``cli.cmd_study`` / ``cli.run_manifest_study`` and ``cli.cmd_compile`` by
calling each module's public functions itself, with a span around every
call. The report it writes must be byte-identical to the CLI's for the
same arguments; the benchmark checks that, which shows the spans time the
real path. When those functions change, this file follows them.

    python3 bench/traced.py SPANS.json study MANIFEST [CLI flags...]
    python3 bench/traced.py SPANS.json compile MANIFEST --out DIR [CLI flags...]

Spans are kept in memory and written to SPANS.json when the command ends,
together with the counts gathered at the same boundaries.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from asmsim import cli
from asmsim.asm_parser import linear_blocks, parse_assembly, segment_basic_blocks
from asmsim.corpus import (APPLICATION_SPECIFIC, PROGRAMMER_SPECIFIC, TD_LABEL,
                           GroupingKind, GroupingResult, MetricStudy, StudyReport,
                           SubsetSummary, build_grid, build_suite, build_universes,
                           default_strides, enumerate_subsets, group_mean,
                           load_datasets, normalize, pairwise_values, subset_mean,
                           td_aggregate, totally_different)
from asmsim.crosscompile import compile_corpus
from asmsim.errors import AsmSimError, NormalizationError
from asmsim.features import compute_features
from asmsim.metrics import METRIC_ORDER
from asmsim.report import render


class Tracer:
    """In-memory spans (id, name, parent, start, end, thread) and counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append({"id": span_id, "name": name, "parent": parent,
                               "start": start, "end": time.perf_counter(),
                               "thread": threading.get_ident()})

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}),
                        encoding="utf-8")


def _entry_features(entry, config, tracer: Tracer, parent: int):
    """Read, parse, segment and featurize one program (``cli._entry_features``)."""
    with tracer.span("entry", parent) as entry_span:
        with tracer.span("read", entry_span):
            text = entry.path.read_text(encoding="utf-8", errors="replace")
        with tracer.span("parse", entry_span):
            program = parse_assembly(text, config.parser, source_name=str(entry.path))
        with tracer.span("segment", entry_span):
            if config.ngram_mode == "linear":
                blocks = linear_blocks(program)
            else:
                blocks = segment_basic_blocks(program, config.parser)
        with tracer.span("featurize", entry_span):
            features = compute_features(program, blocks)
    counts = Counter({
        "read.bytes": len(text.encode("utf-8")),
        "parse.lines": len(text.splitlines()),
        "parse.instructions": len(program.instructions),
        "parse.skipped_lines": len(program.diagnostics),
        "segment.blocks": len(blocks),
        "featurize.ngrams2": len(features.patterns2.patterns),
        "featurize.ngrams3": len(features.patterns3.patterns),
    })
    return features, counts


def _corpus_features(entries, config, tracer: Tracer, parent: int):
    """``cli.corpus_features``, on the same worker threads when jobs > 1."""
    def work(entry):
        return _entry_features(entry, config, tracer, parent)

    if config.jobs == 1:
        computed = [work(entry) for entry in entries]
    else:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            computed = list(pool.map(work, entries))
    for _, counts in computed:
        tracer.counts.update(counts)
    return {entry.id: feats for entry, (feats, _) in zip(entries, computed)}


def _normalized_cells(groupings, td, kind):
    cells = {}
    for label in (PROGRAMMER_SPECIFIC.label, APPLICATION_SPECIFIC.label):
        try:
            cells[label] = normalize(groupings[label].mean, td, kind)
        except NormalizationError:
            cells[label] = None
    cells[TD_LABEL] = 1.0 if td > 0 else None
    return cells


def _study(name, grid, features, universes, config, tracer: Tracer, parent: int):
    """``corpus.run_study`` with scoring timed per metric and aggregation
    timed on its own. Input checks are left out: the benchmark's corpora
    are valid grids."""
    strides = list(config.strides) if config.strides is not None \
        else default_strides(len(grid.programmers))
    schemes = [PROGRAMMER_SPECIFIC, APPLICATION_SPECIFIC]
    schemes += [totally_different(s) for s in strides]
    metrics = {}
    for kind in METRIC_ORDER:
        groupings = {}
        td_means = []
        for scheme in schemes:
            summaries = []
            for subset in enumerate_subsets(grid, scheme):
                with tracer.span(f"score.{kind.value}", parent):
                    pairs = pairwise_values(subset, kind, features, universes)
                tracer.counts["score.pairs"] += len(pairs)
                with tracer.span("aggregate", parent):
                    summaries.append(SubsetSummary(subset.label, pairs,
                                                   subset_mean(p.value for p in pairs)))
            with tracer.span("aggregate", parent):
                mean = group_mean(s.mean for s in summaries)
            groupings[scheme.label] = GroupingResult(scheme, summaries, mean)
            if scheme.kind is GroupingKind.TOTALLY_DIFFERENT:
                td_means.append(mean)
        with tracer.span("aggregate", parent):
            td = td_aggregate(td_means)
            metrics[kind] = MetricStudy(kind, groupings, td,
                                        _normalized_cells(groupings, td, kind))
    return StudyReport(name, list(grid.programmers), list(grid.applications),
                       strides, metrics)


def traced_study(args, tracer: Tracer) -> int:
    with tracer.span("command") as root:
        with tracer.span("manifest", root):
            config = cli.resolve_config(args)
            manifest = load_datasets(args.manifest)
            grids = [build_grid(entries) for _, entries in manifest.datasets]
        reports = []
        for (name, entries), grid in zip(manifest.datasets, grids):
            with tracer.span("dataset", root) as dataset:
                features = _corpus_features(entries, config, tracer, dataset)
                with tracer.span("universe", dataset):
                    universes = build_universes(features)
                tracer.counts["universe.size2"] += len(universes[2])
                tracer.counts["universe.size3"] += len(universes[3])
                reports.append(_study(name, grid, features, universes, config,
                                      tracer, dataset))
        with tracer.span("aggregate", root):
            suite = build_suite(reports)
        metadata = dict(manifest.metadata)
        metadata["ngram_mode"] = config.ngram_mode
        with tracer.span("render", root):
            text = render(suite, config.output_format, metadata)
        tracer.counts["render.bytes"] += len(text.encode("utf-8"))
        if args.out is not None:
            args.out.write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    return 0


def traced_compile(args, tracer: Tracer) -> int:
    with tracer.span("command") as root:
        with tracer.span("manifest", root):
            config = cli.resolve_config(args)
            manifest = load_datasets(args.manifest)
        with tracer.span("compile", root):
            result = compile_corpus(manifest, config, args.out)
    hits = result.cache_hits
    tracer.counts["compile.invocations"] += len(result.outcomes) - hits
    tracer.counts["compile.cache_hits"] += hits
    tracer.counts["compile.failures"] += len(result.failures)
    compiled = sum(1 for o in result.outcomes if o.output is not None and not o.cached)
    print(f"compiled {compiled}, cached {hits}, failed {len(result.failures)}")
    print(f"manifest: {result.manifest_path}")
    return 4 if result.failures else 0


def main(argv: list[str]) -> int:
    spans_path, rest = Path(argv[0]), argv[1:]
    args = cli.build_parser().parse_args(rest)
    commands = {"study": traced_study, "compile": traced_compile}
    if args.command not in commands:
        print(f"traced driver runs study or compile, not {args.command}", file=sys.stderr)
        return 2
    tracer = Tracer()
    try:
        status = commands[args.command](args, tracer)
    except AsmSimError as exc:
        print(exc.diagnostic(), file=sys.stderr)
        status = exc.exit_code
    tracer.write(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
