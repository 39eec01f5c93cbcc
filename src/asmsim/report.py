"""Render a study suite as Markdown tables, CSV rows, or a JSON document.

Markdown mirrors the summary-table layout: one table per metric with
datasets as rows, groupings as columns, and Average / Normalized rows at
the bottom. CSV carries one row per metric x grouping x subset plus the
summary rows. JSON keeps full pair-level detail at full float precision.
Rounding happens only here: 4 decimals for similarities, 2 for distances,
3 for normalized indices.
"""

from __future__ import annotations

import csv
import io
import json
from functools import partial
from itertools import chain, repeat
from typing import Mapping

from .corpus import (APPLICATION_SPECIFIC, PROGRAMMER_SPECIFIC, TD_LABEL, StudySuite,
                     totally_different)
from .metrics import METRIC_ORDER, MetricKind

METRIC_TITLES = {
    MetricKind.JACCARD: "Instruction existence (Jaccard similarity)",
    MetricKind.COSINE: "Instruction frequency (cosine similarity)",
    MetricKind.EUCLIDEAN2: "Two-instruction patterns (Euclidean distance)",
    MetricKind.EUCLIDEAN3: "Three-instruction patterns (Euclidean distance)",
}


def format_value(kind: MetricKind, value: float) -> str:
    return f"{value:.2f}" if kind.is_distance else f"{value:.4f}"


def format_normalized(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _td_labels(suite: StudySuite) -> list[str]:
    """Union of per-stride column labels across datasets, by stride."""
    strides = sorted({s for report in suite.reports for s in report.strides})
    return [totally_different(s).label for s in strides]


def render_markdown(suite: StudySuite, metadata: Mapping | None = None) -> str:
    out: list[str] = ["# Assembly similarity study", ""]
    for report in suite.reports:
        strides = ", ".join(str(s) for s in report.strides)
        out.append(f"- dataset `{report.dataset}`: {len(report.applications)} "
                   f"applications x {len(report.programmers)} programmers, "
                   f"totally-different strides {strides}")
    if metadata:
        for key in sorted(metadata):
            out.append(f"- {key}: {metadata[key]}")
    out.append("")

    td_labels = _td_labels(suite)
    columns = [PROGRAMMER_SPECIFIC.label, APPLICATION_SPECIFIC.label, *td_labels]
    for kind in METRIC_ORDER:
        out.append(f"## {METRIC_TITLES[kind]}")
        out.append("")
        out.append("| Data set | " + " | ".join(columns) + " |")
        out.append("|" + " --- |" * (len(columns) + 1))
        for report in suite.reports:
            study = report.metrics[kind]
            row = [report.dataset]
            for label in columns:
                grouping = study.groupings.get(label)
                row.append("" if grouping is None else format_value(kind, grouping.mean))
            out.append("| " + " | ".join(row) + " |")
        summary = suite.summary[kind]
        for name, values, fmt in (("Average", summary.means, partial(format_value, kind)),
                                  ("Normalized", summary.normalized, format_normalized)):
            row = [name, *map(fmt, values.values())]  # programmer, application, td
            row += [""] * (len(td_labels) - 1)  # the td aggregate pools all strides
            out.append("| " + " | ".join(row) + " |")
        out.append("")
    return "\n".join(out)


CSV_COLUMNS = ("dataset", "metric", "grouping", "subset", "pairs", "value", "kind")

SUITE_DATASET = "(all)"


def render_csv(suite: StudySuite, metadata: Mapping | None = None) -> str:
    del metadata  # config belongs in the JSON report, not the flat table
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in suite.reports:
        for kind in METRIC_ORDER:
            study = report.metrics[kind]
            for label, grouping in study.groupings.items():
                for subset in grouping.subsets:
                    writer.writerow([report.dataset, kind.value, label, subset.label,
                                     len(subset.pairs), format_value(kind, subset.mean),
                                     "subset"])
                writer.writerow([report.dataset, kind.value, label, "", "",
                                 format_value(kind, grouping.mean), "group"])
            writer.writerow([report.dataset, kind.value, TD_LABEL, "", "",
                             format_value(kind, study.td_mean), "td_aggregate"])
            for label, value in study.normalized.items():
                writer.writerow([report.dataset, kind.value, label, "", "",
                                 format_normalized(value), "normalized"])
    for kind in METRIC_ORDER:
        summary = suite.summary[kind]
        for label, value in summary.means.items():
            writer.writerow([SUITE_DATASET, kind.value, label, "", "",
                             format_value(kind, value), "average"])
        for label, value in summary.normalized.items():
            writer.writerow([SUITE_DATASET, kind.value, label, "", "",
                             format_normalized(value), "normalized"])
    return buffer.getvalue()


_quote = json.encoder.encode_basestring_ascii
_NL = tuple("\n" + "  " * depth for depth in range(12))  # newline, indent at depth


def _dumps(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` nested ``depth`` levels deep."""
    return json.dumps(value, indent=2).replace("\n", _NL[depth])  # no raw \n in strings


def _members(out: list[str], items, depth: int, close: str):
    """Yield ``items``; append to ``out`` the separator ``json.dumps(indent=2)``
    writes before each at ``depth``, then ``close``, led by the closing bracket."""
    sep, rest = _NL[depth], "," + _NL[depth]
    for item in items:
        out.append(sep)
        yield item
        sep = rest
    out.append(_NL[depth - 1] + close if sep is rest else close)


class _Texts(dict):
    """``text(key)`` for each key, kept after its first lookup unless the key is
    false: ``0.0 == -0.0`` as a dict key, but their ``repr``s differ."""

    def __init__(self, text) -> None:
        self.text = text

    def __missing__(self, key) -> str:
        text = self.text(key)
        if key:
            self[key] = text
        return text


def render_json(suite: StudySuite, metadata: Mapping | None = None) -> str:
    """Metadata, datasets and summary, byte for byte as ``json.dumps(indent=2)`` writes
    them, in one pass. Pair values and means are finite floats, so ``repr`` is their JSON;
    each subset's pairs are one ``join`` of memoised id and value texts. The pure-Python
    encoder of ``_dumps`` leaves a reference cycle per call, so it writes few containers."""
    first = _Texts(lambda i: f'{_NL[10]}{{{_NL[11]}"a": {_quote(i)},{_NL[11]}"b": ')
    second = _Texts(lambda i: f'{_quote(i)},{_NL[11]}"value": ')
    out = ['{\n  "metadata": ', _dumps(dict(metadata or {}), 1), ',\n  "datasets": [']
    for report in _members(out, suite.reports, 2, '],\n  "summary": {'):
        out.append(f'{{{_NL[3]}"name": {_quote(report.dataset)},'
                   f'{_NL[3]}"programmers": {_dumps(report.programmers, 3)},'
                   f'{_NL[3]}"applications": {_dumps(report.applications, 3)},'
                   f'{_NL[3]}"strides": {_dumps(report.strides, 3)},{_NL[3]}"metrics": {{')
        for kind in _members(out, METRIC_ORDER, 4, "}" + _NL[2] + "}"):
            # a value memo per metric frees the texts of cosine's rarely repeated values
            study, value = report.metrics[kind], _Texts(repr)
            out.append(f'{_quote(kind.value)}: {{{_NL[5]}"groupings": {{')
            for label, grouping in _members(out, study.groupings.items(), 6, "}"):
                out.append(f'{_quote(label)}: {{{_NL[7]}"mean": '
                           f'{grouping.mean!r},{_NL[7]}"subsets": [')
                for subset in _members(out, grouping.subsets, 8, "]" + _NL[6] + "}"):
                    out.append(f'{{{_NL[9]}"label": {_quote(subset.label)},{_NL[9]}'
                               f'"mean": {subset.mean!r},{_NL[9]}"pairs": [')
                    ids_a, ids_b, values = zip(*subset.pairs) if subset.pairs else ((),) * 3
                    # after a value: its pair's "}", then "," or the list's and subset's end
                    ends = chain(repeat(_NL[10] + "},", len(values) - 1),
                                 (_NL[10] + "}" + _NL[9] + "]" + _NL[8] + "}",))
                    out.append("".join(chain.from_iterable(zip(
                        map(first.__getitem__, ids_a), map(second.__getitem__, ids_b),
                        map(value.__getitem__, values), ends))) or "]" + _NL[8] + "}")
            out.append(f',{_NL[5]}"td_mean": {study.td_mean!r},{_NL[5]}'
                       f'"normalized": {_dumps(study.normalized, 5)}{_NL[4]}}}')
    for kind in _members(out, METRIC_ORDER, 2, "}\n}\n"):
        summary = suite.summary[kind]
        out.append(f'{_quote(kind.value)}: {{{_NL[3]}"means": {_dumps(summary.means, 3)},'
                   f'{_NL[3]}"normalized": {_dumps(summary.normalized, 3)}{_NL[2]}}}')
    return "".join(out)


RENDERERS = {
    "markdown": render_markdown,
    "csv": render_csv,
    "json": render_json,
}
OUTPUT_FORMATS = tuple(RENDERERS)


def render(suite: StudySuite, output_format: str,
           metadata: Mapping | None = None) -> str:
    try:
        renderer = RENDERERS[output_format]
    except KeyError:
        raise ValueError(f"unknown output format {output_format!r}; "
                         f"expected one of {OUTPUT_FORMATS}") from None
    return renderer(suite, metadata)
