"""Programmer x application corpus grids and the grouping study.

A corpus is a P x A grid with exactly one program per cell. Three grouping
schemes partition it into subsets: per application (all programmers'
takes on one task), per programmer (one author across all tasks), and
totally-different transversals (no shared programmer, no shared
application). Each subset is scored pairwise under every metric; subset
means, group means, the totally-different aggregate, and normalized
indices make up the study report. Every record is an immutable named tuple;
``_replace`` makes a changed copy.
"""

from __future__ import annotations

import json
import math
import os
import stat
from enum import Enum
from itertools import combinations, islice, repeat
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (AsmSimError, DuplicateIdError, EmptyProgramError,
                     IncompleteGridError, InputError, InvalidStrideError,
                     ManifestError, NormalizationError)
from .features import NGram, ProgramFeatures
from .metrics import METRIC_ORDER, MetricKind, pair_values


class ProgramEntry(NamedTuple):
    """One corpus program: where it lives and which grid cell it fills."""

    id: str
    path: Path
    programmer: str
    application: str


class ManifestData(NamedTuple):
    """Parsed manifest: one or more named datasets plus free-form metadata."""

    datasets: list[tuple[str, list[ProgramEntry]]]
    metadata: dict


def _parse_entries(raw: object, base: Path, *, where: str) -> list[ProgramEntry]:
    if not isinstance(raw, list):
        raise ManifestError('"programs" must be a list', entity=where)
    entries: list[ProgramEntry] = []
    seen: set[str] = set()
    for i, item in enumerate(raw):
        entity = f"{where}#programs[{i}]"
        if not isinstance(item, dict):
            raise ManifestError("program entry must be an object", entity=entity)
        values = {}
        for key in ProgramEntry._fields:  # each a manifest key
            value = item.get(key)
            if not isinstance(value, str) or not value:
                raise ManifestError(f"missing or invalid field {key!r}", entity=entity)
            values[key] = value
        if values["id"] in seen:
            raise DuplicateIdError(f"duplicate program id {values['id']!r}", entity=entity)
        seen.add(values["id"])
        full = base / values["path"]
        if not full.is_file():
            raise InputError(f"program file not found: {full}", entity=entity)
        entries.append(ProgramEntry(**{**values, "path": full}))
    return entries


def load_json_object(path: Path, what: str, error: type[AsmSimError]) -> dict:
    """The JSON object in the UTF-8 file ``path``. A file that cannot be read is
    an :class:`InputError`; one that is not UTF-8, not JSON (or nested too
    deeply to decode) or not an object is ``error``. ``what`` names the file."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}", entity=str(path)) from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise error(f"{what} is not valid JSON: {exc}", entity=str(path)) from exc
    if not isinstance(doc, dict):
        raise error(f"{what} root must be an object", entity=str(path))
    return doc


def write_file(path: Path, parts: Iterable[str]) -> None:
    """Write ``parts`` as they come to ``path``, UTF-8 encoded.

    The file is written under a temporary name beside ``path`` and renamed
    over it when whole, so a failed write leaves no partial file and an old
    one unchanged; a symlink is followed first, and the new file takes the
    old one's permissions. A path that exists but is no regular file, such
    as ``/dev/null`` or a FIFO, is written in place. Any failure is an
    :class:`InputError`.
    """
    in_place = path.exists() and not path.is_file()
    final = path.resolve()
    target = path if in_place else final.with_name(f"{final.name}.{os.getpid()}.partial")
    try:
        with open(target, "wb") as sink:
            if final.is_file():  # an old file, never in place: keep its permissions
                os.chmod(sink.fileno(), stat.S_IMODE(final.stat().st_mode))
            for part in parts:
                sink.write(part.encode("utf-8"))
        if not in_place:
            os.replace(target, final)
    except OSError as exc:
        raise InputError(f"cannot write file: {exc}", entity=str(path)) from exc
    finally:
        if not in_place:
            target.unlink(missing_ok=True)  # gone after a rename


def load_datasets(path: str | Path) -> ManifestData:
    """Load a manifest holding either one dataset or a list of them.

    Single form: ``{"name"?: str, "programs": [...]}``. Multi form:
    ``{"datasets": [{"name"?: str, "programs": [...]}, ...]}``. Program
    paths are resolved relative to the manifest location.
    """
    path = Path(path)
    doc = load_json_object(path, "manifest", ManifestError)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ManifestError('"metadata" must be an object', entity=str(path))

    if "datasets" in doc:
        items = doc["datasets"]
        if not isinstance(items, list) or not items:
            raise ManifestError('"datasets" must be a non-empty list', entity=str(path))
        entities = [f"{path}#datasets[{i}]" for i in range(len(items))]
    elif "programs" in doc:
        items = [{"name": doc.get("name", path.stem), "programs": doc["programs"]}]
        entities = [str(path)]
    else:
        raise ManifestError('manifest needs a "programs" or "datasets" field',
                            entity=str(path))
    datasets: list[tuple[str, list[ProgramEntry]]] = []
    names: set[str] = set()
    for i, (item, entity) in enumerate(zip(items, entities)):
        if not isinstance(item, dict):
            raise ManifestError("dataset must be an object", entity=entity)
        name = item.get("name", f"dataset{i + 1}")
        if not isinstance(name, str) or not name:
            raise ManifestError('dataset "name" must be a non-empty string', entity=entity)
        if name in names:
            raise ManifestError(f"duplicate dataset name {name!r}", entity=entity)
        names.add(name)
        datasets.append((name, _parse_entries(item.get("programs"), path.parent,
                                              where=entity)))
    return ManifestData(datasets, dict(metadata))


class CorpusGrid(NamedTuple):
    """P programmers x A applications, one entry per cell.

    Label lists keep first-appearance order from the manifest; cells are
    keyed by (application, programmer) labels.
    """

    programmers: list[str]
    applications: list[str]
    cells: dict[tuple[str, str], ProgramEntry]

    @property
    def entries(self) -> list[ProgramEntry]:
        """Cells in row-major (application, programmer) label order."""
        return [self.cells[(a, p)] for a in self.applications for p in self.programmers]


def build_grid(entries: Sequence[ProgramEntry]) -> CorpusGrid:
    """Arrange entries into a complete grid or fail naming the defects."""
    programmers: list[str] = []
    applications: list[str] = []
    cells: dict[tuple[str, str], ProgramEntry] = {}
    duplicates: list[tuple[str, str]] = []
    for entry in entries:
        if entry.programmer not in programmers:
            programmers.append(entry.programmer)
        if entry.application not in applications:
            applications.append(entry.application)
        key = (entry.application, entry.programmer)
        if key in cells:
            duplicates.append(key)
        else:
            cells[key] = entry
    missing = [(a, p) for a in applications for p in programmers if (a, p) not in cells]
    if duplicates or missing:
        parts = []
        if missing:
            parts.append("missing cells: " + ", ".join(f"({a}, {p})" for a, p in missing))
        if duplicates:
            parts.append("duplicate cells: " + ", ".join(f"({a}, {p})" for a, p in duplicates))
        raise IncompleteGridError("; ".join(parts))
    if len(programmers) < 2 or len(applications) < 2:
        raise IncompleteGridError(
            f"grid needs at least 2 programmers and 2 applications, got "
            f"{len(programmers)}x{len(applications)}")
    return CorpusGrid(programmers, applications, cells)


class GroupingKind(str, Enum):
    APPLICATION_SPECIFIC = "application_specific"
    PROGRAMMER_SPECIFIC = "programmer_specific"
    TOTALLY_DIFFERENT = "totally_different"


# Aggregate column label for the totally-different baseline.
TD_LABEL = "Totally Different"


class GroupingScheme(NamedTuple):
    kind: GroupingKind
    stride: int | None = None

    @property
    def label(self) -> str:
        if self.kind is GroupingKind.APPLICATION_SPECIFIC:
            return "Application Specific"
        if self.kind is GroupingKind.PROGRAMMER_SPECIFIC:
            return "Programmer Specific"
        return f"{TD_LABEL} {self.stride}"


APPLICATION_SPECIFIC = GroupingScheme(GroupingKind.APPLICATION_SPECIFIC)
PROGRAMMER_SPECIFIC = GroupingScheme(GroupingKind.PROGRAMMER_SPECIFIC)


def totally_different(stride: int) -> GroupingScheme:
    return GroupingScheme(GroupingKind.TOTALLY_DIFFERENT, stride)


def coprime_strides(n: int) -> list[int]:
    """Strides producing valid transversal partitions of an n x n grid."""
    return [s for s in range(1, n) if math.gcd(s, n) == 1]


def default_strides(n: int) -> list[int]:
    """Up to three coprime strides: three groupings for 5x5, two for 3x3."""
    return coprime_strides(n)[:3]


def _check_strides(grid: CorpusGrid, strides: Sequence[int | None]) -> int:
    """Side n of a square grid; raises unless there is at least one stride,
    no stride repeats and every stride partitions the grid."""
    n = len(grid.programmers)
    if len(grid.applications) != n:
        raise InvalidStrideError(
            f"totally-different groupings need a square grid, got "
            f"{len(grid.applications)}x{n}")
    if not strides:
        raise InvalidStrideError("at least one totally-different stride is required")
    for stride in strides:
        if stride is None or not 1 <= stride < n or math.gcd(stride, n) != 1:
            raise InvalidStrideError(
                f"stride {stride} is invalid for a {n}x{n} grid; valid strides: "
                f"{coprime_strides(n)}")
    if len(set(strides)) != len(strides):
        raise InvalidStrideError(f"strides {list(strides)} repeat a stride; each "
                                 "totally-different grouping must be distinct")
    return n


class Subset(NamedTuple):
    scheme: GroupingScheme
    label: str
    members: tuple[ProgramEntry, ...]


def enumerate_subsets(grid: CorpusGrid, scheme: GroupingScheme) -> list[Subset]:
    """All subsets of one grouping scheme.

    Application-specific: one subset per application, holding every
    programmer's program for it. Programmer-specific: one per programmer,
    holding their program for every application. Totally-different with
    stride s: n transversals, subset j holding cell (application i,
    programmer (j + s*i) mod n). Transversal composition indexes the
    sorted label lists, so reordering the manifest cannot change any
    numeric result.
    """
    if scheme.kind is GroupingKind.APPLICATION_SPECIFIC:
        return [Subset(scheme, app,
                       tuple(grid.cells[(app, p)] for p in grid.programmers))
                for app in grid.applications]
    if scheme.kind is GroupingKind.PROGRAMMER_SPECIFIC:
        return [Subset(scheme, programmer,
                       tuple(grid.cells[(a, programmer)] for a in grid.applications))
                for programmer in grid.programmers]

    stride = scheme.stride
    n = _check_strides(grid, [stride])
    apps = sorted(grid.applications)
    programmers = sorted(grid.programmers)
    subsets = []
    for j in range(n):
        members = tuple(grid.cells[(apps[i], programmers[(j + stride * i) % n])]
                        for i in range(n))
        subsets.append(Subset(scheme, f"subset {j + 1}", members))
    return subsets


class PairValue(NamedTuple):
    id_a: str
    id_b: str
    value: float


def pairwise_values(subset: Subset, kind: MetricKind,
                    features: Mapping[str, ProgramFeatures],
                    universes: Mapping[int, frozenset[NGram]] | None = None,
                    ) -> list[PairValue]:
    """One metric value per unordered member pair, in (i < j) index order.
    ``universes`` is never read; it stays because ``bench/traced.py`` passes
    it, and goes with this function (ROADMAP item 7)."""
    members = [(m.id, features[m.id]) for m in subset.members]
    try:
        values = pair_values(kind, [member for _, member in members])
    except EmptyProgramError as exc:
        id_a, id_b = next((id_a, id_b) for (id_a, a), (id_b, b) in combinations(members, 2)
                          if not (a.frequency and b.frequency))
        raise EmptyProgramError(f"{exc.message} (pair {id_a}, {id_b})",
                                entity=f"{id_a},{id_b}") from exc
    return [PairValue(id_a, id_b, value) for ((id_a, _), (id_b, _)), value
            in zip(combinations(members, 2), values)]


def _mean(values: Iterable[float]) -> float:
    """Arithmetic mean of pair values, subset means or grouping means."""
    values = list(values)
    if not values:
        raise ValueError("cannot average an empty list")
    # fsum is correctly rounded, so the result cannot depend on the order
    # in which pairs or subsets happen to be enumerated
    return math.fsum(values) / len(values)


# bench/traced.py imports these three names
subset_mean = group_mean = td_aggregate = _mean


def normalize(group_value: float, td_value: float, kind: MetricKind) -> float:
    """Rescale a group value so the totally-different baseline maps to 1.

    Similarities divide by the baseline; distances divide the baseline by
    the group. Either way a larger result means more intra-group
    similarity.
    """
    if group_value <= 0 or td_value <= 0:
        raise NormalizationError(
            f"cannot normalize non-positive values (group={group_value}, "
            f"baseline={td_value})")
    if kind.is_distance:
        return td_value / group_value
    return group_value / td_value


class SubsetSummary(NamedTuple):
    label: str
    pairs: list[PairValue]
    mean: float


class GroupingResult(NamedTuple):
    scheme: GroupingScheme
    subsets: list[SubsetSummary]
    mean: float


class MetricStudy(NamedTuple):
    """One metric's results over every grouping of one dataset.

    ``normalized`` maps grouping labels to indices; ``None`` flags a
    degenerate cell (a zero distance group or baseline that cannot be
    normalized).
    """

    kind: MetricKind
    groupings: dict[str, GroupingResult]
    td_mean: float
    normalized: dict[str, float | None]


class StudyReport(NamedTuple):
    dataset: str
    programmers: list[str]
    applications: list[str]
    strides: list[int]
    metrics: dict[MetricKind, MetricStudy]


def build_universes(features: Mapping[str, ProgramFeatures]) -> dict[int, frozenset[NGram]]:
    """Corpus-wide pattern universes for n = 2 and 3: the union of every
    program's patterns of that length."""
    return {n: frozenset().union(*(f.pattern_set(n).patterns for f in features.values()))
            for n in (2, 3)}


def _summary(groupings: Sequence[Mapping[str, GroupingResult]], kind: MetricKind,
             ) -> tuple[dict[str, float], dict[str, float | None]]:
    """Means and normalized indices of the programmer-specific,
    application-specific and totally-different columns, in that order,
    pooled over the grouping means of one or more datasets."""
    means = {label: _mean(g[label].mean for g in groupings)
             for label in (PROGRAMMER_SPECIFIC.label, APPLICATION_SPECIFIC.label)}
    td = means[TD_LABEL] = _mean(
        result.mean for g in groupings for result in g.values()
        if result.scheme.kind is GroupingKind.TOTALLY_DIFFERENT)
    normalized: dict[str, float | None] = {}
    for label in means:  # the baseline normalizes to td / td == 1.0, if it can
        try:
            normalized[label] = normalize(means[label], td, kind)
        except NormalizationError:
            normalized[label] = None
    return means, normalized


def run_study(grid: CorpusGrid, features: Mapping[str, ProgramFeatures], *,
              strides: Sequence[int] | None = None,
              dataset_name: str = "dataset") -> StudyReport:
    """Score every grouping of a square grid under all four metrics.

    Deterministic: groupings, subsets, and pairs are traversed in a fixed
    order, so identical inputs produce identical reports.
    """
    strides = list(default_strides(len(grid.programmers)) if strides is None else strides)
    _check_strides(grid, strides)
    programs = [features.get(entry.id) for entry in grid.entries]
    for entry, entry_features in zip(grid.entries, programs):
        if entry_features is None:
            raise ValueError(f"no features for program {entry.id!r}")
        if not entry_features.frequency:
            raise EmptyProgramError(f"program {entry.id!r} has no instructions",
                                    entity=entry.id)

    schemes = [PROGRAMMER_SPECIFIC, APPLICATION_SPECIFIC]
    schemes += [totally_different(s) for s in strides]

    # each subset's pairs as two id columns; one pair_values call per metric scores
    # every subset's pairs (as positions in grid.entries), dealt back in that order
    subsets = [(scheme, [(subset.label, *zip(*combinations([m.id for m in subset.members], 2)))
                         for subset in enumerate_subsets(grid, scheme)])
               for scheme in schemes]
    position = {entry.id: k for k, entry in enumerate(grid.entries)}
    positions = [(position[a], position[b]) for _, scheme_subsets in subsets
                 for _, ids_a, ids_b in scheme_subsets for a, b in zip(ids_a, ids_b)]
    metrics: dict[MetricKind, MetricStudy] = {}
    for kind in METRIC_ORDER:
        values = iter(pair_values(kind, programs, positions))
        groupings: dict[str, GroupingResult] = {}
        for scheme, scheme_subsets in subsets:
            summaries = []
            for label, ids_a, ids_b in scheme_subsets:
                chunk = list(islice(values, len(ids_a)))
                # tuple.__new__ skips PairValue's Python __new__
                pairs = list(map(tuple.__new__, repeat(PairValue), zip(ids_a, ids_b, chunk)))
                summaries.append(SubsetSummary(label, pairs, _mean(chunk)))
            groupings[scheme.label] = GroupingResult(
                scheme, summaries, _mean(s.mean for s in summaries))
        means, normalized = _summary([groupings], kind)
        metrics[kind] = MetricStudy(kind, groupings, means[TD_LABEL], normalized)

    return StudyReport(dataset_name, list(grid.programmers),
                       list(grid.applications), strides, metrics)


class SuiteSummary(NamedTuple):
    """Cross-dataset averages and normalized indices for one metric."""

    kind: MetricKind
    means: dict[str, float]
    normalized: dict[str, float | None]


class StudySuite(NamedTuple):
    reports: list[StudyReport]
    summary: dict[MetricKind, SuiteSummary]


def build_suite(reports: Sequence[StudyReport]) -> StudySuite:
    """Aggregate per-dataset reports into cross-dataset summary rows.

    Programmer/application columns average their per-dataset group means;
    the totally-different column pools every (dataset, stride) grouping
    mean, matching the balanced-design pooled mean. ``run_study`` derives
    each report's own td_mean and normalized cells the same way.
    """
    if not reports:
        raise ValueError("cannot summarize zero reports")
    summary = {kind: SuiteSummary(kind, *_summary(
                   [r.metrics[kind].groupings for r in reports], kind))
               for kind in METRIC_ORDER}
    return StudySuite(list(reports), summary)
