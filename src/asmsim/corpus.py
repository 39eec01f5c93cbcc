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
import re
import stat
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from contextlib import suppress
from enum import Enum
from itertools import combinations, count, islice, repeat
from pathlib import Path

from .errors import (AsmSimError, EmptyProgramError, InputError, ManifestError,
                     NormalizationError, reason)
from .features import NGram, ProgramFeatures
from .metrics import METRIC_ORDER, MetricKind, pair_values


ProgramEntry = namedtuple("ProgramEntry", "id path programmer application")
ProgramEntry.__doc__ = """One corpus program: its file's ``Path`` and the grid cell
it fills."""


ManifestData = namedtuple("ManifestData", "datasets metadata")
ManifestData.__doc__ = """Parsed manifest: a list of (name, list of
:class:`ProgramEntry`) datasets plus a dict of free-form metadata."""


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
            raise ManifestError(f"duplicate program id {values['id']!r}", entity=entity)
        seen.add(values["id"])
        entries.append(ProgramEntry(**{**values, "path": program_files(
            base / values["path"], entity=entity)[0]}))
    return entries


def program_files(path: Path, pattern: str | None = None,
                  entity: str | None = None) -> list[Path]:
    """``[path]`` if it names a regular file or, given a glob ``pattern``, the
    matches of ``pattern`` in the directory ``path``, sorted, each checked so;
    else an :class:`InputError` for ``entity`` (default: the path). One ``stat``
    checks a path, so a FIFO is never opened and no read waits for its writer."""
    entity = str(path) if entity is None else entity
    try:
        mode = path.stat().st_mode
    except (FileNotFoundError, NotADirectoryError, ValueError):  # ValueError: a NUL byte
        raise InputError(f"no such file or directory: {path}", entity=entity) from None
    except OSError as exc:
        raise InputError(f"cannot read file: {reason(exc)}", entity=entity) from exc
    if pattern is not None and stat.S_ISDIR(mode):
        try:  # NotImplementedError: an absolute pattern
            matches = sorted(path.glob(pattern), key=str)
        except (OSError, ValueError, NotImplementedError) as exc:
            raise InputError(f"cannot read directory: {reason(exc)}", entity=entity) from exc
        return [file for match in matches for file in program_files(match)]
    if not stat.S_ISREG(mode):
        raise InputError(f"not a regular file: {path}", entity=entity)
    return [path]


def read_input(path: Path, what: str, entity: str) -> bytes:
    """The bytes of ``path``; a failed read is an :class:`InputError` for
    ``entity``, and ``what`` names the file in it."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {what}: {reason(exc)}", entity=entity) from exc


def _finite_float(text: str) -> float:
    """``float(text)``, for a JSON number or ``NaN``/``Infinity``, if finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def load_json_object(path: Path, what: str, error: type[AsmSimError]) -> dict:
    """The JSON object in the UTF-8 file ``path``. A file that cannot be read is
    an :class:`InputError`; one that is not UTF-8, not JSON (or nested too
    deeply to decode, or holding a number that is not finite, such as ``NaN``
    or ``1e999``, or a lone surrogate, such as ``"\\ud800"``, in a key or a
    string) or not an object is ``error``. ``what`` names the file."""
    raw = read_input(path, what, str(path))
    try:
        doc = json.loads(raw.decode("utf-8"), parse_float=_finite_float,
                         parse_constant=_finite_float)
        json.dumps(doc, ensure_ascii=False).encode("utf-8")  # fails on a lone surrogate
    except UnicodeEncodeError as exc:
        raise error(f"{what} holds a lone surrogate: {exc.object[exc.start]!r}",
                    entity=str(path)) from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise error(f"{what} is not valid JSON: {exc}", entity=str(path)) from exc
    if not isinstance(doc, dict):
        raise error(f"{what} root must be an object", entity=str(path))
    return doc


_serials = count()  # next() is atomic, so no two threads draw one serial


def partial_path(final: Path) -> Path:
    """The name to stage ``final`` under, beside it: unique in this process, and short."""
    return final.with_name(f".asmsim-{os.getpid()}-{next(_serials)}.partial")


def make_dir(path: Path, entity: str | None = None) -> dict[str, bool]:
    """Create the directory ``path`` and its parents, if missing (a failure is an
    :class:`InputError` for ``entity``, default the path), and delete the
    :func:`partial_path` files in it of processes that are gone, best effort: a live run's
    files, what is no regular file, and what cannot be listed or deleted stay. Return the
    listing taken before the sweep: each name but a directory's, mapped to whether it is a
    regular file (a symlink is not followed); ``{}`` if ``path`` cannot be listed."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create directory: {reason(exc)}",
                         entity=str(path) if entity is None else entity) from exc
    listed: dict[str, bool] = {}
    with suppress(OSError), os.scandir(path) as found:
        listed = {e.name: e.is_file(follow_symlinks=False) for e in found
                  if not e.is_dir(follow_symlinks=False)}
    for name, regular in listed.items():
        if regular and (match := re.fullmatch(r"\.asmsim-(\d{1,9})-\d+\.partial", name)):
            try:
                os.kill(int(match[1]), 0)
            except ProcessLookupError:
                with suppress(OSError):  # another user's file in a sticky directory stays
                    (path / name).unlink(missing_ok=True)
            except PermissionError:
                pass  # alive, under another user
    return listed


def replace_file(partial: Path, final: Path, entity: str) -> None:
    """Rename the whole file ``partial`` over ``final``; a failure is an
    :class:`InputError` for ``entity``, and the caller removes ``partial``."""
    try:
        os.replace(partial, final)
    except OSError as exc:
        raise InputError(f"cannot write file: {reason(exc)}", entity=entity) from exc


def write_file(path: Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` as they come to ``path``.

    A path that exists but is no regular file, such as ``/dev/null`` or a FIFO, is
    written in place. Any other is written under its :func:`partial_path` and renamed
    over it when whole, so a failed write leaves no partial file and an old one
    unchanged; a symlink is followed first, and the new file takes the old one's
    permissions. Any failure, a symlink loop included, is an :class:`InputError`.
    """
    try:
        try:
            mode = path.stat().st_mode  # one lookup, which follows a symlink
        except FileNotFoundError:
            mode = 0  # no old file
        if mode and not stat.S_ISREG(mode):
            with open(path, "wb") as sink:
                sink.writelines(chunks)
            return
        final = path.resolve()
        partial = partial_path(final)
        try:
            with open(partial, "wb") as sink:
                if mode:  # an old file: keep its permissions
                    os.chmod(sink.fileno(), stat.S_IMODE(mode))
                sink.writelines(chunks)
            replace_file(partial, final, str(path))
        finally:
            partial.unlink(missing_ok=True)  # gone after a rename
    except OSError as exc:
        raise InputError(f"cannot write file: {reason(exc)}", entity=str(path)) from exc


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
    # after the loop, so a malformed later dataset is reported first
    for (_, entries), entity in zip(datasets, entities):
        if not entries:
            raise ManifestError('"programs" must be a non-empty list', entity=entity)
    return ManifestData(datasets, dict(metadata))


class CorpusGrid(namedtuple("CorpusGrid", "programmers applications cells")):
    """P programmers x A applications: label lists in first-appearance order
    from the manifest, and ``cells``, a dict from (application, programmer)
    labels to the :class:`ProgramEntry` of that cell."""

    __slots__ = ()

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
        raise ManifestError("; ".join(parts))
    if len(programmers) < 2 or len(applications) < 2:
        raise ManifestError(
            f"grid needs at least 2 programmers and 2 applications, got "
            f"{len(programmers)}x{len(applications)}")
    return CorpusGrid(programmers, applications, cells)


class GroupingKind(str, Enum):
    APPLICATION_SPECIFIC = "application_specific"
    PROGRAMMER_SPECIFIC = "programmer_specific"
    TOTALLY_DIFFERENT = "totally_different"


# Aggregate column label for the totally-different baseline.
TD_LABEL = "Totally Different"


class GroupingScheme(namedtuple("GroupingScheme", "kind stride", defaults=(None,))):
    """A :class:`GroupingKind` and, if totally-different, its int stride."""

    __slots__ = ()

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


def check_strides(grid: CorpusGrid, strides: Sequence[int | None] | None) -> list[int]:
    """The totally-different strides of a study of ``grid``: ``strides``, or
    :func:`default_strides` if None. Raises unless the grid is square, there is
    at least one stride, no stride repeats and every stride partitions the grid."""
    n = len(grid.programmers)
    if len(grid.applications) != n:
        raise ManifestError(
            f"totally-different groupings need a square grid, got "
            f"{len(grid.applications)}x{n}")
    strides = default_strides(n) if strides is None else list(strides)
    if not strides:
        raise ManifestError("at least one totally-different stride is required")
    valid = coprime_strides(n)
    for stride in strides:
        if stride not in valid:
            raise ManifestError(
                f"stride {stride} is invalid for a {n}x{n} grid; valid strides: {valid}")
    if len(set(strides)) != len(strides):
        raise ManifestError(f"strides {strides} repeat a stride; each "
                            "totally-different grouping must be distinct")
    return strides


Subset = namedtuple("Subset", "label members")
Subset.__doc__ = """A labelled subset of a grouping: a tuple of :class:`ProgramEntry`."""


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
        return [Subset(app,
                       tuple(grid.cells[(app, p)] for p in grid.programmers))
                for app in grid.applications]
    if scheme.kind is GroupingKind.PROGRAMMER_SPECIFIC:
        return [Subset(programmer,
                       tuple(grid.cells[(a, programmer)] for a in grid.applications))
                for programmer in grid.programmers]

    [stride] = check_strides(grid, [scheme.stride])
    n = len(grid.programmers)
    apps = sorted(grid.applications)
    programmers = sorted(grid.programmers)
    subsets = []
    for j in range(n):
        members = tuple(grid.cells[(apps[i], programmers[(j + stride * i) % n])]
                        for i in range(n))
        subsets.append(Subset(f"subset {j + 1}", members))
    return subsets


PairValue = namedtuple("PairValue", "id_a id_b value")
PairValue.__doc__ = """One metric's float value for the programs of two entry ids."""


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


SubsetSummary = namedtuple("SubsetSummary", "label pairs mean")
SubsetSummary.__doc__ = """A subset's list of :class:`PairValue` and their float mean."""


GroupingResult = namedtuple("GroupingResult", "scheme subsets mean")
GroupingResult.__doc__ = """A scheme's list of :class:`SubsetSummary` and the mean
of their means."""


MetricStudy = namedtuple("MetricStudy", "kind groupings td_mean normalized")
MetricStudy.__doc__ = """One :class:`MetricKind`'s results over every grouping of
one dataset: dicts from grouping labels to a :class:`GroupingResult` and to
an index. An index of ``None`` flags a degenerate cell (a zero distance
group or baseline that cannot be normalized)."""


StudyReport = namedtuple("StudyReport", "dataset programmers applications strides metrics")
StudyReport.__doc__ = """One dataset's study: its name, label and stride lists, and
a dict from :class:`MetricKind` to :class:`MetricStudy`."""


def build_universes(features: Mapping[str, ProgramFeatures]) -> dict[int, frozenset[NGram]]:
    """Corpus-wide pattern universes for n = 2 and 3: the union of every
    program's patterns of that length."""
    return {2: frozenset().union(*(f.patterns2.patterns for f in features.values())),
            3: frozenset().union(*(f.patterns3.patterns for f in features.values()))}


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
    strides = check_strides(grid, strides)
    entries = grid.entries
    programs = [features.get(entry.id) for entry in entries]
    for entry, entry_features in zip(entries, programs):
        if entry_features is None:
            raise ValueError(f"no features for program {entry.id!r}")
        if not entry_features.frequency:
            raise EmptyProgramError(f"program {entry.id!r} has no instructions",
                                    entity=entry.id)

    schemes = [PROGRAMMER_SPECIFIC, APPLICATION_SPECIFIC]
    schemes += [totally_different(s) for s in strides]

    # each subset's pairs as two id columns; one pair_values call per metric scores
    # every subset's pairs (as positions in entries), dealt back in that order
    subsets = [(scheme, [(subset.label, *zip(*combinations([m.id for m in subset.members], 2)))
                         for subset in enumerate_subsets(grid, scheme)])
               for scheme in schemes]
    position = {entry.id: k for k, entry in enumerate(entries)}
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


SuiteSummary = namedtuple("SuiteSummary", "means normalized")
SuiteSummary.__doc__ = """Cross-dataset averages and normalized indices (None if
degenerate) for one :class:`MetricKind`, as dicts keyed by column label."""


StudySuite = namedtuple("StudySuite", "reports summary")
StudySuite.__doc__ = """A list of :class:`StudyReport` and a dict from
:class:`MetricKind` to :class:`SuiteSummary`."""


def build_suite(reports: Sequence[StudyReport]) -> StudySuite:
    """Aggregate per-dataset reports into cross-dataset summary rows.

    Programmer/application columns average their per-dataset group means;
    the totally-different column pools every (dataset, stride) grouping
    mean, matching the balanced-design pooled mean. ``run_study`` derives
    each report's own td_mean and normalized cells the same way.
    """
    if not reports:
        raise ValueError("cannot summarize zero reports")
    summary = {kind: SuiteSummary(*_summary(
                   [r.metrics[kind].groupings for r in reports], kind))
               for kind in METRIC_ORDER}
    return StudySuite(list(reports), summary)
