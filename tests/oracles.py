"""Independent reference implementations used to cross-check the package.

Everything here recomputes results by direct enumeration or naive vector
materialization, deliberately avoiding the code paths under test, and
lays out the JSON report as plain dicts for ``json.dumps``. The oracle
study pipeline is also what generates the frozen golden report (see
gen_golden.py).
"""

from __future__ import annotations

import math
import random

from asmsim.asm_parser import AssemblyProgram, BasicBlock
from asmsim.corpus import (CorpusGrid, GroupingResult, MetricStudy,
                           PairValue, StudyReport, StudySuite, SubsetSummary,
                           SuiteSummary, GroupingScheme, GroupingKind,
                           APPLICATION_SPECIFIC, PROGRAMMER_SPECIFIC, TD_LABEL,
                           totally_different)
from asmsim.metrics import METRIC_ORDER, MetricKind


# --- assembly text -------------------------------------------------------------

def canonical_source(program: AssemblyProgram) -> str:
    """Serialize back to assembly text.

    Parsing the result again yields the same instruction stream (labels
    and diagnostics are dropped).
    """
    return "".join(f"\t{ins.mnemonic} {ins.operands_raw}".rstrip() + "\n"
                   for ins in program.instructions)


# --- naive feature extraction ------------------------------------------------

def oracle_ngrams(program: AssemblyProgram, blocks: list[BasicBlock], n: int) -> set:
    """Enumerate every run of n consecutive instruction indices and keep
    the windows that do not span a block boundary."""
    mnemonics = [ins.mnemonic for ins in program.instructions]
    spans = [(b.start_index, b.end_index) for b in blocks]
    found = set()
    for i in range(len(mnemonics) - n + 1):
        if any(start <= i and i + n <= end for start, end in spans):
            found.add(tuple(mnemonics[i:i + n]))
    return found


def oracle_features(program: AssemblyProgram, blocks: list[BasicBlock]) -> dict:
    mnemonics = [ins.mnemonic for ins in program.instructions]
    freq: dict[str, int] = {}
    for m in mnemonics:
        freq[m] = freq.get(m, 0) + 1
    return {
        "existence": set(mnemonics),
        "freq": freq,
        2: oracle_ngrams(program, blocks, 2),
        3: oracle_ngrams(program, blocks, 3),
    }


# --- naive metrics ------------------------------------------------------------

def naive_jaccard(s1, s2) -> float:
    s1, s2 = set(s1), set(s2)
    if not s1 and not s2:
        return 1.0
    common = sum(1 for m in s1 if m in s2)
    union = len(set(list(s1) + list(s2)))
    return common / union


def naive_cosine(a: dict, b: dict) -> float:
    keys = sorted(set(a) | set(b))
    va = [a.get(k, 0) for k in keys]
    vb = [b.get(k, 0) for k in keys]
    dot = sum(x * y for x, y in zip(va, vb))
    norm_a = math.sqrt(sum(x * x for x in va))
    norm_b = math.sqrt(sum(y * y for y in vb))
    return dot / (norm_a * norm_b)


def naive_euclidean(p1: set, p2: set, universe_patterns) -> float:
    ordered = sorted(set(universe_patterns))
    v1 = [1 if p in p1 else 0 for p in ordered]
    v2 = [1 if p in p2 else 0 for p in ordered]
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(v1, v2)))


def oracle_pair_value(kind: MetricKind, fa: dict, fb: dict, universes: dict) -> float:
    if kind is MetricKind.JACCARD:
        return naive_jaccard(fa["existence"], fb["existence"])
    if kind is MetricKind.COSINE:
        return naive_cosine(fa["freq"], fb["freq"])
    n = 2 if kind is MetricKind.EUCLIDEAN2 else 3
    return naive_euclidean(fa[n], fb[n], universes[n])


# --- naive grouping + aggregation ---------------------------------------------

def oracle_subset_members(grid: CorpusGrid, scheme: GroupingScheme) -> list[tuple[str, list]]:
    if scheme.kind is GroupingKind.APPLICATION_SPECIFIC:
        return [(a, [grid.cells[(a, p)] for p in grid.programmers])
                for a in grid.applications]
    if scheme.kind is GroupingKind.PROGRAMMER_SPECIFIC:
        return [(p, [grid.cells[(a, p)] for a in grid.applications])
                for p in grid.programmers]
    n = len(grid.programmers)
    apps = sorted(grid.applications)
    programmers = sorted(grid.programmers)
    out = []
    for j in range(n):
        members = [grid.cells[(apps[i], programmers[(j + scheme.stride * i) % n])]
                   for i in range(n)]
        out.append((f"subset {j + 1}", members))
    return out


def oracle_study_report(grid: CorpusGrid, features: dict, strides: list[int],
                        dataset_name: str) -> StudyReport:
    """Full study computed with the naive building blocks.

    The result is packed into the package's report dataclasses so the
    shared renderers can lay it out, but every number inside comes from
    this module.
    """
    universes = {
        n: set().union(*[features[pid][n] for pid in features]) if features else set()
        for n in (2, 3)
    }
    schemes = [PROGRAMMER_SPECIFIC, APPLICATION_SPECIFIC]
    schemes += [totally_different(s) for s in strides]

    metrics = {}
    for kind in METRIC_ORDER:
        groupings = {}
        td_means = []
        for scheme in schemes:
            summaries = []
            for label, members in oracle_subset_members(grid, scheme):
                pairs = []
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        a, b = members[i], members[j]
                        pairs.append(PairValue(a.id, b.id, oracle_pair_value(
                            kind, features[a.id], features[b.id], universes)))
                mean = sum(p.value for p in pairs) / len(pairs)
                summaries.append(SubsetSummary(label, pairs, mean))
            gmean = sum(s.mean for s in summaries) / len(summaries)
            groupings[scheme.label] = GroupingResult(scheme, summaries, gmean)
            if scheme.kind is GroupingKind.TOTALLY_DIFFERENT:
                td_means.append(gmean)
        td = sum(td_means) / len(td_means)
        normalized = {}
        for label in (PROGRAMMER_SPECIFIC.label, APPLICATION_SPECIFIC.label):
            group = groupings[label].mean
            if group <= 0 or td <= 0:
                normalized[label] = None
            elif kind.is_distance:
                normalized[label] = td / group
            else:
                normalized[label] = group / td
        normalized[TD_LABEL] = 1.0 if td > 0 else None
        metrics[kind] = MetricStudy(kind, groupings, td, normalized)
    return StudyReport(dataset_name, list(grid.programmers),
                       list(grid.applications), list(strides), metrics)


def oracle_suite(reports: list[StudyReport]) -> StudySuite:
    summary = {}
    for kind in METRIC_ORDER:
        ps_values = [r.metrics[kind].groupings[PROGRAMMER_SPECIFIC.label].mean
                     for r in reports]
        as_values = [r.metrics[kind].groupings[APPLICATION_SPECIFIC.label].mean
                     for r in reports]
        td_values = [g.mean for r in reports
                     for g in r.metrics[kind].groupings.values()
                     if g.scheme.kind is GroupingKind.TOTALLY_DIFFERENT]
        means = {
            PROGRAMMER_SPECIFIC.label: sum(ps_values) / len(ps_values),
            APPLICATION_SPECIFIC.label: sum(as_values) / len(as_values),
            TD_LABEL: sum(td_values) / len(td_values),
        }
        normalized = {}
        td = means[TD_LABEL]
        for label in (PROGRAMMER_SPECIFIC.label, APPLICATION_SPECIFIC.label):
            group = means[label]
            if group <= 0 or td <= 0:
                normalized[label] = None
            elif kind.is_distance:
                normalized[label] = td / group
            else:
                normalized[label] = group / td
        normalized[TD_LABEL] = 1.0 if td > 0 else None
        summary[kind] = SuiteSummary(kind, means, normalized)
    return StudySuite(list(reports), summary)


# --- report layout -------------------------------------------------------------

def report_to_dict(report: StudyReport) -> dict:
    """One dataset of the JSON report as plain data, for ``json.dumps``."""
    metrics = {}
    for kind in METRIC_ORDER:
        study = report.metrics[kind]
        groupings = {}
        for label, grouping in study.groupings.items():
            groupings[label] = {
                "mean": grouping.mean,
                "subsets": [
                    {
                        "label": subset.label,
                        "mean": subset.mean,
                        "pairs": [{"a": p.id_a, "b": p.id_b, "value": p.value}
                                  for p in subset.pairs],
                    }
                    for subset in grouping.subsets
                ],
            }
        metrics[kind.value] = {
            "groupings": groupings,
            "td_mean": study.td_mean,
            "normalized": dict(study.normalized),
        }
    return {
        "name": report.dataset,
        "programmers": report.programmers,
        "applications": report.applications,
        "strides": report.strides,
        "metrics": metrics,
    }


def suite_to_dict(suite: StudySuite, metadata=None) -> dict:
    """The JSON report's document: ``render_json`` must write exactly
    ``json.dumps(suite_to_dict(suite, metadata), indent=2) + "\\n"``."""
    return {
        "metadata": dict(metadata or {}),
        "datasets": [report_to_dict(report) for report in suite.reports],
        "summary": {
            kind.value: {
                "means": dict(suite.summary[kind].means),
                "normalized": dict(suite.summary[kind].normalized),
            }
            for kind in METRIC_ORDER
        },
    }


# --- random assembly generation -----------------------------------------------

PLAIN_MNEMONICS = ("mov", "movs", "add", "adds", "sub", "ldr", "str", "cmp",
                   "and", "orr", "eor", "lsl", "mul", "nop", "push")
COND_BRANCHES = ("b", "beq", "bne", "bge", "blt", "bls")


def random_program_text(rng: random.Random, max_instructions: int = 20) -> str:
    """Assembly text with random labels and branch structure."""
    count = rng.randint(1, max_instructions)
    label_names = [f".L{k}" for k in range(rng.randint(0, 4))]
    label_at = {name: rng.randint(0, count) for name in label_names}

    lines = []
    for index in range(count + 1):
        for name in label_names:
            if label_at[name] == index:
                lines.append(f"{name}:")
        if index == count:
            break
        roll = rng.random()
        if roll < 0.55:
            mnemonic = rng.choice(PLAIN_MNEMONICS)
            lines.append(f"\t{mnemonic} r{rng.randint(0, 7)}, r{rng.randint(0, 7)}")
        elif roll < 0.80:
            mnemonic = rng.choice(COND_BRANCHES)
            if label_names and rng.random() < 0.7:
                target = rng.choice(label_names)
            else:
                target = "external"
            lines.append(f"\t{mnemonic} {target}")
        elif roll < 0.88:
            lines.append(f"\tcbz r{rng.randint(0, 7)}, "
                         f"{rng.choice(label_names) if label_names else 'external'}")
        elif roll < 0.94:
            lines.append("\tbx lr")
        else:
            regs = "{r4, pc}" if rng.random() < 0.5 else "{r4, r5}"
            lines.append(f"\tpop {regs}")
    return "\n".join(lines) + "\n"
