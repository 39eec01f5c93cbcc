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
import re

from asmsim.asm_parser import AssemblyProgram, ParserConfig
from asmsim.corpus import (CorpusGrid, GroupingResult, MetricStudy,
                           PairValue, StudyReport, StudySuite, SubsetSummary,
                           SuiteSummary, GroupingScheme, GroupingKind,
                           APPLICATION_SPECIFIC, PROGRAMMER_SPECIFIC, TD_LABEL,
                           totally_different)
from asmsim.errors import ParseError
from asmsim.metrics import METRIC_ORDER, MetricKind


# --- assembly text -------------------------------------------------------------

def canonical_source(program: AssemblyProgram) -> str:
    """Serialize back to assembly text.

    Parsing the result again yields the same instruction stream (labels
    and diagnostics are dropped).
    """
    return "".join(f"\t{mnemonic} {operands}".rstrip() + "\n"
                   for mnemonic, operands in zip(program.mnemonics, program.operands))


ORACLE_MNEMONIC_RE = re.compile(r"^[A-Za-z][A-Za-z0-9._]*$")
ORACLE_LABEL_RE = re.compile(r"^(?:[A-Za-z_.$][A-Za-z0-9_.$]*|[0-9]+)$")


def oracle_strip_comment(line: str, markers) -> str:
    """The line up to the earliest occurrence of any comment marker."""
    cut = len(line)
    for marker in markers:
        pos = line.find(marker)
        if pos != -1 and pos < cut:
            cut = pos
    return line[:cut]


def oracle_parse(text: str, config: ParserConfig, *,
                 source_name: str = "<asm>") -> AssemblyProgram:
    """Classify every line on its own, with no memo: strip the comment by
    a per-marker ``find``, split off the first token, take leading labels
    one by one, then a directive, an instruction or a diagnostic."""
    mnemonics: list[str] = []
    operands: list[str] = []
    labels: dict[str, int] = {}
    diagnostics: list[tuple[int, str]] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        rest = oracle_strip_comment(raw_line, config.comment_markers).strip()
        problem = None

        head = rest.split(maxsplit=1)
        while head and head[0].endswith(":"):
            name = head[0][:-1]
            if not ORACLE_LABEL_RE.match(name):
                problem = f"malformed label {head[0]!r}"
                break
            labels[name] = len(mnemonics)
            head = head[1].split(maxsplit=1) if len(head) > 1 else []

        if problem is None and head and not head[0].startswith("."):
            if not ORACLE_MNEMONIC_RE.match(head[0]):
                problem = f"unclassifiable line: {raw_line.strip()!r}"
            else:
                mnemonic = head[0].lower()
                if mnemonic.endswith((".n", ".w")):
                    mnemonic = mnemonic[:-2]
                mnemonics.append(mnemonic)
                operands.append(head[1] if len(head) > 1 else "")

        if problem is not None:
            if config.strict:
                raise ParseError(problem, entity=f"{source_name}:{line_no}")
            diagnostics.append((line_no, problem))

    return AssemblyProgram(mnemonics, operands, labels, diagnostics)


# --- naive basic blocks -------------------------------------------------------

ORACLE_BRANCHES = ("b", "bl", "blx", "bx", "cbz", "cbnz", "tbb", "tbh")
ORACLE_CONDITIONS = ("eq", "ne", "cs", "hs", "cc", "lo", "mi", "pl",
                     "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le", "al")


def oracle_is_branch(mnemonic: str, operands: str) -> bool:
    """A branch mnemonic, bare or with one condition suffix, or a ``pop``
    whose register list holds ``pc``."""
    if mnemonic == "pop":
        return "pc" in re.findall(r"\w+", operands.lower())
    return any(mnemonic in (b, *(b + c for c in ORACLE_CONDITIONS))
               for b in ORACLE_BRANCHES)


def oracle_names(operands: str, label: str) -> bool:
    """True if ``label`` appears in ``operands`` as a whole word."""
    word = r"[\w.$]"
    return re.search(f"(?<!{word}){re.escape(label)}(?!{word})", operands) is not None


def oracle_blocks(program: AssemblyProgram) -> list[int]:
    """Basic-block starts from the leader rules, deciding index by index: an
    instruction starts a block if it is the first, if it follows a branch,
    or if a label at its index is named by some branch."""
    instructions = list(zip(program.mnemonics, program.operands))
    branches = [operands for mnemonic, operands in instructions
                if oracle_is_branch(mnemonic, operands)]
    targets = {index for label, index in program.labels.items()
               if any(oracle_names(operands, label) for operands in branches)}
    return [i for i in range(len(instructions))
            if i == 0 or oracle_is_branch(*instructions[i - 1]) or i in targets]


# --- LLVM machine blocks ------------------------------------------------------

# llc starts a machine block that a branch names with a ``.LBBn_m:`` label, and
# any other one (a function's entry, a fall-through) with an ``@ %bb.N:`` line.
LLVM_BLOCK_MARK_RE = re.compile(r"\.LBB\d+_\d+:|\s*@ %bb\.\d+:")


def llvm_block_starts(text: str) -> list[int]:
    """The instruction index at which each machine block of llc's output
    starts, read from the block marks of its raw lines, counting instructions
    line by line with :func:`oracle_parse`. A block of data only (a jump table
    or a literal pool) at the end of the text starts at no instruction."""
    starts, count = set(), 0
    for line in text.splitlines():
        if LLVM_BLOCK_MARK_RE.match(line):
            starts.add(count)
        count += len(oracle_parse(line, ParserConfig()).mnemonics)
    return sorted(start for start in starts if start < count)


def after_branches(program: AssemblyProgram) -> list[int]:
    """Every instruction index that follows a branch-class instruction."""
    return [i for i in range(1, len(program.mnemonics))
            if oracle_is_branch(program.mnemonics[i - 1], program.operands[i - 1])]


# --- llvm-mc listings ----------------------------------------------------------

# The fixup kinds of Thumb branches (b, conditional b, bl, blx, cbz/cbnz); the
# others (literal-pool loads, movw/movt) name data or addresses, not code.
LLVM_MC_BRANCH_FIXUPS = frozenset({
    "fixup_arm_thumb_br", "fixup_arm_thumb_bcc", "fixup_t2_uncondbranch",
    "fixup_t2_condbranch", "fixup_arm_thumb_bl", "fixup_arm_thumb_blx",
    "fixup_arm_thumb_cb"})
LLVM_MC_FIXUP_RE = re.compile(r"\s*@\s+fixup \w+ - offset: \d+, value: (\S+), kind: (\w+)$")
LLVM_MC_LABEL_RE = re.compile(r"([^\s:@]+):")
MC_BRANCHES = frozenset(branch + condition
                        for branch in ORACLE_BRANCHES
                        for condition in ("", *ORACLE_CONDITIONS))


def mc_ends_block(mnemonic: str, operands: str) -> bool:
    """ROADMAP item 5's rule for an instruction as ``llvm-mc`` prints it: a branch
    (b, bl, blx, bx, cbz, cbnz, tbb or tbh, bare or with a condition suffix), or
    a write to pc: pc first among the operands (``mov pc, lr``, ``ldr pc, [sp]``)
    of anything but a store or a compare, or in the list that ``pop`` or
    ``ldm`` loads."""
    base = mnemonic.lower().split(".")[0]  # without a .w or .n width
    if base in MC_BRANCHES:
        return True
    if base.startswith(("pop", "ldm")):
        return "pc" in re.findall(r"\w+", operands.lower())
    return (operands.lower().split(",")[0].strip() == "pc"
            and not base.startswith(("str", "cmp", "cmn", "tst", "teq")))


def llvm_mc_blocks(listing: str) -> tuple[int, list[int]]:
    """The instruction count and the basic-block starts of an
    ``llvm-mc -show-encoding`` listing. Its instructions are the lines that
    carry an ``@ encoding:`` and are no data directive; llvm-mc has resolved
    every label (a numeric local label ``1:`` becomes ``.LtmpN``), so a branch's
    target is the ``value`` of its branch-kind ``fixup`` line, and the leaders
    are the first instruction, each label that a branch names and each
    instruction after one that :func:`mc_ends_block` holds ends a block."""
    labels: dict[str, int] = {}
    instructions: list[tuple[str, str]] = []
    targets: list[str] = []
    for line in listing.splitlines():
        fixup = LLVM_MC_FIXUP_RE.match(line)
        label = LLVM_MC_LABEL_RE.match(line)
        code, encoded, _ = line.partition("@ encoding:")
        if fixup:
            if fixup[2] in LLVM_MC_BRANCH_FIXUPS:
                targets.append(fixup[1])
        elif label:
            labels[label[1]] = len(instructions)
        elif encoded and not code.strip().startswith("."):
            mnemonic, _, operands = code.strip().partition("\t")
            instructions.append((mnemonic, operands))
    count = len(instructions)
    starts = {0, *(labels[target] for target in targets if target in labels),
              *(i + 1 for i, instruction in enumerate(instructions)
                if mc_ends_block(*instruction))}
    return count, sorted(start for start in starts if start < count)


# --- naive feature extraction ------------------------------------------------

def oracle_ngrams(program: AssemblyProgram, starts: list[int], n: int) -> tuple:
    """Enumerate every run of n consecutive instruction indices and keep
    the windows that lie inside one block; block ``k`` spans ``starts[k]``
    up to the next start or the end of the program. Each distinct window is
    listed once, at its first occurrence."""
    mnemonics = program.mnemonics
    spans = list(zip(starts, [*starts[1:], len(mnemonics)]))
    found = []
    for i in range(len(mnemonics) - n + 1):
        window = tuple(mnemonics[i:i + n])
        if any(start <= i and i + n <= end for start, end in spans) and window not in found:
            found.append(window)
    return tuple(found)


def oracle_features(program: AssemblyProgram, starts: list[int]) -> dict:
    mnemonics = program.mnemonics
    freq: dict[str, int] = {}
    for m in mnemonics:
        freq[m] = freq.get(m, 0) + 1
    return {
        "existence": set(mnemonics),
        "freq": freq,
        2: set(oracle_ngrams(program, starts, 2)),
        3: set(oracle_ngrams(program, starts, 3)),
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


def exact_cosine(a: dict, b: dict) -> float:
    """Cosine from exact integers: the dot product and both squared norms over the
    union of keys, then one square root of the product of the norms."""
    keys = set(a) | set(b)
    if all(a.get(k, 0) == b.get(k, 0) for k in keys):
        return 1.0
    dot = sum(a.get(k, 0) * b.get(k, 0) for k in keys)
    norm_sq_a = sum(a.get(k, 0) ** 2 for k in keys)
    norm_sq_b = sum(b.get(k, 0) ** 2 for k in keys)
    return min(max(dot / math.sqrt(norm_sq_a * norm_sq_b), 0.0), 1.0)


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

    The result is packed into the package's report records so the
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
        summary[kind] = SuiteSummary(means, normalized)
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
POPS = ("\tpop {r4, pc}", "\tPOP {r4, PC}", "\tpop {r4, r5}", "\tpop {pcsr}")
TABLE_BRANCHES = ("\ttbb [pc, r0]", "\tTBH.W [pc, r1, lsl #1]")


def random_program_text(rng: random.Random, max_instructions: int = 20) -> str:
    """Assembly text with random labels and branch structure, including
    ``pop`` with and without ``pc`` in any case (``POP {r4, PC}``,
    ``pop {pcsr}``), table branches (``tbb``, ``TBH.W``), and two branches
    in a row whose operand texts end and begin with label characters."""
    count = rng.randint(1, max_instructions)
    label_names = [f".L{k}" for k in range(rng.randint(0, 4))]
    label_at = {name: rng.randint(0, count) for name in label_names}

    def branch() -> str:
        target = rng.choice(label_names) if label_names and rng.random() < 0.7 else "external"
        return f"\t{rng.choice(COND_BRANCHES)} {target}"

    body: list[str] = []
    while len(body) < count:
        roll = rng.random()
        if roll < 0.55:
            mnemonic = rng.choice(PLAIN_MNEMONICS)
            body.append(f"\t{mnemonic} r{rng.randint(0, 7)}, r{rng.randint(0, 7)}")
        elif roll < 0.72:
            body.append(branch())
        elif roll < 0.80:
            body += [branch(), branch()][:count - len(body)]
        elif roll < 0.88:
            body.append(f"\tcbz r{rng.randint(0, 7)}, "
                        f"{rng.choice(label_names) if label_names else 'external'}")
        elif roll < 0.94:
            body.append("\tbx lr")
        else:
            body.append(rng.choice((*POPS, *TABLE_BRANCHES)))

    lines = []
    for index, line in enumerate([*body, None]):
        lines += [f"{name}:" for name in label_names if label_at[name] == index]
        if line is not None:
            lines.append(line)
    return "\n".join(lines) + "\n"


LISTING_LINES = (
    "\tLDR.W r0, [r1]", "\tldr.w r2, [r3, #4]", "\tldr r4, .LC0",
    "\tmov r0, r1 @ copy", "\tadds r0, #1 // bump", "\tcmp r0, #3 ; limit",
    "\tsub r0, r1 # note", "@ whole-line comment", "// another", "; custom",
    "# custom", "\t.align 2", ".text", "\t.word 12 @ literal",
    "a: b: c: movs r0, #1", ".L1: .L2:", "lit: .word 7", "1: bne 1b",
    "1abc r0", "bad label: nop", ":", "\t!!! junk", "\tVCVT.F32.S32 s0, s0",
    "\tmov r0, r1   \t", "", "   ", "\tnop", "#APP", '# 12 "a.c" 1', "\t# x",
    "\t!!! junk @ note", "\tmov r0, r1 #! note",
)
LINE_BREAKS = ("\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x85", "\u2028")


def random_listing_text(rng: random.Random, max_lines: int = 30) -> str:
    """A listing that mixes every line kind the parser classifies: ``@``,
    ``//`` and custom-marker (``#``, ``;``) comments, GNU ``as`` line markers
    (``#APP``, ``# 12 "a.c" 1``) and an indented ``#``, several labels before
    one instruction, width-qualified and case-mixed mnemonics, directives,
    malformed labels and lines (one with a comment, which a diagnostic
    quotes), a line whose cut at one marker leaves another (``#! note``),
    blank and trailing-space lines, and ``\\r\\n``, ``\\r``, ``\\x0c``, ``\\x85``
    and ``\\u2028`` line breaks."""
    lines = [rng.choice(LISTING_LINES) for _ in range(rng.randint(0, max_lines))]
    for line in LISTING_LINES[:3]:  # one mnemonic in three spellings
        lines.insert(rng.randint(0, len(lines)), line)
    lines += [""] * rng.randint(0, 2)  # trailing blank lines
    return "".join(line + rng.choice(LINE_BREAKS) for line in lines)
