"""GNU-syntax assembly parsing and basic-block segmentation.

The parser keeps just enough structure for instruction-level similarity
work: normalized mnemonics, the raw operand text, label positions, and the
basic-block boundaries needed to keep instruction patterns from crossing
control-flow edges. Its records are immutable named tuples; a
:class:`ParserConfig` checks its values when constructed, so a changed copy
is built through the class, never with ``_replace``, which skips the checks.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import compress, count
from typing import NamedTuple, Sequence

from .errors import InputError, ParseError

# ARM condition-code suffixes. A branch mnemonic followed by one of these
# (beq, bls, blxne, ...) is still a branch; anything else (bic, bkpt) is not.
CONDITION_SUFFIXES = frozenset({
    "eq", "ne", "cs", "hs", "cc", "lo", "mi", "pl",
    "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le", "al",
})

# Control-transfer mnemonics for ARM Thumb. `pop {... pc}` also transfers
# control but only when pc is in the register list, so it is a rule in
# _OPERAND_BRANCHES rather than listed here.
DEFAULT_BRANCH_MNEMONICS = frozenset({"b", "bl", "blx", "bx", "cbz", "cbnz"})

# Mnemonics that transfer control only when their lowercased operands
# match a pattern: `pop` with pc in its register list.
_OPERAND_BRANCHES = {"pop": re.compile(r"\bpc\b")}

# GNU ARM syntax: `@` and `//` introduce comments; `#` introduces an
# immediate operand and must never be treated as a comment.
DEFAULT_COMMENT_MARKERS = frozenset({"@", "//"})

_MNEMONIC_RE = re.compile(r"^[A-Za-z][A-Za-z0-9._]*$")
_LABEL_RE = re.compile(r"^(?:[A-Za-z_.$][A-Za-z0-9_.$]*|[0-9]+)$")
_OPERAND_TOKEN_RE = re.compile(r"[A-Za-z_.$][A-Za-z0-9_.$]*")

# Raw first token -> interned mnemonic for every parse_assembly call; an
# entry depends on its token alone, never on a ParserConfig.
_MNEMONIC_MEMO: dict[str, str] = {}
_MEMO_LIMIT = 4096


class _ParserFields(NamedTuple):
    comment_markers: frozenset[str] = DEFAULT_COMMENT_MARKERS
    branch_mnemonics: frozenset[str] = DEFAULT_BRANCH_MNEMONICS
    strict: bool = False


class ParserConfig(_ParserFields):
    """Knobs for parsing and block segmentation, checked when constructed."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ParserConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not self.branch_mnemonics:
            raise InputError("branch_mnemonics must not be empty")
        if "" in self.comment_markers:
            # "" is found at column 0 and would strip every line
            raise InputError("comment_markers must not contain an empty marker")
        return self


@lru_cache(maxsize=32)
def branch_set(branch_mnemonics: frozenset[str]) -> frozenset[str]:
    """Branch mnemonics, bare and with every condition suffix."""
    return branch_mnemonics | {b + s for b in branch_mnemonics for s in CONDITION_SUFFIXES}


@lru_cache(maxsize=32)
def comment_re(comment_markers: frozenset[str]) -> re.Pattern[str]:
    """The comment markers as one pattern; its first match starts the
    comment. With no markers it never matches."""
    return re.compile("|".join(map(re.escape, sorted(comment_markers))) or "(?!)")


DEFAULT_CONFIG = ParserConfig()


class AssemblyProgram(NamedTuple):
    """Parsed instruction stream, one list per field: instruction ``i`` is
    ``mnemonics[i]`` with operand text ``operands[i]``.

    ``labels`` maps a label name to the index of the instruction that
    follows it; a label at end of file maps to ``len(mnemonics)``.
    ``diagnostics`` records (line_no, message) for lines skipped in
    lenient mode.
    """

    mnemonics: list[str]
    operands: list[str]
    labels: dict[str, int]
    diagnostics: Sequence[tuple[int, str]] = ()

    @property
    def instructions(self) -> list[tuple[str, str]]:
        """(mnemonic, operands) rows, built anew on every read; kept for
        ``bench/``, which takes their count."""
        return list(zip(self.mnemonics, self.operands))


class BasicBlock(NamedTuple):
    """A maximal straight-line run of instructions: the half-open span
    ``program.mnemonics[start_index:end_index]``."""

    start_index: int
    end_index: int


def parse_assembly(text: str, config: ParserConfig = DEFAULT_CONFIG, *,
                   source_name: str = "<asm>") -> AssemblyProgram:
    """Parse GNU-syntax assembly text into an instruction stream.

    Each line is classified exactly once, after inline comments are
    stripped: blank, comment, directive (first non-space char ``.``),
    label definition (token ending ``:``, possibly followed by more labels
    or an instruction on the same line), or instruction. An instruction's
    mnemonic is its first token, lowercased, with a trailing ``.n``/``.w``
    width qualifier stripped; the rest of the line is kept verbatim as
    its ``operands`` entry.

    Unclassifiable lines raise :class:`ParseError` in strict mode and are
    recorded in ``diagnostics`` otherwise. Any line-ending convention is
    accepted.

    All calls share one memo from a raw first token to its mnemonic,
    emptied at ``_MEMO_LIMIT`` tokens; only tokens ``_MNEMONIC_RE`` has
    accepted enter it, so a line starting with a memoised token is an
    instruction with no further checks. An instruction line costs one
    append to each of the program's two lists and builds no row.
    """
    mnemonics: list[str] = []
    operands: list[str] = []
    labels: dict[str, int] = {}
    diagnostics: list[tuple[int, str]] = []
    add_mnemonic, add_operands = mnemonics.append, operands.append
    comment = comment_re(config.comment_markers).search
    memo = _MNEMONIC_MEMO

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        cut = comment(raw_line)
        rest = (raw_line[:cut.start()] if cut else raw_line).strip()
        head = rest.split(None, 1)
        mnemonic = memo.get(head[0]) if head else None
        if mnemonic is None:  # not a memoised instruction: classify the line
            problem: str | None = None
            while head and head[0].endswith(":"):
                name = head[0][:-1]
                if not _LABEL_RE.match(name):
                    problem = f"malformed label {head[0]!r}"
                    break
                labels[name] = len(mnemonics)
                head = head[1].split(None, 1) if len(head) > 1 else []

            # a directive (first char ".") contributes no instruction
            if problem is None and head and not head[0].startswith("."):
                if not _MNEMONIC_RE.match(head[0]):
                    problem = f"unclassifiable line: {raw_line.strip()!r}"
                else:
                    mnemonic = head[0].lower()
                    if mnemonic.endswith((".n", ".w")):
                        mnemonic = mnemonic[:-2]
                    if len(memo) >= _MEMO_LIMIT:
                        memo.clear()
                    # one str object per distinct mnemonic, so pattern tuples
                    # compare by identity in the pair scorers' set intersections
                    mnemonic = memo[head[0]] = sys.intern(mnemonic)

            if problem is not None:
                if config.strict:
                    raise ParseError(problem, entity=f"{source_name}:{line_no}")
                diagnostics.append((line_no, problem))
            if mnemonic is None:
                continue
        add_mnemonic(mnemonic)
        add_operands(head[1] if len(head) > 1 else "")

    return AssemblyProgram(mnemonics, operands, labels, diagnostics)


def is_branch(mnemonic: str, operands_raw: str,
              config: ParserConfig = DEFAULT_CONFIG) -> bool:
    """True if the instruction can transfer control away from the next line:
    its mnemonic is in ``branch_set(config.branch_mnemonics)``, or has an
    ``_OPERAND_BRANCHES`` rule that its operands match."""
    rule = _OPERAND_BRANCHES.get(mnemonic)
    if rule is not None:
        return rule.search(operands_raw.lower()) is not None
    return mnemonic in branch_set(config.branch_mnemonics)


def segment_basic_blocks(program: AssemblyProgram,
                         config: ParserConfig = DEFAULT_CONFIG) -> list[BasicBlock]:
    """Split a program into basic blocks with the classic leader algorithm.

    Leaders are: instruction 0; every instruction at a label index where
    that label is named in the operands of some branch-class instruction;
    and every instruction immediately after a branch-class instruction.
    Labels never referenced by a branch do not create leaders. Indirect
    branches (bx, blx, pop {...pc}) terminate blocks but contribute no
    leader targets.

    One C-level scan of ``program.mnemonics`` finds the branch candidates;
    :func:`is_branch` runs on those only, and one regex scan over the
    branches' operands, joined with ``"\\n"`` so that no token spans two
    of them, finds the labels they name.
    """
    mnemonics, operands, labels = program.mnemonics, program.operands, program.labels
    candidates = (branch_set(config.branch_mnemonics) | _OPERAND_BRANCHES.keys()).__contains__
    branches = [i for i in compress(count(), map(candidates, mnemonics))
                if is_branch(mnemonics[i], operands[i], config)]
    named = labels.keys() & _OPERAND_TOKEN_RE.findall("\n".join(map(operands.__getitem__,
                                                                   branches)))
    # the end closes the last block
    starts = sorted({0, len(mnemonics), *map(labels.__getitem__, named),
                     *map((1).__add__, branches)})
    return list(map(BasicBlock, starts, starts[1:]))


def linear_blocks(program: AssemblyProgram) -> list[BasicBlock]:
    """The whole program as one block, for pattern extraction that is
    deliberately blind to control flow (sensitivity checks)."""
    if not program.mnemonics:
        return []
    return [BasicBlock(0, len(program.mnemonics))]
