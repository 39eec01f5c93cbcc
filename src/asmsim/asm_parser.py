"""GNU-syntax assembly parsing and basic-block segmentation.

The parser keeps just enough structure for instruction-level similarity
work: normalized mnemonics, the raw operand text, label positions, and the
basic-block boundaries needed to keep instruction patterns from crossing
control-flow edges.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import ParseError

# ARM condition-code suffixes. A branch mnemonic followed by one of these
# (beq, bls, blxne, ...) is still a branch; anything else (bic, bkpt) is not.
CONDITION_SUFFIXES = frozenset({
    "eq", "ne", "cs", "hs", "cc", "lo", "mi", "pl",
    "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le", "al",
})

# Control-transfer mnemonics for ARM Thumb. `pop {... pc}` also transfers
# control but only when pc is in the register list, so it is handled in
# is_branch() rather than listed here.
DEFAULT_BRANCH_MNEMONICS = frozenset({"b", "bl", "blx", "bx", "cbz", "cbnz"})

# GNU ARM syntax: `@` and `//` introduce comments; `#` introduces an
# immediate operand and must never be treated as a comment.
DEFAULT_COMMENT_MARKERS = frozenset({"@", "//"})

_MNEMONIC_RE = re.compile(r"^[A-Za-z][A-Za-z0-9._]*$")
_LABEL_RE = re.compile(r"^(?:[A-Za-z_.$][A-Za-z0-9_.$]*|[0-9]+)$")
_OPERAND_TOKEN_RE = re.compile(r"[A-Za-z_.$][A-Za-z0-9_.$]*")
_PC_RE = re.compile(r"\bpc\b")


@dataclass(frozen=True)
class ParserConfig:
    """Knobs for parsing and block segmentation."""

    comment_markers: frozenset[str] = DEFAULT_COMMENT_MARKERS
    branch_mnemonics: frozenset[str] = DEFAULT_BRANCH_MNEMONICS
    strict: bool = False

    def __post_init__(self) -> None:
        if not self.branch_mnemonics:
            raise ValueError("branch_mnemonics must not be empty")

    @cached_property
    def branch_set(self) -> frozenset[str]:
        """Branch mnemonics, bare and with every condition suffix."""
        return self.branch_mnemonics | {b + s for b in self.branch_mnemonics
                                        for s in CONDITION_SUFFIXES}


DEFAULT_CONFIG = ParserConfig()


class Instruction(NamedTuple):
    """One instruction: lowercase mnemonic, uninterpreted operand text."""

    mnemonic: str
    operands_raw: str
    line_no: int


@dataclass
class AssemblyProgram:
    """Parsed instruction stream.

    ``labels`` maps a label name to the index of the instruction that
    follows it; a label at end of file maps to ``len(instructions)``.
    ``diagnostics`` records (line_no, message) for lines skipped in
    lenient mode.
    """

    instructions: list[Instruction]
    labels: dict[str, int]
    diagnostics: list[tuple[int, str]] = field(default_factory=list)


class BasicBlock(NamedTuple):
    """A maximal straight-line run of instructions: the half-open span
    ``program.instructions[start_index:end_index]``."""

    start_index: int
    end_index: int


def _strip_comment(line: str, markers: frozenset[str]) -> str:
    cut = len(line)
    for marker in markers:
        pos = line.find(marker)
        if pos != -1 and pos < cut:
            cut = pos
    return line[:cut]


def parse_assembly(text: str, config: ParserConfig = DEFAULT_CONFIG, *,
                   source_name: str = "<asm>") -> AssemblyProgram:
    """Parse GNU-syntax assembly text into an instruction stream.

    Each line is classified exactly once, after inline comments are
    stripped: blank, comment, directive (first non-space char ``.``),
    label definition (token ending ``:``, possibly followed by more labels
    or an instruction on the same line), or instruction. An instruction's
    mnemonic is its first token, lowercased, with a trailing ``.n``/``.w``
    width qualifier stripped; the rest of the line is kept verbatim as
    ``operands_raw``.

    Unclassifiable lines raise :class:`ParseError` in strict mode and are
    recorded in ``diagnostics`` otherwise. Any line-ending convention is
    accepted.
    """
    instructions: list[Instruction] = []
    labels: dict[str, int] = {}
    diagnostics: list[tuple[int, str]] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        rest = _strip_comment(raw_line, config.comment_markers).strip()
        problem: str | None = None

        head = rest.split(maxsplit=1)
        while head and head[0].endswith(":"):
            name = head[0][:-1]
            if not _LABEL_RE.match(name):
                problem = f"malformed label {head[0]!r}"
                break
            labels[name] = len(instructions)
            head = head[1].split(maxsplit=1) if len(head) > 1 else []

        # a directive (first char ".") contributes no instruction
        if problem is None and head and not head[0].startswith("."):
            if not _MNEMONIC_RE.match(head[0]):
                problem = f"unclassifiable line: {raw_line.strip()!r}"
            else:
                mnemonic = head[0].lower()
                if mnemonic.endswith((".n", ".w")):
                    mnemonic = mnemonic[:-2]
                operands = head[1] if len(head) > 1 else ""
                # one str object per distinct mnemonic, so pattern tuples
                # compare by identity in the pair scorers' set intersections
                instructions.append(Instruction(sys.intern(mnemonic), operands, line_no))

        if problem is not None:
            if config.strict:
                raise ParseError(problem, entity=f"{source_name}:{line_no}")
            diagnostics.append((line_no, problem))

    return AssemblyProgram(instructions, labels, diagnostics)


def is_branch(instruction: Instruction, config: ParserConfig = DEFAULT_CONFIG) -> bool:
    """True if the instruction can transfer control away from the next line."""
    mnemonic = instruction.mnemonic
    if mnemonic == "pop":
        return bool(_PC_RE.search(instruction.operands_raw.lower()))
    return mnemonic in config.branch_set


def segment_basic_blocks(program: AssemblyProgram,
                         config: ParserConfig = DEFAULT_CONFIG) -> list[BasicBlock]:
    """Split a program into basic blocks with the classic leader algorithm.

    Leaders are: instruction 0; every instruction at a label index where
    that label is named in the operands of some branch-class instruction;
    and every instruction immediately after a branch-class instruction.
    Labels never referenced by a branch do not create leaders. Indirect
    branches (bx, blx, pop {...pc}) terminate blocks but contribute no
    leader targets.
    """
    instructions = program.instructions
    if not instructions:
        return []

    branch_flags = [is_branch(ins, config) for ins in instructions]

    referenced: set[str] = set()
    for ins, branching in zip(instructions, branch_flags):
        if not branching:
            continue
        for token in _OPERAND_TOKEN_RE.findall(ins.operands_raw):
            if token in program.labels:
                referenced.add(token)

    leaders = {0}
    for name in referenced:
        index = program.labels[name]
        if index < len(instructions):
            leaders.add(index)
    for i, branching in enumerate(branch_flags):
        if branching and i + 1 < len(instructions):
            leaders.add(i + 1)

    starts = sorted(leaders)
    return list(map(BasicBlock, starts, starts[1:] + [len(instructions)]))


def linear_blocks(program: AssemblyProgram) -> list[BasicBlock]:
    """The whole program as one block, for pattern extraction that is
    deliberately blind to control flow (sensitivity checks)."""
    if not program.instructions:
        return []
    return [BasicBlock(0, len(program.instructions))]
