"""GNU-syntax assembly parsing and basic-block segmentation.

The parser keeps just enough structure for instruction-level similarity
work: normalized mnemonics, the raw operand text, label positions, and the
sorted basic-block starts that keep instruction patterns from crossing
control-flow edges. Its records are immutable named tuples; a
:class:`ParserConfig` checks its values when constructed, so a changed copy
is built through the class, never with ``_replace``, which skips the checks.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import compress, count, repeat
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

# The ten characters at which str.splitlines ends a line ("\r\n" is two
# of them); a comment runs up to the first of them.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_REST_OF_LINE = "[^" + _LINE_BREAKS + "]*"

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
        for m in sorted(self.branch_mnemonics):
            # parse_assembly lowercases a mnemonic and strips .n/.w, so no other
            # name can match; "" would make every condition suffix a branch
            if not _MNEMONIC_RE.fullmatch(m) or m != m.lower() or m.endswith((".n", ".w")):
                raise InputError(f"branch mnemonic {m!r} can never match: it must be a "
                                 "lowercase mnemonic without a .n or .w suffix")
        if any(not m or m.isspace() or not set(_LINE_BREAKS).isdisjoint(m)
               for m in self.comment_markers):
            # "" is found at column 0 and would strip every line, and " " every
            # operand; a comment ends at its line's end, so a marker holding a
            # line break never matches
            raise InputError("a comment marker must hold a non-space character "
                             "and no line break")
        return self


@lru_cache(maxsize=32)
def branch_set(branch_mnemonics: frozenset[str]) -> frozenset[str]:
    """Branch mnemonics, bare and with every condition suffix."""
    return branch_mnemonics | {b + s for b in branch_mnemonics for s in CONDITION_SUFFIXES}


@lru_cache(maxsize=32)
def comment_cutters(comment_markers: frozenset[str]) -> tuple[re.Pattern[str], ...]:
    """Patterns whose ``sub(" ", text)`` passes, applied in order, cut every
    line of ``text`` at its earliest comment marker. The space keeps a
    line that held only a comment, so a ``"\\r"`` and a ``"\\n"`` around it
    stay two line breaks.

    One literal pass per marker makes that cut unless a marker can begin
    inside another (a pass would cut the other's earlier occurrence in two)
    or ends in a space (it could match the space a pass leaves); such sets
    get one pass for all markers.
    """
    markers = sorted(comment_markers)
    if not any(m.endswith(" ") for m in markers) and not any(
            a != b and (b[k:].startswith(a) or a.startswith(b[k:]))
            for a in markers for b in markers for k in range(1, len(b))):
        return tuple(re.compile(re.escape(m) + _REST_OF_LINE) for m in markers)
    return (re.compile("(?:" + "|".join(map(re.escape, markers)) + ")" + _REST_OF_LINE),)


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
    recorded in ``diagnostics`` otherwise; a message quotes the raw line,
    comment included. Any line-ending convention is accepted.

    Comments are cut once per file, by the :func:`comment_cutters` passes,
    before the text is split into lines. Every cut leaves a trailing space,
    so a cut line that does not end in one is its raw line and quotes it;
    the raw text is split again only when a diagnosed line ends in a space.

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
    memo = _MNEMONIC_MEMO

    lines = _cut_lines(text, config.comment_markers)
    for line_no, head in enumerate(map(str.split, lines, repeat(None), repeat(1)), start=1):
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
                    problem = ""  # quotes the raw line, after the loop
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
                diagnostics.append((line_no, problem))
                if config.strict:
                    break
            if mnemonic is None:
                continue
        add_mnemonic(mnemonic)
        add_operands(head[1].rstrip() if len(head) > 1 else "")

    if any(not problem and lines[line_no - 1].endswith(" ")
           for line_no, problem in diagnostics):
        del lines  # never held together with the raw lines
        lines = text.splitlines()
    diagnostics = [(line_no, problem or f"unclassifiable line: {lines[line_no - 1].strip()!r}")
                   for line_no, problem in diagnostics]
    if config.strict and diagnostics:
        line_no, message = diagnostics[0]
        raise ParseError(message, entity=f"{source_name}:{line_no}")
    return AssemblyProgram(mnemonics, operands, labels, diagnostics)


def _cut_lines(text: str, comment_markers: frozenset[str]) -> list[str]:
    """The lines of ``text``, each cut at its earliest comment marker."""
    for cutter in comment_cutters(comment_markers):
        text = cutter.sub(" ", text)
    return text.splitlines()


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
                         config: ParserConfig = DEFAULT_CONFIG) -> list[int]:
    """The sorted starts of a program's basic blocks, found with the classic
    leader algorithm: each block runs up to the next start, the last one to
    the end of the program; an empty program has none.

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
    starts = sorted({0, *map(labels.__getitem__, named), *map((1).__add__, branches)})
    # a label at the end or a last branch names the end, which starts no block
    if starts[-1] >= len(mnemonics):
        starts.pop()
    return starts


def linear_blocks(program: AssemblyProgram) -> list[int]:
    """The block starts of the whole program as one block, for patterns that
    are deliberately blind to control flow (sensitivity checks)."""
    return [0][:len(program.mnemonics)]
