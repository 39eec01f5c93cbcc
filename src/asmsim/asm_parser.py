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
from collections import namedtuple
from functools import lru_cache
from itertools import compress, count, repeat

from .errors import LINE_BREAKS, InputError, ParseError

# ARM condition-code suffixes. A branch mnemonic followed by one of these
# (beq, bls, blxne, ...) is still a branch; anything else (bic, bkpt) is not.
CONDITION_SUFFIXES = frozenset({
    "eq", "ne", "cs", "hs", "cc", "lo", "mi", "pl",
    "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le", "al",
})

# Control-transfer mnemonics for ARM Thumb. `pop {... pc}` branches only when
# pc is in its register list, so it is a row of _branch_rules instead.
DEFAULT_BRANCH_MNEMONICS = frozenset({"b", "bl", "blx", "bx", "cbz", "cbnz"})

# GNU ARM syntax: `@` and `//` introduce comments; `#` introduces an
# immediate operand and must never be treated as a comment.
DEFAULT_COMMENT_MARKERS = frozenset({"@", "//"})

_MNEMONIC_RE = re.compile(r"^[A-Za-z][A-Za-z0-9._]*$")
_LABEL_RE = re.compile(r"^(?:[A-Za-z_.$][A-Za-z0-9_.$]*|[0-9]+)$")
_OPERAND_TOKEN_RE = re.compile(r"[A-Za-z_.$][A-Za-z0-9_.$]*")

# a comment runs up to the first line break
_REST_OF_LINE = "[^" + LINE_BREAKS + "]*"

# Raw first token -> interned mnemonic for every parse_assembly call; an
# entry depends on its token alone, never on a ParserConfig.
_MNEMONIC_MEMO: dict[str, str] = {}
_MEMO_LIMIT = 4096


class ParserConfig(namedtuple("ParserConfig", "comment_markers branch_mnemonics strict",
                              defaults=(DEFAULT_COMMENT_MARKERS, DEFAULT_BRANCH_MNEMONICS,
                                        False))):
    """Knobs for parsing and block segmentation, checked when constructed;
    the marker and mnemonic sets are frozensets of strings."""

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
        if any(not m or m.isspace() or not set(LINE_BREAKS).isdisjoint(m)
               for m in self.comment_markers):
            # "" is found at column 0 and would strip every line, and " " every
            # operand; a comment ends at its line's end, so a marker holding a
            # line break never matches
            raise InputError("a comment marker must hold a non-space character "
                             "and no line break")
        return self


@lru_cache(maxsize=32)
def _branch_rules(branch_mnemonics: frozenset[str]) -> dict[str, re.Pattern[str] | None]:
    """The leader rule: every mnemonic that can end a basic block, mapped to
    None if it always does. Those are the branch mnemonics, bare and with
    each condition suffix. ``pop`` maps instead to the pattern that its
    lowercased operands must match, pc in its register list; that row wins
    even where ``pop`` is a branch mnemonic, whose suffixed forms stay."""
    rules = dict.fromkeys(b + s for b in branch_mnemonics for s in ("", *CONDITION_SUFFIXES))
    rules["pop"] = re.compile(r"\bpc\b")
    return rules


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


class AssemblyProgram(namedtuple("AssemblyProgram", "mnemonics operands labels diagnostics",
                                 defaults=((),))):
    """Parsed instruction stream, one list of strings per field: instruction
    ``i`` is ``mnemonics[i]`` with operand text ``operands[i]``.

    ``labels`` is a dict from a label name to the index of the instruction
    that follows it; a label at end of file maps to ``len(mnemonics)``.
    ``diagnostics`` is a sequence of (line_no, message) pairs for lines
    skipped in lenient mode.
    """

    __slots__ = ()

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
                    # one str object per distinct mnemonic, so the dict lookups of patterns
                    # (metrics._holders/_presence_bits, the 2-gram pool) match by identity
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


def segment_basic_blocks(program: AssemblyProgram,
                         config: ParserConfig = DEFAULT_CONFIG) -> list[int]:
    """The sorted starts of a program's basic blocks, found with the classic
    leader algorithm: each block runs up to the next start, the last one to
    the end of the program; an empty program has none.

    Leaders are: instruction 0; every instruction right after one that ends
    a block, as :func:`_branch_rules` decides; and every instruction at the
    index of a label named in the operands of one that ends a block, an
    indirect one included (``blx helper`` makes ``helper:`` a leader). A
    label that no such instruction names creates no leader.

    One C-level scan of ``program.mnemonics`` finds the candidates, the
    mnemonics with a row; a candidate ends a block when its row is None or
    matches its operands. One regex scan over those instructions' operands,
    joined with ``"\\n"`` so that no token spans two of them, finds the
    labels they name.
    """
    mnemonics, operands, labels = program.mnemonics, program.operands, program.labels
    rules = _branch_rules(config.branch_mnemonics)
    branches = [i for i in compress(count(), map(rules.__contains__, mnemonics))
                if (rule := rules[mnemonics[i]]) is None or rule.search(operands[i].lower())]
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
