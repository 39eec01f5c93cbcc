"""Feature families consumed by the similarity metrics.

A parsed program is reduced to two views: how often each mnemonic occurs
(its keys are the mnemonics that exist), and which length-n mnemonic
patterns occur inside its basic blocks (n = 2 and 3 by default).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .asm_parser import (AssemblyProgram, BasicBlock, ParserConfig,
                         DEFAULT_CONFIG, linear_blocks, segment_basic_blocks)
from .errors import PatternMismatchError

NGram = tuple[str, ...]


def frequency_vector(program: AssemblyProgram) -> Counter[str]:
    """Occurrence count per mnemonic; absent mnemonics count as zero."""
    return Counter(ins.mnemonic for ins in program.instructions)


@dataclass(frozen=True)
class PatternSet:
    """Presence set of length-n mnemonic patterns (no multiplicities)."""

    n: int
    patterns: frozenset[NGram]

    def __post_init__(self) -> None:
        bad = [p for p in self.patterns if len(p) != self.n]
        if bad:
            raise PatternMismatchError(
                f"pattern {bad[0]!r} has length {len(bad[0])}, expected {self.n}")


@dataclass(frozen=True)
class PatternUniverse:
    """Deterministically ordered union of patterns across a corpus.

    The order is lexicographic by mnemonic tuple, so the same corpus
    always yields the same vector layout. ``n == 0`` marks the empty
    universe produced from no input sets.
    """

    n: int
    ordered: tuple[NGram, ...]
    index: dict[NGram, int]

    def __len__(self) -> int:
        return len(self.ordered)

    def check(self, pattern_set: PatternSet, entity: str | None = None) -> None:
        """Raise :class:`PatternMismatchError` unless ``pattern_set`` embeds
        in this universe: same length, every pattern present."""
        if pattern_set.patterns and pattern_set.n != self.n:
            raise PatternMismatchError(f"pattern set of length {pattern_set.n} cannot "
                                       f"embed in a universe of length {self.n}",
                                       entity=entity)
        missing = pattern_set.patterns.difference(self.index)
        if missing:
            raise PatternMismatchError(f"pattern {min(missing)!r} is missing from the "
                                       "universe; it was built from a different corpus",
                                       entity=entity)


def extract_ngrams(blocks: Sequence[BasicBlock], n: int) -> PatternSet:
    """All length-n sliding windows taken within each block.

    Windows never cross block boundaries; a block of length L contributes
    max(L - n + 1, 0) windows before de-duplication.
    """
    if n < 2:
        raise ValueError(f"pattern length must be >= 2, got {n}")
    found: set[NGram] = set()
    for block in blocks:
        mnemonics = [ins.mnemonic for ins in block.instructions]
        for i in range(len(mnemonics) - n + 1):
            found.add(tuple(mnemonics[i:i + n]))
    return PatternSet(n, frozenset(found))


def build_universe(sets: Iterable[PatternSet], n: int | None = None) -> PatternUniverse:
    """Sorted union of pattern sets; independent of input order.

    ``n`` may be given explicitly to type an empty universe; when sets are
    present it is inferred (and checked) from them.
    """
    sets = list(sets)
    lengths = sorted({s.n for s in sets})
    if len(lengths) > 1:
        raise PatternMismatchError(f"mixed pattern lengths: {lengths}")
    if lengths:
        if n is not None and n != lengths[0]:
            raise PatternMismatchError(
                f"requested universe of length {n} from sets of length {lengths[0]}")
        n = lengths[0]
    elif n is None:
        n = 0
    ordered = tuple(sorted(set().union(*(s.patterns for s in sets))))
    return PatternUniverse(n, ordered, {p: i for i, p in enumerate(ordered)})


@dataclass(frozen=True)
class ProgramFeatures:
    """Everything the four metrics need to know about one program."""

    frequency: Counter[str]
    patterns2: PatternSet
    patterns3: PatternSet

    def pattern_set(self, n: int) -> PatternSet:
        return self.patterns2 if n == 2 else self.patterns3

    @cached_property
    def mnemonics(self) -> frozenset[str]:
        """The mnemonics that occur: the keys of ``frequency``."""
        return frozenset(self.frequency)

    @cached_property
    def frequency_norm_sq(self) -> int:
        return sum(v * v for v in self.frequency.values())


def compute_features(program: AssemblyProgram, blocks: Sequence[BasicBlock]) -> ProgramFeatures:
    return ProgramFeatures(
        frequency=frequency_vector(program),
        patterns2=extract_ngrams(blocks, 2),
        patterns3=extract_ngrams(blocks, 3),
    )


def features_for_program(program: AssemblyProgram,
                         config: ParserConfig = DEFAULT_CONFIG, *,
                         linear: bool = False) -> ProgramFeatures:
    """Segment and featurize in one step.

    ``linear=True`` skips basic-block segmentation so patterns may span
    branch boundaries.
    """
    blocks = linear_blocks(program) if linear else segment_basic_blocks(program, config)
    return compute_features(program, blocks)


def features_to_dict(features: ProgramFeatures) -> dict:
    """JSON-ready dump with a stable field and element order."""
    return {
        "mnemonics": sorted(features.mnemonics),
        "freq": {m: features.frequency[m] for m in sorted(features.frequency)},
        "ngrams2": [list(p) for p in sorted(features.patterns2.patterns)],
        "ngrams3": [list(p) for p in sorted(features.patterns3.patterns)],
    }


__all__ = [
    "NGram", "PatternSet", "PatternUniverse", "ProgramFeatures",
    "frequency_vector", "extract_ngrams", "build_universe",
    "compute_features", "features_for_program", "features_to_dict",
]
