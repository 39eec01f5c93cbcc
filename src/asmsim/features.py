"""Feature families consumed by the similarity metrics.

A parsed program is reduced to two views: how often each mnemonic occurs
(its keys are the mnemonics that exist), and which length-n mnemonic
patterns occur inside its basic blocks (n = 2 and 3 by default).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .asm_parser import (AssemblyProgram, BasicBlock, ParserConfig,
                         DEFAULT_CONFIG, linear_blocks, segment_basic_blocks)

NGram = tuple[str, ...]


@dataclass(frozen=True)
class PatternSet:
    """Presence set of length-n mnemonic patterns (no multiplicities)."""

    n: int
    patterns: frozenset[NGram]


def extract_ngrams(mnemonics: Sequence[str], blocks: Sequence[BasicBlock],
                   n: int) -> PatternSet:
    """All length-n sliding windows of ``mnemonics`` taken within each block.

    Windows never cross block boundaries; a block of length L contributes
    max(L - n + 1, 0) windows before de-duplication.
    """
    if n < 2:
        raise ValueError(f"pattern length must be >= 2, got {n}")
    starts = bytearray(len(mnemonics))  # 1 where a window lies inside a block
    for start, end in blocks:
        if end - start >= n:
            starts[start:end - n + 1] = b"\x01" * (end - start - n + 1)
    windows = zip(*(mnemonics[k:] for k in range(n)))
    return PatternSet(n, frozenset(compress(windows, starts)))


@dataclass(frozen=True)
class ProgramFeatures:
    """Everything the four metrics need to know about one program."""

    frequency: Counter[str]
    patterns2: PatternSet
    patterns3: PatternSet

    def pattern_set(self, n: int) -> PatternSet:
        return self.patterns2 if n == 2 else self.patterns3


def compute_features(program: AssemblyProgram, blocks: Sequence[BasicBlock]) -> ProgramFeatures:
    """Count ``program.mnemonics`` and slide both pattern windows over it."""
    mnemonics = program.mnemonics
    return ProgramFeatures(
        frequency=Counter(mnemonics),
        patterns2=extract_ngrams(mnemonics, blocks, 2),
        patterns3=extract_ngrams(mnemonics, blocks, 3),
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
        "mnemonics": sorted(features.frequency),
        "freq": {m: features.frequency[m] for m in sorted(features.frequency)},
        "ngrams2": [list(p) for p in sorted(features.patterns2.patterns)],
        "ngrams3": [list(p) for p in sorted(features.patterns3.patterns)],
    }


__all__ = [
    "NGram", "PatternSet", "ProgramFeatures", "extract_ngrams",
    "compute_features", "features_for_program", "features_to_dict",
]
