"""Feature families consumed by the similarity metrics.

A parsed program is reduced to two views: how often each mnemonic occurs
(its keys are the mnemonics that exist), and which length-n mnemonic
patterns occur inside its basic blocks (n = 2 and 3 by default).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import compress
from typing import NamedTuple, Sequence

from .asm_parser import (AssemblyProgram, ParserConfig, DEFAULT_CONFIG,
                         linear_blocks, segment_basic_blocks)

NGram = tuple[str, ...]


class PatternSet(NamedTuple):
    """Presence set of length-n mnemonic patterns (no multiplicities)."""

    n: int
    patterns: frozenset[NGram]


def extract_ngrams(mnemonics: Sequence[str], starts: Sequence[int], n: int) -> PatternSet:
    """All length-n sliding windows of ``mnemonics`` taken within each block.

    ``starts`` are the sorted block starts (:func:`segment_basic_blocks`);
    the window at ``i`` is dropped if one lies in ``i + 1 .. i + n - 1``, so
    a block of length L contributes max(L - n + 1, 0) windows before
    de-duplication.
    """
    if n < 2:
        raise ValueError(f"pattern length must be >= 2, got {n}")
    keep = bytearray(b"\x01") * len(mnemonics)  # 0 where a window crosses a start
    for k in range(1, n):  # zero the window at start - k; a start < k would wrap
        for start in starts[bisect_left(starts, k):]:
            keep[start - k] = 0
    windows = zip(*(mnemonics[k:] for k in range(n)))
    return PatternSet(n, frozenset(compress(windows, keep)))


class ProgramFeatures(NamedTuple):
    """Everything the four metrics need to know about one program."""

    frequency: Counter[str]
    patterns2: PatternSet
    patterns3: PatternSet

    def pattern_set(self, n: int) -> PatternSet:
        return self.patterns2 if n == 2 else self.patterns3


def compute_features(program: AssemblyProgram, starts: Sequence[int]) -> ProgramFeatures:
    """Count ``program.mnemonics`` and slide both pattern windows over the
    blocks at ``starts``."""
    mnemonics = program.mnemonics
    return ProgramFeatures(Counter(mnemonics), extract_ngrams(mnemonics, starts, 2),
                           extract_ngrams(mnemonics, starts, 3))


def features_for_program(program: AssemblyProgram,
                         config: ParserConfig = DEFAULT_CONFIG, *,
                         linear: bool = False) -> ProgramFeatures:
    """Segment and featurize in one step.

    ``linear=True`` skips basic-block segmentation so patterns may span
    branch boundaries.
    """
    starts = linear_blocks(program) if linear else segment_basic_blocks(program, config)
    return compute_features(program, starts)


def features_to_dict(features: ProgramFeatures) -> dict:
    """JSON-ready dump with a stable field and element order."""
    return {
        "mnemonics": sorted(features.frequency),
        "freq": {m: features.frequency[m] for m in sorted(features.frequency)},
        "ngrams2": [list(p) for p in sorted(features.patterns2.patterns)],
        "ngrams3": [list(p) for p in sorted(features.patterns3.patterns)],
    }

