"""Feature families consumed by the similarity metrics.

A parsed program is reduced to two views: how often each mnemonic occurs
(its keys are the mnemonics that exist), and which length-n mnemonic
patterns occur inside its basic blocks (n = 2 and 3 by default).
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import NamedTuple, Sequence

from .asm_parser import (AssemblyProgram, BasicBlock, ParserConfig,
                         DEFAULT_CONFIG, linear_blocks, segment_basic_blocks)

NGram = tuple[str, ...]


class PatternSet(NamedTuple):
    """Presence set of length-n mnemonic patterns (no multiplicities)."""

    n: int
    patterns: frozenset[NGram]


def extract_ngrams(mnemonics: Sequence[str], blocks: Sequence[BasicBlock],
                   n: int, pool: dict[NGram, NGram] | None = None) -> PatternSet:
    """All length-n sliding windows of ``mnemonics`` taken within each block.

    Windows never cross block boundaries; a block of length L contributes
    max(L - n + 1, 0) windows before de-duplication. A ``pool`` maps each
    pattern to its one shared tuple; patterns it lacks are added to it.
    """
    if n < 2:
        raise ValueError(f"pattern length must be >= 2, got {n}")
    starts = bytearray(len(mnemonics))  # 1 where a window lies inside a block
    for start, end in blocks:
        if end - start >= n:
            starts[start:end - n + 1] = b"\x01" * (end - start - n + 1)
    windows = zip(*(mnemonics[k:] for k in range(n)))
    patterns = frozenset(compress(windows, starts))
    if pool is not None:
        patterns = frozenset(map(pool.setdefault, patterns, patterns))
    return PatternSet(n, patterns)


class ProgramFeatures(NamedTuple):
    """Everything the four metrics need to know about one program."""

    frequency: Counter[str]
    patterns2: PatternSet
    patterns3: PatternSet

    def pattern_set(self, n: int) -> PatternSet:
        return self.patterns2 if n == 2 else self.patterns3


def compute_features(program: AssemblyProgram, blocks: Sequence[BasicBlock],
                     pool: dict[NGram, NGram] | None = None) -> ProgramFeatures:
    """Count ``program.mnemonics`` and slide both pattern windows over it;
    only 2-grams, which recur across a corpus, go through ``pool``."""
    mnemonics = program.mnemonics
    return ProgramFeatures(Counter(mnemonics), extract_ngrams(mnemonics, blocks, 2, pool),
                           extract_ngrams(mnemonics, blocks, 3))


def features_for_program(program: AssemblyProgram,
                         config: ParserConfig = DEFAULT_CONFIG, *,
                         linear: bool = False,
                         pool: dict[NGram, NGram] | None = None) -> ProgramFeatures:
    """Segment and featurize in one step.

    ``linear=True`` skips basic-block segmentation so patterns may span
    branch boundaries. ``pool`` shares the 2-gram tuples of every program
    featurized through it (see :func:`compute_features`).
    """
    blocks = linear_blocks(program) if linear else segment_basic_blocks(program, config)
    return compute_features(program, blocks, pool)


def features_to_dict(features: ProgramFeatures) -> dict:
    """JSON-ready dump with a stable field and element order."""
    return {
        "mnemonics": sorted(features.frequency),
        "freq": {m: features.frequency[m] for m in sorted(features.frequency)},
        "ngrams2": [list(p) for p in sorted(features.patterns2.patterns)],
        "ngrams3": [list(p) for p in sorted(features.patterns3.patterns)],
    }

