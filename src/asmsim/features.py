"""Feature families consumed by the similarity metrics.

A parsed program is reduced to two views: how often each mnemonic occurs
(its keys are the mnemonics that exist), and which length-n mnemonic
patterns occur inside its basic blocks (n = 2 and 3 by default). The patterns
are a tuple of distinct windows in order of first occurrence: the metrics only
iterate and count them, so no hash table is kept per program.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from collections.abc import Sequence
from itertools import compress

from .asm_parser import (AssemblyProgram, ParserConfig, DEFAULT_CONFIG,
                         linear_blocks, segment_basic_blocks)

NGram = tuple[str, ...]


PatternSet = namedtuple("PatternSet", "patterns")
PatternSet.__doc__ = """Presence set of mnemonic patterns of one length (no multiplicities).

``patterns`` is a tuple that holds each distinct pattern (an
:data:`NGram`) once, in order of first occurrence, so ``len(patterns)``
is the size of the set. Wrap it in ``frozenset`` for set algebra."""


def extract_ngrams(mnemonics: Sequence[str], starts: Sequence[int], n: int) -> PatternSet:
    """All length-n sliding windows of ``mnemonics`` taken within each block.

    ``starts`` are the sorted block starts (:func:`segment_basic_blocks`);
    the window at ``i`` is dropped if one lies in ``i + 1 .. i + n - 1``, so
    a block of length L contributes max(L - n + 1, 0) windows before
    de-duplication. The distinct windows are kept in order of first occurrence.
    """
    if n < 2:
        raise ValueError(f"pattern length must be >= 2, got {n}")
    keep = bytearray(b"\x01") * len(mnemonics)  # 0 where a window crosses a start
    for k in range(1, n):  # zero the window at start - k; a start < k would wrap
        for start in starts[bisect_left(starts, k):]:
            keep[start - k] = 0
    windows = zip(*(mnemonics[k:] for k in range(n)))
    return PatternSet(tuple(dict.fromkeys(compress(windows, keep))))


ProgramFeatures = namedtuple("ProgramFeatures", "frequency patterns2 patterns3")
ProgramFeatures.__doc__ = """Everything the four metrics need to know about one program:
``frequency`` is a Counter of its mnemonics, and ``patterns2`` and ``patterns3``
are its :class:`PatternSet` of each length."""


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

