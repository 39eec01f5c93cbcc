"""Pairwise program comparison functions.

Mnemonic sets (the keys of the frequency vectors) are compared with
Jaccard similarity, frequency vectors with cosine similarity
(bag-of-words), and n-gram pattern sets with the Euclidean distance
between their boolean presence vectors.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from operator import mul
from typing import Mapping

from .errors import EmptyProgramError
from .features import NGram, ProgramFeatures


class MetricKind(str, Enum):
    JACCARD = "jaccard"
    COSINE = "cosine"
    EUCLIDEAN2 = "euclidean2"
    EUCLIDEAN3 = "euclidean3"

    @property
    def is_distance(self) -> bool:
        """Distances shrink with similarity; jaccard/cosine grow with it."""
        return self in (MetricKind.EUCLIDEAN2, MetricKind.EUCLIDEAN3)

    @property
    def ngram_length(self) -> int | None:
        return {MetricKind.EUCLIDEAN2: 2, MetricKind.EUCLIDEAN3: 3}.get(self)


METRIC_ORDER = (MetricKind.JACCARD, MetricKind.COSINE,
                MetricKind.EUCLIDEAN2, MetricKind.EUCLIDEAN3)


def jaccard(s1: frozenset[str], s2: frozenset[str]) -> float:
    """|s1 & s2| / |s1 | s2|, in [0, 1].

    Two empty sets count as identical (1.0); empty versus non-empty is 0.
    """
    if not s1 and not s2:
        return 1.0
    return len(s1 & s2) / len(s1 | s2)


def cosine(a: Mapping[str, int], b: Mapping[str, int],
           norm_sq_a: int | None = None, norm_sq_b: int | None = None) -> float:
    """Cosine of the angle between two frequency vectors, in [0, 1].

    Counts are integers, so the dot product and the squared norms (which
    callers may pass in, computed once) are exact. Raises
    :class:`EmptyProgramError` for an empty vector, whose cosine is undefined.
    """
    if not a or not b:
        raise EmptyProgramError("cosine similarity is undefined for an empty program")
    norm_sq_a = sum(v * v for v in a.values()) if norm_sq_a is None else norm_sq_a
    norm_sq_b = sum(v * v for v in b.values()) if norm_sq_b is None else norm_sq_b
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    # sum of small[key] * large.get(key, 0), with the loop run in C
    dot = sum(map(mul, small.values(), map(large.get, small, repeat(0))))
    # |a - b|^2 = |a|^2 + |b|^2 - 2 a.b, so this holds exactly when a == b
    if dot == norm_sq_a == norm_sq_b:
        return 1.0
    # One sqrt of the exact integer product keeps the result reproducible.
    value = dot / math.sqrt(norm_sq_a * norm_sq_b)
    return min(max(value, 0.0), 1.0)


def pattern_distance(a: frozenset[NGram], b: frozenset[NGram]) -> float:
    """Euclidean distance between the boolean presence vectors of two pattern
    sets over any universe that holds both: sqrt(|a ^ b|)."""
    return math.sqrt(len(a) + len(b) - 2 * len(a & b))


def pair_value(kind: MetricKind, a: ProgramFeatures, b: ProgramFeatures) -> float:
    """One metric for one pair of programs, from values each program keeps."""
    if kind is MetricKind.JACCARD:
        return jaccard(a.mnemonics, b.mnemonics)
    if kind is MetricKind.COSINE:
        return cosine(a.frequency, b.frequency, a.frequency_norm_sq, b.frequency_norm_sq)
    n = kind.ngram_length
    return pattern_distance(a.pattern_set(n).patterns, b.pattern_set(n).patterns)
