"""Pairwise program comparison functions.

Mnemonic sets (the keys of the frequency vectors) are compared with
Jaccard similarity, frequency vectors with cosine similarity
(bag-of-words), and n-gram pattern sets with the Euclidean distance
between their boolean presence vectors.

:func:`pair_values` scores many pairs in one call; for Jaccard and Euclidean
it counts bits of one ``int`` bitset per program, over that call's programs.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from itertools import chain, combinations, count, repeat
from operator import mul
from typing import Mapping, Sequence

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
        return (2 if self is MetricKind.EUCLIDEAN2 else
                3 if self is MetricKind.EUCLIDEAN3 else None)


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


def _presence_bits(sets: Sequence[frozenset]) -> list[int]:
    """Each set as an ``int`` with one bit per element that two or more of
    ``sets`` hold. One Counter (a dict, smaller than a set) counts the elements,
    then gives the shared ones digits 2, 3, ...; the rest keep digit 1."""
    index = Counter(chain.from_iterable(sets))
    shared = [element for element, holders in index.items() if holders > 1]
    dict.update(index, zip(shared, count(2)))  # Counter.update would add
    bits = []
    for elements in sets:
        digits = bytearray(b"0") * (len(shared) + 2)
        for k in map(index.__getitem__, elements):
            digits[k] = 49  # ord("1")
        digits[1] = 48  # digit 1 took every element of one set only
        bits.append(int(digits, 2))
    return bits


def pair_values(kind: MetricKind, programs: Sequence[ProgramFeatures],
                pairs: Sequence[tuple[int, int]] | None = None) -> list[float]:
    """``kind``'s value for each ``(i, j)`` index pair of ``programs``;
    by default every pair, in :func:`itertools.combinations` order."""
    pairs = list(combinations(range(len(programs)), 2)) if pairs is None else pairs
    if kind is MetricKind.COSINE:
        return [cosine(a.frequency, b.frequency, a.frequency_norm_sq, b.frequency_norm_sq)
                for a, b in ((programs[i], programs[j]) for i, j in pairs)]
    n = kind.ngram_length
    sets = [p.mnemonics if n is None else p.pattern_set(n).patterns for p in programs]
    sizes, bits = list(map(len, sets)), _presence_bits(sets)
    # (|a & b|, |a| + |b|); a self-pair also shares the elements of one set
    counts = [((bits[i] & bits[j]).bit_count() if i != j else sizes[i], sizes[i] + sizes[j])
              for i, j in pairs]
    if n is None:
        return [common / (total - common) if total else 1.0 for common, total in counts]
    return [math.sqrt(total - 2 * common) for common, total in counts]


def pair_value(kind: MetricKind, a: ProgramFeatures, b: ProgramFeatures) -> float:
    """One metric for one pair of programs."""
    return pair_values(kind, (a, b))[0]
