"""Pairwise program comparison: the four metrics, computed only by :func:`pair_values`.

Mnemonic sets (the keys of the frequency vectors) are compared with
Jaccard similarity, frequency vectors with cosine similarity
(bag-of-words), and n-gram pattern sets with the Euclidean distance
between their boolean presence vectors. A pattern set is a tuple of distinct
patterns (:class:`~asmsim.features.PatternSet`); it is only iterated and sized,
so its order changes no value.

:func:`pair_values` scores many pairs in one call, over the elements that two or
more of its programs hold: as ``int`` bitsets, or for cosine as packed Gram rows.
Each shared mnemonic is one ``int`` column that holds every program's count in its
own ``W``-byte little-endian field, where ``W`` is the smallest byte count with every
squared norm below ``256**W``. A program's row, the sum of its counts times the
columns, holds in field ``j`` its dot product with program ``j``. By Cauchy-Schwarz
no dot product exceeds the larger squared norm, and no term is negative, so no field
carries into the next and every dot product is exact.
:func:`pair_value` is its two-program case.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection, Sequence
from enum import Enum
from itertools import chain, combinations, count, repeat
from operator import attrgetter, mul

from .errors import EmptyProgramError
from .features import ProgramFeatures


class MetricKind(str, Enum):
    JACCARD = "jaccard"
    COSINE = "cosine"
    EUCLIDEAN2 = "euclidean2"
    EUCLIDEAN3 = "euclidean3"

    @property
    def is_distance(self) -> bool:
        """Distances shrink with similarity; jaccard/cosine grow with it."""
        return self in (MetricKind.EUCLIDEAN2, MetricKind.EUCLIDEAN3)


METRIC_ORDER = tuple(MetricKind)

# the collection of distinct elements each set metric compares; Jaccard reads the
# frequency keys, as a Counter iterates and sizes as its key set
_SETS = {MetricKind.JACCARD: attrgetter("frequency"),
         MetricKind.EUCLIDEAN2: attrgetter("patterns2.patterns"),
         MetricKind.EUCLIDEAN3: attrgetter("patterns3.patterns")}


def _holders(collections: Sequence) -> tuple[Counter, list]:
    """How many of ``collections`` hold each element, and the shared ones (held by 2+)."""
    holders = Counter(chain.from_iterable(collections))
    return holders, [element for element, holding in holders.items() if holding > 1]


def _presence_bits(sets: Sequence[Collection]) -> list[int]:
    """Each set (a collection of distinct elements: a tuple of patterns or a Counter's
    keys) as an ``int`` with one bit per shared element: the holder Counter (a dict,
    smaller than a set) then gives those digits 2, 3, ...; the rest keep digit 1."""
    index, shared = _holders(sets)
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
    by default every pair, in :func:`itertools.combinations` order. Counts are exact
    integers, and each value is one division of them (cosine's by the square root of
    the product of the squared norms), so it is reproducible bit for bit. Raises
    :class:`EmptyProgramError` when cosine meets an empty program."""
    pairs = list(combinations(range(len(programs)), 2)) if pairs is None else pairs
    if kind is MetricKind.COSINE:
        frequencies = [p.frequency for p in programs]
        if not all(map(frequencies.__getitem__, chain.from_iterable(pairs))):
            raise EmptyProgramError("cosine similarity is undefined for an empty program")
        shared = _holders(frequencies)[1]
        norms = [sum(map(mul, f.values(), f.values())) for f in frequencies]
        # every dot product is at most the larger squared norm, so it fits a field
        width = (max(norms, default=0).bit_length() + 7) // 8
        columns = [int.from_bytes(b"".join(map(int.to_bytes, map(
            dict.get, frequencies, repeat(mnemonic), repeat(0)), repeat(width),
            repeat("little"))), "little") for mnemonic in shared]
        size = len(programs) * width
        rows = [sum(map(mul, map(frequency.get, shared, repeat(0)), columns)).to_bytes(
            size, "little") for frequency in frequencies]
        # a self-pair's dot product also takes the mnemonics only it holds;
        # |a - b|^2 = |a|^2 + |b|^2 - 2 a.b, so dot == a == b holds exactly when a == b;
        # no count is negative, but rounding can put a quotient just above 1
        return [1.0 if dot == a == b else min(dot / math.sqrt(a * b), 1.0)
                for i, j in pairs for a, b in [(norms[i], norms[j])]
                for dot in [int.from_bytes(rows[i][j * width:(j + 1) * width], "little")
                            if i != j else a]]
    sets = list(map(_SETS[kind], programs))
    sizes, bits = list(map(len, sets)), _presence_bits(sets)
    # (|a & b|, |a| + |b|); a self-pair also shares the elements of one set
    counts = [((bits[i] & bits[j]).bit_count() if i != j else sizes[i], sizes[i] + sizes[j])
              for i, j in pairs]
    if kind is MetricKind.JACCARD:
        return [common / (total - common) if total else 1.0 for common, total in counts]
    return [math.sqrt(total - 2 * common) for common, total in counts]


def pair_value(kind: MetricKind, a: ProgramFeatures, b: ProgramFeatures) -> float:
    """One metric for one pair of programs."""
    return pair_values(kind, (a, b))[0]
