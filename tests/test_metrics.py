import math
import random
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asmsim.asm_parser import parse_assembly
from asmsim.errors import EmptyProgramError
from asmsim.features import features_for_program
from asmsim.metrics import MetricKind, pair_value

import oracles
from conftest import pair_of


def pset(*tuples):
    return frozenset(tuples)


jaccard = partial(pair_of, MetricKind.JACCARD)
cosine = partial(pair_of, MetricKind.COSINE)
pattern_distance = partial(pair_of, MetricKind.EUCLIDEAN2)


PATTERN_POOL = [(a, b) for a in ("mov", "add", "ldr", "b") for b in ("mov", "add", "ldr", "b")]
pattern_sets = st.frozensets(st.sampled_from(PATTERN_POOL))


class TestJaccard:
    def test_identity(self):
        s = frozenset({"mov", "add"})
        assert jaccard(s, s) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset({"mov"}), frozenset({"add"})) == 0.0

    def test_partial_overlap(self):
        assert jaccard(frozenset({"mov", "add", "b"}), frozenset({"mov", "sub"})) == 0.25

    def test_empty_conventions(self):
        assert jaccard(frozenset(), frozenset()) == 1.0
        assert jaccard(frozenset(), frozenset({"mov"})) == 0.0


class TestCosine:
    def test_identity_exact(self):
        vector = {"mov": 3, "add": 1}
        assert cosine(vector, vector) == 1.0

    def test_orthogonal(self):
        assert cosine({"mov": 1}, {"add": 1}) == 0.0

    def test_hand_value(self):
        assert cosine({"mov": 1, "add": 2}, {"mov": 2, "add": 1}) == pytest.approx(0.8)

    def test_empty_rejected(self):
        with pytest.raises(EmptyProgramError):
            cosine({}, {"mov": 1})
        with pytest.raises(EmptyProgramError):
            cosine({"mov": 1}, {})

    def test_scale_invariance(self):
        a = {"mov": 3, "add": 1, "b": 2}
        b = {"mov": 1, "add": 4}
        scaled = {k: 7 * v for k, v in b.items()}
        assert cosine(a, b) == pytest.approx(cosine(a, scaled), abs=1e-12)


class TestEuclideanPatternDistance:
    def test_identity(self):
        p = pset(("a", "b"), ("b", "c"))
        assert pattern_distance(p, p) == 0.0

    def test_symmetric_difference_of_three(self):
        p1 = pset(("a", "b"), ("b", "c"), ("c", "d"))
        p2 = pset(("a", "b"), ("d", "e"))
        assert pattern_distance(p1, p2) == pytest.approx(1.7320508075688772, abs=0)

    def test_empty_versus_four(self):
        p1 = pset()
        p2 = pset(("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"))
        assert pattern_distance(p1, p2) == 2.0

    @given(pattern_sets, pattern_sets, pattern_sets)
    def test_universe_extension_changes_nothing(self, a, b, extra):
        # the paper's presence vectors range over a corpus universe; any
        # universe that holds both sets gives the same distance
        assert pattern_distance(a, b) == oracles.naive_euclidean(a, b, a | b) == \
            oracles.naive_euclidean(a, b, a | b | extra)


class TestPairValue:
    def test_dispatch_matches_direct_calls(self):
        a = features_for_program(parse_assembly("\tmov r0, r1\n\tadd r0, r1\n"))
        b = features_for_program(parse_assembly("\tmov r0, r1\n\tsub r0, r1\n"))
        assert pair_value(MetricKind.JACCARD, a, b) == \
            oracles.naive_jaccard(a.frequency, b.frequency) == 1 / 3
        assert pair_value(MetricKind.COSINE, a, b) == \
            oracles.exact_cosine(a.frequency, b.frequency) == 0.5
        assert a.patterns2.patterns == (("mov", "add"),)
        assert b.patterns2.patterns == (("mov", "sub"),)
        # no universe is needed: the distance is the root of the symmetric
        # difference size over any universe that holds both pattern sets
        expected = math.sqrt(len(set(a.patterns2.patterns) ^ set(b.patterns2.patterns)))
        assert expected == math.sqrt(2)
        assert pair_value(MetricKind.EUCLIDEAN2, a, b) == expected


class TestAgainstNaiveReferences:
    def test_random_inputs_match(self):
        rng = random.Random(7)
        alphabet = ["mov", "add", "sub", "ldr", "str", "cmp", "b", "bl"]
        for _ in range(200):
            s1 = frozenset(rng.sample(alphabet, rng.randint(0, len(alphabet))))
            s2 = frozenset(rng.sample(alphabet, rng.randint(0, len(alphabet))))
            assert jaccard(s1, s2) == oracles.naive_jaccard(s1, s2)  # bit for bit

            a = {m: rng.randint(1, 9) for m in rng.sample(alphabet, rng.randint(1, 5))}
            b = {m: rng.randint(1, 9) for m in rng.sample(alphabet, rng.randint(1, 5))}
            assert cosine(a, b) == oracles.exact_cosine(a, b)
            assert cosine(a, b) == pytest.approx(oracles.naive_cosine(a, b), abs=1e-12)

            pool = [(x, y) for x in alphabet[:5] for y in alphabet[:5]]
            p1 = pset(*rng.sample(pool, rng.randint(0, 8)))
            p2 = pset(*rng.sample(pool, rng.randint(0, 8)))
            assert pattern_distance(p1, p2) == \
                oracles.naive_euclidean(p1, p2, sorted(p1 | p2))
