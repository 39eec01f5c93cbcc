import math
import random

import pytest

from asmsim.asm_parser import parse_assembly
from asmsim.errors import EmptyProgramError, PatternMismatchError
from asmsim.features import PatternSet, build_universe, features_for_program
from asmsim.metrics import (MetricKind, cosine, euclidean_pattern_distance,
                            jaccard, measure)

import oracles


def pset(n, *tuples):
    return PatternSet(n, frozenset(tuples))


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
        p = pset(2, ("a", "b"), ("b", "c"))
        assert euclidean_pattern_distance(p, p, build_universe([p])) == 0.0

    def test_symmetric_difference_of_three(self):
        p1 = pset(2, ("a", "b"), ("b", "c"), ("c", "d"))
        p2 = pset(2, ("a", "b"), ("d", "e"))
        universe = build_universe([p1, p2])
        assert euclidean_pattern_distance(p1, p2, universe) == pytest.approx(
            1.7320508075688772, abs=0)

    def test_empty_versus_four(self):
        p1 = pset(2)
        p2 = pset(2, ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"))
        universe = build_universe([p2])
        assert euclidean_pattern_distance(p1, p2, universe) == 2.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(PatternMismatchError):
            euclidean_pattern_distance(pset(2, ("a", "b")),
                                       pset(3, ("a", "b", "c")),
                                       build_universe([pset(2, ("a", "b"))]))

    def test_pattern_outside_universe_rejected(self):
        universe = build_universe([pset(2, ("a", "b"))])
        with pytest.raises(PatternMismatchError):
            euclidean_pattern_distance(pset(2, ("x", "y")), pset(2, ("a", "b")),
                                       universe)

    def test_universe_extension_changes_nothing(self):
        p1 = pset(2, ("a", "b"))
        p2 = pset(2, ("b", "c"))
        small = build_universe([p1, p2])
        large = build_universe([p1, p2, pset(2, ("x", "y"), ("y", "z"))])
        assert euclidean_pattern_distance(p1, p2, small) == \
            euclidean_pattern_distance(p1, p2, large)


class TestMeasure:
    def test_dispatch_matches_direct_calls(self):
        a = features_for_program(parse_assembly("\tmov r0, r1\n\tadd r0, r1\n"))
        b = features_for_program(parse_assembly("\tmov r0, r1\n\tsub r0, r1\n"))
        assert measure(MetricKind.JACCARD, a, b).value == \
            jaccard(frozenset(a.frequency), frozenset(b.frequency))
        assert measure(MetricKind.COSINE, a, b).value == cosine(a.frequency, b.frequency)
        # without an explicit universe, one is built from the two programs
        expected = math.sqrt(len(a.patterns2.patterns ^ b.patterns2.patterns))
        assert measure(MetricKind.EUCLIDEAN2, a, b).value == expected

    def test_tags_result_with_kind(self):
        a = features_for_program(parse_assembly("\tmov r0, r1\n"))
        result = measure(MetricKind.JACCARD, a, a)
        assert result.kind is MetricKind.JACCARD
        assert result.value == 1.0


class TestAgainstNaiveReferences:
    def test_random_inputs_match(self):
        rng = random.Random(7)
        alphabet = ["mov", "add", "sub", "ldr", "str", "cmp", "b", "bl"]
        for _ in range(200):
            s1 = frozenset(rng.sample(alphabet, rng.randint(0, len(alphabet))))
            s2 = frozenset(rng.sample(alphabet, rng.randint(0, len(alphabet))))
            assert jaccard(s1, s2) == pytest.approx(
                oracles.naive_jaccard(s1, s2), abs=1e-12)

            a = {m: rng.randint(1, 9) for m in rng.sample(alphabet, rng.randint(1, 5))}
            b = {m: rng.randint(1, 9) for m in rng.sample(alphabet, rng.randint(1, 5))}
            assert cosine(a, b) == pytest.approx(oracles.naive_cosine(a, b), abs=1e-12)

            pool = [(x, y) for x in alphabet[:5] for y in alphabet[:5]]
            p1 = pset(2, *rng.sample(pool, rng.randint(0, 8)))
            p2 = pset(2, *rng.sample(pool, rng.randint(0, 8)))
            universe = build_universe([p1, p2], n=2)
            assert euclidean_pattern_distance(p1, p2, universe) == pytest.approx(
                oracles.naive_euclidean(set(p1.patterns), set(p2.patterns),
                                        universe.ordered), abs=1e-12)
