import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asmsim.asm_parser import (AssemblyProgram, ParserConfig, linear_blocks, parse_assembly,
                               segment_basic_blocks)
from asmsim.corpus import (ProgramEntry, build_grid, coprime_strides,
                           enumerate_subsets, APPLICATION_SPECIFIC,
                           PROGRAMMER_SPECIFIC, totally_different)
from asmsim.errors import EmptyProgramError, ParseError
from asmsim.features import (PatternSet, ProgramFeatures, extract_ngrams,
                             features_for_program)
from asmsim.metrics import MetricKind, pair_values

import oracles
from conftest import FIXTURES, pair_of

MNEMONIC_ALPHABET = ["mov", "add", "sub", "ldr", "str", "cmp", "b", "bl", "push"]

mnemonic_sets = st.frozensets(st.sampled_from(MNEMONIC_ALPHABET))
frequency_vectors = st.dictionaries(st.sampled_from(MNEMONIC_ALPHABET),
                                    st.integers(1, 50), min_size=1)

PATTERN_POOL = [(a, b) for a in MNEMONIC_ALPHABET[:4] for b in MNEMONIC_ALPHABET[:4]]
pattern_sets = st.lists(st.sampled_from(PATTERN_POOL), unique=True).map(
    lambda patterns: PatternSet(tuple(patterns)))


def random_program(seed):
    rng = random.Random(seed)
    return parse_assembly(oracles.random_program_text(rng))


def block_spans(program, starts):
    """The (start, end) span of each block that begins at one of ``starts``."""
    return list(zip(starts, [*starts[1:], len(program.mnemonics)]))


class TestParserProperties:
    @given(st.integers(0, 10**9))
    def test_blocks_concatenate_to_program(self, seed):
        program = random_program(seed)
        spans = block_spans(program, segment_basic_blocks(program))
        covered = [i for start, end in spans for i in range(start, end)]
        assert covered == list(range(len(program.mnemonics)))

    @given(st.integers(0, 10**9))
    def test_branches_only_terminate_blocks(self, seed):
        program = random_program(seed)
        for start, end in block_spans(program, segment_basic_blocks(program)):
            assert start < end
            for mnemonic, operands in zip(program.mnemonics[start:end - 1],
                                          program.operands[start:end - 1]):
                assert not oracles.oracle_is_branch(mnemonic, operands)

    @given(st.integers(0, 10**9))
    def test_blocks_match_leader_oracle(self, seed):
        program = random_program(seed)
        assert segment_basic_blocks(program) == oracles.oracle_blocks(program)

    @pytest.mark.parametrize("name", ["conformance_basic.s", "conformance_branches.s",
                                      "conformance_labels.s"])
    def test_conformance_blocks_match_leader_oracle(self, name):
        program = parse_assembly((FIXTURES / name).read_text())
        assert segment_basic_blocks(program) == oracles.oracle_blocks(program)

    @given(st.integers(0, 10**9))
    def test_reparse_of_canonical_source_is_stable(self, seed):
        program = random_program(seed)
        again = parse_assembly(oracles.canonical_source(program))
        assert again.mnemonics == program.mnemonics
        assert again.operands == program.operands

    @given(st.integers(0, 10**9))
    def test_line_ending_convention_is_irrelevant(self, seed):
        rng = random.Random(seed)
        text = oracles.random_program_text(rng)
        unix = parse_assembly(text)
        dos = parse_assembly(text.replace("\n", "\r\n"))
        mac = parse_assembly(text.replace("\n", "\r"))
        for other in (dos, mac):
            assert other.mnemonics == unix.mnemonics
            assert other.operands == unix.operands
            assert other.labels == unix.labels


# the last two cut comments in one pass for all markers: "/" begins inside
# "//", and "# " ends in the space that a cut leaves
MARKER_SETS = [frozenset({"@", "//"}), frozenset({"@", "//", "#", ";"}),
               frozenset({";"}), frozenset(), frozenset({"/", "//"}),
               frozenset({"! ", "# "})]


class TestParserOracle:
    @given(st.lists(st.tuples(st.integers(0, 10**9), st.sampled_from(MARKER_SETS)),
                    min_size=1, max_size=5))
    def test_lenient_parse_matches_oracle(self, listings):
        # every call shares the mnemonic memo: the listings parsed before,
        # under other comment markers, must not change the last parse
        *before, (seed, markers) = listings
        for other_seed, other_markers in before:
            parse_assembly(oracles.random_listing_text(random.Random(other_seed)),
                           ParserConfig(comment_markers=other_markers))
        text = oracles.random_listing_text(random.Random(seed))
        config = ParserConfig(comment_markers=markers)
        program = parse_assembly(text, config)
        expected = oracles.oracle_parse(text, config)
        assert program.mnemonics == expected.mnemonics
        assert program.operands == expected.operands
        assert program.labels == expected.labels
        assert program.diagnostics == expected.diagnostics

    @given(st.integers(0, 10**9), st.sampled_from(MARKER_SETS))
    def test_strict_parse_fails_like_oracle(self, seed, markers):
        text = oracles.random_listing_text(random.Random(seed))
        config = ParserConfig(comment_markers=markers, strict=True)
        outcomes = []
        for parse in (parse_assembly, oracles.oracle_parse):
            try:
                program = parse(text, config, source_name="t.s")
                outcomes.append((program.mnemonics, program.operands,
                                 program.labels, program.diagnostics))
            except ParseError as exc:
                outcomes.append((exc.message, exc.entity))
        assert outcomes[0] == outcomes[1]


@st.composite
def mnemonics_and_starts(draw):
    """A mnemonic list and any segmentation of it: 0 and a sorted subset of
    the other indices, so there are short blocks, one-instruction blocks
    and blocks that end at the last instruction."""
    mnemonics = draw(st.lists(st.sampled_from(MNEMONIC_ALPHABET[:4]), max_size=16))
    starts = sorted(draw(st.sets(st.integers(0, max(len(mnemonics) - 1, 0)))) | {0})
    return mnemonics, starts[:len(mnemonics)]


class TestFeatureProperties:
    @given(mnemonics_and_starts(), st.integers(2, 4))
    @example(([], []), 2)
    @example((["mov", "add", "sub"], [0, 1, 2]), 2)
    @example((["mov", "add", "sub", "ldr", "mov", "add"], [0, 1, 2, 3]), 2)
    @example((["mov", "add", "sub", "ldr"], [0, 2]), 3)
    @example((["mov", "add", "sub", "ldr"], [0, 1]), 3)
    def test_ngrams_on_any_block_list_match_oracle(self, case, n):
        mnemonics, starts = case
        program = AssemblyProgram(mnemonics, [""] * len(mnemonics), {})
        assert extract_ngrams(mnemonics, starts, n).patterns == \
            oracles.oracle_ngrams(program, starts, n)

    @given(st.integers(0, 10**9), st.integers(2, 5))
    def test_ngrams_match_window_oracle(self, seed, n):
        program = random_program(seed)
        assert extract_ngrams(program.mnemonics, segment_basic_blocks(program), n).patterns \
            == oracles.oracle_ngrams(program, oracles.oracle_blocks(program), n)

    @given(st.integers(0, 10**9), st.integers(2, 5))
    def test_linear_ngrams_match_window_oracle(self, seed, n):
        program = random_program(seed)
        whole = [0] if program.mnemonics else []
        assert extract_ngrams(program.mnemonics, linear_blocks(program), n).patterns == \
            oracles.oracle_ngrams(program, whole, n)

    @given(st.lists(st.sampled_from(["mov", "add", "sub", "ldr", "str", "cmp"]),
                    min_size=1, max_size=12),
           st.sampled_from([2, 3]))
    def test_single_block_window_count(self, mnemonics, n):
        program = parse_assembly("".join(f"\t{m} r0, r1\n" for m in mnemonics))
        blocks = segment_basic_blocks(program)
        windows = [tuple(mnemonics[i:i + n]) for i in range(len(mnemonics) - n + 1)]
        distinct = [w for k, w in enumerate(windows) if w not in windows[:k]]
        assert len(blocks) == 1
        assert extract_ngrams(mnemonics, blocks, n).patterns == tuple(distinct)


class TestMetricProperties:
    @given(mnemonic_sets, mnemonic_sets)
    def test_jaccard_symmetric_and_bounded(self, s1, s2):
        value = pair_of(MetricKind.JACCARD, s1, s2)
        assert value == pair_of(MetricKind.JACCARD, s2, s1)
        assert 0.0 <= value <= 1.0

    @given(frequency_vectors, frequency_vectors)
    def test_cosine_symmetric_and_bounded(self, a, b):
        value = pair_of(MetricKind.COSINE, a, b)
        assert value == pair_of(MetricKind.COSINE, b, a)
        assert 0.0 <= value <= 1.0

    @given(frequency_vectors, st.integers(2, 1000))
    def test_cosine_scale_invariant(self, a, k):
        scaled = {m: k * v for m, v in a.items()}
        assert abs(pair_of(MetricKind.COSINE, a, scaled) - 1.0) <= 1e-12

    @given(pattern_sets, pattern_sets)
    def test_euclidean_is_sqrt_hamming(self, p1, p2):
        assert pair_of(MetricKind.EUCLIDEAN2, p1.patterns, p2.patterns) == \
            math.sqrt(len(set(p1.patterns) ^ set(p2.patterns)))

    @given(pattern_sets, pattern_sets)
    def test_pattern_distance_matches_oracle(self, p1, p2):
        a, b = p1.patterns, p2.patterns
        assert pair_of(MetricKind.EUCLIDEAN2, a, b) == \
            oracles.naive_euclidean(a, b, set(a) | set(b))

    @given(pattern_sets, pattern_sets, pattern_sets)
    def test_euclidean_triangle_inequality(self, pa, pb, pc):
        d = lambda x, y: pair_of(MetricKind.EUCLIDEAN2, x.patterns, y.patterns)
        assert d(pa, pc) <= d(pa, pb) + d(pb, pc) + 1e-9


def scored_program(seed):
    """Features and oracle features of a random program, or of the empty
    program for ``None``."""
    text = "" if seed is None else oracles.random_program_text(random.Random(seed))
    program = parse_assembly(text)
    return (features_for_program(program),
            oracles.oracle_features(program, oracles.oracle_blocks(program)))


@st.composite
def scored_programs(draw):
    """0 to 6 programs drawn with repetition from a pool of up to 4 random
    or empty ones (so a list may repeat one program object), and a list of
    index pairs into them that holds self-pairs, repeated and reversed pairs."""
    pool = [scored_program(seed) for seed in
            draw(st.lists(st.none() | st.integers(0, 10**9), min_size=1, max_size=4))]
    programs = draw(st.lists(st.sampled_from(pool), max_size=6))
    index = st.integers(0, len(programs) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=12)) if programs else []
    return programs, pairs + [(j, i) for i, j in pairs[:3]] + pairs[:2]


def scalar_value(kind, a, b):
    """One pair through the exact references of tests/oracles.py: the same
    integers, then the same one float operation."""
    if kind is MetricKind.JACCARD:
        return oracles.naive_jaccard(a.frequency, b.frequency)
    if kind is MetricKind.COSINE:
        return oracles.exact_cosine(a.frequency, b.frequency)
    pa, pb = ((f.patterns2 if kind is MetricKind.EUCLIDEAN2 else f.patterns3).patterns
              for f in (a, b))
    assert len(set(pa)) == len(pa) and len(set(pb)) == len(pb)  # each pattern held once
    return oracles.naive_euclidean(pa, pb, set(pa) | set(pb))


EMPTY_AND_DUPLICATES = [scored_program(None), scored_program(1), scored_program(None)]
EMPTY_AND_DUPLICATES.append(EMPTY_AND_DUPLICATES[1])


class TestPairValuesProperties:
    @settings(deadline=None)
    @given(scored_programs())
    @example(([], []))
    @example((EMPTY_AND_DUPLICATES, [(1, 3), (3, 1), (1, 1), (0, 2), (1, 3), (2, 0)]))
    @example((EMPTY_AND_DUPLICATES[1:2], [(0, 0)]))
    def test_pair_values_match_scalar_metrics_and_oracle(self, case):
        scored, explicit = case
        programs = [features for features, _ in scored]
        oracle_features = [expected for _, expected in scored]
        universes = {n: set().union(*(f[n] for f in oracle_features)) for n in (2, 3)}
        default = list(combinations(range(len(programs)), 2))
        for kind in MetricKind:
            for pairs, given_pairs in ((default, None), (explicit, explicit)):
                if kind is MetricKind.COSINE and any(
                        not (programs[i].frequency and programs[j].frequency)
                        for i, j in pairs):
                    with pytest.raises(EmptyProgramError):
                        pair_values(kind, programs, given_pairs)
                    continue
                values = pair_values(kind, programs, given_pairs)
                expected = [scalar_value(kind, programs[i], programs[j]) for i, j in pairs]
                assert values == expected  # bit for bit, in the order of pairs
                for value, (i, j) in zip(values, pairs):
                    assert value == pytest.approx(oracles.oracle_pair_value(
                        kind, oracle_features[i], oracle_features[j], universes),
                        rel=0, abs=1e-12)

    @settings(deadline=None)
    @given(scored_programs(), st.randoms(use_true_random=False))
    @example((EMPTY_AND_DUPLICATES, [(1, 3), (3, 1), (1, 1), (0, 2)]), random.Random(0))
    def test_pattern_order_and_pooling_change_no_value(self, case, rng):
        programs, explicit = [features for features, _ in case[0]], case[1]

        def shuffled(pattern_set):
            patterns = pattern_set.patterns
            return PatternSet(tuple(rng.sample(patterns, len(patterns))))

        def outcome(kind, programs, pairs):
            try:
                return pair_values(kind, programs, pairs)
            except EmptyProgramError:
                return EmptyProgramError

        reordered = [f._replace(patterns2=shuffled(f.patterns2), patterns3=shuffled(f.patterns3))
                     for f in programs]
        pool = {}  # as cli.corpus_features shares the 2-grams of a corpus
        pooled = [f._replace(patterns2=PatternSet(tuple(map(
            pool.setdefault, f.patterns2.patterns, f.patterns2.patterns)))) for f in reordered]
        for kind in MetricKind:
            for pairs in (None, explicit):
                assert outcome(kind, programs, pairs) == outcome(kind, reordered, pairs) == \
                    outcome(kind, pooled, pairs)  # bit for bit


def counted_program(frequency):
    """Features holding only ``frequency``: cosine reads nothing else."""
    return ProgramFeatures(Counter(frequency), PatternSet(()), PatternSet(()))


# counts up to 2**40 take |a|^2 |b|^2 past 2**53, where int -> float rounds
large_frequencies = st.dictionaries(st.sampled_from(MNEMONIC_ALPHABET),
                                    st.integers(1, 2**40), min_size=1)


@st.composite
def counted_programs(draw):
    """1 to 6 programs with large counts, and index pairs into them that hold
    reversed pairs and every self-pair."""
    programs = [counted_program(f) for f in draw(st.lists(large_frequencies,
                                                          min_size=1, max_size=6))]
    index = st.integers(0, len(programs) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=12))
    return programs, pairs + [(j, i) for i, j in pairs] + [(i, i) for i in range(len(programs))]


def field_edge_case(norm):
    """Four programs whose largest squared norm is ``norm``: one program, a copy of it
    (their dot product is ``norm``), a near-parallel one (its smallest count one less,
    plus one count of a mnemonic the first two lack) and an unlike one; with pairs in
    both orders and every self-pair."""
    counts, rest = [], norm
    while rest:
        counts.append(math.isqrt(rest))
        rest -= counts[-1] ** 2
    top = {f"m{k}": count for k, count in enumerate(counts)}
    near = Counter(top)
    near[f"m{len(counts) - 1}"] -= 1
    programs = [top, top, +near + Counter(x=1), {"m0": 1, "x": 2}]
    pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (3, 0), (2, 3), (0, 0), (3, 3)]
    return [counted_program(f) for f in programs], pairs


class TestDenseCosineProperties:
    @settings(deadline=None)
    @given(counted_programs())
    @example(([counted_program({"mov": 2**40, "add": 1}),
               counted_program({"mov": 2**40 - 1, "add": 3, "sub": 2**39})], [(0, 1), (1, 1)]))
    # the largest squared norm on each side of the 1-, 2- and 8-byte field widths
    @example(field_edge_case(255))
    @example(field_edge_case(256))
    @example(field_edge_case(65535))
    @example(field_edge_case(65536))
    @example(field_edge_case(2**64 - 1))
    @example(field_edge_case(2**64))
    @example(([], []))
    @example(([counted_program({"mov": 3})], [(0, 0)]))
    def test_dense_cosine_matches_scalar_at_large_counts(self, case):
        programs, pairs = case
        default = list(combinations(range(len(programs)), 2))
        for given_pairs, expected_pairs in ((None, default), (pairs, pairs)):
            assert pair_values(MetricKind.COSINE, programs, given_pairs) == [
                oracles.exact_cosine(programs[i].frequency, programs[j].frequency)
                for i, j in expected_pairs]  # bit for bit

    @given(large_frequencies)
    def test_identical_programs_score_exactly_one(self, frequency):
        programs = [counted_program(frequency), counted_program(frequency)]
        assert pair_values(MetricKind.COSINE, programs, [(0, 1), (1, 0), (0, 0)]) == [1.0] * 3


class TestGroupingProperties:
    @settings(deadline=None)
    @given(st.integers(2, 7), st.integers(2, 7))
    def test_axis_groupings_have_required_shape(self, n_apps, n_programmers):
        entries = [ProgramEntry(f"p{p}a{a}", None, f"prog{p}", f"app{a}")
                   for a in range(n_apps) for p in range(n_programmers)]
        grid = build_grid(entries)
        by_app = enumerate_subsets(grid, APPLICATION_SPECIFIC)
        assert len(by_app) == n_apps
        for subset in by_app:
            assert len({m.application for m in subset.members}) == 1
            assert len({m.programmer for m in subset.members}) == n_programmers
        by_programmer = enumerate_subsets(grid, PROGRAMMER_SPECIFIC)
        assert len(by_programmer) == n_programmers
        for subset in by_programmer:
            assert len({m.programmer for m in subset.members}) == 1
            assert len({m.application for m in subset.members}) == n_apps

    @settings(deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_transversals_partition(self, n, data):
        stride = data.draw(st.sampled_from(coprime_strides(n)))
        entries = [ProgramEntry(f"p{p}a{a}", None, f"prog{p}", f"app{a}")
                   for a in range(n) for p in range(n)]
        grid = build_grid(entries)
        subsets = enumerate_subsets(grid, totally_different(stride))
        assert len(subsets) == n
        all_ids = [m.id for s in subsets for m in s.members]
        assert sorted(all_ids) == sorted(e.id for e in entries)
        for subset in subsets:
            assert len({m.programmer for m in subset.members}) == n
            assert len({m.application for m in subset.members}) == n
