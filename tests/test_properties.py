import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asmsim.asm_parser import (AssemblyProgram, BasicBlock, Instruction, ParserConfig,
                               is_branch, parse_assembly, segment_basic_blocks)
from asmsim.corpus import (ProgramEntry, build_grid, coprime_strides,
                           enumerate_subsets, APPLICATION_SPECIFIC,
                           PROGRAMMER_SPECIFIC, totally_different)
from asmsim.errors import ParseError
from asmsim.features import PatternSet, extract_ngrams
from asmsim.metrics import cosine, jaccard, pattern_distance

import oracles
from conftest import FIXTURES

MNEMONIC_ALPHABET = ["mov", "add", "sub", "ldr", "str", "cmp", "b", "bl", "push"]

mnemonic_sets = st.frozensets(st.sampled_from(MNEMONIC_ALPHABET))
frequency_vectors = st.dictionaries(st.sampled_from(MNEMONIC_ALPHABET),
                                    st.integers(1, 50), min_size=1)

PATTERN_POOL = [(a, b) for a in MNEMONIC_ALPHABET[:4] for b in MNEMONIC_ALPHABET[:4]]
pattern_sets = st.frozensets(st.sampled_from(PATTERN_POOL)).map(
    lambda patterns: PatternSet(2, patterns))


def random_program(seed):
    rng = random.Random(seed)
    return parse_assembly(oracles.random_program_text(rng))


class TestParserProperties:
    @given(st.integers(0, 10**9))
    def test_blocks_concatenate_to_program(self, seed):
        program = random_program(seed)
        blocks = segment_basic_blocks(program)
        covered = [i for start, end in blocks for i in range(start, end)]
        assert covered == list(range(len(program.instructions)))

    @given(st.integers(0, 10**9))
    def test_branches_only_terminate_blocks(self, seed):
        program = random_program(seed)
        for start, end in segment_basic_blocks(program):
            assert start < end
            for instruction in program.instructions[start:end - 1]:
                assert not is_branch(instruction)

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
        assert [(i.mnemonic, i.operands_raw) for i in again.instructions] == \
            [(i.mnemonic, i.operands_raw) for i in program.instructions]

    @given(st.integers(0, 10**9))
    def test_line_ending_convention_is_irrelevant(self, seed):
        rng = random.Random(seed)
        text = oracles.random_program_text(rng)
        unix = parse_assembly(text)
        dos = parse_assembly(text.replace("\n", "\r\n"))
        mac = parse_assembly(text.replace("\n", "\r"))
        for other in (dos, mac):
            assert other.instructions == unix.instructions
            assert other.labels == unix.labels


MARKER_SETS = [frozenset({"@", "//"}), frozenset({"@", "//", "#", ";"}),
               frozenset({";"}), frozenset()]


class TestParserOracle:
    @given(st.integers(0, 10**9), st.sampled_from(MARKER_SETS))
    def test_lenient_parse_matches_oracle(self, seed, markers):
        text = oracles.random_listing_text(random.Random(seed))
        config = ParserConfig(comment_markers=markers)
        program = parse_assembly(text, config)
        expected = oracles.oracle_parse(text, config)
        assert program.instructions == expected.instructions
        assert program.labels == expected.labels
        assert program.diagnostics == expected.diagnostics

    @given(st.integers(0, 10**9), st.sampled_from(MARKER_SETS))
    def test_strict_parse_fails_like_oracle(self, seed, markers):
        text = oracles.random_listing_text(random.Random(seed))
        config = ParserConfig(comment_markers=markers, strict=True)
        outcomes = []
        for parse in (parse_assembly, oracles.oracle_parse):
            try:
                outcomes.append(parse(text, config, source_name="t.s").instructions)
            except ParseError as exc:
                outcomes.append((exc.message, exc.entity))
        assert outcomes[0] == outcomes[1]


@st.composite
def mnemonics_and_blocks(draw):
    """A mnemonic list and a block list that need not cover it: sorted
    disjoint spans, each kept or dropped, so there are gaps, short blocks
    and blocks that end at the last instruction."""
    mnemonics = draw(st.lists(st.sampled_from(MNEMONIC_ALPHABET[:4]), max_size=16))
    points = sorted(draw(st.sets(st.integers(0, len(mnemonics)))))
    keep = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    blocks = [BasicBlock(start, end) for start, end, kept in
              zip(points, points[1:], keep) if kept]
    return mnemonics, blocks


class TestFeatureProperties:
    @given(mnemonics_and_blocks(), st.integers(2, 4))
    @example((["mov", "add", "sub"], []), 2)
    @example((["mov", "add", "sub", "ldr", "mov", "add"], [BasicBlock(1, 2), BasicBlock(3, 6)]), 2)
    @example((["mov", "add", "sub", "ldr"], [BasicBlock(0, 1), BasicBlock(2, 4)]), 3)
    def test_ngrams_on_any_block_list_match_oracle(self, case, n):
        mnemonics, blocks = case
        program = AssemblyProgram([Instruction(m, "", i) for i, m in enumerate(mnemonics)], {})
        assert extract_ngrams(mnemonics, blocks, n).patterns == \
            oracles.oracle_ngrams(program, blocks, n)

    @given(st.integers(0, 10**9), st.integers(2, 5))
    def test_ngrams_match_window_oracle(self, seed, n):
        program = random_program(seed)
        blocks = segment_basic_blocks(program)
        mnemonics = [ins.mnemonic for ins in program.instructions]
        assert extract_ngrams(mnemonics, blocks, n).patterns == \
            oracles.oracle_ngrams(program, blocks, n)

    @given(st.lists(st.sampled_from(["mov", "add", "sub", "ldr", "str", "cmp"]),
                    min_size=1, max_size=12),
           st.sampled_from([2, 3]))
    def test_single_block_window_count(self, mnemonics, n):
        program = parse_assembly("".join(f"\t{m} r0, r1\n" for m in mnemonics))
        blocks = segment_basic_blocks(program)
        windows = [tuple(mnemonics[i:i + n]) for i in range(len(mnemonics) - n + 1)]
        assert len(blocks) == 1
        assert extract_ngrams(mnemonics, blocks, n).patterns == set(windows)


class TestMetricProperties:
    @given(mnemonic_sets, mnemonic_sets)
    def test_jaccard_symmetric_and_bounded(self, s1, s2):
        value = jaccard(s1, s2)
        assert value == jaccard(s2, s1)
        assert 0.0 <= value <= 1.0

    @given(frequency_vectors, frequency_vectors)
    def test_cosine_symmetric_and_bounded(self, a, b):
        value = cosine(a, b)
        assert value == cosine(b, a)
        assert 0.0 <= value <= 1.0

    @given(frequency_vectors, st.integers(2, 1000))
    def test_cosine_scale_invariant(self, a, k):
        scaled = {m: k * v for m, v in a.items()}
        assert abs(cosine(a, scaled) - 1.0) <= 1e-12

    @given(pattern_sets, pattern_sets)
    def test_euclidean_is_sqrt_hamming(self, p1, p2):
        assert pattern_distance(p1.patterns, p2.patterns) == \
            math.sqrt(len(p1.patterns ^ p2.patterns))

    @given(pattern_sets, pattern_sets)
    def test_pattern_distance_matches_oracle(self, p1, p2):
        a, b = p1.patterns, p2.patterns
        assert pattern_distance(a, b) == oracles.naive_euclidean(a, b, a | b)

    @given(pattern_sets, pattern_sets, pattern_sets)
    def test_euclidean_triangle_inequality(self, pa, pb, pc):
        d = lambda x, y: pattern_distance(x.patterns, y.patterns)
        assert d(pa, pc) <= d(pa, pb) + d(pb, pc) + 1e-9


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
