import random

import pytest

from asmsim.asm_parser import parse_assembly, segment_basic_blocks
from asmsim.errors import PatternMismatchError
from asmsim.features import (PatternSet, build_universe, compute_features,
                             extract_ngrams, features_for_program,
                             features_to_dict, frequency_vector)

import oracles


def program_of(*mnemonic_lines):
    return parse_assembly("".join(f"\t{line}\n" for line in mnemonic_lines))


def patterns(n, *tuples):
    return PatternSet(n, frozenset(tuples))


class TestBagFeatures:
    """Existence is the key set of the frequency vector."""

    def test_existence_collapses_duplicates(self):
        program = program_of("mov r0", "mov r1", "add r2")
        assert frequency_vector(program).keys() == {"mov", "add"}

    def test_existence_empty(self):
        assert frequency_vector(parse_assembly("")).keys() == frozenset()

    def test_existence_enumeration(self):
        program = program_of("push {lr}", "mov r0", "bl f", "mov r1", "pop {pc}")
        assert frequency_vector(program).keys() == {"push", "mov", "bl", "pop"}

    def test_frequency_counts(self):
        assert frequency_vector(program_of("mov r0", "mov r1", "add r2")) == {
            "mov": 2, "add": 1}
        program = program_of("mov r0", "add r1", "mov r2", "b out")
        assert sum(frequency_vector(program).values()) == len(program.instructions)

    def test_frequency_empty(self):
        assert frequency_vector(parse_assembly("")) == {}

    def test_frequency_single_mnemonic(self):
        assert frequency_vector(program_of("b x", "b x", "b x", "b x")) == {"b": 4}


class TestExtractNgrams:
    def test_sliding_window_single_block(self):
        program = program_of("mov r0", "add r1", "sub r2")
        got = extract_ngrams(segment_basic_blocks(program), 2)
        assert got.patterns == {("mov", "add"), ("add", "sub")}

    def test_windows_confined_to_blocks(self):
        text = "\tmov r0, r1\n\tbeq L\n\tadd r0, r1\nL:\n\tsub r0, r1\n"
        program = parse_assembly(text)
        got = extract_ngrams(segment_basic_blocks(program), 2)
        # blocks [mov,beq],[add],[sub]: singleton blocks yield no windows
        assert got.patterns == {("mov", "beq")}

    def test_trigrams_deduplicated(self):
        program = program_of("mov r0", "add r1", "sub r2", "mov r3", "add r4")
        got = extract_ngrams(segment_basic_blocks(program), 3)
        assert got.patterns == {("mov", "add", "sub"), ("add", "sub", "mov"),
                                ("sub", "mov", "add")}

    def test_blocks_shorter_than_n(self):
        program = program_of("mov r0")
        assert extract_ngrams(segment_basic_blocks(program), 3).patterns == frozenset()

    def test_window_count_before_dedup(self):
        # L - n + 1 windows for a single block; make them all distinct
        program = program_of(*[f"op{i} r0" for i in range(9)])
        blocks = segment_basic_blocks(program)
        assert len(blocks) == 1
        for n in (2, 3):
            assert len(extract_ngrams(blocks, n).patterns) == 9 - n + 1

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            extract_ngrams([], 1)

    def test_relabeling_unreferenced_label_keeps_patterns(self):
        base = "\tmov r0, r1\n\tadd r0, r1\n{label}:\n\tsub r0, r1\n"
        one = parse_assembly(base.format(label="alpha"))
        two = parse_assembly(base.format(label="omega"))
        for n in (2, 3):
            assert extract_ngrams(segment_basic_blocks(one), n) == \
                extract_ngrams(segment_basic_blocks(two), n)

    def test_linear_mode_crosses_block_boundaries(self):
        text = "\tmov r0, r1\n\tbeq L\nL:\n\tsub r0, r1\n"
        program = parse_assembly(text)
        confined = features_for_program(program)
        linear = features_for_program(program, linear=True)
        assert ("beq", "sub") not in confined.patterns2.patterns
        assert ("beq", "sub") in linear.patterns2.patterns


class TestPatternUniverse:
    def test_union(self):
        universe = build_universe([patterns(2, ("a", "b")),
                                   patterns(2, ("a", "b"), ("b", "c"))])
        assert universe.ordered == (("a", "b"), ("b", "c"))
        assert universe.index == {("a", "b"): 0, ("b", "c"): 1}

    def test_empty_input(self):
        universe = build_universe([])
        assert len(universe) == 0

    def test_order_independent(self):
        one = build_universe([patterns(2, ("b", "c")), patterns(2, ("a", "b"))])
        two = build_universe([patterns(2, ("a", "b")), patterns(2, ("b", "c"))])
        assert one.ordered == two.ordered == (("a", "b"), ("b", "c"))

    def test_mixed_lengths_rejected(self):
        with pytest.raises(PatternMismatchError):
            build_universe([patterns(2, ("a", "b")), patterns(3, ("a", "b", "c"))])

    def test_explicit_n_mismatch_rejected(self):
        with pytest.raises(PatternMismatchError):
            build_universe([patterns(2, ("a", "b"))], n=3)

    def test_check_accepts_member_sets(self):
        universe = build_universe([patterns(2, ("a", "b"), ("b", "c"))])
        universe.check(patterns(2, ("b", "c")))
        universe.check(patterns(2))
        universe.check(patterns(3))

    def test_check_rejects_pattern_outside_universe(self):
        universe = build_universe([patterns(2, ("a", "b"))])
        with pytest.raises(PatternMismatchError, match="x") as excinfo:
            universe.check(patterns(2, ("a", "b"), ("x", "y")), entity="prog")
        assert excinfo.value.entity == "prog"

    def test_check_rejects_wrong_length(self):
        universe = build_universe([patterns(2, ("a", "b"))])
        with pytest.raises(PatternMismatchError, match="length 3"):
            universe.check(patterns(3, ("a", "b", "c")))


class TestFeatureBundle:
    def test_compute_features_consistent(self):
        program = program_of("mov r0", "add r1", "mov r2")
        features = compute_features(program, segment_basic_blocks(program))
        assert features.frequency == {"mov": 2, "add": 1}
        assert features.patterns2.n == 2 and features.patterns3.n == 3
        for pattern_set in (features.patterns2, features.patterns3):
            for pattern in pattern_set.patterns:
                assert set(pattern) <= features.frequency.keys()

    def test_dump_schema_and_order(self):
        program = program_of("mov r0", "add r1", "mov r2")
        dump = features_to_dict(features_for_program(program))
        assert list(dump) == ["mnemonics", "freq", "ngrams2", "ngrams3"]
        assert dump["mnemonics"] == ["add", "mov"]
        assert dump["freq"] == {"add": 1, "mov": 2}
        assert dump["ngrams2"] == [["add", "mov"], ["mov", "add"]]
        assert dump["ngrams3"] == [["mov", "add", "mov"]]


class TestOracleEquivalence:
    def test_random_programs_match_window_enumeration(self):
        rng = random.Random(20240811)
        for _ in range(60):
            program = parse_assembly(oracles.random_program_text(rng))
            blocks = segment_basic_blocks(program)
            for n in (2, 3):
                assert extract_ngrams(blocks, n).patterns == \
                    oracles.oracle_ngrams(program, blocks, n)
