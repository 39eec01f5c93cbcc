import random
from collections import Counter

import pytest

from asmsim.asm_parser import linear_blocks, parse_assembly, segment_basic_blocks
from asmsim.cli import corpus_features
from asmsim.config import ToolConfig
from asmsim.corpus import build_universes, load_datasets
from asmsim.features import (PatternSet, ProgramFeatures, compute_features,
                             extract_ngrams, features_for_program,
                             features_to_dict)

import oracles


def program_of(*mnemonic_lines):
    return parse_assembly("".join(f"\t{line}\n" for line in mnemonic_lines))


def frequency(program):
    return compute_features(program, []).frequency


def ngrams(program, starts, n):
    return extract_ngrams(program.mnemonics, starts, n)


def patterns(n, *tuples):
    return PatternSet(n, frozenset(tuples))


class TestBagFeatures:
    """Existence is the key set of the frequency vector."""

    def test_existence_collapses_duplicates(self):
        program = program_of("mov r0", "mov r1", "add r2")
        assert frequency(program).keys() == {"mov", "add"}

    def test_existence_empty(self):
        assert frequency(parse_assembly("")).keys() == frozenset()

    def test_existence_enumeration(self):
        program = program_of("push {lr}", "mov r0", "bl f", "mov r1", "pop {pc}")
        assert frequency(program).keys() == {"push", "mov", "bl", "pop"}

    def test_frequency_counts(self):
        assert frequency(program_of("mov r0", "mov r1", "add r2")) == {
            "mov": 2, "add": 1}
        program = program_of("mov r0", "add r1", "mov r2", "b out")
        assert sum(frequency(program).values()) == len(program.mnemonics)

    def test_frequency_empty(self):
        assert frequency(parse_assembly("")) == {}

    def test_frequency_single_mnemonic(self):
        assert frequency(program_of("b x", "b x", "b x", "b x")) == {"b": 4}


class TestExtractNgrams:
    def test_sliding_window_single_block(self):
        program = program_of("mov r0", "add r1", "sub r2")
        got = ngrams(program, segment_basic_blocks(program), 2)
        assert got.patterns == {("mov", "add"), ("add", "sub")}

    def test_windows_confined_to_blocks(self):
        text = "\tmov r0, r1\n\tbeq L\n\tadd r0, r1\nL:\n\tsub r0, r1\n"
        program = parse_assembly(text)
        got = ngrams(program, segment_basic_blocks(program), 2)
        # blocks [mov,beq],[add],[sub]: singleton blocks yield no windows
        assert got.patterns == {("mov", "beq")}

    def test_trigrams_deduplicated(self):
        program = program_of("mov r0", "add r1", "sub r2", "mov r3", "add r4")
        got = ngrams(program, segment_basic_blocks(program), 3)
        assert got.patterns == {("mov", "add", "sub"), ("add", "sub", "mov"),
                                ("sub", "mov", "add")}

    def test_blocks_shorter_than_n(self):
        program = program_of("mov r0")
        assert ngrams(program, segment_basic_blocks(program), 3).patterns == frozenset()

    def test_window_count_before_dedup(self):
        # L - n + 1 windows for a single block; make them all distinct
        program = program_of(*[f"op{i} r0" for i in range(9)])
        starts = segment_basic_blocks(program)
        assert starts == [0]
        for n in (2, 3):
            assert len(ngrams(program, starts, n).patterns) == 9 - n + 1

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            extract_ngrams([], [], 1)

    def test_relabeling_unreferenced_label_keeps_patterns(self):
        base = "\tmov r0, r1\n\tadd r0, r1\n{label}:\n\tsub r0, r1\n"
        one = parse_assembly(base.format(label="alpha"))
        two = parse_assembly(base.format(label="omega"))
        for n in (2, 3):
            assert ngrams(one, segment_basic_blocks(one), n) == \
                ngrams(two, segment_basic_blocks(two), n)

    def test_linear_mode_crosses_block_boundaries(self):
        text = "\tmov r0, r1\n\tbeq L\nL:\n\tsub r0, r1\n"
        program = parse_assembly(text)
        confined = features_for_program(program)
        linear = features_for_program(program, linear=True)
        assert ("beq", "sub") not in confined.patterns2.patterns
        assert ("beq", "sub") in linear.patterns2.patterns

    @pytest.mark.parametrize("text, starts", [
        ("", []),
        ("\tmov r0\n", [0]),
        ("\tmov r0\n\tadd r1\n", [0]),
        # a start at 1: with n = 3 the window at 1 - 2 must not wrap to the end
        ("\tb L\nL:\n\tmov r0\n\tadd r1\n\tsub r2\n", [0, 1]),
        ("\tmov r0\n\tadd r1\n\tbeq L\nL:\n", [0]),
        ("\tcbz r0, out\n\tadd r1\nout:\n", [0, 1]),
        ("\tmov r0\n\tbx lr\n", [0]),
    ], ids=["empty", "one", "two", "start-at-1", "branch-last", "label-at-end", "bx-last"])
    def test_edge_segmentations_match_oracles(self, text, starts):
        program = parse_assembly(text)
        assert segment_basic_blocks(program) == oracles.oracle_blocks(program) == starts
        assert linear_blocks(program) == [0][:len(program.mnemonics)]
        for n in (2, 3, 4):
            for mode in (starts, linear_blocks(program)):
                assert ngrams(program, mode, n).patterns == \
                    oracles.oracle_ngrams(program, mode, n)


class TestPatternUniverse:
    FEATURES = {
        "p": ProgramFeatures(Counter(), patterns(2, ("a", "b")),
                             patterns(3, ("a", "b", "c"))),
        "q": ProgramFeatures(Counter(), patterns(2, ("a", "b"), ("b", "c")),
                             patterns(3)),
    }

    def test_union(self):
        assert build_universes(self.FEATURES) == {
            2: frozenset({("a", "b"), ("b", "c")}), 3: frozenset({("a", "b", "c")})}

    def test_empty_input(self):
        assert build_universes({}) == {2: frozenset(), 3: frozenset()}

    def test_order_independent(self):
        reversed_features = dict(reversed(list(self.FEATURES.items())))
        assert list(reversed_features) == ["q", "p"]
        assert build_universes(reversed_features) == build_universes(self.FEATURES)


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


class TestPatternPool:
    def test_corpus_shares_one_tuple_per_2gram(self, fixtures_dir):
        [(_, entries)] = load_datasets(fixtures_dir / "corpus5x5" / "manifest.json").datasets
        pooled = corpus_features(entries, ToolConfig())
        assert pooled == {entry.id: features_for_program(parse_assembly(entry.path.read_text()))
                          for entry in entries}
        occurrences = [p for features in pooled.values() for p in features.patterns2.patterns]
        assert len({id(p) for p in occurrences}) == len(set(occurrences)) < len(occurrences)


class TestOracleEquivalence:
    def test_random_programs_match_window_enumeration(self):
        rng = random.Random(20240811)
        for _ in range(60):
            program = parse_assembly(oracles.random_program_text(rng))
            starts = segment_basic_blocks(program)
            for n in (2, 3):
                assert ngrams(program, starts, n).patterns == \
                    oracles.oracle_ngrams(program, starts, n)
