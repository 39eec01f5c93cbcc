import sys
import tracemalloc

import pytest

from asmsim import asm_parser
from asmsim.asm_parser import (DEFAULT_COMMENT_MARKERS, ParserConfig, comment_cutters,
                               linear_blocks, parse_assembly, segment_basic_blocks)
from asmsim.errors import InputError, ParseError

import oracles


def rows(program):
    return list(zip(program.mnemonics, program.operands))


def blocks_of(text, config=ParserConfig()):
    return segment_basic_blocks(parse_assembly(text, config), config)


class TestParseAssembly:
    def test_minimal_listing(self):
        program = parse_assembly("\tmovs r0, #0\n\tbx lr\n")
        assert rows(program) == [("movs", "r0, #0"), ("bx", "lr")]
        assert program.labels == {}
        assert program.diagnostics == []

    def test_directives_produce_no_instructions(self):
        program = parse_assembly(".text\n.global main\nmain:\n\tpush {r7}\n")
        assert rows(program) == [("push", "{r7}")]
        assert program.labels == {"main": 0}

    def test_width_qualifiers_stripped(self):
        program = parse_assembly("\tbne.n .L3\n\tldr.w r0, [r1]\n")
        assert program.mnemonics == ["bne", "ldr"]
        assert program.operands[0] == ".L3"

    def test_mnemonics_lowercased_suffixes_kept(self):
        program = parse_assembly("\tBEQ.N target\n\tBNE other\n")
        assert program.mnemonics == ["beq", "bne"]

    def test_type_qualifier_not_stripped(self):
        # only encoding-width qualifiers go; vector type suffixes stay
        program = parse_assembly("\tvcvt.f32.s32 s0, s0\n")
        assert program.mnemonics == ["vcvt.f32.s32"]

    def test_inline_comments_stripped(self):
        program = parse_assembly("\tmov r0, r1 @ copy\n\tadd r2, r3 // sum\n")
        assert rows(program) == [("mov", "r0, r1"), ("add", "r2, r3")]

    def test_hash_is_not_a_comment(self):
        program = parse_assembly("\tmovs r0, #42\n")
        assert program.operands[0] == "r0, #42"

    def test_whole_line_comments(self):
        program = parse_assembly("@ nothing here\n// or here\n\tnop\n")
        assert program.mnemonics == ["nop"]

    def test_label_positions(self):
        text = "a:\n\tmov r0, r1\nb:\n\tadd r0, r1\nend:\n"
        program = parse_assembly(text)
        assert program.labels == {"a": 0, "b": 1, "end": 2}

    def test_label_at_end_of_file_maps_to_length(self):
        program = parse_assembly("\tnop\ntail:\n")
        assert program.labels == {"tail": 1}
        assert len(program.mnemonics) == 1

    def test_multiple_labels_and_instruction_on_one_line(self):
        program = parse_assembly("start: entry: movs r0, #1\n")
        assert program.labels == {"start": 0, "entry": 0}
        assert program.mnemonics == ["movs"]

    def test_label_then_directive_same_line(self):
        program = parse_assembly("lit: .word 12\n\tnop\n")
        assert program.labels == {"lit": 0}
        assert program.mnemonics == ["nop"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_ending_insensitive(self, newline):
        text = newline.join(["\tmov r0, r1", "x:", "\tadd r0, r1", ""])
        program = parse_assembly(text)
        assert program.mnemonics == ["mov", "add"]
        assert program.labels == {"x": 1}

    def test_trailing_whitespace_ignored(self):
        plain = parse_assembly("\tmov r0, r1\n\tadd r0, r1\n")
        padded = parse_assembly("\tmov r0, r1   \n\tadd r0, r1\t\n")
        assert rows(plain) == rows(padded)

    def test_lenient_mode_records_diagnostics(self):
        program = parse_assembly("\tnop\n\t!!! not assembly\n\tnop\n")
        assert program.mnemonics == ["nop", "nop"]
        assert len(program.diagnostics) == 1
        line_no, message = program.diagnostics[0]
        assert line_no == 2
        assert "unclassifiable" in message

    def test_strict_mode_raises_positioned_error(self):
        config = ParserConfig(strict=True)
        with pytest.raises(ParseError) as excinfo:
            parse_assembly("\tnop\n\t!!! junk\n", config, source_name="prog.s")
        assert excinfo.value.entity == "prog.s:2"
        assert excinfo.value.exit_code == 3

    def test_malformed_label_is_unclassifiable(self):
        program = parse_assembly(":\n")
        assert len(program.diagnostics) == 1

    def test_empty_input(self):
        program = parse_assembly("")
        assert program.mnemonics == [] and program.labels == {}

    def test_canonical_source_roundtrip(self, fixtures_dir):
        text = (fixtures_dir / "conformance_basic.s").read_text()
        program = parse_assembly(text)
        again = parse_assembly(oracles.canonical_source(program))
        assert rows(again) == rows(program)


class TestMnemonicMemo:
    """Lines whose first token was seen before take a memoised path; these
    are the cases where it could disagree with a line parsed afresh."""

    def test_label_name_later_used_as_mnemonic(self):
        program = parse_assembly("foo:\n\tfoo r0\nfoo:\n\tfoo r1\n")
        assert program.mnemonics == ["foo", "foo"]
        assert program.labels == {"foo": 1}
        assert program.diagnostics == []

    def test_mnemonic_later_used_as_label(self):
        program = parse_assembly("\tfoo r0\nfoo:\n\tFOO.W r1\nfoo: foo r2\n")
        assert rows(program) == [("foo", "r0"), ("foo", "r1"), ("foo", "r2")]
        assert program.labels == {"foo": 2}

    def test_malformed_first_token_diagnosed_on_every_line(self):
        program = parse_assembly("\t1abc r0\n\tnop\n\t1abc r0\n\t1abc r1\n")
        assert program.mnemonics == ["nop"]
        assert [line_no for line_no, _ in program.diagnostics] == [1, 3, 4]
        assert all("unclassifiable" in message for _, message in program.diagnostics)

    def test_strict_raises_after_many_memoised_lines(self):
        text = "\tmov r0, r1\n\tadd r0, r1\n" * 2500 + "\tmov !r0\n\t1abc r0\n"
        with pytest.raises(ParseError) as excinfo:
            parse_assembly(text, ParserConfig(strict=True), source_name="long.s")
        assert excinfo.value.entity == "long.s:5002"
        assert "1abc" in excinfo.value.message

    def test_comment_markers_do_not_leak_between_configs(self):
        text = "\tmov r0, r1 ; one\n\tadd r0, r1 @ two\n"
        semicolon = ParserConfig(comment_markers=frozenset({";"}))
        at = ParserConfig(comment_markers=frozenset({"@"}))

        def operands(config):
            return parse_assembly(text, config).operands

        assert operands(semicolon) == ["r0, r1", "r0, r1 @ two"]
        assert operands(at) == ["r0, r1 ; one", "r0, r1"]
        assert operands(semicolon) == ["r0, r1", "r0, r1 @ two"]
        assert operands(ParserConfig(comment_markers=frozenset())) == [
            "r0, r1 ; one", "r0, r1 @ two"]

    def test_memo_is_shared_by_calls(self):
        parse_assembly("\tMemoShared.W r0\n")
        assert asm_parser._MNEMONIC_MEMO["MemoShared.W"] == "memoshared"

    def test_more_tokens_than_the_bound_keep_the_memo_within_it(self):
        limit = asm_parser._MEMO_LIMIT
        # every token twice, so some second sightings fall after a clearing
        text = "".join(f"\tT{i} r0\n\tnop\n" for i in range(limit + 100)) * 2
        program = parse_assembly(text)
        assert 0 < len(asm_parser._MNEMONIC_MEMO) <= limit
        expected = oracles.oracle_parse(text, ParserConfig())
        assert program.mnemonics == expected.mnemonics
        assert program.operands == expected.operands
        assert program.diagnostics == expected.diagnostics == []
        assert len(program.mnemonics) == 4 * (limit + 100)


def outcomes_like_oracle(text, markers):
    """The lenient program and the strict outcome of parse_assembly, each
    asserted equal to the oracle's."""
    found = []
    for strict in (False, True):
        config = ParserConfig(comment_markers=frozenset(markers), strict=strict)
        results = []
        for parse in (parse_assembly, oracles.oracle_parse):
            try:
                program = parse(text, config, source_name="t.s")
                results.append((program.mnemonics, program.operands, program.labels,
                                list(program.diagnostics)))
            except ParseError as exc:
                results.append((exc.message, exc.entity))
        assert results[0] == results[1]
        found.append(results[0])
    return found


class TestCommentCutting:
    """Comments are cut once per file, before the text is split into lines;
    these are the cases where that could differ from a cut line by line."""

    def test_comment_between_cr_and_lf_keeps_later_line_numbers(self):
        (_, _, _, diagnostics), _ = outcomes_like_oracle("nop\r@ c\nnop\n!!!\n",
                                                         DEFAULT_COMMENT_MARKERS)
        assert [line_no for line_no, _ in diagnostics] == [4]

    def test_marker_ending_in_a_space_cuts_at_the_earliest_marker(self):
        (mnemonics, _, labels, diagnostics), _ = outcomes_like_oracle("bx11:# ! \n",
                                                                      {"! ", "# "})
        assert labels == {"bx11": 0} and mnemonics == [] and diagnostics == []
        # a pass for "! " or "@" leaves "x:# ", in which a later pass would find "# "
        for text, markers in (("x:#! y\n", {"! ", "# "}), ("x:#@ y\n", {"@", "# "})):
            (_, _, labels, diagnostics), _ = outcomes_like_oracle(text, markers)
            assert labels == {} and len(diagnostics) == 1

    def test_overlapping_markers_cut_at_the_earliest_marker(self):
        (mnemonics, _, _, diagnostics), _ = outcomes_like_oracle("xab\n", {"ab", "xa"})
        assert mnemonics == [] and diagnostics == []
        (mnemonics, operands, _, _), _ = outcomes_like_oracle("\tmov r0 /x//y\n", {"/", "//"})
        assert mnemonics == ["mov"] and operands == ["r0"]

    @pytest.mark.parametrize("line_break", list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                             ids=["lf", "cr", "vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"])
    def test_marker_holding_a_line_break_is_rejected(self, line_break):
        # a comment ends at its line's end, so such a marker could never cut
        assert ("x" + line_break).splitlines() == ["x"]
        for marker in (line_break, "@" + line_break, "x" + line_break + "y"):
            with pytest.raises(InputError, match="line break"):
                ParserConfig(comment_markers=frozenset({"@", marker}))

    def test_unclassifiable_line_is_quoted_with_its_comment(self):
        (_, _, _, diagnostics), strict = outcomes_like_oracle("\tnop\n\t!!! junk @ note\n",
                                                              DEFAULT_COMMENT_MARKERS)
        message = "unclassifiable line: '!!! junk @ note'"
        assert diagnostics == [(2, message)]
        assert strict == (message, "t.s:2")

    @pytest.mark.parametrize("text", [
        "\tnop\n\t!!! junk   \n\tnop\n",
        "\tnop\r\n\t!!! junk\r\n\tnop\r\n",
        "\tnop\u2028\t!!! junk @ x\u2028\tnop\n",
        "\t!!! a @ c\r\n\t!!! b  \u2028\tnop // d\n\t!!! e\n\t!!! f @\t\n",
    ], ids=["trailing-spaces", "crlf", "line-separator", "mixed"])
    def test_diagnostics_quote_the_raw_line(self, text):
        """Quoted from the cut line when no comment was cut from it, else from
        the raw text: either way the line ``str.splitlines`` gives."""
        raw = text.splitlines()
        expected = [(line_no, f"unclassifiable line: {line.strip()!r}")
                    for line_no, line in enumerate(raw, start=1) if "!!!" in line]
        (_, _, _, diagnostics), strict = outcomes_like_oracle(text, DEFAULT_COMMENT_MARKERS)
        assert diagnostics == expected
        assert strict == (expected[0][1], f"t.s:{expected[0][0]}")

    @pytest.mark.parametrize("markers", [DEFAULT_COMMENT_MARKERS, frozenset({"#"}),
                                         frozenset({";"}), frozenset()])
    def test_shipped_marker_sets_cut_with_one_literal_pass_per_marker(self, markers):
        # "#" is the marker of bench/x86_config.json; one pass for all
        # markers is several times slower than these literal passes
        assert len(comment_cutters(markers)) == len(markers)

    @pytest.mark.parametrize("markers", [{"/", "//"}, {" ", "# "}, {"ab", "xa"}])
    def test_marker_sets_a_literal_pass_would_miscut_get_one_pass(self, markers):
        assert len(comment_cutters(frozenset(markers))) == 1

    def test_lines_are_not_split_twice_at_once(self):
        """Quoting a diagnostic's raw line must not keep a second list of
        lines alive: the peak stays below the program, one list of lines and
        one copy of the text."""
        text = "\t!!! junk\n" + "".join(f"L{i}:\tmov r{i % 8}, r1 @ copy\n\tldr r0, [r1]\n"
                                          for i in range(10_000))
        parse_assembly(text)  # compiles the comment pattern, fills the memo
        tracemalloc.start()
        try:
            lines = text.splitlines()
            _, lines_peak = tracemalloc.get_traced_memory()
            del lines
            tracemalloc.reset_peak()
            program = parse_assembly(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(program.diagnostics) == 1
        assert peak - held - lines_peak < sys.getsizeof(text)


class TestBranchClassification:
    """Each case segments a two-instruction program, whose second instruction
    starts a block only if the first ends one."""

    @pytest.mark.parametrize("mnemonic", [
        "b", "beq", "bne", "bls", "bge", "bal", "bl", "bleq", "blx", "blxne",
        "bx", "cbz", "cbnz"])
    def test_branches(self, mnemonic):
        assert blocks_of(f"\t{mnemonic} somewhere\n\tnop\n") == [0, 1]

    @pytest.mark.parametrize("mnemonic", ["bic", "bics", "bkpt", "bfi", "add",
                                          "mov", "push", "ldr"])
    def test_non_branches(self, mnemonic):
        assert blocks_of(f"\t{mnemonic} r0, r1\n\tnop\n") == [0]

    def test_pop_with_pc(self):
        assert blocks_of("\tpop {r4, r5, pc}\n\tnop\n") == [0, 1]
        assert blocks_of("\tpop {r4, r5}\n\tnop\n") == [0]
        # pc must be a whole token, not a substring
        assert blocks_of("\tpop {pcsr}\n\tnop\n") == [0]

    def test_pop_rule_wins_over_a_listed_pop_whose_suffixes_still_branch(self):
        config = ParserConfig(branch_mnemonics=frozenset({"b", "pop"}))
        text = "\tpop {r4}\n\tnop\n\tpopeq {r4}\n\tnop\n\tpop {r4, pc}\n\tnop\n"
        assert blocks_of(text, config) == [0, 3, 5]

    def test_a_configured_list_takes_the_condition_suffixes(self):
        config = ParserConfig(branch_mnemonics=frozenset({"jmp"}))
        assert blocks_of("\tjmpeq out\n\tnop\n", config) == [0, 1]


class TestSegmentBasicBlocks:
    def test_sole_block_ends_with_branch(self):
        program = parse_assembly("\tmovs r0, #0\n\tbx lr\n")
        assert segment_basic_blocks(program) == [0]

    def test_leader_rules(self):
        text = "\tmov r0, r1\n\tbeq L\n\tadd r0, r1\nL:\n\tsub r0, r1\n"
        program = parse_assembly(text)
        starts = segment_basic_blocks(program)
        assert starts == [0, 2, 3]
        ends = [*starts[1:], len(program.mnemonics)]
        assert [program.mnemonics[start:end] for start, end in zip(starts, ends)] == \
            [["mov", "beq"], ["add"], ["sub"]]

    def test_unreferenced_label_creates_no_leader(self):
        text = "\tmov r0, r1\n\tadd r0, r1\nquiet:\n\tsub r0, r1\n"
        program = parse_assembly(text)
        assert segment_basic_blocks(program) == [0]

    def test_non_branch_label_reference_creates_no_leader(self):
        # a literal-pool load names a label without transferring control
        text = "\tldr r0, .LC0\n\tadd r0, r1\n.LC0:\n\tsub r0, r1\n"
        program = parse_assembly(text)
        assert segment_basic_blocks(program) == [0]

    def test_label_named_by_an_indirect_branch_starts_a_block(self):
        assert blocks_of("\tblx helper\n\tnop\n\tnop\nhelper:\n\tnop\n") == [0, 1, 3]

    def test_branch_to_label_at_end_of_file(self):
        program = parse_assembly("\tb done\n\tnop\ndone:\n")
        assert segment_basic_blocks(program) == [0, 1]

    def test_empty_program(self):
        assert segment_basic_blocks(parse_assembly("")) == []

    def test_blocks_cover_program_in_order(self, fixtures_dir):
        for name in ("conformance_basic.s", "conformance_branches.s"):
            program = parse_assembly((fixtures_dir / name).read_text())
            starts = segment_basic_blocks(program)
            spans = list(zip(starts, [*starts[1:], len(program.mnemonics)]))
            covered = [i for start, end in spans for i in range(start, end)]
            assert covered == list(range(len(program.mnemonics)))
            for start, end in spans:
                assert start < end
                for mnemonic, operands in rows(program)[start:end - 1]:
                    assert not oracles.oracle_is_branch(mnemonic, operands)

    def test_linear_blocks(self):
        program = parse_assembly("\tmov r0, r1\n\tbeq L\nL:\n\tsub r0, r1\n")
        assert linear_blocks(program) == [0]
        assert linear_blocks(parse_assembly("")) == []

    def test_custom_branch_set(self):
        config = ParserConfig(branch_mnemonics=frozenset({"jmp"}))
        program = parse_assembly("\tjmp out\n\tmov r0, r1\n\tbx lr\n", config)
        # bx is not a branch under this config; only jmp splits
        assert segment_basic_blocks(program, config) == [0, 1]

    def test_each_config_segments_with_its_own_branch_list(self):
        """The cached branch set is keyed on the list, never shared between configs."""
        program = parse_assembly("\tjmp out\n\tmov r0, r1\n\tcall f\n\tadd r0, r1\n")
        jmp = ParserConfig(branch_mnemonics=frozenset({"jmp"}))
        call = ParserConfig(branch_mnemonics=frozenset({"call"}))
        for _ in range(2):
            assert segment_basic_blocks(program, jmp) == [0, 1]
            assert segment_basic_blocks(program, call) == [0, 3]
