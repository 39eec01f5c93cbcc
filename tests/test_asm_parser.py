import pytest

from asmsim import asm_parser
from asmsim.asm_parser import (ParserConfig, is_branch, linear_blocks,
                               parse_assembly, segment_basic_blocks)
from asmsim.errors import ParseError

import oracles


def rows(program):
    return list(zip(program.mnemonics, program.operands))


def block_spans(blocks):
    return [(b.start_index, b.end_index) for b in blocks]


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


class TestBranchClassification:
    @pytest.mark.parametrize("mnemonic", [
        "b", "beq", "bne", "bls", "bge", "bal", "bl", "bleq", "blx", "blxne",
        "bx", "cbz", "cbnz"])
    def test_branches(self, mnemonic):
        assert is_branch(mnemonic, "somewhere")

    @pytest.mark.parametrize("mnemonic", ["bic", "bics", "bkpt", "bfi", "add",
                                          "mov", "push", "ldr"])
    def test_non_branches(self, mnemonic):
        assert not is_branch(mnemonic, "r0, r1")

    def test_pop_with_pc(self):
        assert is_branch("pop", "{r4, r5, pc}")
        assert not is_branch("pop", "{r4, r5}")
        # pc must be a whole token, not a substring
        assert not is_branch("pop", "{pcsr}")


class TestSegmentBasicBlocks:
    def test_sole_block_ends_with_branch(self):
        program = parse_assembly("\tmovs r0, #0\n\tbx lr\n")
        blocks = segment_basic_blocks(program)
        assert block_spans(blocks) == [(0, 2)]

    def test_leader_rules(self):
        text = "\tmov r0, r1\n\tbeq L\n\tadd r0, r1\nL:\n\tsub r0, r1\n"
        program = parse_assembly(text)
        blocks = segment_basic_blocks(program)
        assert block_spans(blocks) == [(0, 2), (2, 3), (3, 4)]
        assert [program.mnemonics[start:end] for start, end in blocks] == \
            [["mov", "beq"], ["add"], ["sub"]]

    def test_unreferenced_label_creates_no_leader(self):
        text = "\tmov r0, r1\n\tadd r0, r1\nquiet:\n\tsub r0, r1\n"
        program = parse_assembly(text)
        assert block_spans(segment_basic_blocks(program)) == [(0, 3)]

    def test_non_branch_label_reference_creates_no_leader(self):
        # a literal-pool load names a label without transferring control
        text = "\tldr r0, .LC0\n\tadd r0, r1\n.LC0:\n\tsub r0, r1\n"
        program = parse_assembly(text)
        assert block_spans(segment_basic_blocks(program)) == [(0, 3)]

    def test_branch_to_label_at_end_of_file(self):
        program = parse_assembly("\tb done\n\tnop\ndone:\n")
        assert block_spans(segment_basic_blocks(program)) == [(0, 1), (1, 2)]

    def test_empty_program(self):
        assert segment_basic_blocks(parse_assembly("")) == []

    def test_blocks_cover_program_in_order(self, fixtures_dir):
        for name in ("conformance_basic.s", "conformance_branches.s"):
            program = parse_assembly((fixtures_dir / name).read_text())
            blocks = segment_basic_blocks(program)
            covered = [i for start, end in blocks for i in range(start, end)]
            assert covered == list(range(len(program.mnemonics)))
            for start, end in blocks:
                assert start < end
                for mnemonic, operands in rows(program)[start:end - 1]:
                    assert not is_branch(mnemonic, operands)

    def test_linear_blocks(self):
        program = parse_assembly("\tmov r0, r1\n\tbeq L\nL:\n\tsub r0, r1\n")
        blocks = linear_blocks(program)
        assert block_spans(blocks) == [(0, 3)]
        assert linear_blocks(parse_assembly("")) == []

    def test_custom_branch_set(self):
        config = ParserConfig(branch_mnemonics=frozenset({"jmp"}))
        program = parse_assembly("\tjmp out\n\tmov r0, r1\n\tbx lr\n", config)
        # bx is not a branch under this config; only jmp splits
        assert block_spans(segment_basic_blocks(program, config)) == [(0, 1), (1, 3)]

    def test_each_config_segments_with_its_own_branch_list(self):
        """The cached branch set is keyed on the list, never shared between configs."""
        program = parse_assembly("\tjmp out\n\tmov r0, r1\n\tcall f\n\tadd r0, r1\n")
        jmp = ParserConfig(branch_mnemonics=frozenset({"jmp"}))
        call = ParserConfig(branch_mnemonics=frozenset({"call"}))
        for _ in range(2):
            assert block_spans(segment_basic_blocks(program, jmp)) == [(0, 1), (1, 4)]
            assert block_spans(segment_basic_blocks(program, call)) == [(0, 3), (3, 4)]
            assert is_branch("jmp", "out", jmp) and not is_branch("jmp", "out", call)
