import pytest

from asmsim.asm_parser import (ParserConfig, is_branch, linear_blocks,
                               parse_assembly, segment_basic_blocks)
from asmsim.errors import ParseError

import oracles


def mnemonics(program):
    return [ins.mnemonic for ins in program.instructions]


def block_spans(blocks):
    return [(b.start_index, b.end_index) for b in blocks]


class TestParseAssembly:
    def test_minimal_listing(self):
        program = parse_assembly("\tmovs r0, #0\n\tbx lr\n")
        assert [(i.mnemonic, i.operands_raw) for i in program.instructions] == [
            ("movs", "r0, #0"), ("bx", "lr")]
        assert program.labels == {}
        assert program.diagnostics == []

    def test_directives_produce_no_instructions(self):
        program = parse_assembly(".text\n.global main\nmain:\n\tpush {r7}\n")
        assert [(i.mnemonic, i.operands_raw) for i in program.instructions] == [
            ("push", "{r7}")]
        assert program.labels == {"main": 0}

    def test_width_qualifiers_stripped(self):
        program = parse_assembly("\tbne.n .L3\n\tldr.w r0, [r1]\n")
        assert mnemonics(program) == ["bne", "ldr"]
        assert program.instructions[0].operands_raw == ".L3"

    def test_mnemonics_lowercased_suffixes_kept(self):
        program = parse_assembly("\tBEQ.N target\n\tBNE other\n")
        assert mnemonics(program) == ["beq", "bne"]

    def test_type_qualifier_not_stripped(self):
        # only encoding-width qualifiers go; vector type suffixes stay
        program = parse_assembly("\tvcvt.f32.s32 s0, s0\n")
        assert mnemonics(program) == ["vcvt.f32.s32"]

    def test_inline_comments_stripped(self):
        program = parse_assembly("\tmov r0, r1 @ copy\n\tadd r2, r3 // sum\n")
        assert [(i.mnemonic, i.operands_raw) for i in program.instructions] == [
            ("mov", "r0, r1"), ("add", "r2, r3")]

    def test_hash_is_not_a_comment(self):
        program = parse_assembly("\tmovs r0, #42\n")
        assert program.instructions[0].operands_raw == "r0, #42"

    def test_whole_line_comments(self):
        program = parse_assembly("@ nothing here\n// or here\n\tnop\n")
        assert mnemonics(program) == ["nop"]
        assert program.instructions[0].line_no == 3

    def test_label_positions(self):
        text = "a:\n\tmov r0, r1\nb:\n\tadd r0, r1\nend:\n"
        program = parse_assembly(text)
        assert program.labels == {"a": 0, "b": 1, "end": 2}

    def test_label_at_end_of_file_maps_to_length(self):
        program = parse_assembly("\tnop\ntail:\n")
        assert program.labels == {"tail": 1}
        assert len(program.instructions) == 1

    def test_multiple_labels_and_instruction_on_one_line(self):
        program = parse_assembly("start: entry: movs r0, #1\n")
        assert program.labels == {"start": 0, "entry": 0}
        assert mnemonics(program) == ["movs"]

    def test_label_then_directive_same_line(self):
        program = parse_assembly("lit: .word 12\n\tnop\n")
        assert program.labels == {"lit": 0}
        assert mnemonics(program) == ["nop"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_ending_insensitive(self, newline):
        text = newline.join(["\tmov r0, r1", "x:", "\tadd r0, r1", ""])
        program = parse_assembly(text)
        assert mnemonics(program) == ["mov", "add"]
        assert program.labels == {"x": 1}
        assert [i.line_no for i in program.instructions] == [1, 3]

    def test_trailing_whitespace_ignored(self):
        plain = parse_assembly("\tmov r0, r1\n\tadd r0, r1\n")
        padded = parse_assembly("\tmov r0, r1   \n\tadd r0, r1\t\n")
        assert [(i.mnemonic, i.operands_raw) for i in plain.instructions] == \
               [(i.mnemonic, i.operands_raw) for i in padded.instructions]

    def test_lenient_mode_records_diagnostics(self):
        program = parse_assembly("\tnop\n\t!!! not assembly\n\tnop\n")
        assert mnemonics(program) == ["nop", "nop"]
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
        assert program.instructions == [] and program.labels == {}

    def test_canonical_source_roundtrip(self, fixtures_dir):
        text = (fixtures_dir / "conformance_basic.s").read_text()
        program = parse_assembly(text)
        again = parse_assembly(oracles.canonical_source(program))
        assert [(i.mnemonic, i.operands_raw) for i in again.instructions] == \
               [(i.mnemonic, i.operands_raw) for i in program.instructions]


class TestMnemonicMemo:
    """Lines whose first token was seen before take a memoised path; these
    are the cases where it could disagree with a line parsed afresh."""

    def test_label_name_later_used_as_mnemonic(self):
        program = parse_assembly("foo:\n\tfoo r0\nfoo:\n\tfoo r1\n")
        assert mnemonics(program) == ["foo", "foo"]
        assert program.labels == {"foo": 1}
        assert program.diagnostics == []

    def test_mnemonic_later_used_as_label(self):
        program = parse_assembly("\tfoo r0\nfoo:\n\tFOO.W r1\nfoo: foo r2\n")
        assert [(i.mnemonic, i.operands_raw) for i in program.instructions] == [
            ("foo", "r0"), ("foo", "r1"), ("foo", "r2")]
        assert program.labels == {"foo": 2}

    def test_malformed_first_token_diagnosed_on_every_line(self):
        program = parse_assembly("\t1abc r0\n\tnop\n\t1abc r0\n\t1abc r1\n")
        assert mnemonics(program) == ["nop"]
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
            return [i.operands_raw for i in parse_assembly(text, config).instructions]

        assert operands(semicolon) == ["r0, r1", "r0, r1 @ two"]
        assert operands(at) == ["r0, r1 ; one", "r0, r1"]
        assert operands(semicolon) == ["r0, r1", "r0, r1 @ two"]
        assert operands(ParserConfig(comment_markers=frozenset())) == [
            "r0, r1 ; one", "r0, r1 @ two"]


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
        assert [mnemonics(program)[start:end] for start, end in blocks] == \
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
            assert covered == list(range(len(program.instructions)))
            for start, end in blocks:
                assert start < end
                for ins in program.instructions[start:end - 1]:
                    assert not is_branch(ins.mnemonic, ins.operands_raw)

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
