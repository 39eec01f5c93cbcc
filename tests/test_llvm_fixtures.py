"""Basic blocks on real Thumb-2 compiler output.

``tests/fixtures/llvm`` holds hand-written LLVM IR and what
``llc -mtriple=thumbv7m-none-eabi`` made of it at ``-O0`` and ``-O2``, beside
the ``llc --version`` line that made it. llc marks the start of every machine
block it emits, and :func:`oracles.llvm_block_starts` reads those marks, so
asmsim's leaders can be checked against the compiler's own blocks. llc keeps a
call, and a ``b`` right after a conditional branch, inside one machine block,
so asmsim's textbook leaders may be more than the marks, never fewer.
"""

import re
import shutil
import subprocess

import pytest

from asmsim.asm_parser import ParserConfig, parse_assembly, segment_basic_blocks

import oracles
from conftest import FIXTURES

LLVM = FIXTURES / "llvm"
LEVELS = ("O0", "O2")
LLC = ("llc", "-mtriple=thumbv7m-none-eabi")

# Each IR file, and a pattern that its -O2 output must hold to show what it is for.
SHOWS = {
    "calls": r"\tbl\tsquare\n(?s:.*)\tb\texternal\n",  # a call, then a tail call
    "literal_pool": r"\tldr\tr1, \.LCPI0_0\n(?s:.*)\.LCPI0_0:\n\t\.long\t",
    "loops": r"@ =>  This Inner Loop Header: Depth=2",
    "pop_pc": r"\tpop\t\{r4, r5, r6, r7, pc\}\n",
    "select": r"\tit\tlt\n\tmovlt\t",
    "switch": r"\ttbb\t\[pc, r0\]\n(?s:.*)\t\.byte\t\(\.LBB0_",
}


def assembly(name, level):
    return (LLVM / f"{name}.{level}.s").read_text(encoding="utf-8")


def parsed(text):
    """asmsim's strict parse of ``text``, which must list the same instructions
    as the oracle's, and its leaders."""
    program = parse_assembly(text, ParserConfig(strict=True))
    oracle = oracles.oracle_parse(text, ParserConfig(strict=True))
    assert (program.mnemonics, program.operands) == (oracle.mnemonics, oracle.operands)
    return program, segment_basic_blocks(program)


def test_each_fixture_shows_what_it_is_for():
    assert sorted(path.stem for path in LLVM.glob("*.ll")) == sorted(SHOWS)
    for name, pattern in SHOWS.items():
        assert re.search(pattern, assembly(name, "O2")), name
        assert parsed(assembly(name, "O0"))[0].mnemonics, name


@pytest.mark.parametrize("name", sorted(SHOWS))
def test_every_machine_block_starts_an_asmsim_block(name):
    for level in LEVELS:
        text = assembly(name, level)
        leaders = parsed(text)[1]
        missed = sorted(set(oracles.llvm_block_starts(text)) - set(leaders))
        assert not missed, f"{name}.{level}.s: machine blocks start at {missed}"


@pytest.mark.parametrize("name", sorted(SHOWS))
def test_other_leaders_are_the_instructions_after_a_branch(name):
    """A leader that starts no machine block follows a branch-class instruction,
    and every instruction that follows one is a leader."""
    for level in LEVELS:
        text = assembly(name, level)
        program, leaders = parsed(text)
        blocks = set(oracles.llvm_block_starts(text))
        expected = set(oracles.after_branches(program)) - blocks
        assert set(leaders) - blocks == expected, f"{name}.{level}.s"


def llc_version():
    run = subprocess.run([LLC[0], "--version"], capture_output=True, text=True)
    return next((line.strip() for line in run.stdout.splitlines() if line.strip()), "")


needs_llc = pytest.mark.skipif(shutil.which(LLC[0]) is None, reason="llc not installed")


@needs_llc
@pytest.mark.parametrize("name", sorted(SHOWS))
def test_fixtures_are_what_llc_makes(name):
    recorded = (LLVM / "llc_version.txt").read_text(encoding="utf-8").strip()
    if llc_version() != recorded:
        pytest.skip(f"the fixtures were made by {recorded!r}, not {llc_version()!r}")
    for level in LEVELS:
        # run beside the IR file, so that the .file directive names it alone
        made = subprocess.run([*LLC, f"-{level}", f"{name}.ll", "-o", "-"], cwd=LLVM,
                              capture_output=True, check=True).stdout
        assert made == (LLVM / f"{name}.{level}.s").read_bytes(), f"{name}.{level}.s"


@needs_llc
@pytest.mark.skipif(shutil.which("llvm-stress") is None, reason="llvm-stress not installed")
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_random_ir_keeps_both_relations(seed):
    """llc's output for random IR from llvm-stress parses strictly, and both
    relations above hold on it. Its bytes depend on the LLVM version, so they
    are made afresh and never pinned."""
    ir = subprocess.run(["llvm-stress", f"--seed={seed}", "--size=150"],
                        capture_output=True, check=True).stdout
    for level in LEVELS:
        text = subprocess.run([*LLC, f"-{level}", "-o", "-"], input=ir,
                              capture_output=True, check=True).stdout.decode()
        program, leaders = parsed(text)
        blocks = set(oracles.llvm_block_starts(text))
        assert blocks <= set(leaders), f"seed {seed}, -{level}"
        expected = set(oracles.after_branches(program)) - blocks
        assert set(leaders) - blocks == expected, f"seed {seed}, -{level}"


# an instruction line of llvm-objdump -d: address, encoding bytes, a tab and the
# mnemonic (a data line holds a directive such as .word there)
OBJDUMP_INSTRUCTION_RE = re.compile(r"\s*[0-9a-f]+:\s+(?:[0-9a-f]{2}\s)+\s*\t([a-z]\S*)")


@needs_llc
@pytest.mark.skipif(shutil.which("llvm-objdump") is None,
                    reason="llvm-objdump not installed")
@pytest.mark.parametrize("name", sorted(SHOWS))
def test_instruction_count_is_the_disassemblers(name, tmp_path):
    """asmsim counts the instructions that llvm-objdump finds in the object file;
    the .word data of jump tables and literal pools is no instruction. Alignment
    padding is a nop that only the object file holds, so nops are left out."""
    for level in LEVELS:
        obj = tmp_path / f"{name}.{level}.o"
        subprocess.run([*LLC, f"-{level}", "-filetype=obj", str(LLVM / f"{name}.ll"),
                        "-o", str(obj)], check=True)
        listing = subprocess.run(["llvm-objdump", "-d", str(obj)], capture_output=True,
                                 text=True, check=True).stdout
        disassembled = [match[1] for match in map(OBJDUMP_INSTRUCTION_RE.match,
                                                  listing.splitlines()) if match]
        program = parsed(assembly(name, level))[0]
        assert (len([m for m in disassembled if m != "nop"])
                == len([m for m in program.mnemonics if m != "nop"])), f"{name}.{level}"
