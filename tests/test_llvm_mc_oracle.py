"""Instructions and basic blocks against the ARM assembler's own listing.

``llvm-mc -triple=thumbv7m-none-eabi -show-encoding`` assembles every ARM
``.s`` file under ``tests/fixtures`` and lists each instruction it encodes,
with every label resolved and every branch target in a ``fixup`` line, so
:func:`oracles.llvm_mc_blocks` derives the leaders without asmsim's label
rules. Positions are compared, never mnemonics, since llvm-mc prints aliases
(``add r0, r1`` for ``add r0, r0, r1``).
"""

import shutil
import subprocess

import pytest

from asmsim.asm_parser import ParserConfig, parse_assembly, segment_basic_blocks

import oracles
from conftest import FIXTURES

LLVM_MC = ("llvm-mc", "-triple=thumbv7m-none-eabi", "-show-encoding")
NAMES = sorted(str(path.relative_to(FIXTURES)) for path in FIXTURES.rglob("*.s"))
# asmsim misses these leaders until ROADMAP items 5a and 5b: a numeric label's
# `Nb`/`Nf` reference and a write to pc
ITEM_5 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 5a and 5b: 1b names no label, and mov pc/ldr pc end no block"))
MISSED = {"conformance_local_labels.s"}

pytestmark = pytest.mark.skipif(shutil.which(LLVM_MC[0]) is None,
                                reason="llvm-mc not installed")


def assembled(name):
    """asmsim's strict parse of the fixture ``name`` and llvm-mc's
    (instruction count, block starts) for it."""
    path = FIXTURES / name
    listing = subprocess.run([*LLVM_MC, str(path)], capture_output=True, text=True,
                             check=True).stdout
    program = parse_assembly(path.read_text(encoding="utf-8"), ParserConfig(strict=True))
    return program, oracles.llvm_mc_blocks(listing)


def test_oracle_reads_item_5s_reproducer():
    assert MISSED <= set(NAMES)
    program, blocks = assembled("conformance_local_labels.s")
    assert blocks == (16, [0, 3, 4, 6, 7, 9, 13, 15])


@pytest.mark.parametrize("name", NAMES)
def test_instruction_count_is_the_assemblers(name):
    program, (count, _) = assembled(name)
    assert len(program.mnemonics) == count


@pytest.mark.parametrize("name", [pytest.param(name, marks=ITEM_5) if name in MISSED
                                  else name for name in NAMES])
def test_leaders_are_the_assemblers(name):
    program, (_, starts) = assembled(name)
    assert segment_basic_blocks(program) == starts
