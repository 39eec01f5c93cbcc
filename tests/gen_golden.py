"""Regenerate the frozen golden report from the oracle pipeline.

Run from the repository root:

    python3 -m tests.gen_golden      # or: python3 tests/gen_golden.py

The golden Markdown is produced by the naive reference implementations in
oracles.py, not by the production pipeline; test_acceptance.py then holds
the CLI output to these bytes. Regenerate only when the bundled corpus or
the report layout changes, and re-review the numbers when you do.
"""

from __future__ import annotations

from pathlib import Path

from asmsim.asm_parser import parse_assembly, segment_basic_blocks
from asmsim.corpus import build_grid, load_manifest
from asmsim.report import render

try:
    from . import oracles
except ImportError:  # run as a plain script
    import oracles

HERE = Path(__file__).parent
CORPUS = HERE / "fixtures" / "corpus3x3"
GOLDEN = HERE / "golden" / "study_3x3.md"


def build_oracle_suite():
    entries = load_manifest(CORPUS / "manifest.json")
    grid = build_grid(entries)
    features = {}
    for entry in entries:
        program = parse_assembly(entry.path.read_text(encoding="utf-8"),
                                 source_name=str(entry.path))
        features[entry.id] = oracles.oracle_features(
            program, segment_basic_blocks(program))
    report = oracles.oracle_study_report(grid, features, strides=[1, 2],
                                         dataset_name="corpus3x3")
    return oracles.oracle_suite([report])


def main() -> None:
    suite = build_oracle_suite()
    text = render(suite, "markdown", {"ngram_mode": "blocks"})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(text)} chars)")


if __name__ == "__main__":
    main()
