"""Regenerate the frozen golden reports from the oracle pipeline.

Run from the repository root:

    python3 -m tests.gen_golden      # or: python3 tests/gen_golden.py

The golden Markdown is produced by the naive reference implementations in
oracles.py, not by the production pipeline; test_acceptance.py then holds
the CLI output to these bytes. ``study_3x3.md`` is the study of the bundled
corpus, ``study_gen4.md`` that of the corpus :func:`write_gen4` generates.
Regenerate only when a corpus or the report layout changes, and re-review
the numbers when you do.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from asmsim.asm_parser import parse_assembly, segment_basic_blocks
from asmsim.corpus import build_grid, load_datasets
from asmsim.report import render

try:
    from . import oracles
except ImportError:  # run as a plain script
    import oracles

HERE = Path(__file__).parent
CORPUS = HERE / "fixtures" / "corpus3x3"
GOLDEN = HERE / "golden" / "study_3x3.md"
GEN_GOLDEN = HERE / "golden" / "study_gen4.md"


def write_gen4(out_dir: Path) -> Path:
    """Write the 4 x 4 grid of ``bench/gen.py`` that ``study_gen4.md`` studies into
    ``out_dir``; return its manifest. Its programs hold numeric local labels,
    ``mov pc``/``ldr pc`` returns and column-0 ``#`` markers."""
    bench = str(HERE.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import gen
    return gen.write_asm_grid(out_dir, seed=1, grid=4, instructions=600)["manifest"]


def build_oracle_suite(manifest: Path = CORPUS / "manifest.json", strides=(1, 2)):
    name, entries = load_datasets(manifest).datasets[0]
    grid = build_grid(entries)
    features = {}
    for entry in entries:
        program = parse_assembly(entry.path.read_text(encoding="utf-8"),
                                 source_name=str(entry.path))
        features[entry.id] = oracles.oracle_features(
            program, segment_basic_blocks(program))
    report = oracles.oracle_study_report(grid, features, strides=list(strides),
                                         dataset_name=name)
    return oracles.oracle_suite([report])


def write_golden(path: Path, suite) -> None:
    text = render(suite, "markdown", {"ngram_mode": "blocks"})
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path} ({len(text)} chars)")


def main() -> None:
    write_golden(GOLDEN, build_oracle_suite())
    with tempfile.TemporaryDirectory() as tmp:
        write_golden(GEN_GOLDEN, build_oracle_suite(write_gen4(Path(tmp)), strides=(1, 3)))


if __name__ == "__main__":
    main()
