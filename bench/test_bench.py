"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import run  # noqa: E402
from asmsim.asm_parser import parse_assembly, segment_basic_blocks  # noqa: E402
from asmsim.config import load_tool_config  # noqa: E402
from asmsim.corpus import build_grid, load_datasets  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_asm_generator_is_deterministic(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.write_asm_grid(tmp_path / name, seed=seed, grid=3, instructions=400)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_c_generator_is_deterministic(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.write_c_grid(tmp_path / name, seed=seed, grid=3)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_asm_grid_is_complete_and_realistic(tmp_path):
    info = gen.write_asm_grid(tmp_path, seed=2, grid=4, instructions=600)
    entries = load_datasets(info["manifest"]).datasets[0][1]
    grid = build_grid(entries)
    assert (len(grid.programmers), len(grid.applications)) == (4, 4)
    assert info["programs"] == 16

    text = "".join(e.path.read_text(encoding="utf-8") for e in entries)
    for construct in ("\t.syntax unified", "@ ", "// ", ".L1:", "\n1:", " 1b",
                      " 2f", "\n2:", ", pc}", "bx lr", "mov pc, lr", "ldr pc, [sp], #4",
                      "#APP", "cbz "):
        assert construct in text, construct

    instructions = skipped = 0
    for entry in entries:
        program = parse_assembly(entry.path.read_text(encoding="utf-8"))
        assert len(program.instructions) >= 600
        assert segment_basic_blocks(program)
        instructions += len(program.instructions)
        skipped += len(program.diagnostics)
    assert instructions == info["instructions"]
    assert 0 < skipped < instructions / 50


def test_c_grid_is_complete(tmp_path):
    info = gen.write_c_grid(tmp_path, seed=2, grid=3)
    grid = build_grid(load_datasets(info["manifest"]).datasets[0][1])
    assert (len(grid.programmers), len(grid.applications)) == (3, 3)


def test_compile_config_is_accepted():
    config = load_tool_config(run.X86_CONFIG, env={})
    assert config.compiler_command == "gcc"
    assert config.compiler_flags == ("-S", "-O0")
    assert {"jmp", "jne", "call", "ret"} <= config.parser.branch_mnemonics
    assert config.parser.comment_markers == frozenset({"#"})


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs host gcc")
def test_generated_c_compiles(tmp_path):
    from asmsim.cli import main

    info = gen.write_c_grid(tmp_path / "c", seed=5, grid=2)
    out = tmp_path / "build"
    assert main(["compile", str(info["manifest"]), "--config", str(run.X86_CONFIG),
                 "--out", str(out)]) == 0
    assert len(list((out / "cache").glob("*.s"))) == 4


def test_metric_lines_one_per_metric_with_unit():
    units = dict(run.END_TO_END)
    metrics = {name: 1.5 for name in units}
    counts = {name: 7 for name in units}
    lines = run.metric_lines("wide-grid", metrics, units, counts)
    assert len(lines) == len(units)
    for line, (name, unit) in zip(lines, run.END_TO_END):
        assert line == f"wide-grid {name} 1.5 {unit} n=7"


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_traced_run_reports_every_layer_and_matches_the_cli(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    workload = run.WORKLOADS["wide-grid"]
    bench_run, metrics, counts, _ = run.measure(workload, seed=4, seconds=0, trace=True,
                                             shape=(3, 150))
    # the traced repetitions' reports were compared with the CLI's
    assert bench_run.failures == []
    assert bench_run.failed == 0
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    # 4 metrics x 4 groupings (2 strides) x 3 subsets x 3 pairs
    assert metrics["score.pairs"] == 4 * 4 * 3 * 3
    assert metrics["parse.instructions"] == bench_run.instructions
    result = json.loads(run.result_json(bench_run, metrics, dict(run.PER_LAYER)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
