"""Acceptance suite: one test per exit criterion.

Run ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; any failure shows up as a normal pytest failure.
"""

import json
import math
import random
import time
from functools import partial
from pathlib import Path

import pytest

from asmsim.asm_parser import parse_assembly, segment_basic_blocks
from asmsim.corpus import (ProgramEntry, _mean, build_grid, coprime_strides,
                           enumerate_subsets, load_datasets,
                           normalize, pairwise_values, run_study,
                           APPLICATION_SPECIFIC, PROGRAMMER_SPECIFIC,
                           totally_different)
from asmsim.features import extract_ngrams, features_for_program
from asmsim.metrics import METRIC_ORDER, MetricKind, pair_value

import oracles
import reference_tables
from conftest import GOLDEN, REPO_ROOT, pair_of, run_cli
from gen_golden import build_oracle_suite


def announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def average_tolerance(decimals: int) -> float:
    # the tables round their Average rows to `decimals` places, so the
    # check cannot be tighter than half a printed unit
    return max(0.0005, 0.5 * 10 ** -decimals)


NORMALIZED_TOLERANCE = 0.002


class TestCriterion1TableArithmetic:
    @pytest.mark.parametrize("table", reference_tables.ALL_TABLES,
                             ids=lambda t: t.metric.value)
    def test_reproduces_average_and_normalized_rows(self, table):
        kind = table.metric
        tolerance = average_tolerance(table.decimals)

        ps_avg = math.fsum(table.programmer) / len(table.programmer)
        as_avg = math.fsum(table.application) / len(table.application)
        td_avg = _mean([v for column in table.td for v in column])
        assert abs(ps_avg - table.avg_programmer) <= tolerance
        assert abs(as_avg - table.avg_application) <= tolerance
        assert abs(td_avg - table.avg_td) <= tolerance

        # normalized row, from the unrounded averages
        assert abs(normalize(ps_avg, td_avg, kind)
                   - table.norm_programmer) <= NORMALIZED_TOLERANCE
        assert abs(normalize(as_avg, td_avg, kind)
                   - table.norm_application) <= NORMALIZED_TOLERANCE
        # and from the printed averages (the tables round before dividing)
        assert abs(normalize(table.avg_programmer, table.avg_td, kind)
                   - table.norm_programmer) <= NORMALIZED_TOLERANCE
        assert abs(normalize(table.avg_application, table.avg_td, kind)
                   - table.norm_application) <= NORMALIZED_TOLERANCE

        # dataset-6 row normalizes against its own aggregated baseline
        six = table.dataset6
        assert abs(normalize(six.programmer, six.td, kind)
                   - six.norm_programmer) <= NORMALIZED_TOLERANCE
        assert abs(normalize(six.application, six.td, kind)
                   - six.norm_application) <= NORMALIZED_TOLERANCE

    def test_announce(self):
        announce(1, "table arithmetic regression")


class TestCriterion2NonReproducibility:
    def test_statement_present_in_fixture_module_and_readme(self):
        doc = reference_tables.__doc__
        assert "never published" in doc
        assert "CANNOT be recomputed" in doc
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "never published" in readme
        announce(2, "corpus values declared non-reproducible")


class TestCriterion3MetricProperties:
    CASES = 1000

    def test_randomized_property_suite(self):
        started = time.perf_counter()
        rng = random.Random(0xA5A5)
        alphabet = [f"op{i}" for i in range(15)]
        pool = [(a, b) for a in alphabet[:5] for b in alphabet[:5]]
        jaccard = partial(pair_of, MetricKind.JACCARD)
        cosine = partial(pair_of, MetricKind.COSINE)
        pattern_distance = partial(pair_of, MetricKind.EUCLIDEAN2)

        for _ in range(self.CASES):
            s1 = frozenset(rng.sample(alphabet, rng.randint(0, 12)))
            s2 = frozenset(rng.sample(alphabet, rng.randint(0, 12)))
            j12, j21 = jaccard(s1, s2), jaccard(s2, s1)
            assert j12 == j21
            assert 0.0 <= j12 <= 1.0
            assert jaccard(s1, s1) == 1.0

            a = {m: rng.randint(1, 99) for m in rng.sample(alphabet, rng.randint(1, 6))}
            b = {m: rng.randint(1, 99) for m in rng.sample(alphabet, rng.randint(1, 6))}
            c12, c21 = cosine(a, b), cosine(b, a)
            assert c12 == c21
            assert 0.0 <= c12 <= 1.0
            assert cosine(a, a) == 1.0
            k = rng.randint(2, 50)
            scaled = {m: k * v for m, v in b.items()}
            assert abs(cosine(a, scaled) - c12) <= 1e-12

            p1 = frozenset(rng.sample(pool, rng.randint(0, 10)))
            p2 = frozenset(rng.sample(pool, rng.randint(0, 10)))
            p3 = frozenset(rng.sample(pool, rng.randint(0, 10)))
            d12 = pattern_distance(p1, p2)
            assert d12 == pattern_distance(p2, p1)
            assert pattern_distance(p1, p1) == 0.0
            # sqrt-Hamming identity, exactly; that the universe does not
            # matter is test_metrics' test_universe_extension_changes_nothing
            assert d12 == math.sqrt(len(p1 ^ p2))
            # triangle inequality
            assert pattern_distance(p1, p3) <= d12 + pattern_distance(p2, p3) + 1e-9

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s"
        announce(3, f"metric properties, {self.CASES} cases in {elapsed:.2f}s")


class TestCriterion4OracleEquivalence:
    PROGRAMS = 500

    def test_against_brute_force_references(self):
        started = time.perf_counter()
        rng = random.Random(0xC4C4)
        bundles = []
        for _ in range(self.PROGRAMS):
            program = parse_assembly(oracles.random_program_text(rng, 20))
            assert len(program.mnemonics) <= 20
            blocks = segment_basic_blocks(program)
            for n in (2, 3):
                assert extract_ngrams(program.mnemonics, blocks, n).patterns == \
                    oracles.oracle_ngrams(program, blocks, n)
            bundles.append((features_for_program(program),
                            oracles.oracle_features(program, blocks)))

        for (fa, oa), (fb, ob) in zip(bundles, bundles[1:]):
            assert abs(pair_value(MetricKind.JACCARD, fa, fb)
                       - oracles.naive_jaccard(oa["existence"], ob["existence"])) <= 1e-12
            if fa.frequency and fb.frequency:
                assert abs(pair_value(MetricKind.COSINE, fa, fb)
                           - oracles.naive_cosine(oa["freq"], ob["freq"])) <= 1e-12
            for n, kind in ((2, MetricKind.EUCLIDEAN2), (3, MetricKind.EUCLIDEAN3)):
                assert abs(pair_value(kind, fa, fb)
                           - oracles.naive_euclidean(oa[n], ob[n],
                                                     oa[n] | ob[n])) <= 1e-12

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"criterion 4 took {elapsed:.2f}s"
        announce(4, f"oracle equivalence, {self.PROGRAMS} programs in {elapsed:.2f}s")


class TestCriterion5GroupingInvariants:
    def test_shapes_partitions_and_pair_counts(self):
        started = time.perf_counter()
        for n in range(2, 8):
            entries = [ProgramEntry(f"p{p}a{a}", Path("x.s"), f"prog{p}", f"app{a}")
                       for a in range(n) for p in range(n)]
            grid = build_grid(entries)

            by_app = enumerate_subsets(grid, APPLICATION_SPECIFIC)
            assert len(by_app) == n
            for subset in by_app:
                assert len({m.application for m in subset.members}) == 1
                assert len({m.programmer for m in subset.members}) == n

            by_programmer = enumerate_subsets(grid, PROGRAMMER_SPECIFIC)
            assert len(by_programmer) == n
            for subset in by_programmer:
                assert len({m.programmer for m in subset.members}) == 1
                assert len({m.application for m in subset.members}) == n

            for stride in coprime_strides(n):
                transversals = enumerate_subsets(grid, totally_different(stride))
                assert len(transversals) == n
                covered = [m.id for s in transversals for m in s.members]
                assert sorted(covered) == sorted(e.id for e in entries)
                for subset in transversals:
                    assert len({m.programmer for m in subset.members}) == n
                    assert len({m.application for m in subset.members}) == n

        # a 5x5 subset of 5 yields all C(5,2) = 10 pair values
        entries = [ProgramEntry(f"p{p}a{a}", Path("x.s"), f"prog{p}", f"app{a}")
                   for a in range(5) for p in range(5)]
        grid = build_grid(entries)
        features = {e.id: features_for_program(parse_assembly("\tmov r0, r1\n"))
                    for e in entries}
        for subset in enumerate_subsets(grid, APPLICATION_SPECIFIC):
            assert len(pairwise_values(subset, MetricKind.JACCARD, features)) == 10

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"criterion 5 took {elapsed:.2f}s"
        announce(5, f"grouping invariants in {elapsed:.2f}s")


class TestCriterion6GoldenRun:
    def test_golden_bytes_and_jobs_independence(self, corpus_manifest):
        golden = (GOLDEN / "study_3x3.md").read_bytes()

        started = time.perf_counter()
        first = run_cli("study", corpus_manifest)
        elapsed = time.perf_counter() - started
        assert first.returncode == 0
        assert first.stdout == golden
        assert elapsed < 2.0, f"study run took {elapsed:.2f}s"

        again = run_cli("study", corpus_manifest)
        assert again.stdout == golden
        for jobs in (2, 4):
            assert run_cli("study", corpus_manifest, "--jobs", jobs).stdout == golden
        for fmt in ("csv", "json"):
            one = run_cli("study", corpus_manifest, "--format", fmt).stdout
            two = run_cli("study", corpus_manifest, "--format", fmt, "--jobs", 3).stdout
            assert one == two

        announce(6, f"golden 3x3 study, byte-identical in {elapsed:.2f}s")

    def test_golden_json_bytes(self, corpus_manifest):
        # study_3x3.json was written by json.dumps(indent=2), before the
        # report writer walked the suite itself
        golden = (GOLDEN / "study_3x3.json").read_bytes()
        result = run_cli("study", corpus_manifest, "--format", "json")
        assert result.returncode == 0
        assert result.stdout == golden

    def test_pipeline_agrees_with_oracle_numbers(self, corpus_manifest):
        entries = load_datasets(corpus_manifest).datasets[0][1]
        grid = build_grid(entries)
        features = {e.id: features_for_program(parse_assembly(e.path.read_text()))
                    for e in entries}
        report = run_study(grid, features, dataset_name="corpus3x3")
        oracle_report = build_oracle_suite().reports[0]
        for kind in METRIC_ORDER:
            mine = report.metrics[kind]
            theirs = oracle_report.metrics[kind]
            assert abs(mine.td_mean - theirs.td_mean) <= 1e-12
            for label, grouping in mine.groupings.items():
                assert abs(grouping.mean - theirs.groupings[label].mean) <= 1e-12
            for label, value in mine.normalized.items():
                assert abs(value - theirs.normalized[label]) <= 1e-12


class TestCriterion7ParserConformance:
    def test_basic_fixture_structure(self, fixtures_dir):
        started = time.perf_counter()
        program = parse_assembly((fixtures_dir / "conformance_basic.s").read_text())
        assert list(zip(program.mnemonics, program.operands)) == [
            ("push", "{r7, lr}"),
            ("movs", "r0, #0"),
            ("cmp", "r0, #10"),
            ("beq", ".L2"),
            ("adds", "r0, r0, #1"),
            ("cmp", "r0, #10"),
            ("bne", ".L1"),
            ("movs", "r1, r0"),
            ("nop", ""),
            ("pop", "{r7, pc}"),
        ]
        assert program.labels == {"main": 0, ".L1": 4, ".L2": 7, "unused": 8}
        assert program.diagnostics == []
        blocks = segment_basic_blocks(program)
        assert [(b.start_index, b.end_index) for b in blocks] == [(0, 4), (4, 7), (7, 10)]

        program = parse_assembly((fixtures_dir / "conformance_branches.s").read_text())
        assert program.mnemonics == ["bic", "bls", "bl", "blx", "bx"]
        assert program.labels == {"loop": 0, "skip": 4}
        blocks = segment_basic_blocks(program)
        assert [(b.start_index, b.end_index) for b in blocks] == \
            [(0, 2), (2, 3), (3, 4), (4, 5)]

        program = parse_assembly((fixtures_dir / "conformance_labels.s").read_text())
        assert program.mnemonics == ["movs", "b", "adds"]
        assert program.labels == {"start": 0, "entry": 0, "mid": 2, "end": 3}
        blocks = segment_basic_blocks(program)
        assert [(b.start_index, b.end_index) for b in blocks] == [(0, 2), (2, 3)]

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"criterion 7 took {elapsed:.2f}s"
        announce(7, f"parser conformance in {elapsed:.2f}s")
