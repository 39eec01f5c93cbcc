import json
import math
import random
from pathlib import Path

import pytest

from asmsim.asm_parser import parse_assembly
from asmsim.corpus import (APPLICATION_SPECIFIC, PROGRAMMER_SPECIFIC, TD_LABEL,
                           GroupingKind, ProgramEntry, _mean, build_grid, build_suite,
                           build_universes, coprime_strides,
                           default_strides, enumerate_subsets,
                           load_datasets, normalize,
                           pairwise_values, run_study, totally_different)
from asmsim.errors import (DuplicateIdError, EmptyProgramError,
                           IncompleteGridError, InputError, InvalidStrideError,
                           ManifestError, NormalizationError)
from asmsim.features import features_for_program
from asmsim.metrics import METRIC_ORDER, MetricKind

import oracles


def entry(pid, programmer, application):
    return ProgramEntry(pid, Path(f"{pid}.s"), programmer, application)


def grid_entries(n_apps, n_programmers):
    return [entry(f"p{p}a{a}", f"prog{p}", f"app{a}")
            for a in range(n_apps) for p in range(n_programmers)]


def features_of(text):
    return features_for_program(parse_assembly(text))


def uniform_features(ids, text="\tmov r0, r1\n\tadd r0, r1\n\tsub r0, r1\n"):
    return {pid: features_of(text) for pid in ids}


class TestManifest:
    def test_bundled_manifest(self, corpus_manifest):
        entries = load_datasets(corpus_manifest).datasets[0][1]
        assert len(entries) == 9
        assert all(e.path.is_file() for e in entries)
        assert entries[0].id == "ada-checksum"
        assert entries[0].programmer == "ada"
        assert entries[0].application == "checksum"

    def test_bundled_5x5_manifest(self, fixtures_dir):
        entries = load_datasets(fixtures_dir / "corpus5x5" / "manifest.json").datasets[0][1]
        assert len(entries) == 25
        grid = build_grid(entries)
        assert len(grid.programmers) == 5 and len(grid.applications) == 5

    def test_empty_program_list(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"programs": []}')
        assert load_datasets(manifest).datasets[0][1] == []

    def test_duplicate_id(self, tmp_path):
        (tmp_path / "a.s").write_text("\tnop\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"programs": [
            {"id": "x", "path": "a.s", "programmer": "p", "application": "a"},
            {"id": "x", "path": "a.s", "programmer": "q", "application": "b"},
        ]}))
        with pytest.raises(DuplicateIdError) as excinfo:
            load_datasets(manifest)
        assert "programs[1]" in excinfo.value.entity

    def test_missing_field(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"programs": [
            {"id": "x", "path": "a.s", "programmer": "p"},
        ]}))
        with pytest.raises(ManifestError) as excinfo:
            load_datasets(manifest)
        assert "application" in excinfo.value.message

    def test_unreadable_program_path(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"programs": [
            {"id": "x", "path": "missing.s", "programmer": "p", "application": "a"},
        ]}))
        with pytest.raises(InputError) as excinfo:
            load_datasets(manifest)
        assert "programs[0]" in excinfo.value.entity

    def test_paths_resolved_relative_to_manifest(self, tmp_path):
        nested = tmp_path / "deep"
        nested.mkdir()
        (nested / "a.s").write_text("\tnop\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"programs": [
            {"id": "x", "path": "deep/a.s", "programmer": "p", "application": "a"},
        ]}))
        [loaded] = load_datasets(manifest).datasets[0][1]
        assert loaded.path == tmp_path / "deep" / "a.s"

    def test_multi_dataset_form(self, tmp_path):
        (tmp_path / "a.s").write_text("\tnop\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"datasets": [
            {"name": "one", "programs": [
                {"id": "x", "path": "a.s", "programmer": "p", "application": "a"}]},
            {"name": "two", "programs": [
                {"id": "y", "path": "a.s", "programmer": "p", "application": "a"}]},
        ]}))
        data = load_datasets(manifest)
        assert [name for name, _ in data.datasets] == ["one", "two"]

    @pytest.mark.parametrize("doc, where", [
        ({"name": "", "programs": []}, ""),
        ({"name": 7, "programs": []}, ""),
        ([{"name": "a", "programs": []}], ""),
        ({"datasets": [{"name": "", "programs": []}]}, "#datasets[0]"),
        ({"datasets": [{"name": "a", "programs": []}, 7]}, "#datasets[1]"),
        ({"datasets": [{"name": "a", "programs": []}, {"name": "a", "programs": []}]},
         "#datasets[1]"),
    ], ids=["single-bad-name", "single-name-not-string", "single-root-not-object",
            "multi-bad-name", "multi-dataset-not-object", "multi-duplicate-name"])
    def test_dataset_diagnostics_name_the_dataset(self, tmp_path, doc, where):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ManifestError) as excinfo:
            load_datasets(manifest)
        assert type(excinfo.value) is ManifestError
        assert excinfo.value.entity == f"{manifest}{where}"

    def test_not_json(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("not json")
        with pytest.raises(ManifestError):
            load_datasets(manifest)

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(InputError):
            load_datasets(tmp_path / "nope.json")


class TestBuildGrid:
    def test_complete_2x2(self):
        grid = build_grid(grid_entries(2, 2))
        assert grid.programmers == ["prog0", "prog1"]
        assert grid.applications == ["app0", "app1"]
        assert len(grid.cells) == 4

    def test_3x3_shape(self):
        grid = build_grid(grid_entries(3, 3))
        assert len(grid.cells) == 9

    def test_missing_cell_named(self):
        entries = grid_entries(5, 5)
        removed = entries.pop(7)  # app1, prog2
        with pytest.raises(IncompleteGridError) as excinfo:
            build_grid(entries)
        assert f"({removed.application}, {removed.programmer})" in excinfo.value.message

    def test_duplicate_cell_named(self):
        entries = grid_entries(2, 2) + [entry("extra", "prog0", "app0")]
        with pytest.raises(IncompleteGridError) as excinfo:
            build_grid(entries)
        assert "duplicate" in excinfo.value.message

    def test_too_small(self):
        with pytest.raises(IncompleteGridError):
            build_grid([entry("only", "p", "a"), entry("two", "p", "b")])

    def test_label_order_is_first_appearance(self):
        entries = list(reversed(grid_entries(2, 3)))
        grid = build_grid(entries)
        assert grid.programmers == ["prog2", "prog1", "prog0"]
        assert grid.applications == ["app1", "app0"]


class TestEnumerateSubsets:
    def test_application_specific(self):
        grid = build_grid(grid_entries(3, 3))
        subsets = enumerate_subsets(grid, APPLICATION_SPECIFIC)
        assert [s.label for s in subsets] == ["app0", "app1", "app2"]
        for subset in subsets:
            assert len(subset.members) == 3
            assert len({m.application for m in subset.members}) == 1
            assert len({m.programmer for m in subset.members}) == 3

    def test_programmer_specific(self):
        grid = build_grid(grid_entries(3, 3))
        subsets = enumerate_subsets(grid, PROGRAMMER_SPECIFIC)
        assert [s.label for s in subsets] == ["prog0", "prog1", "prog2"]
        for subset in subsets:
            assert len({m.programmer for m in subset.members}) == 1
            assert len({m.application for m in subset.members}) == 3

    def test_totally_different_stride_one(self):
        grid = build_grid(grid_entries(3, 3))
        subsets = enumerate_subsets(grid, totally_different(1))
        got = [{(m.application, m.programmer) for m in s.members} for s in subsets]
        assert got == [
            {("app0", "prog0"), ("app1", "prog1"), ("app2", "prog2")},
            {("app0", "prog1"), ("app1", "prog2"), ("app2", "prog0")},
            {("app0", "prog2"), ("app1", "prog0"), ("app2", "prog1")},
        ]

    def test_admissible_strides(self):
        assert coprime_strides(5) == [1, 2, 3, 4]
        assert coprime_strides(3) == [1, 2]
        assert default_strides(5) == [1, 2, 3]
        assert default_strides(3) == [1, 2]
        assert default_strides(4) == [1, 3]
        assert default_strides(2) == [1]

    def test_invalid_strides_rejected(self):
        grid = build_grid(grid_entries(4, 4))
        for stride in (0, 2, 4, None):
            with pytest.raises(InvalidStrideError):
                enumerate_subsets(grid, totally_different(stride))

    def test_non_square_rejected(self):
        grid = build_grid(grid_entries(2, 3))
        with pytest.raises(InvalidStrideError):
            enumerate_subsets(grid, totally_different(1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_transversals_partition_grid(self, n):
        grid = build_grid(grid_entries(n, n))
        for stride in coprime_strides(n):
            subsets = enumerate_subsets(grid, totally_different(stride))
            assert len(subsets) == n
            seen = []
            for subset in subsets:
                assert len({m.application for m in subset.members}) == n
                assert len({m.programmer for m in subset.members}) == n
                seen.extend(m.id for m in subset.members)
            assert sorted(seen) == sorted(e.id for e in grid.entries)


class TestPairwiseAndMeans:
    def test_pair_counts(self):
        grid = build_grid(grid_entries(5, 5))
        features = uniform_features([e.id for e in grid.entries])
        subsets = enumerate_subsets(grid, APPLICATION_SPECIFIC)
        values = pairwise_values(subsets[0], MetricKind.JACCARD, features)
        assert len(values) == 10

    def test_pairs_of_three(self):
        grid = build_grid(grid_entries(3, 3))
        features = uniform_features([e.id for e in grid.entries])
        subsets = enumerate_subsets(grid, PROGRAMMER_SPECIFIC)
        assert len(pairwise_values(subsets[0], MetricKind.JACCARD, features)) == 3

    def test_identical_programs_score_one(self):
        grid = build_grid(grid_entries(3, 3))
        features = uniform_features([e.id for e in grid.entries])
        subset = enumerate_subsets(grid, APPLICATION_SPECIFIC)[0]
        values = pairwise_values(subset, MetricKind.JACCARD, features)
        assert all(v.value == 1.0 for v in values)

    def test_empty_program_error_names_pair(self):
        grid = build_grid(grid_entries(2, 2))
        features = uniform_features([e.id for e in grid.entries])
        features["p0a0"] = features_of("")
        subset = enumerate_subsets(grid, APPLICATION_SPECIFIC)[0]
        with pytest.raises(EmptyProgramError) as excinfo:
            pairwise_values(subset, MetricKind.COSINE, features)
        assert "p0a0" in excinfo.value.entity
        # the first pair in combinations order that holds an empty member
        grid = build_grid(grid_entries(3, 3))
        features = uniform_features([e.id for e in grid.entries])
        subset = enumerate_subsets(grid, APPLICATION_SPECIFIC)[0]
        first, second, third = (m.id for m in subset.members)
        features[second] = features[third] = features_of("")
        with pytest.raises(EmptyProgramError) as excinfo:
            pairwise_values(subset, MetricKind.COSINE, features)
        assert excinfo.value.entity == f"{first},{second}"
        assert excinfo.value.message.endswith(f"(pair {first}, {second})")

    def test_means(self):
        assert _mean([1.0, 1.0, 1.0]) == 1.0
        assert _mean([0.2, 0.4]) == pytest.approx(0.3)
        assert _mean([0.25, 0.75]) == 0.5
        assert _mean(iter([0.5, 0.5, 0.5])) == 0.5

    def test_means_reject_empty(self):
        with pytest.raises(ValueError):
            _mean([])


class TestNormalize:
    def test_similarity_direction(self):
        assert normalize(0.4729, 0.4720, MetricKind.JACCARD) == pytest.approx(
            1.002, abs=0.002)
        assert normalize(0.6733, 0.4720, MetricKind.JACCARD) == pytest.approx(
            1.426, abs=0.002)

    def test_distance_direction(self):
        assert normalize(6.44, 8.15, MetricKind.EUCLIDEAN2) == pytest.approx(
            1.266, abs=0.002)
        assert normalize(7.67, 9.09, MetricKind.EUCLIDEAN3) == pytest.approx(
            1.185, abs=0.002)

    def test_baseline_maps_to_one(self):
        for kind in METRIC_ORDER:
            assert normalize(3.25, 3.25, kind) == 1.0

    def test_non_positive_rejected(self):
        with pytest.raises(NormalizationError):
            normalize(0.0, 1.0, MetricKind.JACCARD)
        with pytest.raises(NormalizationError):
            normalize(1.0, 0.0, MetricKind.EUCLIDEAN2)


def study_fixture(fixtures_dir):
    entries = load_datasets(fixtures_dir / "corpus3x3" / "manifest.json").datasets[0][1]
    grid = build_grid(entries)
    features = {
        e.id: features_for_program(parse_assembly(e.path.read_text()))
        for e in entries
    }
    return grid, features


class TestRunStudy:
    def test_identity_corpus_degenerates_distances(self):
        grid = build_grid(grid_entries(2, 2))
        features = uniform_features([e.id for e in grid.entries])
        report = run_study(grid, features, dataset_name="identical")
        jac = report.metrics[MetricKind.JACCARD]
        assert all(g.mean == 1.0 for g in jac.groupings.values())
        assert jac.normalized[PROGRAMMER_SPECIFIC.label] == 1.0
        e2 = report.metrics[MetricKind.EUCLIDEAN2]
        assert all(g.mean == 0.0 for g in e2.groupings.values())
        assert e2.normalized[PROGRAMMER_SPECIFIC.label] is None
        assert e2.normalized[TD_LABEL] is None

    def test_empty_program_named(self):
        grid = build_grid(grid_entries(2, 2))
        features = uniform_features([e.id for e in grid.entries])
        features["p1a1"] = features_of("")
        with pytest.raises(EmptyProgramError) as excinfo:
            run_study(grid, features)
        assert excinfo.value.entity == "p1a1"

    def test_non_square_rejected(self):
        grid = build_grid(grid_entries(2, 3))
        features = uniform_features([e.id for e in grid.entries])
        with pytest.raises(InvalidStrideError):
            run_study(grid, features)

    def test_bad_stride_rejected(self, fixtures_dir):
        grid, features = study_fixture(fixtures_dir)
        with pytest.raises(InvalidStrideError):
            run_study(grid, features, strides=[3])

    def test_repeated_stride_rejected(self, fixtures_dir):
        # a repeated stride would count its grouping twice in the dataset's
        # td_mean but once in the suite summary
        grid, features = study_fixture(fixtures_dir)
        with pytest.raises(InvalidStrideError, match="repeat"):
            run_study(grid, features, strides=[2, 1, 2])

    def test_report_shape(self, fixtures_dir):
        grid, features = study_fixture(fixtures_dir)
        report = run_study(grid, features, dataset_name="corpus3x3")
        assert report.strides == [1, 2]
        for kind in METRIC_ORDER:
            study = report.metrics[kind]
            assert list(study.groupings) == [
                "Programmer Specific", "Application Specific",
                "Totally Different 1", "Totally Different 2"]
            for grouping in study.groupings.values():
                assert len(grouping.subsets) == 3
                for subset in grouping.subsets:
                    assert len(subset.pairs) == 3
                    assert subset.mean == pytest.approx(
                        sum(p.value for p in subset.pairs) / 3)
            assert study.td_mean == pytest.approx(_mean(
                [study.groupings["Totally Different 1"].mean,
                 study.groupings["Totally Different 2"].mean]))

    def test_5x5_study_uses_three_td_groupings(self, fixtures_dir):
        entries = load_datasets(fixtures_dir / "corpus5x5" / "manifest.json").datasets[0][1]
        grid = build_grid(entries)
        features = {
            e.id: features_for_program(parse_assembly(e.path.read_text()))
            for e in entries
        }
        report = run_study(grid, features, dataset_name="corpus5x5")
        assert report.strides == [1, 2, 3]
        for kind in METRIC_ORDER:
            study = report.metrics[kind]
            td_labels = [label for label, g in study.groupings.items()
                         if g.scheme.kind is GroupingKind.TOTALLY_DIFFERENT]
            assert td_labels == ["Totally Different 1", "Totally Different 2",
                                 "Totally Different 3"]
            for grouping in study.groupings.values():
                assert len(grouping.subsets) == 5
                for subset in grouping.subsets:
                    assert len(subset.pairs) == 10

    def test_td_aggregate_equals_pooled_pairs(self, fixtures_dir):
        grid, features = study_fixture(fixtures_dir)
        report = run_study(grid, features)
        for kind in METRIC_ORDER:
            study = report.metrics[kind]
            pooled = [p.value
                      for label, grouping in study.groupings.items()
                      if grouping.scheme.kind is GroupingKind.TOTALLY_DIFFERENT
                      for subset in grouping.subsets
                      for p in subset.pairs]
            assert study.td_mean == pytest.approx(sum(pooled) / len(pooled),
                                                  abs=1e-12)

    def test_rerun_is_identical(self, fixtures_dir):
        grid, features = study_fixture(fixtures_dir)
        assert run_study(grid, features) == run_study(grid, features)

    def test_manifest_order_does_not_change_numbers(self, fixtures_dir):
        entries = load_datasets(fixtures_dir / "corpus3x3" / "manifest.json").datasets[0][1]
        features = {
            e.id: features_for_program(parse_assembly(e.path.read_text()))
            for e in entries
        }
        baseline = run_study(build_grid(entries), features)
        rng = random.Random(99)
        for _ in range(4):
            shuffled = entries[:]
            rng.shuffle(shuffled)
            report = run_study(build_grid(shuffled), features)
            for kind in METRIC_ORDER:
                base = baseline.metrics[kind]
                got = report.metrics[kind]
                assert got.td_mean == base.td_mean
                assert got.normalized == base.normalized
                for label, grouping in base.groupings.items():
                    assert got.groupings[label].mean == grouping.mean
                    # same subsets, possibly listed in a different order
                    assert sorted((s.label, s.mean) for s in grouping.subsets) == \
                        sorted((s.label, s.mean) for s in got.groupings[label].subsets)


def closed_form(kind, fa, fb):
    """A pair value straight from its definition over exact integers."""
    if kind is MetricKind.JACCARD:
        a, b = fa.frequency.keys(), fb.frequency.keys()
        return len(a & b) / len(a | b)
    if kind is MetricKind.COSINE:
        a, b = fa.frequency, fb.frequency
        dot = sum(a[m] * b[m] for m in a)
        na = sum(v * v for v in a.values())
        nb = sum(v * v for v in b.values())
        return dot / math.sqrt(na * nb)
    n = kind.ngram_length
    pa, pb = fa.pattern_set(n).patterns, fb.pattern_set(n).patterns
    return math.sqrt(len(pa ^ pb))


class TestPairKernels:
    def fixture_5x5(self, fixtures_dir):
        entries = load_datasets(fixtures_dir / "corpus5x5" / "manifest.json").datasets[0][1]
        features = {e.id: features_for_program(parse_assembly(e.path.read_text()))
                    for e in entries}
        return build_grid(entries), features

    def test_study_pairs_equal_closed_forms(self, fixtures_dir):
        grid, features = self.fixture_5x5(fixtures_dir)
        report = run_study(grid, features)
        checked = 0
        for kind, study in report.metrics.items():
            for grouping in study.groupings.values():
                for subset in grouping.subsets:
                    for pair in subset.pairs:
                        expected = closed_form(kind, features[pair.id_a],
                                               features[pair.id_b])
                        assert pair.value == expected, (kind, pair)
                        checked += 1
        assert checked == 4 * 5 * 5 * 10

    def test_foreign_universes_change_no_value(self, fixtures_dir):
        # bench/traced.py passes universes as the fourth argument
        grid, features = self.fixture_5x5(fixtures_dir)
        foreign = build_universes({"x": features_of("\tvmul d0, d1\n\tvmul d0, d1\n")})
        subset = enumerate_subsets(grid, APPLICATION_SPECIFIC)[0]
        for kind in METRIC_ORDER:
            assert pairwise_values(subset, kind, features, foreign) == \
                pairwise_values(subset, kind, features)

    def test_universes_are_optional(self, fixtures_dir):
        grid, features = self.fixture_5x5(fixtures_dir)
        universes = build_universes(features)
        for subset in enumerate_subsets(grid, totally_different(2)):
            for kind in METRIC_ORDER:
                assert pairwise_values(subset, kind, features) == \
                    pairwise_values(subset, kind, features, universes)


class TestSuite:
    def test_single_dataset_summary_matches_report(self, fixtures_dir):
        grid, features = study_fixture(fixtures_dir)
        report = run_study(grid, features, dataset_name="corpus3x3")
        suite = build_suite([report])
        for kind in METRIC_ORDER:
            summary = suite.summary[kind]
            study = report.metrics[kind]
            assert summary.means[PROGRAMMER_SPECIFIC.label] == \
                study.groupings[PROGRAMMER_SPECIFIC.label].mean
            assert summary.means[TD_LABEL] == pytest.approx(study.td_mean, abs=1e-15)
            assert summary.normalized[TD_LABEL] == 1.0

    def test_cross_dataset_averaging(self, fixtures_dir):
        grid, features = study_fixture(fixtures_dir)
        one = run_study(grid, features, dataset_name="one")
        two = run_study(grid, features, dataset_name="two")
        suite = build_suite([one, two])
        for kind in METRIC_ORDER:
            expected = one.metrics[kind].groupings[APPLICATION_SPECIFIC.label].mean
            assert suite.summary[kind].means[APPLICATION_SPECIFIC.label] == \
                pytest.approx(expected)

    def test_two_grids_match_oracle_suite(self, tmp_path, fixtures_dir):
        datasets = []
        for name in ("corpus3x3", "corpus5x5"):
            doc = json.loads((fixtures_dir / name / "manifest.json").read_text())
            for program in doc["programs"]:
                program["path"] = str(fixtures_dir / name / program["path"])
            datasets.append(doc)
        manifest = tmp_path / "suite.json"
        manifest.write_text(json.dumps({"datasets": datasets}))

        reports, oracle_reports = [], []
        for (name, entries), strides in zip(load_datasets(manifest).datasets,
                                            ([1, 2], [1, 2, 3])):
            grid = build_grid(entries)
            programs = {e.id: parse_assembly(e.path.read_text()) for e in entries}
            reports.append(run_study(grid, {pid: features_for_program(program)
                                            for pid, program in programs.items()},
                                     dataset_name=name))
            assert reports[-1].strides == strides  # the default strides differ
            oracle_reports.append(oracles.oracle_study_report(
                grid, {pid: oracles.oracle_features(program, oracles.oracle_blocks(program))
                       for pid, program in programs.items()}, strides, name))
        for report, expected_report in zip(reports, oracle_reports):
            for kind in METRIC_ORDER:
                groupings = report.metrics[kind].groupings
                expected_groupings = expected_report.metrics[kind].groupings
                assert list(groupings) == list(expected_groupings)
                for label, expected in expected_groupings.items():
                    subsets = groupings[label].subsets
                    assert [s.label for s in subsets] == [s.label for s in expected.subsets]
                    for got, want in zip(subsets, expected.subsets):
                        where = (report.dataset, kind, label, got.label)
                        assert [(p.id_a, p.id_b) for p in got.pairs] == \
                            [(p.id_a, p.id_b) for p in want.pairs], where
                        for pair, want_pair in zip(got.pairs, want.pairs):
                            assert pair.value == pytest.approx(
                                want_pair.value, rel=0, abs=1e-12), (where, pair)
        suite, oracle = build_suite(reports), oracles.oracle_suite(oracle_reports)
        for kind in METRIC_ORDER:
            for field in ("means", "normalized"):
                got = getattr(suite.summary[kind], field)
                expected = getattr(oracle.summary[kind], field)
                assert list(got) == list(expected)
                for label, value in expected.items():
                    assert got[label] == pytest.approx(value, rel=0, abs=1e-12), \
                        (kind, field, label)

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            build_suite([])
