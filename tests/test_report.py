import csv
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asmsim.asm_parser import parse_assembly
from asmsim.corpus import (PROGRAMMER_SPECIFIC, GroupingResult, PairValue,
                           ProgramEntry, SubsetSummary, build_grid, build_suite,
                           load_datasets, run_study)
from asmsim.features import features_for_program
from asmsim.metrics import MetricKind
from asmsim.report import (OUTPUT_FORMATS, format_normalized, format_value, render,
                           render_parts)

import oracles

# quotes, backslashes, control characters and non-ASCII text
AWKWARD = 'q"uo\\te\n\r\t\x00\x1f\x7f é 漢 \U0001f600 \u2028'


def fixture_report(fixtures_dir, name):
    entries = load_datasets(fixtures_dir / name / "manifest.json").datasets[0][1]
    features = {e.id: features_for_program(parse_assembly(e.path.read_text()))
                for e in entries}
    return run_study(build_grid(entries), features, dataset_name=name)


def uniform_suite(name, ids, text="\tmov r0, r1\n"):
    """A 2x2 study whose four programs are all ``text``."""
    entries = [ProgramEntry(program_id, Path("x.s"), f"p{i % 2}", f"a{i // 2}")
               for i, program_id in enumerate(ids)]
    features = {e.id: features_for_program(parse_assembly(text)) for e in entries}
    return build_suite([run_study(build_grid(entries), features, dataset_name=name)])


def oracle_json(suite, metadata=None):
    return json.dumps(oracles.suite_to_dict(suite, metadata), indent=2) + "\n"


@pytest.fixture(scope="module")
def suite(fixtures_dir):
    return build_suite([fixture_report(fixtures_dir, "corpus3x3")])


def test_value_formatting():
    assert format_value(MetricKind.JACCARD, 0.25) == "0.2500"
    assert format_value(MetricKind.COSINE, 1 / 3) == "0.3333"
    assert format_value(MetricKind.EUCLIDEAN2, 8.148666) == "8.15"
    assert format_normalized(1.0) == "1.000"
    assert format_normalized(None) == "n/a"


def test_markdown_layout(suite):
    text = render(suite, "markdown", {"ngram_mode": "blocks"})
    lines = text.splitlines()
    assert lines[0] == "# Assembly similarity study"
    for title in ("## Instruction existence (Jaccard similarity)",
                  "## Instruction frequency (cosine similarity)",
                  "## Two-instruction patterns (Euclidean distance)",
                  "## Three-instruction patterns (Euclidean distance)"):
        assert title in lines
    header = ("| Data set | Programmer Specific | Application Specific "
              "| Totally Different 1 | Totally Different 2 |")
    assert lines.count(header) == 4
    assert sum(1 for line in lines if line.startswith("| Average |")) == 4
    assert sum(1 for line in lines if line.startswith("| Normalized |")) == 4
    # baseline column always normalizes to exactly one
    for line in lines:
        if line.startswith("| Normalized |"):
            assert line.split("|")[4].strip() == "1.000"


def test_markdown_rows_keep_their_cells_when_a_dataset_name_holds_a_pipe(fixtures_dir):
    report = fixture_report(fixtures_dir, "corpus3x3")
    # each name and its cell: a line break is escaped, so it cannot split the row
    shown = {"gcc|O2": "`gcc|O2`", "||a|": "`||a|`", "plain": "`plain`",
             "a\nb`c": "``a\\nb`c``", "p\r|q\u2028": "`p\\r|q\\u2028`"}
    names = list(shown)
    text = render(build_suite([report._replace(dataset=name) for name in names]), "markdown")
    unescaped_pipe = re.compile(r"(?<!\\)\|")
    tables = 0
    for line in text.splitlines():
        if line.startswith("| Data set |"):
            width, tables, row = len(unescaped_pipe.split(line)), tables + 1, -1
        elif line.startswith("|"):  # the " --- " row, the dataset rows, then the summary
            cells = unescaped_pipe.split(line)
            assert len(cells) == width, line
            if 0 <= row < len(names):
                assert cells[1].strip().replace("\\|", "|") == shown[names[row]]
            row += 1
    assert tables == 4


def test_markdown_bullets_keep_one_line_and_a_code_span_per_dataset(fixtures_dir):
    report = fixture_report(fixtures_dir, "corpus3x3")
    names = ["a\nb`c", "``x`", "p\r|q\u2028", "plain"]
    text = render(build_suite([report._replace(dataset=name) for name in names]), "markdown")
    # a code span: a run of backticks, its text padded by at most one space, the same run
    spans = [re.fullmatch(r"- dataset (`+)( ?)(.*?)\2\1: 3 applications x .*", line)
             for line in text.splitlines() if line.startswith("- dataset ")]
    assert [span.group(3) for span in spans] == ["a\\nb`c", "``x`", "p\\r|q\\u2028",
                                                  "plain"]
    assert all("`" * len(span.group(1)) not in span.group(3) for span in spans)


@pytest.mark.parametrize("label", ["a\rb", AWKWARD, 'a\n"b",c\x7f'],
                         ids=["cr", "awkward", "no-cr"])
def test_csv_rows_keep_their_fields_whatever_the_labels(suite, fixtures_dir, label):
    entries = load_datasets(fixtures_dir / "corpus3x3" / "manifest.json").datasets[0][1]
    relabeled = [e._replace(programmer=label) if e.programmer == entries[0].programmer else e
                 for e in entries]
    features = {e.id: features_for_program(parse_assembly(e.path.read_text()))
                for e in entries}
    awkward = build_suite([run_study(build_grid(relabeled), features, dataset_name=label)])
    text = render(awkward, "csv")
    rows, plain = (list(csv.reader(io.StringIO(t, newline="")))
                   for t in (text, render(suite, "csv")))
    assert len(rows) == len(plain) and all(len(row) == 7 for row in rows)
    if "\r" not in label:  # the bytes of the csv module's writer, which leaves a CR bare
        rewritten = io.StringIO()
        csv.writer(rewritten, lineterminator="\n").writerows(rows)
        assert text == rewritten.getvalue()
    assert rows[1][0] == label and label in {row[3] for row in rows}


SUMMARY_ROWS = 4 * 6  # 3 averages and 3 normalized indices per metric


def test_csv_schema(suite):
    text = render(suite, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["dataset", "metric", "grouping", "subset", "pairs",
                       "value", "kind"]
    kinds = {row[6] for row in rows[1:]}
    assert kinds == {"subset", "group", "td_aggregate", "normalized", "average"}
    subset_rows = [r for r in rows[1:] if r[6] == "subset"]
    # 4 metrics x 4 groupings x 3 subsets
    assert len(subset_rows) == 48
    assert all(r[4] == "3" for r in subset_rows)
    summary_rows = [r for r in rows[1:] if r[0] == ""]
    assert summary_rows == rows[-SUMMARY_ROWS:]


@settings(deadline=None, max_examples=50)
@given(st.text(min_size=1))
@example("(all)")
def test_csv_summary_rows_share_no_dataset_and_kind_with_a_dataset(suite, name):
    text = render(suite._replace(reports=[suite.reports[0]._replace(dataset=name)]), "csv")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    own, summary = rows[1:-SUMMARY_ROWS], rows[-SUMMARY_ROWS:]
    assert all(row[0] == name for row in own)
    assert {(row[0], row[6]) for row in summary}.isdisjoint((row[0], row[6]) for row in own)


@settings(deadline=None, max_examples=50)
@given(st.text(min_size=1))
@example("Average")
@example("Normalized")
def test_no_markdown_dataset_cell_reads_as_a_summary_row(suite, name):
    text = render(suite._replace(reports=[suite.reports[0]._replace(dataset=name)]), "markdown")
    cells = [re.split(r"(?<!\\)\|", line)[1].strip() for line in text.splitlines()
             if line.startswith("| ")]
    # each table: its header, the " --- " row, the dataset row, Average, Normalized
    assert len(cells) == 4 * 5 and cells[3::5] == ["Average"] * 4
    assert not {"Average", "Normalized"} & set(cells[2::5])


def test_json_structure(suite):
    doc = json.loads(render(suite, "json", {"ngram_mode": "blocks"}))
    assert list(doc) == ["metadata", "datasets", "summary"]
    assert doc["metadata"] == {"ngram_mode": "blocks"}
    [dataset] = doc["datasets"]
    assert dataset["name"] == "corpus3x3"
    assert dataset["strides"] == [1, 2]
    jaccard = dataset["metrics"]["jaccard"]
    assert set(jaccard["groupings"]) == {"Programmer Specific", "Application Specific",
                                         "Totally Different 1", "Totally Different 2"}
    subset = jaccard["groupings"]["Programmer Specific"]["subsets"][0]
    assert {"a", "b", "value"} == set(subset["pairs"][0])
    assert doc["summary"]["jaccard"]["normalized"]["Totally Different"] == 1.0


def test_degenerate_cells_render_as_null_and_na():
    degenerate = uniform_suite("same", [f"p{p}a{a}" for a in range(2) for p in range(2)])
    doc = json.loads(render(degenerate, "json"))
    cell = doc["datasets"][0]["metrics"]["euclidean2"]["normalized"]
    assert cell["Programmer Specific"] is None
    assert "| n/a |" in render(degenerate, "markdown")


def test_render_dispatch(suite):
    assert type(render(suite, "markdown")) is str
    with pytest.raises(ValueError):
        render_parts(suite, "yaml")  # at the call, before any part is asked for


@pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
def test_parts_join_to_the_rendered_report(suite, fmt):
    parts = list(render_parts(suite, fmt, {"ngram_mode": "blocks"}))
    assert all(type(part) is str for part in parts)
    assert "".join(parts) == render(suite, fmt, {"ngram_mode": "blocks"})
    if fmt == "json":  # one part ends after each subset's pairs, one holds the rest
        subsets = sum(len(grouping.subsets) for report in suite.reports
                      for study in report.metrics.values()
                      for grouping in study.groupings.values())
        assert len(parts) == subsets + 1


def test_dict_round_trips_through_json(suite):
    doc = oracles.suite_to_dict(suite)
    assert json.loads(json.dumps(doc)) == doc


def test_render_json_matches_oracle_layout(suite, fixtures_dir):
    five = fixture_report(fixtures_dir, "corpus5x5")
    degenerate = uniform_suite("same", ["w", "x", "y", "z"])
    assert degenerate.summary[MetricKind.EUCLIDEAN2].normalized[
        PROGRAMMER_SPECIFIC.label] is None
    awkward = uniform_suite(AWKWARD, [AWKWARD + str(i) for i in range(4)],
                             "\tmov r0, r1\n\tadd r1, r2\n")
    metadata = {"ngram_mode": "blocks", "nested": [[1, [2.5, None]], {"k": []}],
                "empty": {}, "list": [], AWKWARD: AWKWARD, "flag": True}
    cases = [
        (suite, None),
        (suite, metadata),
        (build_suite([five]), {"ngram_mode": "blocks"}),
        (build_suite([suite.reports[0], five]), metadata),
        (degenerate, {}),
        (awkward, metadata),
    ]
    for case, case_metadata in cases:
        assert render(case, "json", case_metadata) == oracle_json(case, case_metadata)


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16])


def with_subsets(suite, name, subset_draws, grouping_mean, td_mean):
    """``suite`` with a cosine grouping ``name`` holding one subset per
    ``(pairs, mean)`` draw, in a dataset renamed ``name``."""
    report = suite.reports[0]
    study = report.metrics[MetricKind.COSINE]
    subsets = [SubsetSummary(name + str(i), pairs, mean)
               for i, (pairs, mean) in enumerate(subset_draws)]
    groupings = {**study.groupings,
                 name: GroupingResult(PROGRAMMER_SPECIFIC, subsets, grouping_mean)}
    metrics = {**report.metrics,
               MetricKind.COSINE: study._replace(groupings=groupings, td_mean=td_mean)}
    return suite._replace(reports=[report._replace(dataset=name, metrics=metrics)])


def test_render_json_memo_keeps_signed_zeros_apart(suite):
    """0.0 and -0.0 are one dict key with two reprs; repeated ids and values
    are read back from the memo."""
    zeros = [PairValue("x", "y", 0.0), PairValue("x", "y", -0.0), PairValue("y", "x", 0.5)]
    signed = [PairValue("y", "x", -0.0), PairValue("x", "x", 0.0), PairValue("x", "y", 0.5)]
    repeated = [PairValue(AWKWARD, "x", 0.1), PairValue(AWKWARD, AWKWARD, 0.1),
                PairValue("x", AWKWARD, 1e16)]
    memo_suite = with_subsets(suite, "memo", [(zeros, 0.0), (signed, -0.0), ([], 0.5),
                                               (repeated, 0.1)], -0.0, 0.0)
    assert render(memo_suite, "json", {"memo": -0.0}) == oracle_json(memo_suite, {"memo": -0.0})


@st.composite
def pooled_subsets(draw):
    """Up to three subsets of up to four pairs each, whose ids and values come
    from pools of at most three, so that most ids and values repeat."""
    ids = st.sampled_from(draw(st.lists(st.text(), min_size=1, max_size=3)))
    values = st.sampled_from(draw(st.lists(finite, min_size=1, max_size=3)))
    pairs = st.lists(st.builds(PairValue, ids, ids, values), max_size=4)
    return draw(st.lists(st.tuples(pairs, finite), max_size=3))


@settings(deadline=None, max_examples=60)
@given(st.text(), pooled_subsets(), finite, finite)
def test_render_json_matches_oracle_on_random_pairs(suite, name, subset_draws,
                                                    grouping_mean, td_mean):
    random_suite = with_subsets(suite, name, subset_draws, grouping_mean, td_mean)
    assert render(random_suite, "json", {name: name}) == oracle_json(random_suite, {name: name})
