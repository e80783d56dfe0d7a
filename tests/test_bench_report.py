"""Unit tests for the results-file renderer behind EXPERIMENTS.md."""

import json
from pathlib import Path

import pytest

from repro.bench import harness, paper
from repro.bench.harness import markdown_table
from repro.bench.report import NOT_REPRODUCED, REPRODUCED, main, render

ROOT = Path(__file__).resolve().parent.parent

RESULTS = {
    "test_a": {"verdict": REPRODUCED, "message": None,
               "tables": [{"title": "Fig A", "header": ["nodes", "TT"],
                           "rows": [["1", "2.500"], ["2", "1.00e-03"]]}]},
    "test_b": {"verdict": NOT_REPRODUCED,
               "message": "1-bit sent more than 2-bit at p=2",
               "tables": []},
}

PAGE = """\
# Title

## Figure A

<!-- measured: test_a -->
stale
<!-- /measured -->

prose stays

## Figure B

<!-- measured: test_b -->
<!-- /measured -->

## Known deviations

<!-- deviations -->
<!-- /deviations -->
"""


class TestMarkdownTable:
    def test_shape(self):
        md = markdown_table(["a", "b"], [[1, 2.5], [3, 0.001]])
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4
        assert "2.500" in lines[2]
        assert "1.00e-03" in lines[3]

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError):
            markdown_table([], [])

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            markdown_table(["a"], [[1, 2]])


def test_print_table_prints_the_markdown_it_records(capsys):
    harness.RECORDED.clear()
    harness.print_table("T", ["x", "y"], [[1, 0.25], ["a", 1e-4]])
    recorded = harness.RECORDED.pop()
    assert recorded == {"title": "T", "header": ["x", "y"],
                        "rows": [["1", "0.250"], ["a", "1.00e-04"]]}
    assert capsys.readouterr().out == (
        "\nT\n\n" + markdown_table(recorded["header"], recorded["rows"])
        + "\n")


class TestRender:
    def test_round_trip_is_a_fixed_point(self):
        page = render(PAGE, RESULTS)
        assert render(page, RESULTS) == page
        # Stale block content goes; the prose between blocks stays.
        assert "stale" not in page and "prose stays" in page
        assert "| 1 | 2.500 |" in page and "*Fig A*" in page
        assert "**Verdict: reproduced.**" in page

    def test_failed_entry_renders_not_reproduced_with_message(self):
        page = render(PAGE, RESULTS)
        assert ("**Verdict: not reproduced.** "
                "`1-bit sent more than 2-bit at p=2`") in page

    def test_deviations_list_each_not_reproduced_block(self):
        page = render(PAGE, RESULTS)
        listed = page.split("<!-- deviations -->")[1]
        assert listed == ("\n\n- `test_b`: `1-bit sent more than 2-bit at "
                          "p=2` (see *Figure B*).\n\n<!-- /deviations -->\n")
        passing = {name: RESULTS["test_a"] for name in RESULTS}
        assert "\n- none\n" in render(page, passing)

    def test_marker_without_entry_raises_naming_it(self):
        page = PAGE + "<!-- measured: test_gone -->\n<!-- /measured -->\n"
        with pytest.raises(KeyError, match="test_gone"):
            render(page, RESULTS)

    def test_entry_without_marker_raises_naming_it(self):
        results = dict(RESULTS, test_new=RESULTS["test_a"])
        with pytest.raises(KeyError, match="test_new"):
            render(PAGE, results)

    def test_claims_table_rendered_from_paper_claims(self):
        results = {test: RESULTS["test_b"]
                   for _, test in paper.CLAIMS.values()}
        blocks = "".join(f"<!-- measured: {test} -->\n<!-- /measured -->\n"
                         for test in results)
        page = render("<!-- claims -->\n<!-- /claims -->\n" + blocks,
                      results)
        text, test = paper.CLAIMS["F2"]
        assert f"| F2 | {text} | `{test}` | {NOT_REPRODUCED} |" in page
        claims = page.split("<!-- /claims -->")[0]
        assert claims.count(f"| {NOT_REPRODUCED} |") == len(paper.CLAIMS)
        del results[test]
        with pytest.raises(KeyError, match=test):
            render(page, results)


class TestMain:
    def test_rewrites_the_page_in_place(self, tmp_path):
        results = tmp_path / "results.json"
        results.write_text(json.dumps(RESULTS))
        page = tmp_path / "page.md"
        page.write_text(PAGE)
        assert main(["report", str(results), str(page)]) == 0
        assert page.read_text() == render(PAGE, RESULTS)

    def test_refused_render_leaves_the_page_alone(self, tmp_path):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"test_a": RESULTS["test_a"]}))
        page = tmp_path / "page.md"
        page.write_text(PAGE)
        with pytest.raises(KeyError):
            main(["report", str(results), str(page)])
        assert page.read_text() == PAGE

    def test_usage(self, capsys):
        assert main(["report"]) == 2
        assert "Usage" in capsys.readouterr().err


def test_committed_page_is_the_render_of_the_committed_results():
    """EXPERIMENTS.md cannot drift from results/paper_quick.json."""
    results = json.loads((ROOT / "results" / "paper_quick.json").read_text())
    page = (ROOT / "EXPERIMENTS.md").read_text()
    assert render(page, results) == page
