"""Render the benchmark results file into EXPERIMENTS.md.

A session of ``pytest benchmarks`` writes ``results/paper_<profile>.json``
(see ``benchmarks/conftest.py``): per test, its verdict, the first line of
its failure message and every table it printed.  Rendering rebuilds the
page's marked blocks from it and leaves everything else alone:
``<!-- measured: <test> -->`` holds that test's verdict and tables,
``<!-- claims -->`` one row per :data:`repro.bench.paper.CLAIMS` entry, and
``<!-- deviations -->`` every test that is not reproduced.  Usage::

    python -m repro.bench.report results/paper_quick.json EXPERIMENTS.md
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from . import paper
from .harness import markdown_table

REPRODUCED = "reproduced"
NOT_REPRODUCED = "not reproduced"

#: A marked block: its opening marker (kind, and the test for "measured"),
#: the content that rendering replaces, and the closing marker.
_BLOCK = re.compile(r"(<!-- ((measured|claims|deviations)(?:: (\S+))?) -->)"
                    r".*?(<!-- /\3 -->)", re.DOTALL)
_HEADING = re.compile(r"^## (.+)$", re.MULTILINE)


def _entry(results: dict, test: str) -> dict:
    try:
        return results[test]
    except KeyError:
        raise KeyError(f"the page names {test!r}, which has no entry in "
                       f"the results file") from None


def measured_block(entry: dict) -> str:
    """One test's verdict line followed by every table it printed."""
    verdict = f"**Verdict: {entry['verdict']}.**"
    if entry["message"]:
        verdict += f" `{entry['message']}`"
    parts = [verdict]
    for table in entry["tables"]:
        parts.append(f"*{table['title']}*\n\n"
                     + markdown_table(table["header"], table["rows"]))
    return "\n\n".join(parts)


def claims_table(results: dict) -> str:
    """The page's summary: each paper claim, its test, and that verdict."""
    rows = [[claim, text, f"`{test}`", _entry(results, test)["verdict"]]
            for claim, (text, test) in paper.CLAIMS.items()]
    return markdown_table(["claim", "statement", "test", "verdict"], rows)


def deviations(page: str, results: dict) -> str:
    """One line per measured block whose test is not reproduced."""
    lines = []
    for m in _BLOCK.finditer(page):
        entry = _entry(results, m[4]) if m[3] == "measured" else None
        if entry and entry["verdict"] == NOT_REPRODUCED:
            section = (_HEADING.findall(page, 0, m.start()) or ["above"])[-1]
            lines.append(f"- `{m[4]}`: `{entry['message']}` "
                         f"(see *{section}*).")
    return "\n".join(lines) or "- none"


def render(page: str, results: dict) -> str:
    """``page`` with every marked block rebuilt from ``results``.

    Raises ``KeyError`` naming a test that a marker or claim names but the
    results lack, or one the results hold but no marker shows.
    """
    shown = {m[4] for m in _BLOCK.finditer(page) if m[3] == "measured"}
    if set(results) - shown:
        raise KeyError(f"results entries with no measured block on the "
                       f"page: {sorted(set(results) - shown)}")

    def rebuild(m: re.Match) -> str:
        if m[3] == "measured":
            body = measured_block(_entry(results, m[4]))
        elif m[3] == "claims":
            body = claims_table(results)
        else:
            body = deviations(page, results)
        return f"{m[1]}\n\n{body}\n\n{m[5]}"

    return _BLOCK.sub(rebuild, page)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        results = json.load(fh)
    page = Path(argv[2])
    page.write_text(render(page.read_text(), results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
