"""Every repository path the prose quotes must exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted(ROOT.glob("docs/*.md"))]
PATH = re.compile(
    r"(?<![\w/.-])((?:src|tests|scripts|benchmarks|examples|perf|docs)"
    r"/[\w/.-]*\.(?:py|json|sh|md)|BENCH_\w+\.json)\b")


def test_quoted_paths_exist():
    dangling = sorted(
        f"{doc.relative_to(ROOT)}: {path}"
        for doc in DOCS for path in set(PATH.findall(doc.read_text()))
        if not (ROOT / path).exists())
    assert not dangling, dangling
