"""Every repository path and every ``repro.`` name the prose quotes must
exist."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted(ROOT.glob("docs/*.md")),
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
PATH = re.compile(
    r"(?<![\w/.-])((?:src|tests|scripts|benchmarks|examples|perf|docs|results)"
    r"/[\w/.-]*\.(?:py|json|sh|md)|BENCH_\w+\.json)\b")
#: A backticked dotted name under the package, e.g. `repro.kg.io.load_store`.
NAME = re.compile(r"`(repro(?:\.\w+)+)")


def test_quoted_paths_exist():
    dangling = sorted(
        f"{doc.relative_to(ROOT)}: {path}"
        for doc in DOCS for path in set(PATH.findall(doc.read_text()))
        if not (ROOT / path).exists())
    assert not dangling, dangling


def _resolves(dotted: str) -> bool:
    """Walk the name by ``getattr``, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def test_quoted_names_resolve():
    names = {(doc, name) for doc in DOCS
             for name in NAME.findall(doc.read_text())}
    assert names
    dangling = sorted(f"{doc.relative_to(ROOT)}: {name}"
                      for doc, name in names if not _resolves(name))
    assert not dangling, dangling
