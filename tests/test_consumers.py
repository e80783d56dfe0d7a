"""Every public definition in ``src/repro`` has a consumer outside ``tests/``.

Checked: module-level public functions and classes, and the public methods
of those classes, in every module but the package ``__init__`` files.  A
definition is consumed when its name appears outside its own node somewhere
under ``src/``, ``perf/``, ``benchmarks/``, ``scripts/`` or ``examples/``: as
a name, an attribute, an imported name, or one ``:``/``.``-separated part of
a string constant (``perf/layers.py`` names its trace targets by string).
A re-export is not a consumer, so the ``from ... import`` lines and
``__all__`` of ``src/repro/**/__init__.py`` do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CONSUMER_DIRS = ("src", "perf", "benchmarks", "scripts", "examples")

ALLOWED = {
    # Writes the ``.npz`` files ``--dataset-file`` reads; the CLI's help text
    # names it, and users call it from their own scripts.
    "repro.kg.datasets.save_store",
}


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC.parent).with_suffix("").parts)


def _span(node: ast.AST) -> range:
    return range(node.lineno, node.end_lineno + 1)


def _definitions():
    """Yield ``(qualified name, bare name, path, line span)``."""
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = _module_name(path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, path, _span(node)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")):
                    yield (f"{module}.{node.name}.{member.name}", member.name,
                           path, _span(member))


def _is_reexport_init(path: Path) -> bool:
    return path.name == "__init__.py" and SRC in path.parents


def _reexport_lines(tree: ast.Module) -> set:
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            lines.update(_span(node))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            lines.update(_span(node))
    return lines


def _names(node: ast.AST):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield from alias.name.split(".")
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield from re.split(r"[:.]", node.value)


def _references() -> dict:
    """Map each name to the ``(path, line)`` places that name it."""
    refs: dict = {}
    for top in CONSUMER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            skip = _reexport_lines(tree) if _is_reexport_init(path) else set()
            for node in ast.walk(tree):
                line = getattr(node, "lineno", None)
                if line is None or line in skip:
                    continue
                for name in _names(node):
                    refs.setdefault(name, []).append((path, line))
    return refs


def unconsumed() -> list:
    refs = _references()
    return [qualname for qualname, name, path, span in _definitions()
            if qualname not in ALLOWED
            and not any(p != path or line not in span
                        for p, line in refs.get(name, ()))]


def test_every_public_definition_has_a_consumer():
    dead = unconsumed()
    assert not dead, "no consumer outside tests/: " + ", ".join(dead)


def test_allowlist_is_short_and_current():
    defined = {qualname for qualname, *_ in _definitions()}
    assert len(ALLOWED) <= 2
    assert ALLOWED <= defined, ALLOWED - defined
