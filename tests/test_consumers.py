"""Every public definition in ``src/repro`` has a consumer outside ``tests/``.

Checked: module-level public functions and classes, and the public methods
of those classes, in every module but the package ``__init__`` files.  A
definition is consumed when its name appears outside its own node somewhere
under ``src/``, ``perf/``, ``benchmarks/``, ``scripts/`` or ``examples/``: as
a name, an attribute, an imported name, or one ``:``/``.``-separated part of
a string constant (``perf/layers.py`` names its trace targets by string).
A re-export is not a consumer, so the ``from ... import`` lines and
``__all__`` of ``src/repro/**/__init__.py`` do not count.

The match is by bare name, with no type information: a test-only method
whose name some unrelated object also carries (``keys``, ``get``, ``clear``)
passes as consumed.  Review such names by hand.

Three more audits share the file: every field of the configuration
dataclasses takes a second value somewhere in production (a field that
only ever holds its default is a constant), every imported name is read,
and only the callers named in ``CLOCK_READERS`` read the wall clock.
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


# -- settings: every field takes a second value ------------------------------

#: Configuration dataclasses whose fields must each be set to a value other
#: than their default somewhere under ``CONSUMER_DIRS``.  A field that only
#: ever holds its default is a constant, not a setting.
SETTINGS = ("StrategyConfig", "TrainConfig", "SLOConfig", "TrafficSpec",
            "FaultPlan", "ServeFaultPlan", "NetworkModel")

SETTINGS_ALLOWED = {
    # ``perf/workloads.py`` passes the default by keyword, and ROADMAP
    # item 9 runs the ``"measured"`` timing path.
    "TrainConfig.compute_time_mode",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            deco = deco.func
        if getattr(deco, "id", getattr(deco, "attr", None)) == "dataclass":
            return True
    return False


def _callee(node: ast.Call):
    func = node.func
    return getattr(func, "id", getattr(func, "attr", None))


def _consumer_trees():
    for top in CONSUMER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _module_constants(trees) -> dict:
    """Module-level ``NAME = <literal>`` bindings, for defaults such as
    ``DEFAULT_SEED``."""
    out = {}
    for _, tree in trees:
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                value = _literal(node.value, {})
                if value is not _UNKNOWN:
                    out[node.targets[0].id] = value
    return out


_UNKNOWN = object()
_ARITHMETIC = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator,
               ast.unaryop, ast.Tuple, ast.Load)


def _literal(node, constants: dict):
    """The value of a literal or constant-arithmetic expression, a known
    module constant, or ``_UNKNOWN``."""
    if node is None:
        return _UNKNOWN
    if isinstance(node, ast.Name):
        return constants.get(node.id, _UNKNOWN)
    if all(isinstance(n, _ARITHMETIC) for n in ast.walk(node)):
        return eval(compile(ast.Expression(node), "<default>", "eval"),
                    {"__builtins__": {}})
    return _UNKNOWN


def _dataclasses(trees) -> dict:
    """``{class name: {field: default node or None}}`` for every dataclass."""
    out = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out[node.name] = {
                    stmt.target.id: stmt.value for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)}
    return out


def _presets(trees) -> dict:
    """Functions annotated to return a settings class: keywords passed to
    them reach that class (``train_config(profile, lr_scale_cap=16)``)."""
    out = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ret = node.returns
                name = (ret.value if isinstance(ret, ast.Constant)
                        else getattr(ret, "id", getattr(ret, "attr", None)))
                if name in SETTINGS:
                    out[node.name] = name
    return out


def _keyword_sites(trees, classes: dict, presets: dict):
    """Yield ``(class, keyword)`` for each keyword that reaches a dataclass:
    a call of the class or of a preset, ``cls(...)`` or ``build(..., cls,
    ...)`` inside the class, ``kwargs["field"] = ...`` inside the class,
    and ``replace(...)`` (matched to every class with that field)."""
    for _, tree in trees:
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                for inner in ast.walk(node):
                    owners[id(inner)] = node.name
        for node in ast.walk(tree):
            owner = owners.get(id(node))
            if isinstance(node, ast.Assign) and owner is not None:
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.slice, ast.Constant)
                            and target.slice.value in classes[owner]):
                        yield owner, ast.keyword(arg=target.slice.value,
                                                 value=node.value)
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name in classes:
                targets = (name,)
            elif name in presets:
                targets = (presets[name],)
            elif name in ("cls", "build") and owner is not None:
                targets = (owner,)
            elif name == "replace":
                targets = tuple(classes)
            else:
                continue
            for kw in node.keywords:
                for cls in targets:
                    if kw.arg in classes[cls]:
                        yield cls, kw


def _spec_fields(trees) -> set:
    """``Class.field`` set by a spec key: a ``_KEYS`` key or a ``_FIELDS``
    value in the class body."""
    out = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and node.name in SETTINGS):
                continue
            for stmt in node.body:
                if not (isinstance(stmt, ast.Assign)
                        and isinstance(stmt.value, ast.Dict)):
                    continue
                names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
                side = (stmt.value.keys if "_KEYS" in names
                        else stmt.value.values if "_FIELDS" in names else ())
                out.update(f"{node.name}.{c.value}" for c in side
                           if isinstance(c, ast.Constant))
    return out


def _cli_dests(trees) -> set:
    """Destinations of every ``add_argument`` flag."""
    out = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and _callee(node) == "add_argument"):
                continue
            dest = next((kw.value.value for kw in node.keywords
                         if kw.arg == "dest"), None)
            flags = [a.value for a in node.args
                     if isinstance(a, ast.Constant)
                     and str(a.value).startswith("--")]
            if dest is None and flags:
                dest = flags[0][2:].replace("-", "_")
            if dest:
                out.add(dest)
    return out


def unvaried_settings() -> list:
    """``Class.field`` of every settings field no production code sets to a
    second value.

    A keyword counts unless its value equals the default or is a same-named
    pass-through (``x=x``, ``x=cfg.x``).  A pass-through from another
    dataclass counts when that dataclass's own field takes a second value
    (``relation_exponent=workload.relation_exponent``).  A CLI flag whose
    destination is the field's name, or a spec key naming it, also counts.
    """
    trees = list(_consumer_trees())
    constants = _module_constants(trees)
    classes = _dataclasses(trees)
    presets = _presets(trees)

    varied, forwarded = set(), set()
    for cls, kw in _keyword_sites(trees, classes, presets):
        value = kw.value
        if getattr(value, "id", getattr(value, "attr", None)) == kw.arg:
            forwarded.add((cls, kw.arg))
            continue
        default = _literal(classes[cls][kw.arg], constants)
        given = _literal(value, constants)
        same = (given == default if _UNKNOWN not in (given, default)
                else classes[cls][kw.arg] is not None
                and ast.dump(value) == ast.dump(classes[cls][kw.arg]))
        if not same:
            varied.add((cls, kw.arg))
    varied |= {(cls, name) for cls, name in forwarded
               if any((other, name) in varied
                      for other in classes if other != cls)}

    set_by_name = _spec_fields(trees)
    dests = _cli_dests(trees)
    return [f"{cls}.{name}" for cls in SETTINGS for name in classes[cls]
            if (cls, name) not in varied
            and f"{cls}.{name}" not in set_by_name
            and name not in dests
            and f"{cls}.{name}" not in SETTINGS_ALLOWED]


def test_every_setting_takes_a_second_value():
    constant = unvaried_settings()
    assert not constant, ("fields that only ever hold their default (make "
                          "them constants): " + ", ".join(constant))


def test_settings_allowlist_is_short_and_current():
    classes = _dataclasses(list(_consumer_trees()))
    assert len(SETTINGS_ALLOWED) <= 1
    for entry in SETTINGS_ALLOWED:
        cls, name = entry.split(".")
        assert name in classes[cls], entry


# -- imports: every imported name is read ------------------------------------

IMPORT_DIRS = ("src", "tests", "benchmarks", "scripts", "examples")


def unread_imports() -> list:
    """``path:line name`` for each imported name the module never reads.

    Package ``__init__`` files (re-exports) and ``# noqa: F401`` lines are
    exempt."""
    out = []
    for top in IMPORT_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            text = path.read_text()
            lines = text.splitlines()
            tree = ast.parse(text)
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) \
                        and node.module == "__future__":
                    continue
                if any("noqa: F401" in lines[i - 1] for i in _span(node)):
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "*" and bound not in read:
                        rel = path.relative_to(ROOT)
                        out.append(f"{rel}:{node.lineno} {bound}")
    return out


def test_every_imported_name_is_read():
    unread = unread_imports()
    assert not unread, "imported but never read: " + ", ".join(unread)


# -- wall clock: only the callers read it ------------------------------------

#: ``time`` functions that read a clock.
WALL_CLOCKS = {"perf_counter", "perf_counter_ns", "time", "time_ns",
               "monotonic", "monotonic_ns", "process_time",
               "process_time_ns"}

#: The code under ``src/repro`` allowed to read one, as ``module`` or
#: ``module::function``.  The library counts and models time; only a
#: caller times.
CLOCK_READERS = {
    # ``compute_time_mode="measured"`` feeds a step's wall seconds into
    # the simulated clock.
    "training/worker.py",
    # The traffic replay times its own windows, end to end.
    "serve/traffic.py::replay",
}


def wall_clock_reads() -> list:
    """``(module, enclosing function, line)`` of every reference to a
    ``time`` clock under ``src/repro`` — called or bound to a name."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        modules, clocks = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names
                            if a.name == "time"}
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                clocks |= {a.asname or a.name for a in node.names
                           if a.name in WALL_CLOCKS}

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                where = f"{where}.{node.name}" if where else node.name
            if (isinstance(node, ast.Attribute) and node.attr in WALL_CLOCKS
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules) or (
                    isinstance(node, ast.Name) and node.id in clocks):
                out.append((module, where, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, where)
        visit(tree, "")
    return out


def test_only_the_callers_read_the_wall_clock():
    stray = [f"{module}::{where or '<module>'} line {line}"
             for module, where, line in wall_clock_reads()
             if not {module, f"{module}::{where}"} & CLOCK_READERS]
    assert not stray, "wall clock read inside the library: " + \
        ", ".join(stray)


def test_clock_readers_are_short_and_current():
    sites = wall_clock_reads()
    assert len(CLOCK_READERS) <= 2
    for reader in CLOCK_READERS:
        assert any(reader in (module, f"{module}::{where}")
                   for module, where, _ in sites), reader
