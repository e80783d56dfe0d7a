"""Every callable the benchmark traces must still exist.

``perf/layers.py::TARGETS`` names production callables by module path, and
``perf/spans.py::install`` fails on a name that no longer resolves.  CI's
``perf-smoke`` step catches that; this catches it in tier-1.
"""

import importlib
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent / "perf"


def load_targets():
    # layers.py imports its sibling ``spans`` by bare name.
    sys.path.insert(0, str(PERF))
    try:
        return importlib.import_module("layers").TARGETS
    finally:
        sys.path.remove(str(PERF))


def test_every_target_resolves_to_a_callable():
    targets = load_targets()
    assert targets
    broken = []
    for target in targets:
        module_name, _, class_name = target.owner.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            broken.append(target.name)
            continue
        if class_name:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, target.attr, None)):
            broken.append(target.name)
    assert not broken, f"perf/layers.py TARGETS no longer resolve: {broken}"
