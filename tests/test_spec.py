"""The shared ``key=value`` spec parser and the reference-oracle boundary.

The per-flag strictness batteries live with their classes
(``tests/comm/test_faults.py``, ``tests/comm/test_topology.py``,
``tests/serve/test_resilience.py``); this file pins what only the shared
parser can promise: every flag reports a bad value the same way.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.comm.faults import FaultPlan
from repro.comm.network import NetworkModel
from repro.serve.resilience import ServeFaultPlan


@pytest.mark.parametrize("cls, flag, entry", [
    (FaultPlan, "--faults", "drop=abc"),
    (FaultPlan, "--faults", "straggler=x:2"),
    (NetworkModel, "--net", "rpn=x"),
    (NetworkModel, "--net", "intra=a:b"),
    (ServeFaultPlan, "--serve-faults", "spike=abc"),
])
def test_converter_failure_names_flag_and_entry(cls, flag, entry):
    with pytest.raises(ValueError,
                       match=f"bad {flag} value in '{entry}': "):
        cls.parse(entry)


def test_too_many_parts_is_a_bad_tuple_not_a_converter_leak():
    with pytest.raises(ValueError, match="expected rank:factor"):
        FaultPlan.parse("straggler=1:2.0:3")


def test_reference_kernels_are_imported_by_no_production_module():
    """The oracles live in ``tests/_reference.py``: no module under
    ``src/repro`` imports ``tests`` or anything named ``_reference``."""
    root = Path(repro.__file__).parent
    assert not list(root.rglob("_reference.py"))
    offenders = []
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[0] == "tests" or "_reference" in
                   name.split(".") for name in imported):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
