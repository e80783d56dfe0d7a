"""Tests of the benchmark's own machinery (not collected by tier-1).

Run with ``PYTHONPATH=src python -m pytest -q perf/test_perf.py``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))
sys.path.insert(0, str(ROOT / "src"))

from compare import verdict  # noqa: E402
from spans import (END, PARENT, START, TARGET, Recorder, Target,  # noqa: E402
                   install, uninstall)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_spans_self_time():
    rec = Recorder()
    child = rec.wrap(lambda: _busy(0.02), Target("t.m", "child", "child"))

    def parent_body():
        _busy(0.01)
        child()      # fully inside the parent
        child()      # a sibling of the first
        _busy(0.01)

    parent = rec.wrap(parent_body, Target("t.m", "parent", "parent"))

    def recurse(depth):
        _busy(0.005)
        if depth:
            recursive(depth - 1)

    recursive = rec.wrap(recurse, Target("t.m", "recurse", "recurse"))

    with rec.root("run"):
        parent()
        recursive(2)

    names = [s[TARGET].attr for s in rec.spans]
    assert names == ["run", "parent", "child", "child",
                     "recurse", "recurse", "recurse"]
    assert [s[PARENT] for s in rec.spans] == [-1, 0, 1, 1, 0, 4, 5]
    selfs = rec.self_times()
    length = [s[END] - s[START] for s in rec.spans]
    # Parent: its own 20 ms, not the 40 ms its two children cover.
    assert selfs[1] == pytest.approx(length[1] - length[2] - length[3])
    assert 0.02 <= selfs[1] < 0.03
    assert selfs[2] == length[2] and selfs[3] == length[3]
    # Re-entrant: each level keeps only its own 5 ms.
    for i in (4, 5, 6):
        assert 0.005 <= selfs[i] < 0.01
    # Self times partition the root span exactly.
    assert sum(selfs) == pytest.approx(length[0])
    assert rec.roots() == [0] * 7


def test_spans_wrapper_is_transparent():
    rec = Recorder()
    seen = []
    target = Target("t.m", "f", "f",
                    after=lambda c, a, k, r: seen.append((a, k, r)))

    def f(x, y=1):
        """doc"""
        if x < 0:
            raise ValueError("negative")
        return [x, y]

    wrapped = rec.wrap(f, target)
    assert wrapped.__name__ == "f" and wrapped.__doc__ == "doc"
    assert wrapped(2, y=3) == [2, 3]
    assert seen == [((2,), {"y": 3}, [2, 3])]
    with pytest.raises(ValueError, match="negative"):
        wrapped(-1)
    # The raising call still closed its span and left the stack empty.
    assert len(rec.spans) == 2 and rec.spans[1][END] >= rec.spans[1][START]
    assert wrapped(0) == [0, 1] and rec.spans[2][PARENT] == -1


def test_install_replaces_every_reference_and_uninstall_restores():
    import repro.compress.quantization as quantization
    import repro.training.trainer as trainer
    from layers import TARGETS
    from repro.models.base import KGEModel
    from repro.models.complex_model import ComplEx
    from repro.serve.store import EmbeddingStore

    def snapshot():
        modules = {name: dict(vars(mod)) for name, mod
                   in sys.modules.items()
                   if mod is not None and (name == "repro"
                                           or name.startswith("repro."))}
        classes = {cls: dict(vars(cls))
                   for cls in (KGEModel, ComplEx, EmbeddingStore)}
        return modules, classes

    before = snapshot()
    original = quantization.quantize
    rec = Recorder()
    patches = install(rec, TARGETS)
    try:
        # The defining module and the importer both see the wrapper.
        assert quantization.quantize is not original
        assert trainer.quantize is quantization.quantize
        assert quantization.quantize.__wrapped__ is original
        # Overrides are wrapped where they are defined; kinds are kept.
        assert "score" in vars(ComplEx)
        assert vars(ComplEx)["score"] is not before[1][ComplEx]["score"]
        assert isinstance(vars(EmbeddingStore)["from_checkpoint"],
                          classmethod)
        # The abstract declaration is left alone.
        assert vars(KGEModel)["score"] is before[1][KGEModel]["score"]
    finally:
        uninstall(patches)
    after = snapshot()
    assert after[0].keys() == before[0].keys()
    for name in before[0]:
        assert after[0][name] == before[0][name], name
    for cls in before[1]:
        assert after[1][cls] == before[1][cls], cls


def test_compare_verdicts():
    def cell(median, q1=None, q3=None):
        return {"median": median, "q1": q1 or median, "q3": q3 or median}

    assert verdict(cell(100), cell(104), "lower", 0.05) == "within-bound"
    assert verdict(cell(100), cell(106), "lower", 0.05) == "regressed"
    assert verdict(cell(100), cell(94), "lower", 0.05) == "improved"
    assert verdict(cell(100), cell(94), "higher", 0.05) == "regressed"
    assert verdict(cell(100, 95, 103), cell(120), "lower", 0.05) \
        == "unresolved"
    assert verdict(cell(100), cell(200), "lower", None) == "no-bound"


def test_smoke_schema(tmp_path):
    """The smoke suite reports exactly what BENCHMARK.json declares."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["paths"] == ["perf"]
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in benchmark["end_to_end"])
    for metric in benchmark["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25

    began = time.perf_counter()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = tmp_path / f"results{trace}.json"
        proc = subprocess.run(
            [sys.executable, str(PERF / "run.py"), "--smoke", "--trace",
             str(trace), "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(out.read_text())
        assert report["header"]["blas_threads"] == 1
        assert list(report["workloads"]) == [w["name"] for w
                                             in benchmark["workloads"]]
        declared = {m["name"]: m["unit"] for m in benchmark[section]}
        for name, entry in report["workloads"].items():
            assert entry["correct"] and entry["failed"] == 0, name
            assert entry["attempted"] >= 1
            measured = {m: cell["unit"]
                        for m, cell in entry["metrics"].items()}
            assert measured == declared, name
            for metric in measured:
                assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                                    metric)
            if trace == 0:
                assert all(cell["median"] > 0
                           for cell in entry["metrics"].values()), name
    assert time.perf_counter() - began < 60
    for name in report["workloads"]:
        trace_file = PERF / "out" / f"trace_{name}.json"
        assert json.loads(trace_file.read_text())["traceEvents"]
