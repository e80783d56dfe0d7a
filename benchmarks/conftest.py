"""Shared fixtures for the reproduction benchmarks.

Every benchmark runs its experiment once through ``benchmark.pedantic`` (a
training sweep is not a microbenchmark), prints its tables and asserts one
of the paper's claims.  Training runs are memoised in
:mod:`repro.bench.harness`, so tests that share workloads reuse each
other's runs within one session.  Each test's verdict, failure message and
tables go to ``results/paper_<profile>.json`` (no wall clock, so one commit
on one host always writes the same bytes); ``python -m repro.bench.report``
renders that file into EXPERIMENTS.md.

``REPRO_BENCH_PROFILE=full`` selects larger graphs and paper-faithful
patience.  The default ``quick`` suite takes 18-23 minutes on a 2-core box
(1,065-1,138 s of test calls, led by Figure 9 at 204 s, Figure 1 at
168-213 s and Figure 6 at 128-142 s).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import active_profile, harness
from repro.bench.report import NOT_REPRODUCED, REPRODUCED

#: Node counts per dataset (paper: FB15K up to 8, FB250K up to 16).
FB15K_NODES = [1, 2, 4, 8]
FB250K_NODES = [1, 2, 4, 8, 16]

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Entries of the tests this session ran, keyed by test name.
_ENTRIES: dict[str, dict] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Record the call phase's outcome (or a failed setup) as the verdict."""
    report = (yield).get_result()
    if report.when == "call" or report.failed:
        entry = _ENTRIES.setdefault(item.name, {"tables": []})
        entry["verdict"] = NOT_REPRODUCED if report.failed else REPRODUCED
        entry["message"] = None
        if report.failed:
            exc = call.excinfo
            text = (str(exc.value) if exc.errisinstance(AssertionError)
                    else exc.exconly())
            entry["message"] = (text.splitlines() or [exc.typename])[0]


@pytest.fixture(autouse=True)
def record_tables(request):
    """Keep every table the test prints in its results entry."""
    harness.RECORDED.clear()
    yield
    _ENTRIES.setdefault(request.node.name, {})["tables"] = \
        list(harness.RECORDED)


@pytest.fixture(scope="session", autouse=True)
def results_file():
    """Merge this session's entries into the profile's results file."""
    yield
    path = RESULTS_DIR / f"paper_{active_profile().name}.json"
    results = json.loads(path.read_text()) if path.exists() else {}
    results.update((name, entry) for name, entry in _ENTRIES.items()
                   if "verdict" in entry)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


def run_once_benchmarked(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
