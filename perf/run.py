#!/usr/bin/env python3
"""One benchmark for train -> checkpoint -> serve, end to end and per layer.

``python perf/run.py`` runs the five workloads, each in a fresh
subprocess, prints every end-to-end metric with its unit, checks the
outputs and writes ``perf/out/results.json``; ``--trace`` repeats them
with spans installed and reports the per-layer metrics instead.

``--workload NAME`` runs one workload in this process and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (``--trace 0``: the end-to-end
metrics, ``--trace 1``: the per-layer metrics).  See ``perf/README.md``.
"""

from __future__ import annotations

import os

# One process, one thread: pinned before NumPy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import repro
from layers import PER_LAYER, TARGETS, layer_metrics
from spans import Recorder, install, uninstall
from workloads import (CHECKED_ANSWERS, DEFAULT_SEED, RUN_SECONDS, WORKLOADS,
                       binary_recall_at_10, brute_force_mismatches, run_serve,
                       run_train, scaled_units, setup_serve, setup_train)

#: (name, unit, better) of every end-to-end metric; every workload reports
#: all of them.  Bounds live in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("final_loss", "loss", "lower"),
]
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Floor under train_converge's test MRR (0.36-0.45 across seeds).
MRR_FLOOR = 0.25


def end_to_end_metrics(outcome, setup_seconds: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": outcome.ops / outcome.wall_s,
        "op_p50_ms": float(np.median(outcome.op_seconds)) * 1e3,
        "final_loss": outcome.final_loss,
    }


def output_checks(workload, state, outcome, smoke: bool) -> list[tuple]:
    """(description, passed) for what one timed window produced."""
    checks = [(f"no operation failed ({outcome.failed} of "
               f"{outcome.attempted})", outcome.failed == 0)]
    if workload.family == "train":
        losses = [log.loss for log in outcome.train_result.logs]
        checks.append(("training loss is finite",
                       all(math.isfinite(x) for x in losses)))
        if workload.name == "train_dense":
            checks.append((f"loss fell: {losses[0]:.4f} -> {losses[-1]:.4f}",
                           losses[-1] < losses[0]))
        if workload.name == "train_converge" and not smoke:
            mrr = outcome.train_result.test_mrr
            checks.append((f"test MRR {mrr:.3f} >= {MRR_FLOOR}",
                           mrr >= MRR_FLOOR))
        return checks
    swaps = outcome.exact["reloads"]
    checks.append((f"{swaps} real snapshot swaps, {workload.reloads} due",
                   swaps == workload.reloads))
    hit_ratio = outcome.facts["serve.cache_hit_ratio"]
    if workload.name == "serve_hot":
        bad = brute_force_mismatches(state, outcome.answers)
        checks.append((f"{len(outcome.answers)} top-k answers match a "
                       f"brute-force filtered ranking ({bad} differ)",
                       bad == 0 and (smoke or len(outcome.answers)
                                     == CHECKED_ANSWERS)))
        if not smoke:
            checks.append((f"cache is used (hit ratio {hit_ratio:.3f})",
                           hit_ratio > 0.5))
    elif not smoke:
        checks.append((f"cache is bypassed (hit ratio {hit_ratio:.4f})",
                       hit_ratio < 0.02))
    return checks


def layer_checks(workload, metrics: dict, coverage: float) -> list[tuple]:
    """The designated bypasses hold and the trace accounts for the run."""
    checks = [(f"layer self times cover {coverage:.4f} of the timed window",
               abs(coverage - 1.0) <= 0.02)]

    def idle(*names) -> tuple:
        busy = [n for n in names if metrics[n]]
        return (f"bypassed on {workload.name}: {', '.join(names)}"
                + (f" (busy: {busy})" if busy else ""), not busy)

    if workload.family == "serve":
        checks.append(idle("training.compute_step_s", "optim.adam_s",
                           "comm.combine_calls", "compress.quantize_calls"))
    else:
        checks.append(idle("serve.engine_s", "serve.cache_get_s",
                           "serve.stage1_calls", "serve.reloads"))
    if workload.name == "train_dense":
        checks.append(idle("compress.select_s", "compress.quantize_calls",
                           "compress.dequantize_s", "compress.ef_s"))
    if workload.name == "serve_hot":
        checks.append(idle("serve.stage1_calls", "serve.reloads",
                           "serve.admit_s", "models.candidates_s"))
    return checks


def run_workload(args) -> int:
    """Run one workload here; print its result as the last line."""
    workload = WORKLOADS[args.workload]
    units = scaled_units(workload, args.seconds, args.smoke)
    setup, run = ((setup_train, run_train) if workload.family == "train"
                  else (setup_serve, run_serve))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))

    def timed_setup(tag: str):
        began = time.perf_counter()
        state = setup(workload, args.seed, units, args.smoke, workdir / tag)
        return state, time.perf_counter() - began

    try:
        if not args.trace:
            setup_seconds = []
            for k in range(SETUP_REPEATS):
                state = None  # free the last set-up before the next one
                state, seconds = timed_setup(f"setup{k}")
                setup_seconds.append(seconds)
            outcome = run(state)
            checks = output_checks(workload, state, outcome, args.smoke)
            values = end_to_end_metrics(outcome, setup_seconds)
            units_of = {name: unit for name, unit, _ in END_TO_END}
        else:
            state, _ = timed_setup("plain")
            plain = run(state)
            checks = [(f"untraced: {text}", passed) for text, passed
                      in output_checks(workload, state, plain, args.smoke)]
            recorder = Recorder()
            patches = install(recorder, TARGETS)
            try:
                with recorder.root("setup"):
                    state, _ = timed_setup("traced")
                with recorder.root("run"):
                    outcome = run(state, recorder)
            finally:
                uninstall(patches)
            checks += [(f"traced: {text}", passed) for text, passed
                       in output_checks(workload, state, outcome, args.smoke)]
            differ = [k for k in plain.exact
                      if plain.exact[k] != outcome.exact[k]]
            checks.append((f"{len(plain.exact)} deterministic values equal "
                           f"with and without spans (differ: {differ})",
                           not differ))
            facts = dict(outcome.facts)
            if workload.family == "serve":
                # The caller's view of a window, so taken without spans.
                p50, p99 = np.percentile(plain.op_seconds, (50, 99)) * 1e3
                facts.update({"serve.window_p50_ms": float(p50),
                              "serve.window_p99_ms": float(p99),
                              "serve.window_samples": len(plain.op_seconds)})
            if workload.binary_tier:
                facts["serve.binary_recall_at_10"] = binary_recall_at_10(state)
            values, coverage = layer_metrics(
                recorder, facts, outcome.wall_s / plain.wall_s)
            checks += layer_checks(workload, values, coverage)
            trace_file = OUT / f"trace_{workload.name}.json"
            recorder.write_chrome_trace(trace_file)
            print(f"trace: {trace_file.relative_to(ROOT)} "
                  f"({len(recorder.spans)} spans)")
            units_of = {name: unit for name, unit, _ in PER_LAYER}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for description, passed in checks:
        print(f"check {'ok' if passed else 'FAILED'}: {description}")
    print(f"samples: {len(outcome.op_seconds)} behind op_p50_ms; "
          f"timed window {outcome.wall_s:.2f} s, {units} units")
    correct = all(passed for _, passed in checks)
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units_of.items()}}, default=float))
    return 0 if correct else 1


# -- the suite: every workload in its own subprocess ---------------------------


def _header(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "trace": args.trace, "repeat": args.repeat, "commit": commit,
        "nproc": os.cpu_count(), "blas_threads": 1,
        "python": platform.python_version(), "numpy": np.__version__,
    }


def _summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def run_suite(args) -> int:
    report = {"header": _header(args), "workloads": {}}
    ok = True
    for name in WORKLOADS:
        command = [sys.executable, str(PERF / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        runs = []
        for _ in range(args.repeat):
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(f"[{name}] {line}")
            if proc.returncode != 0:
                ok = False
                print(f"[{name}] exited {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
            if lines and lines[-1].startswith("{"):
                runs.append(json.loads(lines[-1]))
        if not runs:
            continue
        entry = {
            "why": WORKLOADS[name].why,
            "correct": all(r["correct"] for r in runs),
            "attempted": runs[-1]["attempted"],
            "failed": max(r["failed"] for r in runs),
            "metrics": {},
        }
        for metric, last in runs[-1]["metrics"].items():
            entry["metrics"][metric] = dict(
                _summary([r["metrics"][metric]["value"] for r in runs]),
                unit=last["unit"])
        report["workloads"][name] = entry
        for metric, cell in entry["metrics"].items():
            print(f"{name:18s} {metric:28s} {cell['median']:14.6g} "
                  f"{cell['unit']}")
    out = Path(args.out) if args.out else OUT / (
        "results_trace.json" if args.trace else "results.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"results: {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in-process "
                             "(default: all five, one subprocess each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="the only source of randomness: graph, "
                             "trainer and traffic seeds")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="nominal length of the timed window; the fixed "
                             "work of a run is sized from it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: install spans and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs and a few hundred queries")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite only: runs per workload (median and "
                             "quartiles are recorded)")
    parser.add_argument("--out", help="suite only: results file")
    args = parser.parse_args(argv)
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro was imported from {repro.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 1
    return run_workload(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
