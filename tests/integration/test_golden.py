"""Golden-run regression net: frozen end-to-end training digests.

Each golden file under ``tests/golden/`` pins the *exact* numeric outcome
(per-epoch losses, validation MRR curve, final test MRR/TCA, byte and step
counters) of one strategy combo on the frozen-seed toy dataset.  Any change
that perturbs the training trajectory — an optimiser tweak, an RNG reorder,
a collective reshuffle — fails these tests, so numeric drift has to be
introduced deliberately::

    PYTHONPATH=src python -m pytest tests/integration/test_golden.py --update-goldens

and the regenerated files reviewed and committed alongside the change.
A regeneration prints, for each file it replaces, the largest |Δ| of every
field against the old file (add ``-s`` or ``-rs`` to see it).
"""

import json
from pathlib import Path

import pytest

from repro import TrainConfig, train
from repro.kg.datasets import make_tiny_kg
from repro.training.strategy import PRESETS

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: golden name -> (strategy preset, simulated nodes)
COMBOS = {
    "allreduce-n1": ("allreduce", 1),
    "rs-1bit-n3": ("RS+1-bit", 3),
    "drs-1bit-rp-ss-n4": ("DRS+1-bit+RP+SS", 4),
}


def run_digest(preset: str, n_nodes: int) -> dict:
    """One frozen-seed training run, reduced to its comparable numbers."""
    store = make_tiny_kg()
    cfg = TrainConfig(dim=8, batch_size=128, max_epochs=4, lr_patience=6,
                      eval_max_queries=30, seed=20220829)
    result = train(store, PRESETS[preset](), n_nodes, config=cfg)
    return {
        "strategy": result.strategy_label,
        "n_nodes": n_nodes,
        "seed": cfg.seed,
        "epochs": result.epochs,
        "converged": result.converged,
        "loss": [float(x) for x in result.series("loss")],
        "val_mrr": [float(x) for x in result.series("val_mrr")],
        "final_val_mrr": float(result.final_val_mrr),
        "test_mrr": float(result.test_mrr),
        "test_hits10": float(result.test_hits10),
        "test_tca": float(result.test_tca),
        "total_time": float(result.total_time),
        "drs_switch_epoch": result.drs_switch_epoch,
        "bytes_total": result.bytes_total,
        "allreduce_steps": result.allreduce_steps,
        "allgather_steps": result.allgather_steps,
    }


def max_abs_deltas(old: dict, new: dict) -> dict:
    """Per field of either digest, the largest |new - old| over its values
    (a list field compares element by element); a field that is missing,
    not numeric or changed length maps to ``"changed"`` unless equal."""
    deltas = {}
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a == b:
            deltas[key] = 0.0
            continue
        a, b = (a, b) if isinstance(a, list) else ([a], [b])
        try:
            deltas[key] = max(abs(float(y) - float(x))
                              for x, y in zip(a, b, strict=True))
        except (TypeError, ValueError):
            deltas[key] = "changed"
    return deltas


@pytest.mark.parametrize("name", sorted(COMBOS))
def test_golden_run(name, update_goldens):
    preset, n_nodes = COMBOS[name]
    digest = run_digest(preset, n_nodes)
    path = GOLDEN_DIR / f"{name}.json"
    if update_goldens:
        report = "new file"
        if path.is_file():
            deltas = max_abs_deltas(json.loads(path.read_text()), digest)
            report = ", ".join(f"{key} {value:.3g}"
                               if isinstance(value, float)
                               else f"{key} {value}"
                               for key, value in deltas.items())
        print(f"\n{path.name} max |Δ|: {report}")
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}; max |Δ|: {report}")
    assert path.is_file(), (
        f"golden file {path} is missing; generate it with "
        f"pytest --update-goldens and commit it")
    expected = json.loads(path.read_text())
    drifted = sorted({key for key in set(expected) | set(digest)
                      if expected.get(key) != digest.get(key)})
    assert digest == expected, (
        f"golden drift in {name}: field(s) {drifted} changed — if the "
        f"numeric change is intended, regenerate with --update-goldens "
        f"and commit the diff")


#: Goldens under tests/golden/ owned by other harnesses, not this suite's
#: strategy combos (the elastic recovery log is pinned by
#: scripts/elastic_recovery.py).
EXTERNAL_GOLDENS = {"elastic-recovery"}


def test_goldens_have_no_strays():
    """Every committed golden corresponds to a combo under test."""
    committed = ({path.stem for path in GOLDEN_DIR.glob("*.json")}
                 - EXTERNAL_GOLDENS)
    assert committed == set(COMBOS), (
        f"tests/golden/ out of sync with COMBOS: "
        f"stray={sorted(committed - set(COMBOS))} "
        f"missing={sorted(set(COMBOS) - committed)}")


def test_max_abs_deltas_reports_every_field():
    old = {"loss": [0.5, 0.25], "epochs": 4, "strategy": "allreduce",
           "val_mrr": [0.1], "drs_switch_epoch": 0}
    new = {"loss": [0.5, 0.75], "epochs": 4, "strategy": "RS+1-bit",
           "val_mrr": [0.1, 0.2], "drs_switch_epoch": None, "seed": 1}
    assert max_abs_deltas(old, new) == {
        "drs_switch_epoch": "changed", "epochs": 0.0, "loss": 0.5,
        "seed": "changed", "strategy": "changed", "val_mrr": "changed"}
