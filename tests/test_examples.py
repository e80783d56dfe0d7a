"""The runnable example stays runnable.

``examples/quickstart.py`` trains two methods for 90 epochs on an
FB15K-like graph (about 17 s).  Its ``main`` runs here unchanged on the
tiny graph for two epochs: the dataset maker and ``TrainConfig`` it
imported are swapped on the loaded module.
"""

import importlib.util
from pathlib import Path

from repro import TrainConfig, make_tiny_kg

QUICKSTART = (Path(__file__).resolve().parent.parent / "examples"
              / "quickstart.py")


def test_quickstart_main_runs_on_a_tiny_graph(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("quickstart", QUICKSTART)
    quickstart = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(quickstart)
    monkeypatch.setattr(quickstart, "make_fb15k_like",
                        lambda scale: make_tiny_kg())
    monkeypatch.setattr(
        quickstart, "TrainConfig",
        lambda **kwargs: TrainConfig(**{**kwargs, "dim": 8, "max_epochs": 2,
                                        "lr_warmup_epochs": 0,
                                        "eval_max_queries": 20}))
    quickstart.main()
    out = capsys.readouterr().out
    assert "dataset: {'name': 'tiny'" in out
    assert "allreduce" in out and "DRS+1-bit+RP+SS" in out
    assert "faster than the all-reduce baseline" in out
    assert "communication bytes" in out
