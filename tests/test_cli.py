"""Unit tests for the command-line interface."""

import ast
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main
from repro.kg.datasets import make_tiny_kg, save_store
from repro.training.checkpoint import latest_checkpoint, list_checkpoints
from tests._fixtures import save_openke_dir


def build_parser(command="train"):
    return cli.COMMANDS[command][0]()


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.dataset == "fb15k"
        assert args.strategy == "allreduce"
        assert args.nodes == 1

    def test_strategy_choices_cover_presets(self):
        from repro.training.strategy import PRESETS
        parser = build_parser()
        for preset in PRESETS:
            args = parser.parse_args(["--strategy", preset])
            assert args.strategy == preset

    def test_unknown_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--strategy", "magic"])


class TestMain:
    def _args(self, tmp_path, extra=()):
        store = make_tiny_kg()
        path = str(tmp_path / "kg.npz")
        save_store(store, path)
        return ["--dataset-file", path, "--dim", "8", "--batch-size", "128",
                "--max-epochs", "2", "--patience", "5", "--warmup", "0",
                *extra]

    def test_text_output(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, ["--nodes", "2"]))
        assert rc == 0
        out = capsys.readouterr().out
        assert "TT_hours" in out
        assert "MRR" in out

    def test_json_output_parses(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, ["--json"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["method"] == "allreduce"
        assert row["nodes"] == 1
        assert "bytes_communicated" in row

    def test_full_method_runs(self, tmp_path, capsys):
        rc = main(self._args(tmp_path,
                             ["--strategy", "DRS+1-bit+RP+SS", "--nodes", "2",
                              "--json"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["method"] == "DRS+1-bit+RP+SS"

    def test_negatives_override(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, ["--negatives", "3", "--json"]))
        assert rc == 0

    def test_faults_knob_reports_chaos_telemetry(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--nodes", "4", "--json", "--faults",
            "straggler=1:3.0,drop=0.2,policy=fallback-dense,seed=5"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["comm_retries"] > 0
        assert row["straggler_skew"] > 0
        assert "comm_fallbacks" in row and "drs_switch_epoch" in row

    def test_faults_text_output_describes_plan(self, tmp_path, capsys):
        rc = main(self._args(tmp_path,
                             ["--nodes", "2", "--faults", "drop=0.1"]))
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults" in out and "drop=0.1" in out

    def test_no_faults_keeps_row_shape(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, ["--json"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert "comm_retries" not in row

    def test_bad_faults_spec_exits_2_with_diagnosis(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, ["--faults", "frobnicate=1"]))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "frobnicate" in err

    def test_bad_faults_value_exits_2_naming_flag_and_entry(self, tmp_path,
                                                            capsys):
        rc = main(self._args(tmp_path, ["--faults", "drop=abc"]))
        assert rc == 2
        assert ("error: bad --faults value in 'drop=abc'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag, spec", [
        ("--net", "rpn=2,inter=nan:1.25e-10"),
        ("--net", "flops=inf"),
        ("--faults", "jitter=nan"),
        ("--faults", "backoff=inf"),
        ("--faults", "straggler=1:nan"),
    ])
    def test_non_finite_spec_value_exits_2(self, tmp_path, capsys, flag,
                                           spec):
        """A NaN or infinite cost used to train on and print
        ``TT_hours: nan``; it is refused before training."""
        rc = main(self._args(tmp_path, ["--nodes", "4", "--strategy", "DRS",
                                        flag, spec]))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad {flag} spec ")
        assert "must be finite" in err

    @pytest.mark.parametrize("spec", ["rpn=1,flops=1e-300",
                                      "rpn=1,inter=1e300:1e300"])
    def test_finite_net_that_prices_infinite_time_exits_2(self, tmp_path,
                                                         capsys, spec):
        """Finite costs whose times overflow used to print
        ``TT_hours: Infinity`` (not JSON) and exit 0."""
        rc = main(self._args(tmp_path, ["--nodes", "2", "--max-epochs", "2",
                                        "--net", spec, "--json"]))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --net {spec!r}: ")
        assert "beyond the float range" in captured.err

    def test_elastic_with_resume_exits_2_naming_both_flags(self, tmp_path,
                                                           capsys):
        """The elastic supervisor cannot resume; it used to drop --resume
        silently and train from scratch."""
        rc = main(self._args(tmp_path, ["--nodes", "2", "--elastic",
                                        "--resume", str(tmp_path)]))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--elastic" in err and "--resume" in err


class TestFaultExitCodes:
    _args = TestMain._args

    def test_fail_fast_collective_fault_exits_3(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--nodes", "4", "--faults",
            "drop=0.9,retries=1,policy=fail-fast,seed=5"]))
        assert rc == 3
        err = capsys.readouterr().err
        assert "collective fault killed training" in err
        assert "collective=" in err and "rank=" in err and "epoch=" in err

    def test_unrecovered_rank_loss_exits_3(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--nodes", "4", "--faults", "rankloss=2:2"]))
        assert rc == 3
        err = capsys.readouterr().err
        assert "rank loss killed training" in err
        assert "rank=2" in err and "epoch=2" in err

    def test_rank_loss_past_restart_budget_exits_3(self, tmp_path, capsys):
        # Two deaths, budget for one: the supervisor recovers the first
        # and surfaces the second with the same exit code as non-elastic.
        rc = main(self._args(tmp_path, [
            "--nodes", "4", "--max-epochs", "4", "--elastic",
            "--max-restarts", "1",
            "--faults", "rankloss=2:2,rankloss=1:3"]))
        assert rc == 3
        assert "rank loss killed training" in capsys.readouterr().err


class TestElasticCli:
    _args = TestMain._args

    def test_elastic_recovers_and_reports(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--nodes", "4", "--max-epochs", "4", "--elastic", "--json",
            "--faults", "rankloss=2:2"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["restarts"] == 1
        assert row["world_lineage"] == [4, 3]
        assert row["recovery_hours"] > 0
        (shrink,) = row["decisions"]
        assert (shrink["mechanism"], shrink["at"]) == ("elastic", 2)
        assert shrink["choice"] == "shrink"
        assert shrink["inputs"]["rank"] == 2

    def test_elastic_text_output_narrates_recovery(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--nodes", "4", "--max-epochs", "4", "--elastic",
            "--faults", "rankloss=2:2"]))
        assert rc == 0
        out = capsys.readouterr().out
        assert "elastic : max_restarts=1 regrow=off" in out
        assert "decision: elastic at 2: shrink over abort {" in out

    def test_regrow_flag_readmits_rank(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--nodes", "4", "--max-epochs", "4", "--elastic",
            "--allow-regrow", "--json", "--faults", "rankloss=2:2"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["world_lineage"] == [4, 3, 4]
        actions = [e["choice"] for e in row["decisions"]]
        assert actions == ["shrink", "regrow"]

    def test_elastic_without_faults_is_transparent(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, ["--nodes", "2", "--elastic",
                                        "--json"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["restarts"] == 0 and row["world_lineage"] == [2]
        assert "decisions" not in row

    def test_checkpoint_keep_flag_prunes(self, tmp_path, capsys):
        from repro.training.checkpoint import list_checkpoints
        ckpt = tmp_path / "ckpts"
        rc = main(self._args(tmp_path, [
            "--max-epochs", "3", "--checkpoint-dir", str(ckpt),
            "--checkpoint-keep", "1", "--json"]))
        assert rc == 0
        assert [p.name for _, p in list_checkpoints(ckpt)] == ["epoch-0003"]

    def test_checkpoint_keep_zero_keeps_all(self, tmp_path, capsys):
        from repro.training.checkpoint import list_checkpoints
        ckpt = tmp_path / "ckpts"
        rc = main(self._args(tmp_path, [
            "--max-epochs", "3", "--checkpoint-dir", str(ckpt),
            "--checkpoint-keep", "0", "--json"]))
        assert rc == 0
        assert [p.name for _, p in list_checkpoints(ckpt)] == [
            "epoch-0001", "epoch-0002", "epoch-0003"]


class TestCollectiveCli:
    _args = TestMain._args

    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.net is None
        assert args.collective == "flat"

    def test_unknown_collective_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--collective", "tree"])

    def test_hier_run_reports_hop_telemetry(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--nodes", "4", "--net", "rpn=2", "--collective", "hier",
            "--json"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["hier_steps"] > 0
        assert "intra" in row["comm_by_hop"]
        assert "inter" in row["comm_by_hop"]

    def test_auto_collective_runs(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--nodes", "4", "--net", "rpn=2,inter=5e-6:1.25e-10",
            "--collective", "auto", "--json"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert "hier" in row["method"]
        # The closed-form pick is a decision, reported without --elastic.
        (resolve,) = row["decisions"]
        assert resolve["mechanism"] == "drs.resolve"
        assert resolve["choice"] == "hierarchical"
        assert resolve["inputs"]["world"] == 4

    def test_net_text_output_describes_topology(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--nodes", "2", "--net", "rpn=2", "--collective", "hier"]))
        assert rc == 0
        out = capsys.readouterr().out
        assert "network : rpn=2" in out
        assert "collective=hier" in out

    def test_flat_run_keeps_row_shape(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, ["--json"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert "hier_steps" not in row
        assert "comm_by_hop" not in row

    def test_bad_net_spec_exits_2_with_diagnosis(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, ["--net", "frobnicate=1"]))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "frobnicate" in err

    def test_duplicate_net_key_exits_2(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, ["--net", "rpn=2,rpn=4"]))
        assert rc == 2
        assert "duplicate --net key 'rpn'" in capsys.readouterr().err

    def test_hier_with_faults_and_compression(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--strategy", "DRS+1-bit+RP+SS", "--nodes", "4",
            "--net", "rpn=2", "--collective", "hier", "--json",
            "--faults", "drop=0.2,seed=5"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["comm_retries"] > 0

    def test_hier_elastic_recovers(self, tmp_path, capsys):
        rc = main(self._args(tmp_path, [
            "--nodes", "4", "--max-epochs", "4", "--elastic", "--json",
            "--net", "rpn=2", "--collective", "hier",
            "--faults", "rankloss=2:2"]))
        assert rc == 0
        row = json.loads(capsys.readouterr().out)
        assert row["restarts"] == 1
        assert row["world_lineage"] == [4, 3]


class TestEvalKnobs:
    def _args(self, tmp_path, extra=()):
        store = make_tiny_kg()
        path = str(tmp_path / "kg.npz")
        save_store(store, path)
        return ["--dataset-file", path, "--dim", "8", "--batch-size", "128",
                "--max-epochs", "2", "--patience", "5", "--warmup", "0",
                *extra]

    def test_json_row_is_a_function_of_seed_and_plan(self, tmp_path,
                                                      capsys):
        """No wall-clock field: two identical runs print the same row."""
        rows = []
        for _ in range(2):
            assert main(self._args(tmp_path, ["--json"])) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]
        row = json.loads(rows[0])
        assert "eval_seconds" not in row
        assert "eval_queries_per_sec" not in row

    def test_eval_chunk_flag_is_gone(self, tmp_path, capsys):
        """Every block is ``(batch, n_entities)`` whatever the chunk, so
        there is no chunk knob to set."""
        with pytest.raises(SystemExit) as info:
            main(self._args(tmp_path, ["--eval-chunk-entities", "7"]))
        assert info.value.code == 2
        assert ("unrecognized arguments: --eval-chunk-entities"
                in capsys.readouterr().err)


@pytest.fixture(scope="module")
def served_checkpoint(tmp_path_factory):
    """A tiny trained checkpoint plus its dataset file, made via the
    training CLI so the serve CLI is tested end to end."""
    root = tmp_path_factory.mktemp("serve-cli")
    store = make_tiny_kg()
    dataset_file = str(root / "kg.npz")
    save_store(store, dataset_file)
    ckpt_dir = str(root / "ckpts")
    rc = main(["--dataset-file", dataset_file, "--dim", "8",
               "--batch-size", "128", "--max-epochs", "2", "--patience", "5",
               "--warmup", "0", "--checkpoint-dir", ckpt_dir, "--json"])
    assert rc == 0
    return ckpt_dir, dataset_file


class TestServeCli:
    def test_serve_defaults(self):
        args = build_parser("serve").parse_args(["--checkpoint", "x"])
        assert not hasattr(args, "model")
        assert args.topk == 10
        assert args.cache_capacity == 4096

    def test_serve_queries_text(self, served_checkpoint, capsys):
        ckpt, dataset_file = served_checkpoint
        rc = main(["serve", "--checkpoint", ckpt,
                   "--dataset-file", dataset_file,
                   "--query", "3,1", "--query-heads", "4,2",
                   "--nearest", "7", "--topk", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving :" in out
        assert "top-5 tails of (3, 1, ?)" in out
        assert "top-5 heads of (?, 2, 4)" in out
        assert "5 nearest neighbors of entity 7" in out

    def test_serve_json_with_simulation(self, served_checkpoint, capsys):
        ckpt, dataset_file = served_checkpoint
        rc = main(["serve", "--checkpoint", ckpt,
                   "--dataset-file", dataset_file, "--query", "3,1",
                   "--simulate", "300", "--batch-size", "32", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["store"]["model"] == "ComplEx"
        assert len(out["answers"]) == 1
        answer = out["answers"][0]
        assert len(answer["entities"]) == 10
        assert answer["scores"] == sorted(answer["scores"], reverse=True)
        telemetry = out["telemetry"]
        assert telemetry["n_queries"] == 301  # 300 replayed + 1 direct
        assert 0 < telemetry["window_p50_ms"] <= telemetry["window_p99_ms"]
        assert telemetry["cache_hit_rate"] > 0

    def test_serve_json_reports_a_reload_without_resilience(
            self, served_checkpoint, capsys):
        ckpt, dataset_file = served_checkpoint
        (_, first), _ = list_checkpoints(ckpt)
        rc = main(["serve", "--checkpoint", str(first),
                   "--dataset-file", dataset_file, "--simulate", "200",
                   "--reload", ckpt, "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reload"]["swapped"] is True
        telemetry = out["telemetry"]
        assert "resilience" not in telemetry
        assert telemetry["decisions"] == [{
            "mechanism": "reload", "at": 100, "choice": "swap",
            "alternative": "keep",
            "inputs": {"new_epoch": 2, "old_epoch": 1}}]
        # One replay spans the swap: the wall fields count every query the
        # counters do, not only the post-reload half.
        assert telemetry["n_queries"] == 200
        assert (telemetry["wall_queries_per_sec"] * telemetry["wall_seconds"]
                == pytest.approx(200))
        assert telemetry["errors"] == 0

    def test_export_then_serve_binary_partial_pool(self, served_checkpoint,
                                                   tmp_path, capsys):
        """export-binary, then a resilient binary-tier replay whose pool
        holds a quarter of the entities: stage 1 really prunes."""
        ckpt, dataset_file = served_checkpoint
        ckpt = shutil.copytree(ckpt, tmp_path / "ckpts")
        assert main(["export-binary", "--checkpoint", str(ckpt)]) == 0
        n_entities = make_tiny_kg().n_entities
        capsys.readouterr()
        rc = main(["serve", "--checkpoint", str(ckpt),
                   "--dataset-file", dataset_file, "--tier", "binary",
                   "--rerank-k", str(n_entities // 4), "--resilience",
                   "--simulate", "300", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["store"]["filtered"] is True
        telemetry = out["telemetry"]
        assert telemetry["n_queries"] == 300
        assert telemetry["errors"] == 0
        assert telemetry["resilience"]["shed_total"] == 0
        assert telemetry["by_tier"]["binary"] > 0

    def test_serve_no_filter_skips_dataset(self, served_checkpoint, capsys):
        ckpt, _ = served_checkpoint
        rc = main(["serve", "--checkpoint", ckpt, "--no-filter",
                   "--query", "0,0", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["store"]["filtered"] is False

    def test_non_finite_serve_fault_exits_2(self, served_checkpoint, capsys):
        ckpt, _ = served_checkpoint
        rc = main(["serve", "--checkpoint", ckpt, "--no-filter",
                   "--serve-faults", "spike_ms=inf", "--simulate", "10"])
        assert rc == 2
        assert ("error: bad --serve-faults spec 'spike_ms=inf': spike_ms "
                "must be finite" in capsys.readouterr().err)

    def test_reload_without_simulate_exits_2(self, tmp_path, capsys):
        """--reload only acts inside a replay; alone it is refused before
        the (here missing) checkpoint is opened."""
        rc = main(["serve", "--checkpoint", str(tmp_path / "nope"),
                   "--no-filter", "--reload", str(tmp_path / "other")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --reload ")
        assert "needs --simulate" in err and "cannot serve" not in err

    def test_negative_simulate_exits_2(self, tmp_path, capsys):
        rc = main(["serve", "--checkpoint", str(tmp_path / "nope"),
                   "--no-filter", "--simulate", "-5"])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: --simulate must be >= 0, got -5\n"

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = main(["serve", "--checkpoint", str(tmp_path / "nope"),
                   "--no-filter"])
        assert rc == 2
        assert "cannot serve" in capsys.readouterr().err

    def test_wrong_model_name_exits_2(self, served_checkpoint, tmp_path,
                                      capsys):
        """A snapshot whose manifest names DistMult is refused naming the
        one model there is: serving and resuming it both exit 2."""
        ckpt, dataset_file = served_checkpoint
        snap = tmp_path / "distmult"
        shutil.copytree(latest_checkpoint(ckpt), snap)
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["model"] = "distmult"
        (snap / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["serve", "--checkpoint", str(snap), "--no-filter"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot serve" in err and "expected 'complex'" in err
        rc = main(["--dataset-file", dataset_file, "--dim", "8",
                   "--batch-size", "128", "--max-epochs", "3",
                   "--resume", str(snap), "--json"])
        assert rc == 2
        assert "expected 'complex'" in capsys.readouterr().err

    def test_model_option_is_gone(self, served_checkpoint, capsys):
        """ComplEx is the one architecture: no option names it."""
        ckpt, _ = served_checkpoint
        with pytest.raises(SystemExit) as info:
            main(["serve", "--checkpoint", ckpt, "--model", "complex",
                  "--no-filter"])
        assert info.value.code == 2
        assert ("unrecognized arguments: --model complex"
                in capsys.readouterr().err)

    def test_chunk_flag_is_gone(self, served_checkpoint, capsys):
        ckpt, _ = served_checkpoint
        with pytest.raises(SystemExit) as info:
            main(["serve", "--checkpoint", ckpt, "--no-filter",
                  "--chunk-entities", "7", "--query", "3,1"])
        assert info.value.code == 2
        assert ("unrecognized arguments: --chunk-entities"
                in capsys.readouterr().err)

    def test_malformed_query_exits_2(self, served_checkpoint, capsys):
        ckpt, _ = served_checkpoint
        rc = main(["serve", "--checkpoint", ckpt, "--no-filter",
                   "--query", "3:1"])
        assert rc == 2
        assert "bad --query" in capsys.readouterr().err

    def test_malformed_nearest_exits_2(self, served_checkpoint, capsys):
        ckpt, _ = served_checkpoint
        rc = main(["serve", "--checkpoint", ckpt, "--no-filter",
                   "--nearest", "2.6"])
        assert rc == 2
        assert "bad --nearest '2.6'" in capsys.readouterr().err

    def test_out_of_range_id_exits_2(self, served_checkpoint, capsys):
        ckpt, _ = served_checkpoint
        rc = main(["serve", "--checkpoint", ckpt, "--no-filter",
                   "--query", "99999,0"])
        assert rc == 2
        assert "entity id" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--query", "3,1"),
                                             ("--nearest", "3")])
    def test_topk_below_one_exits_2_for_every_query_kind(
            self, served_checkpoint, capsys, flag, value):
        ckpt, _ = served_checkpoint
        rc = main(["serve", "--checkpoint", ckpt, "--no-filter",
                   flag, value, "--topk", "-1"])
        assert rc == 2
        assert "k must be >= 1, got -1" in capsys.readouterr().err


TRAIN_SMALL = ["--dim", "8", "--batch-size", "128", "--max-epochs", "1",
               "--warmup", "0"]


@pytest.mark.parametrize("argv, culprit", [
    (["--scale", "0", *TRAIN_SMALL], "scale"),
    (["--dataset-file", "{kg}", *TRAIN_SMALL, "--nodes", "0"], "nodes"),
    (["--dataset-file", "{kg}", *TRAIN_SMALL, "--dim", "0"], "dim"),
    (["--dataset-file", "{missing}", *TRAIN_SMALL], "{missing}"),
    (["serve", "--checkpoint", "{ckpt}", "--dataset-file", "{missing}",
      "--query", "0,0"], "{missing}"),
    (["serve", "--checkpoint", "{ckpt}", "--dataset-file", "{garbage}",
      "--query", "0,0"], "{garbage}"),
], ids=["train-scale", "train-nodes", "train-dim", "train-missing-file",
        "serve-missing-file", "serve-garbage-file"])
def test_bad_input_exits_2_naming_the_culprit(served_checkpoint, tmp_path,
                                              capsys, argv, culprit):
    """Bad input is one `error:` line and exit 2, never a traceback."""
    ckpt, dataset_file = served_checkpoint
    (tmp_path / "garbage.npz").write_bytes(b"not a dataset")
    paths = {"kg": dataset_file, "ckpt": ckpt,
             "missing": str(tmp_path / "missing.npz"),
             "garbage": str(tmp_path / "garbage.npz")}
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert culprit.format(**paths) in err


class TestDatasetFile:
    def test_openke_directory_trains_then_serves(self, tmp_path, capsys):
        """An OpenKE directory is a dataset for both commands, and serves
        the same filtered answers as the same graph saved as a store."""
        store = make_tiny_kg()
        openke, npz = str(tmp_path / "openke"), str(tmp_path / "kg.npz")
        save_openke_dir(store, openke)
        save_store(store, npz)
        ckpt = str(tmp_path / "ckpts")
        rc = main(["--dataset-file", openke, "--dim", "8", "--batch-size",
                   "128", "--max-epochs", "2", "--patience", "5",
                   "--warmup", "0", "--nodes", "2", "--checkpoint-dir", ckpt,
                   "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["N_epochs"] == 2
        answers = []
        for dataset in (openke, npz):
            rc = main(["serve", "--checkpoint", ckpt, "--dataset-file",
                       dataset, "--query", "3,1", "--json"])
            assert rc == 0
            out = json.loads(capsys.readouterr().out)
            assert out["store"]["filtered"] is True
            answers.append(out["answers"])
        assert len(answers[0][0]["entities"]) == 10
        assert answers[0] == answers[1]

    def test_truncated_openke_directory_exits_2(self, tmp_path, capsys):
        openke = tmp_path / "openke"
        save_openke_dir(make_tiny_kg(), str(openke))
        train = openke / "train2id.txt"
        train.write_text("".join(train.read_text().splitlines(True)[:10]))
        rc = main(["--dataset-file", str(openke), *TRAIN_SMALL])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(train) in err


class TestOneParserFamily:
    """Each option is declared once and each exit code has one path."""

    tree = ast.parse(Path(cli.__file__).read_text())

    def test_each_option_is_declared_once(self):
        calls = [node for node in ast.walk(self.tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "add_argument"]
        options = Counter(arg.value for call in calls for arg in call.args
                          if isinstance(arg, ast.Constant))
        assert len(calls) == 42
        # Two different options share a name: the training mini-batch and
        # the serve replay's micro-batch window.
        assert {opt for opt, n in options.items() if n > 1} == {
            "--batch-size"}

    def test_one_exit_2_and_one_exit_3(self):
        codes = Counter(node.value.value for node in ast.walk(self.tree)
                        if isinstance(node, ast.Return)
                        and isinstance(node.value, ast.Constant))
        assert codes[2] == 1
        assert codes[3] == 1

    @pytest.mark.parametrize("command", ["train", "serve", "export-binary"])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main(([] if command == "train" else [command]) + ["--help"])
        assert info.value.code == 0
        assert "--json" in capsys.readouterr().out
