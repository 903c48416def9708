"""Experiment harness artifacts, sweep resumability, reports, and the CLI."""

from __future__ import annotations

import csv
import json
import math
import shutil
import types

import numpy as np
import pytest

from qnlp import experiment, training
from qnlp.circuit import CircuitAnsatz, CircuitAnsatzConfig, circuit_from_dict
from qnlp.cli import main
from qnlp.corpus import default_lexicon, generate_mc
from qnlp.diagram import Diagram, Port, Wire, diagram_from_dict, diagram_to_json
from qnlp.errors import ConfigError, Error
from qnlp.experiment import (
    RESULTS_ENV,
    EmptyResults,
    ExperimentConfig,
    load_config,
    report,
    results_root,
    run_experiment,
    run_one,
    run_sweep,
    sweep_cells,
)
from qnlp.pregroup import parse_sentence
from qnlp.rewrite import RewriteScheme
from qnlp.tensornet import TensorAnsatz, TensorAnsatzConfig
from qnlp.training import AdaptiveGDConfig, SPSAConfig, TrainConfig


def small_cfg(**kw) -> ExperimentConfig:
    base = dict(
        backend="circuit",
        ansatz="iqp",
        scheme="re_norm_cur_norm",
        epochs=3,
        split_sizes=(10, 4, 4),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self):
        cfg = small_cfg(seeds=(0, 1))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"backend": "circuit", "ansatz": "iqp", "shots": 100})

    def test_required_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"backend": "circuit"})

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            small_cfg(backend="quantum")
        with pytest.raises(ConfigError):
            small_cfg(ansatz="tensor")  # tensor ansatz on circuit backend
        with pytest.raises(ConfigError):
            small_cfg(scheme="renorm")
        with pytest.raises(ConfigError):
            small_cfg(optimizer="sgd")
        with pytest.raises(ConfigError):
            small_cfg(epochs=0)
        with pytest.raises(ConfigError):
            small_cfg(seeds=())

    @pytest.mark.parametrize("key, value", [
        ("seeds", (True,)),
        ("seeds", (0, False)),
        ("seeds", (1.0,)),
        ("split_sizes", (70.0, 30, 30)),
        ("split_sizes", (70, True, 30)),
    ])
    def test_seeds_and_split_sizes_must_be_ints(self, key, value):
        # ``from_dict`` rejects these, so a run of such a config could not
        # read its own summary back
        with pytest.raises(ConfigError, match=f"{key} must be a list of integers"):
            small_cfg(**{key: value})

    def test_list_fields_read_back_as_tuples(self):
        cfg = small_cfg(seeds=[2, 0], split_sizes=[10, 4, 4])
        assert (cfg.seeds, cfg.split_sizes) == ((2, 0), (10, 4, 4))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_run_ids_are_pinned(self):
        # a run id names an existing results directory: its text must not move
        cfgs = (ExperimentConfig("circuit", "iqp"),
                small_cfg(ansatz="sim14", scheme="re", n_layers=2, n_single_qubit_params=1,
                          seeds=(0, 1, 2), epochs=5),
                ExperimentConfig("tensor", "mps", scheme="re", bond_dim=3, optimizer="spsa",
                                 dataset_dir="data/mc", dataset_seed=4))
        assert [cfg.run_id(7) for cfg in cfgs] == [
            "circuit_iqp_re_norm_cur_norm_L1_r3_gen0-70-30-30_4ef5024306_s7",
            "circuit_sim14_re_L2_r1_gen0-10-4-4_323781dc69_s7",
            "tensor_mps_re_L1_r3_mc_6fe75830f1_s7"]
        assert all(type(v) is list for cfg in cfgs for k, v in cfg.to_dict().items()
                   if k in ("seeds", "split_sizes"))

    def test_run_id_distinguishes_runs(self):
        a = small_cfg().run_id(0)
        b = small_cfg().run_id(1)
        c = small_cfg(ansatz="sim14").run_id(0)
        assert len({a, b, c}) == 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 300),
            ("optimizer", "spsa"),
            ("d_n", 3),
            ("d_s", 3),
            ("bond_dim", 8),
            ("max_legs", 3),
        ],
    )
    def test_run_id_covers_every_field(self, field, value):
        base = small_cfg(backend="tensor", ansatz="mps", scheme="re")
        assert base.run_id(0) != small_cfg(
            backend="tensor", ansatz="mps", scheme="re", **{field: value}
        ).run_id(0)

    def test_run_id_separates_dataset_dirs_with_one_basename(self, tmp_path):
        a = small_cfg(dataset_dir=str(tmp_path / "a" / "data"))
        b = small_cfg(dataset_dir=str(tmp_path / "b" / "data"))
        assert a.dataset_tag() == b.dataset_tag() == "data"
        assert a.run_id(0) != b.run_id(0)

    def test_typed_configs(self):
        circuit = small_cfg(n_layers=2, n_single_qubit_params=1, seeds=(4,))
        assert circuit.rewrite_scheme() is RewriteScheme.RE_NORM_CUR_NORM
        assert circuit.ansatz_config() == CircuitAnsatzConfig(CircuitAnsatz.IQP, 2, 1)
        assert circuit.train_config(4) == TrainConfig(3, 4, SPSAConfig())
        tensor = small_cfg(backend="tensor", ansatz="mps", d_n=3, bond_dim=4)
        assert tensor.ansatz_config() == TensorAnsatzConfig(TensorAnsatz.MPS, 3, 2, 4, 2)
        assert tensor.train_config(0).optimizer == AdaptiveGDConfig()
        spsa = small_cfg(backend="tensor", ansatz="tensor", optimizer="spsa")
        assert spsa.train_config(0).optimizer == SPSAConfig()

    def test_bad_tensor_dimension_fails_at_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backend": "tensor", "ansatz": "tensor", "d_n": 1}))
        with pytest.raises(ConfigError, match="wire dimensions"):
            load_config(path)

    def test_tensor_sentence_dimension_fails_at_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backend": "tensor", "ansatz": "mps", "d_s": 3}))
        with pytest.raises(ConfigError, match="d_s"):
            load_config(path)
        # circuits ignore d_s, and the config alone still takes any value
        path.write_text(json.dumps({"backend": "circuit", "ansatz": "iqp", "d_s": 3}))
        assert load_config(path).d_s == 3
        assert small_cfg(backend="tensor", ansatz="mps", d_s=3).d_s == 3

    def test_run_id_ignores_seed_list(self):
        assert small_cfg(seeds=(0,)).run_id(0) == small_cfg(seeds=(0, 1, 2)).run_id(0)

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "none.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(bad)
        lst = tmp_path / "list.json"
        lst.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(lst)

    def test_results_root_resolution(self, monkeypatch, tmp_path):
        assert results_root("/x/y") == __import__("pathlib").Path("/x/y")
        monkeypatch.setenv(RESULTS_ENV, str(tmp_path / "env"))
        assert results_root() == tmp_path / "env"
        monkeypatch.delenv(RESULTS_ENV)
        assert str(results_root()) == "results"


class TestRunOne:
    def test_artifacts_on_disk(self, tmp_path):
        cfg = small_cfg()
        summary = run_one(cfg, 0, root=tmp_path)
        assert summary["status"] == "ok"
        assert summary["epochs"] == 3
        run_dir = tmp_path / cfg.run_id(0)
        for name in ("config.json", "metrics.csv", "checkpoint.json", "summary.json"):
            assert (run_dir / name).exists()
        lines = (run_dir / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,train_acc,val_acc"
        assert len(lines) == 4

    def test_dataset_dir_edited_between_runs_is_read_afresh(self, tmp_path, monkeypatch):
        # one process, one dataset path: the run after the edit must train
        # on the edited sentences, though the parsed corpus of the run
        # before it is still held
        data = tmp_path / "data"
        assert main(["dataset", "--seed", "1", "--sizes", "10", "4", "4",
                     "--out", str(data)]) == 0
        cfg = small_cfg(dataset_dir=str(data), epochs=2)

        def params(root):
            run_one(cfg, 0, root=tmp_path / root)
            path = tmp_path / root / cfg.run_id(0) / "checkpoint.json"
            return json.loads(path.read_text())["params"]

        before = params("before")
        # a repeated sentence: the same words in the same order of first use
        first = (data / "train.tsv").read_text().splitlines()[0]
        with (data / "train.tsv").open("a", encoding="utf-8") as fh:
            fh.write(first + "\n")
        after = params("after")
        monkeypatch.setattr(training, "_front_end", None)  # as in a fresh process
        assert after == params("fresh") != before

    def test_tensor_output_arity_fails_at_compile_stage(self, tmp_path):
        # a 3-dimensional sentence wire: the groups compile at build
        cfg = small_cfg(backend="tensor", ansatz="tensor", d_s=3, epochs=1)
        with pytest.raises(Error, match="^stage compile: expected a 2-dimensional sentence "
                                        "vector, got 3$"):
            run_one(cfg, 0, root=tmp_path)

    def test_resume_returns_stored_summary(self, tmp_path):
        cfg = small_cfg()
        run_one(cfg, 0, root=tmp_path)
        path = tmp_path / cfg.run_id(0) / "summary.json"
        stored = json.loads(path.read_text())
        stored["note"] = "already done"
        path.write_text(json.dumps(stored))
        again = run_one(cfg, 0, root=tmp_path)
        assert again["note"] == "already done"

    @pytest.mark.parametrize("text", ['{"run_id": "x", "sta', "[]", '{"status": 1}'],
                             ids=("truncated", "list", "number-status"))
    def test_unreadable_summary_is_rerun(self, tmp_path, text):
        cfg = small_cfg(epochs=1)
        run_dir = tmp_path / cfg.run_id(0)
        run_dir.mkdir()
        (run_dir / "summary.json").write_text(text)
        summary = run_one(cfg, 0, root=tmp_path)
        assert summary["status"] == "ok"
        assert json.loads((run_dir / "summary.json").read_text()) == summary
        assert sorted(p.name for p in run_dir.glob("*summary*")) == ["summary.json"]

    def test_summary_with_mistyped_budget_is_rerun(self, tmp_path):
        # a string budget cannot be compared with this call's
        cfg = small_cfg(epochs=1)
        run_dir = tmp_path / cfg.run_id(0)
        run_dir.mkdir()
        (run_dir / "summary.json").write_text(json.dumps(
            {"run_id": cfg.run_id(0), "status": "aborted", "config": {}, "budget_seconds": "1"}))
        summary = run_one(cfg, 0, root=tmp_path, budget_seconds=2.0)
        assert summary["status"] == "ok" and summary["budget_seconds"] == 2.0
        assert json.loads((run_dir / "summary.json").read_text()) == summary

    @pytest.mark.parametrize("test_acc", [None, True, "1.0"], ids=("null", "bool", "string"))
    def test_summary_with_mistyped_test_acc_is_rerun(self, tmp_path, test_acc):
        # report averages test_acc as a number
        cfg = small_cfg(epochs=1)
        path = tmp_path / cfg.run_id(0) / "summary.json"
        run_one(cfg, 0, root=tmp_path)
        stored = json.loads(path.read_text())
        path.write_text(json.dumps({**stored, "test_acc": test_acc}))
        summary = run_one(cfg, 0, root=tmp_path)
        assert summary["status"] == "ok" and type(summary["test_acc"]) is float
        assert json.loads(path.read_text()) == summary

    def test_summary_with_unparsable_config_is_rerun(self, tmp_path):
        # report reads every circuit summary's config back as a config
        cfg = small_cfg(epochs=1)
        path = tmp_path / cfg.run_id(0) / "summary.json"
        run_one(cfg, 0, root=tmp_path)
        stored = json.loads(path.read_text())
        path.write_text(json.dumps({**stored, "config": {**stored["config"], "n_layers": "x"}}))
        summary = run_one(cfg, 0, root=tmp_path)
        assert summary["status"] == "ok" and summary["config"] == stored["config"]
        assert json.loads(path.read_text()) == summary

    def test_another_runs_summary_is_rerun(self, tmp_path):
        # a finished iqp run's directory copied to a sim14 cell's name
        iqp, sim14 = small_cfg(epochs=1), small_cfg(epochs=1, ansatz="sim14")
        run_one(iqp, 0, root=tmp_path)
        shutil.copytree(tmp_path / iqp.run_id(0), tmp_path / sim14.run_id(0))
        summary = run_one(sim14, 0, root=tmp_path)
        assert (summary["run_id"], summary["config"]["ansatz"]) == (sim14.run_id(0), "sim14")
        assert json.loads((tmp_path / sim14.run_id(0) / "summary.json").read_text()) == summary

    def test_summary_with_another_config_is_rerun(self, tmp_path):
        # the cell's own run id over a config that is not the cell's
        cfg = small_cfg(epochs=1)
        path = tmp_path / cfg.run_id(0) / "summary.json"
        run_one(cfg, 0, root=tmp_path)
        stored = json.loads(path.read_text())
        path.write_text(json.dumps({**stored, "note": "stale",
                                    "config": {**stored["config"], "n_layers": 2}}))
        summary = run_one(cfg, 0, root=tmp_path)
        assert summary["note"] == "" and summary["config"] == stored["config"]

    def test_failed_summary_write_leaves_run_incomplete(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=1)
        real_summarize = experiment.summarize

        def unwritable(history, last_k):
            # json.dumps fails on this value, before the summary is written
            return {**real_summarize(history, last_k), "zz_unwritable": object()}

        monkeypatch.setattr(experiment, "summarize", unwritable)
        with pytest.raises(TypeError):
            run_one(cfg, 0, root=tmp_path)
        run_dir = tmp_path / cfg.run_id(0)
        assert run_dir.is_dir()
        assert sorted(p.name for p in run_dir.glob("*summary*")) == []

        monkeypatch.setattr(experiment, "summarize", real_summarize)
        fits = []
        real_fit = experiment.fit
        monkeypatch.setattr(
            experiment, "fit", lambda *a, **k: fits.append(1) or real_fit(*a, **k)
        )
        summary = run_one(cfg, 0, root=tmp_path)
        assert fits == [1]
        assert summary["status"] == "ok"
        assert json.loads((run_dir / "summary.json").read_text()) == summary

    def test_failed_rename_leaves_no_summary_file(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=1)

        def no_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(experiment.os, "replace", no_rename)
        with pytest.raises(OSError, match="rename failed"):
            run_one(cfg, 0, root=tmp_path)
        run_dir = tmp_path / cfg.run_id(0)
        assert (run_dir / "checkpoint.json").exists()
        assert sorted(p.name for p in run_dir.glob("*summary*")) == []

    def test_run_files_are_single_line_json(self, tmp_path):
        cfg = small_cfg(epochs=1)
        summary = run_one(cfg, 0, root=tmp_path)
        run_dir = tmp_path / cfg.run_id(0)
        for name in ("config.json", "checkpoint.json", "summary.json"):
            text = (run_dir / name).read_text(encoding="utf-8")
            assert text.endswith("}\n") and text.count("\n") == 1, name
        assert json.loads((run_dir / "summary.json").read_text()) == summary
        assert json.loads((run_dir / "config.json").read_text()) == summary["config"]

    def test_error_summary_is_rerun(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=1)
        real_fit = experiment.fit

        def broken(*args, **kwargs):
            raise RuntimeError("transient failure")

        monkeypatch.setattr(experiment, "fit", broken)
        (first,) = run_sweep([cfg], root=tmp_path, workers=1)
        assert first["status"] == "error"
        monkeypatch.setattr(experiment, "fit", real_fit)
        (again,) = run_sweep([cfg], root=tmp_path, workers=1)
        assert again["status"] == "ok"
        assert json.loads((tmp_path / cfg.run_id(0) / "summary.json").read_text()) == again

    def test_aborted_summary_is_final(self, tmp_path):
        # final under the budget it was recorded with; rerun with none, or
        # with a larger one
        cfg = small_cfg(epochs=1)
        first = run_one(cfg, 0, root=tmp_path, budget_seconds=0.0)
        assert (first["status"], first["budget_seconds"]) == ("aborted", 0.0)
        stored = run_one(cfg, 0, root=tmp_path, budget_seconds=0.0)
        assert json.dumps(stored, sort_keys=True) == json.dumps(first, sort_keys=True)
        assert run_one(cfg, 0, root=tmp_path)["status"] == "ok"
        assert run_one(cfg, 1, root=tmp_path, budget_seconds=0.0)["status"] == "aborted"
        again = run_one(cfg, 1, root=tmp_path, budget_seconds=3600.0)
        assert (again["status"], again["budget_seconds"]) == ("ok", 3600.0)

    def test_zero_parameter_cell_records_nan(self, tmp_path):
        cfg = small_cfg(n_layers=0, n_single_qubit_params=0)
        summary = run_one(cfg, 0, root=tmp_path)
        assert summary["status"] == "zero_params"
        assert math.isnan(summary["mean_val_acc"])
        assert math.isnan(summary["test_acc"])
        run_dir = tmp_path / cfg.run_id(0)
        assert (run_dir / "summary.json").exists()
        assert not (run_dir / "metrics.csv").exists()

    def test_zero_parameter_cell_records_its_wall_time(self, tmp_path, monkeypatch):
        # the cell loads its corpus and lays it out before the model has no
        # parameters; the summary records that time as ok and aborted runs do
        clock = iter(range(100, 200, 7))
        monkeypatch.setattr(experiment, "time",
                            types.SimpleNamespace(monotonic=lambda: float(next(clock))))
        summary = run_one(small_cfg(n_layers=0, n_single_qubit_params=0), 0, root=tmp_path)
        assert summary["status"] == "zero_params"
        assert summary["wall_seconds"] == 7.0

    def test_blown_budget_is_recorded_not_raised(self, tmp_path):
        summary = run_one(small_cfg(), 0, root=tmp_path, budget_seconds=0.0)
        assert summary["status"] == "aborted"
        assert math.isnan(summary["test_acc"])

    def test_tensor_backend_checkpoint(self, tmp_path):
        cfg = small_cfg(backend="tensor", ansatz="spider", scheme="re")
        summary = run_one(cfg, 0, root=tmp_path)
        assert summary["status"] == "ok"
        ckpt = json.loads((tmp_path / cfg.run_id(0) / "checkpoint.json").read_text())
        assert ckpt["kind"] == "tensor"
        assert all("|" in name for name in ckpt["params"])

    def test_run_experiment_covers_all_seeds(self, tmp_path):
        out = run_experiment(small_cfg(seeds=(0, 1)), root=tmp_path)
        assert [s["seed"] for s in out] == [0, 1]


class TestSweepAndReport:
    def test_grid_nan_cells_are_the_zero_param_cells(self, tmp_path):
        cells = sweep_cells(
            ansatze=("iqp", "sim15"),
            layer_range=(0, 1),
            rotation_range=(0, 1),
            epochs=2,
        )
        for i, cell in enumerate(cells):
            cells[i] = ExperimentConfig.from_dict(
                {**cell.to_dict(), "split_sizes": [10, 4, 4]}
            )
        summaries = run_sweep(cells, root=tmp_path, workers=1)
        assert len(summaries) == 8
        by_status = {s["run_id"]: s["status"] for s in summaries}
        for s in summaries:
            layers = s["config"]["n_layers"]
            rot = s["config"]["n_single_qubit_params"]
            want = "zero_params" if (layers, rot) == (0, 0) else "ok"
            assert s["status"] == want, s["run_id"]

        paths = report(root=tmp_path)
        grid = (tmp_path / "grid.csv").read_text().strip().splitlines()
        assert grid[0] == "scheme,dataset,optimizer,epochs,ansatz,n_layers,rot0,rot1"
        for line in grid[1:]:
            *_, layers, rot0, rot1 = line.split(",")
            if layers == "0":
                assert rot0 == "NaN"
                assert rot1 != "NaN"
            else:
                assert rot0 != "NaN"
        assert sorted(paths) == ["curves", "grid", "runs"]

    def test_grid_averages_ok_runs_only(self, tmp_path):
        # iqp/L1/r3: seed 0 ok and seed 1 aborted; sim15/L1/r3: its only
        # seed aborted; iqp/L0/r0: untrainable
        cfg = small_cfg(seeds=(0, 1))
        ok = run_one(cfg, 0, root=tmp_path)
        assert run_one(cfg, 1, root=tmp_path, budget_seconds=0.0)["status"] == "aborted"
        assert run_one(small_cfg(ansatz="sim15"), 0, root=tmp_path,
                       budget_seconds=0.0)["status"] == "aborted"
        zero = run_one(small_cfg(n_layers=0, n_single_qubit_params=0), 0, root=tmp_path)
        assert zero["status"] == "zero_params"
        report(root=tmp_path)
        with (tmp_path / "grid.csv").open(newline="") as fh:
            grid = {(r["ansatz"], r["n_layers"]): r for r in csv.DictReader(fh)}
        assert grid["iqp", "1"]["rot3"] == f"{ok['test_acc']:.6f}"
        assert grid["sim15", "1"]["rot3"] == "none_ok"
        assert grid["iqp", "0"]["rot0"] == "NaN"

    def test_grid_keeps_unlike_runs_apart(self, tmp_path):
        # two runs of one (ansatz, layers, rotations) cell that differ only
        # in epochs are two grid rows, not one mean
        for epochs in (2, 1):
            run_one(small_cfg(epochs=epochs), 0, root=tmp_path)
        report(root=tmp_path)
        with (tmp_path / "grid.csv").open(newline="") as fh:
            grid = list(csv.DictReader(fh))
        assert [(r["epochs"], r["ansatz"], r["n_layers"]) for r in grid] == [
            ("1", "iqp", "1"), ("2", "iqp", "1")]
        summaries = [json.loads(p.read_text()) for p in tmp_path.glob("*/summary.json")]
        acc = {s["config"]["epochs"]: s["test_acc"] for s in summaries}
        for r in grid:
            assert r["rot3"] == f"{acc[int(r['epochs'])]:.6f}"
            assert (r["scheme"], r["dataset"], r["optimizer"]) == (
                "re_norm_cur_norm", "gen0-10-4-4", "default")

    def test_sweep_resumes(self, tmp_path):
        cells = [small_cfg(epochs=1)]
        first = run_sweep(cells, root=tmp_path, workers=1)
        marker = tmp_path / cells[0].run_id(0) / "summary.json"
        stored = json.loads(marker.read_text())
        stored["note"] = "from first pass"
        marker.write_text(json.dumps(stored))
        second = run_sweep(cells, root=tmp_path, workers=1)
        assert second[0]["note"] == "from first pass"
        assert first[0]["status"] == "ok"

    def test_one_worker_sweep_generates_its_corpus_once(self, tmp_path, monkeypatch):
        made = []
        monkeypatch.setattr(experiment, "_generated", None)  # as in a fresh process
        monkeypatch.setattr(experiment, "generate_mc",
                            lambda *args: made.append(args) or generate_mc(*args))
        cells = [small_cfg(epochs=1), small_cfg(n_layers=2, epochs=1),
                 small_cfg(ansatz="sim15", n_single_qubit_params=1, epochs=1)]
        summaries = run_sweep(cells, root=tmp_path / "held", workers=1)
        assert [s["status"] for s in summaries] == ["ok"] * 3
        assert made == [(0, (10, 4, 4))]
        # the held corpus trains as a fresh one does
        monkeypatch.setattr(experiment, "_generated", None)
        monkeypatch.setattr(training, "_front_end", None)
        fresh = run_sweep(cells[2:], root=tmp_path / "fresh", workers=1)
        assert [{**s, "wall_seconds": 0} for s in fresh] == [{**summaries[2], "wall_seconds": 0}]
        run_sweep([small_cfg(dataset_seed=1, epochs=1)], root=tmp_path / "other", workers=1)
        assert made == [(0, (10, 4, 4))] * 2 + [(1, (10, 4, 4))]

    def test_pool_has_no_more_workers_than_jobs(self, tmp_path, monkeypatch):
        pools = []

        class Pool:  # records its size and runs the jobs in this process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", Pool)
        cells = [small_cfg(epochs=1), small_cfg(epochs=2)]
        summaries = run_sweep(cells, root=tmp_path / "two", workers=8)
        assert pools == [2]
        assert [s["status"] for s in summaries] == ["ok", "ok"]
        run_sweep(cells[:1], root=tmp_path / "one", workers=8)
        assert pools == [2]  # one job runs without a pool

    def test_report_empty_root(self, tmp_path):
        with pytest.raises(EmptyResults):
            report(root=tmp_path / "nothing")

    def test_curves_cover_every_epoch(self, tmp_path):
        run_one(small_cfg(), 0, root=tmp_path)
        report(root=tmp_path)
        lines = (tmp_path / "curves.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 4  # header + epochs x metrics


class TestCli:
    def test_parse_prints_reduction(self, capsys):
        assert main(["parse", "man cooks meal"]) == 0
        out = capsys.readouterr().out
        assert "cups" in out and "residual" in out

    def test_parse_json_output(self, capsys):
        assert main(["parse", "man cooks meal", "--json", "-"]) == 0
        d = diagram_from_dict(json.loads(capsys.readouterr().out))
        assert d.n_cups == 2

    def test_parse_unknown_word_is_pipeline_error(self, capsys):
        assert main(["parse", "man cooks qubits"]) == 3
        assert "error" in capsys.readouterr().err

    def test_rewrite_to_file(self, tmp_path):
        out = tmp_path / "d.json"
        code = main(
            ["rewrite", "--sentence", "man cooks meal", "--scheme", "re_norm_cur_norm", "-o", str(out)]
        )
        assert code == 0
        d = diagram_from_dict(json.loads(out.read_text()))
        assert d.n_cups == 0

    def test_compile_and_simulate(self, tmp_path, capsys):
        circ_path = tmp_path / "c.json"
        assert main(
            ["compile", "--sentence", "man cooks meal", "-o", str(circ_path)]
        ) == 0
        circ = circuit_from_dict(json.loads(circ_path.read_text()))
        assert circ.symbols

        assert main(["simulate", "--circuit", str(circ_path)]) == 0
        probs = json.loads(capsys.readouterr().out)["probs"]
        np.testing.assert_allclose(sum(probs), 1.0, atol=1e-9)

        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps({s.name: 0.3 for s in circ.symbols}))
        assert main(
            ["simulate", "--circuit", str(circ_path), "--params", str(params_path)]
        ) == 0

    def test_compile_tensor_backend(self, tmp_path):
        out = tmp_path / "net.json"
        code = main(
            [
                "compile", "--sentence", "man cooks meal", "--backend", "tensor",
                "--ansatz", "mps", "--scheme", "re", "-o", str(out),
            ]
        )
        assert code == 0
        assert "nodes" in json.loads(out.read_text())

    def test_compile_tensor_backend_with_circuit_ansatz(self, capsys):
        # the default --ansatz is iqp, which is no tensor ansatz
        assert main(["compile", "--sentence", "man cooks meal", "--backend", "tensor"]) == 2
        assert "not valid for backend 'tensor'" in capsys.readouterr().err

    def test_compile_negative_layers_is_config_error(self, capsys):
        assert main(["compile", "--sentence", "man cooks meal", "--layers", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_rewrite_diagram_missing_a_cup_leg(self, tmp_path, capsys):
        d = parse_sentence(["man", "cooks", "meal"], default_lexicon())
        wires = list(d.wires)
        w = next(i for i, wire in enumerate(wires) if wire.consumer == Port("cup", 1, 1))
        wires[w] = Wire(wires[w].stype, wires[w].producer, Port("out", 1, 0))
        path = tmp_path / "bad.json"
        path.write_text(diagram_to_json(Diagram(d.boxes, tuple(wires), 2, 0, 1)))
        assert main(["rewrite", "--diagram", str(path)]) == 3
        assert "cup 1 is missing a leg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["rewrite"], ["compile", "--backend", "tensor", "--ansatz", "tensor", "--scheme", "re"]],
        ids=["rewrite", "compile"],
    )
    def test_output_port_past_the_boundary(self, argv, output_past_boundary, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(diagram_to_json(output_past_boundary))
        assert main([*argv, "--diagram", str(path)]) == 3
        assert "wire 1 consumed by missing output 1" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, capsys):
        assert main(["simulate", "--circuit", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("flag, text", [
        ("rewrite --diagram", "{not json"),
        ("compile --diagram", '{"boxes": []}'),
        ("compile --diagram", '{"boxes": [{"name": "x", "dom": "n?", "cod": "n"}]}'),
        ("simulate --circuit", "[1, 2"),
        ("simulate --circuit", '{"n_qubits": 1, "gates": []}'),
        ("simulate --circuit",
         '{"n_qubits": 1, "gates": [{"kind": "rx", "qubits": [0], "param": "x"}],'
         ' "postselect": [], "outputs": [0], "symbols": []}'),
        ("simulate --params", '{"no bars": 0.1}'),
        ("simulate --params", '["half"]'),
        ("simulate --params", '{"man|n|0": "half"}'),
    ], ids=["diagram-not-json", "diagram-missing-key", "diagram-bad-type", "circuit-not-json",
            "circuit-missing-key", "circuit-bad-symbol", "params-bad-symbol",
            "params-list-not-numeric", "params-angle-not-numeric"])
    def test_malformed_file_is_config_error(self, flag, text, tmp_path, capsys):
        circ_path = tmp_path / "c.json"
        assert main(["compile", "--sentence", "man cooks meal", "-o", str(circ_path)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        command, option = flag.split()
        argv = [command, option, str(bad)]
        if option == "--params":
            argv[1:1] = ["--circuit", str(circ_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {bad}: ")

    def test_train_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "backend": "tensor",
                    "ansatz": "tensor",
                    "scheme": "re",
                    "epochs": 2,
                    "split_sizes": [10, 4, 4],
                }
            )
        )
        results = tmp_path / "results"
        code = main(["train", "--config", str(cfg_path), "--results", str(results)])
        assert code == 0
        assert "status=ok" in capsys.readouterr().out
        assert main(["report", "--results", str(results)]) == 0
        assert (results / "runs.csv").exists()

    def test_train_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"backend": "circuit", "ansatz": "iqp", "shots": 5}))
        assert main(["train", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("seeds", 5),
        ("split_sizes", 7),
        ("seeds", "12"),  # a string iterates as the seeds 1 and 2
        ("seeds", [1.5]),
        ("split_sizes", [7]),
        ("seeds", [-1]),
        ("dataset_seed", -1),
        ("dataset_dir", 5),
    ])
    def test_train_rejects_malformed_int_lists(self, key, value, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"backend": "tensor", "ansatz": "tensor", key: value}))
        assert main(["train", "--config", str(cfg_path), "--results", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert [p for p in tmp_path.iterdir() if p != cfg_path] == []  # no run started

    @pytest.mark.parametrize("key, value", [
        ("epochs", 1.5),
        ("n_layers", "2"),
        ("dataset_seed", 1.0),
        ("d_n", True),
        ("n_single_qubit_params", None),
        ("bond_dim", 2.0),
        ("max_legs", "3"),
        ("d_s", [2]),
    ])
    def test_train_rejects_non_integer_scalars(self, key, value, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"backend": "tensor", "ansatz": "tensor", key: value}))
        assert main(["train", "--config", str(cfg_path), "--results", str(tmp_path)]) == 2
        assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err
        assert [p for p in tmp_path.iterdir() if p != cfg_path] == []  # no run started

    @pytest.mark.parametrize("argv", [
        ["sweep", "--seeds", "a"],
        ["sweep", "--seeds", "0,1.5"],
        ["sweep", "--max-layers", "-1"],
        ["sweep", "--max-rotations", "-1"],
        ["sweep", "--budget-per-cell", "-1"],
        ["sweep", "--budget-per-cell", "0"],
        ["sweep", "--budget-per-cell", "nan"],
        ["sweep", "--workers", "0"],
        ["sweep", "--workers", "-2"],
        ["train", "--budget", "nan"],
        ["train", "--budget", "inf"],
        ["train", "--budget", "-2"],
    ], ids="_".join)
    def test_bad_run_flag_is_config_error(self, argv, tmp_path, capsys):
        flag = argv[1]
        results = tmp_path / "results"
        if argv[0] == "train":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"backend": "tensor", "ansatz": "tensor", "epochs": 2}))
            argv = [*argv, "--config", str(cfg_path)]
        else:
            argv = [*argv, "--ansatze", "iqp", "--epochs", "2"]
        assert main([*argv, "--results", str(results)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag} ")
        assert not results.exists()  # no run started

    def test_sweep_rejects_repeated_seeds(self, tmp_path, capsys):
        # two workers would train each run directory twice, at once
        results = tmp_path / "results"
        argv = ["sweep", "--ansatze", "iqp", "--max-layers", "1", "--max-rotations", "0",
                "--seeds", "0,1,0", "--workers", "2", "--epochs", "2", "--results", str(results)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: seeds must be distinct; [0] repeated in [0, 1, 0]\n")
        assert not results.exists()  # no run started

    def test_train_rejects_repeated_seeds(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"backend": "tensor", "ansatz": "tensor",
                                        "seeds": [1, 2, 1, 2, 3], "epochs": 2}))
        assert main(["train", "--config", str(cfg_path), "--results", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: seeds must be distinct; [1, 2] repeated in [1, 2, 1, 2, 3]\n")
        assert [p for p in tmp_path.iterdir() if p != cfg_path] == []  # no run started

    def test_train_tensor_sentence_dimension_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"backend": "tensor", "ansatz": "tensor", "d_s": 3}))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "needs d_s 2, got 3" in capsys.readouterr().err

    def test_compile_takes_any_sentence_dimension(self, tmp_path):
        out = tmp_path / "net.json"
        argv = ["compile", "--sentence", "man cooks meal", "--backend", "tensor",
                "--ansatz", "tensor", "--scheme", "re", "--d-s", "3", "-o", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["nodes"][1]["shape"] == [2, 3, 2]

    def test_report_empty_is_pipeline_error(self, tmp_path):
        assert main(["report", "--results", str(tmp_path / "none")]) == 3

    @pytest.mark.parametrize("text", ['{"run_id": "x", "sta', "[]", '{"status": "ok"}',
                                      '{"run_id": "x", "status": "ok", "config": []}'],
                             ids=("truncated", "list", "no-run-id", "list-config"))
    def test_report_unreadable_summary_is_pipeline_error(self, tmp_path, capsys, text):
        run_one(small_cfg(epochs=1), 0, root=tmp_path)
        bad = tmp_path / "broken-run" / "summary.json"
        bad.parent.mkdir()
        bad.write_text(text)
        assert main(["report", "--results", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {bad}: not a run summary (a JSON object with a string run_id and status, "
            "a config object that parses, a number test_acc and a number or null "
            "budget_seconds)\n")

    def test_report_null_test_acc_is_pipeline_error(self, tmp_path, capsys):
        cfg = small_cfg(epochs=1)
        run_one(cfg, 0, root=tmp_path)
        path = tmp_path / cfg.run_id(0) / "summary.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "test_acc": None}))
        assert main(["report", "--results", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: not a run summary")

    def test_report_names_a_summary_of_another_directory(self, tmp_path, capsys):
        cfg = small_cfg(epochs=1)
        run_one(cfg, 0, root=tmp_path)
        shutil.copytree(tmp_path / cfg.run_id(0), tmp_path / cfg.run_id(1))
        path = tmp_path / cfg.run_id(1) / "summary.json"
        assert main(["report", "--results", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {path}: run_id {cfg.run_id(0)!r} is not its directory's name")

    def test_report_unparsable_config_is_pipeline_error(self, tmp_path, capsys):
        cfg = small_cfg(epochs=1)
        run_one(cfg, 0, root=tmp_path)
        path = tmp_path / cfg.run_id(0) / "summary.json"
        stored = json.loads(path.read_text())
        path.write_text(json.dumps({**stored, "config": {"backend": "circuit", "ansatz": "iqp",
                                                         "n_layers": "x"}}))
        assert main(["report", "--results", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: not a run summary")

    def test_report_metrics_without_a_column_is_pipeline_error(self, tmp_path, capsys):
        # val_acc reaches 1.0 in its first row, so only the curves read train_loss
        cfg = small_cfg(epochs=1)
        run_one(cfg, 0, root=tmp_path)
        path = tmp_path / cfg.run_id(0) / "metrics.csv"
        path.write_text("epoch,val_acc\n1,1.0\n")
        assert main(["report", "--results", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: not a metrics table (no column 'train_loss')\n")

    def test_report_unreadable_metrics_is_pipeline_error(self, tmp_path, capsys):
        cfg = small_cfg(epochs=1)
        run_one(cfg, 0, root=tmp_path)
        path = tmp_path / cfg.run_id(0) / "metrics.csv"
        path.write_text("epoch,train_loss,val_loss,train_acc,val_acc\n1,0.5,0.5,0.5,high\n")
        assert main(["report", "--results", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: not a metrics table")

    def test_dataset_round_trips_through_train(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(
            ["dataset", "--seed", "1", "--sizes", "10", "4", "4", "--out", str(data_dir)]
        ) == 0
        for name in ("train.tsv", "dev.tsv", "test.tsv", "lexicon.tsv"):
            assert (data_dir / name).exists()

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "backend": "circuit",
                    "ansatz": "iqp",
                    "scheme": "re_norm_cur_norm",
                    "epochs": 2,
                    "dataset_dir": str(data_dir),
                }
            )
        )
        results = tmp_path / "results"
        assert main(["train", "--config", str(cfg_path), "--results", str(results)]) == 0

    @pytest.mark.parametrize("broken", ("directory", "malformed"))
    def test_unreadable_dataset_file_fails_the_data_stage(self, broken, tmp_path, capsys):
        # an OS error is named by its stage; a corpus error keeps its own message
        data_dir = tmp_path / "data"
        assert main(["dataset", "--seed", "1", "--sizes", "10", "4", "4",
                     "--out", str(data_dir)]) == 0
        train = data_dir / "train.tsv"
        train.unlink()
        if broken == "directory":
            train.mkdir()
            want = "error: stage data: [Errno 21] Is a directory"
        else:
            train.write_text("1 no tab\n")
            want = f"error: {train}:1: expected 'label<TAB>sentence'"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"backend": "tensor", "ansatz": "tensor", "epochs": 1,
                                        "dataset_dir": str(data_dir)}))
        capsys.readouterr()
        argv = ["train", "--config", str(cfg_path), "--results", str(tmp_path / "results")]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(want)

    def test_results_env_var_is_honored(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(RESULTS_ENV, str(tmp_path / "envroot"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "backend": "tensor",
                    "ansatz": "tensor",
                    "scheme": "re",
                    "epochs": 2,
                    "split_sizes": [10, 4, 4],
                }
            )
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "envroot").is_dir()

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["parse", "man cooks meal", "--frobnicate"])
        assert exc.value.code == 2
