"""Experiment harness artifacts, sweep resumability, reports, and the CLI."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qnlp import experiment
from qnlp.circuit import circuit_from_json
from qnlp.cli import main
from qnlp.diagram import diagram_from_json
from qnlp.errors import ConfigError
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

    def test_resume_returns_stored_summary(self, tmp_path):
        cfg = small_cfg()
        run_one(cfg, 0, root=tmp_path)
        path = tmp_path / cfg.run_id(0) / "summary.json"
        stored = json.loads(path.read_text())
        stored["note"] = "already done"
        path.write_text(json.dumps(stored))
        again = run_one(cfg, 0, root=tmp_path)
        assert again["note"] == "already done"

    def test_failed_summary_write_leaves_run_incomplete(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=1)
        real_summarize = experiment.summarize

        def unwritable(history, last_k):
            # json.dump fails part-way through the file on this value
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

    def test_zero_parameter_cell_records_nan(self, tmp_path):
        cfg = small_cfg(n_layers=0, n_single_qubit_params=0)
        summary = run_one(cfg, 0, root=tmp_path)
        assert summary["status"] == "zero_params"
        assert math.isnan(summary["mean_val_acc"])
        assert math.isnan(summary["test_acc"])
        run_dir = tmp_path / cfg.run_id(0)
        assert (run_dir / "summary.json").exists()
        assert not (run_dir / "metrics.csv").exists()

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
        assert grid[0] == "ansatz,n_layers,rot0,rot1"
        for line in grid[1:]:
            ansatz, layers, rot0, rot1 = line.split(",")
            if layers == "0":
                assert rot0 == "NaN"
                assert rot1 != "NaN"
            else:
                assert rot0 != "NaN"
        assert sorted(paths) == ["curves", "grid", "runs"]

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
        d = diagram_from_json(capsys.readouterr().out)
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
        d = diagram_from_json(out.read_text())
        assert d.n_cups == 0

    def test_compile_and_simulate(self, tmp_path, capsys):
        circ_path = tmp_path / "c.json"
        assert main(
            ["compile", "--sentence", "man cooks meal", "-o", str(circ_path)]
        ) == 0
        circ = circuit_from_json(circ_path.read_text())
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

    def test_missing_file_is_config_error(self, capsys):
        assert main(["simulate", "--circuit", "/nonexistent.json"]) == 2

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

    def test_report_empty_is_pipeline_error(self, tmp_path):
        assert main(["report", "--results", str(tmp_path / "none")]) == 3

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
