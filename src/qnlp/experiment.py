"""Experiment harness: single runs, the ansatz sweep grid, and reports.

Every run owns a directory under the results root (the ``QNLP_RESULTS_ROOT``
environment variable, else ``./results``) named by a readable prefix, a hash
of its full configuration, and its seed.  A run directory holds
``config.json``, per-epoch ``metrics.csv``, a final ``checkpoint.json``, and
``summary.json``.  ``summary.json`` is the completion ledger, which makes
long grids resumable.  Its ``status`` sets the retry policy: sweeps and
repeated invocations skip a run recorded as ``ok`` or ``zero_params``, and
rerun one recorded as ``error``, which a sweep writes for a cell that
raised.  The budget is not part of the run id; the summary records it
instead, so a run recorded as ``aborted`` is rerun under a larger budget
or none, and skipped under the same or a smaller one.  The summary is
written last, to a temporary file renamed into place, so a run cut short
mid-write leaves no summary.  A summary that is not a JSON object with a
string ``status`` counts as absent: the run is rerun, and :func:`report`
names the file in its error.

A model with an empty symbol table cannot train; its summary records the
accuracy fields as literal ``NaN`` (the grid report keeps those cells as
``NaN`` text).  A grid cell averages its ``ok`` runs only; one with runs
but none ``ok`` reads ``none_ok``.  A run that exceeds the per-cell
wall-clock budget is recorded as aborted without failing the surrounding
sweep.  A process holds the generated corpus and bundled lexicon of its
latest dataset seed and split sizes, so a worker's cells generate their
corpus once; a ``dataset_dir`` is read afresh by every run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qnlp.circuit import CircuitAnsatz, CircuitAnsatzConfig, ZeroParameterModel
from qnlp.corpus import CorpusSplits, default_lexicon, generate_mc, load_tsv
from qnlp.errors import ConfigError, Error
from qnlp.pregroup import Lexicon
from qnlp.rewrite import RewriteScheme
from qnlp.tensornet import TensorAnsatz, TensorAnsatzConfig
from qnlp.training import (
    AdaptiveGDConfig,
    BudgetExceeded,
    CircuitModel,
    History,
    SPSAConfig,
    TensorModel,
    TrainConfig,
    fit,
    summarize,
)


class EmptyResults(Error):
    """The results root contains no completed runs."""


RESULTS_ENV = "QNLP_RESULTS_ROOT"

_CIRCUIT_ANSATZE = tuple(a.value for a in CircuitAnsatz)
_TENSOR_ANSATZE = tuple(a.value for a in TensorAnsatz)
_INT_FIELDS = ("n_layers", "n_single_qubit_params", "d_n", "d_s", "bond_dim", "max_legs",
               "epochs", "dataset_seed")


@dataclass(frozen=True)
class ExperimentConfig:
    backend: str  # "circuit" | "tensor"
    ansatz: str
    scheme: str = "re_norm_cur_norm"
    n_layers: int = 1
    n_single_qubit_params: int = 3
    d_n: int = 2
    d_s: int = 2
    bond_dim: int = 2
    max_legs: int = 2
    seeds: tuple[int, ...] = (0,)
    epochs: int = 120
    optimizer: str = "default"  # "default" | "spsa" | "adaptive_gd"
    dataset_dir: str | None = None
    dataset_seed: int = 0
    split_sizes: tuple[int, int, int] = (70, 30, 30)

    def __post_init__(self):
        for key in _INT_FIELDS:
            value = getattr(self, key)
            if type(value) is not int:  # a bool or a float such as 2.0 too
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        for key in ("seeds", "split_sizes"):
            value = getattr(self, key)
            # JSON gives lists; configs built in Python may give tuples
            if not isinstance(value, (list, tuple)) or any(type(v) is not int for v in value):
                raise ConfigError(f"{key} must be a list of integers, got {value!r}")
            object.__setattr__(self, key, tuple(value))
        if self.backend not in ("circuit", "tensor"):
            raise ConfigError(f"unknown backend: {self.backend!r}")
        allowed = _CIRCUIT_ANSATZE if self.backend == "circuit" else _TENSOR_ANSATZE
        if self.ansatz not in allowed:
            raise ConfigError(
                f"ansatz {self.ansatz!r} is not valid for backend "
                f"{self.backend!r}; choose from {sorted(allowed)}"
            )
        if self.optimizer not in ("default", "spsa", "adaptive_gd"):
            raise ConfigError(f"unknown optimizer: {self.optimizer!r}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0 or self.dataset_seed < 0:
            raise ConfigError(f"seeds and dataset_seed must be non-negative, got "
                              f"{list(self.seeds)} and {self.dataset_seed}")
        if repeated := sorted({s for s in self.seeds if self.seeds.count(s) > 1}):
            raise ConfigError(f"seeds must be distinct; {repeated} repeated in {list(self.seeds)}")
        if self.dataset_dir is not None and not isinstance(self.dataset_dir, str):
            raise ConfigError(f"dataset_dir must be a string, got {self.dataset_dir!r}")
        if len(self.split_sizes) != 3:
            raise ConfigError(f"split_sizes needs 3 sizes, got {self.split_sizes}")
        if self.n_layers < 0 or self.n_single_qubit_params < 0:
            raise ConfigError("layer and rotation counts must be non-negative")
        try:  # the typed configs check their own fields
            self.rewrite_scheme()
            self.ansatz_config()
            self.train_config(self.seeds[0])
        except (Error, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def rewrite_scheme(self) -> RewriteScheme:
        return RewriteScheme(self.scheme)

    def ansatz_config(self) -> CircuitAnsatzConfig | TensorAnsatzConfig:
        if self.backend == "circuit":
            return CircuitAnsatzConfig(
                CircuitAnsatz(self.ansatz), self.n_layers, self.n_single_qubit_params
            )
        return TensorAnsatzConfig(
            TensorAnsatz(self.ansatz), self.d_n, self.d_s, self.bond_dim, self.max_legs
        )

    def train_config(self, seed: int) -> TrainConfig:
        """The ``default`` optimizer is SPSA for circuits, adaptive GD for tensors."""
        choice = self.optimizer
        if choice == "default":
            choice = "spsa" if self.backend == "circuit" else "adaptive_gd"
        optimizer = SPSAConfig() if choice == "spsa" else AdaptiveGDConfig()
        return TrainConfig(epochs=self.epochs, seed=seed, optimizer=optimizer)

    def to_dict(self) -> dict:
        """Field by field, the tuple fields as lists, as JSON reads them back."""
        out = {name: getattr(self, name) for name in self.__dataclass_fields__}
        out["seeds"], out["split_sizes"] = list(self.seeds), list(self.split_sizes)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if unknown := set(obj) - set(cls.__dataclass_fields__):
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "backend" not in obj or "ansatz" not in obj:
            raise ConfigError("config needs at least 'backend' and 'ansatz'")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def dataset_tag(self) -> str:
        if self.dataset_dir is not None:
            return Path(self.dataset_dir).name or "dataset"
        a, b, c = self.split_sizes
        return f"gen{self.dataset_seed}-{a}-{b}-{c}"

    def run_id(self, seed: int) -> str:
        """A readable prefix, a hash of the whole configuration, the seed.

        The hash covers every field but ``seeds``, so two configurations
        that differ anywhere never share a run directory, while adding
        seeds leaves finished runs where they are.
        """
        canonical = {k: v for k, v in self.to_dict().items() if k != "seeds"}
        digest = hashlib.sha256(
            json.dumps(canonical, sort_keys=True).encode("utf-8")
        ).hexdigest()[:10]
        return (
            f"{self.backend}_{self.ansatz}_{self.scheme}"
            f"_L{self.n_layers}_r{self.n_single_qubit_params}"
            f"_{self.dataset_tag()}_{digest}_s{seed}"
        )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    cfg = ExperimentConfig.from_dict(obj)
    if cfg.backend == "tensor" and cfg.d_s != 2:
        # a tensor model reads its two class weights off the sentence wire;
        # ``qnlp compile`` builds configs directly and takes any d_s
        raise ConfigError(f"{path}: a tensor model needs d_s 2, got {cfg.d_s}")
    return cfg


def results_root(override: str | Path | None = None) -> Path:
    if override is not None:
        return Path(override)
    return Path(os.environ.get(RESULTS_ENV, "results"))


# the generated corpus and bundled lexicon of the latest (seed, sizes)
_generated: tuple[tuple, CorpusSplits, Lexicon] | None = None


def load_splits(cfg: ExperimentConfig) -> tuple[CorpusSplits, Lexicon]:
    global _generated
    if cfg.dataset_dir is None:
        key = (cfg.dataset_seed, cfg.split_sizes)
        if _generated is None or _generated[0] != key:
            _generated = (key, generate_mc(*key), default_lexicon())
        return _generated[1], _generated[2]
    root = Path(cfg.dataset_dir)
    parts = {}
    for name in ("train", "dev", "test"):
        path = root / f"{name}.tsv"
        if not path.exists():
            raise ConfigError(f"dataset directory is missing {path.name}")
        parts[name] = load_tsv(path, name)
    lex_path = root / "lexicon.tsv"
    lexicon = Lexicon.load(lex_path) if lex_path.exists() else default_lexicon()
    return CorpusSplits(parts["train"], parts["dev"], parts["test"]), lexicon


_METRICS = ("train_loss", "val_loss", "train_acc", "val_acc")  # metrics.csv's, after the epoch


def _write_metrics_csv(path: Path, history: History) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", *_METRICS])
        rows = zip(*(getattr(history, m) for m in _METRICS))
        writer.writerows([e, *map(repr, row)] for e, row in enumerate(rows, start=1))


def _run_config(cfg: ExperimentConfig, seed: int) -> dict:
    return {**cfg.to_dict(), "seeds": [seed]}


def _summary(run_id: str, config: dict, status: str, note: str = "",
             history: History | None = None, wall_seconds: float = 0.0,
             budget_seconds: float | None = None) -> dict:
    """The ``summary.json`` record; without a history the scores are NaN."""
    if history is None:
        scores = dict.fromkeys(
            ("mean_train_loss", "mean_val_loss", "mean_train_acc", "mean_val_acc",
             "test_acc"), float("nan"))
    else:
        scores = {**summarize(history, last_k=min(10, len(history))),
                  "test_acc": history.test_acc}
    return {
        "run_id": run_id,
        "seed": config["seeds"][0],
        "status": status,
        "note": note,
        "config": config,
        **scores,
        "degenerate_evals": 0 if history is None else history.degenerate_evals,
        "epochs": 0 if history is None else len(history),
        "wall_seconds": wall_seconds,
        "budget_seconds": budget_seconds,
    }


def run_one(
    cfg: ExperimentConfig,
    seed: int,
    root: str | Path | None = None,
    budget_seconds: float | None = None,
) -> dict:
    """Execute (or resume) one seed of a configuration; returns its summary.

    Pipeline errors carry a stage tag; a zero-parameter model or a blown
    budget is recorded in the summary instead of raised.  A stored summary
    is returned as it is unless its status is ``error``, or ``aborted``
    under a recorded budget that ``budget_seconds`` is absent or larger
    than; either reruns the cell, as does a summary whose fields read here
    are missing or mistyped (:func:`_read_summary`), or that is another
    run's: its ``run_id`` or config not this cell's.
    """
    run_id = cfg.run_id(seed)
    run_dir = results_root(root) / run_id
    config = _run_config(cfg, seed)
    summary = _read_summary(run_dir / "summary.json")
    if summary is not None and summary["run_id"] == run_id and summary["config"] == config:
        status, recorded = summary["status"], summary.get("budget_seconds")
        if status == "aborted":  # rerun only if this call allows more time
            rerun = budget_seconds is None or recorded is None or budget_seconds > recorded
        else:
            rerun = status == "error"
        if not rerun:
            return summary

    run_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()

    def fail(stage: str, exc: Exception) -> Error:
        return Error(f"stage {stage}: {exc}")

    try:
        splits, lexicon = load_splits(cfg)
    except Error:
        raise
    except Exception as exc:
        raise fail("data", exc) from exc

    try:
        build = CircuitModel.build if cfg.backend == "circuit" else TensorModel.build
        model = build(splits, lexicon, cfg.rewrite_scheme(), cfg.ansatz_config())
    except ZeroParameterModel as exc:
        summary = _summary(run_id, config, "zero_params", str(exc),
                           wall_seconds=time.monotonic() - started, budget_seconds=budget_seconds)
        _finish_run(run_dir, summary)
        return summary
    except Error as exc:
        raise fail("compile", exc) from exc

    try:
        history = fit(model, splits, cfg.train_config(seed), budget_seconds)
    except BudgetExceeded as exc:
        summary = _summary(run_id, config, "aborted", str(exc),
                           wall_seconds=time.monotonic() - started, budget_seconds=budget_seconds)
        _finish_run(run_dir, summary)
        return summary
    except Error as exc:
        raise fail("train", exc) from exc

    summary = _summary(run_id, config, "ok", history=history,
                       wall_seconds=time.monotonic() - started, budget_seconds=budget_seconds)
    _finish_run(run_dir, summary, history, model)
    return summary


def _finish_run(run_dir: Path, summary: dict, history: History | None = None,
                model=None) -> None:
    config = summary["config"]
    (run_dir / "config.json").write_text(json.dumps(config) + "\n", encoding="utf-8")
    if history is not None:
        _write_metrics_csv(run_dir / "metrics.csv", history)
        if model is not None and history.final_params is not None:
            checkpoint = {"kind": config["backend"], "epoch": len(history), "config": config,
                          "params": model.params_to_named(history.final_params)}
            (run_dir / "checkpoint.json").write_text(json.dumps(checkpoint) + "\n",
                                                     encoding="utf-8")
    _write_summary(run_dir, summary)


_SUMMARY_FIELDS = "a JSON object with a string run_id and status, a config object that " \
    "parses, a number test_acc and a number or null budget_seconds"


def _read_summary(path: Path) -> dict | None:
    """The run summary at ``path``; ``None`` if there is none or it is not
    :data:`_SUMMARY_FIELDS`, the fields ``run_one`` and ``report`` read."""
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return None
    if not isinstance(summary, dict):
        return None
    budget = summary.get("budget_seconds")
    readable = (isinstance(summary.get("status"), str) and isinstance(summary.get("run_id"), str)
                and isinstance(summary.get("config"), dict)
                and type(summary.get("test_acc")) in (int, float)  # a bool is no number
                and (budget is None or type(budget) in (int, float)))
    if not readable:
        return None
    try:  # report reads it back as a config
        ExperimentConfig.from_dict(summary["config"])
    except Error:
        return None
    return summary


def _write_summary(run_dir: Path, summary: dict) -> None:
    """Write ``summary.json``, whose presence marks the run complete.

    The summary goes to a temporary file in the run directory that is
    then renamed over ``summary.json``, so a failed write leaves no
    summary and the next invocation runs the cell again.
    """
    tmp = run_dir / f".summary.json.{os.getpid()}.tmp"
    try:
        tmp.write_text(json.dumps(summary, allow_nan=True) + "\n", encoding="utf-8")
        os.replace(tmp, run_dir / "summary.json")
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()
        raise


def run_experiment(
    cfg: ExperimentConfig,
    root: str | Path | None = None,
    budget_seconds: float | None = None,
) -> list[dict]:
    """Run every seed of a configuration; returns the per-seed summaries."""
    return [run_one(cfg, seed, root, budget_seconds) for seed in cfg.seeds]


# -- sweep ----------------------------------------------------------------


def sweep_cells(
    scheme: str = "re_norm_cur_norm",
    ansatze: tuple[str, ...] = _CIRCUIT_ANSATZE,
    layer_range: tuple[int, ...] = (0, 1, 2, 3, 4),
    rotation_range: tuple[int, ...] = (0, 1, 2, 3, 4),
    seeds: tuple[int, ...] = (0,),
    epochs: int = 120,
    dataset_seed: int = 0,
) -> list[ExperimentConfig]:
    cells = []
    for ansatz in ansatze:
        for layers in layer_range:
            for rot in rotation_range:
                cells.append(
                    ExperimentConfig(
                        backend="circuit",
                        ansatz=ansatz,
                        scheme=scheme,
                        n_layers=layers,
                        n_single_qubit_params=rot,
                        seeds=tuple(seeds),
                        epochs=epochs,
                        dataset_seed=dataset_seed,
                    )
                )
    return cells


def _sweep_worker(args: tuple) -> dict:
    cfg_dict, seed, root, budget = args
    cfg = ExperimentConfig.from_dict(cfg_dict)
    try:
        return run_one(cfg, seed, root, budget)
    except Exception as exc:  # recorded, sweep continues
        run_id = cfg.run_id(seed)
        summary = _summary(run_id, _run_config(cfg, seed), "error", str(exc),
                           budget_seconds=budget)
        run_dir = results_root(root) / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_summary(run_dir, summary)
        return summary


def run_sweep(
    cells: list[ExperimentConfig],
    root: str | Path | None = None,
    workers: int | None = None,
    budget_per_cell: float | None = None,
) -> list[dict]:
    """Run all (cell, seed) pairs, in a process pool when workers > 1.

    The pool has no more workers than there are pairs.  Completed runs
    (summary.json on disk) are skipped, so an interrupted sweep picks up
    where it stopped; :func:`run_one` reruns those recorded as ``error``,
    and those recorded as ``aborted`` when ``budget_per_cell`` is absent
    or larger than the budget they ran under.
    """
    base = results_root(root)
    base.mkdir(parents=True, exist_ok=True)
    jobs = [
        (cfg.to_dict(), seed, str(base), budget_per_cell)
        for cfg in cells
        for seed in cfg.seeds
    ]
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [_sweep_worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_worker, jobs))


# -- reporting ------------------------------------------------------------


def _iter_run_dirs(base: Path):
    if not base.exists():
        return
    for child in sorted(base.iterdir()):
        summary = child / "summary.json"
        if summary.is_file():
            yield child


def _read_metrics(run_dir: Path) -> tuple[list[dict], int | None]:
    """The rows of a run's metrics.csv, none if it has none, and the first
    epoch whose validation accuracy reaches 1.0.  A file without the epoch
    and the four metric columns, or whose epochs and validation accuracies
    up to that one do not parse, raises :class:`Error` naming it."""
    path = run_dir / "metrics.csv"
    if not path.exists():
        return [], None
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            reader = csv.DictReader(fh)
            missing = [k for k in ("epoch", *_METRICS) if k not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"no column {missing[0]!r}")
            rows = list(reader)
            return rows, next((int(row["epoch"]) for row in rows
                               if float(row["val_acc"]) >= 1.0), None)
        except (TypeError, ValueError, csv.Error) as exc:
            raise Error(f"{path}: not a metrics table ({exc})") from None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and not np.isfinite(value):
        return "NaN"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def report(root: str | Path | None = None, out_dir: str | Path | None = None) -> dict[str, Path]:
    """Scan completed runs and emit summary, grid, and curve CSV files."""
    base = results_root(root)
    out = Path(out_dir) if out_dir is not None else base
    runs = []
    for run_dir in _iter_run_dirs(base):
        summary = _read_summary(run_dir / "summary.json")
        if summary is None:
            raise Error(f"{run_dir / 'summary.json'}: not a run summary ({_SUMMARY_FIELDS})")
        if summary["run_id"] != run_dir.name:
            raise Error(f"{run_dir / 'summary.json'}: run_id {summary['run_id']!r} is not "
                        f"its directory's name")
        summary["_metrics"], summary["_crossing"] = _read_metrics(run_dir)
        runs.append(summary)
    if not runs:
        raise EmptyResults(f"no completed runs under {base}")
    out.mkdir(parents=True, exist_ok=True)

    runs_path = out / "runs.csv"
    config_fields = ("backend", "ansatz", "scheme", "n_layers", "n_single_qubit_params")
    scores = ("mean_train_loss", "mean_val_loss", "mean_train_acc", "mean_val_acc", "test_acc")
    with runs_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", *config_fields, "seed", "status", *scores,
                         "first_epoch_val_acc_1", "degenerate_evals", "wall_seconds"])
        for s in runs:
            cfg = s.get("config", {})
            writer.writerow([s["run_id"], *(cfg.get(k, "") for k in config_fields),
                             s.get("seed", ""), s.get("status", ""),
                             *(_fmt(s.get(k)) for k in scores), _fmt(s["_crossing"]),
                             s.get("degenerate_evals", ""), _fmt(s.get("wall_seconds"))])

    # Accuracy grid: one row per configuration up to its seeds and rotation
    # count, one column per rotation count, mean test accuracy over the
    # cell's ``ok`` runs.  NaN marks an untrainable cell and ``none_ok`` one
    # whose runs were all aborted or failed.  The fixed columns tell rows
    # apart.
    grid_path = out / "grid.csv"
    labels: dict[str, tuple] = {}  # row key -> its fixed columns
    cells: dict[tuple[str, int], list[tuple[str, float]]] = {}
    for s in runs:
        if s.get("config", {}).get("backend") != "circuit":
            continue
        cfg = ExperimentConfig.from_dict(s["config"])
        fields = {k: v for k, v in cfg.to_dict().items()
                  if k not in ("seeds", "n_single_qubit_params")}
        row = json.dumps(fields, sort_keys=True)
        labels[row] = (cfg.scheme, cfg.dataset_tag(), cfg.optimizer, cfg.epochs,
                       cfg.ansatz, cfg.n_layers)
        cells.setdefault((row, cfg.n_single_qubit_params), []).append(
            (s.get("status"), float(s["test_acc"])))

    def cell(runs) -> str:
        if runs is None:
            return ""
        ok = [acc for status, acc in runs if status == "ok"]
        if ok:
            return _fmt(float(np.mean(ok)))
        return "NaN" if all(status == "zero_params" for status, _ in runs) else "none_ok"

    rotations = sorted({r for _, r in cells})
    with grid_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "dataset", "optimizer", "epochs", "ansatz", "n_layers"]
                        + [f"rot{r}" for r in rotations])
        for row in sorted(labels, key=lambda k: (labels[k], k)):
            writer.writerow([*labels[row]] + [cell(cells.get((row, r))) for r in rotations])

    curves_path = out / "curves.csv"
    with curves_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "epoch", "metric", "value"])
        for s in runs:
            writer.writerows([s["run_id"], row["epoch"], m, row[m]]
                             for row in s["_metrics"] for m in _METRICS)

    return {"runs": runs_path, "grid": grid_path, "curves": curves_path}
