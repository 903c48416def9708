"""The benchmark's workloads, their output checks and their work counts.

Every input derives from the workload seed: it seeds ``generate_mc`` and
the training seed, and the program only ever sees the generated corpus.

* ``sweep`` runs a reduced ansatz x layers x rotations grid through
  ``experiment.run_sweep`` (the command users run), resumes it and reports.
* ``fit`` trains circuits with exact parameter-shift gradients, the path
  the sweep never takes, and the three tensor lowerings (einsum
  contraction and hole gradients, no simulator).
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qnlp import corpus, experiment, simulator, tensornet, training
from qnlp.circuit import Circuit, CircuitAnsatz, CircuitAnsatzConfig, Symbol, compile_circuit
from qnlp.pregroup import Lexicon, parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite
from qnlp.tensornet import TensorAnsatz, TensorAnsatzConfig, compile_network

import speed
import tracing

ORACLE_TOL = 1e-12
GRAD_STEP = 1e-6
GRAD_TOL = 1e-6
SPLITS = ("train", "dev", "test")


class Ledger:
    """Operations attempted and failed; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


# -- independent per-sentence oracle --------------------------------------


def _compile_split(lset, lexicon, scheme: RewriteScheme, cfg):
    compile_fn = compile_circuit if isinstance(cfg, CircuitAnsatzConfig) else compile_network
    return [
        compile_fn(rewrite(parse_sentence(list(words), lexicon), scheme), cfg)
        for words in lset.sentences()
    ]


def _oracle_probs(compiled, named: dict) -> np.ndarray:
    """Per-sentence probabilities from the reference evaluators."""
    out = []
    for item in compiled:
        if isinstance(item, Circuit):
            params = [named[s.name] for s in item.symbols]
            out.append(simulator.sentence_distribution(item, params).probs)
            continue
        store = {s: np.asarray(named[s.name], dtype=float) for s in item.param_shapes()}
        v = np.asarray(tensornet.contract(item, store), dtype=float).reshape(-1)
        norm = float(v @ v)
        out.append(np.full(2, 0.5) if norm < training.DEGENERATE_EPS else v**2 / norm)
    return np.array(out)


@dataclass
class Case:
    """One model on one corpus, trained from one seed."""

    label: str
    splits: corpus.CorpusSplits
    lexicon: Lexicon
    scheme: RewriteScheme
    cfg: CircuitAnsatzConfig | TensorAnsatzConfig
    model: object
    train: training.TrainConfig

    def theta0(self) -> np.ndarray:
        # fit draws its initial parameters first from default_rng(seed)
        return self.model.init_params(np.random.default_rng(self.train.seed))

    def check_oracle(self, ledger: Ledger) -> None:
        theta = self.theta0()
        probs = np.asarray(self.model.eval_split("train", theta)[0])
        ref = _oracle_probs(
            _compile_split(self.splits.train, self.lexicon, self.scheme, self.cfg),
            self.model.params_to_named(theta),
        )
        err = float(np.max(np.abs(probs - ref))) if probs.shape == ref.shape else np.inf
        ledger.check(
            err <= ORACLE_TOL,
            f"{self.label}: train probabilities differ from the oracle by {err:.3e}",
        )

    def check_gradient(self, ledger: Ledger) -> None:
        """The train-split gradient at theta0 against a central difference.

        Along one random unit direction ``d``, ``grad . d`` must equal the
        five-point central difference of the mean train loss computed
        from ``eval_split``.  A zero, scaled or sign-flipped gradient
        fails.  The five-point rule errs by O(h^4): a sentence probability
        near 0 puts the loss close to the log's pole, where the plain
        two-point rule's O(h^2) error can exceed the tolerance.
        """
        theta = self.theta0()
        labels = self.splits.train.labels()

        def loss(vec):
            probs = self.model.eval_split("train", vec)[0]
            return statistics.fmean(training.bce_loss(p, y) for p, y in zip(probs, labels))

        grad = self.model.grad_split("train", theta, labels)[0]
        # A stream apart from theta0's: the tensor models' loss is flat along
        # theta itself, because each word's probabilities ignore its scale.
        d = np.random.default_rng([self.train.seed, 1]).standard_normal(theta.size)
        d /= np.linalg.norm(d)
        h = GRAD_STEP
        fd = (8 * (loss(theta + h * d) - loss(theta - h * d))
              - (loss(theta + 2 * h * d) - loss(theta - 2 * h * d))) / (12 * h)
        err = abs(float(grad @ d) - fd)
        ledger.check(
            err <= GRAD_TOL * max(float(np.linalg.norm(grad)), abs(fd)),
            f"{self.label}: directional gradient {float(grad @ d):.6e} != "
            f"central difference {fd:.6e}",
        )


def _structure(c) -> tuple:
    gates = tuple((g.kind, g.qubits, isinstance(g.param, Symbol) or g.param) for g in c.gates)
    return (c.n_qubits, gates, c.postselect, c.outputs)


def work_counts(cases: list[Case], with_grad: bool) -> dict[str, float]:
    """Exact per-split work counts of the workload's models at theta0."""
    groups = dict.fromkeys(SPLITS, 0)
    qubits_max = 0
    totals = {(k, s): 0 for k in ("gates", "forwards", "grad_fwd", "grad_n", "einsum", "ein_n")
              for s in SPLITS}
    for case in cases:
        theta = case.theta0()
        is_circuit = isinstance(case.cfg, CircuitAnsatzConfig)
        for lset in case.splits:
            name = lset.name
            if is_circuit:
                circuits = _compile_split(lset, case.lexicon, case.scheme, case.cfg)
                groups[name] += len({_structure(c) for c in circuits})
                qubits_max = max([qubits_max] + [c.n_qubits for c in circuits])
            with tracing.Tracer() as tr:
                case.model.eval_split(name, theta)
                if with_grad:
                    case.model.grad_split(name, theta, lset.labels())
            for span in tr.named("training.eval_split"):
                totals["gates", name] += span.count("gates")
                totals["forwards", name] += span.count("forwards")
            for span in tr.named("training.grad_split"):
                if is_circuit:
                    totals["grad_fwd", name] += span.count("forwards")
                    totals["grad_n", name] += len(lset)
                else:
                    totals["einsum", name] += span.count("einsum")
                    totals["ein_n", name] += len(lset)

    def ratio(num, den, split):
        return totals[num, split] / totals[den, split] if totals[den, split] else 0.0

    out: dict[str, float] = {"circuit.qubits_max": qubits_max}
    for s in SPLITS:
        out[f"circuit.topology_groups.{s}"] = groups[s]
        out[f"simulator.gates_per_forward.{s}"] = ratio("gates", "forwards", s)
        out[f"simulator.forwards_per_grad.{s}"] = ratio("grad_fwd", "grad_n", s)
        out[f"tensornet.einsum_calls_per_grad.{s}"] = ratio("einsum", "ein_n", s)
    out["training.params"] = sum(c.model.n_params for c in cases)
    return out


# -- sweep ----------------------------------------------------------------

SWEEP_ANSATZE = tuple(a.value for a in CircuitAnsatz)
SWEEP_LAYERS = (0, 1, 2)
SWEEP_ROTATIONS = (0, 1, 2)
SWEEP_EPOCHS = 5
SWEEP_SCHEME = "re_norm_cur_norm"


def _zero_params(cfg: experiment.ExperimentConfig) -> bool:
    """L0/r0 cells compile to circuits with no parameters at all."""
    return cfg.n_layers == 0 and cfg.n_single_qubit_params == 0


def _strip_wall(summary: dict) -> str:
    return json.dumps({k: v for k, v in summary.items() if k != "wall_seconds"},
                      sort_keys=True)


_SWEEP_WORKER = experiment._sweep_worker
_KERNELS = "perfbench_kernels"  # summary key the calibrated worker adds
_last_kernel: float | None = None  # the worker process's latest kernel time


def _calibrated_worker(job: tuple) -> dict:
    """``experiment._sweep_worker`` with the calibration kernel after each cell.

    Runs in the pool's workers.  The kernel time before a cell is the one
    after the same worker's previous cell; a worker's first cell gets a
    kernel of its own.  The summary on disk is left as it is.
    """
    global _last_kernel
    spent = 0.0
    if _last_kernel is None:
        _last_kernel = speed.calibrate()
        spent += _last_kernel
    before = _last_kernel
    summary = _SWEEP_WORKER(job)
    _last_kernel = speed.calibrate()
    return {**summary, _KERNELS: (before, _last_kernel, spent + _last_kernel)}


@contextlib.contextmanager
def _calibrated_cells():
    # run_sweep looks the worker up in its module when it maps the jobs,
    # and the pool forks its workers after that
    global _last_kernel
    _last_kernel = None
    experiment._sweep_worker = _calibrated_worker
    try:
        yield
    finally:
        experiment._sweep_worker = _SWEEP_WORKER


@dataclass
class SweepState:
    seed: int
    cells: list
    splits: corpus.CorpusSplits
    reference: list[str] | None = None  # first pass, wall times stripped
    passes: list[dict] = field(default_factory=list)


class Sweep:
    def setup(self, seed: int) -> SweepState:
        cells = experiment.sweep_cells(
            scheme=SWEEP_SCHEME,
            ansatze=SWEEP_ANSATZE,
            layer_range=SWEEP_LAYERS,
            rotation_range=SWEEP_ROTATIONS,
            seeds=(seed,),
            epochs=SWEEP_EPOCHS,
            dataset_seed=seed,
        )
        return SweepState(seed, cells, corpus.generate_mc(seed))

    def run_pass(self, st: SweepState, workers: int, scratch: Path, ledger: Ledger) -> dict:
        """Sweep into a fresh results root, resume it, report it."""
        root = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
        try:
            with _calibrated_cells():
                t = time.perf_counter()
                first = experiment.run_sweep(st.cells, root=root, workers=workers)
                wall = time.perf_counter() - t
            t = time.perf_counter()
            again = experiment.run_sweep(st.cells, root=root, workers=workers)
            resume = time.perf_counter() - t
            t = time.perf_counter()
            paths = experiment.report(root)
            report = time.perf_counter() - t
            ledger.check(all(Path(p).is_file() for p in paths.values()), "report files missing")
            written = sum(f.stat().st_size for f in root.rglob("*") if f.is_file())
        finally:
            shutil.rmtree(root, ignore_errors=True)

        kernels = [s.pop(_KERNELS) for s in first]
        ok = [s for s in first if s["status"] == "ok"]
        for cfg, s, r in zip(st.cells, first, again):
            want = ("zero_params", 0) if _zero_params(cfg) else ("ok", SWEEP_EPOCHS)
            ledger.check(
                (s["status"], s["epochs"]) == want,
                f"{s['run_id']}: status/epochs {(s['status'], s['epochs'])} != {want}: {s['note']}",
            )
            ledger.check(s["config"] == {**cfg.to_dict(), "seeds": [st.seed]},
                         f"{s['run_id']}: summary belongs to another configuration")
            ledger.check(json.dumps(s, sort_keys=True) == json.dumps(r, sort_keys=True),
                         f"{s['run_id']}: resume pass returned a different summary")
        ledger.check(len(first) == len(st.cells), "sweep returned the wrong number of cells")
        stripped = [_strip_wall(s) for s in first]
        if st.reference is None:
            st.reference = stripped
        ledger.check(stripped == st.reference, "sweep pass differs from the first pass")
        result = {
            "wall": wall,
            "cells": len(first),
            "epochs": sum(s["epochs"] for s in ok),
            "test_acc": statistics.fmean(s["test_acc"] for s in ok) if ok else float("nan"),
            "cell_walls": [s["wall_seconds"] for s in first],
            "scaled_walls": [speed.scale(s["wall_seconds"], before, after)
                             for s, (before, after, _) in zip(first, kernels)],
            "ok_walls": [s["wall_seconds"] for s in ok],
            "busy": sum(s["wall_seconds"] for s in first),
            "kernel_busy": sum(spent for _, _, spent in kernels),
            "kernel_mean": statistics.fmean(k for before, after, _ in kernels
                                            for k in (before, after)),
            "workers": workers,
            "resume": resume,
            "report": report,
            "bytes": written,
        }
        st.passes.append(result)
        return result

    def wall(self, st: SweepState, scaled: bool = True) -> float:
        """A pass, rebuilt from per-cell medians over passes of one width.

        Each cell's median ``wall_seconds`` over the passes, summed and
        spread over the workers, plus the median of what a pass spends
        outside its cells and kernels (pool start-up, ledger writes, load
        imbalance).  A slow stretch of the machine then moves one pass's
        figures but not the medians.  In reference seconds by default:
        each cell is scaled by the kernels around it in its worker, the
        time outside by the pass's mean kernel.  ``scaled=False`` gives
        plain seconds.
        """
        workers = st.passes[0]["workers"]
        key = "scaled_walls" if scaled else "cell_walls"
        cells = sum(statistics.median(w) for w in zip(*(p[key] for p in st.passes)))
        outside = statistics.median(
            (p["wall"] - (p["busy"] + p["kernel_busy"]) / workers)
            * (speed.REF_S / p["kernel_mean"] if scaled else 1.0)
            for p in st.passes
        )
        return cells / workers + outside

    def twins(self, st: SweepState, scratch: Path, ledger: Ledger, tracer) -> tuple[float, float]:
        """Each cell swept alone with one worker, untraced and then traced.

        Returns the untraced and traced totals.  Twins run back to back so
        that both see the machine in the same state.
        """
        totals = [0.0, 0.0]
        for cfg in st.cells:
            want = ("zero_params", 0) if _zero_params(cfg) else ("ok", SWEEP_EPOCHS)
            for traced in (0, 1):
                root = Path(tempfile.mkdtemp(prefix="cell-", dir=scratch))
                try:
                    with tracer if traced else contextlib.nullcontext():
                        t = time.perf_counter()
                        [s] = experiment.run_sweep([cfg], root=root, workers=1)
                        totals[traced] += time.perf_counter() - t
                finally:
                    shutil.rmtree(root, ignore_errors=True)
                ledger.check((s["status"], s["epochs"]) == want,
                             f"{s['run_id']}: status/epochs {(s['status'], s['epochs'])} != {want}")
        return totals[0], totals[1]

    def cases(self, st: SweepState) -> list[Case]:
        """Every trainable cell as a model at its initial parameters."""
        lexicon = corpus.default_lexicon()
        out = []
        for cfg in st.cells:
            if _zero_params(cfg):
                continue
            ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz(cfg.ansatz), n_layers=cfg.n_layers,
                                         n_single_qubit_params=cfg.n_single_qubit_params)
            scheme = RewriteScheme(cfg.scheme)
            model = training.CircuitModel.build(st.splits, lexicon, scheme, ansatz)
            train = training.TrainConfig(cfg.epochs, st.seed, training.SPSAConfig())
            out.append(Case(cfg.run_id(st.seed), st.splits, lexicon, scheme, ansatz, model,
                            train))
        return out

    def check(self, cases: list[Case], ledger: Ledger) -> None:
        """Oracle check of every trainable cell; the sweep takes no gradients."""
        for case in cases:
            case.check_oracle(ledger)


# -- in-process fits ------------------------------------------------------


@dataclass(frozen=True)
class FitSpec:
    backend: str
    ansatz: str
    scheme: str
    corpora: int
    epochs: int
    n_layers: int = 1
    optimizer: str = "adaptive_gd"

    @property
    def label(self) -> str:
        parts = [self.backend, self.ansatz, self.scheme]
        if self.backend == "circuit":
            parts += [f"L{self.n_layers}", self.optimizer]
        return "/".join(parts)

    def config(self):
        if self.backend == "circuit":
            return CircuitAnsatzConfig(kind=CircuitAnsatz(self.ansatz), n_layers=self.n_layers)
        return TensorAnsatzConfig(kind=TensorAnsatz(self.ansatz))

    def train_config(self, seed: int) -> training.TrainConfig:
        opt = training.SPSAConfig() if self.optimizer == "spsa" else training.AdaptiveGDConfig()
        return training.TrainConfig(epochs=self.epochs, seed=seed, optimizer=opt)

    def cases(self, seed: int) -> list[Case]:
        """One case per corpus, with corpus seeds ``seed*corpora ... +corpora-1``."""
        lexicon = corpus.default_lexicon()
        cfg = self.config()
        scheme = RewriteScheme(self.scheme)
        build = (training.CircuitModel if self.backend == "circuit"
                 else training.TensorModel).build
        out = []
        for k in range(self.corpora):
            data_seed = seed * self.corpora + k
            splits = corpus.generate_mc(data_seed)
            model = build(splits, lexicon, scheme, cfg)
            out.append(Case(f"{self.label}/gen{data_seed}", splits, lexicon, scheme, cfg,
                            model, self.train_config(data_seed)))
        return out


@dataclass
class FitState:
    cases: list[Case]
    times: list[list[float]]  # per case, one wall time per round
    scaled: list[list[float]]  # the same in reference seconds (see speed.py)
    test_acc: list[float]
    final: list[np.ndarray | None]


class Fit:
    """Fits of fixed length, one per (spec, corpus) case."""

    def __init__(self, specs: tuple[FitSpec, ...]):
        self.specs = specs

    def setup(self, seed: int) -> FitState:
        # Disjoint corpus seeds per workload seed.  Corpus draws differ in
        # how many 9-qubit sentences land in train, and short fits in how
        # far test accuracy has moved from its random start; averaging
        # several draws keeps one draw from setting either figure.
        cases = [case for spec in self.specs for case in spec.cases(seed)]
        n = len(cases)
        return FitState(cases, [[] for _ in range(n)], [[] for _ in range(n)],
                        [float("nan")] * n, [None] * n)

    def _fit(self, st: FitState, i: int, ledger: Ledger) -> float:
        case = st.cases[i]
        t = time.perf_counter()
        history = training.fit(case.model, case.splits, case.train)
        dt = time.perf_counter() - t
        if st.final[i] is None:
            st.final[i] = history.final_params
            st.test_acc[i] = history.test_acc
        ledger.check(
            len(history) == case.train.epochs
            and np.isfinite(history.test_acc)
            and np.array_equal(history.final_params, st.final[i]),
            f"{case.label}: fit was short, non-finite or not repeatable",
        )
        return dt

    def run_round(self, st: FitState, ledger: Ledger, tracer=None) -> tuple[float, float]:
        """Fit every case once; with a tracer, each fit gets a traced twin.

        Every untraced fit sits between two runs of the calibration kernel,
        which scale it to reference seconds.  Returns the untraced and
        traced totals.  Twins run back to back so that both see the
        machine in the same state.
        """
        plain = traced = 0.0
        before = speed.calibrate()
        for i in range(len(st.cases)):
            dt = self._fit(st, i, ledger)
            after = speed.calibrate()
            st.times[i].append(dt)
            st.scaled[i].append(speed.scale(dt, before, after))
            plain += dt
            if tracer is not None:
                with tracer:
                    traced += self._fit(st, i, ledger)
                after = speed.calibrate()
            before = after
        return plain, traced

    def round_wall(self, st: FitState, scaled: bool = True) -> float:
        """One round as the sum of each case's median fit time.

        In reference seconds by default; ``scaled=False`` gives the plain
        wall time.
        """
        return sum(statistics.median(t) for t in (st.scaled if scaled else st.times))

    def cases(self, st: FitState) -> list[Case]:
        return st.cases

    def check(self, cases: list[Case], ledger: Ledger) -> None:
        """Oracle check of every case, gradient check of each spec's first case."""
        for case in cases:
            case.check_oracle(ledger)
        first = 0
        for spec in self.specs:
            cases[first].check_gradient(ledger)
            first += spec.corpora


WORKLOADS = {
    "sweep": Sweep(),
    "fit": Fit((
        FitSpec("circuit", "iqp", "re", corpora=6, epochs=1, n_layers=1),
        FitSpec("tensor", "tensor", "re_norm_cur_norm", corpora=2, epochs=20),
        FitSpec("tensor", "mps", "re", corpora=2, epochs=20),
        FitSpec("tensor", "spider", "re", corpora=2, epochs=20),
    )),
}
