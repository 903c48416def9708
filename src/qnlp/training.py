"""Loss, metrics, optimizers, and the end-to-end fit loop.

A model bundles the compiled artifacts of every sentence in a corpus under
one shared parameter vector, so identical words with identical types train
one set of weights no matter how many sentences mention them.  Two model
families implement the same ensemble surface: circuits evaluated by the
statevector simulator and networks evaluated by tensor contraction, the
latter squaring its real output vector into probabilities.  A circuit model
groups each split's circuits by structure when it is built and runs every
group as one batched statevector pass, its gradient's shift probes
included; :func:`qnlp.simulator.sentence_distribution` and
:func:`qnlp.simulator.distribution_gradient` are the per-sentence
reference for that path.

Optimizers: simultaneous-perturbation stochastic approximation for
circuits (one paired probe per epoch, gain schedules ``a / (k + A)^alpha``
and ``c / k^gamma``) and an adaptive moment-based gradient descent with
exact gradients for tensors.  Either can be pointed at either model
family.  Epoch protocol: record full-batch train metrics at the current
parameters, take one optimizer step, then evaluate the dev split; the test
split is scored once after the final epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from qnlp.circuit import (
    Circuit,
    CircuitAnsatzConfig,
    Symbol,
    ZeroParameterModel,
    compile_circuit,
)
from qnlp.corpus import CorpusSplits, LabeledSet
from qnlp.errors import ConfigError, Error
from qnlp.pregroup import Lexicon, parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite
# sentence_distribution and distribution_gradient are the per-sentence
# reference of the batched circuit path; they stay importable from this
# module, where the benchmark's tracer wraps them by name.
from qnlp.simulator import (  # noqa: F401
    CircuitBatch,
    WrongOutputArity,
    batch_distribution,
    batch_distribution_gradient,
    compile_batches,
    distribution_gradient,
    sentence_distribution,
)
from qnlp.tensornet import (
    Network,
    TensorAnsatzConfig,
    compile_network,
    contract,
    gradient_hole,
)

PROB_CLIP = 1e-7
DEGENERATE_EPS = 1e-12


class EmptyEvalSet(Error):
    """Accuracy or loss over zero sentences is undefined."""


class TooFewEpochs(Error):
    """The history is shorter than the summary window."""


class NonFiniteLoss(Error):
    """Training produced a NaN or infinite loss."""


class BudgetExceeded(Error):
    """The fit loop ran past its wall-clock budget."""


# -- loss and metrics -----------------------------------------------------


def bce_loss(probs: Sequence[float], label: int) -> float:
    """Binary cross-entropy with probabilities clipped to [1e-7, 1-1e-7]."""
    p0 = min(max(float(probs[0]), PROB_CLIP), 1.0 - PROB_CLIP)
    p1 = min(max(float(probs[1]), PROB_CLIP), 1.0 - PROB_CLIP)
    if label:
        return -float(np.log(p1))
    return -float(np.log(p0))


def bce_grad(probs: Sequence[float], label: int) -> np.ndarray:
    """d loss/d probs; zero where the clip is active (flat region)."""
    grad = np.zeros(2)
    p = float(probs[1] if label else probs[0])
    if PROB_CLIP < p < 1.0 - PROB_CLIP:
        grad[1 if label else 0] = -1.0 / p
    return grad


def predict(probs: Sequence[float]) -> int:
    """Argmax with ties resolved to class 0."""
    return 1 if float(probs[1]) > float(probs[0]) else 0


def accuracy(dists: Sequence[Sequence[float]], labels: Sequence[int]) -> float:
    if len(dists) == 0:
        raise EmptyEvalSet("no sentences to score")
    if len(dists) != len(labels):
        raise Error(f"{len(dists)} distributions vs {len(labels)} labels")
    hits = sum(1 for p, y in zip(dists, labels) if predict(p) == int(y))
    return hits / len(dists)


@dataclass
class History:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    test_acc: float = float("nan")
    degenerate_evals: int = 0
    final_params: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.train_loss)


def summarize(h: History, last_k: int = 10) -> dict[str, float]:
    """Arithmetic means of the final ``last_k`` epochs."""
    if len(h) < last_k:
        raise TooFewEpochs(f"history has {len(h)} epochs, need {last_k}")
    return {
        "mean_train_loss": float(np.mean(h.train_loss[-last_k:])),
        "mean_val_loss": float(np.mean(h.val_loss[-last_k:])),
        "mean_train_acc": float(np.mean(h.train_acc[-last_k:])),
        "mean_val_acc": float(np.mean(h.val_acc[-last_k:])),
    }


# -- optimizers -----------------------------------------------------------


@dataclass(frozen=True)
class SPSAConfig:
    a: float = 0.1
    c: float = 0.1
    big_a: float | None = None  # stability offset; None -> 0.01 * epochs
    alpha: float = 0.602
    gamma: float = 0.101


@dataclass(frozen=True)
class AdaptiveGDConfig:
    lr: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


OptimizerConfig = SPSAConfig | AdaptiveGDConfig


class SPSA:
    """Gradient-free step from one +-c_k simultaneous perturbation pair."""

    def __init__(self, cfg: SPSAConfig, n_params: int, epochs: int, rng: np.random.Generator):
        self.cfg = cfg
        self.n = n_params
        self.big_a = cfg.big_a if cfg.big_a is not None else 0.01 * epochs
        self.rng = rng
        self.k = 0

    def step(self, theta: np.ndarray, loss_fn: Callable[[np.ndarray], float]) -> np.ndarray:
        self.k += 1
        a_k = self.cfg.a / (self.k + self.big_a) ** self.cfg.alpha
        c_k = self.cfg.c / self.k**self.cfg.gamma
        delta = self.rng.choice([-1.0, 1.0], size=self.n)
        loss_plus = loss_fn(theta + c_k * delta)
        loss_minus = loss_fn(theta - c_k * delta)
        ghat = (loss_plus - loss_minus) / (2.0 * c_k) * delta
        return theta - a_k * ghat


class AdaptiveGD:
    """Moment-averaged gradient descent with bias-corrected estimates."""

    def __init__(self, cfg: AdaptiveGDConfig, n_params: int):
        self.cfg = cfg
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        c = self.cfg
        self.m = c.beta1 * self.m + (1 - c.beta1) * grad
        self.v = c.beta2 * self.v + (1 - c.beta2) * grad**2
        m_hat = self.m / (1 - c.beta1**self.t)
        v_hat = self.v / (1 - c.beta2**self.t)
        return theta - c.lr * m_hat / (np.sqrt(v_hat) + c.eps)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 120
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=SPSAConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")


# -- models ---------------------------------------------------------------


def _parse_and_rewrite(
    sentences: Sequence[Sequence[str]], lexicon: Lexicon, scheme: RewriteScheme
):
    return [
        rewrite(parse_sentence(list(words), lexicon), scheme)
        for words in sentences
    ]


class CircuitModel:
    """A shared-parameter ensemble of compiled sentence circuits.

    Each split's circuits are grouped by structure and every group is
    compiled once into a :class:`CircuitBatch` (:func:`compile_batches`);
    evaluation and gradients run one batched pass per group.
    """

    def __init__(self, circuits_by_split: dict[str, list[Circuit]]):
        self.circuits_by_split = circuits_by_split
        self.symbols: list[Symbol] = []
        seen: set[Symbol] = set()
        for split in circuits_by_split.values():
            for circ in split:
                for s in circ.symbols:
                    if s not in seen:
                        seen.add(s)
                        self.symbols.append(s)
        if not self.symbols:
            raise ZeroParameterModel("no trainable parameters in any circuit")
        pos = {s: i for i, s in enumerate(self.symbols)}
        # per split: (row positions in the split, their compiled batch)
        self._groups: dict[str, list[tuple[np.ndarray, CircuitBatch]]] = {
            name: compile_batches(split, pos) for name, split in circuits_by_split.items()
        }

    @classmethod
    def build(
        cls,
        splits: CorpusSplits,
        lexicon: Lexicon,
        scheme: RewriteScheme,
        ansatz: CircuitAnsatzConfig,
    ) -> "CircuitModel":
        by_split: dict[str, list[Circuit]] = {}
        for lset in splits:
            diagrams = _parse_and_rewrite(lset.sentences(), lexicon, scheme)
            by_split[lset.name] = [compile_circuit(d, ansatz) for d in diagrams]
        return cls(by_split)

    @property
    def n_params(self) -> int:
        return len(self.symbols)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 2.0 * np.pi, size=self.n_params)

    def eval_split(self, name: str, theta: np.ndarray):
        probs = np.empty((len(self.circuits_by_split[name]), 2))
        degenerate = 0
        for rows, batch in self._groups[name]:
            probs[rows], degen = batch_distribution(batch, theta)
            degenerate += int(degen.sum())
        return probs, degenerate

    def grad_split(self, name: str, theta: np.ndarray, labels: Sequence[int]):
        """Mean-loss gradient, exact per-parameter shift rules."""
        n = len(self.circuits_by_split[name])
        if n == 0:
            raise EmptyEvalSet("no sentences to differentiate")
        labels = np.asarray(labels)
        grad = np.zeros(self.n_params)
        total = 0.0
        degenerate = 0
        for rows, batch in self._groups[name]:
            probs, jacobian, degen = batch_distribution_gradient(batch, theta)
            ys = labels[rows]
            total += sum(bce_loss(p, y) for p, y in zip(probs, ys))
            upstream = np.array([bce_grad(p, y) for p, y in zip(probs, ys)])
            degenerate += int(degen.sum())
            np.add.at(grad, batch.gather, np.einsum("rsk,rk->rs", jacobian, upstream) / n)
        return grad, total / n, degenerate

    def params_to_named(self, theta: np.ndarray) -> dict[str, float]:
        return {s.name: float(v) for s, v in zip(self.symbols, theta)}

    def named_to_params(self, named: dict[str, float]) -> np.ndarray:
        return np.array([float(named[s.name]) for s in self.symbols])


class TensorModel:
    """A shared-parameter ensemble of sentence tensor networks.

    The real output vector ``v`` over the sentence wire is squared and
    renormalized into probabilities, ``p_i = v_i^2 / sum v^2``; a collapsed
    vector (squared norm below 1e-12) reads out as uniform.
    """

    def __init__(self, networks_by_split: dict[str, list[Network]]):
        self.networks_by_split = networks_by_split
        self.shapes: dict[Symbol, tuple[int, ...]] = {}
        self.symbols: list[Symbol] = []
        for split in networks_by_split.values():
            for net in split:
                for sym, shape in net.param_shapes().items():
                    if sym in self.shapes:
                        if self.shapes[sym] != shape:
                            raise Error(
                                f"symbol {sym.name} has conflicting shapes"
                            )
                    else:
                        self.shapes[sym] = shape
                        self.symbols.append(sym)
        self._slices: dict[Symbol, slice] = {}
        offset = 0
        for s in self.symbols:
            size = int(np.prod(self.shapes[s], dtype=int)) if self.shapes[s] else 1
            self._slices[s] = slice(offset, offset + size)
            offset += size
        self._total = offset

    @classmethod
    def build(
        cls,
        splits: CorpusSplits,
        lexicon: Lexicon,
        scheme: RewriteScheme,
        cfg: TensorAnsatzConfig,
    ) -> "TensorModel":
        by_split: dict[str, list[Network]] = {}
        for lset in splits:
            diagrams = _parse_and_rewrite(lset.sentences(), lexicon, scheme)
            by_split[lset.name] = [compile_network(d, cfg) for d in diagrams]
        return cls(by_split)

    @property
    def n_params(self) -> int:
        return self._total

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        chunks = []
        for s in self.symbols:
            shape = self.shapes[s]
            fan_in = int(np.prod(shape[:-1], dtype=int)) if len(shape) > 1 else 1
            std = 1.0 / np.sqrt(fan_in)
            size = int(np.prod(shape, dtype=int)) if shape else 1
            chunks.append(rng.normal(0.0, std, size=size))
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def store(self, theta: np.ndarray) -> dict[Symbol, np.ndarray]:
        return {
            s: theta[self._slices[s]].reshape(self.shapes[s]) for s in self.symbols
        }

    def _readout(self, vec: np.ndarray):
        v = np.asarray(vec, dtype=float).reshape(-1)
        if v.shape[0] != 2:
            raise WrongOutputArity(
                f"expected a 2-dimensional sentence vector, got {v.shape[0]}"
            )
        norm = float(v @ v)
        if norm < DEGENERATE_EPS:
            return np.array([0.5, 0.5]), v, norm, True
        return v**2 / norm, v, norm, False

    def eval_split(self, name: str, theta: np.ndarray):
        store = self.store(theta)
        probs = []
        degenerate = 0
        for net in self.networks_by_split[name]:
            p, _, _, degen = self._readout(contract(net, store))
            probs.append(p)
            degenerate += int(degen)
        return np.array(probs), degenerate

    def grad_split(self, name: str, theta: np.ndarray, labels: Sequence[int]):
        nets = self.networks_by_split[name]
        n = len(nets)
        if n == 0:
            raise EmptyEvalSet("no sentences to differentiate")
        store = self.store(theta)
        grad = np.zeros(self.n_params)
        total = 0.0
        degenerate = 0
        for net, y in zip(nets, labels):
            p, v, norm, degen = self._readout(contract(net, store))
            total += bce_loss(p, y)
            if degen:
                degenerate += 1
                continue
            g_p = bce_grad(p, y)
            # chain through p_i = v_i^2 / norm
            g_v = (2.0 * v / norm) * (g_p - float(g_p @ p))
            holes = gradient_hole(net, store, g_v.reshape(net.output_dims()))
            for sym, g_t in holes.items():
                grad[self._slices[sym]] += g_t.reshape(-1) / n
        return grad, total / n, degenerate

    def params_to_named(self, theta: np.ndarray) -> dict[str, list]:
        store = self.store(theta)
        return {s.name: store[s].tolist() for s in self.symbols}

    def named_to_params(self, named: dict[str, list]) -> np.ndarray:
        chunks = []
        for s in self.symbols:
            arr = np.asarray(named[s.name], dtype=float).reshape(-1)
            chunks.append(arr)
        return np.concatenate(chunks) if chunks else np.zeros(0)


# -- fit loop -------------------------------------------------------------


def _check_finite(value: float, what: str, epoch: int) -> float:
    if not np.isfinite(value):
        raise NonFiniteLoss(f"{what} became {value} at epoch {epoch}")
    return value


def fit(
    model,
    splits: CorpusSplits,
    cfg: TrainConfig,
    budget_seconds: float | None = None,
) -> History:
    """Train on the train split, tracking dev each epoch and test at the end."""
    for lset in splits:
        if len(lset) == 0:
            raise EmptyEvalSet(f"split {lset.name!r} is empty")
    train_labels = splits.train.labels()
    rng = np.random.default_rng(cfg.seed)
    theta = model.init_params(rng)
    history = History()

    spsa = adaptive = None
    if isinstance(cfg.optimizer, SPSAConfig):
        spsa = SPSA(cfg.optimizer, model.n_params, cfg.epochs, rng)
    elif isinstance(cfg.optimizer, AdaptiveGDConfig):
        adaptive = AdaptiveGD(cfg.optimizer, model.n_params)
    else:
        raise ConfigError(f"unknown optimizer config: {cfg.optimizer!r}")

    start = time.monotonic()
    for epoch in range(1, cfg.epochs + 1):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            raise BudgetExceeded(
                f"epoch {epoch}: exceeded budget of {budget_seconds:.0f} s"
            )
        train_probs, degen = model.eval_split("train", theta)
        history.degenerate_evals += degen
        train_loss = float(
            np.mean([bce_loss(p, y) for p, y in zip(train_probs, train_labels)])
        )
        history.train_loss.append(_check_finite(train_loss, "train loss", epoch))
        history.train_acc.append(accuracy(train_probs, train_labels))

        if spsa is not None:

            def probe_loss(vec: np.ndarray) -> float:
                probs, d = model.eval_split("train", vec)
                history.degenerate_evals += d
                return float(
                    np.mean([bce_loss(p, y) for p, y in zip(probs, train_labels)])
                )

            theta = spsa.step(theta, probe_loss)
        else:
            grad, _, d = model.grad_split("train", theta, train_labels)
            history.degenerate_evals += d
            theta = adaptive.step(theta, grad)

        dev_probs, degen = model.eval_split("dev", theta)
        history.degenerate_evals += degen
        val_loss = float(
            np.mean(
                [bce_loss(p, y) for p, y in zip(dev_probs, splits.dev.labels())]
            )
        )
        history.val_loss.append(_check_finite(val_loss, "validation loss", epoch))
        history.val_acc.append(accuracy(dev_probs, splits.dev.labels()))

    test_probs, degen = model.eval_split("test", theta)
    history.degenerate_evals += degen
    history.test_acc = accuracy(test_probs, splits.test.labels())
    history.final_params = theta
    return history
