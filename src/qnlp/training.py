"""Loss, metrics, optimizers, and the end-to-end fit loop.

A model bundles the compiled artifacts of every sentence in a corpus under
one shared parameter vector, so identical words with identical types train
one set of weights no matter how many sentences mention them.  Both model
families share one surface: each hands every sentence two non-negative
weights ``u``, and one readout turns them into probabilities
``p = u / sum(u)`` and one pullback chains the loss back to ``u``.  A
circuit's ``u`` is its unnormalized postselected output marginal, whose
sum is the survival norm; a network's ``u`` is its squared real output
vector.  A circuit model groups each split's circuits by structure when it
is built and runs every group as one batched statevector pass, its
gradient's shift probes included; the batches return unnormalized
marginals and the model normalizes.
:func:`qnlp.simulator.sentence_distribution` and
:func:`qnlp.simulator.distribution_gradient` are the per-sentence
reference for that path.  A tensor model groups each split's networks by
structure on the split's first use and contracts every group in one
einsum, and every hole of its gradient in one more;
:func:`qnlp.tensornet.contract` and :func:`qnlp.tensornet.gradient_hole`
are the per-network reference.

Optimizers: simultaneous-perturbation stochastic approximation for
circuits (one paired probe per epoch, gain schedules ``a / (k + A)^alpha``
and ``c / k^gamma``) and an adaptive moment-based gradient descent with
exact gradients for tensors.  Either can be pointed at either model
family.  Epoch protocol: record full-batch train metrics at the current
parameters, take one optimizer step, then evaluate the dev split; the test
split is scored once after the final epoch, through the same checks.
"""

from __future__ import annotations

import math
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
from qnlp.corpus import CorpusSplits
from qnlp.errors import ConfigError, Error
from qnlp.pregroup import Lexicon, parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite
# sentence_distribution and distribution_gradient are the per-sentence
# reference of the batched circuit path; they stay importable from this
# module, where the benchmark's tracer wraps them by name.
from qnlp.simulator import (  # noqa: F401
    CircuitBatch,
    WrongOutputArity,
    batch_marginal,
    batch_marginal_jacobian,
    compile_batches,
    distribution_gradient,
    sentence_distribution,
)
# contract and gradient_hole are the per-network reference of the batched
# tensor path, kept importable here for the same reason.
from qnlp.tensornet import (  # noqa: F401
    Network,
    TensorAnsatzConfig,
    TensorBatch,
    batch_contract,
    batch_holes,
    compile_network,
    contract,
    gradient_hole,
)
from qnlp.tensornet import compile_batches as compile_tensor_batches

PROB_CLIP = 1e-7
DEGENERATE_EPS = 1e-12
TIE_EPS = 1e-12


class EmptyEvalSet(Error):
    """Accuracy or loss over zero sentences is undefined."""


class TooFewEpochs(Error):
    """The history is shorter than the summary window."""


class NonFiniteLoss(Error):
    """Training produced a NaN or infinite loss."""


class BudgetExceeded(Error):
    """The fit loop ran past its wall-clock budget."""


# -- loss and metrics -----------------------------------------------------


def _picked(probs, label) -> tuple[np.ndarray, np.ndarray]:
    """Each row's probability of its labelled class, and the label one-hot."""
    p = np.asarray(probs, dtype=float)
    y = np.asarray(label) != 0
    return np.where(y, p[..., 1], p[..., 0]), np.stack([~y, y], axis=-1)


def bce_loss(probs, label):
    """Binary cross-entropy with probabilities clipped to [1e-7, 1-1e-7].

    ``probs`` is one ``(2,)`` distribution with an int label, giving a
    float, or a ``(B, 2)`` array with ``(B,)`` labels, giving ``(B,)``
    per-row losses.
    """
    picked, _ = _picked(probs, label)
    loss = -np.log(np.clip(picked, PROB_CLIP, 1.0 - PROB_CLIP))
    return float(loss) if loss.ndim == 0 else loss


def bce_grad(probs, label) -> np.ndarray:
    """d loss/d probs, shaped like ``probs``; zero where the clip is active."""
    picked, onehot = _picked(probs, label)
    active = (picked > PROB_CLIP) & (picked < 1.0 - PROB_CLIP)
    g = np.divide(-1.0, picked, out=np.zeros_like(picked), where=active)
    return np.where(onehot, g[..., None], 0.0)


def predict(probs):
    """Argmax per distribution; ``|p1 - p0| <= TIE_EPS`` is a tie, read as 0.

    Probabilities equal in exact arithmetic differ by rounding, so the
    tolerance keeps the per-sentence and batched paths on one class.
    """
    p = np.asarray(probs, dtype=float)
    cls = (p[..., 1] - p[..., 0] > TIE_EPS).astype(int)
    return int(cls) if cls.ndim == 0 else cls


def accuracy(dists, labels: Sequence[int]) -> float:
    if len(dists) == 0:
        raise EmptyEvalSet("no sentences to score")
    if len(dists) != len(labels):
        raise Error(f"{len(dists)} distributions vs {len(labels)} labels")
    hits = int(np.count_nonzero(predict(dists) == np.asarray(labels)))
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


def _compile_splits(splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme, compile_fn, cfg):
    """Parse, rewrite and compile every sentence, keyed by split name."""
    def one(words):
        return compile_fn(rewrite(parse_sentence(list(words), lexicon), scheme), cfg)

    return {lset.name: [one(words) for words in lset.sentences()] for lset in splits}


def _readout(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities ``p = u / sum(u)`` per row, and the degenerate mask.

    A row whose sum is below ``DEGENERATE_EPS`` reads out as uniform.
    """
    norm = u.sum(axis=1)
    degenerate = norm < DEGENERATE_EPS
    probs = u / np.where(degenerate, 1.0, norm)[:, None]
    probs[degenerate] = 0.5
    return probs, degenerate


def _pullback(u: np.ndarray, labels, n: int):
    """Summed loss of the rows, d(mean loss)/du, and the degenerate mask.

    ``n`` is the split size the mean divides by.  The cotangent chains
    through ``p = u / sum(u)``: ``(g - g . p) / sum(u)`` with
    ``g = d loss / d p``; it is zero on degenerate rows.
    """
    probs, degenerate = _readout(u)
    g = bce_grad(probs, labels)
    norm = np.where(degenerate, 1.0, u.sum(axis=1))[:, None]
    g_u = (g - (g * probs).sum(axis=1, keepdims=True)) / (n * norm)
    g_u[degenerate] = 0.0
    return float(bce_loss(probs, labels).sum()), g_u, degenerate


class _Model:
    """The parameter table both model families share.

    Every sentence reads out two non-negative weights ``u``, and
    :func:`_readout` turns them into probabilities.  Symbols are kept in
    first-use order, each with its shape (``()`` for a circuit angle) and
    its slice of the flat parameter vector.
    """

    def __init__(self, symbol_shapes):
        self.shapes: dict[Symbol, tuple[int, ...]] = {}
        for sym, shape in symbol_shapes:
            if self.shapes.setdefault(sym, shape) != shape:
                raise Error(f"symbol {sym.name} has conflicting shapes")
        self.symbols: list[Symbol] = list(self.shapes)
        self._slices: dict[Symbol, slice] = {}
        offset = 0
        for s in self.symbols:
            size = math.prod(self.shapes[s])
            self._slices[s] = slice(offset, offset + size)
            offset += size
        self.n_params = offset

    def store(self, theta: np.ndarray) -> dict[Symbol, np.ndarray]:
        return {s: theta[self._slices[s]].reshape(self.shapes[s]) for s in self.symbols}

    def params_to_named(self, theta: np.ndarray) -> dict:
        """Name to float for a circuit angle, to nested lists for a tensor."""
        return {s.name: v.tolist() for s, v in self.store(theta).items()}

    def named_to_params(self, named: dict) -> np.ndarray:
        theta = np.empty(self.n_params)
        for s in self.symbols:
            theta[self._slices[s]] = np.ravel(named[s.name])
        return theta


class CircuitModel(_Model):
    """A shared-parameter ensemble of compiled sentence circuits.

    A sentence's weights are its unnormalized postselected output
    marginal, whose sum is the survival norm.  Each split's circuits are
    grouped by structure and every group is compiled once into a
    :class:`CircuitBatch` (:func:`compile_batches`); evaluation and
    gradients run one batched pass per group.
    """

    def __init__(self, circuits_by_split: dict[str, list[Circuit]]):
        super().__init__((s, ()) for split in circuits_by_split.values()
                         for c in split for s in c.symbols)
        if not self.symbols:
            raise ZeroParameterModel("no trainable parameters in any circuit")
        self.circuits_by_split = circuits_by_split
        pos = {s: i for i, s in enumerate(self.symbols)}
        # per split: (row positions in the split, their compiled batch)
        self._groups: dict[str, list[tuple[np.ndarray, CircuitBatch]]] = {
            name: compile_batches(split, pos) for name, split in circuits_by_split.items()
        }

    @classmethod
    def build(cls, splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme,
              ansatz: CircuitAnsatzConfig) -> "CircuitModel":
        return cls(_compile_splits(splits, lexicon, scheme, compile_circuit, ansatz))

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 2.0 * np.pi, size=self.n_params)

    def eval_split(self, name: str, theta: np.ndarray):
        u = np.empty((len(self.circuits_by_split[name]), 2))
        for rows, batch in self._groups[name]:
            u[rows] = batch_marginal(batch, theta)
        probs, degenerate = _readout(u)
        return probs, int(degenerate.sum())

    def grad_split(self, name: str, theta: np.ndarray, labels: Sequence[int]):
        """Mean-loss gradient, exact per-parameter shift rules."""
        n = len(self.circuits_by_split[name])
        if n == 0:
            raise EmptyEvalSet("no sentences to differentiate")
        u = np.empty((n, 2))
        d_u = []
        for rows, batch in self._groups[name]:
            u[rows], d = batch_marginal_jacobian(batch, theta)
            d_u.append(d)
        total, g_u, degenerate = _pullback(u, labels, n)
        grad = np.zeros(self.n_params)
        for (rows, batch), d in zip(self._groups[name], d_u):
            np.add.at(grad, batch.gather, np.einsum("rsk,rk->rs", d, g_u[rows]))
        return grad, total / n, int(degenerate.sum())


class TensorModel(_Model):
    """A shared-parameter ensemble of sentence tensor networks.

    A sentence's weights are its squared real output vector ``v**2``, so
    ``p_i = v_i^2 / sum v^2``; a collapsed vector (squared norm below
    1e-12) reads out as uniform.  Each split's networks are grouped by
    structure and every group is compiled into a :class:`TensorBatch`
    on the split's first use; evaluation runs one einsum per group, and
    gradients one more per parameter position.
    """

    def __init__(self, networks_by_split: dict[str, list[Network]]):
        super().__init__(kv for split in networks_by_split.values() for net in split
                         for kv in net.param_shapes().items())
        self.networks_by_split = networks_by_split
        # per split, compiled on first use: (row positions, their batch)
        self._batches: dict[str, list[tuple[np.ndarray, TensorBatch]]] = {}

    @classmethod
    def build(cls, splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme,
              cfg: TensorAnsatzConfig) -> "TensorModel":
        return cls(_compile_splits(splits, lexicon, scheme, compile_network, cfg))

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        chunks = [np.zeros(0)]
        for s in self.symbols:
            shape = self.shapes[s]
            std = 1.0 / np.sqrt(math.prod(shape[:-1]))
            chunks.append(rng.normal(0.0, std, size=math.prod(shape)))
        return np.concatenate(chunks)

    def _groups(self, name: str) -> list[tuple[np.ndarray, TensorBatch]]:
        groups = self._batches.get(name)
        if groups is None:
            offsets = {s: sl.start for s, sl in self._slices.items()}
            groups = compile_tensor_batches(self.networks_by_split[name], offsets)
            for _, batch in groups:
                size = math.prod(batch.out_shape[1:])
                if size != 2:
                    raise WrongOutputArity(
                        f"expected a 2-dimensional sentence vector, got {size}"
                    )
            self._batches[name] = groups
        return groups

    def _vectors(self, name: str, theta: np.ndarray) -> np.ndarray:
        """The sentence vector ``v`` of every network in a split."""
        vecs = np.empty((len(self.networks_by_split[name]), 2))
        for rows, batch in self._groups(name):
            vecs[rows] = batch_contract(batch, theta)
        return vecs

    def eval_split(self, name: str, theta: np.ndarray):
        probs, degenerate = _readout(self._vectors(name, theta) ** 2)
        return probs, int(degenerate.sum())

    def grad_split(self, name: str, theta: np.ndarray, labels: Sequence[int]):
        """Mean-loss gradient, exact hole contractions."""
        n = len(self.networks_by_split[name])
        if n == 0:
            raise EmptyEvalSet("no sentences to differentiate")
        vecs = self._vectors(name, theta)
        total, g_u, degenerate = _pullback(vecs**2, labels, n)
        g_v = 2.0 * vecs * g_u  # zero on degenerate rows, as g_u is
        grad = np.zeros(self.n_params)
        for rows, batch in self._groups(name):
            for gather, g in zip(batch.gather, batch_holes(batch, theta, g_v[rows])):
                np.add.at(grad, gather, g)
        return grad, total / n, int(degenerate.sum())


# -- fit loop -------------------------------------------------------------


def _split_loss(probs: np.ndarray, labels: np.ndarray, split: str, epoch: int) -> float:
    """Mean loss of a split; non-finite probabilities or a row count that
    differs from the split's fail the fit.

    The clip bounds the loss of finite probabilities, so the check on
    them covers the loss too.
    """
    if not np.isfinite(probs).all():
        raise NonFiniteLoss(f"{split} loss became non-finite at epoch {epoch}")
    if np.shape(probs) != (len(labels), 2):
        raise Error(f"{split} split: {len(labels)} sentences, probabilities {np.shape(probs)}")
    return float(bce_loss(probs, labels).mean())


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
    train_labels = np.asarray(splits.train.labels())
    dev_labels = np.asarray(splits.dev.labels())
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

    def score(split: str, labels: np.ndarray, vec: np.ndarray, epoch: int):
        """Probabilities and checked mean loss; counts degenerate readouts."""
        probs, degenerate = model.eval_split(split, vec)
        history.degenerate_evals += degenerate
        return probs, _split_loss(probs, labels, split, epoch)

    start = time.monotonic()
    for epoch in range(1, cfg.epochs + 1):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            raise BudgetExceeded(
                f"epoch {epoch}: exceeded budget of {budget_seconds:.0f} s"
            )
        probs, loss = score("train", train_labels, theta, epoch)
        history.train_loss.append(loss)
        history.train_acc.append(accuracy(probs, train_labels))

        if spsa is not None:
            theta = spsa.step(theta, lambda vec: score("train", train_labels, vec, epoch)[1])
        else:
            grad, _, d = model.grad_split("train", theta, train_labels)
            history.degenerate_evals += d
            theta = adaptive.step(theta, grad)

        probs, loss = score("dev", dev_labels, theta, epoch)
        history.val_loss.append(loss)
        history.val_acc.append(accuracy(probs, dev_labels))

    test_labels = np.asarray(splits.test.labels())
    test_probs, _ = score("test", test_labels, theta, cfg.epochs)
    history.test_acc = accuracy(test_probs, test_labels)
    history.final_params = theta
    return history
