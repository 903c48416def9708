"""Loss, metrics, optimizers, and the end-to-end fit loop.

A model bundles the compiled artifacts of every sentence in a corpus under
one shared parameter vector, so identical words with identical types train
one set of weights no matter how many sentences mention them.  Both model
families share one surface: each hands every sentence two non-negative
weights ``u``, and one readout turns them into probabilities
``p = u / sum(u)`` and one pullback chains the loss back to ``u``.  A
circuit's ``u`` is its unnormalized postselected output marginal, whose
sum is the survival norm; a network's ``u`` is its squared real output
vector.  On a split's first use, either model groups its items by the
backend's ``structure_key`` and compiles each group once with the
backend's ``compile_batch``: one batched statevector pass per circuit
group, or one walk of each network group's contraction tree.  A gradient
adds one reverse sweep: adjoint differentiation reruns a circuit group's
forward pass chunk by chunk and sweeps back through its gates, and hole
contractions run back down a network group's tree from the intermediates
its forward walk kept.  Both backends bind parameters per use: a
circuit's parametric gate, or a network's parameter tensor, is a slot of
its own, gathered from the parameter vector, and one ``np.bincount`` per
split sums the slots' gradient terms back per parameter, so a word
repeated in a sentence gets the terms of both uses.
:mod:`qnlp.simulator`'s ``sentence_distribution`` and
``distribution_gradient``, and :mod:`qnlp.tensornet`'s ``contract`` and
``gradient_hole``, are the per-item reference of these paths.

Optimizers: simultaneous-perturbation stochastic approximation for
circuits (one paired probe per epoch, gain schedules ``a / (k + A)^alpha``
and ``c / k^gamma``) and an adaptive moment-based gradient descent with
exact gradients for tensors.  Either can be pointed at either model
family.  Epoch protocol: record full-batch train metrics at the current
parameters, take one optimizer step, then evaluate the dev split; the test
split is scored once after the final epoch, through the same checks.
Under gradient descent the train metrics come from the gradient pass,
which reads out the same probabilities, so no forward runs twice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from qnlp import simulator, tensornet
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
    WrongOutputArity,
    batch_marginal,
    batch_vjp,
    distribution_gradient,
    sentence_distribution,
)
# contract and gradient_hole are the per-network reference of the batched
# tensor path, kept importable here for the same reason.
from qnlp.tensornet import (  # noqa: F401
    Network,
    TensorAnsatzConfig,
    batch_contract,
    batch_forward,
    batch_holes,
    compile_network,
    contract,
    gradient_hole,
)

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
    # degenerate rows over every split readout of the fit; under adaptive GD
    # an epoch's train readout is its gradient pass's, counted once
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


def _pullback(u: np.ndarray, labels):
    """Probabilities of the rows, d(mean loss)/du, and the degenerate mask.

    The mean divides by the row count.  The cotangent chains through
    ``p = u / sum(u)``: ``(g - g . p) / sum(u)`` with ``g = d loss / d p``;
    it is zero on degenerate rows.
    """
    n = len(u)
    if n == 0:
        raise EmptyEvalSet("no sentences to differentiate")
    probs, degenerate = _readout(u)
    g = bce_grad(probs, labels)
    norm = np.where(degenerate, 1.0, u.sum(axis=1))[:, None]
    g_u = (g - (g * probs).sum(axis=1, keepdims=True)) / (n * norm)
    g_u[degenerate] = 0.0
    return probs, g_u, degenerate


class _Model:
    """The parameter table and batch lifecycle both model families share.

    Every sentence reads out two non-negative weights ``u``, and
    :func:`_readout` turns them into probabilities.  Symbols are kept in
    first-use order, each with its shape (``()`` for a circuit angle) and
    its slice of the flat parameter vector.  On a split's first use its
    items are grouped by the family's ``_structure_key`` and each group is
    compiled once by its ``_compile_batch``, which receives every symbol's
    offset in the parameter vector (for a circuit angle, its index).
    """

    def __init__(self, items_by_split: dict[str, list], symbol_shapes):
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
        self.items_by_split = items_by_split
        # per split, compiled on first use: (row positions, their batch)
        self._batches: dict[str, list[tuple[np.ndarray, object]]] = {}

    def _groups(self, name: str) -> list[tuple[np.ndarray, object]]:
        groups = self._batches.get(name)
        if groups is None:
            items = self.items_by_split[name]
            rows_of: dict[tuple, list[int]] = {}
            for r, item in enumerate(items):
                rows_of.setdefault(self._structure_key(item), []).append(r)
            offsets = {s: sl.start for s, sl in self._slices.items()}
            groups = self._batches[name] = [
                (np.array(rows), self._compile_batch([items[r] for r in rows], offsets))
                for rows in rows_of.values()
            ]
        return groups

    def _per_row(self, name: str, run) -> np.ndarray:
        """``run(batch)`` of every group, placed at the group's rows."""
        out = np.empty((len(self.items_by_split[name]), 2))
        for rows, batch in self._groups(name):
            out[rows] = run(batch)
        return out

    def _scatter(self, gathers, values) -> np.ndarray:
        """Sum every ``values`` entry into the parameter vector at the
        position its ``gathers`` entry names, in order, so a position
        gathered twice (a word repeated in a sentence) gets both terms."""
        return np.bincount(np.concatenate([g.ravel() for g in gathers]),
                           np.concatenate([v.ravel() for v in values]), self.n_params)

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
    marginal, whose sum is the survival norm.  Each group of a split runs
    as one batched statevector pass, for evaluation and for gradients.
    """

    _structure_key = staticmethod(simulator.structure_key)
    _compile_batch = staticmethod(simulator.compile_batch)

    def __init__(self, items_by_split: dict[str, list[Circuit]]):
        super().__init__(items_by_split, ((s, ()) for split in items_by_split.values()
                                          for c in split for s in c.symbols))
        if not self.symbols:
            raise ZeroParameterModel("no trainable parameters in any circuit")

    @classmethod
    def build(cls, splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme,
              ansatz: CircuitAnsatzConfig) -> "CircuitModel":
        return cls(_compile_splits(splits, lexicon, scheme, compile_circuit, ansatz))

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 2.0 * np.pi, size=self.n_params)

    def eval_split(self, name: str, theta: np.ndarray):
        probs, degenerate = _readout(self._per_row(name, lambda b: batch_marginal(b, theta)))
        return probs, int(degenerate.sum())

    def grad_split(self, name: str, theta: np.ndarray, labels: Sequence[int]):
        """Mean-loss gradient by adjoint differentiation, one forward pass
        and one reverse sweep per group chunk, summed per parameter, then
        the probabilities and degenerate count that :meth:`eval_split`
        returns."""
        u = self._per_row(name, lambda b: batch_marginal(b, theta))
        probs, g_u, degenerate = _pullback(u, labels)
        groups = self._groups(name)
        grad = self._scatter([batch.gather for _, batch in groups],
                             [batch_vjp(batch, theta, g_u[rows]) for rows, batch in groups])
        return grad, probs, int(degenerate.sum())


class TensorModel(_Model):
    """A shared-parameter ensemble of sentence tensor networks.

    A sentence's weights are its squared real output vector ``v**2``, so
    ``p_i = v_i^2 / sum v^2``; a collapsed vector (squared norm below
    1e-12) reads out as uniform.  Each group of a split contracts along
    its compiled tree of pairwise steps, and its gradient is one reverse
    sweep over that tree.
    """

    _structure_key = staticmethod(tensornet.structure_key)

    def __init__(self, items_by_split: dict[str, list[Network]]):
        super().__init__(items_by_split, (kv for split in items_by_split.values()
                                          for net in split for kv in net.param_shapes().items()))

    @staticmethod
    def _compile_batch(nets, offsets):
        batch = tensornet.compile_batch(nets, offsets)
        size = math.prod(batch.out_shape[1:])
        if size != 2:
            raise WrongOutputArity(f"expected a 2-dimensional sentence vector, got {size}")
        return batch

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

    def eval_split(self, name: str, theta: np.ndarray):
        vecs = self._per_row(name, lambda b: batch_contract(b, theta))
        probs, degenerate = _readout(vecs**2)
        return probs, int(degenerate.sum())

    def grad_split(self, name: str, theta: np.ndarray, labels: Sequence[int]):
        """Mean-loss gradient by exact hole contractions, one reverse sweep
        per group over its forward pass's nodes, then the probabilities and
        degenerate count that :meth:`eval_split` returns."""
        groups = self._groups(name)
        vecs = np.empty((len(self.items_by_split[name]), 2))
        trees = []
        for rows, batch in groups:
            vecs[rows], nodes = batch_forward(batch, theta)
            trees.append(nodes)
        probs, g_u, degenerate = _pullback(vecs**2, labels)
        g_v = 2.0 * vecs * g_u  # zero on degenerate rows, as g_u is
        grad = self._scatter([g for _, batch in groups for g in batch.gather],
                             [h for (rows, batch), nodes in zip(groups, trees)
                              for h in batch_holes(batch, nodes, g_v[rows])])
        return grad, probs, int(degenerate.sum())


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

    def score(split: str, labels: np.ndarray, readout, epoch: int):
        """Probabilities and checked mean loss of a ``(probs, degenerate)``
        readout; counts its degenerate rows."""
        probs, degenerate = readout
        history.degenerate_evals += degenerate
        return probs, _split_loss(probs, labels, split, epoch)

    start = time.monotonic()
    for epoch in range(1, cfg.epochs + 1):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            raise BudgetExceeded(
                f"epoch {epoch}: exceeded budget of {budget_seconds:.0f} s"
            )
        if spsa is not None:
            readout = model.eval_split("train", theta)
        else:
            grad, *readout = model.grad_split("train", theta, train_labels)
        probs, loss = score("train", train_labels, readout, epoch)
        history.train_loss.append(loss)
        history.train_acc.append(accuracy(probs, train_labels))

        if spsa is not None:
            theta = spsa.step(theta, lambda vec: score(
                "train", train_labels, model.eval_split("train", vec), epoch)[1])
        else:
            theta = adaptive.step(theta, grad)

        probs, loss = score("dev", dev_labels, model.eval_split("dev", theta), epoch)
        history.val_loss.append(loss)
        history.val_acc.append(accuracy(probs, dev_labels))

    test_labels = np.asarray(splits.test.labels())
    test_probs, _ = score("test", test_labels, model.eval_split("test", theta), cfg.epochs)
    history.test_acc = accuracy(test_probs, test_labels)
    history.final_params = theta
    return history
