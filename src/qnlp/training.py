"""Loss, metrics, optimizers, and the end-to-end fit loop.

A model bundles the compiled artifacts of every sentence in a corpus under
one shared parameter vector, so identical words with identical types train
one set of weights no matter how many sentences mention them.  Every model
family is built from one corpus plan (:func:`_shapes`) and one contraction
per wire dimension (:func:`_contraction`).  A sentence shape that is a
longer shape of the corpus without some modifier words, checked once per
corpus (:func:`_embedding`), is contracted in that host's network, each
box it lacks reading a constant pad, the identity on the modifier's wire
(4 shapes, 1 host on the MC corpus).  Each host's network has one dense
tensor per word box, networks that share a ``structure_key`` and cup
count form one batch, compiled once, and each batch holds its gather, one
``(rows, n_slots)`` array of value positions, rows in corpus order.
The families differ by one map stage (:meth:`_Model._values`) from a
point's parameters to its value vector, every word's dense tensor: a
tensor word of one node is its parameters, and the others are mapped in
blocks, one engine pass each, :mod:`qnlp.tensornet` over an ``mps`` or
``spider`` word's pieces and :mod:`qnlp.simulator` over a circuit block
width, whose complex maps are contracted at one qubit per wire; the pads
follow the words' tensors, and no parameter owns them.  Both
engines take ``batch_forward(batch, x)``, giving each row's output ``v``
and a tape, and ``batch_backward(batch, tape, g_v)``, which pulls the
cotangent on the leading rows' ``v`` back to their slots with no forward
pass of its own.  A sentence's weights are ``u = |v|**2`` (a circuit's
unnormalized postselected output marginal, whose sum is the survival
norm).  One readout turns a request's ``u`` into probabilities ``p = u /
sum(u)``, one pullback chains the loss back to the differentiated rows'
``v``, each group's tape takes that to its slots, one ``np.bincount``
over the gather (over the real and imaginary parts of a circuit model's)
sums the slots' cotangents per value, so a word repeated in a sentence
gets the terms of both uses, and the map stage pulls that back to the
parameters from its blocks' tapes (:meth:`_Model._pull`).
:mod:`qnlp.simulator`'s ``sentence_distribution`` and
``distribution_gradient``, and :mod:`qnlp.tensornet`'s ``contract``
and ``gradient_hole``, are the per-sentence reference of these paths.

A request (:meth:`_Model.evaluate`) names several parameter points, each
with a run of consecutive splits.  The map stage runs once for all the
points, and every group serves the request with one contraction: it
stacks each point's rows of those splits, the ``k``-th point's gather
offset by ``k * n_values`` into the points' value vectors.
``eval_split`` and ``grad_split`` are requests for one split at one
point.

Optimizers: simultaneous-perturbation stochastic approximation for
circuits (one paired probe per epoch, gain schedules ``a / (k + A)^alpha``
and ``c / k^gamma``) and an adaptive moment-based gradient descent with
exact gradients for tensors.  Either can be pointed at either model
family.  Epoch protocol: record full-batch train metrics at the current
parameters, take one optimizer step, then evaluate the dev split; the test
split is scored once after the final epoch, through the same checks.  Each
epoch ``k`` is one request.  Under SPSA it reads train and dev at
``theta_k`` and train at ``theta_k +- c_k delta_k``, with ``delta_k``
drawn before the call; under adaptive GD it reads train and dev at
``theta_k`` and differentiates the train rows alone, so the train metrics
come from the gradient pass.  Dev at ``theta_k`` is epoch ``k - 1``'s dev
readout (the first epoch's, at the initial parameters, is not recorded),
and the last epoch's dev readout and the test score share one closing
request.  Every readout passes the same checks, in the order the epochs
define, so the histories equal those of a loop that reads one split per
call; an epoch scores all of its readouts with a few array calls.

The front end of the most recent corpus is kept in the process, keyed on
content: the scheme, each split's sentences, and the lexicon types of
their words.  It parses and rewrites one sentence per shape, the
sentences whose words have the same types (4 on the MC corpus), and a
corpus that fails to parse is not kept.  Each wire dimension's
contraction is kept with it, and so is a circuit build's ansatz-free
part: it lays out every shape once, for the checks of
:func:`~qnlp.circuit.layout`, and scales the contraction at one qubit per
wire by ``1 / sqrt(2)`` per cup and each pad by ``sqrt(2)`` per cup it
brings, so a later build compiles its word blocks only; a tensor build is
kept whole per lowering config.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from qnlp import simulator, tensornet
from qnlp.circuit import (Circuit, CircuitAnsatzConfig, Symbol, ZeroParameterModel, layout,
                          type_fingerprint, word_block)
from qnlp.corpus import CorpusSplits
from qnlp.diagram import Box, Diagram
from qnlp.errors import ConfigError, Error
from qnlp.pregroup import Lexicon, PregroupType, parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite
from qnlp.simulator import WrongOutputArity
from qnlp.tensornet import (CupDeltaNode, Network, ParamNode, TensorAnsatz, TensorAnsatzConfig,
                            _lower_word, compile_network)
# Not called here (the per-item references of the batched paths); they stay
# importable from this module, where the benchmark's tracer wraps them by name.
from qnlp.circuit import compile_circuit  # noqa: F401
from qnlp.simulator import distribution_gradient, sentence_distribution  # noqa: F401
from qnlp.tensornet import contract, gradient_hole  # noqa: F401

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
    """Each row's probability of its labelled class, and the label as a mask."""
    p = np.asarray(probs, dtype=float)
    y = np.asarray(label) != 0
    return np.where(y, p[..., 1], p[..., 0]), y


def bce_loss(probs, label):
    """Binary cross-entropy with probabilities clipped to [1e-7, 1-1e-7].

    ``probs`` is a ``(B, 2)`` array with ``(B,)`` labels, giving ``(B,)``
    per-row losses, or one ``(2,)`` distribution with an int label, giving
    a float.  The fit loop scores whole readouts; the single-distribution
    form stays for callers that score one sentence at a time, such as a
    per-sentence reference loss.
    """
    picked, _ = _picked(probs, label)
    loss = -np.log(np.clip(picked, PROB_CLIP, 1.0 - PROB_CLIP))
    return float(loss) if loss.ndim == 0 else loss


def bce_grad(probs, label) -> np.ndarray:
    """d loss/d probs, shaped like ``probs``; zero where the clip is active."""
    picked, y = _picked(probs, label)
    active = (picked > PROB_CLIP) & (picked < 1.0 - PROB_CLIP)
    g = np.divide(-1.0, picked, out=np.zeros_like(picked), where=active)
    return np.where(np.stack([~y, y], axis=-1), g[..., None], 0.0)


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
    """Gradient-free step from one +-c_k simultaneous perturbation pair.

    Step ``k`` is two calls: :meth:`probes` draws ``delta`` and returns the
    pair ``theta +- c_k * delta``, and :meth:`step` takes the losses there.
    """

    def __init__(self, cfg: SPSAConfig, n_params: int, epochs: int, rng: np.random.Generator):
        self.cfg = cfg
        self.n = n_params
        self.big_a = cfg.big_a if cfg.big_a is not None else 0.01 * epochs
        self.rng = rng
        self.k = 0

    def probes(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.k += 1
        self.c_k = self.cfg.c / self.k**self.cfg.gamma
        self.delta = self.rng.choice([-1.0, 1.0], size=self.n)
        return theta + self.c_k * self.delta, theta - self.c_k * self.delta

    def step(self, theta: np.ndarray, loss_plus: float, loss_minus: float) -> np.ndarray:
        a_k = self.cfg.a / (self.k + self.big_a) ** self.cfg.alpha
        ghat = (loss_plus - loss_minus) / (2.0 * self.c_k) * self.delta
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


# The most recent corpus's key (the scheme, every split's sentences and the
# lexicon types of their words), its plan and, per ``(d_n, d_s)``, its
# contraction, with the circuit's ansatz-free part under ``CircuitModel``
# and each tensor lowering's symbols, shapes, groups and blocks under its
# config.
_front_end: tuple[tuple, tuple, dict] | None = None


def _shapes(splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme) -> tuple:
    """The corpus plan ``(shaped, words, sizes, pads)``.

    Sentences whose words have the same lexicon types parse and rewrite to
    one diagram up to its box names, box ``b`` named by word ``b``, so the
    first is parsed and rewritten, with box ``b`` renamed ``str(b)``: their
    shape.  ``shaped`` holds per shape, in order of first use, ``(shape,
    at, ids, (h, fill))``: its sentences' corpus positions (every split's
    rows in turn), ``ids[i, b]``, the index in ``words`` of sentence
    ``i``'s word ``b``, and its host (:func:`_hosts`): the index ``h`` of
    the shape whose network its rows are contracted with, its own if none,
    and per box of the host the pad it reads there or -1, where the shape's
    boxes go in order.  ``words`` holds the entries ``(lowercased word,
    type fingerprint)`` in first-use box order, ``sizes`` each split's row
    count, and ``pads`` each pad's ``(type fingerprint, cups)``; pad ``k``
    is read as entry ``len(words) + k``.
    """
    global _front_end
    sentences = tuple((lset.name, lset.sentences()) for lset in splits)
    types = {w: lexicon.lookup(w.lower())
             for w in dict.fromkeys(w for _, split in sentences for ws in split for w in ws)}
    key = (scheme, sentences, tuple(types.items()))
    if _front_end is None or _front_end[0] != key:
        _front_end = None  # hold one corpus, and none that failed to parse
        kinds, patterns, shaped, words = {}, {}, [], {}
        kind = {w: kinds.setdefault(t, len(kinds)) for w, t in types.items()}
        for at, ws in enumerate(ws for _, split in sentences for ws in split):
            s = patterns.setdefault(tuple(kind[w] for w in ws), len(shaped))
            if s == len(shaped):
                parsed = parse_sentence(list(ws), lexicon)
                d = rewrite(parsed, scheme)
                shaped.append((replace(d, boxes=tuple(replace(box, name=str(b))
                                                      for b, box in enumerate(d.boxes))),
                               list(map(type_fingerprint, d.boxes)), [], [],
                               [b for b, box in enumerate(parsed.boxes) if _modifier(box.cod)]))
            _, fps, ats, ids, _ = shaped[s]
            ats.append(at)
            ids.append([words.setdefault((w.lower(), fp), len(words)) for w, fp in zip(ws, fps)])
        hosts, pads = _hosts([(shape, mods) for shape, *_, mods in shaped], len(words))
        plan = ([(shape, np.array(ats, dtype=np.intp), np.array(ids, dtype=np.intp), host)
                 for (shape, _, ats, ids, _), host in zip(shaped, hosts)],
                list(words), {name: len(split) for name, split in sentences}, pads)
        _front_end = (key, plan, {})
    return _front_end[1]


def _modifier(t: PregroupType) -> bool:
    """``x @ x.l``, before the word it modifies, or ``x.r @ x``, after it."""
    return len(t) == 2 and (t[1] == t[0].l or t[0] == t[1].r)


def _cups(box: Box) -> int:
    """The cups an identity pad for a two-leg box brings: one for a cap
    (two codomain legs), none for a wire, minus one for a cup."""
    return (len(box.cod) - len(box.dom)) // 2


def _hosts(shapes: list, n_words: int) -> tuple[list, list]:
    """Per shape ``(h, fill)`` as :func:`_shapes` holds it, and the pads.

    ``shapes`` holds each shape with its modifier boxes.  Taken longest
    first, a shape joins the first host, in order of becoming one, that
    :func:`_embedding` finds it in, else it becomes a host.  Each host box
    it leaves out reads the pad of that box's type: the identity on the
    modifier's wire, which no parameter owns.  Pads are numbered from
    ``n_words`` in order of first use.
    """
    checked = []  # each shape with its modifiers, its network at two per wire and its key
    for shape, modifiers in shapes:
        try:
            net = compile_network(shape, TensorAnsatzConfig(TensorAnsatz.TENSOR))
            checked.append((shape, modifiers, net, tensornet.structure_key(net)))
        except Error:  # its own host, hosting none; its build raises this where it did
            checked.append((shape, modifiers, None, None))
    hosts, found, pads = [], {}, {}
    for s in sorted(range(len(shapes)), key=lambda s: -len(shapes[s][0].boxes)):
        h, drop = next(((h, drop) for h in hosts
                        if (drop := _embedding(checked[h], checked[s])) is not None), (s, ()))
        if h == s:
            hosts.append(s)
        fill = np.full(len(shapes[h][0].boxes), -1, dtype=np.intp)
        for b in drop:
            box = shapes[h][0].boxes[b]
            fill[b] = n_words + pads.setdefault((type_fingerprint(box), _cups(box)), len(pads))
        found[s] = (h, fill)
    return [found[s] for s in range(len(shapes))], list(pads)


def _embedding(host: tuple, shape: tuple) -> tuple[int, ...] | None:
    """The first set of the host's modifier boxes, in lexicographic order,
    whose removal leaves the shape, or None; each is ``(diagram, modifier
    boxes, network at two per wire, its structure key)``, both None if the
    network does not compile.

    The other boxes must have the shape's types in order, and the host's
    network, each left-out box an identity, must contract to the shape's:
    their parameter nodes, einsum labels and closed loops
    (:func:`~qnlp.tensornet.structure_key`) are equal, so the two are one
    multilinear map of the kept boxes' tensors at every wire dimension.
    The pads' cups must also make up the cups the shape lacks, as the
    circuit contraction weights each cup by ``1 / sqrt(2)``.
    """
    (d, modifiers, net, _), (want, _, _, key) = host, shape
    if net is None or key is None:
        return None
    fps = list(map(type_fingerprint, want.boxes))
    for drop in itertools.combinations(modifiers, len(d.boxes) - len(want.boxes)):
        keep = [b for b in range(len(d.boxes)) if b not in drop]
        if ([type_fingerprint(d.boxes[b]) for b in keep] != fps
                or sum(_cups(d.boxes[b]) for b in drop) != d.n_cups - want.n_cups):
            continue
        nodes = list(net.nodes)  # one node per box, in box order, then the cups
        for b in drop:
            nodes[b] = CupDeltaNode(nodes[b].shape[0])
        try:
            if tensornet.structure_key(replace(net, nodes=tuple(nodes))) == key:
                return drop
        except Error:  # a pad whose legs are not one wire type, or joins two outputs
            continue
    return None


def _contraction(d_n: int, d_s: int) -> tuple[list, np.ndarray, list, list, list]:
    """The held corpus's contraction at wire dimensions ``d_n`` and
    ``d_s``, held with it: each box one dense tensor, its word's.

    Only hosts are compiled.  Each host's network names each box by its
    index, so its node for box ``b`` reads, per row of the host and of the
    shapes it hosts, the tensor of the word or pad at ``b``.  Returns each
    word's tensor shape and the first entry of each word's and each pad's
    tensor in the value vector, words in index order, pads after them;
    then one group per structure and cup count, in order of first use,
    ``(batch, at, gather)``: its networks compiled once, their rows'
    corpus positions, ascending, and their gathers in that order; each
    group's cup count; and each pad's tensor, flat.
    """
    (shaped, words, _, pads), held = _front_end[1:]
    if (d_n, d_s) in held:
        return held[d_n, d_s]
    rows: dict[int, list] = {}  # per host, its shapes' rows as word ids at its boxes
    for _, at, ids, (h, fill) in shaped:
        full = np.repeat(fill[None], len(at), axis=0)
        full[:, fill < 0] = ids
        rows.setdefault(h, []).append((at, full))
    nets = {h: compile_network(shaped[h][0], TensorAnsatzConfig(TensorAnsatz.TENSOR, d_n, d_s))
            for h in rows}
    for net in nets.values():
        if (size := math.prod(net.output_dims())) != 2:
            raise WrongOutputArity(f"expected a 2-dimensional sentence vector, got {size}")
    params = {h: [node for node in net.nodes if isinstance(node, ParamNode)]
              for h, net in nets.items()}
    shapes = {w: node.shape for h, nodes in params.items() for node in nodes
              for _, ids in rows[h] for w in ids[:, int(node.symbol.word)].tolist()}
    shapes = [shapes[w] for w in range(len(words) + len(pads))]  # per word, then per pad
    starts = np.cumsum([0, *map(math.prod, shapes)])
    merged: dict[tuple, list] = {}
    for h, net in nets.items():
        ids = np.concatenate([ids for _, ids in rows[h]])
        # per row, the flattened entries of its word's tensor at each node
        gather = [starts[ids[:, int(n.symbol.word)], None] + np.arange(math.prod(n.shape))
                  for n in params[h]]
        cups = sum(isinstance(node, CupDeltaNode) for node in net.nodes)
        merged.setdefault((tensornet.structure_key(net), cups), []).append(
            (net, np.concatenate([at for at, _ in rows[h]]), np.concatenate(gather, axis=1)))
    groups = []
    for same in merged.values():
        at = np.concatenate([at for _, at, _ in same])
        order = np.argsort(at)
        groups.append((tensornet.compile_batch(same[0][0]), at[order],
                       np.concatenate([gather for *_, gather in same])[order]))
    held[d_n, d_s] = (shapes[: len(words)], starts, groups, [cups for _, cups in merged],
                      [np.eye(shape[0]).ravel() for shape in shapes[len(words):]])
    return held[d_n, d_s]


def _readout(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probabilities ``p = u / sum(u)`` per row, the degenerate mask and
    the norm each row was divided by.

    A row whose sum is below ``DEGENERATE_EPS`` reads out as uniform, its
    norm 1.
    """
    norm = u.sum(axis=1)
    degenerate = norm < DEGENERATE_EPS
    norm = np.where(degenerate, 1.0, norm)
    probs = u / norm[:, None]
    probs[degenerate] = 0.5
    return probs, degenerate, norm


def _pullback(v: np.ndarray, labels, n: int, readout: tuple) -> np.ndarray:
    """d(mean loss)/dv of some rows of a split of ``n`` rows, from their
    :func:`_readout`.

    The cotangent chains through ``u = |v|**2`` and ``p = u / sum(u)``:
    ``2 v (g - g . p) / (n sum(u))`` with ``g = d loss / d p``; it is zero
    on degenerate rows.  Each row's depends on its own ``v`` and label
    only.
    """
    probs, degenerate, norm = readout
    g = bce_grad(probs, labels)
    g_u = (g - (g * probs).sum(axis=1, keepdims=True)) / (n * norm[:, None])
    g_u[degenerate] = 0.0
    return 2.0 * v * g_u


class _Model:
    """The parameter table, map stage, batches and evaluation loop every
    model family shares.

    ``symbols`` are in first-use order, and ``shapes`` holds each one's
    shape (``()`` for a circuit angle); a symbol's entries follow the
    previous symbol's in the flat parameter vector.  ``sizes`` holds each
    split's row count, in split order.  The map stage (:meth:`_values`)
    gives a point's value vector of ``n_values`` entries, every word's
    dense tensor, over ``blocks`` ``(engine, batch, params, reads, cols)``:
    with no engine, the parameters ``params`` are the values ``cols``;
    otherwise ``params[i]`` holds word ``i``'s slots of one engine pass,
    and ``reads`` and ``cols`` say where the words' tensors sit in the
    pass's flat output and in the value vector.  The constants ``pads``,
    which no parameter owns, follow the words' tensors.  ``groups`` holds, per
    batch, ``(batch, at, gather)``: a compiled
    :class:`~qnlp.tensornet.TensorBatch`, its rows' corpus positions (every
    split's rows in turn), ascending, and their gather, ``gather[i, j]``
    the value that row ``i`` reads in the batch's slot ``j``.
    """

    def __init__(self, symbols: Sequence[Symbol], shapes: Sequence[tuple],
                 sizes: dict[str, int], groups: list, blocks: list, pads=np.zeros(0)):
        self.symbols = list(symbols)
        self.shapes = list(shapes)
        # symbol i owns the slice bounds[i]:bounds[i + 1] of the parameter vector
        self._bounds = np.cumsum([0, *map(math.prod, self.shapes)]).tolist()
        self.n_params = self._bounds[-1]
        self.sizes = sizes
        for batch, _, gather in groups:
            if gather.shape[1:] != (batch.n_slots,):
                raise Error(f"gather of shape {gather.shape} for {batch.n_slots} slots")
        self._groups = groups
        self._blocks = blocks
        self._pads = np.asarray(pads)
        # per value, its place among the blocks' outputs and the pads laid side by side
        cols = np.concatenate([np.zeros(0, np.intp)] + [c for *_, c in blocks])
        self._order = np.concatenate([np.argsort(cols),
                                      np.arange(len(cols), len(cols) + len(self._pads))])
        self.n_values = len(self._order)
        # per request shape, its plan (:meth:`_request`)
        self._requests: dict[tuple, list] = {}

    def _values(self, thetas: np.ndarray, keep: bool) -> tuple[np.ndarray, list]:
        """Each point's value vector, ``(points, n_values)``, in one engine
        pass per block; and with ``keep``, per engine block the first
        point's outputs and the pass's tape, for :meth:`_pull`."""
        parts, tapes = [thetas[:, :0]], []  # no values without blocks
        for engine, batch, params, reads, _ in self._blocks:
            x, tape = thetas[:, params], None
            if engine is not None:
                x, tape = engine.batch_forward(
                    batch, x.reshape(len(thetas) * len(params), batch.n_slots))
                tape = (x[: len(params)], tape) if keep else None
                x = x.reshape(len(thetas), -1)[:, reads]
            parts.append(x)
            tapes.append(tape)
        parts.append(np.broadcast_to(self._pads, (len(thetas), len(self._pads))))
        return np.concatenate(parts, axis=1)[:, self._order], tapes

    def _pull(self, tapes: list, g: np.ndarray) -> np.ndarray:
        """The parameter gradient at the first point of :meth:`_values`
        from its value vector's cotangent ``g``, pulled back through each
        block from its tape, zero on the pass's entries no value reads;
        every parameter belongs to one word, and the pads' cotangents are
        dropped."""
        grad = np.zeros(self.n_params)
        for (engine, batch, params, reads, cols), tape in zip(self._blocks, tapes):
            if engine is None:
                grad[params] = g[cols]
            elif batch.n_slots:
                v, tape = tape
                g_v = np.zeros(v.shape, v.dtype)
                g_v.ravel()[reads] = g[cols]
                grad[params] = engine.batch_backward(batch, tape, g_v)
        return grad

    def _request(self, runs: tuple[tuple[str, ...], ...]) -> tuple[list, np.ndarray, np.ndarray]:
        """Per group with rows in the request, its batch, its gather stacked
        over the runs of splits, the ``k``-th run's offset by ``k *
        n_values``, the part of it that reads the first split, which leads
        it, and those rows' slice of the first split's in group order; then
        where each group's rows land in the request's output, every run's
        splits in turn, and the positions of the first split's."""
        plan = self._requests.get(runs)
        if plan is None:
            order = list(self.sizes)
            bounds = np.cumsum([0, *self.sizes.values()])
            spans, out = [], 0  # per run: its corpus positions and first output row
            for names in runs:
                first = order.index(names[0])
                if tuple(order[first : first + len(names)]) != names:
                    raise Error(f"splits {names} are not consecutive in {order}")
                spans.append((bounds[first], bounds[first + len(names)], out))
                out += bounds[first + len(names)] - bounds[first]
            n = self.sizes[runs[0][0]]
            groups, dests, led = [], [np.zeros(0, np.intp)], 0
            for batch, at, gather in self._groups:
                rows = [np.searchsorted(at, (lo, hi)) for lo, hi, _ in spans]
                dest = np.concatenate([base + at[a:b] - lo
                                       for (lo, _, base), (a, b) in zip(spans, rows)])
                if len(dest):
                    stacked = np.concatenate([gather[a:b] + k * self.n_values
                                              for k, (a, b) in enumerate(rows)])
                    k = int(np.count_nonzero(dest < n))
                    groups.append((batch, stacked, stacked[:k], slice(led, led + k)))
                    dests.append(dest)
                    led += k
            dest = np.concatenate(dests)
            plan = self._requests[runs] = groups, dest, np.flatnonzero(dest < n)
        return plan

    def evaluate(self, points, labels=None):
        """Readouts at several parameter points from one contraction per group.

        ``points`` is a sequence of ``(names, theta)``: a run of
        consecutive split names and a parameter vector of ``n_params``
        entries.  Every group stacks each point's rows of its splits into
        one contraction, at the entries its stacked gather reads from the
        points' value vectors, and one readout serves every row.  Returns
        the gradient and, per point, per split, its probabilities and
        degenerate count.  With ``labels``, the labels of the first point's
        first split, the mean-loss gradient of that split at the first
        point comes from the same call: its rows lead every group's
        gather, one pullback gives their cotangents, and each group's and
        block's tape takes them back.  Without, the gradient is ``None``.
        """
        runs = tuple(tuple(names) for names, _ in points)
        for _, vec in points:
            if np.shape(vec) != (self.n_params,):
                raise Error(f"expected {self.n_params} parameters, got {np.size(vec)}")
        thetas = np.array([vec for _, vec in points], dtype=float)
        values, tapes = self._values(thetas, labels is not None)
        values = values.ravel()
        if labels is not None:
            n = self.sizes[runs[0][0]]
            if n == 0:
                raise EmptyEvalSet("no sentences to differentiate")
            if len(labels) != n:
                raise Error(f"expected {n} labels, got {len(labels)}")
        groups, dest, lead = self._request(runs)
        forwards = [tensornet.batch_forward(batch, values[gather]) for batch, gather, *_ in groups]
        v = np.concatenate([np.zeros((0, 2)), *(v for v, _ in forwards)])
        u = np.empty((sum(self.sizes[name] for names in runs for name in names), 2))
        u[dest] = v.real**2 + v.imag**2  # on real rows exactly v**2
        readout = _readout(u)
        grad = None
        if labels is not None:
            at = dest[lead]
            g_v = _pullback(v[lead], np.asarray(labels)[at], n, [r[at] for r in readout])
            terms = [(first, tensornet.batch_backward(batch, tape, g_v[rows]))
                     for (batch, _, first, rows), (_, tape) in zip(groups, forwards) if len(first)]
            # in order, so a value gathered twice (a word repeated in a
            # sentence) sums both terms
            index = np.concatenate([g.ravel() for g, _ in terms])
            flat = np.concatenate([t.ravel() for _, t in terms])
            g = np.bincount(index, flat.real, self.n_values)
            if np.iscomplexobj(flat):
                g = g + 1j * np.bincount(index, flat.imag, self.n_values)
            grad = self._pull(tapes, g)
        probs, degenerate, _ = readout
        ends = np.cumsum([self.sizes[name] for names in runs for name in names]).tolist()
        splits = iter([(probs[a:b], int(np.count_nonzero(degenerate[a:b])))
                       for a, b in zip([0, *ends], ends)])
        return grad, [[next(splits) for _ in names] for names in runs]

    def eval_split(self, name: str, theta: np.ndarray):
        """Probabilities of every row of the split and its degenerate count."""
        return self.evaluate([((name,), theta)])[1][0][0]

    def grad_split(self, name: str, theta: np.ndarray, labels: Sequence[int]):
        """Mean-loss gradient of the split, then the probabilities and
        degenerate count that :meth:`eval_split` returns."""
        grad, [[(probs, degenerate)]] = self.evaluate([((name,), theta)], labels)
        return grad, probs, degenerate

    def _tables(self):
        """Each symbol with its shape and its first and past-last entries."""
        b = self._bounds
        return zip(self.symbols, self.shapes, b, b[1:])

    def store(self, theta: np.ndarray) -> dict[Symbol, np.ndarray]:
        return {s: theta[lo:hi].reshape(shape) for s, shape, lo, hi in self._tables()}

    def params_to_named(self, theta: np.ndarray) -> dict:
        """Name to float for a circuit angle, to nested lists for a tensor."""
        return {s.name: v.tolist() for s, v in self.store(theta).items()}


def _circuit_contraction(shaped: list, pads: list) -> tuple[list, list, list, np.ndarray]:
    """The corpus's circuit contraction, the same under every ansatz: the
    plan's word indices in order of first use over each sentence's blocks
    (boxes in topological order), and per word in that order ``(inputs,
    outputs, columns)``, its leg counts and its map's columns in the value
    vector; then the batches of :func:`_contraction` at one qubit per wire,
    each box its word's map, a ``(2,) * legs`` tensor with its input legs
    first, and each cup scaled by ``1 / sqrt(2)``, the Bell effect; and
    the plan's ``pads``, each scaled by ``sqrt(2)`` per cup it brings."""
    rows, legs = {}, {}
    for d, at, ids, _ in shaped:
        rows.update(zip(at.tolist(), ids[:, list(d.topological_boxes())].tolist()))
        for b, box in enumerate(d.boxes):
            legs.update(dict.fromkeys(ids[:, b].tolist(), (len(box.dom), len(box.cod))))
    _, starts, groups, cups, eyes = _contraction(2, 2)
    order = list(dict.fromkeys(w for at in range(len(rows)) for w in rows[at]))
    maps = [(*legs[w], np.arange(starts[w], starts[w + 1])) for w in order]
    groups = [(replace(batch, factor=batch.factor * 0.5 ** (c / 2)), at, gather)
              for (batch, at, gather), c in zip(groups, cups)]
    scaled = [eye * 2.0 ** (c / 2) for eye, (_, c) in zip(eyes, pads)]
    return order, maps, groups, np.concatenate([np.zeros(0), *scaled])


class CircuitModel(_Model):
    """A shared-parameter ensemble of sentence circuits, contracted as their
    diagrams.

    A sentence's weights are its unnormalized postselected output
    marginal, whose sum is the survival norm.  Each word's block acts on
    its own qubits only, so the sentence's output amplitudes are its
    diagram's network with each box its word's block map and each cup the
    Bell effect.  The map stage has one :mod:`~qnlp.simulator` block per
    block width and output count, with its words' most inputs (a word
    reads the others at 0), so one statevector pass per block gives every
    word's map at every point; the rest is the tensor model's contraction.
    """

    @classmethod
    def build(cls, splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme,
              ansatz: CircuitAnsatzConfig) -> "CircuitModel":
        """Lay out every sentence shape, then compile one block per width
        and output count.

        A word's angles sit together in the parameter vector, words in the
        order :func:`~qnlp.circuit.compile_circuit` gives their symbols.
        """
        shaped, words, sizes, pads = _shapes(splits, lexicon, scheme)
        held = _front_end[2]
        slots = {k: len(word_block("", "", tuple(range(k)), ansatz)[1])
                 for k in {max(len(b.dom), len(b.cod)) for d, *_ in shaped for b in d.boxes}}
        cold = CircuitModel not in held
        for d, *_ in shaped:
            if cold:
                layout(d)  # for its checks
            if not any(slots[max(len(b.dom), len(b.cod))] for b in d.boxes):
                raise ZeroParameterModel(
                    "no trainable parameters: every block in the circuit is empty")
        if cold:
            held[CircuitModel] = _circuit_contraction(shaped, pads)
        order, maps, groups, pad_values = held[CircuitModel]
        counts = np.array([slots[max(dom, cod)] for dom, cod, _ in maps], dtype=np.intp)
        offsets = np.cumsum(counts) - counts
        symbols = [Symbol(*words[w], i) for w, n in zip(order, counts) for i in range(n)]
        if not symbols:
            raise ZeroParameterModel("no trainable parameters in any circuit")
        widths: dict[tuple[int, int], list[int]] = {}
        for w, (dom, cod, _) in enumerate(maps):
            widths.setdefault((max(dom, cod), cod), []).append(w)
        blocks = []
        for (k, cod), ws in widths.items():
            n_dom = max(maps[w][0] for w in ws)  # fresh qubits fed |0>, surplus ones postselected
            gates, block_symbols = word_block("", "", tuple(range(k)), ansatz)
            block = Circuit(k, tuple(gates), tuple(range(cod, k)), tuple(range(cod)),
                            tuple(block_symbols))
            batch = simulator.compile_batch(block, n_dom)
            # word j's map: its own inputs, the block's others at 0
            reads = [((j << n_dom) + (np.arange(1 << maps[w][0]) << n_dom - maps[w][0]))[:, None]
                     * (1 << cod) + np.arange(1 << cod) for j, w in enumerate(ws)]
            blocks.append((simulator, batch, offsets[ws, None] + np.arange(batch.n_slots),
                           np.concatenate(reads, axis=None),
                           np.concatenate([maps[w][2] for w in ws])))
        return cls(symbols, [()] * len(symbols), sizes, groups, blocks, pad_values)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 2.0 * np.pi, size=self.n_params)

    # the benchmark's tracer patches both methods in each class body
    eval_split = _Model.eval_split
    grad_split = _Model.grad_split


class TensorModel(_Model):
    """A shared-parameter ensemble of sentence tensor networks.

    A sentence's weights are its squared real output vector ``v**2``, so
    ``p_i = v_i^2 / sum v^2``; a collapsed vector (squared norm below
    1e-12) reads out as uniform.  Each batch contracts along its compiled
    tree of pairwise steps, and its gradient is one reverse sweep over
    that tree.
    """

    @classmethod
    def build(cls, splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme,
              cfg: TensorAnsatzConfig) -> "TensorModel":
        """The corpus's contraction at ``cfg``'s wire dimensions, one symbol
        per piece of each word as ``cfg`` lowers it, a word's pieces
        together, words in index order.  A word lowered to one node reads
        its tensor from its parameters; the words of one tensor shape that
        ``cfg`` splits form one block, a batch of their lowered network.
        All of it is held with the corpus per ``cfg``.
        """
        _, words, sizes, _ = _shapes(splits, lexicon, scheme)
        held = _front_end[2]
        if cfg not in held:
            shapes, starts, groups, _, pads = _contraction(cfg.d_n, cfg.d_s)
            pieces, kinds = [], {}
            for w, shape in enumerate(shapes):
                nodes, edges, legs = _lower_word(Symbol(*words[w], 0), shape, cfg, 0)
                at = sum(math.prod(node.shape) for node in pieces)
                pieces += [node for node in nodes if isinstance(node, ParamNode)]
                net = Network(*map(tuple, (nodes, edges, legs)))
                _, ids, cols = kinds.setdefault(shape if len(nodes) > 1 else None, (net, [], []))
                ids.append(np.arange(at, sum(math.prod(node.shape) for node in pieces)))
                cols.append(np.arange(starts[w], starts[w + 1]))
            blocks = [(None, None, np.concatenate(ids), None, np.concatenate(cols))
                      if shape is None else
                      (tensornet, tensornet.compile_batch(net), np.array(ids), slice(None),
                       np.concatenate(cols)) for shape, (net, ids, cols) in kinds.items()]
            held[cfg] = ([node.symbol for node in pieces], [node.shape for node in pieces],
                         groups, blocks, np.concatenate([np.zeros(0), *pads]))
        symbols, piece_shapes, groups, blocks, pads = held[cfg]
        return cls(symbols, piece_shapes, sizes, groups, blocks, pads)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        chunks = [np.zeros(0)]
        for shape in self.shapes:
            std = 1.0 / np.sqrt(math.prod(shape[:-1]))
            chunks.append(rng.normal(0.0, std, size=math.prod(shape)))
        return np.concatenate(chunks)

    eval_split = _Model.eval_split
    grad_split = _Model.grad_split


# -- fit loop -------------------------------------------------------------


def _score(history: History, scored: list) -> tuple[list[float], list[float]]:
    """The mean losses and accuracies of ``(split, epoch, labels, (probs,
    degenerate))`` readouts; their degenerate rows count in ``history``.

    In order, a readout with non-finite probabilities, then one with a row
    count other than its labels', fails the fit.  The clip bounds the loss
    of finite probabilities, so the check on them covers the loss too.
    """
    probs = [p for *_, (p, _) in scored]
    if (any(np.shape(p) != (len(y), 2) for p, (_, _, y, _) in zip(probs, scored))
            or not np.isfinite(all_probs := np.concatenate(probs)).all()):
        for p, (split, epoch, labels, _) in zip(probs, scored):
            if not np.isfinite(p).all():
                raise NonFiniteLoss(f"{split} loss became non-finite at epoch {epoch}")
            if np.shape(p) != (len(labels), 2):
                raise Error(f"{split} split: {len(labels)} sentences, probabilities {np.shape(p)}")
    history.degenerate_evals += sum(degenerate for *_, (_, degenerate) in scored)
    labels = np.concatenate([y for _, _, y, _ in scored])
    loss, hits = bce_loss(all_probs, labels), predict(all_probs) == labels
    ends = np.cumsum([len(p) for p in probs]).tolist()
    bounds = list(zip([0, *ends], ends))
    # each mean as ``.mean()`` gives it, bit for bit
    return ([float(np.add.reduce(loss[a:b]) / (b - a)) for a, b in bounds],
            [int(np.count_nonzero(hits[a:b])) / (b - a) for a, b in bounds])


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

    start = time.monotonic()
    for epoch in range(1, cfg.epochs + 1):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            raise BudgetExceeded(
                f"epoch {epoch}: exceeded budget of {budget_seconds:.0f} s"
            )
        probes = []
        if spsa is not None:
            plus, minus = spsa.probes(theta)
            _, ((train, dev), *probes) = model.evaluate(
                [(("train", "dev"), theta), (("train",), plus), (("train",), minus)])
        else:
            grad, ((train, dev),) = model.evaluate([(("train", "dev"), theta)], train_labels)
        # dev at this epoch's parameters is the previous epoch's dev readout
        losses, accs = _score(history, [("dev", epoch - 1, dev_labels, dev)] * (epoch > 1) + [
            ("train", epoch, train_labels, readout) for readout in (train, *(r for r, in probes))])
        if epoch > 1:
            history.val_loss.append(losses.pop(0))
            history.val_acc.append(accs.pop(0))
        history.train_loss.append(losses[0])
        history.train_acc.append(accs[0])
        theta = spsa.step(theta, *losses[1:]) if spsa is not None else adaptive.step(theta, grad)

    # the closing call: the last epoch's dev readout and the test score
    _, ((dev, test),) = model.evaluate([(("dev", "test"), theta)])
    (val_loss, _), (val_acc, history.test_acc) = _score(
        history, [("dev", cfg.epochs, dev_labels, dev),
                  ("test", cfg.epochs, np.asarray(splits.test.labels()), test)])
    history.val_loss.append(val_loss)
    history.val_acc.append(val_acc)
    history.final_params = theta
    return history
