"""Loss, metrics, optimizers, and the end-to-end fit loop.

A model bundles every sentence of a corpus under one shared parameter
vector, so identical words with identical types train one set of weights.
It is built in three stages, the first two held with the corpus in the
process for every later build on it:

* The corpus (:class:`_Corpus`, keyed on the scheme, each split's
  sentences and the lexicon types of their words) parses and rewrites one
  sentence per shape, the sentences whose words have the same types (4 on
  the MC corpus).  A shape that is a longer shape without some modifier
  words (:func:`_embedding`) is contracted in that host's network, each box
  it lacks reading a pad, the identity on the modifier's wire.
* A contraction (:class:`_Contraction`), one per wire dimension, reads a
  value vector: every word's dense tensor, then the pads.  Host networks
  of one ``structure_key`` and cup count form a :class:`_Group`, compiled
  once, with its gather of value positions per row.  A circuit build
  scales the contraction at one qubit per wire by ``1 / sqrt(2)`` per cup
  and each pad by ``sqrt(2)`` per cup it brings.  Every model on the
  corpus at its dimensions shares it, and its plan of each request shape.
* A model (:class:`_Model`) is a parameter table and a map stage
  (:meth:`_Model._values`) from parameters to the words' tensors: a tensor
  word of one node is its parameters, the others are mapped in blocks
  (:class:`_Block`), one engine pass each, :mod:`qnlp.tensornet` over an
  ``mps`` or ``spider`` word's pieces and :mod:`qnlp.simulator` over a
  circuit block width.  A circuit build lays out every shape once, for the
  checks of :func:`~qnlp.circuit.layout`, and then compiles its blocks
  only; a tensor build's map stage is held per lowering config.

Each engine runs a batch only as a bound pass, ``Bound(batch, x, t)``,
its arrays made once and held with a request's plan (a group's) or a
model (a block's, per point count): ``forward()`` gives each row's output
``v`` and ``backward(g_v)`` pulls the cotangent on the leading ``t`` rows'
``v`` back to their slots, binding its reverse sweep's arrays on its first
call.  A sentence's weights are ``u = |v|**2`` (a circuit's unnormalized
postselected output marginal).  A request (:meth:`_Model.score`) names
several parameter points, each with a run of consecutive splits, and a
label per row.  The map stage writes every point's words' tensors into the
value vectors held with the request's plan, each group's pass contracts
every point's rows, and the request gives every row's ``u``; for a
gradient, the first split's cotangent on ``u`` (:func:`_cotangent`) goes
back through each group's pass to its slots, one ``np.bincount`` per
value, so a word repeated in a sentence gets both terms, and through the
blocks' passes to the parameters (:meth:`_Model._pull`).  :func:`_scores`
reads ``u`` out as ``p = u / sum(u)`` and scores it, over a stack of
requests at once.  :mod:`qnlp.simulator`'s ``sentence_distribution`` and
``distribution_gradient``, and :mod:`qnlp.tensornet`'s ``contract`` and
``gradient_hole``, are the per-sentence reference of these paths.

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
``theta_k`` and differentiates the train rows alone.  Dev at ``theta_k``
is epoch ``k - 1``'s dev readout (the first epoch's is not recorded), and
the last epoch's dev readout and the test score share one closing request.
A fit stacks each request's ``u`` with its shape's, reads per epoch only
what its step needs (the gradient, or the probes' losses, with their
degenerate counts) behind a finiteness guard, and scores the rest of the
history, the train and dev columns, from the stacks once at the end;
a tripped guard checks that request's splits in the order the epochs
define, so a fit fails as a loop that scores one split per call does, and
its histories are that loop's, bit for bit.
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
DEGENERATE_EPS = simulator.SURVIVAL_EPS  # the simulator's rule: a norm below it reads uniform
# a row reads class 1 only if ``p1 - p0 > TIE_EPS``: probabilities equal in
# exact arithmetic differ by rounding, and a tie reads as class 0
TIE_EPS = 1e-12


class EmptyEvalSet(Error):
    """A gradient or a fit split over zero sentences is undefined."""


class TooFewEpochs(Error):
    """The history is shorter than the summary window."""


class NonFiniteLoss(Error):
    """Training produced a NaN or infinite loss."""


class BudgetExceeded(Error):
    """The fit loop ran past its wall-clock budget."""


# -- loss and metrics -----------------------------------------------------


def bce_loss(probs, label):
    """Binary cross-entropy with probabilities clipped to [1e-7, 1-1e-7].

    ``probs`` is a ``(B, 2)`` array with ``(B,)`` labels, giving ``(B,)``
    per-row losses, or one ``(2,)`` distribution with an int label, giving
    a float.  A fit scores its requests in :func:`_scores`, which gives the
    same loss; this scores readouts of :meth:`_Model.eval_split` and
    :meth:`_Model.grad_split` outside a fit, such as a per-sentence
    reference loss or the benchmark's finite-difference gradient check.
    """
    p = np.asarray(probs, dtype=float)
    picked = np.where(np.asarray(label) != 0, p[..., 1], p[..., 0])
    loss = -np.log(np.clip(picked, PROB_CLIP, 1.0 - PROB_CLIP))
    return float(loss) if loss.ndim == 0 else loss


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
        # the draws of ``rng.choice([-1.0, 1.0], size=n)``, bit for bit, at half its cost
        self.delta = 2.0 * self.rng.integers(0, 2, size=self.n) - 1.0
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
        c, m, v = self.cfg, self.m, self.v
        m *= c.beta1  # in place, rounded as ``beta * m + (1 - beta) * grad`` is
        m += (1 - c.beta1) * grad
        v *= c.beta2
        v += (1 - c.beta2) * np.square(grad)
        root = np.sqrt(v / (1 - c.beta2**self.t))
        root += c.eps
        return theta - c.lr * (m / (1 - c.beta1**self.t)) / root


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 120
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=SPSAConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")


# -- models ---------------------------------------------------------------


@dataclass(eq=False)
class _Shape:
    """The sentences of a corpus whose words have the same lexicon types."""

    diagram: Diagram  # the first one's parse, rewritten, box ``b`` named ``str(b)``
    at: np.ndarray  # their corpus positions, every split's rows in turn
    ids: np.ndarray  # ``ids[i, b]``: the index in the words of sentence ``i``'s word ``b``
    host: int  # the shape whose network its rows are contracted with (:func:`_hosts`)
    fill: np.ndarray  # per host box, the pad read there, or -1 where its boxes go in order


@dataclass(eq=False)
class _Corpus:
    """The front end of one corpus, and what is held with it; pad ``k`` is
    entry ``len(words) + k``.  The circuits' contraction and words are held
    under ``CircuitModel``, each tensor lowering's map stage under its config."""

    key: tuple  # the scheme, every split's sentences and the lexicon types of their words
    shapes: list[_Shape]  # in order of first use
    words: list[tuple[str, str]]  # (lowercased word, type fingerprint), first-use box order
    sizes: dict[str, int]  # each split's row count
    pads: list[tuple[str, int]]  # (type fingerprint, cups)
    contractions: dict = field(default_factory=dict)  # per (d_n, d_s)
    stages: dict = field(default_factory=dict)

    def contraction(self, d_n: int, d_s: int) -> _Contraction:
        """The held contraction at wire dimensions ``d_n`` and ``d_s``, each
        box one dense tensor.  Only hosts are compiled, each node for box
        ``b`` reading per row the tensor of the word or pad at ``b``."""
        if (d_n, d_s) in self.contractions:
            return self.contractions[d_n, d_s]
        rows: dict[int, list] = {}  # per host, its shapes' rows as word ids at its boxes
        for shape in self.shapes:
            full = np.repeat(shape.fill[None], len(shape.at), axis=0)
            full[:, shape.fill < 0] = shape.ids
            rows.setdefault(shape.host, []).append((shape.at, full))
        nets = {h: compile_network(self.shapes[h].diagram,
                                   TensorAnsatzConfig(TensorAnsatz.TENSOR, d_n, d_s))
                for h in rows}
        for net in nets.values():
            if (size := math.prod(net.output_dims())) != 2:
                raise WrongOutputArity(f"expected a 2-dimensional sentence vector, got {size}")
        params = {h: [node for node in net.nodes if isinstance(node, ParamNode)]
                  for h, net in nets.items()}
        shapes = {w: node.shape for h, nodes in params.items() for node in nodes
                  for _, ids in rows[h] for w in ids[:, int(node.symbol.word)].tolist()}
        shapes = [shapes[w] for w in range(len(self.words) + len(self.pads))]
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
        for (_, cups), same in merged.items():
            at = np.concatenate([at for _, at, _ in same])
            order = np.argsort(at)
            groups.append(_Group(tensornet.compile_batch(same[0][0]), at[order],
                                 np.concatenate([gather for *_, gather in same])[order], cups))
        pads = [np.eye(shape[0]).ravel() for shape in shapes[len(self.words):]]
        self.contractions[d_n, d_s] = _Contraction(self.sizes, shapes[: len(self.words)], starts,
                                                   groups, np.concatenate([np.zeros(0), *pads]))
        return self.contractions[d_n, d_s]


# The most recent corpus; a corpus that fails to parse is not held.
_front_end: _Corpus | None = None


def _corpus(splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme) -> _Corpus:
    """The held corpus of ``splits``, made afresh if its key changed.  The
    sentences of one shape parse and rewrite to one diagram up to its box
    names, so only the first is parsed and rewritten."""
    global _front_end
    sentences = tuple((lset.name, lset.sentences()) for lset in splits)
    types = {w: lexicon.lookup(w.lower())
             for w in dict.fromkeys(w for _, split in sentences for ws in split for w in ws)}
    key = (scheme, sentences, tuple(types.items()))
    if _front_end is None or _front_end.key != key:
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
        _front_end = _Corpus(
            key, [_Shape(d, np.array(ats, dtype=np.intp), np.array(ids, dtype=np.intp), h, fill)
                  for (d, _, ats, ids, _), (h, fill) in zip(shaped, hosts)],
            list(words), {name: len(split) for name, split in sentences}, pads)
    return _front_end


def _modifier(t: PregroupType) -> bool:
    """``x @ x.l``, before the word it modifies, or ``x.r @ x``, after it."""
    return len(t) == 2 and (t[1] == t[0].l or t[0] == t[1].r)


def _cups(box: Box) -> int:
    """The cups an identity pad for a two-leg box brings: one for a cap
    (two codomain legs), none for a wire, minus one for a cup."""
    return (len(box.cod) - len(box.dom)) // 2


def _hosts(shapes: list, n_words: int) -> tuple[list, list]:
    """Per shape its host and fill (:class:`_Shape`), and the pads.

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


@dataclass(eq=False)
class _Group:
    """Networks of one structure and cup count, contracted as one batch."""

    batch: tensornet.TensorBatch  # compiled once
    at: np.ndarray  # its rows' corpus positions, ascending
    gather: np.ndarray  # ``gather[i, j]``: the value row ``i`` reads in slot ``j``
    cups: int


def _run(index: np.ndarray):
    """``index`` as a slice if it is a run of consecutive positions, whose
    reads are views and writes block copies; else as it is."""
    if index.ndim == 1 and len(index) and (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _readout(u: np.ndarray, labels: np.ndarray) -> tuple:
    """Each row's ``p = u / sum(u)``, uniform if its sum is below
    ``DEGENERATE_EPS``, over rows ``(..., rows, 2)``: the sums (1 where
    degenerate), the degenerate rows, the probabilities, and each row's
    probability of its labelled class."""
    norm = u[..., 0] + u[..., 1]
    degenerate = norm < DEGENERATE_EPS
    if fix := np.count_nonzero(degenerate):  # fix-ups only if some row is
        norm[degenerate] = 1.0
    probs = u / norm[..., None]
    if fix:
        probs[degenerate] = 0.5
    return norm, degenerate, probs, np.where(labels != 0, probs[..., 1], probs[..., 0])


def _scores(u: np.ndarray, labels: np.ndarray, ends: list[int]) -> tuple[np.ndarray, list]:
    """The scoring pass over a stack of requests' row weights ``u``,
    ``(..., rows, 2)``, against one label per row, split ``i`` ending at
    row ``ends[i]``: each row read out by :func:`_readout`, its loss as
    :func:`bce_loss` gives it, and a hit if its class, 1 only if ``p1 - p0
    > TIE_EPS``, is its label.  Gives the probabilities and per split its
    degenerate counts, mean losses (NaN where a probability is not finite)
    and accuracies (NaN for an empty split), shaped like the stack."""
    _, degenerate, probs, picked = _readout(u, labels)
    loss = -np.log(np.minimum(np.maximum(picked, PROB_CLIP), 1.0 - PROB_CLIP))
    margin = probs[..., 1] - probs[..., 0]
    # a finite probability lies in [0, 1], so the margin is finite unless one is not
    if np.count_nonzero(finite := np.isfinite(margin)) < margin.size:
        loss[~finite] = np.nan
    hits = (margin > TIE_EPS) == labels
    scores = []
    for a, b in zip([0, *ends], ends):
        size = b - a or np.nan  # an empty split's means are NaN
        # the mean as ``.mean()`` gives it, bit for bit
        scores.append((np.count_nonzero(degenerate[..., a:b], axis=-1),
                       np.add.reduce(loss[..., a:b], axis=-1) / size,
                       np.count_nonzero(hits[..., a:b], axis=-1) / size))
    return probs, scores


def _cotangent(u: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The cotangent on rows' ``u`` of their mean loss, ``(g - g . p) / (n
    sum(u))`` for ``g`` the loss's derivative in ``p``, zero on degenerate
    rows."""
    n = len(u)
    norm, degenerate, _, picked = _readout(u, labels)
    active = (picked > PROB_CLIP) & (picked < 1.0 - PROB_CLIP)
    g = np.divide(-1.0, picked, out=np.zeros(n), where=active)
    # ``g . p`` is ``g * picked``: d loss / d p is zero off the labelled class,
    # so class 1's column is ``hot - g . p``, class 0's ``(g - hot) - g . p``
    hot, gp, den = np.where(labels != 0, g, 0.0), g * picked, n * norm
    g_u = np.empty((n, 2))
    np.divide(g - hot - gp, den, out=g_u[:, 0])
    np.divide(hot - gp, den, out=g_u[:, 1])
    g_u[degenerate] = 0.0
    return g_u


@dataclass(eq=False)
class _Plan:
    """How a request of one shape runs over a contraction's groups."""

    groups: list  # per group with rows: its bound pass, gather, first split's part and slice
    dest: object  # where the groups' rows, side by side, land among the request's rows
    lead: object  # the first split's rows among the groups' rows
    at: object  # and among the request's rows
    index: np.ndarray  # the first split's gathers, flat, side by side
    ends: list[int]  # where each split's rows end, every run's splits in turn
    values: np.ndarray  # a value vector per run: words each request writes, then the pads


@dataclass(eq=False)
class _Contraction:
    """A corpus's contraction at one pair of wire dimensions, shared by
    every model on the corpus at them, and its plan of each request shape
    (:meth:`plan`).  A value vector holds each word's dense tensor, then
    each pad's, which no parameter owns."""

    sizes: dict[str, int]  # each split's row count, in split order
    shapes: list[tuple]  # each word tensor's shape
    starts: np.ndarray  # where each word's, then each pad's, tensor starts, then the end
    groups: list[_Group]  # one per structure and cup count, in order of first use
    pads: np.ndarray  # the pads' tensors side by side
    dtype: type = float  # the words' tensors': complex for circuits' maps

    def __post_init__(self):
        for g in self.groups:
            if g.gather.shape[1:] != (g.batch.n_slots,):
                raise Error(f"gather of shape {g.gather.shape} for {g.batch.n_slots} slots")
        self.n_values = int(self.starts[-1])
        self.n_word_values = int(self.starts[len(self.shapes)])
        self.requests: dict[tuple, _Plan] = {}

    def plan(self, runs: tuple[tuple[str, ...], ...]) -> _Plan:
        """The held plan of a request that reads each run of consecutive
        splits at its own point, its gathers the ``k``-th run's offset by
        ``k * n_values``; the first split's rows lead each group's."""
        plan = self.requests.get(runs)
        if plan is None:
            order = list(self.sizes)
            for name in itertools.chain(*runs):
                if name not in self.sizes:
                    raise Error(f"no split {name!r}; the corpus's splits are {order}")
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
            for group in self.groups:
                rows = [np.searchsorted(group.at, (lo, hi)) for lo, hi, _ in spans]
                dest = np.concatenate([base + group.at[a:b] - lo
                                       for (lo, _, base), (a, b) in zip(spans, rows)])
                if len(dest):
                    stacked = np.concatenate([group.gather[a:b] + k * self.n_values
                                              for k, (a, b) in enumerate(rows)])
                    k = int(np.count_nonzero(dest < n))  # bound to its rows, the first k led
                    groups.append((tensornet.Bound(group.batch, np.empty(stacked.shape, self.dtype),
                                                   k), stacked, stacked[:k], slice(led, led + k)))
                    dests.append(dest)
                    led += k
            dest = np.concatenate(dests)
            lead = np.flatnonzero(dest < n)
            values = np.zeros((len(runs), self.n_values), self.dtype)
            values[:, self.n_word_values:] = self.pads
            plan = self.requests[runs] = _Plan(
                groups, _run(dest), _run(lead), _run(dest[lead]),
                np.concatenate([np.zeros(0, np.intp), *(first.ravel() for _, _, first, _ in groups)]),
                np.cumsum([self.sizes[name] for names in runs for name in names]).tolist(), values)
        return plan

    def evaluate(self, plan: _Plan, labels: np.ndarray, grad: bool):
        """The request of ``plan``, whose value vectors hold its points'
        words' tensors, against ``labels``, one per row of the request: the
        words' cotangent of the first split's mean loss at the first point
        if ``grad``, else None, and every row's weights ``u``."""
        n, rows = plan.ends[0], plan.ends[-1]
        if grad and n == 0:
            raise EmptyEvalSet("no sentences to differentiate")
        if len(labels) != rows:
            raise Error(f"expected {rows} labels, got {len(labels)}")
        values = plan.values.ravel()
        for bound, gather, *_ in plan.groups:  # every gather is in range: no check
            values.take(gather, out=bound.values, mode="clip")
        v = [bound.forward() for bound, *_ in plan.groups]
        v = v[0] if len(v) == 1 else np.concatenate([np.zeros((0, 2), self.dtype), *v])
        u = np.empty((rows, 2))  # on real rows ``v * v`` is ``v.real**2 + v.imag**2``, bit for bit
        u[plan.dest] = v.real**2 + v.imag**2 if self.dtype is complex else v * v
        if not grad:
            return None, u
        g_v = 2.0 * v[plan.lead] * _cotangent(u[:n], labels[:n])[plan.at]
        terms = [bound.backward(g_v[part]) for bound, _, first, part in plan.groups if len(first)]
        # in order, so a value gathered twice (a word repeated in a sentence)
        # sums both terms
        flat = terms[0].ravel() if len(terms) == 1 else np.concatenate([t.ravel() for t in terms])
        g = np.bincount(plan.index, flat.real, self.n_values)
        if self.dtype is complex:
            g = g + 1j * np.bincount(plan.index, flat.imag, self.n_values)
        return g[: self.n_word_values], u  # the pads' cotangents reach no parameter


@dataclass(eq=False)
class _Block:
    """One pass of a map stage."""

    engine: object  # ``simulator``, ``tensornet`` or None: the parameters are the values
    batch: object  # the engine's compiled batch
    params: np.ndarray  # ``params[i]``: word ``i``'s slots of the pass
    reads: object  # where the words' tensors sit in the pass's flat output
    cols: np.ndarray  # and in the value vector
    width: int = 0  # the entries of a pass row's output


class _Model:
    """The parameter table and map stage every model family shares, over
    its corpus's held :class:`_Contraction`.

    ``symbols`` are in first-use order, and ``shapes`` holds each one's
    shape (``()`` for a circuit angle); a symbol's entries follow the
    previous symbol's in the flat parameter vector.
    """

    def __init__(self, contraction: _Contraction, symbols: Sequence[Symbol],
                 shapes: Sequence[tuple], blocks: list[_Block], scales: np.ndarray | None = None):
        self.contraction = contraction
        self.symbols = list(symbols)
        self.shapes = list(shapes)
        # symbol i owns the slice bounds[i]:bounds[i + 1] of the parameter vector
        self._bounds = np.cumsum([0, *map(math.prod, self.shapes)]).tolist()
        self.n_params = self._bounds[-1]
        self._blocks = blocks
        self._scales = scales  # a tensor model's, per entry: the scale of its initial draw
        # per block, its parameters and value columns, a run of either as a slice
        self._maps = [(block, _run(block.params), _run(block.cols)) for block in blocks]
        self._passes: dict[int, list] = {}  # per point count, per block (:meth:`_bound`)

    def _bound(self, points: int) -> list:
        """Per engine block at ``points`` points, its bound pass, the first
        point's words differentiated, where the pass's rows read the points'
        parameters, and the cotangent on the first point's rows' outputs,
        zero where no value reads them; None for the other blocks."""
        if points not in self._passes:
            self._passes[points] = passes = []
            for block in self._blocks:  # stacked, not reshaped: a block may have no slots
                index = np.concatenate([block.params + k * self.n_params for k in range(points)])
                passes.append(None if block.engine is None else (
                    block.engine.Bound(block.batch, np.empty(index.shape), len(block.params)),
                    index, np.zeros((len(block.params), block.width), self.contraction.dtype)))
        return self._passes[points]

    def _values(self, thetas: np.ndarray, values: np.ndarray) -> list:
        """Write each point's words' tensors to its row of ``values``, in
        one engine pass per block, and give the passes for :meth:`_pull`."""
        passes = self._bound(len(thetas))
        for (block, params, cols), bound in zip(self._maps, passes):
            if bound is None:
                values[:, cols] = thetas[:, params]
            else:
                thetas.take(bound[1], out=bound[0].values, mode="clip")
                values[:, cols] = bound[0].forward().reshape(len(thetas), -1)[:, block.reads]
        return passes

    def _pull(self, passes: list, g: np.ndarray) -> np.ndarray:
        """The parameter gradient at the first point of :meth:`_values`
        from its words' cotangent ``g``, pulled back through each block's
        pass; every parameter belongs to one word."""
        grad = np.zeros(self.n_params)
        for (block, params, cols), bound in zip(self._maps, passes):
            if bound is None:
                grad[params] = g[cols]
            else:
                bound, _, g_v = bound
                g_v.ravel()[block.reads] = g[cols]
                grad[params] = bound.backward(g_v)
        return grad

    def score(self, points, labels: np.ndarray, grad: bool = False):
        """A request at several points ``(names, theta)``, each a run of
        consecutive split names and a parameter vector, against one label
        per row, every point's splits in turn: the gradient of the first
        point's first split's mean loss there if ``grad``, else None, and
        every row's weights ``u``, ``(rows, 2)``."""
        runs = tuple(tuple(names) for names, _ in points)
        for _, vec in points:
            if np.shape(vec) != (self.n_params,):
                raise Error(f"expected {self.n_params} parameters, got {np.size(vec)}")
        plan = self.contraction.plan(runs)
        passes = self._values(np.array([vec for _, vec in points], dtype=float), plan.values)
        g, u = self.contraction.evaluate(plan, np.asarray(labels), grad)
        return (None if g is None else self._pull(passes, g)), u

    def _split(self, name: str, theta: np.ndarray, labels: np.ndarray, grad: bool) -> tuple:
        """One split's request and its :func:`_scores`, a one-item stack."""
        g, u = self.score([((name,), theta)], labels, grad)
        probs, [(degenerate, _, _)] = _scores(u[None], labels, [len(u)])
        return g, probs[0], int(degenerate[0])

    def eval_split(self, name: str, theta: np.ndarray):
        """Probabilities of every row of the split and its degenerate count."""
        labels = np.zeros(self.contraction.plan(((name,),)).ends[0], np.intp)
        return self._split(name, theta, labels, False)[1:]

    def grad_split(self, name: str, theta: np.ndarray, labels: Sequence[int]):
        """Mean-loss gradient of the split, then the probabilities and
        degenerate count that :meth:`eval_split` returns."""
        return self._split(name, theta, np.asarray(labels), True)

    def _tables(self):
        """Each symbol with its shape and its first and past-last entries."""
        b = self._bounds
        return zip(self.symbols, self.shapes, b, b[1:])

    def store(self, theta: np.ndarray) -> dict[Symbol, np.ndarray]:
        return {s: theta[lo:hi].reshape(shape) for s, shape, lo, hi in self._tables()}

    def params_to_named(self, theta: np.ndarray) -> dict:
        """Name to float for a circuit angle, to nested lists for a tensor."""
        return {s.name: v.tolist() for s, v in self.store(theta).items()}


def _circuit_contraction(corpus: _Corpus) -> tuple[_Contraction, list]:
    """The circuit contraction, the same under every ansatz: at one qubit
    per wire, each box its word's ``(2,) * legs`` map, each cup scaled by
    ``1 / sqrt(2)`` and each pad by ``sqrt(2)`` per cup it brings; then per
    word, in first-use order over the blocks, ``(word, inputs, outputs, columns)``."""
    rows, legs = {}, {}
    for shape in corpus.shapes:
        d = shape.diagram
        rows.update(zip(shape.at.tolist(), shape.ids[:, list(d.topological_boxes())].tolist()))
        for b, box in enumerate(d.boxes):
            legs.update(dict.fromkeys(shape.ids[:, b].tolist(), (len(box.dom), len(box.cod))))
    plain = corpus.contraction(2, 2)
    order = dict.fromkeys(w for at in range(len(rows)) for w in rows[at])
    words = [(w, *legs[w], np.arange(plain.starts[w], plain.starts[w + 1])) for w in order]
    scale = [2.0 ** (c / 2) for _, c in corpus.pads]
    pads = plain.pads * np.repeat(scale, np.diff(plain.starts[len(plain.shapes):]))
    groups = [replace(g, batch=replace(g.batch, factor=g.batch.factor * 0.5 ** (g.cups / 2)))
              for g in plain.groups]
    return replace(plain, groups=groups, pads=pads, dtype=complex), words


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
        corpus = _corpus(splits, lexicon, scheme)
        slots = {k: len(word_block("", "", tuple(range(k)), ansatz)[1])
                 for k in {max(len(b.dom), len(b.cod)) for s in corpus.shapes
                           for b in s.diagram.boxes}}
        cold = CircuitModel not in corpus.stages
        for shape in corpus.shapes:
            if cold:
                layout(shape.diagram)  # for its checks
            if not any(slots[max(len(b.dom), len(b.cod))] for b in shape.diagram.boxes):
                raise ZeroParameterModel(
                    "no trainable parameters: every block in the circuit is empty")
        if cold:
            corpus.contractions[CircuitModel], corpus.stages[CircuitModel] = \
                _circuit_contraction(corpus)
        words = corpus.stages[CircuitModel]
        counts = np.array([slots[max(dom, cod)] for _, dom, cod, _ in words], dtype=np.intp)
        offsets = np.cumsum(counts) - counts
        symbols = [Symbol(*corpus.words[w], i) for (w, *_), n in zip(words, counts)
                   for i in range(n)]
        if not symbols:
            raise ZeroParameterModel("no trainable parameters in any circuit")
        widths: dict[tuple[int, int], list[int]] = {}
        for j, (_, dom, cod, _) in enumerate(words):
            widths.setdefault((max(dom, cod), cod), []).append(j)
        blocks = []
        for (k, cod), js in widths.items():
            n_dom = max(words[j][1] for j in js)  # fresh qubits fed |0>, surplus ones postselected
            gates, block_symbols = word_block("", "", tuple(range(k)), ansatz)
            block = Circuit(k, tuple(gates), tuple(range(cod, k)), tuple(range(cod)),
                            tuple(block_symbols))
            batch = simulator.compile_batch(block, n_dom)
            # word j's map: its own inputs, the block's others at 0
            reads = [((i << n_dom) + (np.arange(1 << words[j][1]) << n_dom - words[j][1]))[:, None]
                     * (1 << cod) + np.arange(1 << cod) for i, j in enumerate(js)]
            blocks.append(_Block(simulator, batch, offsets[js, None] + np.arange(batch.n_slots),
                                 np.concatenate(reads, axis=None),
                                 np.concatenate([words[j][3] for j in js]), 1 << n_dom + cod))
        return cls(corpus.contractions[CircuitModel], symbols, [()] * len(symbols), blocks)

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
        """One symbol per piece of each word as ``cfg`` lowers it, words in
        index order.  A word of one node reads its tensor from its
        parameters; the words of one tensor shape that ``cfg`` splits form
        one block.  The symbols, their shapes and the blocks are held."""
        corpus = _corpus(splits, lexicon, scheme)
        contraction = corpus.contraction(cfg.d_n, cfg.d_s)
        if cfg not in corpus.stages:
            pieces, kinds = [], {}
            for w, shape in enumerate(contraction.shapes):
                nodes, edges, legs = _lower_word(Symbol(*corpus.words[w], 0), shape, cfg, 0)
                at = sum(math.prod(node.shape) for node in pieces)
                pieces += [node for node in nodes if isinstance(node, ParamNode)]
                net = Network(*map(tuple, (nodes, edges, legs)))
                _, ids, cols = kinds.setdefault(shape if len(nodes) > 1 else None, (net, [], []))
                ids.append(np.arange(at, sum(math.prod(node.shape) for node in pieces)))
                cols.append(np.arange(contraction.starts[w], contraction.starts[w + 1]))
            blocks = [_Block(None, None, np.concatenate(ids), None, np.concatenate(cols))
                      if shape is None else
                      _Block(tensornet, tensornet.compile_batch(net), np.array(ids), slice(None),
                             np.concatenate(cols), math.prod(shape))
                      for shape, (net, ids, cols) in kinds.items()]
            shapes = [node.shape for node in pieces]
            # a piece's entries are drawn at 1 / sqrt(its fan-in, every leg but the last)
            scales = np.repeat([1.0 / np.sqrt(math.prod(shape[:-1])) for shape in shapes],
                               list(map(math.prod, shapes)))
            corpus.stages[cfg] = ([node.symbol for node in pieces], shapes, blocks, scales)
        return cls(contraction, *corpus.stages[cfg])

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, self._scales)

    eval_split = _Model.eval_split
    grad_split = _Model.grad_split


# -- fit loop -------------------------------------------------------------


class _Stack:
    """One request shape of a fit: its runs of splits, their labels, one
    per row, and every request's row weights ``u``, ``(requests, rows, 2)``."""

    def __init__(self, labels: dict, runs: tuple, requests: int, checks: tuple):
        self.runs = runs
        self.names = [name for run in runs for name in run]
        self.ends = list(itertools.accumulate(len(labels[name]) for name in self.names))
        self.labels = np.concatenate([labels[name] for name in self.names])
        self.u = np.empty((requests, self.ends[-1], 2))
        self.checks = checks  # the splits fit checks, in the order the epochs define: (index, lag)

    def put(self, k: int, u: np.ndarray, epoch: int) -> None:
        """Write request ``k``'s weights.  If one is not finite, or the rows
        are not the request's, each checked split, recorded at ``epoch``
        less its lag, is read from its rows first: one whose probabilities
        are not all finite, then one whose rows ``u`` lacks, fails the fit."""
        if u.shape != self.u.shape[1:] or not np.isfinite(u).all():
            for i, lag in (check for check in self.checks if epoch > check[1]):
                a, b = [0, *self.ends][i], self.ends[i]
                if not np.isfinite(_readout(u[a:b], 0)[2]).all():
                    raise NonFiniteLoss(f"{self.names[i]} loss became non-finite at "
                                        f"epoch {epoch - lag}")
                if u[a:b].shape != (b - a, 2):
                    raise Error(f"{self.names[i]} split: {b - a} sentences, "
                                f"probabilities {u[a:b].shape}")
            if u.shape != self.u.shape[1:]:
                raise Error(f"expected {self.ends[-1]} rows of weights, got {u.shape}")
        self.u[k] = u

    def scores(self) -> list:
        """Per split of the first run, its degenerate counts, mean losses and
        accuracies, one per request."""
        ends = self.ends[: len(self.runs[0])]
        return _scores(self.u[:, : ends[-1]], self.labels[: ends[-1]], ends)[1]


def fit(
    model,
    splits: CorpusSplits,
    cfg: TrainConfig,
    budget_seconds: float | None = None,
) -> History:
    """Train on the train split, tracking dev each epoch and test at the end.

    Each request's row weights go to the stack of its shape, whose labels
    are bound once, and the history is scored from the stacks in one pass
    each after the closing request.  An epoch reads only what its step
    needs, and a guard: in the order the epochs define, a split score with
    a non-finite probability, then one with a row count other than its
    labels', fails the fit."""
    for lset in splits:
        if len(lset) == 0:
            raise EmptyEvalSet(f"split {lset.name!r} is empty")
    labels = {lset.name: lset.label_array for lset in splits}
    rng = np.random.default_rng(cfg.seed)
    theta = model.init_params(rng)

    spsa = adaptive = None
    if isinstance(cfg.optimizer, SPSAConfig):
        spsa = SPSA(cfg.optimizer, model.n_params, cfg.epochs, rng)
    elif isinstance(cfg.optimizer, AdaptiveGDConfig):
        adaptive = AdaptiveGD(cfg.optimizer, model.n_params)
    else:
        raise ConfigError(f"unknown optimizer config: {cfg.optimizer!r}")

    n, probed = len(labels["train"]), 0  # the probes' degenerate readouts
    probes = (("train",),) * 2 if spsa is not None else ()
    # dev at an epoch's parameters is recorded as the previous epoch's
    epochs = _Stack(labels, (("train", "dev"), *probes), cfg.epochs,
                    ((1, 1), (0, 0), (2, 0), (3, 0))[: 2 + len(probes)])
    closing = _Stack(labels, (("dev", "test"),), 1, ((0, 0), (1, 0)))

    start = time.monotonic()
    for epoch in range(1, cfg.epochs + 1):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            raise BudgetExceeded(
                f"epoch {epoch}: exceeded budget of {budget_seconds:.0f} s"
            )
        if spsa is not None:
            plus, minus = spsa.probes(theta)
            _, u = model.score(list(zip(epochs.runs, (theta, plus, minus))), epochs.labels)
        else:
            grad, u = model.score([(epochs.runs[0], theta)], epochs.labels, True)
        epochs.put(epoch - 1, u, epoch)
        if spsa is not None:
            _, [(dead, losses, _)] = _scores(u[-2 * n :].reshape(2, n, 2), labels["train"], [n])
            probed += int(dead.sum())
            theta = spsa.step(theta, *losses.tolist())
        else:
            theta = adaptive.step(theta, grad)

    # the closing request: the last epoch's dev readout and the test score
    _, u = model.score([(closing.runs[0], theta)], closing.labels)
    closing.put(0, u, cfg.epochs)
    (train, dev), (last, test) = epochs.scores(), closing.scores()
    return History(
        train_loss=train[1].tolist(), val_loss=[*dev[1][1:].tolist(), *last[1].tolist()],
        train_acc=train[2].tolist(), val_acc=[*dev[2][1:].tolist(), *last[2].tolist()],
        test_acc=float(test[2][0]), final_params=theta,
        degenerate_evals=int(train[0].sum() + dev[0][1:].sum() + last[0][0] + test[0][0]
                             + probed))
