"""Loss, metrics, optimizers, and the end-to-end fit loop.

A model bundles the compiled artifacts of every sentence in a corpus under
one shared parameter vector, so identical words with identical types train
one set of weights no matter how many sentences mention them.  Both model
families build one way and run one loop over one engine contract, which
:mod:`qnlp.simulator` and :mod:`qnlp.tensornet` both provide.  A build
lowers one sentence per group of its corpus plan (below); the model merges
the groups whose items share a ``structure_key``, and
``compile_batch(first, gather)`` compiles each merged group at build, from
one item and every row's parameter positions, rows in corpus order.
``batch_forward(batch, theta)`` gives each row two non-negative weights
``u``, and ``batch_backward(batch, theta, pull)`` gives ``u`` from its own
forward pass and pulls the cotangent that ``pull`` returns for the leading
rows back to the group's parameter slots, laid out like ``batch.gather``.
A circuit's ``u`` is its unnormalized postselected output marginal, whose
sum is the survival norm; a network's ``u`` is its squared real output
vector.  One readout turns a split's ``u`` into probabilities ``p = u /
sum(u)``, one pullback per row chains the loss back to ``u``, and one
``np.bincount`` sums the slots' gradient terms back per parameter, so a
word repeated in a sentence gets the terms of both uses.
:mod:`qnlp.simulator`'s ``sentence_distribution`` and
``distribution_gradient``, and :mod:`qnlp.tensornet`'s ``contract`` and
``gradient_hole``, are the per-item reference of these paths.

A request (:meth:`_Model.evaluate`) names several parameter points, each
with a run of consecutive splits.  Every group serves it with one engine
call: it stacks each point's rows of those splits, the ``k``-th point's
copy of ``batch.gather`` offset by ``k * n_params`` into the points'
concatenated vectors.  ``eval_split`` and ``grad_split`` are requests for
one split at one point.

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
call.

The parsed and rewritten diagrams of the most recent corpus are kept in
the process, keyed on content: the scheme, each split's sentences, and the
lexicon types of their words.  Cells of a sweep that share a corpus and a
scheme parse it once per worker; a corpus that fails to parse is not kept.
Each family's first build adds its plan of the corpus, unless a placement
raises: a word table, and the sentences grouped by their circuit layout
or by their diagram with each box named by its index, each group with a
word-index array.  On the MC corpus either plan has a group per sentence
pattern.  A circuit model also runs a structure in the batch of a longer
host whose extra gates all read a parameter (:func:`_merge_groups`); on
the MC corpus under ``re_norm_cur_norm``, every cell with rotations is
one group.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from qnlp import simulator, tensornet
from qnlp.circuit import (CircuitAnsatzConfig, Symbol, ZeroParameterModel, layout, lower,
                          type_fingerprint, word_block)
from qnlp.corpus import CorpusSplits
from qnlp.diagram import Diagram
from qnlp.errors import ConfigError, Error
from qnlp.pregroup import Lexicon, parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite
from qnlp.simulator import WrongOutputArity
from qnlp.tensornet import ParamNode, TensorAnsatzConfig, compile_network
# Not called here: compile_circuit, which CircuitModel.build runs as its two
# steps apart, and the per-item references of the batched paths.  They stay
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


# The most recent corpus's key (the scheme, every split's sentences and
# the lexicon types of their words), its parsed and rewritten diagrams and,
# per placement a build has made, its plan.  One corpus only is held.
_front_end: tuple[tuple, dict[str, list], dict] | None = None


def _diagrams(splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme) -> dict[str, list]:
    """Every split's parsed and rewritten diagrams, keyed by split name."""
    global _front_end
    sentences = tuple((lset.name, lset.sentences()) for lset in splits)
    words = dict.fromkeys(w for _, split in sentences for ws in split for w in ws)
    key = (scheme, sentences, tuple((w, lexicon.lookup(w.lower())) for w in words))
    if _front_end is None or _front_end[0] != key:
        _front_end = None  # hold one corpus, and none that failed to parse
        diagrams = {name: [rewrite(parse_sentence(list(ws), lexicon), scheme) for ws in split]
                    for name, split in sentences}
        _front_end = (key, diagrams, {})
    return _front_end[1]


def _place_circuit(d: Diagram):
    """A diagram's layout, keyed up to its words, and each block's word
    entry ``(word, type fingerprint, block width)``."""
    lay = layout(d)
    key = (lay.n_qubits, tuple(q for *_, q in lay.blocks), lay.cups, lay.postselect, lay.outputs)
    return key, lay, [(word, fp, len(q)) for word, fp, q in lay.blocks]


def _place_network(d: Diagram):
    """A diagram with each box named by its index, which is its shape up to
    its words, and each box's word entry ``(word, type fingerprint)``."""
    shape = replace(d, boxes=tuple(replace(box, name=str(b)) for b, box in enumerate(d.boxes)))
    return shape, shape, [(box.name, type_fingerprint(box)) for box in d.boxes]


def _corpus_plan(splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme, place):
    """A corpus's sentences grouped by ``place``, and the error of the
    first sentence whose placement raises.

    ``place(d)`` gives a diagram's group key, an item for its group, and
    per box its word entry.  The plan is ``(words, groups, sizes)``: the
    word entries in first-use order; per group, in order of first use,
    ``(item, at, ids)`` with its members' corpus positions ``at`` (every
    split's rows in turn) and ``ids[i, b]``, member ``i``'s ``b``-th word
    index; and each split's row count.  A plan without an error is held;
    one with an error covers the sentences before that one only.
    """
    diagrams = _diagrams(splits, lexicon, scheme)
    held = _front_end[2]
    if place in held:
        return held[place], None
    words: dict[tuple, int] = {}
    members: dict[tuple, tuple[object, list[int], list[list[int]]]] = {}
    error = None
    for at, d in enumerate(d for ds in diagrams.values() for d in ds):
        try:
            key, item, entries = place(d)
        except Error as exc:
            error = exc
            break
        _, ats, ids = members.setdefault(key, (item, [], []))
        ats.append(at)
        ids.append([words.setdefault(w, len(words)) for w in entries])
    plan = (list(words),
            [(item, np.array(ats, dtype=np.intp), np.array(ids, dtype=np.intp))
             for item, ats, ids in members.values()],
            {name: len(ds) for name, ds in diagrams.items()})
    if error is None:
        held[place] = plan
    return plan, error


def _readout(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities ``p = u / sum(u)`` per row, and the degenerate mask.

    A row whose sum is below ``DEGENERATE_EPS`` reads out as uniform.
    """
    norm = u.sum(axis=1)
    degenerate = norm < DEGENERATE_EPS
    probs = u / np.where(degenerate, 1.0, norm)[:, None]
    probs[degenerate] = 0.5
    return probs, degenerate


def _pullback(u: np.ndarray, labels, n: int) -> np.ndarray:
    """d(mean loss)/du of some rows of a split of ``n`` rows.

    The cotangent chains through ``p = u / sum(u)``: ``(g - g . p) /
    (n sum(u))`` with ``g = d loss / d p``; it is zero on degenerate rows.
    Each row's depends on its own ``u`` and label only, so a split's rows
    can be pulled back chunk by chunk.
    """
    probs, degenerate = _readout(u)
    g = bce_grad(probs, labels)
    norm = np.where(degenerate, 1.0, u.sum(axis=1))[:, None]
    g_u = (g - (g * probs).sum(axis=1, keepdims=True)) / (n * norm)
    g_u[degenerate] = 0.0
    return g_u


def _stack(gather, spans, n_params: int):
    """The rows ``spans[k]`` of a gather, offset by ``k * n_params`` into
    ``k`` stacked parameter vectors; a ``-1`` entry (a padded gate's) reads
    the zero that follows the last vector.  A tensor gather is one array
    per parameter position."""
    if isinstance(gather, tuple):
        return tuple(_stack(g, spans, n_params) for g in gather)
    zero = len(spans) * n_params
    return np.concatenate([np.where(g < 0, zero, g + k * n_params)
                           for k, g in enumerate(gather[lo:hi] for lo, hi in spans)])


class _Model:
    """The parameter table, batches and evaluation loop both model
    families share.

    ``symbols`` are in first-use order, and ``shapes`` holds each one's
    shape (``()`` for a circuit angle); a symbol's entries follow the
    previous symbol's in the flat parameter vector.  ``sizes`` holds each
    split's row count, in split order.  ``groups`` holds, per group of the
    corpus plan, ``(first, at, gather)``: one item of the group, its
    members' corpus positions (every split's rows in turn) and their
    gather, one row each.  The model merges them (:func:`_merge_groups`)
    and compiles each batch once, through the engine module its subclass
    names as ``_engine``.
    """

    _embed = None  # a family's slot map of a structure into a longer host's

    def __init__(self, symbols: Sequence[Symbol], shapes: Sequence[tuple],
                 sizes: dict[str, int], groups: list):
        self.symbols = list(symbols)
        self.shapes = list(shapes)
        # symbol i owns the slice bounds[i]:bounds[i + 1] of the parameter vector
        self._bounds = np.cumsum([0, *map(math.prod, self.shapes)]).tolist()
        self.n_params = self._bounds[-1]
        self.sizes = sizes
        # per batch, the compiled batch and its rows' corpus positions, ascending
        self._groups = [(self._engine.compile_batch(first, gather), at) for first, at, gather
                        in _merge_groups(groups, self._engine.structure_key, self._embed)]
        # per request shape, each group's stacked batch and output rows
        self._requests: dict[tuple, list] = {}

    def _request(self, runs: tuple[tuple[str, ...], ...]) -> list:
        """Per group with rows in the request, its batch stacked over the
        runs of splits and where each of its rows lands in the request's
        output, which holds every run's splits in turn."""
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
            plan = []
            for batch, at in self._groups:
                rows = [np.searchsorted(at, (lo, hi)) for lo, hi, _ in spans]
                dest = np.concatenate([base + at[a:b] - lo
                                       for (lo, _, base), (a, b) in zip(spans, rows)])
                if len(dest):
                    plan.append((replace(batch, gather=_stack(batch.gather, rows, self.n_params)),
                                 dest))
            self._requests[runs] = plan
        return plan

    def evaluate(self, points, labels=None):
        """Readouts at several parameter points from one engine call per group.

        ``points`` is a sequence of ``(names, theta)``: a run of
        consecutive split names and a parameter vector.  Every group stacks
        each point's rows of its splits into one batch over the points'
        concatenated vectors.  Returns the gradient and, per point, per
        split, its probabilities and degenerate count.  With ``labels``,
        the labels of the first point's first split, the mean-loss
        gradient of that split at the first point comes from the same
        call: its rows lead every group's batch, and only they are pulled
        back.  Without, the gradient is ``None``.
        """
        runs = tuple(tuple(names) for names, _ in points)
        theta = np.concatenate([*(vec for _, vec in points), [0.0]])  # a padded gate's angle
        u = np.empty((sum(self.sizes[n] for names in runs for n in names), 2))
        terms = None
        if labels is not None:
            n = self.sizes[runs[0][0]]
            if n == 0:
                raise EmptyEvalSet("no sentences to differentiate")
            labels, terms = np.asarray(labels), []
        for batch, dest in self._request(runs):
            # the first split's rows lead the output, as they lead the batch
            rows = () if labels is None else dest[dest < n]
            if not len(rows):
                u[dest] = self._engine.batch_forward(batch, theta)
                continue

            def pull(chunk, u_chunk, rows=rows):
                stop = min(chunk.stop, len(rows))
                if stop <= chunk.start:
                    return np.empty((0, 2))
                return _pullback(u_chunk[: stop - chunk.start], labels[rows[chunk.start : stop]], n)

            u[dest], group_terms = self._engine.batch_backward(batch, theta, pull)
            terms.append((batch.gather, group_terms))
        grad = None if terms is None else self._scatter(terms)
        readouts, at = [], 0
        for names in runs:
            readouts.append([])
            for name in names:
                probs, degenerate = _readout(u[at : at + self.sizes[name]])
                readouts[-1].append((probs, int(degenerate.sum())))
                at += len(probs)
        return grad, readouts

    def eval_split(self, name: str, theta: np.ndarray):
        """Probabilities of every row of the split and its degenerate count."""
        return self.evaluate([((name,), theta)])[1][0][0]

    def grad_split(self, name: str, theta: np.ndarray, labels: Sequence[int]):
        """Mean-loss gradient of the split, then the probabilities and
        degenerate count that :meth:`eval_split` returns."""
        grad, [[(probs, degenerate)]] = self.evaluate([((name,), theta)], labels)
        return grad, probs, degenerate

    def _scatter(self, terms) -> np.ndarray:
        """Sum every term into the parameter vector at the position its
        gather entry names.  A group's gather and terms iterate in step (a
        circuit's by row, a network's by parameter position), and the sum
        runs in order, so a position gathered twice (a word repeated in a
        sentence) gets both terms.  A padded gate's entry names the zero
        past the stacked vectors, so its terms fall in bins that are cut
        off."""
        pairs = [(g[: len(t)], t) for gather, ts in terms for g, t in zip(gather, ts)]
        return np.bincount(np.concatenate([g.ravel() for g, _ in pairs]),
                           np.concatenate([t.ravel() for _, t in pairs]),
                           self.n_params)[: self.n_params]

    def _tables(self):
        """Each symbol with its shape and its first and past-last entries."""
        b = self._bounds
        return zip(self.symbols, self.shapes, b, b[1:])

    def store(self, theta: np.ndarray) -> dict[Symbol, np.ndarray]:
        return {s: theta[lo:hi].reshape(shape) for s, shape, lo, hi in self._tables()}

    def params_to_named(self, theta: np.ndarray) -> dict:
        """Name to float for a circuit angle, to nested lists for a tensor."""
        return {s.name: v.tolist() for s, v in self.store(theta).items()}

    def named_to_params(self, named: dict) -> np.ndarray:
        theta = np.empty(self.n_params)
        for s, _, lo, hi in self._tables():
            theta[lo:hi] = np.ravel(named[s.name])
        return theta


def _slot_map(member: tuple, host: tuple) -> np.ndarray | None:
    """Per parametric gate of the ``host`` structure, the member's slot that
    runs there or ``-1``; ``None`` unless ``member`` is ``host`` with some
    parametric gates left out.

    Both are :func:`~qnlp.simulator.structure_key` keys, so the member must
    share the host's qubit count, postselection and outputs.  The greedy
    leftmost embedding decides exactly: a constant gate must match, and
    matching an equal parametric gate early is never worse than later.
    """
    (n, gates, *ends), (host_n, host_gates, *host_ends) = member, host
    if (n, ends) != (host_n, host_ends):
        return None
    cols, j, slot = [], 0, 0
    for gate in host_gates:
        parametric = gate[2] is Symbol
        if j < len(gates) and gates[j] == gate:
            j += 1
            if parametric:
                cols.append(slot)
                slot += 1
        elif parametric:
            cols.append(-1)
        else:
            return None
    return np.array(cols, dtype=np.intp) if j == len(gates) else None


def _merge_groups(groups: list, key, embed) -> list[tuple]:
    """One batch per host structure from the plan groups ``(first, at,
    gather)``.

    Taken longest first (a ``key``'s second entry), a group joins the first
    host of its structure, or with ``embed`` (:func:`_slot_map`) the first
    it embeds in, its gathers padded to the host's slots with ``-1``; else
    it becomes a host.  A ``-1`` slot reads the zero that
    :meth:`_Model.evaluate` appends after the stacked parameter vectors;
    a rotation at angle 0 is an exact identity, so a member row's weights
    equal those of its own batch (unless that batch is one row, whose
    in-place NumPy products can round differently in the last bit).  Per
    host, in order of first use: its own first group's item, its rows'
    corpus positions in ascending order, and their gathers in that order.
    """
    keys = [key(first) for first, _, _ in groups]
    hosts: dict[tuple, list] = {}
    for i in sorted(range(len(groups)), key=lambda i: -len(keys[i][1])):
        first, at, gather = groups[i]
        for host, parts in hosts.items():
            if keys[i] == host:
                parts.append(groups[i])
                break
            cols = None if embed is None else embed(keys[i], host)
            if cols is not None:
                padded = np.append(gather, np.full((len(gather), 1), -1), axis=1)
                parts.append((first, at, padded[:, cols]))
                break
        else:
            hosts[keys[i]] = [groups[i]]
    merged = []
    for parts in (hosts[k] for k in dict.fromkeys(keys) if k in hosts):
        at = np.concatenate([at for _, at, _ in parts])
        order = np.argsort(at)
        gathers = [g for *_, g in parts]  # a tensor's holds an array per parameter position
        gather = (tuple(np.concatenate(gs)[order] for gs in zip(*gathers))
                  if isinstance(gathers[0], tuple) else np.concatenate(gathers)[order])
        merged.append((parts[0][0], at[order], gather))
    return merged


class CircuitModel(_Model):
    """A shared-parameter ensemble of sentence circuits, held by structure.

    A sentence's weights are its unnormalized postselected output
    marginal, whose sum is the survival norm.  Each batch runs as one
    batched statevector pass, for evaluation and for gradients; a
    structure runs in the batch of a longer host it embeds in
    (:func:`_slot_map`), at angle 0 in the slots it lacks.
    """

    _engine = simulator
    _embed = staticmethod(_slot_map)

    @classmethod
    def build(cls, splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme,
              ansatz: CircuitAnsatzConfig) -> "CircuitModel":
        """Lower one sentence per layout group of the corpus's circuit plan.

        A word's angles sit together in the parameter vector, words in the
        plan's order, so a box's gather columns are its word's offset plus
        its block's slot indices.
        """
        (words, layouts, sizes), error = _corpus_plan(splits, lexicon, scheme, _place_circuit)
        # lowered first: a sentence before a failed layout may have no parameters
        circuits = [lower(lay, ansatz) for lay, _, _ in layouts]
        if error is not None:
            raise error
        slots = {k: len(word_block("", "", tuple(range(k)), ansatz)[1])
                 for k in {k for *_, k in words}}
        counts = np.array([slots[k] for *_, k in words], dtype=np.intp)
        offsets = np.cumsum(counts) - counts
        symbols = [Symbol(word, fp, i) for (word, fp, _), n in zip(words, counts)
                   for i in range(n)]
        if not symbols:
            raise ZeroParameterModel("no trainable parameters in any circuit")
        groups = [(c, at, np.concatenate([offsets[ids[:, b], None] + np.arange(slots[len(q)])
                                          for b, (*_, q) in enumerate(lay.blocks)], axis=1))
                  for (lay, at, ids), c in zip(layouts, circuits)]
        return cls(symbols, [()] * len(symbols), sizes, groups)

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

    _engine = tensornet

    @classmethod
    def build(cls, splits: CorpusSplits, lexicon: Lexicon, scheme: RewriteScheme,
              cfg: TensorAnsatzConfig) -> "TensorModel":
        """Compile one network per shape group of the corpus's network plan.

        A group's network names each box by its index, so its parameter
        node for piece ``i`` of box ``b`` reads, per member, piece ``i``
        of the word at ``ids[:, b]``.  A word's pieces sit together in the
        parameter vector, words in the plan's order.
        """
        # placing a network cannot fail; compiling it checks the diagram
        (words, shaped, sizes), _ = _corpus_plan(splits, lexicon, scheme, _place_network)
        nets = [compile_network(d, cfg) for d, _, _ in shaped]
        for net in nets:
            if (size := math.prod(net.output_dims())) != 2:
                raise WrongOutputArity(f"expected a 2-dimensional sentence vector, got {size}")
        params = [[node for node in net.nodes if isinstance(node, ParamNode)] for net in nets]
        pieces = {}  # (word index, piece) to the piece's shape
        for nodes, (_, _, ids) in zip(params, shaped):
            for node in nodes:
                word_ids = ids[:, int(node.symbol.word)].tolist()
                pieces.update(dict.fromkeys(((w, node.symbol.index) for w in word_ids), node.shape))
        keys = sorted(pieces)
        firsts = np.array([k for k, (_, i) in enumerate(keys) if i == 0])  # per word
        entries = np.cumsum([0, *(math.prod(pieces[k]) for k in keys)])
        groups = []
        for net, nodes, (_, at, ids) in zip(nets, params, shaped):
            # per member, the flattened entries of its word's piece at each node
            gather = tuple(entries[firsts[ids[:, int(n.symbol.word)]] + n.symbol.index, None]
                           + np.arange(math.prod(n.shape)) for n in nodes)
            groups.append((net, at, gather))
        return cls([Symbol(*words[w], i) for w, i in keys], [pieces[k] for k in keys], sizes, groups)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        chunks = [np.zeros(0)]
        for shape in self.shapes:
            std = 1.0 / np.sqrt(math.prod(shape[:-1]))
            chunks.append(rng.normal(0.0, std, size=math.prod(shape)))
        return np.concatenate(chunks)

    eval_split = _Model.eval_split
    grad_split = _Model.grad_split


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

    def record_dev(readout, epoch: int) -> None:
        probs, loss = score("dev", dev_labels, readout, epoch)
        history.val_loss.append(loss)
        history.val_acc.append(accuracy(probs, dev_labels))

    start = time.monotonic()
    for epoch in range(1, cfg.epochs + 1):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            raise BudgetExceeded(
                f"epoch {epoch}: exceeded budget of {budget_seconds:.0f} s"
            )
        # dev at this epoch's parameters is the previous epoch's dev readout
        if spsa is not None:
            plus, minus = spsa.probes(theta)
            _, ((train, dev), (train_plus,), (train_minus,)) = model.evaluate(
                [(("train", "dev"), theta), (("train",), plus), (("train",), minus)])
        else:
            grad, ((train, dev),) = model.evaluate([(("train", "dev"), theta)], train_labels)
        if epoch > 1:
            record_dev(dev, epoch - 1)
        probs, loss = score("train", train_labels, train, epoch)
        history.train_loss.append(loss)
        history.train_acc.append(accuracy(probs, train_labels))

        if spsa is not None:
            theta = spsa.step(theta, score("train", train_labels, train_plus, epoch)[1],
                              score("train", train_labels, train_minus, epoch)[1])
        else:
            theta = adaptive.step(theta, grad)

    # the closing call: the last epoch's dev readout and the test score
    test_labels = np.asarray(splits.test.labels())
    _, ((dev, test),) = model.evaluate([(("dev", "test"), theta)])
    record_dev(dev, cfg.epochs)
    test_probs, _ = score("test", test_labels, test, cfg.epochs)
    history.test_acc = accuracy(test_probs, test_labels)
    history.final_params = theta
    return history
