"""Tensor-network ansätze: compile diagrams to real tensor networks.

Three lowerings share one network IR.  ``TENSOR`` gives every word box a
single dense parameter tensor shaped by its wire types.  ``MPS`` splits
every parameter tensor of order >= 3 into a bond-linked chain.  ``SPIDER``
splits tensors with more legs than ``max_legs`` into overlapping chunks
whose shared boundary legs meet at 3-ary copy spiders, so the chunks merge
elementwise along the boundary index.  Lowering happens during
compilation: each word box is placed as its lowered nodes, and the
diagram's wires attach straight to the node legs that stand for the box's
legs, so no dense network is built first.

Cups become unnormalized delta nodes (identity matrices); a copy spider is
the generalized Kronecker tensor, 1 exactly when all incident indices
agree.  Contraction fuses delta- and spider-connected legs into shared
einsum indices rather than materializing those tensors.  This plan (the
validation, the labels and the closed-loop factor) is built once per
network, on first use, and cached on it.  The test suite evaluates
diagrams apart from this module, as the oracle ``contract`` is compared
against.  Gradients are exact hole contractions: each network is
multilinear in every parameter node, so the derivative with respect to
one node is the network contracted with that node removed and its legs
left open, chained with the upstream cotangent.  A parameter tensor used
by several nodes accumulates one hole term per use.

Training runs batched, and every model family contracts through it:
networks of one :func:`structure_key` compile once, from one network's
plan, into a :class:`TensorBatch` (:func:`compile_batch`) with an extra
row label.  Its slots are the flattened entries of its parameter tensors,
position after position: in a sentence's network each word's dense tensor
(real, or a circuit's complex word map), and in a split word's
:func:`_lower_word` network, its legs open, the word's pieces.  The
greedy path of the batch's einsum, searched once, becomes a tree of
pairwise steps compiled into two tuples: ``forward``, per step its einsum
and the nodes it joins, and ``sweep``, per step input, the last step's
first, the einsum of its cotangent, the step's other inputs and its
identity bridges.  A :class:`Bound` pass, the engine contract
:mod:`qnlp.simulator` shares, holds a batch's arrays for one row count:
its ``forward`` walks the tree and gives every row's output vector ``v``,
and its ``backward`` takes the cotangent on the leading rows' ``v`` back
to their slots in one reverse sweep over the tree's nodes, carrying the
conjugate cotangent (Liao et al., arXiv:1903.09650) so that real and
complex rows run the same einsums.  The per-network :func:`contract` and
:func:`gradient_hole` are the reference the batched path is tested
against.
"""

from __future__ import annotations

import enum
import json
import math
import string
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from qnlp.circuit import Symbol, type_fingerprint
from qnlp.diagram import Diagram, InvalidDiagram, ShapeMismatch, validate
from qnlp.errors import Error
from qnlp.pregroup import Base

_MAX_EINSUM_LABELS = 52


class TensorAnsatz(enum.Enum):
    TENSOR = "tensor"
    SPIDER = "spider"
    MPS = "mps"


@dataclass(frozen=True)
class TensorAnsatzConfig:
    kind: TensorAnsatz
    d_n: int = 2
    d_s: int = 2
    bond_dim: int = 2
    max_legs: int = 2

    def __post_init__(self):
        if self.d_n < 2 or self.d_s < 2:
            raise Error("wire dimensions must be at least 2")
        if self.bond_dim < 1:
            raise Error("bond dimension must be at least 1")
        if self.max_legs < 2:
            raise Error("spider split threshold must be at least 2")

    def dim(self, base: Base) -> int:
        return self.d_n if base is Base.N else self.d_s


@dataclass(frozen=True)
class ParamNode:
    symbol: Symbol
    shape: tuple[int, ...]


@dataclass(frozen=True)
class CupDeltaNode:
    dim: int


@dataclass(frozen=True)
class SpiderCopyNode:
    arity: int
    dim: int


Node = ParamNode | CupDeltaNode | SpiderCopyNode

Leg = tuple[int, int]  # (node index, leg index)


def node_leg_dims(node: Node) -> tuple[int, ...]:
    if isinstance(node, ParamNode):
        return node.shape
    if isinstance(node, CupDeltaNode):
        return (node.dim, node.dim)
    return (node.dim,) * node.arity


@dataclass(frozen=True)
class Network:
    """Nodes plus binary edges between legs and an ordered open boundary."""

    nodes: tuple[Node, ...]
    edges: tuple[tuple[Leg, Leg], ...]
    outputs: tuple[Leg, ...]

    def param_shapes(self) -> dict[Symbol, tuple[int, ...]]:
        shapes: dict[Symbol, tuple[int, ...]] = {}
        for node in self.nodes:
            if isinstance(node, ParamNode):
                prev = shapes.get(node.symbol)
                if prev is not None and prev != node.shape:
                    raise ShapeMismatch(
                        f"symbol {node.symbol.name} bound to shapes "
                        f"{prev} and {node.shape}"
                    )
                shapes[node.symbol] = node.shape
        return shapes

    def output_dims(self) -> tuple[int, ...]:
        return tuple(node_leg_dims(self.nodes[n])[leg] for n, leg in self.outputs)

    @cached_property
    def _plan(self) -> "_Plan":
        return _build_plan(self)


def validate_network(net: Network) -> None:
    """Every leg bound exactly once (edge end or output); dims consistent."""
    seen: dict[Leg, str] = {}

    def bind(leg: Leg, where: str):
        n, l = leg
        if not (0 <= n < len(net.nodes)):
            raise Error(f"{where} references missing node {n}")
        if not (0 <= l < len(node_leg_dims(net.nodes[n]))):
            raise Error(f"leg {l} out of range for node {n}")
        if leg in seen:
            raise Error(f"leg {leg} bound twice ({seen[leg]} and {where})")
        seen[leg] = where

    for a, b in net.edges:
        bind(a, "edge")
        bind(b, "edge")
        da = node_leg_dims(net.nodes[a[0]])[a[1]]
        db = node_leg_dims(net.nodes[b[0]])[b[1]]
        if da != db:
            raise Error(f"edge {a}-{b} joins dimensions {da} and {db}")
    for leg in net.outputs:
        bind(leg, "output")
    for n, node in enumerate(net.nodes):
        for l in range(len(node_leg_dims(node))):
            if (n, l) not in seen:
                raise Error(f"leg ({n}, {l}) is neither bound nor open")


# -- splitting ------------------------------------------------------------


def mps_split(shape: tuple[int, ...], bond: int) -> list[tuple[int, ...]]:
    """Chain shapes for a tensor of order >= 3; order < 3 is unchanged."""
    if len(shape) < 3:
        return [tuple(shape)]
    k = len(shape)
    pieces = [(shape[0], bond)]
    for i in range(1, k - 1):
        pieces.append((bond, shape[i], bond))
    pieces.append((bond, shape[k - 1]))
    return pieces


@dataclass(frozen=True)
class SpiderSplit:
    """Overlapping chunks of a leg list, meeting at 3-ary copy spiders.

    ``chunk_shapes[i]`` covers a contiguous span of the original legs;
    consecutive chunks share exactly one boundary leg.  Spider ``j`` sits
    on original leg ``boundaries[j]`` and joins the left chunk's last leg
    with the right chunk's first leg; its free leg stands for the original.
    """

    chunk_shapes: tuple[tuple[int, ...], ...]
    boundaries: tuple[int, ...]


def spider_split(shape: tuple[int, ...], max_legs: int) -> SpiderSplit:
    if max_legs < 2:
        raise Error("spider split threshold must be at least 2")
    # a chunk starts every max_legs - 1 legs, so neighbours share one leg
    starts = range(0, max(len(shape) - 1, 1), max_legs - 1)
    return SpiderSplit(
        tuple(tuple(shape[s : s + max_legs]) for s in starts), tuple(starts[1:])
    )


def _lower_word(
    symbol: Symbol, shape: tuple[int, ...], cfg: TensorAnsatzConfig, base: int
) -> tuple[list[Node], list[tuple[Leg, Leg]], list[Leg]]:
    """One word tensor as nodes numbered from ``base``: the nodes, the edges
    among them, and the node leg standing for each leg of the dense tensor."""
    k = len(shape)

    def pieces(shapes) -> list[Node]:
        word, fp = symbol.word, symbol.type_fingerprint
        return [ParamNode(Symbol(word, fp, i), s) for i, s in enumerate(shapes)]

    if cfg.kind is TensorAnsatz.MPS and k >= 3:
        nodes = pieces(mps_split(shape, cfg.bond_dim))
        edges = [((base + i, 1 if i == 0 else 2), (base + i + 1, 0)) for i in range(k - 1)]
        return nodes, edges, [(base + i, 0 if i == 0 else 1) for i in range(k)]
    if cfg.kind is TensorAnsatz.SPIDER and k > cfg.max_legs:
        split = spider_split(shape, cfg.max_legs)
        chunks = split.chunk_shapes
        nodes = pieces(chunks)
        spiders = base + len(chunks)
        nodes += [SpiderCopyNode(3, shape[leg]) for leg in split.boundaries]
        edges: list[tuple[Leg, Leg]] = []
        legs: list[Leg] = []
        for j, chunk in enumerate(chunks):
            last = j == len(chunks) - 1
            stop = len(chunk) if last else len(chunk) - 1
            legs += [(base + j, l) for l in range(1 if j else 0, stop)]
            if not last:
                edges += [((base + j, len(chunk) - 1), (spiders + j, 0)),
                          ((base + j + 1, 0), (spiders + j, 1))]
                legs.append((spiders + j, 2))
        return nodes, edges, legs
    return [ParamNode(symbol, shape)], [], [(base, l) for l in range(k)]


# -- compilation ----------------------------------------------------------


def compile_network(d: Diagram, cfg: TensorAnsatzConfig) -> Network:
    """Lower ``d`` to a network, each word box lowered where it is placed.

    Nodes are the words' nodes in box order, then one delta per cup.  Edges
    are the diagram's wires, then each word's inner edges in box order.
    """
    violations = validate(d)
    if violations:
        raise InvalidDiagram(violations)
    if d.n_caps:
        raise Error("cap wires are not supported by the tensor backend; "
                    "run the normal-form pass first")

    nodes: list[Node] = []
    inner: list[tuple[Leg, Leg]] = []
    box_legs: list[list[Leg]] = []  # dom legs first, then cod
    for box in d.boxes:
        shape = tuple(cfg.dim(t.base) for t in box.dom + box.cod)
        symbol = Symbol(box.name, type_fingerprint(box), 0)
        word_nodes, word_edges, legs = _lower_word(symbol, shape, cfg, len(nodes))
        nodes += word_nodes
        inner += word_edges
        box_legs.append(legs)
    first_cup = len(nodes)
    nodes += [CupDeltaNode(cfg.dim(d.wires[wl].stype.base)) for wl, _ in d.cup_pairs()]

    def leg_of(port, producer: bool) -> Leg:
        if port.owner == "box":
            base = len(d.boxes[port.index].dom) if producer else 0
            return box_legs[port.index][base + port.leg]
        if port.owner == "cup":
            return (first_cup + port.index, port.leg)
        raise Error(f"unsupported port owner: {port.owner}")

    edges: list[tuple[Leg, Leg]] = []
    outputs: list[Leg] = [(-1, -1)] * d.n_outputs
    for wire in d.wires:
        src = leg_of(wire.producer, producer=True)
        if wire.consumer.owner == "out":
            outputs[wire.consumer.index] = src
        else:
            edges.append((src, leg_of(wire.consumer, producer=False)))
    return Network(tuple(nodes), tuple(edges + inner), tuple(outputs))


# -- contraction ----------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """Einsum labels of the parameter nodes ``params`` and the open legs,
    and the dimension product of the closed loops no labeled leg touches."""

    params: tuple[int, ...]
    sublists: tuple[tuple[int, ...], ...]
    outputs: tuple[int, ...]
    n_labels: int
    factor: float


def _build_plan(net: Network) -> _Plan:
    """Validate ``net`` and assign its einsum labels.

    Edge-connected legs share an index and a delta or spider node fuses
    all of its own legs into one, by union-find over the flat leg list.
    """
    validate_network(net)
    flat: dict[Leg, int] = {}
    dims: list[int] = []
    for ni, node in enumerate(net.nodes):
        for l, dim in enumerate(node_leg_dims(node)):
            flat[(ni, l)] = len(dims)
            dims.append(dim)
    parent = list(range(len(dims)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    links = [(flat[a], flat[b]) for a, b in net.edges]
    for ni, node in enumerate(net.nodes):
        if not isinstance(node, ParamNode):
            arity = len(node_leg_dims(node))
            links += [(flat[(ni, 0)], flat[(ni, l)]) for l in range(1, arity)]
    for a, b in links:
        parent[find(b)] = find(a)

    label_of: dict[int, int] = {}

    def label(leg: Leg) -> int:
        return label_of.setdefault(find(flat[leg]), len(label_of))

    params = tuple(ni for ni, node in enumerate(net.nodes) if isinstance(node, ParamNode))
    sublists = tuple(
        tuple(label((ni, l)) for l in range(len(net.nodes[ni].shape))) for ni in params
    )
    outputs = tuple(label(leg) for leg in net.outputs)
    if len(set(outputs)) != len(outputs):
        raise Error("two open legs share one fused index; cannot contract")
    loops = {find(x) for x in range(len(dims))} - label_of.keys()
    factor = float(np.prod([dims[root] for root in loops]))
    return _Plan(params, sublists, outputs, len(label_of), factor)


def _check_labels(needed: int) -> None:
    if needed > _MAX_EINSUM_LABELS:
        raise Error(f"network needs {needed} indices; limit is {_MAX_EINSUM_LABELS}")


def _store_tensor(store: Mapping[Symbol, np.ndarray], node: ParamNode) -> np.ndarray:
    if node.symbol not in store:
        raise ShapeMismatch(f"no tensor bound for symbol {node.symbol.name}")
    t = np.asarray(store[node.symbol], dtype=float)
    if t.shape != node.shape:
        raise ShapeMismatch(
            f"symbol {node.symbol.name}: tensor shape {t.shape} != {node.shape}"
        )
    return t


def contract(net: Network, store: Mapping[Symbol, np.ndarray]) -> np.ndarray:
    """Fully contract; the result is shaped by the open boundary legs."""
    plan = net._plan
    _check_labels(plan.n_labels)
    if not plan.params:
        if plan.outputs:
            raise Error("open legs with no tensor operands")
        return np.array(plan.factor)
    operands: list = []
    for ni, sub in zip(plan.params, plan.sublists):
        operands += [_store_tensor(store, net.nodes[ni]), sub]
    return np.einsum(*operands, plan.outputs) * plan.factor


def gradient_hole(
    net: Network, store: Mapping[Symbol, np.ndarray], upstream: np.ndarray
) -> dict[Symbol, np.ndarray]:
    """d(upstream . output)/d(tensor) for every parameter symbol.

    Each hole leg gets a fresh output index bridged to its fused class by
    an identity operand, which keeps repeated or open classes well formed.
    """
    plan = net._plan
    fresh = range(plan.n_labels, plan.n_labels + max(map(len, plan.sublists), default=0))
    _check_labels(fresh.stop)
    up = np.asarray(upstream, dtype=float)
    if up.shape != net.output_dims():
        raise ShapeMismatch(
            f"upstream shape {up.shape} does not match outputs {net.output_dims()}"
        )
    nodes = [net.nodes[ni] for ni in plan.params]
    tensors = [_store_tensor(store, node) for node in nodes]

    grads: dict[Symbol, np.ndarray] = {node.symbol: np.zeros(node.shape) for node in nodes}
    for hole, node in enumerate(nodes):
        operands: list = []
        for i, sub in enumerate(plan.sublists):
            if i != hole:
                operands += [tensors[i], sub]
        operands += [up, plan.outputs]
        for dim, bridge, lab in zip(node.shape, fresh, plan.sublists[hole]):
            operands += [np.eye(dim), (bridge, lab)]
        grads[node.symbol] += np.einsum(*operands, fresh[: len(node.shape)]) * plan.factor
    return grads


# -- batched contraction --------------------------------------------------

_LETTERS = string.ascii_letters  # np.einsum's 52 subscript letters, in label order


def structure_key(net: Network) -> tuple:
    """What networks must share to contract as one batch: the parameter
    nodes' shapes and every einsum label of the cached plan.

    Sentences of one grammatical pattern under one lowering share a key
    whatever their words, a repeated word included.
    """
    plan = net._plan
    shapes = tuple(net.nodes[ni].shape for ni in plan.params)
    return (shapes, plan.sublists, plan.outputs, plan.factor, plan.n_labels)


@dataclass(frozen=True, eq=False)
class TensorBatch:
    """Networks of one structure, compiled once to contract as one batch.

    The engine takes a ``(rows, n_slots)`` array of values: row ``r``'s
    tensor at parameter position ``p`` (the plan's ``p``-th parameter
    node), flattened in C order, fills the columns ``columns[p]``; nothing
    here depends on the row count.  Every step carries one extra label for
    the row axis, and every tree node (numbered parameter tensors first,
    then step results) keeps its rows on its first axis; the last step
    keeps the outputs after it in their order.
    """

    shapes: tuple[tuple[int, ...], ...]  # per position, without the rows
    columns: tuple[slice, ...]  # per position, its slots
    n_slots: int
    forward: tuple  # per step: its einsum, the nodes it joins
    # per step input, the last step's first: (node, step result, cotangent's einsum,
    # the step's other inputs, identity bridges)
    sweep: tuple
    out_shape: tuple[int, ...]  # the output dimensions
    factor: float


def _subscripts(inputs, output) -> str:
    words = ["".join(_LETTERS[lab] for lab in labels) for labels in [*inputs, output]]
    return ",".join(words[:-1]) + "->" + words[-1]


def _cotangent(j, inputs, subs, kept, dims, bridge) -> tuple:
    """The cotangent of a step's ``j``-th input: its einsum from the step's
    cotangent (labels ``kept``) and the other inputs, their node numbers,
    and its identity bridges.  A repeated label of the input, or one no
    other operand carries, becomes a fresh label from ``bridge`` on."""
    others = [kept, *subs[:j], *subs[j + 1 :]]
    carried = {lab for sub in others for lab in sub}
    result, eyes = [], []
    for lab in subs[j]:
        if lab in result or lab not in carried:
            others.append((bridge + len(eyes), lab))
            eyes.append(np.eye(dims[lab]))
            lab = bridge + len(eyes) - 1
        result.append(lab)
    _check_labels(bridge + len(eyes))
    return _subscripts(others, result), inputs[:j] + inputs[j + 1 :], tuple(eyes)


def compile_batch(first: Network) -> TensorBatch:
    """Compile the networks of ``first``'s :func:`structure_key` into a batch.

    The greedy path of the forward einsum, searched once for one row,
    becomes the steps.  Every operand and result carries the row label,
    so the row count scales every size alike and leaves the path as it is.
    """
    plan = first._plan
    if not plan.params:
        raise Error("network has no tensor operands")
    if not set(plan.outputs) <= {lab for sub in plan.sublists for lab in sub}:
        raise Error("open legs with no tensor operands")
    shapes = [(1,) + first.nodes[ni].shape for ni in plan.params]
    bounds = np.cumsum([0, *(math.prod(s) for s in shapes)]).tolist()
    row = plan.n_labels  # the row axis's label; bridge labels follow it
    _check_labels(row + 1)
    labels = [(row, *sub) for sub in plan.sublists]  # per tree node
    out = (row, *plan.outputs)
    dims = {lab: d for sub, shape in zip(labels, shapes) for lab, d in zip(sub, shape)}
    path = np.einsum_path(_subscripts(labels, out), *map(np.empty, shapes), optimize="greedy")
    live, forward, sweep = list(range(len(labels))), [], []
    for joined in path[0][1:]:
        inputs = tuple(live.pop(i) for i in sorted(joined, reverse=True))
        subs = [labels[m] for m in inputs]
        # every node's labels are the row, then its own
        needed = {lab for m in live for lab in labels[m][1:]}.union(plan.outputs)
        kept = (row, *sorted({lab for sub in subs for lab in sub[1:]} & needed)) if live else out
        forward.append((_subscripts(subs, kept), inputs))
        sweep[:0] = [(node, len(labels), *_cotangent(j, inputs, subs, kept, dims, row + 1))
                     for j, node in enumerate(inputs)]
        live.append(len(labels))
        labels.append(kept)
    return TensorBatch(tuple(shape[1:] for shape in shapes), tuple(map(slice, bounds, bounds[1:])),
                       bounds[-1], tuple(forward), tuple(sweep), first.output_dims(), plan.factor)


class Bound:
    """A batch bound to ``values``, ``(rows, n_slots)``, its leading ``t``
    rows differentiated.  The tape (the leaves, views of ``values``, then
    each step's result) and every einsum's operands are made here, the
    reverse sweep's (the cotangents, each leaf's in its own columns of
    ``grad``) on the first :meth:`backward`; a pass only runs the einsums
    into them (``out=``), overwriting what the last pass wrote."""

    def __init__(self, batch: TensorBatch, values: np.ndarray, t: int = 0):
        self.batch, self.values, self.t = batch, values, t
        self.tape = [values[:, cols].reshape(len(values), *shape)
                     for cols, shape in zip(batch.columns, batch.shapes)]
        self.steps, self.sweep = [], None
        for subscripts, inputs in batch.forward:
            operands = [self.tape[m] for m in inputs]
            words = subscripts.replace("->", ",").split(",")
            dims = dict(zip("".join(words[:-1]), (d for op in operands for d in op.shape)))
            self.tape.append(np.empty([dims[c] for c in words[-1]], values.dtype))
            self.steps.append((subscripts, operands, self.tape[-1]))

    def forward(self) -> np.ndarray:
        """Every row's output vector ``v``, ``(rows, prod(out_shape))``."""
        for subscripts, operands, out in self.steps:
            np.einsum(subscripts, *operands, out=out)
        v = self.tape[-1].reshape(len(self.values), -1)
        return v if self.batch.factor == 1.0 else v * self.batch.factor

    def backward(self, g_v: np.ndarray) -> np.ndarray:
        """The cotangent of every slot of the leading ``t`` rows after the
        pass's forward, ``(t, n_slots)``, for the cotangent ``g_v`` on their
        ``v``: its conjugate runs back down the tree over the tape, which is
        left as it is, and the result is the conjugate of what reaches the
        leaves.  On real rows a slot's cotangent is ``d(g_v . v)/d(value)``
        (``conj()`` is the array itself); on complex rows it is ``g`` with
        ``d Re(conj(g_v) . v) = Re sum(conj(g) d(value))``."""
        if self.sweep is None:
            t, tape = self.t, self.tape
            self.grad = np.empty((t, self.batch.n_slots), tape[-1].dtype)
            cotangent = [self.grad[:, cols].reshape(t, *shape)
                         for cols, shape in zip(self.batch.columns, self.batch.shapes)]
            cotangent += [np.empty((t, *node.shape[1:]), self.grad.dtype)
                          for node in tape[len(cotangent):]]
            self.g = cotangent[-1].reshape(t, -1)  # the cotangent on the leading rows' output
            self.sweep = [(subscripts, [cotangent[source], *(tape[m][:t] for m in siblings),
                                        *eyes], cotangent[node])
                          for node, source, subscripts, siblings, eyes in self.batch.sweep]
        np.conjugate(g_v, out=self.g)
        if self.batch.factor != 1.0:
            self.g *= self.batch.factor
        for subscripts, operands, out in self.sweep:
            np.einsum(subscripts, *operands, out=out)
        return np.conjugate(self.grad, out=self.grad) if self.grad.dtype.kind == "c" else self.grad


# -- serialization --------------------------------------------------------


def network_to_json(net: Network) -> str:
    def node_json(node: Node) -> dict:
        if isinstance(node, ParamNode):
            return {"kind": "param", "symbol": node.symbol.name, "shape": list(node.shape)}
        if isinstance(node, CupDeltaNode):
            return {"kind": "cup_delta", "dim": node.dim}
        return {"kind": "spider_copy", "arity": node.arity, "dim": node.dim}

    return json.dumps({
        "nodes": [node_json(n) for n in net.nodes],
        "edges": [[list(a), list(b)] for a, b in net.edges],
        "outputs": [list(l) for l in net.outputs],
    }, indent=2)

