"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different algorithm than the
code under test: the reducer enumerates cup sets by free adjacent-pair choice
instead of a stack scan, ``eval_tensor`` contracts a diagram's boxes in
one einsum over its wires instead of lowering it to a network, the
brute-force evaluator loops over explicit index assignments instead of
calling einsum, the reference fit loop reads one split per model call
instead of stacking splits and parameter points, the reference tensor
grouping compiles every sentence and groups the networks by structure
instead of lowering one network per plan group, the reference map
of a circuit runs it gate by gate from each input basis state instead of
as one batch, and the per-structure circuit model simulates each
sentence's whole circuit instead of contracting its words' block maps,
the reference reverse sweep reads every sibling conjugated instead of
carrying the conjugate cotangent, and the curried boxes' bent legs are read
off the diagram before currying instead of recorded by the pass.
Slow is fine; these only ever see small inputs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from qnlp import simulator, tensornet, training
from qnlp.circuit import Symbol, compile_circuit
from qnlp.diagram import Box, BoxKind, Diagram, ShapeMismatch
from qnlp.errors import Error
from qnlp.pregroup import Base, SimpleType, contractible, parse_sentence
from qnlp.rewrite import rewrite
from qnlp.tensornet import ParamNode, compile_network


@dataclass(frozen=True)
class WireDims:
    """Per-base wire dimensions used by the tensor semantics."""

    d_n: int = 2
    d_s: int = 2

    def dim(self, t: SimpleType) -> int:
        return self.d_n if t.base is Base.N else self.d_s


def box_shape(box: Box, dims: WireDims) -> tuple[int, ...]:
    """Expected dense shape: domain wire dims followed by codomain wire dims."""
    return tuple(dims.dim(t) for t in box.dom) + tuple(dims.dim(t) for t in box.cod)


def random_assignment(
    d: Diagram, dims: WireDims, rng: np.random.Generator
) -> dict[int, np.ndarray]:
    """Standard-normal tensors for every box, keyed by box index."""
    return {b: rng.standard_normal(box_shape(box, dims)) for b, box in enumerate(d.boxes)}


def eval_tensor(
    d: Diagram,
    tensors: Mapping[int, np.ndarray],
    dims: WireDims | None = None,
) -> np.ndarray:
    """Contract the diagram's multilinear meaning.

    ``tensors`` maps box index to a dense real or complex array shaped
    like :func:`box_shape`.  Cups and caps identify the indices of their two
    wires (an unnormalized sum over equal indices).  The result is indexed
    by the open outputs in boundary order; a diagram with no open wires
    contracts to a scalar-shaped array.
    """
    if dims is None:
        dims = WireDims()

    # Union-find over wire ids: a cup or cap makes its two wires share an index.
    parent = list(range(len(d.wires)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for wl, wr in d.cup_pairs():
        union(wl, wr)
    for wl, wr in d.cap_pairs():
        union(wl, wr)

    labels: dict[int, int] = {}

    def label(w: int) -> int:
        root = find(w)
        if root not in labels:
            labels[root] = len(labels)
        return labels[root]

    operands: list[np.ndarray] = []
    sublists: list[list[int]] = []
    for b, box in enumerate(d.boxes):
        expected = box_shape(box, dims)
        try:
            arr = np.asarray(tensors[b], dtype=np.result_type(tensors[b], float))
        except KeyError:
            raise ShapeMismatch(f"no tensor for box {b} ({box.name!r})") from None
        if arr.shape != expected:
            raise ShapeMismatch(
                f"box {b} ({box.name!r}) expects shape {expected}, got {arr.shape}"
            )
        wire_ids = list(d.dom_wires(b)) + list(d.cod_wires(b))
        operands.append(arr)
        sublists.append([label(w) for w in wire_ids])

    out_labels = [label(w) for w in d.open_wires()]

    # A cap feeding a cup directly forms a closed loop touching no box; its
    # contraction contributes a bare dimension factor.
    loop_factor = 1.0
    seen_loops: set[int] = set()
    for w, wire in enumerate(d.wires):
        root = find(w)
        if root not in labels and root not in seen_loops:
            seen_loops.add(root)
            loop_factor *= dims.dim(wire.stype)
    if len(labels) > 52:
        raise ShapeMismatch("diagram has too many independent wires to contract")

    if not operands:
        result = np.array(1.0)
    else:
        args: list[object] = []
        for arr, subs in zip(operands, sublists):
            args.append(arr)
            args.append(subs)
        args.append(out_labels)
        result = np.einsum(*args)
    return result * loop_factor


def enumerate_reductions(
    types: Sequence[SimpleType], target: Sequence[SimpleType]
) -> set[frozenset[tuple[int, int]]]:
    """All cup sets that reduce ``types`` to ``target``, by brute force.

    At every step any adjacent surviving pair may be contracted, so the
    search order is unrelated to the shift-reduce scan under test.
    """
    target = tuple(target)
    results: set[frozenset[tuple[int, int]]] = set()
    seen: set[tuple[tuple[int, ...], frozenset[tuple[int, int]]]] = set()

    def survivors_match(alive: tuple[int, ...]) -> bool:
        return tuple(types[i] for i in alive) == target

    def step(alive: tuple[int, ...], cups: frozenset[tuple[int, int]]) -> None:
        key = (alive, cups)
        if key in seen:
            return
        seen.add(key)
        if survivors_match(alive):
            results.add(cups)
        for k in range(len(alive) - 1):
            i, j = alive[k], alive[k + 1]
            if contractible(types[i], types[j]):
                step(alive[:k] + alive[k + 2 :], cups | {(i, j)})

    step(tuple(range(len(types))), frozenset())
    return results


def brute_force_eval(diagram, assignment: dict, dims: Callable[[SimpleType], int]) -> np.ndarray:
    """Evaluate a diagram by summing over every explicit wire assignment.

    assignment maps box index -> ndarray with axes dom ++ cod, exactly as
    eval_tensor expects.  dims maps a simple type to its dimension.
    """
    wire_dim = [dims(w.stype) for w in diagram.wires]
    out_wires = diagram.open_wires()
    out_shape = tuple(wire_dim[w] for w in out_wires)
    result = np.zeros(out_shape, dtype=complex)

    box_wires: list[tuple[list[int], list[int]]] = []
    for b, box in enumerate(diagram.boxes):
        dom_w = [None] * len(box.dom)
        cod_w = [None] * len(box.cod)
        for w, wire in enumerate(diagram.wires):
            if wire.producer.owner == "box" and wire.producer.index == b:
                cod_w[wire.producer.leg] = w
            if wire.consumer.owner == "box" and wire.consumer.index == b:
                dom_w[wire.consumer.leg] = w
        box_wires.append(([w for w in dom_w], [w for w in cod_w]))

    cup_wires: dict[int, list[int]] = {}
    for w, wire in enumerate(diagram.wires):
        if wire.consumer.owner == "cup":
            cup_wires.setdefault(wire.consumer.index, [None, None])[wire.consumer.leg] = w
        if wire.producer.owner == "cap":
            cup_wires.setdefault(("cap", wire.producer.index), [None, None])[
                wire.producer.leg
            ] = w

    for idx in itertools.product(*[range(d) for d in wire_dim]):
        term = complex(1.0)
        for b in range(len(diagram.boxes)):
            dom_w, cod_w = box_wires[b]
            sub = tuple(idx[w] for w in dom_w) + tuple(idx[w] for w in cod_w)
            term *= assignment[b][sub]
            if term == 0:
                break
        else:
            ok = all(idx[pair[0]] == idx[pair[1]] for pair in cup_wires.values())
            if ok:
                result[tuple(idx[w] for w in out_wires)] += term
    return result


def tensor_train(target: np.ndarray, bond: int) -> list[np.ndarray]:
    """Decompose a dense tensor into a chain by successive SVD truncation.

    With bond at least the exact chain rank the reconstruction is lossless;
    used to certify a chain parameterization can represent dense targets.
    """
    shape = target.shape
    k = len(shape)
    pieces: list[np.ndarray] = []
    rest = target.reshape(shape[0], -1)
    for i in range(k - 1):
        u, s, vt = np.linalg.svd(rest, full_matrices=False)
        r = min(bond, len(s))
        u, sv = u[:, :r], s[:r, None] * vt[:r]
        if r < bond:
            # Zero-pad so every interior rank equals the declared bond.
            u = np.pad(u, [(0, 0), (0, bond - r)])
            sv = np.pad(sv, [(0, bond - r), (0, 0)])
        piece = u.reshape(bond, shape[i], bond) if i else u.reshape(shape[0], bond)
        pieces.append(piece)
        rest = sv.reshape(bond * shape[i + 1], -1)
    pieces.append(rest.reshape(bond, shape[-1]))
    return pieces


def finite_difference(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a (vector-valued) function, axis 0 = params."""
    x = np.asarray(x, dtype=float)
    probe = np.asarray(f(x))
    jac = np.zeros((x.size,) + probe.shape)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        jac[i] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h)
    return jac


def five_point_difference(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Five-point central differences of a scalar function, one per entry of ``x``.

    The stencil's error is ``O(h**4)``, so a step of 1e-3 keeps both the
    truncation and the rounding error far below 1e-6 on smooth inputs.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        out[i] = (8 * (f(x + e) - f(x - e)) - (f(x + 2 * e) - f(x - 2 * e))) / (12 * h)
    return out


def pull_back(engine, batch, values: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A fresh ``engine.Bound`` pass over ``values``: its forward, then its
    pullback of the cotangent ``g`` on the leading ``len(g)`` rows."""
    bound = engine.Bound(batch, values, len(g))
    bound.forward()
    return bound.backward(g)


def split_loss(probs: np.ndarray, labels: np.ndarray, split: str, epoch: int) -> float:
    """Mean loss of a split; non-finite probabilities or a row count that
    differs from the split's fail the fit, as in ``training.fit``.

    The clip bounds the loss of finite probabilities, so the check on
    them covers the loss too.
    """
    if not np.isfinite(probs).all():
        raise training.NonFiniteLoss(f"{split} loss became non-finite at epoch {epoch}")
    if np.shape(probs) != (len(labels), 2):
        raise Error(f"{split} split: {len(labels)} sentences, probabilities {np.shape(probs)}")
    return float(training.bce_loss(probs, labels).mean())


def bce_grad(probs, label) -> np.ndarray:
    """d ``training.bce_loss``/d probs, shaped like ``probs``; zero where the
    clip is active."""
    p = np.asarray(probs, dtype=float)
    y = np.asarray(label) != 0
    picked = np.where(y, p[..., 1], p[..., 0])
    active = (picked > training.PROB_CLIP) & (picked < 1.0 - training.PROB_CLIP)
    g = np.divide(-1.0, picked, out=np.zeros_like(picked), where=active)
    return np.where(np.stack([~y, y], axis=-1), g[..., None], 0.0)


def hit_rate(probs, labels) -> float:
    """The share of rows whose class, 1 only if ``p1 - p0 > training.TIE_EPS``
    (a tie reads 0), is their label."""
    p = np.asarray(probs, dtype=float)
    return np.count_nonzero((p[:, 1] - p[:, 0] > training.TIE_EPS) == labels) / len(labels)


def reference_fit(model, splits, cfg: training.TrainConfig) -> training.History:
    """The fit loop one split at a time, through ``eval_split`` and ``grad_split``.

    Each epoch records train metrics at the current parameters (under
    adaptive GD from the gradient pass), takes one optimizer step, then
    evaluates dev at the new parameters; test is scored after the last
    epoch.  SPSA scores each probe with its own train readout.  Every
    readout's degenerate rows are counted, and every loss passes the same
    checks as in ``training.fit``.
    """
    train_labels, dev_labels = splits.train.label_array, splits.dev.label_array
    rng = np.random.default_rng(cfg.seed)
    theta = model.init_params(rng)
    history = training.History()
    if isinstance(cfg.optimizer, training.SPSAConfig):
        spsa, adaptive = training.SPSA(cfg.optimizer, model.n_params, cfg.epochs, rng), None
    else:
        spsa, adaptive = None, training.AdaptiveGD(cfg.optimizer, model.n_params)

    def score(split, labels, readout, epoch):
        probs, degenerate = readout
        history.degenerate_evals += degenerate
        return probs, split_loss(probs, labels, split, epoch)

    for epoch in range(1, cfg.epochs + 1):
        if spsa is not None:
            readout = model.eval_split("train", theta)
        else:
            grad, *readout = model.grad_split("train", theta, train_labels)
        probs, loss = score("train", train_labels, readout, epoch)
        history.train_loss.append(loss)
        history.train_acc.append(hit_rate(probs, train_labels))
        if spsa is not None:
            plus, minus = spsa.probes(theta)
            loss_plus = score("train", train_labels, model.eval_split("train", plus), epoch)[1]
            loss_minus = score("train", train_labels, model.eval_split("train", minus), epoch)[1]
            theta = spsa.step(theta, loss_plus, loss_minus)
        else:
            theta = adaptive.step(theta, grad)
        probs, loss = score("dev", dev_labels, model.eval_split("dev", theta), epoch)
        history.val_loss.append(loss)
        history.val_acc.append(hit_rate(probs, dev_labels))

    test_labels = splits.test.label_array
    probs, _ = score("test", test_labels, model.eval_split("test", theta), cfg.epochs)
    history.test_acc = hit_rate(probs, test_labels)
    history.final_params = theta
    return history


def reference_circuits(splits, lexicon, scheme, ansatz) -> dict[str, list]:
    """Every split's sentences, each parsed, rewritten and compiled alone."""
    return {lset.name: [compile_circuit(rewrite(parse_sentence(list(words), lexicon), scheme),
                                        ansatz) for words in lset.sentences()]
            for lset in splits}


def reference_gather(circuits, offsets) -> np.ndarray:
    """Per circuit, the parameter position each parametric gate reads."""
    rows = [[offsets[g.param] for g in c.gates if isinstance(g.param, Symbol)] for c in circuits]
    return np.array(rows, dtype=np.intp).reshape(len(circuits), len(rows[0]))


def reference_map(circuit, theta, n_dom: int) -> np.ndarray:
    """A circuit's map: per basis state of its first ``n_dom`` qubits, the
    others at 0, the gates applied one by one with ``simulator.apply``,
    then the amplitudes of its outputs, in order, with its postselected
    qubits at 0.  Flat, the inputs most significant."""
    n = circuit.n_qubits
    angles = dict(zip(circuit.symbols, theta))
    index = tuple(0 if q in circuit.postselect else slice(None) for q in range(n))
    kept = [q for q in range(n) if q not in circuit.postselect]
    out = []
    for bits in itertools.product((0, 1), repeat=n_dom):
        state = np.zeros((2,) * n, dtype=complex)
        state[bits + (0,) * (n - n_dom)] = 1.0
        for g in circuit.gates:
            state = simulator.apply(state, g, angles[g.param] if isinstance(g.param, Symbol)
                                    else g.param)
        out.append(np.transpose(state[index], [kept.index(q) for q in circuit.outputs]).ravel())
    return np.concatenate(out)


def circuit_structure_key(circuit) -> tuple:
    """What circuits must share to run as one ``simulator`` batch.

    The qubit count, then per gate its kind, its qubits, and its constant
    angle or, for a gate that reads a parameter, the :class:`Symbol` class
    (a marker that never equals an angle), then the postselected and
    output qubits.  Word blocks of one width under one ansatz share a key
    whatever their words.
    """
    gates = tuple((g.kind, g.qubits, Symbol if isinstance(g.param, Symbol) else g.param)
                  for g in circuit.gates)
    return (circuit.n_qubits, gates, circuit.postselect, circuit.outputs)


class PerStructureCircuitModel:
    """A circuit model that runs every sentence's whole circuit: each
    split's circuits of one :func:`circuit_structure_key` as one batch with
    no inputs, a row's two output amplitudes renormalized, and the
    mean-loss gradient pulled back through a ``simulator.Bound`` pass
    from each row's amplitudes.  No word maps and no contraction.  It has
    ``eval_split`` and ``grad_split`` for :func:`reference_fit`, and the
    symbols and initial draw of ``model``."""

    def __init__(self, model: training.CircuitModel, circuits_by_split: dict[str, list]):
        self.n_params, self.init_params = model.n_params, model.init_params
        offsets = {s: i for i, s in enumerate(model.symbols)}
        self.sizes = {name: len(circuits) for name, circuits in circuits_by_split.items()}
        self.groups = {}
        for name, circuits in circuits_by_split.items():
            rows: dict[tuple, list[int]] = {}
            for r, c in enumerate(circuits):
                rows.setdefault(circuit_structure_key(c), []).append(r)
            self.groups[name] = [(simulator.compile_batch(circuits[at[0]], 0), np.array(at),
                                  reference_gather([circuits[r] for r in at], offsets))
                                 for at in rows.values()]

    def _read(self, name: str, theta: np.ndarray):
        amps = np.zeros((self.sizes[name], 2), dtype=complex)
        for batch, at, gather in self.groups[name]:
            amps[at] = simulator.Bound(batch, theta[gather]).forward()
        u = amps.real**2 + amps.imag**2
        norm = u.sum(axis=1)
        dead = norm < training.DEGENERATE_EPS
        norm = np.where(dead, 1.0, norm)
        probs = np.where(dead[:, None], 0.5, u / norm[:, None])
        return amps, norm, dead, probs

    def eval_split(self, name: str, theta: np.ndarray):
        _, _, dead, probs = self._read(name, theta)
        return probs, int(dead.sum())

    def grad_split(self, name: str, theta: np.ndarray, labels):
        # p_j = |a_j|^2 / D, so dL = sum_j c_j d|a_j|^2 with
        # c_j = (dL/dp_j - sum_k p_k dL/dp_k) / D, and d|a|^2 = Re <2a, da>
        amps, norm, dead, probs = self._read(name, theta)
        dp = bce_grad(probs, np.asarray(labels)) / len(probs)
        c = (dp - (dp * probs).sum(axis=1, keepdims=True)) / norm[:, None]
        g = np.where(dead[:, None], 0.0, 2.0 * c * amps)
        grad = np.zeros(self.n_params)
        for batch, at, gather in self.groups[name]:
            bound = simulator.Bound(batch, theta[gather], len(at))
            bound.forward()
            np.add.at(grad, gather, bound.backward(g[at]))
        return grad, probs, int(dead.sum())


def split_starts(sizes: dict[str, int]) -> dict[str, int]:
    """Each split's first corpus position: every split's rows in turn."""
    return dict(zip(sizes, np.cumsum([0, *sizes.values()]).tolist()))


def reference_networks(splits, lexicon, scheme, cfg) -> dict[str, list]:
    """Every split's sentences, each parsed, rewritten and compiled alone."""
    return {lset.name: [compile_network(rewrite(parse_sentence(list(words), lexicon), scheme), cfg)
                        for words in lset.sentences()]
            for lset in splits}


def reference_tensor_gather(nets, offsets) -> np.ndarray:
    """Per network, one row: the positions in the parameter vector of its
    parameter nodes' flattened tensor entries, node after node."""
    rows = [[offsets[n.symbol] + i for n in net.nodes if isinstance(n, ParamNode)
             for i in range(int(np.prod(n.shape)))] for net in nets]
    return np.array(rows, dtype=np.intp).reshape(len(nets), len(rows[0]))


def reference_tensor_model(nets_by_split: dict[str, list]) -> training.TensorModel:
    """A tensor model over separately compiled networks, each network's
    pieces gathered straight from the parameters: an ``mps`` or ``spider``
    word's pieces are contracted inside every sentence's network, not
    mapped to a dense tensor first."""
    shapes, groups = reference_tensor_groups(nets_by_split)
    sizes = {name: len(nets) for name, nets in nets_by_split.items()}
    batches = [training._Group(tensornet.compile_batch(first), at, gather,
                               sum(isinstance(n, tensornet.CupDeltaNode) for n in first.nodes))
               for first, at, gather in groups]
    # every symbol's tensor is one entry of the value vector, and there are no pads
    starts = np.cumsum([0, *(int(np.prod(shape)) for shape in shapes.values())])
    contraction = training._Contraction(sizes, list(shapes.values()), starts, batches, np.zeros(0))
    ids = np.arange(contraction.n_values)
    model = training.TensorModel(contraction, list(shapes), list(shapes.values()),
                                 [training._Block(None, None, ids, None, ids)])
    model.init_params = lambda rng: reference_init_params(model.shapes, rng)
    return model


def reference_init_params(shapes, rng: np.random.Generator) -> np.ndarray:
    """A tensor model's initial draw, one symbol at a time: each symbol's
    entries normal with standard deviation one over the square root of its
    tensor's size without the last leg."""
    chunks = [np.zeros(0)]
    for shape in shapes:
        std = 1.0 / np.sqrt(math.prod(shape[:-1]))
        chunks.append(rng.normal(0.0, std, size=math.prod(shape)))
    return np.concatenate(chunks)


def reference_tensor_groups(nets_by_split: dict[str, list]) -> tuple[dict, list[tuple]]:
    """Every symbol's shape, in first-use order over every network of every
    split, and the networks grouped by ``structure_key`` in order of first
    use, each group as its first network, its members' corpus positions
    and their gather."""
    shapes = {}
    for nets in nets_by_split.values():
        for net in nets:
            shapes.update(net.param_shapes())
    offsets = dict(zip(shapes, np.cumsum([0, *(int(np.prod(s)) for s in shapes.values())])))
    start = split_starts({name: len(nets) for name, nets in nets_by_split.items()})
    members: dict[tuple, list] = {}
    for name, nets in nets_by_split.items():
        for r, net in enumerate(nets):
            members.setdefault(tensornet.structure_key(net), []).append((start[name] + r, net))
    return shapes, [(rows[0][1], np.array([at for at, _ in rows], dtype=np.intp),
                     reference_tensor_gather([net for _, net in rows], offsets))
                    for rows in members.values()]


def reference_backward(batch, tape, g_v) -> np.ndarray:
    """``tensornet.Bound.backward`` by the uncompiled rule: the leading
    ``t = len(g_v)`` rows of every node of a pass's ``tape`` sliced and, on
    complex rows, conjugated up front, and each input's cotangent from the
    step's cotangent and the step's other inputs as ``forward`` lists them,
    kept in a dict by node number; ``sweep`` gives each input's einsum and
    identity bridges only."""
    t = len(g_v)
    nodes = [node[:t] for node in tape]
    if np.iscomplexobj(tape[-1]):
        nodes = [node.conj() for node in nodes]
    first = len(batch.shapes)
    cotangent = {len(tape) - 1: g_v.reshape((t,) + batch.out_shape) * batch.factor}
    sweep = iter(batch.sweep)
    for k in range(len(batch.forward) - 1, -1, -1):
        inputs, g = batch.forward[k][1], cotangent.pop(first + k)
        for node in inputs:
            at, source, subscripts, _, eyes = next(sweep)
            assert (at, source) == (node, first + k)
            siblings = [nodes[m] for m in inputs if m != node]
            cotangent[node] = np.einsum(subscripts, g, *siblings, *eyes, optimize=False)
    assert next(sweep, None) is None
    return np.concatenate([cotangent[p].reshape(t, -1) for p in range(first)], axis=1)


@dataclass(frozen=True)
class CurryInfo:
    """How one word box is curried: which codomain legs become the domain."""

    bent_cod_legs: tuple[int, ...]
    n_cod: int


def curry_infos(d: Diagram) -> dict[int, CurryInfo]:
    """Per word box of ``d`` with a leg to bend, its :class:`CurryInfo`,
    read off ``d`` alone: the box's adjoint codomain legs whose cup joins
    them to a plain wire."""
    partner = {}
    for a, b in d.cup_pairs():
        partner[a], partner[b] = b, a
    infos = {}
    for b, box in enumerate(d.boxes):
        if box.kind is not BoxKind.WORD:
            continue
        cod = d.cod_wires(b)
        bent = tuple(leg for leg, w in enumerate(cod) if not d.wires[w].stype.is_plain()
                     and w in partner and d.wires[partner[w]].stype.is_plain())
        if bent:
            infos[b] = CurryInfo(bent, len(cod))
    return infos


def bend_tensor(tensor: np.ndarray, info: CurryInfo) -> np.ndarray:
    """A word's tensor as its curried box reads it: the bent codomain axes
    first, then the others, each in their original order."""
    remaining = [i for i in range(info.n_cod) if i not in info.bent_cod_legs]
    return np.transpose(np.asarray(tensor), tuple(info.bent_cod_legs) + tuple(remaining))


def named_to_params(model, named: dict) -> np.ndarray:
    """The parameter vector of ``model`` from each symbol name's value, as
    ``model.params_to_named`` writes them."""
    theta = np.empty(model.n_params)
    for s, _, lo, hi in model._tables():
        theta[lo:hi] = np.ravel(named[s.name])
    return theta
