"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different algorithm than the
code under test: the reducer enumerates cup sets by free adjacent-pair choice
instead of a stack scan, ``eval_tensor`` contracts a diagram's boxes in
one einsum over its wires instead of lowering it to a network, the
brute-force evaluator loops over explicit index assignments instead of
calling einsum, the reference fit loop reads one split per model call
instead of stacking splits and parameter points, the reference circuit
and tensor groupings compile every sentence and group the circuits or
networks by structure instead of lowering one sentence per plan group,
and the padded merge embeds a structure in its host by a table over
suffixes instead of a greedy scan, then pads each circuit with
zero-angle gates explicitly.
Slow is fine; these only ever see small inputs.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from qnlp import simulator, tensornet, training
from qnlp.circuit import Symbol, compile_circuit
from qnlp.diagram import Box, Diagram, ShapeMismatch
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

    ``tensors`` maps box index to a dense array shaped like
    :func:`box_shape`.  Cups and caps identify the indices of their two
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
            arr = np.asarray(tensors[b], dtype=float)
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


def reference_fit(model, splits, cfg: training.TrainConfig) -> training.History:
    """The fit loop one split at a time, through ``eval_split`` and ``grad_split``.

    Each epoch records train metrics at the current parameters (under
    adaptive GD from the gradient pass), takes one optimizer step, then
    evaluates dev at the new parameters; test is scored after the last
    epoch.  SPSA scores each probe with its own train readout.  Every
    readout's degenerate rows are counted, and every loss passes the same
    checks as in ``training.fit``.
    """
    train_labels = np.asarray(splits.train.labels())
    dev_labels = np.asarray(splits.dev.labels())
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
        return probs, training._split_loss(probs, labels, split, epoch)

    for epoch in range(1, cfg.epochs + 1):
        if spsa is not None:
            readout = model.eval_split("train", theta)
        else:
            grad, *readout = model.grad_split("train", theta, train_labels)
        probs, loss = score("train", train_labels, readout, epoch)
        history.train_loss.append(loss)
        history.train_acc.append(training.accuracy(probs, train_labels))
        if spsa is not None:
            plus, minus = spsa.probes(theta)
            loss_plus = score("train", train_labels, model.eval_split("train", plus), epoch)[1]
            loss_minus = score("train", train_labels, model.eval_split("train", minus), epoch)[1]
            theta = spsa.step(theta, loss_plus, loss_minus)
        else:
            theta = adaptive.step(theta, grad)
        probs, loss = score("dev", dev_labels, model.eval_split("dev", theta), epoch)
        history.val_loss.append(loss)
        history.val_acc.append(training.accuracy(probs, dev_labels))

    test_labels = np.asarray(splits.test.labels())
    probs, _ = score("test", test_labels, model.eval_split("test", theta), cfg.epochs)
    history.test_acc = training.accuracy(probs, test_labels)
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


def reference_groups(circuits_by_split: dict[str, list]):
    """The circuit model's symbols and groups, sentence by sentence.

    Symbols in first-use order over every circuit of every split; circuits
    grouped by ``structure_key`` in order of first use, each group as its
    first circuit, its gather and its rows per split.
    """
    symbols = list(dict.fromkeys(s for cs in circuits_by_split.values() for c in cs
                                 for s in c.symbols))
    offsets = {s: i for i, s in enumerate(symbols)}
    members: dict[tuple, dict[str, list[int]]] = {}
    for name, cs in circuits_by_split.items():
        for r, c in enumerate(cs):
            members.setdefault(simulator.structure_key(c), {}).setdefault(name, []).append(r)
    groups = []
    for rows in members.values():
        cs = [circuits_by_split[name][r] for name, rs in rows.items() for r in rs]
        groups.append((cs[0], reference_gather(cs, offsets),
                       {name: np.array(rows.get(name, []), dtype=np.intp)
                        for name in circuits_by_split}))
    return symbols, groups


# The symbol a padded gate reads in a reference circuit: its gather entry is
# the model's n_params, which the model reads as angle 0.
ZERO = Symbol("", "zero", -1)


def leftmost_embedding(member: tuple, host: tuple) -> list[int] | None:
    """Host position of each of ``member``'s gate keys in the leftmost
    embedding whose unmatched host gates all read a parameter, or ``None``.

    ``fits[i][j]`` records whether ``member[i:]`` embeds in ``host[j:]``,
    filled from the back; the scan then matches a gate wherever the rest
    still fits.
    """
    m, h = len(member), len(host)
    fits = [[False] * (h + 1) for _ in range(m + 1)]
    fits[m][h] = True
    for i in range(m, -1, -1):
        for j in range(h - 1, -1, -1):
            skip = host[j][2] is Symbol and fits[i][j + 1]
            fits[i][j] = skip or (i < m and member[i] == host[j] and fits[i + 1][j + 1])
    if not fits[0][0]:
        return None
    at = []
    for j in range(h):
        i = len(at)
        if i < m and member[i] == host[j] and fits[i + 1][j + 1]:
            at.append(j)
    return at


def padded(circuit, host, at: list[int]):
    """``circuit`` with the host's gates inserted where ``at`` skips them,
    each reading :data:`ZERO`."""
    gates = [replace(g, param=ZERO) for g in host.gates]
    for j, g in zip(at, circuit.gates):
        gates[j] = g
    return replace(circuit, gates=tuple(gates))


def reference_padded_groups(circuits_by_split: dict[str, list]):
    """The circuit model's symbols and groups, structures merged by padding.

    The structure groups of :func:`reference_groups`, taken longest first:
    each joins the first host of equal qubit count, postselection and
    outputs that it embeds in (:func:`leftmost_embedding`), or becomes a
    host.  Every member circuit is padded with :data:`ZERO` gates
    explicitly, must then share its host's ``structure_key``, and gives
    its gather row with ``len(symbols)`` for ``ZERO``.  Groups keep the
    structures' order of first use, each as its host's first circuit, the
    gather of every row (split by split, in row order) and the rows per
    split.
    """
    symbols, _ = reference_groups(circuits_by_split)
    offsets = {s: i for i, s in enumerate(symbols)} | {ZERO: len(symbols)}
    first: dict[tuple, object] = {}
    for cs in circuits_by_split.values():
        for c in cs:
            first.setdefault(simulator.structure_key(c), c)
    hosts: dict[tuple, tuple] = {}  # structure to (host structure, embedding)
    for key in sorted(first, key=lambda k: len(k[1]), reverse=True):
        for host in [k for k, (h, _) in hosts.items() if h == k]:
            same_ends = (key[0], key[2:]) == (host[0], host[2:])
            at = leftmost_embedding(key[1], host[1]) if same_ends else None
            if at is not None:
                hosts[key] = (host, at)
                break
        else:
            hosts[key] = (key, list(range(len(key[1]))))
    groups = []
    for host in [k for k in first if hosts[k][0] == k]:
        rows: dict[str, list[int]] = {name: [] for name in circuits_by_split}
        gather = []
        for name, cs in circuits_by_split.items():
            for r, c in enumerate(cs):
                key = simulator.structure_key(c)
                if hosts[key][0] != host:
                    continue
                pad = padded(c, first[host], hosts[key][1])
                assert simulator.structure_key(pad) == host
                rows[name].append(r)
                gather.append(reference_gather([pad], offsets)[0])
        groups.append((first[host], np.array(gather, dtype=np.intp).reshape(len(gather), -1),
                       {name: np.array(rs, dtype=np.intp) for name, rs in rows.items()}))
    return symbols, groups


def split_starts(sizes: dict[str, int]) -> dict[str, int]:
    """Each split's first corpus position: every split's rows in turn."""
    return dict(zip(sizes, np.cumsum([0, *sizes.values()]).tolist()))


def reference_circuit_model(circuits_by_split: dict[str, list]) -> training.CircuitModel:
    """A circuit model over hand-made or separately compiled circuits, one
    group per structure."""
    symbols, groups = reference_groups(circuits_by_split)
    sizes = {name: len(cs) for name, cs in circuits_by_split.items()}
    start = split_starts(sizes)
    parts = [(first, np.concatenate([start[name] + rs for name, rs in rows.items()]), gather)
             for first, gather, rows in groups]
    return PerStructureCircuitModel(symbols, [()] * len(symbols), sizes, parts)


class PerStructureCircuitModel(training.CircuitModel):
    """A circuit model whose structures never run in a longer host's batch."""

    _embed = None


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
    """A tensor model over separately compiled networks."""
    shapes, groups = reference_tensor_groups(nets_by_split)
    sizes = {name: len(nets) for name, nets in nets_by_split.items()}
    return training.TensorModel(list(shapes), list(shapes.values()), sizes, groups)


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
