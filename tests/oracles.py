"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different algorithm than the
code under test: the reducer enumerates cup sets by free adjacent-pair choice
instead of a stack scan, the evaluator loops over explicit index
assignments instead of calling einsum, the reference fit loop reads
one split per model call instead of stacking splits and parameter points,
and the reference circuit grouping compiles every sentence and groups the
circuits by structure instead of lowering one sentence per layout.
Slow is fine; these only ever see small inputs.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence

import numpy as np

from qnlp import simulator, training
from qnlp.circuit import Symbol, compile_circuit
from qnlp.pregroup import SimpleType, contractible, parse_sentence
from qnlp.rewrite import rewrite


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


def reference_circuit_model(circuits_by_split: dict[str, list]) -> training.CircuitModel:
    """A circuit model over hand-made or separately compiled circuits."""
    symbols, groups = reference_groups(circuits_by_split)
    return training.CircuitModel(symbols, groups,
                                 {name: len(cs) for name, cs in circuits_by_split.items()})
