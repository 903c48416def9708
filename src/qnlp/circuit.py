"""Compilation of diagrams to parameterized quantum circuits.

Every wire is one qubit.  Word boxes allocate fresh qubits for their
codomain and carry a parameterized block; a curried box with ``a`` domain
and ``b`` codomain wires places its block on ``max(a, b)`` qubits, with
surplus inputs postselected to 0 or fresh zero-initialized qubits appended.
Each cup lowers to the unnormalized Bell effect: ``CNOT`` then ``H`` on the
first qubit, then both qubits postselected to 0.

Block layouts per ansatz family, on ``k`` qubits:

* any family, ``k == 1``: alternating ``RX, RZ, RX, ...`` rotations,
  ``n_single_qubit_params`` of them;
* ``iqp``: per layer, ``H`` on every qubit then ``CRZ`` on each adjacent
  pair, ``k - 1`` parameters per layer;
* ``strongly_entangling``: per layer, ``RZ, RY, RZ`` on every qubit then a
  ``CNOT`` ring, ``3k`` parameters per layer;
* ``sim14``: per layer, ``RY`` on every qubit, a ``CRX`` ring in descending
  order, ``RY`` again, a ``CRX`` ring in ascending order, ``4k`` parameters
  per layer;
* ``sim15``: like ``sim14`` with plain ``CNOT`` rings, ``2k`` parameters
  per layer (half as many as ``sim14`` on every block).

Every rotation angle is a named :class:`Symbol` ``(word, type fingerprint,
index)``; equal words with equal types share symbols, within a sentence and
across a corpus, which is what ties weights during training.

:func:`compile_circuit` is :func:`layout`, the ansatz-free work (validation,
the cap and ``MAX_QUBITS`` checks, and placing every box and cup on qubits),
then :func:`lower`, which emits the gates under one config.  A training
build lays a corpus out once and lowers one sentence per layout group:
sentences whose layouts differ only in their words get the same gates,
each reading its own words' symbols.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Mapping

from qnlp.diagram import Box, Diagram, InvalidDiagram, validate
from qnlp.errors import Error


class ZeroParameterModel(Error):
    """The compiled circuit would carry no trainable parameters."""


class WidthOverflow(Error):
    """The diagram needs more qubits than ``MAX_QUBITS``."""


# Widest circuit compile_circuit accepts; a state of 2**20 amplitudes is 16 MiB.
MAX_QUBITS = 20


class GateKind(enum.Enum):
    H = "h"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CNOT = "cnot"
    CRZ = "crz"
    CRX = "crx"


PARAMETRIC_1Q = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})
PARAMETRIC_2Q = frozenset({GateKind.CRZ, GateKind.CRX})


@dataclass(frozen=True)
class Symbol:
    """A named scalar parameter shared by every gate that mentions it."""

    word: str
    type_fingerprint: str
    index: int

    @property
    def name(self) -> str:
        return f"{self.word}|{self.type_fingerprint}|{self.index}"

    @classmethod
    def from_name(cls, name: str) -> "Symbol":
        word, fingerprint, index = name.rsplit("|", 2)
        return cls(word, fingerprint, int(index))


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    param: Symbol | float | None = None


@dataclass(frozen=True)
class Circuit:
    """A gate list with postselected qubits and designated output qubits.

    ``postselect`` qubits are projected onto outcome 0 after all gates;
    ``outputs`` are the qubits carrying the diagram's open wires, in
    boundary order.  ``symbols`` is the ordered table of free parameters
    (first appearance order); a parameter vector aligns with it.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    postselect: tuple[int, ...]
    outputs: tuple[int, ...]
    symbols: tuple[Symbol, ...]


class CircuitAnsatz(enum.Enum):
    IQP = "iqp"
    STRONGLY_ENTANGLING = "strongly_entangling"
    SIM14 = "sim14"
    SIM15 = "sim15"


@dataclass(frozen=True)
class CircuitAnsatzConfig:
    kind: CircuitAnsatz
    n_layers: int = 1
    n_single_qubit_params: int = 3

    def __post_init__(self):
        if self.n_layers < 0 or self.n_single_qubit_params < 0:
            raise Error("layer and rotation counts must be non-negative")


def type_fingerprint(box: Box) -> str:
    """Weight-tying key: the box's full type, domain and codomain."""
    return f"{box.dom}->{box.cod}"


# -- block generators -----------------------------------------------------


def _ring(k: int, descending: bool) -> list[tuple[int, int]]:
    order = range(k - 1, -1, -1) if descending else range(k)
    return [(i, (i + 1) % k) for i in order]


def word_block(
    word: str, fingerprint: str, qubits: tuple[int, ...], cfg: CircuitAnsatzConfig
) -> tuple[list[Gate], list[Symbol]]:
    """Gates and fresh symbols of one ansatz block on the given qubits."""
    k = len(qubits)
    symbols: list[Symbol] = []

    def sym() -> Symbol:
        s = Symbol(word, fingerprint, len(symbols))
        symbols.append(s)
        return s

    gates: list[Gate] = []
    if k == 1:
        q = qubits[0]
        for i in range(cfg.n_single_qubit_params):
            kind = GateKind.RX if i % 2 == 0 else GateKind.RZ
            gates.append(Gate(kind, (q,), sym()))
        return gates, symbols

    for _ in range(cfg.n_layers):
        if cfg.kind is CircuitAnsatz.IQP:
            for q in qubits:
                gates.append(Gate(GateKind.H, (q,)))
            for i in range(k - 1):
                gates.append(Gate(GateKind.CRZ, (qubits[i], qubits[i + 1]), sym()))
        elif cfg.kind is CircuitAnsatz.STRONGLY_ENTANGLING:
            for q in qubits:
                gates.append(Gate(GateKind.RZ, (q,), sym()))
                gates.append(Gate(GateKind.RY, (q,), sym()))
                gates.append(Gate(GateKind.RZ, (q,), sym()))
            for a, b in _ring(k, descending=False):
                gates.append(Gate(GateKind.CNOT, (qubits[a], qubits[b])))
        elif cfg.kind is CircuitAnsatz.SIM14:
            for q in qubits:
                gates.append(Gate(GateKind.RY, (q,), sym()))
            for a, b in _ring(k, descending=True):
                gates.append(Gate(GateKind.CRX, (qubits[a], qubits[b]), sym()))
            for q in qubits:
                gates.append(Gate(GateKind.RY, (q,), sym()))
            for a, b in _ring(k, descending=False):
                gates.append(Gate(GateKind.CRX, (qubits[a], qubits[b]), sym()))
        elif cfg.kind is CircuitAnsatz.SIM15:
            for q in qubits:
                gates.append(Gate(GateKind.RY, (q,), sym()))
            for a, b in _ring(k, descending=True):
                gates.append(Gate(GateKind.CNOT, (qubits[a], qubits[b])))
            for q in qubits:
                gates.append(Gate(GateKind.RY, (q,), sym()))
            for a, b in _ring(k, descending=False):
                gates.append(Gate(GateKind.CNOT, (qubits[a], qubits[b])))
        else:
            raise ValueError(f"unknown ansatz kind: {cfg.kind!r}")
    return gates, symbols


def cup_block(q1: int, q2: int) -> tuple[list[Gate], list[int]]:
    """The unnormalized Bell effect on a qubit pair.

    ``CNOT(q1 -> q2)`` then ``H(q1)``, both qubits postselected to 0,
    projects onto ``(<00| + <11|) / sqrt(2)``.
    """
    return [Gate(GateKind.CNOT, (q1, q2)), Gate(GateKind.H, (q1,))], [q1, q2]


# -- compilation ----------------------------------------------------------


@dataclass(frozen=True)
class Layout:
    """A diagram's circuit without its gates: each box's ``(word, type
    fingerprint, block qubits)`` in topological order and each cup's qubits."""

    n_qubits: int
    blocks: tuple[tuple[str, str, tuple[int, ...]], ...]
    cups: tuple[tuple[int, int], ...]
    postselect: tuple[int, ...]
    outputs: tuple[int, ...]


def layout(d: Diagram) -> Layout:
    """Check a diagram and place its boxes and cups on qubits."""
    violations = validate(d)
    if violations:
        raise InvalidDiagram(violations)
    if d.n_caps:
        raise Error("cap wires are not supported by the circuit backend; "
                    "run the normal-form pass first")

    wire_qubit: dict[int, int] = {}
    blocks = []
    postselect: set[int] = set()
    n_qubits = 0
    for b in d.topological_boxes():
        box = d.boxes[b]
        qubits = [wire_qubit[w] for w in d.dom_wires(b)]
        fresh = len(box.cod) - len(qubits)
        if fresh > 0:
            qubits += range(n_qubits, n_qubits + fresh)
            n_qubits += fresh
        # Codomain wires take the leading block qubits; surplus inputs are
        # postselected away.
        cod = d.cod_wires(b)
        wire_qubit.update(zip(cod, qubits))
        postselect.update(qubits[len(cod):])
        blocks.append((box.name, type_fingerprint(box), tuple(qubits)))
    if n_qubits > MAX_QUBITS:
        raise WidthOverflow(f"diagram needs {n_qubits} qubits, limit is {MAX_QUBITS}")

    cups = tuple((wire_qubit[wl], wire_qubit[wr]) for wl, wr in d.cup_pairs())
    postselect.update(q for pair in cups for q in pair)
    return Layout(n_qubits, tuple(blocks), cups, tuple(sorted(postselect)),
                  tuple(wire_qubit[w] for w in d.open_wires()))


def lower(lay: Layout, cfg: CircuitAnsatzConfig) -> Circuit:
    """Emit a layout's gates under an ansatz."""
    gates: list[Gate] = []
    symbols: dict[Symbol, None] = {}  # first-appearance order
    for word, fingerprint, qubits in lay.blocks:
        block_gates, block_symbols = word_block(word, fingerprint, qubits, cfg)
        gates.extend(block_gates)
        symbols.update(dict.fromkeys(block_symbols))
    for q1, q2 in lay.cups:
        gates.extend(cup_block(q1, q2)[0])
    if not symbols:
        raise ZeroParameterModel("no trainable parameters: every block in the circuit is empty")
    return Circuit(lay.n_qubits, tuple(gates), lay.postselect, lay.outputs, tuple(symbols))


def compile_circuit(d: Diagram, cfg: CircuitAnsatzConfig) -> Circuit:
    """Lower a diagram to a parameterized circuit under the given ansatz."""
    return lower(layout(d), cfg)


# -- serialization --------------------------------------------------------


def circuit_to_dict(c: Circuit) -> dict:
    def param_json(p):
        if p is None:
            return None
        if isinstance(p, Symbol):
            return p.name
        return float(p)

    return {
        "n_qubits": c.n_qubits,
        "gates": [
            {"kind": g.kind.value, "qubits": list(g.qubits), "param": param_json(g.param)}
            for g in c.gates
        ],
        "postselect": list(c.postselect),
        "outputs": list(c.outputs),
        "symbols": [
            {"word": s.word, "type": s.type_fingerprint, "index": s.index}
            for s in c.symbols
        ],
    }


def circuit_from_dict(obj: Mapping) -> Circuit:
    def param_from(p):
        if p is None:
            return None
        if isinstance(p, str):
            return Symbol.from_name(p)
        return float(p)

    return Circuit(
        n_qubits=int(obj["n_qubits"]),
        gates=tuple(
            Gate(GateKind(g["kind"]), tuple(int(q) for q in g["qubits"]), param_from(g["param"]))
            for g in obj["gates"]
        ),
        postselect=tuple(int(q) for q in obj["postselect"]),
        outputs=tuple(int(q) for q in obj["outputs"]),
        symbols=tuple(
            Symbol(s["word"], s["type"], int(s["index"])) for s in obj["symbols"]
        ),
    )


def circuit_to_json(c: Circuit) -> str:
    return json.dumps(circuit_to_dict(c), indent=2)


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))
