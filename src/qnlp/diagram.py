"""String-diagram intermediate representation.

A diagram is a finite set of boxes (one per word, or per curried word) wired
together by typed wires.  Every wire has exactly one producer and one
consumer:

* producers: a box codomain port, or one leg of a cap (a paired-wire state);
* consumers: a box domain port, one leg of a cup (a paired-wire effect), or
  an ordered open output of the diagram.

Parsed sentences are a single row of word boxes whose output wires either
meet in cups or flow to the open boundary.  Rewriting may replace word boxes
by curried boxes that consume other boxes' outputs, giving a shallow acyclic
graph.  Caps never appear in parsed sentences; they exist so rewrite passes
and tests can express wire-straightening identities.

A diagram's meaning is multilinear: boxes are dense tensors indexed by
domain then codomain wires, cups and caps are unnormalized index
identifications (sum over equal indices), and the result is indexed by the
open outputs in order.  :mod:`qnlp.tensornet` contracts it, and the test
suite's oracles evaluate it independently.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Mapping

from qnlp.errors import Error
from qnlp.pregroup import PregroupType, SimpleType, contractible


class ShapeMismatch(Error):
    """A supplied tensor does not match the shape the diagram requires."""


class InvalidDiagram(Error):
    """A structural validity check failed; carries the violation list."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__("; ".join(f"{v.kind}: {v.message}" for v in violations))


class BoxKind(enum.Enum):
    WORD = "word"
    CURRIED = "curried"


@dataclass(frozen=True)
class Box:
    """A generator of the diagram: a word state or a curried word map."""

    name: str
    dom: PregroupType
    cod: PregroupType
    kind: BoxKind = BoxKind.WORD


@dataclass(frozen=True)
class Port:
    """One endpoint slot of a wire.

    ``owner`` is ``"box"``, ``"cup"``, ``"cap"``, or ``"out"``; ``index``
    names the owning box/cup/cap or the output position; ``leg`` is the port
    position within the owner (codomain leg for box producers, domain leg for
    box consumers, 0/1 for cup and cap legs, 0 for outputs).
    """

    owner: str
    index: int
    leg: int = 0


@dataclass(frozen=True)
class Wire:
    stype: SimpleType
    producer: Port
    consumer: Port


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class Diagram:
    boxes: tuple[Box, ...]
    wires: tuple[Wire, ...]
    n_cups: int
    n_caps: int
    n_outputs: int

    # -- structural views -------------------------------------------------

    def cup_pairs(self) -> tuple[tuple[int, int], ...]:
        """Wire indices per cup, ordered (leg 0, leg 1)."""
        pairs: dict[int, dict[int, int]] = {}
        for w, wire in enumerate(self.wires):
            if wire.consumer.owner == "cup":
                pairs.setdefault(wire.consumer.index, {})[wire.consumer.leg] = w
        return tuple(
            (pairs[c][0], pairs[c][1]) for c in range(self.n_cups)
        )

    def cap_pairs(self) -> tuple[tuple[int, int], ...]:
        pairs: dict[int, dict[int, int]] = {}
        for w, wire in enumerate(self.wires):
            if wire.producer.owner == "cap":
                pairs.setdefault(wire.producer.index, {})[wire.producer.leg] = w
        return tuple(
            (pairs[k][0], pairs[k][1]) for k in range(self.n_caps)
        )

    def open_wires(self) -> tuple[int, ...]:
        """Wire indices of the open outputs, in boundary order.

        Missing positions are skipped so that validation can report them.
        """
        outs: dict[int, int] = {}
        for w, wire in enumerate(self.wires):
            if wire.consumer.owner == "out":
                outs[wire.consumer.index] = w
        return tuple(outs[i] for i in sorted(outs))

    def open_types(self) -> PregroupType:
        return PregroupType(tuple(self.wires[w].stype for w in self.open_wires()))

    def dom_wires(self, b: int) -> tuple[int, ...]:
        """Wires consumed by box ``b``, ordered by domain leg."""
        found: dict[int, int] = {}
        for w, wire in enumerate(self.wires):
            if wire.consumer.owner == "box" and wire.consumer.index == b:
                found[wire.consumer.leg] = w
        return tuple(found[leg] for leg in sorted(found))

    def cod_wires(self, b: int) -> tuple[int, ...]:
        """Wires produced by box ``b``, ordered by codomain leg."""
        found: dict[int, int] = {}
        for w, wire in enumerate(self.wires):
            if wire.producer.owner == "box" and wire.producer.index == b:
                found[wire.producer.leg] = w
        return tuple(found[leg] for leg in sorted(found))

    def topological_boxes(self) -> tuple[int, ...]:
        """Box indices ordered so producers precede consumers (stable)."""
        n = len(self.boxes)
        deps: dict[int, set[int]] = {b: set() for b in range(n)}
        for wire in self.wires:
            if wire.producer.owner == "box" and wire.consumer.owner == "box":
                deps[wire.consumer.index].add(wire.producer.index)
        order: list[int] = []
        placed: set[int] = set()
        while len(order) < n:
            ready = [b for b in range(n) if b not in placed and deps[b] <= placed]
            if not ready:
                raise InvalidDiagram(
                    [Violation("AcyclicityViolation", "box wiring contains a cycle")]
                )
            order.extend(ready)
            placed.update(ready)
        return tuple(order)


# -- validation -----------------------------------------------------------


def validate(d: Diagram) -> list[Violation]:
    """Structural validity checks; returns an empty list for a valid diagram.

    Checks port coverage and wire typing, cup/cap contractibility, output
    boundary coverage, acyclicity of box-to-box wiring, and (for cap-free
    diagrams) planarity of the cups over the flat producer order.  Planarity
    of diagrams holding caps is not decided here; the rewrite passes that
    introduce caps keep them internal.
    """
    out: list[Violation] = []

    producer_slots: dict[tuple[str, int, int], int] = {}
    consumer_slots: dict[tuple[str, int, int], int] = {}
    for w, wire in enumerate(d.wires):
        p, c = wire.producer, wire.consumer
        if p.owner not in ("box", "cap"):
            out.append(Violation("DanglingPort", f"wire {w} has producer kind {p.owner!r}"))
        if c.owner not in ("box", "cup", "out"):
            out.append(Violation("DanglingPort", f"wire {w} has consumer kind {c.owner!r}"))
        key_p = (p.owner, p.index, p.leg)
        key_c = (c.owner, c.index, c.leg)
        if key_p in producer_slots:
            out.append(Violation("DanglingPort", f"producer slot {key_p} used twice"))
        if key_c in consumer_slots:
            out.append(Violation("DanglingPort", f"consumer slot {key_c} used twice"))
        producer_slots[key_p] = w
        consumer_slots[key_c] = w

    # Box ports: every domain and codomain leg exactly once, correctly typed.
    for b, box in enumerate(d.boxes):
        for leg, t in enumerate(box.dom):
            w = consumer_slots.get(("box", b, leg))
            if w is None:
                out.append(Violation("DanglingPort", f"box {b} dom leg {leg} unwired"))
            elif d.wires[w].stype != t:
                out.append(
                    Violation(
                        "TypeMismatch",
                        f"box {b} dom leg {leg} expects {t}, wire carries {d.wires[w].stype}",
                    )
                )
        for leg, t in enumerate(box.cod):
            w = producer_slots.get(("box", b, leg))
            if w is None:
                out.append(Violation("DanglingPort", f"box {b} cod leg {leg} unwired"))
            elif d.wires[w].stype != t:
                out.append(
                    Violation(
                        "TypeMismatch",
                        f"box {b} cod leg {leg} expects {t}, wire carries {d.wires[w].stype}",
                    )
                )
    for (owner, index, leg), w in consumer_slots.items():
        if owner == "box":
            if index >= len(d.boxes) or leg >= len(d.boxes[index].dom):
                out.append(Violation("DanglingPort", f"wire {w} consumed by missing box port"))
        elif owner == "out" and not 0 <= index < d.n_outputs:
            out.append(Violation("DanglingPort", f"wire {w} consumed by missing output {index}"))
    for (owner, index, leg), w in producer_slots.items():
        if owner == "box":
            if index >= len(d.boxes) or leg >= len(d.boxes[index].cod):
                out.append(Violation("DanglingPort", f"wire {w} produced by missing box port"))

    # Cups: two legs each, contractible left-to-right.
    cups: list[tuple[int, int, int]] = []  # (cup, left wire, right wire)
    for c in range(d.n_cups):
        left = consumer_slots.get(("cup", c, 0))
        right = consumer_slots.get(("cup", c, 1))
        if left is None or right is None:
            out.append(Violation("DanglingPort", f"cup {c} is missing a leg"))
            continue
        cups.append((c, left, right))
        t, u = d.wires[left].stype, d.wires[right].stype
        if not contractible(t, u):
            out.append(
                Violation("NonContractibleCup", f"cup {c} joins {t} and {u}")
            )

    # Caps: produce a pair (t, u) with t the right adjoint step of u.
    for k in range(d.n_caps):
        left = producer_slots.get(("cap", k, 0))
        right = producer_slots.get(("cap", k, 1))
        if left is None or right is None:
            out.append(Violation("DanglingPort", f"cap {k} is missing a leg"))
            continue
        t, u = d.wires[left].stype, d.wires[right].stype
        if not contractible(u, t):
            out.append(
                Violation("NonContractibleCap", f"cap {k} produces {t} and {u}")
            )

    # Output boundary: positions 0..n_outputs-1 exactly once each.
    for i in range(d.n_outputs):
        if ("out", i, 0) not in consumer_slots:
            out.append(Violation("BadBoundary", f"output {i} unwired"))

    # Acyclicity.
    try:
        d.topological_boxes()
    except InvalidDiagram as exc:
        out.extend(exc.violations)

    # Planarity of cups, decided over the flat left-to-right producer order.
    if d.n_caps == 0:
        offsets: list[int] = []
        total = 0
        for box in d.boxes:
            offsets.append(total)
            total += len(box.cod)

        def position(w: int) -> int:
            p = d.wires[w].producer
            return offsets[p.index] + p.leg

        intervals = []
        for c, wl, wr in cups:
            a, b = position(wl), position(wr)
            if a > b:
                a, b = b, a
            intervals.append((a, b, c))
        for i in range(len(intervals)):
            a1, b1, c1 = intervals[i]
            for j in range(i + 1, len(intervals)):
                a2, b2, c2 = intervals[j]
                lo, hi = sorted([(a1, b1), (a2, b2)])
                if lo[0] < hi[0] < lo[1] < hi[1]:
                    out.append(
                        Violation(
                            "PlanarityViolation",
                            f"cups {c1} and {c2} cross",
                        )
                    )
        open_positions = [position(w) for w in d.open_wires()]
        for a, b, c in intervals:
            for pos in open_positions:
                if a < pos < b:
                    out.append(
                        Violation(
                            "PlanarityViolation",
                            f"cup {c} spans an open wire",
                        )
                    )
    return out


# -- serialization --------------------------------------------------------


def _port_to_json(p: Port) -> list:
    return [p.owner, p.index, p.leg]


def _port_from_json(obj) -> Port:
    owner, index, leg = obj
    return Port(str(owner), int(index), int(leg))


def diagram_to_dict(d: Diagram) -> dict:
    return {
        "boxes": [
            {
                "name": box.name,
                "dom": str(box.dom),
                "cod": str(box.cod),
                "kind": box.kind.value,
            }
            for box in d.boxes
        ],
        "wires": [
            {
                "type": str(w.stype),
                "producer": _port_to_json(w.producer),
                "consumer": _port_to_json(w.consumer),
            }
            for w in d.wires
        ],
        "n_cups": d.n_cups,
        "n_caps": d.n_caps,
        "n_outputs": d.n_outputs,
    }


def diagram_from_dict(obj: Mapping) -> Diagram:
    boxes = tuple(
        Box(
            b["name"],
            PregroupType.parse(b["dom"]),
            PregroupType.parse(b["cod"]),
            BoxKind(b.get("kind", "word")),
        )
        for b in obj["boxes"]
    )
    wires = tuple(
        Wire(
            SimpleType.parse(w["type"]),
            _port_from_json(w["producer"]),
            _port_from_json(w["consumer"]),
        )
        for w in obj["wires"]
    )
    return Diagram(
        boxes=boxes,
        wires=wires,
        n_cups=int(obj["n_cups"]),
        n_caps=int(obj["n_caps"]),
        n_outputs=int(obj["n_outputs"]),
    )


def diagram_to_json(d: Diagram) -> str:
    return json.dumps(diagram_to_dict(d), indent=2)
