"""Diagram rewriting: normal form, currying, and the preset scheme pipeline.

Two structural passes are provided.

``normal_form`` straightens wires by eliminating cap-cup snake pairs: a wire
that runs from a producer down into a cup whose partner rises from a cap
whose other leg continues downward is replaced by one straight wire.  The
pass fires snakes in deterministic leftmost order until none remain and is
idempotent; a snake-free diagram comes back unchanged (structurally equal).
The tensor meaning is preserved exactly, with the same box tensors.

``curry`` bends arguments into function boxes: a word box whose codomain
contains adjoint wires that meet plain wires in cups is replaced by a
curried box consuming those plain wires as its domain, and the cups vanish.
A transitive verb ``1 -> n.r@s@n.l`` with both adjoints cupped becomes a
curried box ``n@n -> s``.  The tensor meaning is preserved when the curried
box's tensor is the word's tensor with the bent codomain axes moved first.

The four preset schemes apply these passes in pipeline order:

==================  ================================================
``re``              keep the parsed diagram as is
``re_norm``         normal form
``re_norm_cur``     normal form, then curry
``re_norm_cur_norm``  normal form, curry, normal form again
==================  ================================================
"""

from __future__ import annotations

import enum

from qnlp.diagram import (
    Box,
    BoxKind,
    Diagram,
    InvalidDiagram,
    Port,
    Wire,
    validate,
)
from qnlp.errors import Error
from qnlp.pregroup import PregroupType


class CurryUnsupported(Error):
    """The diagram has a cup configuration the currying pass cannot bend."""


class RewriteScheme(enum.Enum):
    RE = "re"
    RE_NORM = "re_norm"
    RE_NORM_CUR = "re_norm_cur"
    RE_NORM_CUR_NORM = "re_norm_cur_norm"


def rewrite(d: Diagram, scheme: RewriteScheme) -> Diagram:
    """Apply a preset rewrite scheme to a valid diagram."""
    violations = validate(d)
    if violations:
        raise InvalidDiagram(violations)
    if scheme is RewriteScheme.RE:
        return d
    if scheme is RewriteScheme.RE_NORM:
        return normal_form(d)
    if scheme is RewriteScheme.RE_NORM_CUR:
        return curry(normal_form(d))
    if scheme is RewriteScheme.RE_NORM_CUR_NORM:
        return normal_form(curry(normal_form(d)))
    raise ValueError(f"unknown rewrite scheme: {scheme!r}")


# -- normal form ----------------------------------------------------------


def normal_form(d: Diagram) -> Diagram:
    """Eliminate every cap-cup snake; idempotent, meaning-preserving."""
    while True:
        snake = _find_snake(d)
        if snake is None:
            return d
        d = _yank(d, *snake)


def _find_snake(d: Diagram) -> tuple[int, int] | None:
    """First (cup, cap) pair forming a snake, scanning cups in index order."""
    cap_of_wire = {}
    for k, (wl, wr) in enumerate(d.cap_pairs()):
        cap_of_wire[wl] = (k, wr)
        cap_of_wire[wr] = (k, wl)
    for c, (a, b) in enumerate(d.cup_pairs()):
        # Prefer the right leg; either leg rising from a cap whose other leg
        # is not this cup's other wire is a snake.
        for leg, other in ((b, a), (a, b)):
            hit = cap_of_wire.get(leg)
            if hit is not None and hit[1] != other:
                return c, hit[0]
    return None


def _yank(d: Diagram, cup: int, cap: int) -> Diagram:
    """Replace the snake through (cup, cap) by one straight wire."""
    cup_wires = d.cup_pairs()[cup]
    cap_wires = d.cap_pairs()[cap]
    shared = [w for w in cup_wires if w in cap_wires]
    # The wire running cap -> cup dies; the cup's other wire keeps its
    # producer and inherits the consumer of the cap's other wire.
    dead = shared[0]
    through = cup_wires[0] if cup_wires[1] == dead else cup_wires[1]
    tail = cap_wires[0] if cap_wires[1] == dead else cap_wires[1]

    removed = {dead, tail}
    new_wires: list[Wire] = []
    for w, wire in enumerate(d.wires):
        if w in removed:
            continue
        producer, consumer, stype = wire.producer, wire.consumer, wire.stype
        if w == through:
            consumer = d.wires[tail].consumer
        producer = _shift_port(producer, "cap", cap)
        consumer = _shift_port(consumer, "cup", cup)
        new_wires.append(Wire(stype, producer, consumer))
    return Diagram(
        boxes=d.boxes,
        wires=tuple(new_wires),
        n_cups=d.n_cups - 1,
        n_caps=d.n_caps - 1,
        n_outputs=d.n_outputs,
    )


def _shift_port(p: Port, owner: str, removed_index: int) -> Port:
    if p.owner == owner and p.index > removed_index:
        return Port(p.owner, p.index - 1, p.leg)
    return p


# -- currying -------------------------------------------------------------


def curry(d: Diagram) -> Diagram:
    """Bend cupped arguments into word boxes.

    For every word box, each codomain leg carrying an adjoint type whose
    wire ends in a cup is bent: the cup's partner wire (which must be plain)
    becomes a domain leg of the new curried box and the cup disappears.
    An adjoint leg cupped to another adjoint wire, or cupped back to the
    same box, cannot be bent and raises :class:`CurryUnsupported`.
    """
    cup_pairs = d.cup_pairs()
    partner_of: dict[int, tuple[int, int]] = {}
    for c, (wl, wr) in enumerate(cup_pairs):
        partner_of[wl] = (c, wr)
        partner_of[wr] = (c, wl)

    bends: dict[int, list[tuple[int, int, int]]] = {}  # box -> [(leg, cup, partner)]
    for b, box in enumerate(d.boxes):
        if box.kind is not BoxKind.WORD:
            continue
        for leg, wire_id in enumerate(d.cod_wires(b)):
            stype = d.wires[wire_id].stype
            if stype.is_plain():
                continue
            hit = partner_of.get(wire_id)
            if hit is None:
                continue
            c, partner = hit
            partner_wire = d.wires[partner]
            if not partner_wire.stype.is_plain():
                raise CurryUnsupported(
                    f"cup {c} joins two adjoint wires ({d.wires[wire_id].stype} and "
                    f"{partner_wire.stype}); cannot bend either side"
                )
            if partner_wire.producer.owner == "box" and partner_wire.producer.index == b:
                raise CurryUnsupported(
                    f"box {b} ({box.name!r}) is cupped to itself"
                )
            bends.setdefault(b, []).append((leg, c, partner))

    if not bends:
        return d

    new_boxes: list[Box] = []
    cod_leg_map: dict[tuple[int, int], int] = {}  # (box, old cod leg) -> new leg
    dom_slot: dict[int, tuple[int, int]] = {}  # partner wire -> (box, new dom leg)
    removed_wires: set[int] = set()
    removed_cups: set[int] = set()

    for b, box in enumerate(d.boxes):
        if b not in bends:
            new_boxes.append(box)
            for leg in range(len(box.cod)):
                cod_leg_map[(b, leg)] = leg
            continue
        bent = sorted(bends[b])
        bent_legs = [leg for leg, _, _ in bent]
        cod_wires = d.cod_wires(b)
        for dom_leg, (leg, c, partner) in enumerate(bent):
            removed_wires.add(cod_wires[leg])
            removed_cups.add(c)
            dom_slot[partner] = (b, dom_leg)
        new_dom = PregroupType(tuple(d.wires[p].stype for _, _, p in bent))
        surviving = [leg for leg in range(len(box.cod)) if leg not in bent_legs]
        for new_leg, old_leg in enumerate(surviving):
            cod_leg_map[(b, old_leg)] = new_leg
        new_cod = PregroupType(tuple(box.cod[leg] for leg in surviving))
        new_boxes.append(Box(box.name, new_dom, new_cod, BoxKind.CURRIED))

    cup_index_map: dict[int, int] = {}
    for c in range(d.n_cups):
        if c not in removed_cups:
            cup_index_map[c] = len(cup_index_map)

    new_wires: list[Wire] = []
    for w, wire in enumerate(d.wires):
        if w in removed_wires:
            continue
        producer, consumer = wire.producer, wire.consumer
        if producer.owner == "box":
            producer = Port("box", producer.index, cod_leg_map[(producer.index, producer.leg)])
        if w in dom_slot:
            b, dom_leg = dom_slot[w]
            consumer = Port("box", b, dom_leg)
        elif consumer.owner == "cup":
            consumer = Port("cup", cup_index_map[consumer.index], consumer.leg)
        new_wires.append(Wire(wire.stype, producer, consumer))

    return Diagram(
        boxes=tuple(new_boxes),
        wires=tuple(new_wires),
        n_cups=len(cup_index_map),
        n_caps=d.n_caps,
        n_outputs=d.n_outputs,
    )
