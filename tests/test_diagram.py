"""Diagram structure, validation, statistics, tensor semantics, JSON."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qnlp.diagram import (
    Box,
    BoxKind,
    Diagram,
    Port,
    ShapeMismatch,
    Wire,
    count_stats,
    diagram_from_dict,
    diagram_to_dict,
    diagram_to_json,
    validate,
)
from qnlp.pregroup import Base, PregroupType, SimpleType, parse_sentence, ty

from oracles import WireDims, box_shape, brute_force_eval, eval_tensor, random_assignment

N = SimpleType(Base.N, 0)
EMPTY = PregroupType(())
DIMS = WireDims(2, 2)


def _state(name: str, cod: str) -> Box:
    return Box(name, EMPTY, ty(cod))


def single_box_diagram(tensor_cod: str = "n") -> Diagram:
    box = _state("Alice", tensor_cod)
    wires = tuple(
        Wire(t, Port("box", 0, leg), Port("out", leg, 0))
        for leg, t in enumerate(box.cod)
    )
    return Diagram(boxes=(box,), wires=wires, n_cups=0, n_caps=0, n_outputs=len(wires))


def orthogonal_pair_diagram() -> Diagram:
    left = _state("left", "n")
    right = _state("right", "n.r")
    wires = (
        Wire(N, Port("box", 0, 0), Port("cup", 0, 0)),
        Wire(N.r, Port("box", 1, 0), Port("cup", 0, 1)),
    )
    return Diagram(boxes=(left, right), wires=wires, n_cups=1, n_caps=0, n_outputs=0)


def snake_diagram() -> Diagram:
    """Box output runs through a cup whose partner rises from a cap.

    Cap legs emit (adjoint, plain) left to right; the adjoint leg bends back
    into the cup.
    """
    box = _state("alice", "n")
    wires = (
        Wire(N, Port("box", 0, 0), Port("cup", 0, 0)),
        Wire(N.r, Port("cap", 0, 0), Port("cup", 0, 1)),
        Wire(N, Port("cap", 0, 1), Port("out", 0, 0)),
    )
    return Diagram(boxes=(box,), wires=wires, n_cups=1, n_caps=1, n_outputs=1)


def circle_diagram() -> Diagram:
    wires = (
        Wire(N, Port("cap", 0, 1), Port("cup", 0, 0)),
        Wire(N.r, Port("cap", 0, 0), Port("cup", 0, 1)),
    )
    return Diagram(boxes=(), wires=wires, n_cups=1, n_caps=1, n_outputs=0)


class TestValidate:
    def test_parsed_sentence_clean(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        assert validate(d) == []

    def test_corpus_clean(self, corpus_diagrams):
        for d in corpus_diagrams:
            assert validate(d) == []

    def test_crossing_cups(self):
        boxes = (_state("a", "n"), _state("b", "n"), _state("c", "n.r"), _state("d", "n.r"))
        wires = (
            Wire(N, Port("box", 0, 0), Port("cup", 0, 0)),
            Wire(N, Port("box", 1, 0), Port("cup", 1, 0)),
            Wire(N.r, Port("box", 2, 0), Port("cup", 0, 1)),
            Wire(N.r, Port("box", 3, 0), Port("cup", 1, 1)),
        )
        d = Diagram(boxes=boxes, wires=wires, n_cups=2, n_caps=0, n_outputs=0)
        assert "PlanarityViolation" in [v.kind for v in validate(d)]

    def test_non_contractible_cup(self):
        boxes = (_state("a", "n"), _state("b", "n"))
        wires = (
            Wire(N, Port("box", 0, 0), Port("cup", 0, 0)),
            Wire(N, Port("box", 1, 0), Port("cup", 0, 1)),
        )
        d = Diagram(boxes=boxes, wires=wires, n_cups=1, n_caps=0, n_outputs=0)
        assert "NonContractibleCup" in [v.kind for v in validate(d)]

    def test_dangling_output(self):
        d = single_box_diagram()
        broken = Diagram(d.boxes, d.wires, 0, 0, n_outputs=2)
        assert any(v.kind == "BadBoundary" for v in validate(broken))

    def test_snake_and_circle_are_valid(self):
        assert validate(snake_diagram()) == []
        assert validate(circle_diagram()) == []

    def test_cup_missing_a_leg_is_reported(self, mc_lexicon):
        # re-route the object's cup wire to a second output; the planarity
        # check must skip the half cup rather than fail on it
        d = parse_sentence(["man", "cooks", "meal"], mc_lexicon)
        wires = list(d.wires)
        w = next(i for i, wire in enumerate(wires) if wire.consumer == Port("cup", 1, 1))
        wires[w] = Wire(wires[w].stype, wires[w].producer, Port("out", 1, 0))
        broken = Diagram(d.boxes, tuple(wires), d.n_cups, d.n_caps, d.n_outputs + 1)
        violations = validate(broken)
        assert [(v.kind, v.message) for v in violations] == [
            ("DanglingPort", "cup 1 is missing a leg")
        ]

    def test_output_port_past_the_boundary_is_reported(self, output_past_boundary):
        assert [(v.kind, v.message) for v in validate(output_past_boundary)] == [
            ("DanglingPort", "wire 1 consumed by missing output 1")
        ]


class TestCountStats:
    def test_transitive_sentence(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        st = count_stats(d)
        assert st.n_boxes == 3
        assert st.n_cups == 2
        assert st.max_width == 5
        assert str(st.open_types) == "s"

    def test_empty(self):
        st = count_stats(Diagram((), (), 0, 0, 0))
        assert (st.n_boxes, st.n_cups, st.max_width) == (0, 0, 0)
        assert len(st.open_types) == 0


class TestEvalTensor:
    def test_single_box_identity(self):
        d = single_box_diagram("n")
        out = eval_tensor(d, {0: np.array([3.0, 4.0])}, DIMS)
        np.testing.assert_allclose(out, [3.0, 4.0])

    def test_orthogonal_vectors_cancel(self):
        d = orthogonal_pair_diagram()
        out = eval_tensor(d, {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}, DIMS)
        assert out.shape == ()
        assert out == 0.0

    def test_matched_vectors_sum(self):
        d = orthogonal_pair_diagram()
        out = eval_tensor(d, {0: np.array([1.0, 2.0]), 1: np.array([3.0, 5.0])}, DIMS)
        np.testing.assert_allclose(out, 13.0)

    def test_partial_trace(self):
        """Cup on the last two legs of T[i,j,k] = i+j+k leaves [sum_j T[i,j,j]]."""
        boxes = (_state("T", "n@n@n.r"),)
        wires = (
            Wire(N, Port("box", 0, 0), Port("out", 0, 0)),
            Wire(N, Port("box", 0, 1), Port("cup", 0, 0)),
            Wire(N.r, Port("box", 0, 2), Port("cup", 0, 1)),
        )
        d = Diagram(boxes=boxes, wires=wires, n_cups=1, n_caps=0, n_outputs=1)
        T = np.fromfunction(lambda i, j, k: i + j + k, (2, 2, 2))
        np.testing.assert_allclose(eval_tensor(d, {0: T}, DIMS), [2.0, 4.0])

    def test_snake_is_identity(self):
        d = snake_diagram()
        v = np.array([0.3, -1.7])
        np.testing.assert_allclose(eval_tensor(d, {0: v}, DIMS), v)

    def test_circle_is_dimension(self):
        np.testing.assert_allclose(eval_tensor(circle_diagram(), {}, DIMS), 2.0)

    def test_shape_mismatch(self):
        d = single_box_diagram("n")
        with pytest.raises(ShapeMismatch):
            eval_tensor(d, {0: np.zeros((3,))}, DIMS)
        with pytest.raises(ShapeMismatch):
            eval_tensor(d, {}, DIMS)

    def test_against_brute_force_on_corpus(self, corpus_diagrams, rng):
        for d in corpus_diagrams[::9]:
            a = random_assignment(d, DIMS, rng)
            got = eval_tensor(d, a, DIMS)
            want = brute_force_eval(d, a, DIMS.dim)
            np.testing.assert_allclose(got, want.real, atol=1e-12)

    def test_multilinear_in_each_box(self, toy_lexicon, rng):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        a = random_assignment(d, DIMS, rng)
        base = eval_tensor(d, a, DIMS)
        for b in range(len(d.boxes)):
            scaled = dict(a)
            scaled[b] = 2.5 * a[b]
            np.testing.assert_allclose(eval_tensor(d, scaled, DIMS), 2.5 * base, atol=1e-12)

    def test_unequal_base_dims(self, toy_lexicon, rng):
        dims = WireDims(d_n=3, d_s=2)
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        a = random_assignment(d, dims, rng)
        assert a[1].shape == (3, 2, 3)
        got = eval_tensor(d, a, dims)
        want = brute_force_eval(d, a, dims.dim)
        assert got.shape == (2,)
        np.testing.assert_allclose(got, want.real, atol=1e-12)


class TestBoxShape:
    def test_word_and_curried(self):
        assert box_shape(_state("v", "n.r@s@n.l"), WireDims(3, 2)) == (3, 2, 3)
        curried = Box("v", ty("n@n"), ty("s"), BoxKind.CURRIED)
        assert box_shape(curried, WireDims(3, 2)) == (3, 3, 2)


class TestJson:
    def test_round_trip_structure(self, corpus_diagrams):
        for d in corpus_diagrams[::7]:
            again = diagram_from_dict(json.loads(diagram_to_json(d)))
            assert again == d

    def test_round_trip_preserves_semantics(self, toy_lexicon, rng):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        again = diagram_from_dict(json.loads(diagram_to_json(d)))
        a = random_assignment(d, DIMS, rng)
        np.testing.assert_allclose(eval_tensor(again, a, DIMS), eval_tensor(d, a, DIMS))

    def test_dict_fields(self, toy_lexicon):
        obj = diagram_to_dict(parse_sentence(["Alice", "likes", "Bob"], toy_lexicon))
        assert set(obj) >= {"boxes", "wires"}
