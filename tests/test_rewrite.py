"""Rewriting schemes: identity pass, snake elimination, currying."""

from __future__ import annotations

import numpy as np
import pytest

from qnlp import circuit
from qnlp.diagram import (
    Box,
    BoxKind,
    Diagram,
    InvalidDiagram,
    Port,
    Wire,
    validate,
)
from qnlp.pregroup import Base, PregroupType, SimpleType, parse_sentence, ty
from qnlp.rewrite import CurryUnsupported, RewriteScheme, curry, normal_form, rewrite

from oracles import WireDims, bend_tensor, curry_infos, eval_tensor, random_assignment
from test_diagram import snake_diagram

N = SimpleType(Base.N, 0)
DIMS = WireDims(2, 2)


def curried_assignment(d, curried, infos, assignment):
    """Reshape the original box tensors for the curried diagram."""
    out = {}
    for b in range(len(curried.boxes)):
        if b in infos:
            out[b] = bend_tensor(assignment[b], infos[b])
        else:
            out[b] = assignment[b]
    return out


class TestSchemes:
    def test_re_is_identity(self, corpus_diagrams):
        for d in corpus_diagrams[::11]:
            assert rewrite(d, RewriteScheme.RE) is d

    def test_values(self):
        assert {s.value for s in RewriteScheme} == {
            "re",
            "re_norm",
            "re_norm_cur",
            "re_norm_cur_norm",
        }

    def test_composition(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        assert rewrite(d, RewriteScheme.RE_NORM) == normal_form(d)
        assert rewrite(d, RewriteScheme.RE_NORM_CUR) == curry(normal_form(d))
        assert rewrite(d, RewriteScheme.RE_NORM_CUR_NORM) == normal_form(
            curry(normal_form(d))
        )

    def test_rejects_invalid(self):
        boxes = (Box("a", PregroupType(()), ty("n")),)
        broken = Diagram(boxes, (), 0, 0, 0)
        with pytest.raises(InvalidDiagram):
            rewrite(broken, RewriteScheme.RE)


class TestNormalForm:
    def test_corpus_is_snake_free(self, corpus_diagrams):
        for d in corpus_diagrams:
            assert normal_form(d) == d

    def test_snake_elimination(self):
        d = snake_diagram()
        nf = normal_form(d)
        assert len(nf.wires) == len(d.wires) - 2
        assert nf.n_cups == 0 and nf.n_caps == 0
        assert validate(nf) == []
        v = np.array([1.5, -0.5])
        np.testing.assert_allclose(eval_tensor(nf, {0: v}, DIMS), v)

    def test_idempotent(self):
        d = snake_diagram()
        once = normal_form(d)
        assert normal_form(once) == once

    def test_semantics_preserved(self, rng):
        d = snake_diagram()
        a = random_assignment(d, DIMS, rng)
        np.testing.assert_allclose(
            eval_tensor(normal_form(d), a, DIMS), eval_tensor(d, a, DIMS), atol=1e-12
        )


class TestCurry:
    def test_transitive_sentence(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        c = curry(d)
        assert c.n_cups == 0
        assert str(c.open_types()) == "s"
        verb = c.boxes[1]
        assert verb.kind is BoxKind.CURRIED
        assert str(verb.dom) == "n@n"
        assert str(verb.cod) == "s"
        assert (len(c.boxes), c.n_cups, circuit.layout(c).n_qubits) == (3, 0, 2)

    def test_adjective(self, mc_lexicon):
        d = parse_sentence(["skillful", "man", "cooks", "meal"], mc_lexicon)
        c = curry(d)
        adj = c.boxes[0]
        assert adj.kind is BoxKind.CURRIED
        assert str(adj.dom) == "n" and str(adj.cod) == "n"
        assert c.n_cups == 0

    def test_plain_diagram_unchanged(self):
        box = Box("alice", PregroupType(()), ty("n"))
        d = Diagram(
            (box,), (Wire(N, Port("box", 0, 0), Port("out", 0, 0)),), 0, 0, 1
        )
        assert curry(d) == d

    def test_adjoint_adjoint_cup_unsupported(self):
        boxes = (
            Box("a", PregroupType(()), ty("n.l.l")),
            Box("b", PregroupType(()), ty("n.l")),
        )
        wires = (
            Wire(N.l.l, Port("box", 0, 0), Port("cup", 0, 0)),
            Wire(N.l, Port("box", 1, 0), Port("cup", 0, 1)),
        )
        d = Diagram(boxes, wires, 1, 0, 0)
        assert validate(d) == []
        with pytest.raises(CurryUnsupported):
            curry(d)

    def test_self_cup_unsupported(self):
        box = Box("a", PregroupType(()), ty("n@n.r"))
        wires = (
            Wire(N, Port("box", 0, 0), Port("cup", 0, 0)),
            Wire(N.r, Port("box", 0, 1), Port("cup", 0, 1)),
        )
        d = Diagram((box,), wires, 1, 0, 0)
        assert validate(d) == []
        with pytest.raises(CurryUnsupported):
            curry(d)

    def test_semantics_preserved_on_corpus(self, corpus_diagrams, rng):
        for d in corpus_diagrams[::5]:
            a = random_assignment(d, DIMS, rng)
            c, infos = curry(d), curry_infos(d)
            got = eval_tensor(c, curried_assignment(d, c, infos, a), DIMS)
            want = eval_tensor(d, a, DIMS)
            np.testing.assert_allclose(got, want, atol=1e-10)


class TestBendTensor:
    def test_verb_axes(self, toy_lexicon, rng):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        infos = curry_infos(d)
        info = infos[1]
        t = rng.standard_normal((2, 2, 2))
        bent = bend_tensor(t, info)
        assert bent.shape == (2, 2, 2)
        # Bent legs lead, survivors follow, original order kept inside both.
        remaining = [i for i in range(info.n_cod) if i not in info.bent_cod_legs]
        np.testing.assert_array_equal(
            bent, np.transpose(t, tuple(info.bent_cod_legs) + tuple(remaining))
        )


class TestMonotoneSimplification:
    def test_cup_counts(self, corpus_diagrams):
        for d in corpus_diagrams:
            full = rewrite(d, RewriteScheme.RE_NORM_CUR_NORM)
            half = rewrite(d, RewriteScheme.RE_NORM)
            assert full.n_cups <= half.n_cups <= d.n_cups
