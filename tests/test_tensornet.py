"""Tensor-network lowering, contraction, and hole-contraction gradients."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlp import tensornet
from qnlp.circuit import Symbol
from qnlp.diagram import Box, Diagram, Port, ShapeMismatch, Wire
from qnlp.errors import Error
from qnlp.pregroup import Base, PregroupType, SimpleType, parse_sentence, ty
from qnlp.rewrite import RewriteScheme, rewrite
from qnlp.tensornet import (
    CupDeltaNode,
    Network,
    ParamNode,
    SpiderCopyNode,
    TensorAnsatz,
    TensorAnsatzConfig,
    batch_backward,
    batch_forward,
    compile_batch,
    compile_network,
    contract,
    gradient_hole,
    mps_split,
    network_to_json,
    spider_split,
    structure_key,
    validate_network,
)

from oracles import (WireDims, eval_tensor, finite_difference, random_assignment,
                     reference_tensor_gather, tensor_train)

N = SimpleType(Base.N, 0)


def cfg(kind=TensorAnsatz.TENSOR, **kw) -> TensorAnsatzConfig:
    return TensorAnsatzConfig(kind=kind, **kw)


def random_store(net: Network, rng) -> dict[Symbol, np.ndarray]:
    return {s: rng.standard_normal(shape) for s, shape in net.param_shapes().items()}


class TestConfig:
    def test_validation(self):
        with pytest.raises(Error):
            cfg(d_n=1)
        with pytest.raises(Error):
            cfg(bond_dim=0)
        with pytest.raises(Error):
            cfg(max_legs=1)


class TestMpsSplit:
    def test_below_threshold_unchanged(self):
        assert mps_split((2, 2), 4) == [(2, 2)]

    def test_order_three(self):
        assert mps_split((2, 2, 2), 2) == [(2, 2), (2, 2, 2), (2, 2)]

    def test_order_four_bond_three(self):
        assert mps_split((2, 2, 2, 2), 3) == [(2, 3), (3, 2, 3), (3, 2, 3), (3, 2)]


class TestSpiderSplit:
    def test_below_threshold_unchanged(self):
        s = spider_split((2,), 2)
        assert s.chunk_shapes == ((2,),)
        assert s.boundaries == ()

    def test_order_three(self):
        s = spider_split((2, 2, 2), 2)
        assert s.chunk_shapes == ((2, 2), (2, 2))
        assert s.boundaries == (1,)

    def test_wide_tensor(self):
        s = spider_split((2,) * 5, 3)
        assert s.chunk_shapes == ((2, 2, 2), (2, 2, 2))
        assert s.boundaries == (2,)


class TestCompile:
    def test_tensor_kind_nodes(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        net = compile_network(d, cfg())
        params = [n for n in net.nodes if isinstance(n, ParamNode)]
        cups = [n for n in net.nodes if isinstance(n, CupDeltaNode)]
        assert sorted(n.shape for n in params) == [(2,), (2,), (2, 2, 2)]
        assert len(cups) == 2

    def test_mps_kind_splits_verb(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        net = compile_network(d, cfg(TensorAnsatz.MPS))
        shapes = net.param_shapes()
        verb_shapes = sorted(
            shape for s, shape in shapes.items() if s.word == "likes"
        )
        assert verb_shapes == [(2, 2), (2, 2), (2, 2, 2)]
        assert sum(int(np.prod(sh)) for sh in verb_shapes) == 16

    def test_spider_kind_splits_verb(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        net = compile_network(d, cfg(TensorAnsatz.SPIDER))
        spiders = [n for n in net.nodes if isinstance(n, SpiderCopyNode)]
        assert len(spiders) == 1
        assert spiders[0].arity == 3
        verb_shapes = sorted(
            shape for s, shape in net.param_shapes().items() if s.word == "likes"
        )
        assert verb_shapes == [(2, 2), (2, 2)]

    def test_weight_tying(self, mc_lexicon):
        d1 = parse_sentence(["man", "cooks", "meal"], mc_lexicon)
        d2 = parse_sentence(["man", "bakes", "sauce"], mc_lexicon)
        k1 = {s for s in compile_network(d1, cfg()).param_shapes() if s.word == "man"}
        k2 = {s for s in compile_network(d2, cfg()).param_shapes() if s.word == "man"}
        assert k1 == k2 != set()


class TestContract:
    def test_single_param_identity(self, rng):
        box = Box("t", PregroupType(()), ty("n@s"))
        wires = tuple(
            Wire(t, Port("box", 0, i), Port("out", i, 0)) for i, t in enumerate(box.cod)
        )
        d = Diagram((box,), wires, 0, 0, 2)
        net = compile_network(d, cfg())
        store = random_store(net, rng)
        (value,) = store.values()
        np.testing.assert_allclose(contract(net, store), value)

    def test_spider_copy_is_elementwise(self):
        u, v = np.array([2.0, 3.0]), np.array([5.0, 7.0])
        su = Symbol("u", "->n", 0)
        sv = Symbol("v", "->n", 0)
        net = Network(
            nodes=(ParamNode(su, (2,)), ParamNode(sv, (2,)), SpiderCopyNode(3, 2)),
            edges=(((0, 0), (2, 0)), ((1, 0), (2, 1))),
            outputs=((2, 2),),
        )
        np.testing.assert_allclose(contract(net, {su: u, sv: v}), [10.0, 21.0])

    def test_matches_eval_tensor_on_corpus(self, corpus_diagrams, rng):
        for d in corpus_diagrams[::9]:
            net = compile_network(d, cfg())
            assignment = random_assignment(d, WireDims(2, 2), rng)
            store = {}
            for b, box in enumerate(d.boxes):
                key = next(
                    s for s in net.param_shapes() if s.word == box.name
                )
                store[key] = assignment[b]
            np.testing.assert_allclose(
                contract(net, store), eval_tensor(d, assignment), atol=1e-12
            )

    def test_multilinear(self, toy_lexicon, rng):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        net = compile_network(d, cfg())
        store = random_store(net, rng)
        base = contract(net, store)
        for s in store:
            scaled = dict(store)
            scaled[s] = 2.5 * store[s]
            np.testing.assert_allclose(contract(net, scaled), 2.5 * base, atol=1e-12)

    def test_split_kinds_contract_to_sentence_vector(self, toy_lexicon, rng):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        for kind in (TensorAnsatz.SPIDER, TensorAnsatz.MPS):
            net = compile_network(d, cfg(kind))
            out = contract(net, random_store(net, rng))
            assert out.shape == (2,)

    def test_shape_mismatch(self, toy_lexicon, rng):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        net = compile_network(d, cfg())
        store = random_store(net, rng)
        bad = dict(store)
        key = next(iter(bad))
        bad[key] = np.zeros((3, 3))
        with pytest.raises(ShapeMismatch):
            contract(net, bad)

    def test_conflicting_shared_symbol_shapes(self):
        s = Symbol("w", "->n", 0)
        net = Network(
            nodes=(ParamNode(s, (2,)), ParamNode(s, (3,))),
            edges=(),
            outputs=((0, 0), (1, 0)),
        )
        with pytest.raises(ShapeMismatch):
            net.param_shapes()


class TestValidateNetwork:
    def test_double_bound_leg(self):
        s = Symbol("w", "->n", 0)
        net = Network(
            nodes=(ParamNode(s, (2,)), CupDeltaNode(2)),
            edges=(((0, 0), (1, 0)),),
            outputs=((0, 0), (1, 1)),
        )
        with pytest.raises(Error):
            validate_network(net)

    def test_unbound_leg(self):
        s = Symbol("w", "->n", 0)
        net = Network(nodes=(ParamNode(s, (2, 2)),), edges=(), outputs=((0, 0),))
        with pytest.raises(Error):
            validate_network(net)

    def test_edge_dim_mismatch(self):
        a = Symbol("a", "->n", 0)
        b = Symbol("b", "->n", 0)
        net = Network(
            nodes=(ParamNode(a, (2,)), ParamNode(b, (3,))),
            edges=(((0, 0), (1, 0)),),
            outputs=(),
        )
        with pytest.raises(Error):
            validate_network(net)


class TestGradientHole:
    def test_single_param_is_upstream(self, rng):
        box = Box("t", PregroupType(()), ty("n"))
        d = Diagram((box,), (Wire(N, Port("box", 0, 0), Port("out", 0, 0)),), 0, 0, 1)
        net = compile_network(d, cfg())
        store = random_store(net, rng)
        up = np.array([1.5, -2.0])
        grads = gradient_hole(net, store, up)
        (g,) = grads.values()
        np.testing.assert_allclose(g, up)

    def test_verb_hole_is_noun_outer_product(self, toy_lexicon, rng):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        net = compile_network(d, cfg())
        store = random_store(net, rng)
        up = rng.standard_normal(2)
        grads = gradient_hole(net, store, up)
        by_word = {s.word: (s, g) for s, g in grads.items()}
        alice = store[by_word["alice"][0]]
        bob = store[by_word["bob"][0]]
        want = np.einsum("i,s,j->isj", alice, up, bob)
        np.testing.assert_allclose(by_word["likes"][1], want, atol=1e-12)

    def test_matches_finite_differences(self, corpus_diagrams, rng):
        for d in corpus_diagrams[::19]:
            for kind in TensorAnsatz:
                net = compile_network(d, cfg(kind))
                store = random_store(net, rng)
                symbols = sorted(store, key=lambda s: (s.word, s.index))
                up = rng.standard_normal(net.output_dims())
                grads = gradient_hole(net, store, up)

                def loss(flat):
                    parts = {}
                    off = 0
                    for s in symbols:
                        size = store[s].size
                        parts[s] = flat[off : off + size].reshape(store[s].shape)
                        off += size
                    return float(np.tensordot(contract(net, parts), up, axes=up.ndim))

                flat0 = np.concatenate([store[s].ravel() for s in symbols])
                fd = finite_difference(loss, flat0).reshape(-1)
                got = np.concatenate([grads[s].ravel() for s in symbols])
                np.testing.assert_allclose(got, fd, atol=1e-6)

    def test_repeated_word_accumulates(self, toy_lexicon, rng):
        d = parse_sentence(["Alice", "likes", "Alice"], toy_lexicon)
        net = compile_network(d, cfg())
        store = random_store(net, rng)
        symbols = sorted(store, key=lambda s: (s.word, s.index))
        up = rng.standard_normal(2)
        grads = gradient_hole(net, store, up)

        def loss(flat):
            parts = {}
            off = 0
            for s in symbols:
                size = store[s].size
                parts[s] = flat[off : off + size].reshape(store[s].shape)
                off += size
            return float(contract(net, parts) @ up)

        flat0 = np.concatenate([store[s].ravel() for s in symbols])
        fd = finite_difference(loss, flat0).reshape(-1)
        got = np.concatenate([grads[s].ravel() for s in symbols])
        np.testing.assert_allclose(got, fd, atol=1e-6)


def chain(n: int, dim: int = 2) -> Network:
    """``n`` matrices joined end to end, with both chain ends open."""
    nodes = tuple(ParamNode(Symbol(f"m{i}", "n->n", 0), (dim, dim)) for i in range(n))
    edges = tuple(((i, 1), (i + 1, 0)) for i in range(n - 1))
    return Network(nodes, edges, ((0, 0), (n - 1, 1)))


class TestContractionPlan:
    """Error and edge paths of the plan that contract and gradient_hole share."""

    def test_two_open_legs_on_one_fused_class(self):
        net = Network(nodes=(CupDeltaNode(2),), edges=(), outputs=((0, 0), (0, 1)))
        with pytest.raises(Error, match="share one fused index"):
            contract(net, {})
        with pytest.raises(Error, match="share one fused index"):
            gradient_hole(net, {}, np.ones((2, 2)))

    def test_open_legs_without_parameter_operand(self):
        net = Network(nodes=(SpiderCopyNode(1, 2),), edges=(), outputs=((0, 0),))
        with pytest.raises(Error, match="no tensor operands"):
            contract(net, {})

    def test_contract_label_guard(self, rng):
        net = chain(53)
        with pytest.raises(Error, match="54 indices; limit is 52"):
            contract(net, random_store(net, rng))

    def test_gradient_hole_guard_counts_hole_width(self):
        # two 27-leg tensors joined leg to leg: 27 labels contract, but a
        # hole adds 27 bridge labels
        a, b = Symbol("a", "->n", 0), Symbol("b", "->n", 0)
        shape = (1,) * 27
        net = Network(
            nodes=(ParamNode(a, shape), ParamNode(b, shape)),
            edges=tuple(((0, l), (1, l)) for l in range(27)),
            outputs=(),
        )
        store = {a: np.full(shape, 2.0), b: np.full(shape, 3.0)}
        np.testing.assert_allclose(contract(net, store), 6.0)
        with pytest.raises(Error, match="54 indices; limit is 52"):
            gradient_hole(net, store, np.array(1.0))

    def test_upstream_shape_mismatch(self, toy_lexicon, rng):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        net = compile_network(d, cfg())
        with pytest.raises(ShapeMismatch, match="upstream shape"):
            gradient_hole(net, random_store(net, rng), np.ones(3))

    def test_closed_delta_loop_factor(self):
        u = Symbol("u", "->n", 0)
        loop = (CupDeltaNode(3), CupDeltaNode(3))
        edges = (((0, 0), (1, 0)), ((0, 1), (1, 1)))
        np.testing.assert_allclose(contract(Network(loop, edges, ()), {}), 3.0)
        net = Network(
            (ParamNode(u, (2,)),) + loop,
            tuple(((a + 1, la), (b + 1, lb)) for (a, la), (b, lb) in edges),
            ((0, 0),),
        )
        vec, up = np.array([2.0, -1.0]), np.array([0.5, 4.0])
        np.testing.assert_allclose(contract(net, {u: vec}), 3.0 * vec)
        np.testing.assert_allclose(gradient_hole(net, {u: vec}, up)[u], 3.0 * up)

    def test_plan_built_once_per_network(self, toy_lexicon, rng, monkeypatch):
        calls = []
        real = tensornet.validate_network
        monkeypatch.setattr(
            tensornet, "validate_network", lambda net: calls.append(net) or real(net)
        )
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        net = compile_network(d, cfg(TensorAnsatz.MPS))
        store = random_store(net, rng)
        for _ in range(3):
            contract(net, store)
            gradient_hole(net, store, rng.standard_normal(2))
        assert len(calls) == 1

    def test_store_checked_on_every_call(self, toy_lexicon, rng):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        net = compile_network(d, cfg())
        store = random_store(net, rng)
        contract(net, store)
        missing = dict(store)
        del missing[next(iter(missing))]
        with pytest.raises(ShapeMismatch, match="no tensor bound"):
            contract(net, missing)
        with pytest.raises(ShapeMismatch, match="no tensor bound"):
            gradient_hole(net, missing, np.ones(2))


class TestMpsExpressivity:
    def test_chain_represents_dense_target(self, rng):
        box = Box("t", PregroupType(()), ty("n@n@n"))
        wires = tuple(
            Wire(N, Port("box", 0, i), Port("out", i, 0)) for i in range(3)
        )
        d = Diagram((box,), wires, 0, 0, 3)
        net = compile_network(d, cfg(TensorAnsatz.MPS, bond_dim=2))
        target = rng.standard_normal((2, 2, 2))
        pieces = tensor_train(target, 2)
        store = {}
        for s, shape in net.param_shapes().items():
            piece = pieces[s.index]
            assert piece.shape == shape
            store[s] = piece
        np.testing.assert_allclose(contract(net, store), target, atol=1e-6)


class TestWideWordLowering:
    """A 5-leg word box, wider than any corpus word, against its pieces.

    With ``max_legs`` 2 the middle spider chunks have a spider leg at both
    ends.  Mixed wire dimensions catch a transposed leg.
    """

    @pytest.mark.parametrize(
        "kind, kw, spec, n_spiders",
        [
            (TensorAnsatz.SPIDER, {"max_legs": 2}, "ab,bc,cd,de->abcde", 3),
            (TensorAnsatz.SPIDER, {"max_legs": 3}, "abc,cde->abcde", 1),
            (TensorAnsatz.MPS, {"bond_dim": 2}, "ax,xby,ycz,zdw,we->abcde", 0),
        ],
    )
    def test_contract_equals_dense_rebuilt_from_pieces(self, kind, kw, spec, n_spiders, rng):
        types = ty("n@s@n@s@n")
        box = Box("w", PregroupType(()), types)
        wires = tuple(
            Wire(t, Port("box", 0, i), Port("out", i, 0)) for i, t in enumerate(types)
        )
        d = Diagram((box,), wires, 0, 0, 5)
        net = compile_network(d, cfg(kind, d_n=2, d_s=3, **kw))
        assert sum(isinstance(n, SpiderCopyNode) for n in net.nodes) == n_spiders
        store = random_store(net, rng)
        pieces = [store[s] for s in sorted(store, key=lambda s: s.index)]
        dense = np.einsum(spec, *pieces)
        assert dense.shape == (2, 3, 2, 3, 2)
        np.testing.assert_allclose(contract(net, store), dense, rtol=1e-12, atol=1e-12)


def check_batches_against_reference(nets: list[Network], rng) -> list:
    """Batched forward and backward passes against per-network ``contract``
    and ``gradient_hole``, with a random cotangent on ``u`` per row; returns
    the groups as ``(rows, batch, gather)``."""
    shapes: dict[Symbol, tuple[int, ...]] = {}
    for net in nets:
        shapes.update(net.param_shapes())
    offsets = dict(zip(shapes, np.cumsum([0] + [math.prod(s) for s in shapes.values()])))
    theta = rng.standard_normal(sum(math.prod(s) for s in shapes.values()))
    store = {s: theta[offsets[s] : offsets[s] + math.prod(shape)].reshape(shape)
             for s, shape in shapes.items()}
    rows_of: dict[tuple, list[int]] = {}
    for r, net in enumerate(nets):
        rows_of.setdefault(structure_key(net), []).append(r)
    groups = [(np.array(rows), compile_batch(nets[rows[0]]),
               reference_tensor_gather([nets[r] for r in rows], offsets))
              for rows in rows_of.values()]
    assert sorted(np.concatenate([rows for rows, _, _ in groups])) == list(range(len(nets)))
    for rows, batch, gather in groups:
        plan = nets[rows[0]]._plan
        assert batch.steps[-1].kept == (plan.n_labels, *plan.outputs)
        assert gather.shape == (len(rows), batch.n_slots)
        values = theta[gather]
        u = batch_forward(batch, values)
        v = tensornet._contract_rows(batch, values)[1]
        np.testing.assert_array_equal(u, v**2)
        g_u = rng.standard_normal(v.shape)
        up = 2.0 * v * g_u  # the cotangent of v, chained through u = v**2
        pulled_u, terms = batch_backward(batch, values, lambda rows, _: g_u[rows])
        np.testing.assert_array_equal(pulled_u, u)  # the backward pass's own forward
        assert terms.shape == gather.shape
        grad = np.zeros_like(theta)
        np.add.at(grad, gather, terms)
        # pulling back only the leading row reads the same terms for it
        pulled_u, led = batch_backward(batch, values, lambda rows, _: g_u[rows][:1])
        np.testing.assert_array_equal(pulled_u, u)
        np.testing.assert_allclose(led, terms[:1], rtol=1e-12, atol=1e-15)
        want = np.zeros_like(theta)
        for r, i in enumerate(rows):
            np.testing.assert_allclose(
                v[r], contract(nets[i], store).reshape(-1), rtol=0, atol=1e-12
            )
            holes = gradient_hole(nets[i], store, up[r].reshape(nets[i].output_dims()))
            for sym, g in holes.items():
                want[offsets[sym] : offsets[sym] + g.size] += g.ravel()
        assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()
    return groups


def bridges(batch) -> dict[int, int]:
    """Identity bridges of each tree node's cotangent, by node number."""
    return {node: len(eyes) for step in batch.steps
            for node, (_, eyes) in zip(step.inputs, step.cotangents)}


class TestBatches:
    """structure_key, compile_batch, batch_forward and batch_backward against
    the per-network reference."""

    @pytest.mark.parametrize("kind", tuple(TensorAnsatz), ids=lambda k: k.value)
    def test_corpus_matches_per_network_reference(self, kind, corpus_diagrams, rng):
        for scheme in (RewriteScheme.RE, RewriteScheme.RE_NORM_CUR_NORM):
            nets = [compile_network(rewrite(d, scheme), cfg(kind)) for d in corpus_diagrams]
            groups = check_batches_against_reference(nets, rng)
            assert len(groups) == 4  # one per sentence pattern

    def test_open_legs_and_mixed_dimensions(self, rng):
        types = ty("n@s@n")
        wires = tuple(Wire(t, Port("box", 0, i), Port("out", i, 0)) for i, t in enumerate(types))
        nets = [
            compile_network(
                Diagram((Box(kind.value, PregroupType(()), types),), wires, 0, 0, 3),
                cfg(kind, d_s=3),
            )
            for kind in TensorAnsatz
        ]
        groups = check_batches_against_reference(nets, rng)
        assert [batch.out_shape for _, batch, _ in groups] == [(2, 3, 2)] * 3

    def test_bridged_holes_and_loop_factor(self, rng):
        u, v = Symbol("u", "->n@n", 0), Symbol("v", "->n", 0)
        # tr(u) * v: both of u's legs fuse into one class that no other
        # operand carries
        trace = Network(
            (ParamNode(u, (2, 2)), CupDeltaNode(2), ParamNode(v, (2,))),
            (((0, 0), (1, 0)), ((0, 1), (1, 1))),
            ((2, 0),),
        )
        # u @ ones: the copy spider of arity 1 leaves u's second leg alone
        summed = Network(
            (ParamNode(u, (2, 2)), SpiderCopyNode(1, 2)), (((0, 1), (1, 0)),), ((0, 0),)
        )
        # a closed loop of dimension 3 scales v
        looped = Network(
            (ParamNode(v, (2,)), CupDeltaNode(3), CupDeltaNode(3)),
            (((1, 0), (2, 0)), ((1, 1), (2, 1))),
            ((0, 0),),
        )
        groups = check_batches_against_reference([trace, summed, looped, trace], rng)
        assert [list(rows) for rows, _, _ in groups] == [[0, 3], [1], [2]]
        # identity bridges per parameter position, over the tree's steps:
        # both of u's trace legs and the leg summed alone, none for v
        assert bridges(groups[0][1]) == {0: 2, 1: 0}
        assert bridges(groups[1][1]) == {0: 1}
        assert groups[2][1].factor == 3.0

    def test_repeated_word_gathers_one_symbol_twice(self, toy_lexicon, rng):
        nets = [
            compile_network(parse_sentence(words, toy_lexicon), cfg())
            for words in (["Alice", "likes", "Bob"], ["Alice", "likes", "Alice"])
        ]
        (rows, batch, gather), = check_batches_against_reference(nets, rng)
        assert list(rows) == [0, 1]
        first, _, last = (gather[:, cols] for cols in batch.columns)
        np.testing.assert_array_equal(first[1], last[1])
        assert not np.array_equal(first[0], last[0])

    def test_label_guard_counts_the_row_label(self):
        # 52 open legs of dimension 1: the per-network limit exactly
        a = Symbol("a", "->n", 0)
        net = Network((ParamNode(a, (1,) * 52),), (), tuple((0, l) for l in range(52)))
        np.testing.assert_allclose(contract(net, {a: np.full((1,) * 52, 2.0)}).ravel(), 2.0)
        with pytest.raises(Error, match="53 indices; limit is 52"):
            compile_batch(net)

    def test_legs_without_parameter_operand(self):
        # v's leg is open, and so is a copy spider's, whose class holds no tensor
        v = Symbol("v", "->n", 0)
        net = Network((ParamNode(v, (2,)), SpiderCopyNode(1, 2)), (), ((0, 0), (1, 0)))
        with pytest.raises(Error, match="open legs with no tensor operands"):
            compile_batch(net)
        # a closed loop alone contracts to its factor, but has no rows to batch
        loop = Network((CupDeltaNode(3), CupDeltaNode(3)), (((0, 0), (1, 0)), ((0, 1), (1, 1))), ())
        with pytest.raises(Error, match="network has no tensor operands"):
            compile_batch(loop)

    def test_slots_are_the_parameter_entries_node_after_node(self, toy_lexicon):
        net = compile_network(parse_sentence(["Alice", "likes", "Bob"], toy_lexicon), cfg())
        batch = compile_batch(net)
        assert batch.shapes == ((2,), (2, 2, 2), (2,))
        assert batch.columns == (slice(0, 2), slice(2, 10), slice(10, 12))
        assert batch.n_slots == 12


@st.composite
def random_networks(draw) -> list[Network]:
    """One random network structure, as 1-3 rows with their own symbols.

    1-4 parameter nodes with 1-3 legs of dimension 2 or 3.  The shuffled
    legs go to an optional 3-ary copy spider (whose third leg may be open),
    then to 0-2 open legs, then in pairs to a cup or a direct edge; a pair
    on one node is a trace.  An odd leg left over is summed alone, by a
    1-ary copy spider.  Two nodes of one shape may share a symbol.
    """
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    legs = draw(st.permutations([(n, l) for n, k in enumerate(arities) for l in range(k)]))
    spider_open = draw(st.booleans())
    spider = len(legs) >= 3 - spider_open and draw(st.booleans())
    used = 3 - spider_open if spider else 0
    n_open = draw(st.integers(0, min(2 - (spider and spider_open), len(legs) - used)))
    opened, paired = legs[used : used + n_open], legs[used + n_open :]
    capped = paired[len(paired) - len(paired) % 2 :]
    pairs = [(paired[i], paired[i + 1], draw(st.booleans())) for i in range(0, len(paired) - 1, 2)]
    # one dimension per class of joined legs
    classes = [list(legs[:used])] if spider else []
    classes += [[a, b] for a, b, _ in pairs] + [[leg] for leg in opened + capped]
    dim = {leg: d for cls in classes for d in [draw(st.sampled_from([2, 3]))] for leg in cls}
    shapes = [tuple(dim[(n, l)] for l in range(k)) for n, k in enumerate(arities)]
    tie = len(shapes) > 1 and shapes[0] == shapes[1] and draw(st.booleans())

    nodes: list = []
    edges, outputs = [], list(opened)
    base = len(arities)  # the first node after the parameter nodes
    if spider:
        nodes.append(SpiderCopyNode(3, dim[legs[0]]))
        edges += [(leg, (base, j)) for j, leg in enumerate(legs[:used])]
        if spider_open:
            outputs.insert(draw(st.integers(0, len(outputs))), (base, 2))
    for leg in capped:
        edges.append((leg, (base + len(nodes), 0)))
        nodes.append(SpiderCopyNode(1, dim[leg]))
    for a, b, via_cup in pairs:
        if via_cup:
            edges += [(a, (base + len(nodes), 0)), (b, (base + len(nodes), 1))]
            nodes.append(CupDeltaNode(dim[a]))
        else:
            edges.append((a, b))

    def row(r: int) -> Network:
        words = [f"w{r}_{0 if tie and n == 1 else n}" for n in range(len(shapes))]
        params = tuple(ParamNode(Symbol(w, "n", 0), s) for w, s in zip(words, shapes))
        return Network(params + tuple(nodes), tuple(edges), tuple(outputs))

    return [row(r) for r in range(draw(st.integers(1, 3)))]


class TestBatchProperties:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(nets=random_networks(), seed=st.integers(0, 2**32 - 1))
    def test_random_networks_match_per_network_reference(self, nets, seed):
        groups = check_batches_against_reference(nets, np.random.default_rng(seed))
        assert len(groups) == 1


class TestJson:
    def test_round_trip(self, toy_lexicon):
        for kind in TensorAnsatz:
            d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
            net = compile_network(d, cfg(kind))
            obj = json.loads(network_to_json(net))
            assert len(obj["nodes"]) == len(net.nodes)
            for nj, node in zip(obj["nodes"], net.nodes):
                if isinstance(node, ParamNode):
                    assert nj == {"kind": "param", "symbol": node.symbol.name,
                                  "shape": list(node.shape)}
                elif isinstance(node, CupDeltaNode):
                    assert nj == {"kind": "cup_delta", "dim": node.dim}
                else:
                    assert nj == {"kind": "spider_copy", "arity": node.arity, "dim": node.dim}
            assert [tuple(map(tuple, e)) for e in obj["edges"]] == list(net.edges)
            assert [tuple(leg) for leg in obj["outputs"]] == list(net.outputs)
