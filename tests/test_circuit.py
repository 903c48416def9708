"""Compilation to parameterized circuits: layouts, counts, cups, JSON."""

from __future__ import annotations

import numpy as np
import pytest

from qnlp import circuit
from qnlp.circuit import (
    Circuit,
    CircuitAnsatz,
    CircuitAnsatzConfig,
    Gate,
    GateKind,
    Symbol,
    WidthOverflow,
    ZeroParameterModel,
    compile_circuit,
    circuit_from_json,
    circuit_to_json,
    cup_block,
    type_fingerprint,
    word_block,
)
from qnlp.pregroup import parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite
from qnlp.simulator import SURVIVAL_EPS, apply


def cfg(kind=CircuitAnsatz.IQP, layers=1, rots=3, **kw) -> CircuitAnsatzConfig:
    return CircuitAnsatzConfig(
        kind=kind, n_layers=layers, n_single_qubit_params=rots, **kw
    )


class TestSymbol:
    def test_name_round_trip(self):
        s = Symbol("likes", "->n.r@s@n.l", 4)
        assert s.name == "likes|->n.r@s@n.l|4"
        assert Symbol.from_name(s.name) == s

    def test_name_survives_odd_words(self):
        s = Symbol("a|b", "->n", 0)
        assert Symbol.from_name(s.name) == s


def block_params(k: int, c: CircuitAnsatzConfig) -> int:
    """Number of parameters of one ansatz block on ``k`` qubits."""
    return len(word_block("w", "->n", tuple(range(k)), c)[1])


class TestBlockParamCount:
    def test_single_qubit_ignores_kind(self):
        for kind in CircuitAnsatz:
            assert block_params(1, cfg(kind, layers=2, rots=5)) == 5

    def test_sim14_sim15_ratio(self):
        """Sim15 carries exactly half the parameters of Sim14 on k >= 2."""
        for k in range(2, 7):
            for layers in range(1, 4):
                n14 = block_params(k, cfg(CircuitAnsatz.SIM14, layers=layers))
                n15 = block_params(k, cfg(CircuitAnsatz.SIM15, layers=layers))
                assert n14 == 2 * n15
        assert block_params(4, cfg(CircuitAnsatz.SIM14)) == 16
        assert block_params(4, cfg(CircuitAnsatz.SIM15)) == 8

    def test_iqp_per_layer(self):
        assert block_params(3, cfg(layers=2)) == 4


class TestWordBlock:
    def test_single_qubit_alternates_rx_rz(self):
        gates, syms = word_block("alice", "->n", (0,), cfg(rots=3))
        assert [g.kind for g in gates] == [GateKind.RX, GateKind.RZ, GateKind.RX]
        assert [s.index for s in syms] == [0, 1, 2]
        assert all(s.word == "alice" for s in syms)

    def test_iqp_layout(self):
        gates, syms = word_block("likes", "->n.r@s@n.l", (0, 1, 2), cfg(layers=2))
        kinds = [g.kind for g in gates]
        assert kinds == [GateKind.H] * 3 + [GateKind.CRZ] * 2 + [GateKind.H] * 3 + [
            GateKind.CRZ
        ] * 2
        assert len(syms) == 4

    def test_strongly_entangling_layout(self):
        gates, syms = word_block("v", "->n.r@s", (0, 1), cfg(CircuitAnsatz.STRONGLY_ENTANGLING, layers=2))
        assert len(syms) == 12
        assert sum(1 for g in gates if g.kind is GateKind.CNOT) == 4

    def test_sim14_rings(self):
        gates, _ = word_block("v", "->n.r@s", (5, 7), cfg(CircuitAnsatz.SIM14, layers=1))
        crx = [g for g in gates if g.kind is GateKind.CRX]
        ry = [g for g in gates if g.kind is GateKind.RY]
        assert len(crx) == 4 and len(ry) == 4
        assert all(set(g.qubits) == {5, 7} for g in crx)

    def test_sim15_has_no_2q_params(self):
        gates, syms = word_block("v", "->n.r@s", (0, 1), cfg(CircuitAnsatz.SIM15, layers=3))
        assert all(g.param is None for g in gates if g.kind is GateKind.CNOT)
        assert len(syms) == 12  # 2k per layer


class TestCupBlock:
    def test_shape(self):
        gates, marked = cup_block(3, 1)
        assert [g.kind for g in gates] == [GateKind.CNOT, GateKind.H]
        assert gates[0].qubits == (3, 1)
        assert gates[1].qubits == (3,)
        assert marked == [3, 1]

    def _amplitude(self, psi: np.ndarray) -> complex:
        gates, marked = cup_block(0, 1)
        assert marked == [0, 1]
        state = psi.reshape(2, 2)
        for g in gates:
            state = apply(state, g)
        return complex(state[0, 0])

    def test_bell_on_00(self):
        amp = self._amplitude(np.array([1, 0, 0, 0], dtype=complex))
        np.testing.assert_allclose(amp, 1 / np.sqrt(2), atol=1e-12)

    def test_bell_on_singlet_direction(self):
        psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        # Nothing survives; the projection is exactly zero.
        assert abs(self._amplitude(psi)) ** 2 < SURVIVAL_EPS

    def test_bell_matches_inner_product(self, rng):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        for _ in range(20):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            np.testing.assert_allclose(self._amplitude(psi), bell @ psi, atol=1e-12)


class TestCompile:
    def test_uncurried_transitive(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        c = compile_circuit(d, cfg())
        assert c.n_qubits == 5
        assert len(c.postselect) == 4
        assert c.outputs == (2,)
        assert sum(1 for g in c.gates if g.kind is GateKind.CNOT) == 2
        assert len(c.symbols) == 3 + 2 + 3

    def test_curried_transitive(self, toy_lexicon):
        d = rewrite(
            parse_sentence(["Alice", "likes", "Bob"], toy_lexicon),
            RewriteScheme.RE_NORM_CUR_NORM,
        )
        c = compile_circuit(d, cfg(layers=2))
        assert c.n_qubits == 2
        assert len(c.postselect) == 1
        assert len(c.outputs) == 1
        assert set(c.outputs).isdisjoint(c.postselect)

    def test_param_count_example(self, toy_lexicon):
        d = rewrite(
            parse_sentence(["Alice", "likes", "Bob"], toy_lexicon),
            RewriteScheme.RE_NORM_CUR_NORM,
        )
        assert len(compile_circuit(d, cfg(layers=2)).symbols) == 8

    def test_param_count_matches_table(self, corpus_diagrams):
        """The symbol table holds one block's symbols per distinct word box."""
        for d in corpus_diagrams[::13]:
            for scheme in (RewriteScheme.RE, RewriteScheme.RE_NORM_CUR_NORM):
                r = rewrite(d, scheme)
                c = compile_circuit(r, cfg(layers=2))
                used = {g.param for g in c.gates if isinstance(g.param, Symbol)}
                assert set(c.symbols) == used
                blocks = {(b.name, type_fingerprint(b)) for b in r.boxes}
                assert {(s.word, s.type_fingerprint) for s in c.symbols} == blocks

    def test_rotations_only_when_no_layers(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        c = compile_circuit(d, cfg(layers=0, rots=4))
        # Multi-qubit blocks contribute nothing at zero layers.
        assert len(c.symbols) == 8

    def test_zero_parameter_model(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        with pytest.raises(ZeroParameterModel):
            compile_circuit(d, cfg(layers=0, rots=0))

    def test_width_overflow(self, mc_lexicon, monkeypatch):
        d = parse_sentence(["skillful", "man", "prepares", "tasty", "sauce"], mc_lexicon)
        monkeypatch.setattr(circuit, "MAX_QUBITS", 4)
        with pytest.raises(WidthOverflow, match="limit is 4"):
            compile_circuit(d, cfg())

    def test_weight_tying_across_sentences(self, mc_lexicon):
        d1 = parse_sentence(["man", "cooks", "meal"], mc_lexicon)
        d2 = parse_sentence(["man", "bakes", "dinner"], mc_lexicon)
        c1 = compile_circuit(d1, cfg())
        c2 = compile_circuit(d2, cfg())
        man1 = {s for s in c1.symbols if s.word == "man"}
        man2 = {s for s in c2.symbols if s.word == "man"}
        assert man1 == man2 != set()

    def test_fingerprints(self, mc_lexicon):
        d = parse_sentence(["man", "cooks", "meal"], mc_lexicon)
        c = compile_circuit(d, cfg())
        fps = {s.word: s.type_fingerprint for s in c.symbols}
        assert fps["man"] == "->n"
        assert fps["cooks"] == "->n.r@s@n.l"
        curried = rewrite(d, RewriteScheme.RE_NORM_CUR_NORM)
        fps2 = {s.word: s.type_fingerprint for s in compile_circuit(curried, cfg()).symbols}
        assert fps2["cooks"] == "n@n->s"

    def test_symbol_table_first_appearance_order(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        c = compile_circuit(d, cfg())
        seen = []
        for g in c.gates:
            if isinstance(g.param, Symbol) and g.param not in seen:
                seen.append(g.param)
        assert list(c.symbols) == seen

    def test_every_corpus_sentence_has_params(self, corpus_diagrams):
        for d in corpus_diagrams[::17]:
            for scheme in RewriteScheme:
                r = rewrite(d, scheme)
                assert len(compile_circuit(r, cfg(layers=1, rots=1)).symbols) >= 1

    def test_compile_is_deterministic(self, toy_lexicon):
        d = parse_sentence(["Alice", "likes", "Bob"], toy_lexicon)
        a = circuit_to_json(compile_circuit(d, cfg(layers=2)))
        b = circuit_to_json(compile_circuit(d, cfg(layers=2)))
        assert a == b


class TestJson:
    def test_round_trip(self, corpus_diagrams):
        for d in corpus_diagrams[::19]:
            for scheme in (RewriteScheme.RE, RewriteScheme.RE_NORM_CUR_NORM):
                c = compile_circuit(rewrite(d, scheme), cfg(layers=2))
                assert circuit_from_json(circuit_to_json(c)) == c

    def test_constant_params_survive(self):
        g = Gate(GateKind.RZ, (0,), 1.25)
        c = Circuit(1, (g,), (), (0,), ())
        again = circuit_from_json(circuit_to_json(c))
        assert again.gates[0].param == 1.25
