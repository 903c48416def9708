"""Statevector execution, postselection, readout, and gradients."""

from __future__ import annotations

import numpy as np
import pytest

from qnlp.circuit import (
    Circuit,
    CircuitAnsatz,
    CircuitAnsatzConfig,
    Gate,
    GateKind,
    Symbol,
    compile_circuit,
)
from qnlp.errors import Error
from qnlp.pregroup import parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite
from qnlp.simulator import (
    Distribution,
    IndexOutOfRange,
    WrongOutputArity,
    ZeroSurvival,
    apply,
    compile_batch,
    distribution_gradient,
    param_vector,
    run,
    sentence_distribution,
    structure_key,
    zero_state,
)

from oracles import finite_difference


def one_qubit_circuit(*gates: Gate, symbols=()) -> Circuit:
    return Circuit(1, tuple(gates), (), (0,), tuple(symbols))


THETA = Symbol("w", "->s", 0)


class TestApply:
    def test_hadamard(self):
        out = apply(zero_state(1), Gate(GateKind.H, (0,)))
        np.testing.assert_allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_rz_global_phase_on_zero(self):
        out = apply(zero_state(1), Gate(GateKind.RZ, (0,), 0.7), 0.7)
        np.testing.assert_allclose(out, [np.exp(-0.35j), 0], atol=1e-12)

    def test_cnot(self):
        state = np.zeros((2, 2), dtype=complex)
        state[1, 0] = 1.0
        out = apply(state, Gate(GateKind.CNOT, (0, 1)))
        np.testing.assert_allclose(out[1, 1], 1.0, atol=1e-12)

    def test_rx_is_exp_convention(self):
        # exp(-i theta X / 2) at theta = pi sends |0> to -i|1>.
        out = apply(zero_state(1), Gate(GateKind.RX, (0,), np.pi), np.pi)
        np.testing.assert_allclose(out, [0, -1j], atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            apply(zero_state(1), Gate(GateKind.H, (1,)))


class TestRun:
    def test_empty_circuit(self):
        res = run(one_qubit_circuit())
        np.testing.assert_allclose(res.amplitudes, [1, 0])
        assert res.survival_norm == pytest.approx(1.0)

    def test_param_vector_forms(self):
        g = Gate(GateKind.RX, (0,), THETA)
        c = one_qubit_circuit(g, symbols=[THETA])
        by_map = run(c, {THETA: 0.4})
        by_seq = run(c, [0.4])
        np.testing.assert_allclose(by_map.amplitudes, by_seq.amplitudes)

    def test_param_length_mismatch(self):
        g = Gate(GateKind.RX, (0,), THETA)
        c = one_qubit_circuit(g, symbols=[THETA])
        with pytest.raises(Exception):
            param_vector(c, [0.1, 0.2])

    def test_zero_survival(self):
        c = Circuit(
            2,
            (Gate(GateKind.RX, (1,), np.pi),),
            postselect=(1,),
            outputs=(0,),
            symbols=(),
        )
        with pytest.raises(ZeroSurvival):
            run(c)

    def test_postselection_is_unnormalized(self):
        c = Circuit(
            1, (Gate(GateKind.H, (0,)),), postselect=(0,), outputs=(), symbols=()
        )
        res = run(c)
        np.testing.assert_allclose(res.amplitudes.reshape(()), 1 / np.sqrt(2), atol=1e-12)
        assert res.survival_norm == pytest.approx(0.5)

    def test_linearity_in_initial_state(self, rng):
        gates = (Gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (0, 1)))

        def project(psi):
            # run the gates on a prepared state, then postselect qubit 1 on 0
            state = psi.reshape(2, 2)
            for g in gates:
                state = apply(state, g)
            amps = state[:, 0]
            return amps, float(np.sum(np.abs(amps) ** 2))

        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        base, base_survival = project(psi)
        scaled, scaled_survival = project(2.0 * psi)
        np.testing.assert_allclose(scaled, 2.0 * base, atol=1e-12)
        assert scaled_survival == pytest.approx(4.0 * base_survival)


def corpus_circuits(diagrams, scheme, kind=CircuitAnsatz.IQP, layers=2, step=7):
    cfg = CircuitAnsatzConfig(kind=kind, n_layers=layers, n_single_qubit_params=3)
    return [compile_circuit(rewrite(d, scheme), cfg) for d in diagrams[::step]]


class TestUnitarity:
    def test_norm_preserved_before_projection(self, corpus_diagrams, rng):
        for c in corpus_circuits(corpus_diagrams, RewriteScheme.RE_NORM_CUR_NORM):
            for _ in range(4):
                theta = rng.uniform(0, 2 * np.pi, size=len(c.symbols))
                bare = Circuit(c.n_qubits, c.gates, (), tuple(range(c.n_qubits)), c.symbols)
                res = run(bare, theta)
                assert np.linalg.norm(res.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_survival_in_unit_interval(self, corpus_diagrams, rng):
        for c in corpus_circuits(corpus_diagrams, RewriteScheme.RE, step=11):
            for _ in range(3):
                theta = rng.uniform(0, 2 * np.pi, size=len(c.symbols))
                try:
                    res = run(c, theta)
                except ZeroSurvival:
                    continue
                assert 0.0 < res.survival_norm <= 1.0 + 1e-12


class TestSentenceDistribution:
    def test_no_gate(self):
        dist = sentence_distribution(one_qubit_circuit(), [])
        np.testing.assert_allclose(dist.probs, [1.0, 0.0], atol=1e-12)
        assert not dist.degenerate

    def test_bit_flip(self):
        c = one_qubit_circuit(Gate(GateKind.RX, (0,), np.pi))
        dist = sentence_distribution(c, [])
        np.testing.assert_allclose(dist.probs, [0.0, 1.0], atol=1e-12)

    def test_wrong_arity(self):
        c = Circuit(2, (), (), (0, 1), ())
        with pytest.raises(WrongOutputArity):
            sentence_distribution(c, [])

    def test_degenerate_uniform(self):
        c = Circuit(
            2,
            (Gate(GateKind.RX, (1,), np.pi),),
            postselect=(1,),
            outputs=(0,),
            symbols=(),
        )
        dist = sentence_distribution(c, [])
        assert dist.degenerate
        np.testing.assert_allclose(dist.probs, [0.5, 0.5])

    def test_normalized_on_corpus(self, corpus_diagrams, rng):
        for c in corpus_circuits(corpus_diagrams, RewriteScheme.RE_NORM_CUR_NORM, step=9):
            for _ in range(3):
                theta = rng.uniform(0, 2 * np.pi, size=len(c.symbols))
                dist = sentence_distribution(c, theta)
                assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(dist.probs >= -1e-15)


class TestGradient:
    def test_single_rx_analytic(self):
        g = Gate(GateKind.RX, (0,), THETA)
        c = one_qubit_circuit(g, symbols=[THETA])
        res = distribution_gradient(c, [np.pi / 2])
        # p1 = sin^2(theta/2), so dp1/dtheta = sin(theta)/2 = 1/2 here.
        assert res.jacobian[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert res.jacobian[0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_periodicity(self):
        g = Gate(GateKind.RX, (0,), THETA)
        c = one_qubit_circuit(g, symbols=[THETA])
        a = distribution_gradient(c, [0.9])
        b = distribution_gradient(c, [0.9 + 2 * np.pi])
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-10)
        np.testing.assert_allclose(a.jacobian, b.jacobian, atol=1e-8)

    def test_reused_symbol_analytic(self):
        # Two RX(theta) on one qubit compose to RX(2*theta).
        gates = (Gate(GateKind.RX, (0,), THETA), Gate(GateKind.RX, (0,), THETA))
        c = one_qubit_circuit(*gates, symbols=[THETA])
        theta = 0.3
        res = distribution_gradient(c, [theta])
        assert res.jacobian[0, 1] == pytest.approx(np.sin(2 * theta), abs=1e-6)

    def test_controlled_rotation_vs_fd(self, rng):
        sym = Symbol("v", "->s", 0)
        gates = (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.H, (1,)),
            Gate(GateKind.CRX, (0, 1), sym),
            Gate(GateKind.CRZ, (1, 0), Symbol("v", "->s", 1)),
        )
        c = Circuit(2, gates, (1,), (0,), (sym, Symbol("v", "->s", 1)))
        theta = rng.uniform(0, 2 * np.pi, size=2)

        def probs(x):
            return sentence_distribution(c, x).probs

        want = finite_difference(probs, theta)
        got = distribution_gradient(c, theta).jacobian
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_corpus_shift_vs_fd(self, corpus_diagrams, rng):
        for c in corpus_circuits(corpus_diagrams, RewriteScheme.RE_NORM_CUR_NORM, step=23):
            theta = rng.uniform(0, 2 * np.pi, size=len(c.symbols))

            def probs(x, c=c):
                return sentence_distribution(c, x).probs

            want = finite_difference(probs, theta)
            got = distribution_gradient(c, theta).jacobian
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_upstream_chain(self):
        g = Gate(GateKind.RX, (0,), THETA)
        c = one_qubit_circuit(g, symbols=[THETA])
        res = distribution_gradient(c, [np.pi / 2])
        grads = res.jacobian @ np.array([0.0, 2.0])
        assert grads[0] == pytest.approx(1.0, abs=1e-12)
        assert not res.degenerate

    def test_degenerate_zero_gradient(self):
        sym = Symbol("w", "->s", 0)
        c = Circuit(
            2,
            (Gate(GateKind.RX, (0,), sym), Gate(GateKind.RX, (1,), np.pi)),
            postselect=(1,),
            outputs=(0,),
            symbols=(sym,),
        )
        res = distribution_gradient(c, [0.4])
        assert res.degenerate
        np.testing.assert_allclose(res.jacobian, 0.0)
        np.testing.assert_allclose(res.probs, [0.5, 0.5])


class TestCompileBatches:
    def test_rejects_what_the_reference_rejects(self):
        positions = {THETA: 0}
        rx = Gate(GateKind.RX, (0,), THETA)
        bad = [
            (Circuit(1, (rx,), (), (), (THETA,)), WrongOutputArity),
            (Circuit(1, (Gate(GateKind.RX, (1,), THETA),), (), (0,), (THETA,)), IndexOutOfRange),
            (Circuit(2, (Gate(GateKind.CNOT, (0, 0)),), (), (0,), ()), Error),
            (Circuit(1, (Gate(GateKind.RZ, (0,)),), (), (0,), ()), Error),
            (Circuit(2, (rx,), (0,), (0,), (THETA,)), Error),
        ]
        for circuit, exc in bad:
            with pytest.raises(exc):
                compile_batch([circuit], positions)

    def test_groups_by_structure(self):
        other = Symbol("x", "->s", 0)
        a = one_qubit_circuit(Gate(GateKind.RX, (0,), THETA), symbols=[THETA])
        b = one_qubit_circuit(Gate(GateKind.RX, (0,), other), symbols=[other])
        c = one_qubit_circuit(Gate(GateKind.RY, (0,), other), symbols=[other])
        assert structure_key(a) == structure_key(b) != structure_key(c)
        assert compile_batch([a, b], {THETA: 0, other: 1}).gather.tolist() == [[0], [1]]

    def test_slot_never_matches_a_constant_angle(self):
        other = Symbol("x", "->s", 0)
        rx = Gate(GateKind.RX, (0,), THETA)
        slot_1 = one_qubit_circuit(rx, Gate(GateKind.RX, (0,), other), symbols=[THETA, other])
        angle_1 = one_qubit_circuit(rx, Gate(GateKind.RX, (0,), 1.0), symbols=[THETA, other])
        assert structure_key(slot_1) != structure_key(angle_1)
