"""Statevector execution, postselection, readout, and gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlp.circuit import (
    PARAMETRIC_1Q,
    PARAMETRIC_2Q,
    Circuit,
    CircuitAnsatz,
    CircuitAnsatzConfig,
    Gate,
    GateKind,
    Symbol,
    compile_circuit,
    word_block,
)
from qnlp import simulator
from qnlp.errors import Error
from qnlp.pregroup import parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite
from qnlp.simulator import (
    SURVIVAL_EPS,
    Bound,
    IndexOutOfRange,
    WrongOutputArity,
    apply,
    compile_batch,
    distribution_gradient,
    sentence_distribution,
    zero_state,
)

from oracles import (
    circuit_structure_key,
    finite_difference,
    five_point_difference,
    pull_back,
    reference_gather,
    reference_map,
)


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
        dist = sentence_distribution(one_qubit_circuit(), [])
        np.testing.assert_allclose(dist.probs, [1, 0])
        assert dist.survival_norm == pytest.approx(1.0)

    def test_param_vector_forms(self):
        g = Gate(GateKind.RX, (0,), THETA)
        c = one_qubit_circuit(g, symbols=[THETA])
        by_map = sentence_distribution(c, {THETA: 0.4})
        by_seq = sentence_distribution(c, [0.4])
        np.testing.assert_allclose(by_map.probs, by_seq.probs)

    def test_param_length_mismatch(self):
        g = Gate(GateKind.RX, (0,), THETA)
        c = one_qubit_circuit(g, symbols=[THETA])
        with pytest.raises(Error):
            sentence_distribution(c, [0.1, 0.2])

    def test_zero_survival(self):
        c = Circuit(
            2,
            (Gate(GateKind.RX, (1,), np.pi),),
            postselect=(1,),
            outputs=(0,),
            symbols=(),
        )
        assert sentence_distribution(c, []).survival_norm < SURVIVAL_EPS

    def test_postselection_is_unnormalized(self):
        c = Circuit(
            2, (Gate(GateKind.H, (1,)),), postselect=(1,), outputs=(0,), symbols=()
        )
        dist = sentence_distribution(c, [])
        np.testing.assert_allclose(dist.probs, [1, 0], atol=1e-12)
        assert dist.survival_norm == pytest.approx(0.5)

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
                bare = Circuit(c.n_qubits, c.gates, (), c.outputs, c.symbols)
                dist = sentence_distribution(bare, theta)
                assert dist.survival_norm == pytest.approx(1.0, abs=1e-10)

    def test_survival_in_unit_interval(self, corpus_diagrams, rng):
        for c in corpus_circuits(corpus_diagrams, RewriteScheme.RE, step=11):
            for _ in range(3):
                theta = rng.uniform(0, 2 * np.pi, size=len(c.symbols))
                dist = sentence_distribution(c, theta)
                if not dist.degenerate:
                    assert 0.0 < dist.survival_norm <= 1.0 + 1e-12


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
        assert res.jacobian[0, 1] == pytest.approx(np.sin(2 * theta), abs=1e-12)

    def test_controlled_rotation_vs_fd(self, rng):
        sym = Symbol("v", "->s", 0)
        gates = (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.H, (1,)),
            Gate(GateKind.CRX, (0, 1), sym),
            Gate(GateKind.CRZ, (1, 0), Symbol("v", "->s", 1)),
            # interfere the control branches, or the half-integer frequency
            # of a controlled rotation never reaches the readout
            Gate(GateKind.H, (0,)),
            Gate(GateKind.H, (1,)),
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
        rx = Gate(GateKind.RX, (0,), THETA)
        bad = [
            (Circuit(1, (rx,), (), (), (THETA,)), 0, "must be one output or postselected"),
            (Circuit(1, (Gate(GateKind.RX, (1,), THETA),), (), (0,), (THETA,)), 0, "out of range"),
            (Circuit(2, (Gate(GateKind.CNOT, (0, 0)),), (1,), (0,), ()), 0, "cannot act on"),
            (Circuit(1, (Gate(GateKind.RZ, (0,)),), (), (0,), ()), 0, "needs an angle"),
            (Circuit(2, (rx,), (0,), (0,), (THETA,)), 0, "must be one output or postselected"),
            (Circuit(2, (rx,), (0, 1), (1,), (THETA,)), 0, "must be one output or postselected"),
            (Circuit(1, (rx,), (), (0,), (THETA,)), 2, "2 input qubits for a 1-qubit circuit"),
        ]
        for circuit, n_dom, match in bad:
            with pytest.raises(Error, match=match):
                compile_batch(circuit, n_dom)
        with pytest.raises(IndexOutOfRange):
            compile_batch(bad[1][0], 0)

    def test_map_legs_are_inputs_then_outputs_in_order(self):
        # CNOT(0 -> 1) from input qubit 0, qubit 1 fresh: |x> -> |x, x>,
        # read with the outputs swapped and qubit 2 postselected
        circuit = Circuit(3, (Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.H, (2,))), (2,),
                          (1, 0), ())
        batch = compile_batch(circuit, 1)
        bound = Bound(batch, np.zeros((1, 0)), 1)
        maps = bound.forward()
        want = np.zeros((2, 2, 2))
        want[0, 0, 0] = want[1, 1, 1] = 1 / np.sqrt(2)
        np.testing.assert_allclose(maps, want.reshape(1, -1), rtol=0, atol=1e-15)
        # a batch of no slots pulls back to no terms
        assert bound.backward(np.ones_like(maps)).shape == (1, 0)

    def test_groups_by_structure(self):
        other = Symbol("x", "->s", 0)
        a = one_qubit_circuit(Gate(GateKind.RX, (0,), THETA), symbols=[THETA])
        b = one_qubit_circuit(Gate(GateKind.RX, (0,), other), symbols=[other])
        c = one_qubit_circuit(Gate(GateKind.RY, (0,), other), symbols=[other])
        assert circuit_structure_key(a) == circuit_structure_key(b) != circuit_structure_key(c)
        assert reference_gather([a, b], {THETA: 0, other: 1}).tolist() == [[0], [1]]

    def test_slot_never_matches_a_constant_angle(self):
        other = Symbol("x", "->s", 0)
        rx = Gate(GateKind.RX, (0,), THETA)
        slot_1 = one_qubit_circuit(rx, Gate(GateKind.RX, (0,), other), symbols=[THETA, other])
        angle_1 = one_qubit_circuit(rx, Gate(GateKind.RX, (0,), 1.0), symbols=[THETA, other])
        assert circuit_structure_key(slot_1) != circuit_structure_key(angle_1)

    def test_repeated_symbol_fills_a_slot_per_gate(self):
        other = Symbol("x", "->s", 0)
        rx, ry = Gate(GateKind.RX, (0,), THETA), Gate(GateKind.RY, (0,), THETA)
        once = one_qubit_circuit(rx, Gate(GateKind.RY, (0,), other), symbols=[THETA, other])
        twice = one_qubit_circuit(rx, ry, symbols=[THETA])
        assert circuit_structure_key(once) == circuit_structure_key(twice)
        assert compile_batch(once, 0).n_slots == 2
        assert reference_gather([once, twice], {THETA: 0, other: 1}).tolist() == [
            [0, 1],
            [0, 0],
        ]


@st.composite
def random_circuits(draw, one_output: bool = False) -> tuple[list[Circuit], int]:
    """One random circuit structure, as 1-3 rows that bind their own
    symbols, and its input qubit count.

    1-3 qubits and 1-8 gates of every kind the width allows, between two
    layers of ``H``: the first puts every control in superposition and the
    last makes the branches interfere, without which a controlled
    rotation's half-integer frequency never shows and the two-term rule
    would pass for it.  A parametric gate reads a constant angle or a
    symbol.  Each row binds its symbol-reading gates to words ``w0, w1,
    ...`` in turn, each word read by 1-3 gates, so rows share symbols as
    sentences of a corpus do.  Some qubits are outputs, in any order (one
    with ``one_output``, and then no inputs), and the rest postselected.
    """
    n = draw(st.integers(1, 3))
    kinds = [k for k in GateKind if n > 1 or k in PARAMETRIC_1Q or k is GateKind.H]
    parametric = PARAMETRIC_1Q | PARAMETRIC_2Q
    hadamards = [Gate(GateKind.H, (q,)) for q in range(n)]
    gates = list(hadamards)
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(kinds))
        arity = 1 if kind is GateKind.H or kind in PARAMETRIC_1Q else 2
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        param = None
        if kind in parametric:
            param = draw(st.one_of(st.just(Symbol), st.floats(-2 * np.pi, 2 * np.pi)))
        gates.append(Gate(kind, qubits, param))
    gates += hadamards
    outputs = tuple(draw(st.permutations(range(n)))[: 1 if one_output else draw(st.integers(0, n))])
    post = tuple(q for q in range(n) if q not in outputs)
    n_dom = 0 if one_output else draw(st.integers(0, n))

    def row() -> Circuit:
        uses: dict[Symbol, int] = {}
        bound = []
        for g in gates:
            if g.param is Symbol:
                free = [s for s, k in uses.items() if k < 3]
                fresh = Symbol(f"w{len(uses)}", "->s", 0)
                sym = draw(st.sampled_from(free + [fresh]))
                uses[sym] = uses.get(sym, 0) + 1
                g = Gate(g.kind, g.qubits, sym)
            bound.append(g)
        return Circuit(n, tuple(bound), post, outputs, tuple(uses))

    return [row() for _ in range(draw(st.integers(1, 3)))], n_dom


def angles_of(circuits, rng) -> tuple[np.ndarray, np.ndarray, dict]:
    """Random values of the circuits' symbols, every row's slot angles and
    each symbol's position."""
    symbols = list(dict.fromkeys(s for c in circuits for s in c.symbols))
    offsets = {s: i for i, s in enumerate(symbols)}
    theta = rng.uniform(0, 2 * np.pi, size=len(symbols))
    return theta, theta[reference_gather(circuits, offsets)], offsets


def written(bound: Bound) -> list:
    """Every array a pass writes: its angles, its state and the angles of
    every state row, then its reverse sweep's buffer, inverse angles and
    terms."""
    return [bound.values, bound.state, bound.angles, *bound.sweep]


class TestBatchProperties:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(case=random_circuits(one_output=True), seed=st.integers(0, 2**32 - 1))
    def test_random_circuits_match_per_sentence_reference(self, case, seed):
        # a sentence circuit's map is its output amplitudes, so u = |map|**2
        # is its unnormalized marginal N, whose sum is the survival norm D
        circuits, _ = case
        rng = np.random.default_rng(seed)
        theta, angles, offsets = angles_of(circuits, rng)
        assert len({circuit_structure_key(c) for c in circuits}) == 1
        batch = compile_batch(circuits[0], 0)
        bound = Bound(batch, angles, len(angles))
        amps = bound.forward()
        n = np.abs(amps) ** 2
        # a random upstream g_p on p = N / D per row, chained to N as the
        # model's pullback does, and to the amplitudes as 2 amps g_u
        g_p = rng.normal(size=n.shape)
        d = n.sum(axis=1, keepdims=True)
        alive = d[:, 0] >= SURVIVAL_EPS
        p = n / np.where(alive[:, None], d, 1.0)
        upstream = np.where(alive[:, None], (g_p - (g_p * p).sum(axis=1, keepdims=True)) / d, g_p)
        vjp = bound.backward(2.0 * amps * upstream)
        # the reverse sweep leaves the forward's state as it was
        assert bound.backward(2.0 * amps * upstream).tobytes() == vjp.tobytes()
        assert vjp.shape == angles.shape
        for r, c in enumerate(circuits):
            x = theta[[offsets[s] for s in c.symbols]]
            want = distribution_gradient(c, x)
            assert d[r, 0] == pytest.approx(want.survival_norm, rel=0, abs=1e-12)
            if want.degenerate:
                continue
            # sum the per-gate slots onto the row's symbols
            reads = [c.symbols.index(g.param) for g in c.gates if isinstance(g.param, Symbol)]
            d_sym = np.bincount(reads, vjp[r], len(c.symbols))
            np.testing.assert_allclose(p[r], want.probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(d_sym, want.jacobian @ g_p[r], rtol=0, atol=1e-12)
            fd = finite_difference(lambda v: sentence_distribution(c, v).probs, x)
            np.testing.assert_allclose(want.jacobian, fd, rtol=0, atol=1e-6)

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(case=random_circuits(), seed=st.integers(0, 2**32 - 1))
    def test_random_maps_match_gate_by_gate_reference(self, case, seed):
        circuits, n_dom = case
        rng = np.random.default_rng(seed)
        theta, angles, offsets = angles_of(circuits, rng)
        batch = compile_batch(circuits[0], n_dom)
        bound = Bound(batch, angles, len(angles))
        maps = bound.forward()
        n_out = len(circuits[0].outputs)
        assert maps.shape == (len(circuits), 2 ** (n_dom + n_out)) and maps.dtype == complex
        for r, c in enumerate(circuits):
            want = reference_map(c, theta[[offsets[s] for s in c.symbols]], n_dom)
            np.testing.assert_allclose(maps[r], want, rtol=0, atol=1e-12)
        # every slot on its own, differentiated numerically: Re <g, map>
        g = rng.normal(size=maps.shape) + 1j * rng.normal(size=maps.shape)
        vjp = bound.backward(g)
        # pulling back only the leading row reads the same terms for it
        led = pull_back(simulator, batch, angles, g[:1])
        np.testing.assert_allclose(led, vjp[:1], rtol=1e-12, atol=1e-15)
        fd = five_point_difference(
            lambda a: float(np.vdot(g, Bound(batch, a.reshape(angles.shape)).forward()).real),
            angles.ravel(),
        )
        np.testing.assert_allclose(vjp.ravel(), fd, rtol=0, atol=1e-6)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(case=random_circuits(), seed=st.integers(0, 2**32 - 1), lead=st.integers(1, 3))
    def test_backward_from_a_stored_tape(self, case, seed, lead):
        # a held pass keeps its state as its tape: at A, then B, then A
        # again it gives A's maps, and its leading rows' terms after its own
        # forward equal those of a fresh pass over those rows alone, bit for
        # bit, while another pass on the batch runs between; the two passes
        # share no array
        circuits, n_dom = case
        rng = np.random.default_rng(seed)
        _, angles, _ = angles_of(circuits, rng)
        batch = compile_batch(circuits[0], n_dom)
        a = np.concatenate([angles, angles[::-1]])
        b = rng.uniform(0, 2 * np.pi, size=a.shape)
        lead = min(lead, len(a))
        held, other = Bound(batch, a.copy(), lead), Bound(batch, b, lead)
        first = held.forward().copy()
        g = rng.normal(size=(lead, first.shape[1])) + 1j * rng.normal(size=(lead, first.shape[1]))
        fresh = pull_back(simulator, batch, a[:lead], g)
        assert held.backward(g).tobytes() == fresh.tobytes()
        for values in (b, a):
            held.values[...] = values
            maps = held.forward()
            other.forward()
            other.backward(g)
        assert maps.tobytes() == first.tobytes()
        assert held.backward(g).tobytes() == fresh.tobytes()
        for x in written(held):
            assert not any(np.shares_memory(x, y) for y in written(other))

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(case=random_circuits(), seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 2), min_size=1, max_size=6))
    def test_rows_do_not_depend_on_the_batch(self, case, seed, picks):
        # each row's map, alone and in a batch of any size and makeup,
        # bit for bit: no product rounds by the length of its array
        circuits, n_dom = case
        _, angles, _ = angles_of(circuits, np.random.default_rng(seed))
        batch = compile_batch(circuits[0], n_dom)
        rows = [r % len(circuits) for r in picks]
        together = Bound(batch, angles[rows]).forward()
        for i, r in enumerate(rows):
            alone = Bound(batch, angles[r : r + 1]).forward()
            assert together[i : i + 1].tobytes() == alone.tobytes()


class TestBlockMaps:
    """Word blocks' maps, one row each, entry by entry."""

    @pytest.mark.parametrize("kind", tuple(CircuitAnsatz), ids=lambda k: k.value)
    def test_word_block_maps_are_gate_by_gate_amplitudes(self, kind):
        # each entry of a one-row map, unnormalized, is the amplitude the
        # block's gates, applied one by one with ``apply``, give from its
        # input basis state: so a scale on the maps, which a readout
        # normalizes away, shows here
        rng = np.random.default_rng(len(kind.value))
        for k, cod in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 3)):
            gates, symbols = word_block("w", "t", tuple(range(k)), CircuitAnsatzConfig(kind, 2, 3))
            block = Circuit(k, tuple(gates), tuple(range(cod, k)), tuple(range(cod)),
                            tuple(symbols))
            theta = rng.uniform(0, 2 * np.pi, size=len(symbols))
            for n_dom in range(k + 1):
                maps = Bound(compile_batch(block, n_dom), theta[None]).forward()
                want = reference_map(block, theta, n_dom)
                assert maps.shape == (1, len(want))
                np.testing.assert_allclose(maps[0], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_blocks_of_no_slots_build_and_run(self, k):
        # an L0 block of several qubits, or one qubit at no rotations, has
        # no gates: each of its rows maps an input basis state to itself at
        # the outputs, the others read at 0, and pulls back to no terms
        ansatz = CircuitAnsatzConfig(CircuitAnsatz.SIM14, 0, 0)
        gates, symbols = word_block("w", "t", tuple(range(k)), ansatz)
        assert gates == symbols == []
        for cod in range(1, k + 1):
            block = Circuit(k, (), tuple(range(cod, k)), tuple(range(cod)), ())
            for n_dom in range(k + 1):
                batch = compile_batch(block, n_dom)
                assert batch.n_slots == 0
                bound = Bound(batch, np.empty((3, 0)), 2)
                maps = bound.forward()
                want = reference_map(block, np.zeros(0), n_dom)
                assert maps.shape == (3, len(want)) and (maps == want).all()
                assert bound.backward(maps[:2]).shape == (2, 0)
