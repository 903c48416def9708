"""Exact statevector execution of circuits with postselection.

States are dense complex tensors of shape ``(2,) * n_qubits``.  Rotations
follow the ``exp(-i * theta * P / 2)`` convention, so ``RZ(theta)`` is
``diag(e^{-i theta/2}, e^{+i theta/2})`` and controlled rotations apply the
same half-angle block on the target when the control is 1.  Postselection
slices the outcome-0 component without renormalizing; the squared norm of
what survives is reported as ``survival_norm``.  Only the per-sentence
:func:`sentence_distribution` renormalizes; batched runs leave that to the
model.

The per-sentence gradient, :func:`distribution_gradient`, comes from
parameter-shift rules chained through the quotient ``p = N / D`` (``N``:
unnormalized output marginal, ``D``: survival norm).  Parameters are bound
per gate use: each parametric gate gets its own shift rule, shifting its
angle alone, and a parameter read by several gates sums their terms (the
product rule).  A single-qubit rotation takes the two-term ``+-pi/2``
rule; a controlled rotation takes a four-term rule with shifts ``+-pi/2,
+-3pi/2``, because controlled rotations mix half-integer and integer
frequencies, so the plain two-term rule is not exact for them.
:func:`shift_rule` holds both rules.

Training runs batched, on word blocks rather than sentences: a word's
block acts on its own qubits only, so a sentence's amplitudes are its
diagram's network with each box its block's map (:mod:`qnlp.training`
contracts it with :mod:`qnlp.tensornet`).  Circuits with the same gates
up to the symbols they read compile once into a :class:`CircuitBatch`
(:func:`compile_batch`) whose slots are its parametric gates; a map takes
the first ``n_dom`` qubits as inputs, the others fed ``|0>``, to the
outputs, postselected qubits read at 0.  A :class:`Bound` pass, the
engine contract :mod:`qnlp.tensornet` shares, holds a batch's arrays for
one row count: its ``forward`` gives every row's map in one statevector
pass over every row and input basis state, and its ``backward`` pulls a
complex cotangent on the leading rows' maps back to every parametric gate
by adjoint differentiation, one reverse sweep from the pass's state with
no shifted runs.  The per-gate :func:`apply` and the per-sentence
:func:`sentence_distribution` and :func:`distribution_gradient` are the
reference the batched path is tested against, shift rules against the
adjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from qnlp.circuit import PARAMETRIC_1Q, PARAMETRIC_2Q, Circuit, Gate, GateKind, Symbol
from qnlp.errors import Error


class IndexOutOfRange(Error):
    """A gate addresses a qubit the state does not have."""


class WrongOutputArity(Error):
    """The circuit does not expose exactly one output qubit."""


SURVIVAL_EPS = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Four-term shift-rule coefficients, exact for the frequency set {1/2, 1}
# of controlled rotations.
_C_PLUS = (math.sqrt(2.0) + 1.0) / (4.0 * math.sqrt(2.0))
_C_MINUS = (math.sqrt(2.0) - 1.0) / (4.0 * math.sqrt(2.0))


def _mat_1q(kind: GateKind, angle: float | None) -> np.ndarray:
    if kind is GateKind.H:
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) * _INV_SQRT2
    if angle is None:
        raise Error(f"gate {kind.value} needs an angle")
    h = angle / 2.0
    c, s = math.cos(h), math.sin(h)
    if kind is GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind is GateKind.RZ:
        return np.array(
            [[np.exp(-1j * h), 0], [0, np.exp(1j * h)]], dtype=np.complex128
        )
    raise Error(f"not a single-qubit gate: {kind.value}")


def _mat_2q(kind: GateKind, angle: float | None) -> np.ndarray:
    m = np.eye(4, dtype=np.complex128)
    if kind is GateKind.CNOT:
        m[2:, 2:] = np.array([[0, 1], [1, 0]])
        return m
    if angle is None:
        raise Error(f"gate {kind.value} needs an angle")
    if kind is GateKind.CRZ:
        h = angle / 2.0
        m[2, 2] = np.exp(-1j * h)
        m[3, 3] = np.exp(1j * h)
        return m
    if kind is GateKind.CRX:
        m[2:, 2:] = _mat_1q(GateKind.RX, angle)
        return m
    raise Error(f"not a two-qubit gate: {kind.value}")


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros((2,) * n_qubits, dtype=np.complex128)
    state[(0,) * n_qubits] = 1.0
    return state


def apply(state: np.ndarray, gate: Gate, angle: float | None = None) -> np.ndarray:
    """Left-multiply the gate unitary on the designated qubit axes."""
    n = state.ndim
    for q in gate.qubits:
        if not 0 <= q < n:
            raise IndexOutOfRange(f"qubit {q} out of range for {n}-qubit state")
    if len(gate.qubits) == 1:
        u = _mat_1q(gate.kind, angle)
        out = np.tensordot(u, state, axes=([1], [gate.qubits[0]]))
        return np.moveaxis(out, 0, gate.qubits[0])
    if len(gate.qubits) == 2:
        u = _mat_2q(gate.kind, angle).reshape(2, 2, 2, 2)
        out = np.tensordot(u, state, axes=([2, 3], list(gate.qubits)))
        return np.moveaxis(out, [0, 1], list(gate.qubits))
    raise Error(f"unsupported gate arity: {len(gate.qubits)}")


def param_vector(circuit: Circuit, params) -> np.ndarray:
    """Coerce a mapping or sequence of angles into symbol-table order."""
    if isinstance(params, Mapping):
        try:
            vec = [float(params[s]) for s in circuit.symbols]
        except KeyError as exc:
            raise Error(f"missing value for symbol {exc.args[0]!r}") from None
        return np.asarray(vec, dtype=float)
    vec = np.asarray(params, dtype=float).reshape(-1)
    if vec.shape[0] != len(circuit.symbols):
        raise Error(
            f"expected {len(circuit.symbols)} parameter values, got {vec.shape[0]}"
        )
    return vec


def _execute(circuit: Circuit, theta: np.ndarray) -> np.ndarray:
    state = zero_state(circuit.n_qubits)
    values = dict(zip(circuit.symbols, theta))
    for gate in circuit.gates:
        if isinstance(gate.param, Symbol):
            angle = values[gate.param]
        else:
            angle = gate.param
        state = apply(state, gate, angle)
    return state


def _marginal(circuit: Circuit, theta: np.ndarray):
    """Unnormalized probability marginal over the output qubits.

    Returns ``(N, D)`` with ``N`` flat of length ``2**n_outputs`` (output
    order, first output = most significant bit) and ``D`` the survival
    norm.  Postselected qubits are projected onto 0 without renormalizing;
    the other non-output qubits are summed out.
    """
    post = set(circuit.postselect)
    for q in circuit.outputs:
        if q in post:
            raise Error(f"output qubit {q} is postselected")
    index = tuple(0 if q in post else slice(None) for q in range(circuit.n_qubits))
    probs = np.abs(_execute(circuit, theta)[index]) ** 2
    survival = float(np.sum(probs))
    kept = [q for q in range(circuit.n_qubits) if q not in post]
    probs = probs.sum(axis=tuple(i for i, q in enumerate(kept) if q not in circuit.outputs))
    remaining = [q for q in kept if q in circuit.outputs]
    probs = np.transpose(probs, [remaining.index(q) for q in circuit.outputs])
    return probs.reshape(-1), survival


@dataclass(frozen=True)
class Distribution:
    probs: np.ndarray
    survival_norm: float
    degenerate: bool


def sentence_distribution(circuit: Circuit, params) -> Distribution:
    """Renormalized two-outcome distribution of the single output qubit."""
    if len(circuit.outputs) != 1:
        raise WrongOutputArity(
            f"expected exactly one output qubit, circuit has {len(circuit.outputs)}"
        )
    theta = param_vector(circuit, params)
    n, d = _marginal(circuit, theta)
    if d < SURVIVAL_EPS:
        return Distribution(np.array([0.5, 0.5]), d, True)
    return Distribution(n / d, d, False)


@dataclass(frozen=True)
class DistributionGradient:
    probs: np.ndarray
    jacobian: np.ndarray  # shape (n_params, 2): d p_j / d theta_i
    survival_norm: float
    degenerate: bool


def shift_rule(kind: GateKind) -> tuple[tuple[float, float], ...]:
    """``(shift, coefficient)`` pairs of one parametric gate's derivative rule.

    ``df/dangle = sum_k coefficient_k * f(angle + shift_k)`` holds for the
    unnormalized marginal and for the survival norm when only that gate's
    angle moves: the two-term rule for a single-qubit rotation, the
    four-term rule for a controlled rotation.
    """
    if kind in PARAMETRIC_2Q:
        return (
            (math.pi / 2, _C_PLUS),
            (-math.pi / 2, -_C_PLUS),
            (3 * math.pi / 2, -_C_MINUS),
            (-3 * math.pi / 2, _C_MINUS),
        )
    return ((math.pi / 2, 0.5), (-math.pi / 2, -0.5))


def distribution_gradient(circuit: Circuit, params) -> DistributionGradient:
    """Jacobian of the renormalized distribution w.r.t. every parameter.

    Every parametric gate adds its :func:`shift_rule` term to the row of
    the parameter it reads, its angle shifted alone, so a parameter read
    by several gates sums one exact rule per use.  The quotient rule
    ``dp = (dN - p * dD) / D`` folds in the renormalization.
    """
    if len(circuit.outputs) != 1:
        raise WrongOutputArity(
            f"expected exactly one output qubit, circuit has {len(circuit.outputs)}"
        )
    theta = param_vector(circuit, params)
    n_params = len(circuit.symbols)
    n0, d0 = _marginal(circuit, theta)
    if d0 < SURVIVAL_EPS:
        return DistributionGradient(
            np.array([0.5, 0.5]), np.zeros((n_params, 2)), d0, True
        )
    p = n0 / d0
    jac = np.zeros((n_params, 2))
    row = {s: i for i, s in enumerate(circuit.symbols)}
    for k, g in enumerate(circuit.gates):
        if not isinstance(g.param, Symbol):
            continue
        dn = np.zeros_like(n0)
        dd = 0.0
        for shift, coef in shift_rule(g.kind):
            gates = list(circuit.gates)
            gates[k] = replace(g, param=theta[row[g.param]] + shift)
            n, d = _marginal(replace(circuit, gates=tuple(gates)), theta)
            dn += coef * n
            dd += coef * d
        jac[row[g.param]] += (dn - p * dd) / d0
    return DistributionGradient(p, jac, d0, False)


# -- batched execution ----------------------------------------------------

_1Q_KINDS = frozenset({GateKind.H}) | PARAMETRIC_1Q
_2Q_KINDS = frozenset({GateKind.CNOT}) | PARAMETRIC_2Q


@dataclass(frozen=True, eq=False)
class CircuitBatch:
    """Circuits of one structure, compiled once to run as one batch of maps.

    A circuit's map takes its first ``n_dom`` qubits as inputs, the others
    fed ``|0>``, to its outputs, its postselected qubits read at 0: row
    ``r``'s map is flattened from a ``(2,) * (n_dom + len(outputs))``
    tensor, input legs first, then the outputs in order.  Every parametric
    gate is a slot of its own, in gate order, so a symbol read twice fills
    two slots.  The engine takes a ``(rows, n_slots)`` array of angles;
    nothing here depends on the row count.
    """

    n_qubits: int
    # (kind, state index of the target-0 slice, of the target-1 slice,
    # slot or None, constant angle or None); a two-qubit gate's slices fix
    # its control to 1
    ops: tuple[tuple, ...]
    n_dom: int
    cols: np.ndarray  # per output basis state, its flat state index
    n_slots: int


def compile_batch(first: Circuit, n_dom: int) -> CircuitBatch:
    """Compile the circuits with ``first``'s gates, up to the symbols they
    read, into a batch whose maps read their first ``n_dom`` qubits as
    inputs."""
    n = first.n_qubits
    if sorted(first.postselect + first.outputs) != list(range(n)):
        raise Error(f"each of the {n} qubits must be one output or postselected")
    if not 0 <= n_dom <= n:
        raise Error(f"{n_dom} input qubits for a {n}-qubit circuit")

    ops = []
    n_slots = 0
    for g in first.gates:
        for q in g.qubits:
            if not 0 <= q < n:
                raise IndexOutOfRange(f"qubit {q} out of range for {n}-qubit state")
        arity = {1: _1Q_KINDS, 2: _2Q_KINDS}.get(len(g.qubits), frozenset())
        if g.kind not in arity or len(set(g.qubits)) != len(g.qubits):
            raise Error(f"gate {g.kind.value} cannot act on {len(g.qubits)} qubits")
        if g.param is None and g.kind not in (GateKind.H, GateKind.CNOT):
            raise Error(f"gate {g.kind.value} needs an angle")
        low = [slice(None)] * (n + 1)
        if len(g.qubits) == 2:
            low[g.qubits[0] + 1] = 1  # the control
        high = list(low)
        low[g.qubits[-1] + 1] = 0
        high[g.qubits[-1] + 1] = 1
        if isinstance(g.param, Symbol):
            ops.append((g.kind, tuple(low), tuple(high), n_slots, None))
            n_slots += 1
        else:
            ops.append((g.kind, tuple(low), tuple(high), None, g.param))
    cols = np.zeros(1, dtype=np.intp)
    for q in first.outputs:  # the first output is the most significant
        cols = (cols[:, None] + np.array([0, 1 << (n - 1 - q)])).ravel()
    return CircuitBatch(n, tuple(ops), n_dom, cols, n_slots)


def _apply_rows(state: np.ndarray, op: tuple, angles: np.ndarray) -> None:
    """Apply one gate in place to every row, each at its own angle.

    Complex products are written out of place: NumPy can round an in-place
    complex product over a one-element view differently from the same
    product over a longer array, and a row must not depend on its batch.
    """
    kind, low, high, slot, angle = op
    a, b = state[low], state[high]  # views: the target's 0 and 1 slices
    if kind is GateKind.H:
        diff = a - b
        a += b
        a *= _INV_SQRT2
        np.multiply(diff, _INV_SQRT2, out=b)
        return
    if kind is GateKind.CNOT:
        old = a.copy()
        a[...] = b
        b[...] = old
        return
    if slot is None:
        half = angle / 2.0
    else:
        half = angles[:, slot].reshape((-1,) + (1,) * (a.ndim - 1)) / 2.0
    if kind is GateKind.RZ or kind is GateKind.CRZ:
        phase = np.exp(1j * half)
        a[...] = a * np.conj(phase)
        b[...] = b * phase
        return
    c, s = np.cos(half), np.sin(half)
    if kind is GateKind.RY:
        old = a.copy()
        a *= c
        a -= s * b
        b *= c
        b += s * old
        return
    # RX and CRX
    ms = -1j * s
    old = a.copy()
    a *= c
    a += ms * b
    b *= c
    b += ms * old


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``<x|y>`` of every row."""
    return (x.conj() * y).reshape(len(x), -1).sum(axis=1)


def _generator_term(kind: GateKind, a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
    """``Im <lam|P|psi>`` per row for the generator ``P`` of one gate.

    ``a`` and ``b`` are the gate's target-0 and target-1 slices of the
    stacked state, ``lam`` in its first ``t`` rows and ``psi`` in the rest.
    """
    lam_a, lam_b, psi_a, psi_b = a[:t], b[:t], a[t:], b[t:]
    if kind is GateKind.RZ or kind is GateKind.CRZ:
        return (_dot(lam_a, psi_a) - _dot(lam_b, psi_b)).imag
    if kind is GateKind.RY:
        return (_dot(lam_b, psi_a) - _dot(lam_a, psi_b)).real
    # RX and CRX
    return (_dot(lam_a, psi_b) + _dot(lam_b, psi_a)).imag


class Bound:
    """A batch bound to ``values``, ``(rows, n_slots)`` angles, its leading
    ``t`` rows differentiated.  The state, each row once per input basis
    state in turn, and each state row's angles are made here, the reverse
    sweep's arrays on the first :meth:`backward`; a pass overwrites them."""

    def __init__(self, batch: CircuitBatch, values: np.ndarray, t: int = 0):
        self.batch, self.values, self.t, self.sweep = batch, values, t, None
        self.state = np.empty((len(values) << batch.n_dom,) + (2,) * batch.n_qubits, complex)
        self.angles = np.empty((len(self.state), batch.n_slots))

    def forward(self) -> np.ndarray:
        """Every row's map at its row of angles, ``(rows, 2**(n_dom +
        n_outputs))`` complex, from every input basis state at once."""
        batch, rows, inputs = self.batch, len(self.values), np.arange(1 << self.batch.n_dom)
        self.state.fill(0.0)
        self.state.reshape(rows, len(inputs), len(inputs), -1)[:, inputs, inputs, 0] = 1.0
        self.angles.reshape(rows, len(inputs), batch.n_slots)[...] = self.values[:, None]
        for op in batch.ops:
            _apply_rows(self.state, op, self.angles)
        return self.state.reshape(len(self.state), -1)[:, batch.cols].reshape(rows, -1)

    def backward(self, g: np.ndarray) -> np.ndarray:
        """``d Re <g, map> / d slot`` of the leading ``t`` rows after the
        pass's forward, ``(t, n_slots)``, for the complex cotangent ``g`` on
        their maps.  The state holds ``psi``, every row from every input
        basis state; ``lam`` holds each input's row of ``g`` at the outputs,
        zero off postselection, so ``Re <g, map>`` is ``Re <lam|psi>``.  A
        reverse sweep undoes every gate on ``lam`` and the leading rows of
        ``psi`` alike, first reading a gate ``exp(-i angle P/2)``'s term
        ``Im <lam|P|psi> / 2``, over the control-1 slices for a controlled
        rotation; a row's inputs' terms sum.  ``lam`` sits just before a copy
        of those rows of ``psi`` in one buffer, so every inverse gate is one
        in-place update on both, and the state is left as it is."""
        batch, t = self.batch, self.t << self.batch.n_dom
        if self.sweep is None:  # the buffer, its rows' inverse angles and the terms
            self.sweep = (np.empty((2 * t,) + self.state.shape[1:], complex),
                          np.empty((2 * t, batch.n_slots)), np.empty((t, batch.n_slots)))
        buffer, inverse, terms = self.sweep
        buffer[:t] = 0.0
        buffer[:t].reshape(t, -1)[:, batch.cols] = g.reshape(t, -1)
        buffer[t:] = self.state[:t]
        np.negative(self.angles[:t], out=inverse.reshape(2, t, batch.n_slots))
        for kind, low, high, slot, angle in reversed(batch.ops):
            if slot is not None:
                terms[:, slot] = _generator_term(kind, buffer[low], buffer[high], t)
                if slot == 0:  # the first parametric gate: nothing left to read
                    break
            _apply_rows(buffer, (kind, low, high, slot, None if angle is None else -angle),
                        inverse)
        return 0.5 * terms.reshape(self.t, 1 << batch.n_dom, batch.n_slots).sum(axis=1)
