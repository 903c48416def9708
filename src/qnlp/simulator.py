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

Training runs batched, through the batch contract :mod:`qnlp.tensornet`
shares: circuits of one :func:`structure_key` compile once, from one
circuit's gates, into a :class:`CircuitBatch` (:func:`compile_batch`)
whose slots are its parametric gates.  The model gathers each row's
angles per slot, and :func:`batch_forward` gives every row's two weights
``u`` (its unnormalized output marginal ``N``, whose sum is the survival
norm) in one statevector pass over a ``(rows, 2, ..., 2)`` state, and
:func:`batch_backward` returns ``u`` from its own forward pass and pulls
the model's cotangent on ``u`` back to every parametric gate by adjoint
differentiation: per chunk of rows, one forward pass, then the model's
cotangent for the chunk's leading rows and one reverse sweep over those
rows alone, with no shifted runs.  The model normalizes and chains the
quotient rule.  The per-gate :func:`apply` and the per-sentence
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

# Most amplitudes one chunk of batch rows holds, per state: a gradient
# chunk holds two, the forward state and its upstream-weighted copy.  A
# row wider than this runs alone.
BATCH_AMPLITUDES = 2**14

_1Q_KINDS = frozenset({GateKind.H}) | PARAMETRIC_1Q
_2Q_KINDS = frozenset({GateKind.CNOT}) | PARAMETRIC_2Q


def structure_key(circuit: Circuit) -> tuple:
    """What circuits must share to run as one batch.

    The qubit count, then per gate its kind, its qubits, and its constant
    angle or, for a gate that reads a parameter, the :class:`Symbol` class
    (a marker that never equals an angle), then the postselected and
    output qubits.  Sentences of one grammatical pattern under one ansatz
    share a key whatever their words, a repeated word included.
    """
    gates = tuple(
        (g.kind, g.qubits, Symbol if isinstance(g.param, Symbol) else g.param)
        for g in circuit.gates
    )
    return (circuit.n_qubits, gates, circuit.postselect, circuit.outputs)


@dataclass(frozen=True, eq=False)
class CircuitBatch:
    """Circuits of one structure, compiled once to run as one batch.

    Every parametric gate is a slot of its own, in gate order, so a symbol
    read twice fills two slots.  The engine takes a ``(rows, n_slots)``
    array of angles, row ``r``'s ``j``-th entry the angle its ``j``-th
    parametric gate reads; nothing here depends on the row count.
    """

    n_qubits: int
    # (kind, state index of the target-0 slice, of the target-1 slice,
    # slot or None, constant angle or None); a two-qubit gate's slices fix
    # its control to 1
    ops: tuple[tuple, ...]
    postselect: tuple  # state index keeping outcome 0 of postselected qubits
    output_axis: int  # axis of the output qubit after postselection
    n_slots: int


def compile_batch(first: Circuit) -> CircuitBatch:
    """Compile the circuits of ``first``'s :func:`structure_key` into a batch."""
    if len(first.outputs) != 1:
        raise WrongOutputArity(
            f"expected exactly one output qubit, circuit has {len(first.outputs)}"
        )
    n = first.n_qubits
    (output,) = first.outputs
    post = set(first.postselect)
    if output in post:
        raise Error(f"output qubit {output} is postselected")

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
    return CircuitBatch(
        n_qubits=n,
        ops=tuple(ops),
        postselect=(slice(None),) + tuple(0 if q in post else slice(None) for q in range(n)),
        output_axis=1 + sum(1 for q in range(output) if q not in post),
        n_slots=n_slots,
    )


def _apply_rows(state: np.ndarray, op: tuple, angles: np.ndarray) -> None:
    """Apply one gate in place to every row, each at its own angle."""
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
        a *= np.conj(phase)
        b *= phase
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


def _chunks(batch: CircuitBatch, rows: int):
    """Row slices of at most ``BATCH_AMPLITUDES`` amplitudes each; a row
    wider than that runs alone."""
    step = max(1, BATCH_AMPLITUDES >> batch.n_qubits)
    return (slice(start, start + step) for start in range(0, rows, step))


def _forward(batch: CircuitBatch, state: np.ndarray, angles: np.ndarray) -> None:
    """Run every gate in place on the all-zero ``state``, each row from
    ``|0...0>`` at its own row of slot ``angles``."""
    state[(slice(None),) + (0,) * batch.n_qubits] = 1.0
    for op in batch.ops:
        _apply_rows(state, op, angles)


def _weights(batch: CircuitBatch, psi: np.ndarray) -> np.ndarray:
    """Every row's unnormalized output marginal: the postselected
    probabilities of ``psi`` summed per outcome of the output qubit."""
    probs = np.abs(psi[batch.postselect]) ** 2
    return np.moveaxis(probs, batch.output_axis, 1).reshape(len(psi), 2, -1).sum(axis=2)


def batch_forward(batch: CircuitBatch, angles: np.ndarray) -> np.ndarray:
    """Every row's two weights ``u``, its unnormalized output marginal (sum:
    the survival norm), in one pass at its row of slot ``angles``."""
    u = np.empty((len(angles), 2))
    for chunk in _chunks(batch, len(angles)):
        block = angles[chunk]
        state = np.zeros((len(block),) + (2,) * batch.n_qubits, dtype=np.complex128)
        _forward(batch, state, block)
        u[chunk] = _weights(batch, state)
    return u


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


def batch_backward(batch: CircuitBatch, angles: np.ndarray, pull) -> tuple[np.ndarray, np.ndarray]:
    """Every row's weights ``u`` and, for the rows ``pull`` gives a cotangent,
    ``sum_k g_u[r, k] * d u[r, k] / d slot j`` of every slot, laid out like
    the leading rows of ``angles``: ``(rows, n_slots)``.

    Per chunk of rows, one forward pass gives ``psi`` and the chunk's
    ``u``; ``pull(rows, u)`` takes the chunk's row slice and weights and
    returns the cotangent ``g_u`` of its leading ``t`` rows, the rows to
    differentiate, and ``t`` may be zero.  Those rows are pulled back by
    adjoint differentiation: ``lam = W psi``, where ``W`` weights each
    amplitude by the ``g_u`` of its output outcome and is zero off
    postselection, so the weighted marginal is ``<psi|W|psi>``.  A reverse
    sweep undoes every gate on ``lam`` and ``psi`` alike; before undoing a
    gate ``exp(-i angle P/2)`` it reads that slot's derivative
    ``Im <lam|P|psi>``, over the control-1 slices for a controlled
    rotation.  ``lam`` sits just before ``psi`` in one buffer of twice the
    chunk, so the ``t`` rows of each stack as one ``(2t, 2, ..., 2)`` state
    and every inverse gate is one in-place update; memory stays within two
    states of ``BATCH_AMPLITUDES`` per chunk.
    """
    rows, slots = angles.shape
    u = np.empty((rows, 2))
    out = np.empty((rows, slots))
    pulled = 0
    for chunk in _chunks(batch, rows):
        block = angles[chunk]
        m = len(block)
        buffer = np.zeros((2 * m,) + (2,) * batch.n_qubits, dtype=np.complex128)
        psi = buffer[m:]
        _forward(batch, psi, block)
        u[chunk] = _weights(batch, psi)
        g_u = pull(chunk, u[chunk])
        t = len(g_u)
        if t == 0:
            continue
        both = buffer[m - t : m + t]
        kept = psi[:t][batch.postselect]
        shape = [t] + [1] * (kept.ndim - 1)
        shape[batch.output_axis] = 2
        both[:t][batch.postselect] = kept * g_u.reshape(shape)
        inverse = -np.concatenate([block[:t], block[:t]])
        start = chunk.start
        for kind, low, high, slot, angle in reversed(batch.ops):
            if slot is not None:
                out[start : start + t, slot] = _generator_term(kind, both[low], both[high], t)
                if slot == 0:  # the first parametric gate: nothing left to read
                    break
            _apply_rows(both, (kind, low, high, slot, None if angle is None else -angle), inverse)
        pulled = start + t
    return u, out[:pulled]
