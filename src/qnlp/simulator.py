"""Exact statevector execution of circuits with postselection.

States are dense complex tensors of shape ``(2,) * n_qubits``.  Rotations
follow the ``exp(-i * theta * P / 2)`` convention, so ``RZ(theta)`` is
``diag(e^{-i theta/2}, e^{+i theta/2})`` and controlled rotations apply the
same half-angle block on the target when the control is 1.  Postselection
slices the outcome-0 component without renormalizing; the squared norm of
what survives is reported as ``survival_norm``, and renormalization happens
only in :func:`sentence_distribution`.

Gradients of the renormalized distribution come from parameter-shift rules
chained through the quotient ``p = N / D`` (``N``: unnormalized output
marginal, ``D``: survival norm).  A parameter used by exactly one
single-qubit rotation gets the two-term ``+-pi/2`` rule.  A parameter used
by exactly one controlled rotation gets a four-term rule with shifts
``+-pi/2, +-3pi/2``: controlled rotations mix half-integer and integer
frequencies, so the plain two-term rule is not exact for them.  Parameters
reused across gates fall back to central finite differences;
:func:`shift_rule` holds that rule table.

Training runs batched: circuits that share a structure (see
:func:`structure_key`) compile once into a :class:`CircuitBatch`, and one
statevector pass over a ``(rows, 2, ..., 2)`` state serves every sentence
of the group, with the gradient's shift probes stacked into the row axis
(:func:`batch_distribution`, :func:`batch_distribution_gradient`).  The
per-gate :func:`apply` and the per-sentence :func:`sentence_distribution`
and :func:`distribution_gradient` are the reference the batched path is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from qnlp.circuit import PARAMETRIC_1Q, PARAMETRIC_2Q, Circuit, Gate, GateKind, Symbol
from qnlp.errors import Error


class IndexOutOfRange(Error):
    """A gate addresses a qubit the state does not have."""


class ZeroSurvival(Error):
    """Postselection annihilated the state (survival norm below 1e-12)."""


class WrongOutputArity(Error):
    """The circuit does not expose exactly one output qubit."""


SURVIVAL_EPS = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Four-term shift-rule coefficients, exact for the frequency set {1/2, 1}
# of controlled rotations.
_C_PLUS = (math.sqrt(2.0) + 1.0) / (4.0 * math.sqrt(2.0))
_C_MINUS = (math.sqrt(2.0) - 1.0) / (4.0 * math.sqrt(2.0))

_FD_STEP = 1e-6


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


@dataclass(frozen=True)
class RunResult:
    """Post-projection amplitudes over the surviving (kept) qubits."""

    amplitudes: np.ndarray
    kept_qubits: tuple[int, ...]
    survival_norm: float


def _execute(circuit: Circuit, theta: np.ndarray, initial_state=None) -> np.ndarray:
    if initial_state is None:
        state = zero_state(circuit.n_qubits)
    else:
        state = np.asarray(initial_state, dtype=np.complex128)
        if state.size != 2**circuit.n_qubits:
            raise Error(
                f"initial state has {state.size} amplitudes, "
                f"expected {2**circuit.n_qubits}"
            )
        state = state.reshape((2,) * circuit.n_qubits).copy()
    values = dict(zip(circuit.symbols, theta))
    for gate in circuit.gates:
        if isinstance(gate.param, Symbol):
            angle = values[gate.param]
        else:
            angle = gate.param
        state = apply(state, gate, angle)
    return state


def _project(circuit: Circuit, theta: np.ndarray, initial_state=None):
    state = _execute(circuit, theta, initial_state)
    post = set(circuit.postselect)
    indexer = tuple(0 if q in post else slice(None) for q in range(circuit.n_qubits))
    amps = state[indexer]
    kept = tuple(q for q in range(circuit.n_qubits) if q not in post)
    survival = float(np.sum(np.abs(amps) ** 2))
    return amps, kept, survival


def run(circuit: Circuit, params=None, initial_state=None) -> RunResult:
    """Execute and project; ``initial_state`` is a test-only entry point.

    Raises :class:`ZeroSurvival` when the projection leaves less than
    ``SURVIVAL_EPS`` of the squared norm.
    """
    theta = np.zeros(0) if params is None else param_vector(circuit, params)
    amps, kept, survival = _project(circuit, theta, initial_state)
    if survival < SURVIVAL_EPS:
        raise ZeroSurvival(f"survival norm {survival:.3e} below {SURVIVAL_EPS}")
    return RunResult(amps, kept, survival)


def _marginal(circuit: Circuit, theta: np.ndarray, initial_state=None):
    """Unnormalized probability marginal over the output qubits.

    Returns ``(N, D)`` with ``N`` flat of length ``2**n_outputs`` (output
    order, first output = most significant bit) and ``D`` the survival
    norm.  Non-output kept qubits are summed out.
    """
    amps, kept, survival = _project(circuit, theta, initial_state)
    axis_of = {q: i for i, q in enumerate(kept)}
    for q in circuit.outputs:
        if q not in axis_of:
            raise Error(f"output qubit {q} is postselected")
    probs = np.abs(amps) ** 2
    drop = tuple(i for i, q in enumerate(kept) if q not in set(circuit.outputs))
    if drop:
        probs = probs.sum(axis=drop)
    remaining = [q for q in kept if q in set(circuit.outputs)]
    perm = [remaining.index(q) for q in circuit.outputs]
    probs = np.transpose(probs, perm) if perm else probs
    return probs.reshape(-1), survival


@dataclass(frozen=True)
class Distribution:
    probs: np.ndarray
    survival_norm: float
    degenerate: bool


def sentence_distribution(circuit: Circuit, params, initial_state=None) -> Distribution:
    """Renormalized two-outcome distribution of the single output qubit."""
    if len(circuit.outputs) != 1:
        raise WrongOutputArity(
            f"expected exactly one output qubit, circuit has {len(circuit.outputs)}"
        )
    theta = param_vector(circuit, params)
    n, d = _marginal(circuit, theta, initial_state)
    if d < SURVIVAL_EPS:
        return Distribution(np.array([0.5, 0.5]), d, True)
    return Distribution(n / d, d, False)


@dataclass(frozen=True)
class DistributionGradient:
    probs: np.ndarray
    jacobian: np.ndarray  # shape (n_params, 2): d p_j / d theta_i
    survival_norm: float
    degenerate: bool


def shift_rule(uses: Sequence[Gate]) -> tuple[tuple[float, float], ...]:
    """``(shift, coefficient)`` pairs of one parameter's derivative rule.

    ``df/dtheta = sum_k coefficient_k * f(theta + shift_k)`` holds for the
    unnormalized marginal and for the survival norm.  ``uses`` are the
    gates that read the parameter: two-term shift for a single 1-qubit
    rotation, four-term shift for a single controlled rotation, central
    finite differences (h = 1e-6) otherwise.
    """
    if len(uses) == 1 and uses[0].kind in PARAMETRIC_1Q:
        return ((math.pi / 2, 0.5), (-math.pi / 2, -0.5))
    if len(uses) == 1 and uses[0].kind in PARAMETRIC_2Q:
        return (
            (math.pi / 2, _C_PLUS),
            (-math.pi / 2, -_C_PLUS),
            (3 * math.pi / 2, -_C_MINUS),
            (-3 * math.pi / 2, _C_MINUS),
        )
    return ((_FD_STEP, 0.5 / _FD_STEP), (-_FD_STEP, -0.5 / _FD_STEP))


def _uses_of(circuit: Circuit) -> dict[Symbol, list[Gate]]:
    uses: dict[Symbol, list[Gate]] = {s: [] for s in circuit.symbols}
    for g in circuit.gates:
        if isinstance(g.param, Symbol):
            uses[g.param].append(g)
    return uses


def distribution_gradient(circuit: Circuit, params, initial_state=None) -> DistributionGradient:
    """Jacobian of the renormalized distribution w.r.t. every parameter.

    Each parameter's derivative follows :func:`shift_rule`.  The quotient
    rule ``dp = (dN - p * dD) / D`` folds in the renormalization.
    """
    if len(circuit.outputs) != 1:
        raise WrongOutputArity(
            f"expected exactly one output qubit, circuit has {len(circuit.outputs)}"
        )
    theta = param_vector(circuit, params)
    n_params = len(circuit.symbols)
    n0, d0 = _marginal(circuit, theta, initial_state)
    if d0 < SURVIVAL_EPS:
        return DistributionGradient(
            np.array([0.5, 0.5]), np.zeros((n_params, 2)), d0, True
        )
    p = n0 / d0
    jac = np.zeros((n_params, 2))
    uses_of = _uses_of(circuit)
    for i, s in enumerate(circuit.symbols):
        dn = np.zeros_like(n0)
        dd = 0.0
        for shift, coef in shift_rule(uses_of[s]):
            shifted = theta.copy()
            shifted[i] += shift
            n, d = _marginal(circuit, shifted, initial_state)
            dn += coef * n
            dd += coef * d
        jac[i] = (dn - p * dd) / d0
    return DistributionGradient(p, jac, d0, False)


# -- batched execution ----------------------------------------------------

# Most amplitudes one chunk of batch rows holds; a row wider than this
# runs alone.
BATCH_AMPLITUDES = 2**14

_1Q_KINDS = frozenset({GateKind.H}) | PARAMETRIC_1Q
_2Q_KINDS = frozenset({GateKind.CNOT}) | PARAMETRIC_2Q


def structure_key(circuit: Circuit) -> tuple:
    """What circuits must share to run as one batch.

    The qubit count, then per gate its kind, its qubits, and its
    symbol-table slot or constant angle, then the postselected and output
    qubits.  Sentences of one grammatical pattern under one ansatz share
    a key whatever their words, unless a word repeats.
    """
    # a slot is keyed as a 1-tuple so that it never equals a constant angle
    slot = {s: (j,) for j, s in enumerate(circuit.symbols)}
    gates = tuple((g.kind, g.qubits, slot.get(g.param, g.param)) for g in circuit.gates)
    return (circuit.n_qubits, len(circuit.symbols), gates, circuit.postselect, circuit.outputs)


@dataclass(frozen=True, eq=False)
class CircuitBatch:
    """Circuits of one structure, compiled once to run as one batch.

    Row ``r`` is the group's ``r``-th circuit, and ``gather[r, j]`` is the
    position of its slot-``j`` symbol in the model's parameter vector.  A
    gradient pass runs row ``r`` at the angles
    ``theta[gather[r]] + probe_shift[k]`` for every probe ``k``, probe 0
    unshifted; ``probe_coef @ f[1:]`` is then the derivative of ``f`` for
    every slot, where ``f`` is the marginal or the survival norm.
    """

    n_qubits: int
    # (kind, state index of the target-0 slice, of the target-1 slice,
    # symbol slot or None, constant angle or None); a two-qubit gate's
    # slices fix its control to 1
    ops: tuple[tuple, ...]
    postselect: tuple  # state index keeping outcome 0 of postselected qubits
    output_axis: int  # axis of the output qubit after postselection
    gather: np.ndarray  # (rows, slots)
    probe_shift: np.ndarray  # (1 + probes, slots)
    probe_coef: np.ndarray  # (slots, probes)


def compile_batches(
    circuits: Sequence[Circuit], positions: Mapping[Symbol, int]
) -> list[tuple[np.ndarray, CircuitBatch]]:
    """Group circuits by :func:`structure_key` and compile each group once.

    Returns ``(rows, batch)`` per group, in order of first appearance:
    ``rows`` are the group's positions in ``circuits``.  ``positions``
    maps every symbol to its index in the parameter vector that the batch
    functions receive.
    """
    rows_of: dict[tuple, list[int]] = {}
    for r, circ in enumerate(circuits):
        rows_of.setdefault(structure_key(circ), []).append(r)
    return [
        (np.array(rows), _compile_group([circuits[r] for r in rows], positions))
        for rows in rows_of.values()
    ]


def _compile_group(circuits: list[Circuit], positions: Mapping[Symbol, int]) -> CircuitBatch:
    first = circuits[0]
    if len(first.outputs) != 1:
        raise WrongOutputArity(
            f"expected exactly one output qubit, circuit has {len(first.outputs)}"
        )
    n = first.n_qubits
    (output,) = first.outputs
    post = set(first.postselect)
    if output in post:
        raise Error(f"output qubit {output} is postselected")

    slot = {s: j for j, s in enumerate(first.symbols)}
    ops = []
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
            ops.append((g.kind, tuple(low), tuple(high), slot[g.param], None))
        else:
            ops.append((g.kind, tuple(low), tuple(high), None, g.param))

    rules = [shift_rule(uses) for uses in _uses_of(first).values()]
    n_slots = len(rules)
    n_probes = sum(len(r) for r in rules)
    probe_shift = np.zeros((1 + n_probes, n_slots))
    probe_coef = np.zeros((n_slots, n_probes))
    k = 0
    for j, rule in enumerate(rules):
        for shift, coef in rule:
            probe_shift[1 + k, j] = shift
            probe_coef[j, k] = coef
            k += 1

    gather = np.array(
        [[positions[s] for s in c.symbols] for c in circuits], dtype=np.intp
    ).reshape(len(circuits), n_slots)
    return CircuitBatch(
        n_qubits=n,
        ops=tuple(ops),
        postselect=(slice(None),) + tuple(0 if q in post else slice(None) for q in range(n)),
        output_axis=1 + sum(1 for q in range(output) if q not in post),
        gather=gather,
        probe_shift=probe_shift,
        probe_coef=probe_coef,
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


def _run_rows(batch: CircuitBatch, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output marginal ``N`` (rows, 2) and survival ``D`` (rows,) per row.

    ``angles`` holds one row of slot values per run.  Rows run in chunks
    of at most ``BATCH_AMPLITUDES`` amplitudes.
    """
    rows = angles.shape[0]
    n = batch.n_qubits
    marginal = np.empty((rows, 2))
    survival = np.empty(rows)
    step = max(1, BATCH_AMPLITUDES >> n)
    origin = (slice(None),) + (0,) * n
    for start in range(0, rows, step):
        block = angles[start : start + step]
        m = block.shape[0]
        state = np.zeros((m,) + (2,) * n, dtype=np.complex128)
        state[origin] = 1.0
        for op in batch.ops:
            _apply_rows(state, op, block)
        probs = np.abs(state[batch.postselect]) ** 2
        survival[start : start + m] = probs.reshape(m, -1).sum(axis=1)
        by_output = np.moveaxis(probs, batch.output_axis, 1).reshape(m, 2, -1)
        marginal[start : start + m] = by_output.sum(axis=2)
    return marginal, survival


def _normalize(marginal: np.ndarray, survival: np.ndarray):
    degenerate = survival < SURVIVAL_EPS
    probs = marginal / np.where(degenerate, 1.0, survival)[:, None]
    probs[degenerate] = 0.5
    return probs, degenerate


def batch_distribution(batch: CircuitBatch, theta: np.ndarray):
    """:func:`sentence_distribution` of every row in one pass.

    ``theta`` is the parameter vector ``batch.gather`` indexes.  Returns
    ``(probs, degenerate)`` of shapes ``(rows, 2)`` and ``(rows,)``.
    """
    return _normalize(*_run_rows(batch, theta[batch.gather]))


def batch_distribution_gradient(batch: CircuitBatch, theta: np.ndarray):
    """:func:`distribution_gradient` of every row in one pass.

    Every row's shift probes run in the same pass as the row itself.
    Returns ``(probs, jacobian, degenerate)`` of shapes ``(rows, 2)``,
    ``(rows, slots, 2)`` and ``(rows,)``; a degenerate row reads
    ``[0.5, 0.5]`` with a zero Jacobian.
    """
    rows, slots = batch.gather.shape
    probes = batch.probe_shift.shape[0]
    angles = theta[batch.gather][:, None, :] + batch.probe_shift
    marginal, survival = _run_rows(batch, angles.reshape(rows * probes, slots))
    marginal = marginal.reshape(rows, probes, 2)
    survival = survival.reshape(rows, probes)
    probs, degenerate = _normalize(marginal[:, 0], survival[:, 0])
    d_marginal = np.einsum("sp,rpk->rsk", batch.probe_coef, marginal[:, 1:])
    d_survival = np.einsum("sp,rp->rs", batch.probe_coef, survival[:, 1:])
    d0 = np.where(degenerate, 1.0, survival[:, 0])
    jacobian = (d_marginal - probs[:, None, :] * d_survival[:, :, None]) / d0[:, None, None]
    jacobian[degenerate] = 0.0
    return probs, jacobian, degenerate
