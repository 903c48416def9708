"""Loss functions, optimizers, and the fit loop on miniature corpora."""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from qnlp.corpus import CorpusSplits, LabeledSet, default_lexicon, generate_mc
from qnlp.diagram import Port, Wire, validate
from qnlp.errors import Error
from qnlp.pregroup import N, Lexicon, UnknownWord, parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite
from qnlp.simulator import (
    WrongOutputArity,
    distribution_gradient,
    sentence_distribution,
)
from qnlp import circuit, simulator, tensornet, training
from qnlp.tensornet import (
    TensorAnsatz,
    TensorAnsatzConfig,
    compile_network,
    contract,
    gradient_hole,
)
from qnlp.training import (
    SPSA,
    AdaptiveGD,
    AdaptiveGDConfig,
    BudgetExceeded,
    CircuitModel,
    EmptyEvalSet,
    History,
    NonFiniteLoss,
    SPSAConfig,
    TensorModel,
    TooFewEpochs,
    TrainConfig,
    accuracy,
    bce_grad,
    bce_loss,
    fit,
    predict,
    summarize,
)

from oracles import (
    finite_difference,
    reference_circuit_model,
    reference_circuits,
    reference_fit,
    reference_gather,
    reference_networks,
    reference_padded_groups,
    reference_tensor_model,
    split_starts,
)


def tiny_splits() -> CorpusSplits:
    def lset(name, items):
        return LabeledSet(name, tuple((tuple(w.split()), y) for w, y in items))

    return CorpusSplits(
        train=lset(
            "train",
            [
                ("man cooks meal", 1),
                ("man runs program", 0),
                ("woman bakes sauce", 1),
                ("woman debugs software", 0),
            ],
        ),
        dev=lset("dev", [("woman cooks dinner", 1), ("man executes software", 0)]),
        test=lset("test", [("man bakes meal", 1), ("woman runs application", 0)]),
    )


def rows_by_split(model, at) -> dict[str, list[int]]:
    """A batch's corpus positions as each split's rows."""
    start = split_starts(model.sizes)
    return {name: [int(p) - start[name] for p in at if 0 <= p - start[name] < size]
            for name, size in model.sizes.items()}


def circuit_model(scheme=RewriteScheme.RE_NORM_CUR_NORM) -> CircuitModel:
    ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.IQP, n_layers=1, n_single_qubit_params=2)
    return CircuitModel.build(tiny_splits(), default_lexicon(), scheme, ansatz)


def tensor_model(kind=TensorAnsatz.TENSOR) -> TensorModel:
    return TensorModel.build(
        tiny_splits(), default_lexicon(), RewriteScheme.RE, TensorAnsatzConfig(kind=kind)
    )


class TestLoss:
    def test_uniform_distribution(self):
        assert bce_loss([0.5, 0.5], 0) == pytest.approx(np.log(2))
        assert bce_loss([0.5, 0.5], 1) == pytest.approx(np.log(2))

    def test_confident_right_and_wrong(self):
        assert bce_loss([0.1, 0.9], 1) == pytest.approx(-np.log(0.9))
        assert bce_loss([0.9, 0.1], 1) == pytest.approx(-np.log(0.1))

    def test_clip_keeps_loss_finite(self):
        assert bce_loss([1.0, 0.0], 1) == pytest.approx(-np.log(1e-7))

    def test_grad_direction(self):
        g = bce_grad([0.25, 0.75], 1)
        np.testing.assert_allclose(g, [0.0, -1.0 / 0.75])

    def test_grad_zero_in_clip_region(self):
        np.testing.assert_allclose(bce_grad([1.0, 0.0], 1), [0.0, 0.0])

    def test_batched_rows_match_single_calls(self):
        # rows 1-3 sit in the clip region, below and above
        probs = np.array(
            [[0.25, 0.75], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.6, 0.4], [0.3, 0.7]]
        )
        labels = np.array([1, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(
            bce_loss(probs, labels), [bce_loss(p, y) for p, y in zip(probs, labels)]
        )
        np.testing.assert_array_equal(
            bce_grad(probs, labels), [bce_grad(p, y) for p, y in zip(probs, labels)]
        )
        np.testing.assert_array_equal(predict(probs), [predict(p) for p in probs])
        assert accuracy(probs, labels) == pytest.approx(4 / 6)
        assert isinstance(bce_loss(probs[0], 1), float)
        assert isinstance(predict(probs[0]), int)


class TestMetrics:
    def test_predict_tie_goes_to_zero(self):
        assert predict([0.5, 0.5]) == 0
        assert predict([0.4, 0.6]) == 1

    def test_rounding_tie_goes_to_zero(self):
        assert predict([0.5 - 1e-16, 0.5 + 1e-16]) == 0
        assert predict([0.5 - 1e-9, 0.5 + 1e-9]) == 1

    def test_accuracy(self):
        dists = [[0.9, 0.1]] * 29 + [[0.1, 0.9]]
        labels = [0] * 30
        assert accuracy(dists, labels) == pytest.approx(29 / 30)

    def test_accuracy_empty(self):
        with pytest.raises(EmptyEvalSet):
            accuracy([], [])

    def test_accuracy_length_mismatch(self):
        with pytest.raises(Error):
            accuracy([[0.5, 0.5]], [0, 1])


class TestSummarize:
    def test_means_over_last_window(self):
        h = History(
            train_loss=list(np.arange(12.0)),
            val_loss=list(np.arange(12.0) * 2),
            train_acc=[0.5] * 12,
            val_acc=[1.0] * 12,
        )
        s = summarize(h)
        assert s["mean_train_loss"] == pytest.approx(np.mean(np.arange(2.0, 12.0)))
        assert s["mean_val_acc"] == 1.0

    def test_too_few_epochs(self):
        with pytest.raises(TooFewEpochs):
            summarize(History(train_loss=[1.0]))


class TestSpsa:
    def test_gain_schedule_and_probe_pair(self):
        """Step k probes exactly theta +- c_k * delta with delta in {-1,+1}^n."""
        cfg = SPSAConfig(a=0.2, c=0.15)
        opt = SPSA(cfg, 4, epochs=120, rng=np.random.default_rng(0))
        assert opt.big_a == pytest.approx(1.2)
        probes: list[np.ndarray] = []

        def flat(v):
            probes.append(v.copy())
            return 0.0

        def step(theta):
            return opt.step(theta, *(flat(v) for v in opt.probes(theta)))

        theta = np.zeros(4)
        after = step(theta)
        np.testing.assert_allclose(after, theta)
        assert len(probes) == 2
        np.testing.assert_allclose(np.abs(probes[0]), 0.15)
        np.testing.assert_allclose(probes[0], -probes[1])

        step(theta)
        np.testing.assert_allclose(np.abs(probes[2]), 0.15 / 2**0.101)

    def test_descends_a_quadratic(self):
        """Most seeds shrink the distance to the optimum within 30 steps."""
        target = np.array([1.0, -2.0, 0.5])
        wins = 0
        for seed in range(5):
            opt = SPSA(SPSAConfig(a=0.5, c=0.1), 3, 30, np.random.default_rng(seed))
            theta = np.zeros(3)
            start = float(np.sum((theta - target) ** 2))
            for _ in range(30):
                plus, minus = opt.probes(theta)
                theta = opt.step(theta, *(float(np.sum((v - target) ** 2)) for v in (plus, minus)))
            wins += int(np.sum((theta - target) ** 2) < start)
        assert wins >= 4

    def test_explicit_big_a_honored(self):
        opt = SPSA(SPSAConfig(big_a=12.0), 2, 120, np.random.default_rng(0))
        assert opt.big_a == 12.0


class TestAdaptiveGd:
    def test_converges_on_convex_quadratic(self):
        target = np.array([0.3, -1.2, 2.0, 0.0])
        opt = AdaptiveGD(AdaptiveGDConfig(), 4)
        theta = np.zeros(4)
        for _ in range(500):
            theta = opt.step(theta, 2.0 * (theta - target))
        np.testing.assert_allclose(theta, target, atol=1e-4)


class SplitModel:
    """A stand-in model that serves ``fit``'s requests one split at a time
    from its ``eval_split`` and, for the differentiated split, ``grad_split``."""

    n_params = 2

    def init_params(self, rng):
        return np.zeros(2)

    def evaluate(self, points, labels=None):
        grad, readouts = None, []
        for k, (names, theta) in enumerate(points):
            readouts.append([])
            for j, name in enumerate(names):
                if labels is not None and k == j == 0:
                    grad, *readout = self.grad_split(name, theta, labels)
                else:
                    readout = self.eval_split(name, theta)
                readouts[-1].append(tuple(readout))
        return grad, readouts


class TestCircuitFit:
    def test_history_shape(self):
        h = fit(circuit_model(), tiny_splits(), TrainConfig(epochs=3, seed=0))
        assert len(h) == 3
        assert len(h.val_loss) == len(h.train_acc) == len(h.val_acc) == 3
        assert 0.0 <= h.test_acc <= 1.0
        assert h.final_params is not None

    def test_single_epoch(self):
        h = fit(circuit_model(), tiny_splits(), TrainConfig(epochs=1, seed=0))
        assert len(h) == 1

    def test_deterministic_given_seed(self):
        model = circuit_model()
        cfg = TrainConfig(epochs=4, seed=7)
        h1 = fit(model, tiny_splits(), cfg)
        h2 = fit(model, tiny_splits(), cfg)
        np.testing.assert_allclose(h1.val_loss, h2.val_loss)
        assert h1.val_loss != fit(model, tiny_splits(), TrainConfig(epochs=4, seed=8)).val_loss

    def test_shared_words_share_parameters(self):
        model = circuit_model()
        assert len(set(model.symbols)) == model.n_params

    def test_empty_split_rejected(self):
        splits = tiny_splits()
        broken = CorpusSplits(
            train=splits.train, dev=LabeledSet("dev", ()), test=splits.test
        )
        with pytest.raises(EmptyEvalSet):
            fit(circuit_model(), broken, TrainConfig(epochs=1))

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            fit(
                circuit_model(),
                tiny_splits(),
                TrainConfig(epochs=1),
                budget_seconds=0.0,
            )

    def test_non_finite_loss_detected(self):
        class BrokenModel(SplitModel):
            def eval_split(self, name, theta):
                return np.full((2, 2), np.nan), 0

        with pytest.raises(NonFiniteLoss):
            fit(BrokenModel(), tiny_splits(), TrainConfig(epochs=1))

    def test_non_finite_test_split_detected(self):
        class NanTestSplitModel(SplitModel):
            # finite on train and dev, NaN only when the test split is scored
            def eval_split(self, name, theta):
                rows = len(getattr(tiny_splits(), name))
                return np.full((rows, 2), np.nan if name == "test" else 0.5), 0

            def grad_split(self, name, theta, labels):
                return np.zeros(2), *self.eval_split(name, theta)

        for optimizer in (SPSAConfig(), AdaptiveGDConfig()):
            with pytest.raises(NonFiniteLoss, match="test"):
                fit(NanTestSplitModel(), tiny_splits(), TrainConfig(epochs=1, optimizer=optimizer))

    def test_row_count_mismatch_names_the_split(self):
        class OneRowModel(SplitModel):
            def eval_split(self, name, theta):
                return np.full((1, 2), 0.5), 0

        with pytest.raises(Error, match="train split"):
            fit(OneRowModel(), tiny_splits(), TrainConfig(epochs=1))

    def test_spsa_probe_row_count_checked(self):
        class ProbeBreaksModel(SplitModel):
            # four rows at the initial parameters, one row at any probe
            def eval_split(self, name, theta):
                rows = 4 if not theta.any() else 1
                return np.full((rows, 2), 0.5), 0

        with pytest.raises(Error, match="train split"):
            fit(ProbeBreaksModel(), tiny_splits(), TrainConfig(epochs=1))

    @pytest.mark.parametrize("train_probs, error, match", [
        (np.full((4, 2), np.nan), NonFiniteLoss, "train"),
        (np.full((1, 2), 0.5), Error, "train split"),
    ], ids=["nan", "row_count"])
    def test_gd_train_readout_is_checked(self, train_probs, error, match):
        class GradReadoutModel(SplitModel):
            # dev and test read out fine; only the gradient pass is broken
            def eval_split(self, name, theta):
                return np.full((len(getattr(tiny_splits(), name)), 2), 0.5), 0

            def grad_split(self, name, theta, labels):
                return np.zeros(2), train_probs, 0

        with pytest.raises(error, match=match):
            fit(GradReadoutModel(), tiny_splits(),
                TrainConfig(epochs=1, optimizer=AdaptiveGDConfig()))

    def test_gd_epoch_reads_train_from_the_gradient_pass(self):
        class CountingModel(SplitModel):
            def __init__(self):
                self.evaluated = []

            def eval_split(self, name, theta):
                self.evaluated.append(name)
                return np.full((len(getattr(tiny_splits(), name)), 2), 0.5), 0

            def grad_split(self, name, theta, labels):
                # one degenerate row, and a readout eval_split would not give
                return np.ones(2), np.array([[0.2, 0.8]] * 4), 1

        model = CountingModel()
        h = fit(model, tiny_splits(), TrainConfig(epochs=3, optimizer=AdaptiveGDConfig()))
        # dev beside train in each epoch's call (the first epoch's, at the
        # initial parameters, unrecorded), then dev and test in the closing call
        assert model.evaluated == ["dev", "dev", "dev", "dev", "test"]
        labels = tiny_splits().train.labels()
        want = bce_loss(np.array([[0.2, 0.8]] * 4), labels).mean()
        assert h.train_loss == [want] * 3
        assert h.train_acc == [0.5] * 3
        assert h.degenerate_evals == 3  # the train readout counted once per epoch

    def test_zero_parameter_model_propagates(self):
        ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.IQP, n_layers=0, n_single_qubit_params=0)
        with pytest.raises(ZeroParameterModel):
            CircuitModel.build(
                tiny_splits(), default_lexicon(), RewriteScheme.RE_NORM_CUR_NORM, ansatz
            )


def pattern_splits(extra_train=()) -> CorpusSplits:
    """All four MC sentence patterns; train holds two of the widest."""

    def lset(name, items):
        return LabeledSet(name, tuple((tuple(w.split()), y) for w, y in items))

    return CorpusSplits(
        train=lset(
            "train",
            [
                ("man cooks meal", 1),
                ("woman debugs software", 0),
                ("skillful man prepares sauce", 1),
                ("skillful woman runs program", 0),
                ("woman bakes tasty dinner", 1),
                ("man executes useful application", 0),
                ("skillful woman cooks tasty meal", 1),
                ("skillful man debugs useful software", 0),
                *extra_train,
            ],
        ),
        dev=lset("dev", [("woman prepares dinner", 1), ("skillful man runs useful program", 0)]),
        test=lset("test", [("man bakes tasty sauce", 1), ("skillful woman executes software", 0)]),
    )


def reference_split(model: CircuitModel, circuits, theta, labels):
    """Per-sentence probabilities, mean-loss gradient and degenerate count
    of a split's circuits."""
    pos = {s: i for i, s in enumerate(model.symbols)}
    probs, grad, degenerate = [], np.zeros(model.n_params), 0
    for circ, y in zip(circuits, labels):
        idx = np.array([pos[s] for s in circ.symbols], dtype=int)
        dist = sentence_distribution(circ, theta[idx])
        res = distribution_gradient(circ, theta[idx])
        probs.append(dist.probs)
        degenerate += int(dist.degenerate)
        np.add.at(grad, idx, res.jacobian @ bce_grad(res.probs, y) / len(circuits))
    return np.array(probs), grad, degenerate


ANSATZE = tuple(CircuitAnsatz)
SCHEMES = (RewriteScheme.RE, RewriteScheme.RE_NORM_CUR_NORM)


class TestCircuitBatching:
    """Batched groups against the per-sentence simulator."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", ANSATZE, ids=lambda k: k.value)
    def test_matches_per_sentence_reference(self, kind, scheme, rng):
        splits = pattern_splits()
        ansatz = CircuitAnsatzConfig(kind=kind, n_layers=1)
        model = CircuitModel.build(splits, default_lexicon(), scheme, ansatz)
        circuits = reference_circuits(splits, default_lexicon(), scheme, ansatz)
        theta = model.init_params(rng)
        for lset in splits:
            probs, degenerate = model.eval_split(lset.name, theta)
            want, want_grad, want_degenerate = reference_split(
                model, circuits[lset.name], theta, lset.labels()
            )
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
            assert degenerate == want_degenerate
            if lset.name == "train":
                grad, grad_probs, _ = model.grad_split("train", theta, lset.labels())
                np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)
                total = bce_loss(grad_probs, lset.labels()).mean()
                losses = [bce_loss(p, y) for p, y in zip(want, lset.labels())]
                assert total == pytest.approx(np.mean(losses), abs=1e-12)

    def test_uniform_cell_scores_alike_on_both_paths(self, rng):
        # iqp/L1/r1 reads every sentence as uniform in exact arithmetic, so
        # |p1 - p0| is rounding noise that differs between the two paths
        splits = generate_mc(5)
        ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.IQP, n_layers=1, n_single_qubit_params=1)
        model = CircuitModel.build(
            splits, default_lexicon(), RewriteScheme.RE_NORM_CUR_NORM, ansatz
        )
        circuits = reference_circuits(splits, default_lexicon(), RewriteScheme.RE_NORM_CUR_NORM,
                                      ansatz)
        theta = model.init_params(rng)
        for lset in splits:
            probs, _ = model.eval_split(lset.name, theta)
            want, _, _ = reference_split(model, circuits[lset.name], theta, lset.labels())
            assert np.abs(probs[:, 1] - probs[:, 0]).max() < 1e-15
            assert accuracy(probs, lset.labels()) == accuracy(want, lset.labels())

    def test_groups_follow_sentence_patterns(self):
        ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.IQP, n_layers=1)
        model = CircuitModel.build(
            pattern_splits(), default_lexicon(), RewriteScheme.RE, ansatz
        )
        rows = [rows_by_split(model, at) for _, at in model._groups]
        assert [len(r["train"]) for r in rows] == [2, 2, 2, 2]
        assert [len(r["dev"]) for r in rows] == [1, 0, 0, 1]
        assert [len(r["test"]) for r in rows] == [0, 1, 1, 0]

    def test_group_wider_than_one_chunk(self, rng, monkeypatch):
        # a chunk of one 9-qubit row, so the gradient's forward pass and
        # reverse sweep run twice per group and join through the chunk slices
        monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 2**9)
        ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.IQP, n_layers=1)
        splits = pattern_splits()
        model = CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE, ansatz)
        batch, at = max(model._groups, key=lambda g: g[0].n_qubits)
        assert batch.n_qubits == 9 and len(rows_by_split(model, at)["train"]) == 2
        assert 2**batch.n_qubits == simulator.BATCH_AMPLITUDES
        theta = model.init_params(rng)
        labels = splits.train.labels()
        grad, probs, _ = model.grad_split("train", theta, labels)
        circuits = reference_circuits(splits, default_lexicon(), RewriteScheme.RE, ansatz)
        want_probs, want, _ = reference_split(model, circuits["train"], theta, labels)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)

    def test_repeated_word_fills_a_slot_per_use(self, rng):
        # "man" twice reads each of its symbols at two gates; every gate is
        # a batch slot of its own, so the sentence joins the "man cooks
        # meal" group and its adjoint terms sum over both uses
        splits = pattern_splits(extra_train=[("man cooks man", 1)])
        ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.SIM14, n_layers=1)
        model = CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE, ansatz)
        groups = model._groups
        assert [len(rows_by_split(model, at)["train"]) for _, at in groups] == [3, 2, 2, 2]
        last = len(splits.train) - 1  # train rows lead the corpus
        ((batch, at),) = [(b, at) for b, at in groups if last in at]
        slots = batch.gather[list(at).index(last)].tolist()
        man = [i for i, s in enumerate(model.symbols) if s.word == "man"]  # symbol i, slot i
        assert man and [slots.count(i) for i in man] == [2] * len(man)
        theta = model.init_params(rng)
        labels = splits.train.labels()
        probs, _ = model.eval_split("train", theta)
        grad, _, _ = model.grad_split("train", theta, labels)
        circuits = reference_circuits(splits, default_lexicon(), RewriteScheme.RE, ansatz)
        want_probs, want, _ = reference_split(model, circuits["train"], theta, labels)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)

    def test_degenerate_row(self):
        # RX(pi) on the postselected qubit annihilates the state; the
        # pullback gives such a row zero upstream, so it adds no gradient.
        w, u, v = (Symbol(x, "->s", 0) for x in "wuv")
        dead = Circuit(
            2,
            (Gate(GateKind.RX, (0,), w), Gate(GateKind.RX, (1,), u)),
            postselect=(1,),
            outputs=(0,),
            symbols=(w, u),
        )
        alive = Circuit(1, (Gate(GateKind.RY, (0,), v),), (), (0,), (v,))
        model = reference_circuit_model({"train": [dead, alive, dead]})
        theta = np.array([0.4, np.pi, 1.1])
        labels = [1, 0, 0]
        probs, degenerate = model.eval_split("train", theta)
        assert degenerate == 2
        np.testing.assert_allclose(probs[[0, 2]], 0.5)
        grad, grad_probs, degenerate = model.grad_split("train", theta, labels)
        total = bce_loss(grad_probs, labels).mean()
        assert degenerate == 2
        assert grad[0] == grad[1] == 0.0
        want_probs, want, _ = reference_split(model, [dead, alive, dead], theta, labels)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)
        losses = [bce_loss(p, y) for p, y in zip(want_probs, labels)]
        assert total == pytest.approx(np.mean(losses), abs=1e-12)

    def test_nearly_dead_row_adds_no_gradient(self, rng):
        # RX(pi - 1e-7) leaves a survival norm of about 2.5e-15: degenerate,
        # though the marginal's derivative there is not zero
        w, u = Symbol("w", "->s", 0), Symbol("u", "->s", 0)
        dying = Circuit(
            2,
            (Gate(GateKind.RX, (0,), w), Gate(GateKind.RX, (1,), u)),
            postselect=(1,),
            outputs=(0,),
            symbols=(w, u),
        )
        model = reference_circuit_model({"train": [dying]})
        theta = np.array([0.4, np.pi - 1e-7])
        grad, grad_probs, degenerate = model.grad_split("train", theta, [1])
        total = bce_loss(grad_probs, [1]).mean()
        assert degenerate == 1
        np.testing.assert_array_equal(grad, 0.0)
        assert total == pytest.approx(np.log(2), abs=1e-12)


def tensor_reference_split(model: TensorModel, nets, theta, labels):
    """Per-network probabilities and summed hole gradient of the mean loss
    of one split's networks; assumes no degenerate row."""
    store = model.store(theta)
    probs, named = [], {s.name: np.zeros(shape) for s, shape in zip(model.symbols, model.shapes)}
    for net, y in zip(nets, labels):
        v = np.asarray(contract(net, store), dtype=float).reshape(-1)
        p = v**2 / (v @ v)
        g = bce_grad(p, y)
        g_v = 2.0 * v * (g - g @ p) / ((v @ v) * len(nets))
        for sym, g_t in gradient_hole(net, store, g_v.reshape(net.output_dims())).items():
            named[sym.name] += g_t
        probs.append(p)
    return np.array(probs), model.named_to_params(named)


KINDS = tuple(TensorAnsatz)


def numpy_with(**overrides) -> types.ModuleType:
    """A copy of the ``numpy`` namespace with some attributes replaced."""
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__, **overrides)
    return proxy


class TestTensorBatching:
    """Batched groups against per-network contract and gradient_hole."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_matches_per_network_reference(self, kind, scheme, rng):
        splits = pattern_splits()
        model = TensorModel.build(splits, default_lexicon(), scheme, TensorAnsatzConfig(kind))
        nets = reference_networks(splits, default_lexicon(), scheme, TensorAnsatzConfig(kind))
        theta = model.init_params(rng)
        for lset in splits:
            probs, degenerate = model.eval_split(lset.name, theta)
            want, want_grad = tensor_reference_split(model, nets[lset.name], theta, lset.labels())
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
            assert degenerate == 0
            grad, grad_probs, _ = model.grad_split(lset.name, theta, lset.labels())
            total = bce_loss(grad_probs, lset.labels()).mean()
            assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
            losses = [bce_loss(p, y) for p, y in zip(want, lset.labels())]
            assert total == pytest.approx(np.mean(losses), abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_repeated_word_accumulates_both_holes(self, kind, rng):
        splits = pattern_splits(extra_train=[("man cooks man", 1)])
        model = TensorModel.build(splits, default_lexicon(), RewriteScheme.RE,
                                  TensorAnsatzConfig(kind))
        # the sentence batches with "man cooks meal", its subject and
        # object positions gathering one tensor
        ((batch, at),) = [(b, at) for b, at in model._groups if 8 in at]
        r = list(at).index(8)
        assert sum(np.array_equal(g[r], batch.gather[0][r]) for g in batch.gather) == 2
        theta = model.init_params(rng)
        labels = splits.train.labels()
        grad, _, _ = model.grad_split("train", theta, labels)
        nets = reference_networks(splits, default_lexicon(), RewriteScheme.RE,
                                  TensorAnsatzConfig(kind))
        _, want = tensor_reference_split(model, nets["train"], theta, labels)
        assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_four_groups_per_split(self, kind):
        model = TensorModel.build(generate_mc(0), default_lexicon(), RewriteScheme.RE,
                                  TensorAnsatzConfig(kind))
        assert len(model._groups) == 4  # compiled at build
        for name in ("train", "dev", "test"):
            assert all(len(rows_by_split(model, at)[name]) for _, at in model._groups)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_one_path_search_per_group(self, kind, monkeypatch, rng):
        splits = generate_mc(0)
        searches = []

        def counting_search(*args, **kwargs):
            searches.append(args[0])
            return np.einsum_path(*args, **kwargs)

        monkeypatch.setattr(tensornet, "np", numpy_with(einsum_path=counting_search))
        model = TensorModel.build(splits, default_lexicon(), RewriteScheme.RE,
                                  TensorAnsatzConfig(kind))
        assert len(model._groups) == len(searches) == 4  # one per group, during build

        def no_search(*args, **kwargs):
            raise AssertionError("contraction path searched after compile")

        def plain_einsum(*operands, optimize=False):
            # np.einsum given a path still rebuilds its contraction list
            assert optimize is False
            return np.einsum(*operands, optimize=False)

        monkeypatch.setattr(tensornet, "np",
                            numpy_with(einsum_path=no_search, einsum=plain_einsum))
        theta = model.init_params(rng)
        probs, _ = model.eval_split("train", theta)
        grad, grad_probs, _ = model.grad_split("train", theta, splits.train.labels())
        np.testing.assert_array_equal(grad_probs, probs)
        assert np.abs(grad).max() > 0

    def test_wrong_output_arity_fails_at_build(self):
        cfg = TensorAnsatzConfig(TensorAnsatz.TENSOR, d_s=3)
        with pytest.raises(WrongOutputArity, match="got 3"):
            TensorModel.build(tiny_splits(), default_lexicon(), RewriteScheme.RE, cfg)


class TestBatchLifecycle:
    """Both families group the corpus by structure at build, once."""

    @pytest.mark.parametrize("make", (circuit_model, tensor_model), ids=("circuit", "tensor"))
    def test_groups_compiled_at_build_only(self, make, rng, monkeypatch):
        model = make()
        batches = [batch for batch, _ in model._groups]
        at = np.concatenate([at for _, at in model._groups])
        assert sorted(at) == list(range(sum(model.sizes.values())))  # every split's rows
        assert all((np.diff(at) > 0).all() for _, at in model._groups)  # ascending

        def no_compile(*args):
            raise AssertionError("a batch compiled after build")

        monkeypatch.setattr(model._engine, "compile_batch", no_compile)
        for name in model.sizes:
            model.eval_split(name, model.init_params(rng))
        assert all(a is b for a, b in zip([batch for batch, _ in model._groups], batches))

    def test_rows_grouped_in_order_of_first_appearance(self):
        theta, other = Symbol("w", "->s", 0), Symbol("x", "->s", 0)

        def one_gate(kind, sym):
            return Circuit(1, (Gate(kind, (0,), sym),), (), (0,), (sym,))

        a, b = one_gate(GateKind.RX, theta), one_gate(GateKind.RX, other)
        c, d = one_gate(GateKind.RY, other), one_gate(GateKind.RZ, theta)
        # over all splits, in order of first use with train first; a
        # group's train rows lead its batch
        model = reference_circuit_model({"train": [a, c, b], "dev": [d, b]})
        rows = [rows_by_split(model, at) for _, at in model._groups]
        assert [r["train"] for r in rows] == [[0, 2], [1], []]
        assert [r["dev"] for r in rows] == [[1], [], [0]]
        assert model._groups[0][0].gather.tolist() == [[0], [1], [1]]


class TestTensorFit:
    def test_reaches_perfect_train_accuracy(self):
        cfg = TrainConfig(epochs=40, seed=0, optimizer=AdaptiveGDConfig())
        h = fit(tensor_model(), tiny_splits(), cfg)
        assert max(h.train_acc) == 1.0

    def test_grad_split_matches_finite_differences(self, rng):
        model = tensor_model()
        labels = tiny_splits().train.labels()
        theta = model.init_params(rng)
        grad, grad_probs, _ = model.grad_split("train", theta, labels)
        total = bce_loss(grad_probs, labels).mean()

        def loss(vec):
            probs, _ = model.eval_split("train", vec)
            return float(np.mean([bce_loss(p, y) for p, y in zip(probs, labels)]))

        assert total == pytest.approx(loss(theta))
        np.testing.assert_allclose(grad, finite_difference(loss, theta), atol=1e-5)

    def test_zero_parameters_read_out_uniform(self):
        model = tensor_model()
        probs, degenerate = model.eval_split("train", np.zeros(model.n_params))
        np.testing.assert_allclose(probs, 0.5)
        assert degenerate == 4

    def test_named_round_trip(self, rng):
        model = tensor_model()
        theta = model.init_params(rng)
        named = model.params_to_named(theta)
        np.testing.assert_allclose(model.named_to_params(named), theta)

    def test_spsa_also_trains_tensors(self):
        """Either optimizer can drive either model family."""
        cfg = TrainConfig(epochs=2, seed=0, optimizer=SPSAConfig())
        h = fit(tensor_model(), tiny_splits(), cfg)
        assert len(h) == 2


def assert_same_tensor_model(model: TensorModel, nets_by_split) -> None:
    """The model's symbols, shapes and compiled batches equal those of the
    per-sentence grouping of ``nets_by_split``, gathers bit for bit."""
    ref = reference_tensor_model(nets_by_split)
    assert (model.symbols, model.shapes, model.sizes) == (ref.symbols, ref.shapes, ref.sizes)
    assert len(model._groups) == len(ref._groups)
    for (batch, at), (want, want_at) in zip(model._groups, ref._groups):
        assert at.tolist() == want_at.tolist()
        assert (batch.shapes, batch.out_shape, batch.factor) == (
            want.shapes, want.out_shape, want.factor)
        assert [s.subscripts for s in batch.steps] == [s.subscripts for s in want.steps]
        assert [(g.dtype, g.shape) for g in batch.gather] == [(g.dtype, g.shape) for g in want.gather]
        assert [g.tobytes() for g in batch.gather] == [g.tobytes() for g in want.gather]


class TestTensorBuild:
    """One network per shape group of the corpus plan, against every
    sentence compiled alone and grouped by structure."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_matches_per_sentence_grouping(self, kind, scheme, mc_lexicon):
        cfg = TensorAnsatzConfig(kind)
        for seed in range(4):
            splits = generate_mc(seed)
            model = TensorModel.build(splits, mc_lexicon, scheme, cfg)
            assert_same_tensor_model(model, reference_networks(splits, mc_lexicon, scheme, cfg))

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_two_shapes_of_one_structure_share_a_batch(self, kind, rng):
        # with d_n = d_s = 2 the s-typed pattern lowers to the network of
        # its n-typed twin: two diagram shapes, one structure
        lexicon = Lexicon.from_expressions({"Alice": "n", "Bob": "n", "likes": "n.r@s@n.l",
                                            "rain": "s", "sun": "s", "brings": "s.r@s@s.l"})

        def lset(name, items):
            return LabeledSet(name, tuple((tuple(w.split()), y) for w, y in items))

        splits = CorpusSplits(lset("train", [("Alice likes Bob", 1), ("rain brings sun", 0),
                                             ("sun brings rain", 1)]),
                              lset("dev", [("Bob likes Alice", 0)]),
                              lset("test", [("sun brings sun", 1)]))
        cfg = TensorAnsatzConfig(kind)
        model = TensorModel.build(splits, lexicon, RewriteScheme.RE, cfg)
        (_, shaped, _), _ = training._corpus_plan(splits, lexicon, RewriteScheme.RE,
                                                  training._place_network)
        assert [at.tolist() for _, at, _ in shaped] == [[0, 3], [1, 2, 4]]
        ((_, at),) = model._groups
        assert at.tolist() == [0, 1, 2, 3, 4]
        nets = reference_networks(splits, lexicon, RewriteScheme.RE, cfg)
        assert_same_tensor_model(model, nets)
        theta = model.init_params(rng)
        labels = splits.train.labels()
        grad, probs, _ = model.grad_split("train", theta, labels)
        want_probs, want = tensor_reference_split(model, nets["train"], theta, labels)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()


class TestModelSurface:
    """The parameter table and readout both model families share."""

    @pytest.mark.parametrize("kind", tuple(TensorAnsatz), ids=lambda k: k.value)
    def test_tensor_eval_matches_per_network_contract(self, kind, rng):
        splits = pattern_splits()
        cfg = TensorAnsatzConfig(kind=kind)
        model = TensorModel.build(splits, default_lexicon(), RewriteScheme.RE, cfg)
        nets = reference_networks(splits, default_lexicon(), RewriteScheme.RE, cfg)
        theta = model.init_params(rng)
        store = model.store(theta)
        for lset in splits:
            probs, degenerate = model.eval_split(lset.name, theta)
            want = []
            for net in nets[lset.name]:
                v = np.asarray(contract(net, store), dtype=float).reshape(-1)
                want.append(v**2 / (v @ v))
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
            assert degenerate == 0

    def test_tensor_degenerate_row_adds_no_gradient(self, rng):
        model = tensor_model()
        nets = reference_networks(tiny_splits(), default_lexicon(), RewriteScheme.RE,
                                  TensorAnsatzConfig(TensorAnsatz.TENSOR))["train"]
        labels = tiny_splits().train.labels()
        # "man cooks meal" is the only train sentence with "cooks" and "meal"
        rest = reference_tensor_model({"train": nets[1:]})
        named = model.params_to_named(model.init_params(rng))
        for name in named:
            if name.startswith("cooks|"):  # squared norm of about 1e-18
                named[name] = (1e-9 * np.asarray(named[name])).tolist()
        theta = model.named_to_params(named)
        probs, degenerate = model.eval_split("train", theta)
        assert degenerate == 1
        np.testing.assert_allclose(probs[0], 0.5)
        grad, grad_probs, degenerate = model.grad_split("train", theta, labels)
        total = bce_loss(grad_probs, labels).mean()
        assert degenerate == 1
        want, rest_probs, _ = rest.grad_split("train", rest.named_to_params(named), labels[1:])
        want_total = bce_loss(rest_probs, labels[1:]).mean()
        got = model.params_to_named(grad)
        for name, g in rest.params_to_named(want).items():
            np.testing.assert_allclose(got.pop(name), np.multiply(g, 3 / 4), rtol=0, atol=1e-12)
        # left: "cooks", "meal" and the words only dev and test use
        assert {"cooks", "meal"} <= {name.split("|")[0] for name in got}
        assert all(not np.any(g) for g in got.values())
        assert total == pytest.approx((3 * want_total + np.log(2)) / 4, abs=1e-12)

    def test_circuit_named_round_trip_gives_floats(self, rng):
        model = circuit_model()
        theta = model.init_params(rng)
        named = model.params_to_named(theta)
        assert list(named) == [s.name for s in model.symbols]
        assert all(type(v) is float for v in named.values())
        np.testing.assert_array_equal(model.named_to_params(named), theta)


def assert_same_history(h: History, ref: History) -> None:
    """Bit for bit: losses, accuracies, degenerate count, test accuracy, final θ."""
    for field in ("train_loss", "val_loss", "train_acc", "val_acc", "test_acc", "final_params"):
        got, want = np.asarray(getattr(h, field)), np.asarray(getattr(ref, field))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), field
    assert h.degenerate_evals == ref.degenerate_evals


OPTIMIZERS = (SPSAConfig(), AdaptiveGDConfig())


class TestFitMatchesReference:
    """``fit`` stacks splits and SPSA probes into one call per group; the
    reference loop reads one split per call.  Their histories agree bit for
    bit."""

    @pytest.mark.parametrize("optimizer", OPTIMIZERS, ids=("spsa", "gd"))
    @pytest.mark.parametrize("backend, kind, scheme", [
        ("circuit", "sim15", "re_norm_cur_norm"),
        ("circuit", "iqp", "re"),
        ("tensor", "tensor", "re_norm_cur_norm"),
        ("tensor", "mps", "re"),
        ("tensor", "spider", "re"),
    ])
    def test_families_and_optimizers(self, backend, kind, scheme, optimizer):
        splits = generate_mc(1)
        if backend == "circuit":
            build = lambda: CircuitModel.build(splits, default_lexicon(), RewriteScheme(scheme),
                                               CircuitAnsatzConfig(CircuitAnsatz(kind), 1))
        else:
            build = lambda: TensorModel.build(splits, default_lexicon(), RewriteScheme(scheme),
                                              TensorAnsatzConfig(TensorAnsatz(kind)))
        cfg = TrainConfig(epochs=6, seed=2, optimizer=optimizer)
        assert_same_history(fit(build(), splits, cfg), reference_fit(build(), splits, cfg))

    @pytest.mark.parametrize("optimizer", OPTIMIZERS, ids=("spsa", "gd"))
    def test_groups_spanning_several_chunks(self, optimizer, monkeypatch):
        # 8 rows per 9-qubit chunk: the 9-qubit group's 25 train rows end in
        # a chunk that also holds dev rows
        monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 2**12)
        splits = generate_mc(2)
        ansatz = CircuitAnsatzConfig(CircuitAnsatz.IQP, 1)
        model = CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE, ansatz)
        wide = [rows_by_split(model, at) for batch, at in model._groups if batch.n_qubits == 9]
        assert [(len(r["train"]), len(r["dev"])) for r in wide] == [(25, 4)]
        cfg = TrainConfig(epochs=3, seed=1, optimizer=optimizer)
        ref = CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE, ansatz)
        assert_same_history(fit(model, splits, cfg), reference_fit(ref, splits, cfg))

    @pytest.mark.parametrize("optimizer", OPTIMIZERS, ids=("spsa", "gd"))
    @pytest.mark.parametrize("family", ("circuit", "tensor"))
    def test_repeated_word(self, family, optimizer):
        splits = pattern_splits(extra_train=[("man cooks man", 1)])

        def build():
            if family == "circuit":
                return CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE,
                                          CircuitAnsatzConfig(CircuitAnsatz.SIM14, 1))
            return TensorModel.build(splits, default_lexicon(), RewriteScheme.RE,
                                     TensorAnsatzConfig(TensorAnsatz.MPS))

        cfg = TrainConfig(epochs=5, seed=0, optimizer=optimizer)
        assert_same_history(fit(build(), splits, cfg), reference_fit(build(), splits, cfg))

    @pytest.mark.parametrize("optimizer", OPTIMIZERS, ids=("spsa", "gd"))
    def test_degenerate_readout(self, optimizer):
        # RX(pi) on the postselected qubit annihilates every row of one
        # structure at any parameters; the other structure stays alive
        def dead(word):
            w = Symbol(word, "->s", 0)
            gates = (Gate(GateKind.RX, (0,), w), Gate(GateKind.RX, (1,), np.pi))
            return Circuit(2, gates, postselect=(1,), outputs=(0,), symbols=(w,))

        def alive(word):
            v = Symbol(word, "->s", 0)
            return Circuit(1, (Gate(GateKind.RY, (0,), v),), (), (0,), (v,))

        def build():
            return reference_circuit_model({"train": [dead("a"), alive("b"), alive("c"), dead("d")],
                                            "dev": [alive("b"), dead("a")],
                                            "test": [dead("e"), alive("c")]})

        cfg = TrainConfig(epochs=4, seed=0, optimizer=optimizer)
        h = fit(build(), tiny_splits(), cfg)
        assert h.degenerate_evals > 0
        assert_same_history(h, reference_fit(build(), tiny_splits(), cfg))

    def test_paper_cell_at_full_length(self):
        # sim14/L2/r2, 120 SPSA epochs, as in the default sweep
        splits = generate_mc(0)
        ansatz = CircuitAnsatzConfig(CircuitAnsatz.SIM14, 2, 2)

        def build():
            return CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE_NORM_CUR_NORM,
                                      ansatz)

        cfg = TrainConfig(epochs=120, seed=0, optimizer=SPSAConfig())
        assert_same_history(fit(build(), splits, cfg), reference_fit(build(), splits, cfg))


def assert_same_groups(model: CircuitModel, circuits_by_split) -> None:
    """The model's symbols and compiled groups equal those of the
    per-sentence padded grouping of ``circuits_by_split``, bit for bit."""
    symbols, groups = reference_padded_groups(circuits_by_split)
    assert model.symbols == symbols and model.n_params == len(symbols)
    assert model.sizes == {name: len(cs) for name, cs in circuits_by_split.items()}
    assert len(model._groups) == len(groups)
    for (batch, at), (first, gather, rows) in zip(model._groups, groups):
        want = simulator.compile_batch(first, gather)
        assert (batch.n_qubits, batch.ops) == (want.n_qubits, want.ops)
        assert batch.postselect == want.postselect
        assert batch.output_axis == want.output_axis
        assert batch.gather.dtype == want.gather.dtype
        assert batch.gather.tobytes() == want.gather.tobytes()
        assert batch.gather.shape == want.gather.shape
        assert rows_by_split(model, at) == {name: r.tolist() for name, r in rows.items()}


class TestFrontEndMemo:
    """The parsed and rewritten diagrams of the most recent corpus, and
    its circuit plan."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(training, "_front_end", None)

    @staticmethod
    def fresh(splits, lexicon, scheme):
        return {lset.name: [rewrite(parse_sentence(list(ws), lexicon), scheme)
                            for ws in lset.sentences()] for lset in splits}

    def test_lexicon_types_are_part_of_the_key(self, toy_lexicon):
        splits = CorpusSplits(*(LabeledSet(name, ((("Alice", "likes", "Bob"), 1),))
                                for name in ("train", "dev", "test")))
        # the same words under other types: s.n^l . n.n^l . n reduces to s
        other = Lexicon.from_expressions({"Alice": "s@n.l", "likes": "n@n.l", "Bob": "n"})
        first = training._diagrams(splits, toy_lexicon, RewriteScheme.RE)
        second = training._diagrams(splits, other, RewriteScheme.RE)
        assert first == self.fresh(splits, toy_lexicon, RewriteScheme.RE)
        assert second == self.fresh(splits, other, RewriteScheme.RE)
        assert first != second

    def test_scheme_is_part_of_the_key(self, mc_lexicon):
        splits = pattern_splits()
        plain = training._diagrams(splits, mc_lexicon, RewriteScheme.RE)
        normal = training._diagrams(splits, mc_lexicon, RewriteScheme.RE_NORM_CUR_NORM)
        assert plain == self.fresh(splits, mc_lexicon, RewriteScheme.RE)
        assert normal == self.fresh(splits, mc_lexicon, RewriteScheme.RE_NORM_CUR_NORM)
        assert plain != normal

    def test_one_corpus_held(self, mc_lexicon, monkeypatch):
        parsed = []
        monkeypatch.setattr(training, "parse_sentence",
                            lambda words, lex: parsed.append(words) or parse_sentence(words, lex))
        a, b = pattern_splits(), tiny_splits()
        first = training._diagrams(a, mc_lexicon, RewriteScheme.RE)
        assert training._diagrams(a, mc_lexicon, RewriteScheme.RE) is first  # a hit
        n = sum(len(lset) for lset in a)
        assert len(parsed) == n
        training._diagrams(b, mc_lexicon, RewriteScheme.RE)
        assert training._front_end[1] == self.fresh(b, mc_lexicon, RewriteScheme.RE)
        again = training._diagrams(a, mc_lexicon, RewriteScheme.RE)  # b pushed a out
        assert again is not first and again == first
        assert len(parsed) == 2 * n + sum(len(lset) for lset in b)

    def test_unknown_word_is_not_cached(self, mc_lexicon):
        good = pattern_splits()
        held = training._diagrams(good, mc_lexicon, RewriteScheme.RE)
        bad = CorpusSplits(LabeledSet("train", ((("man", "juggles", "meal"), 1),)),
                           good.dev, good.test)
        for _ in range(2):  # raised afresh, not served from the memo
            with pytest.raises(UnknownWord, match="juggles"):
                training._diagrams(bad, mc_lexicon, RewriteScheme.RE)
            assert training._front_end[1] is held

    def test_circuit_then_tensor_build_parse_once(self, mc_lexicon, monkeypatch):
        parsed = []
        monkeypatch.setattr(training, "parse_sentence",
                            lambda words, lex: parsed.append(words) or parse_sentence(words, lex))
        splits, scheme = generate_mc(0), RewriteScheme.RE_NORM_CUR_NORM
        CircuitModel.build(splits, mc_lexicon, scheme, CircuitAnsatzConfig(CircuitAnsatz.IQP, 1))
        TensorModel.build(splits, mc_lexicon, scheme, TensorAnsatzConfig(TensorAnsatz.MPS))
        assert len(parsed) == sum(len(lset) for lset in splits)

    def test_each_family_places_every_sentence_once(self, mc_lexicon, monkeypatch):
        placed = {"circuit": 0, "network": 0}
        for family in placed:
            place = getattr(training, f"_place_{family}")

            def counted(d, place=place, family=family):
                placed[family] += 1
                return place(d)

            monkeypatch.setattr(training, f"_place_{family}", counted)
        splits, scheme = generate_mc(0), RewriteScheme.RE
        n = sum(len(lset) for lset in splits)
        for _ in range(2):  # the second round's builds place none
            for layers in (1, 2):
                CircuitModel.build(splits, mc_lexicon, scheme,
                                   CircuitAnsatzConfig(CircuitAnsatz.SIM14, layers))
            for kind in TensorAnsatz:
                TensorModel.build(splits, mc_lexicon, scheme, TensorAnsatzConfig(kind))
            assert placed == {"circuit": n, "network": n}

    def test_one_network_compiled_per_shape_group(self, mc_lexicon, monkeypatch):
        compiled = []
        monkeypatch.setattr(training, "compile_network",
                            lambda d, cfg: compiled.append(d) or compile_network(d, cfg))
        for kind in TensorAnsatz:
            compiled.clear()
            TensorModel.build(generate_mc(0), mc_lexicon, RewriteScheme.RE, TensorAnsatzConfig(kind))
            assert len(compiled) == 4  # one per sentence pattern, not per sentence
            assert all(box.name == str(b) for d in compiled for b, box in enumerate(d.boxes))

    @pytest.mark.parametrize("kind", tuple(CircuitAnsatz), ids=lambda k: k.value)
    def test_compiled_circuits_identical_on_hit_and_miss(self, kind, mc_lexicon):
        # the plan's build against compile_circuit on every sentence, grouped
        # by structure: on a generated corpus, and on one that repeats a word
        for splits in (generate_mc(3), pattern_splits(extra_train=[("man cooks man", 1)])):
            for scheme in (RewriteScheme.RE, RewriteScheme.RE_NORM_CUR_NORM):
                training._front_end = None  # the scheme's first build is a miss
                fresh = self.fresh(splits, mc_lexicon, scheme)
                for layers, rots in itertools.product(range(3), range(3)):
                    ansatz = CircuitAnsatzConfig(kind, layers, rots)
                    if layers == rots == 0:
                        for _ in range(2):
                            with pytest.raises(ZeroParameterModel):
                                CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
                        continue
                    first = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
                    key = training._front_end[0]
                    again = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
                    assert training._front_end[0] is key
                    want = {name: [compile_circuit(d, ansatz) for d in ds]
                            for name, ds in fresh.items()}
                    assert_same_groups(first, want)
                    assert_same_groups(again, want)

    def test_layouts_made_once_and_lowered_per_config(self, mc_lexicon, monkeypatch):
        validated, lowered = [], []
        monkeypatch.setattr(circuit, "validate", lambda d: validated.append(d) or validate(d))
        monkeypatch.setattr(training, "lower",
                            lambda lay, cfg: lowered.append(lay) or circuit.lower(lay, cfg))
        splits, scheme = pattern_splits(), RewriteScheme.RE_NORM_CUR_NORM
        # the second config differs in its one-qubit blocks only, the third in all
        configs = [CircuitAnsatzConfig(CircuitAnsatz.IQP, 1, 2),
                   CircuitAnsatzConfig(CircuitAnsatz.IQP, 1, 1),
                   CircuitAnsatzConfig(CircuitAnsatz.SIM14, 2, 1)]
        models = [CircuitModel.build(splits, mc_lexicon, scheme, cfg) for cfg in configs]
        assert len(validated) == sum(len(lset) for lset in splits)
        # one layout per sentence pattern, each lowered once per build
        ((_, layouts, _),) = training._front_end[2].values()
        assert len(layouts) == 4
        assert lowered == [lay for lay, _, _ in layouts] * len(configs)
        fresh = self.fresh(splits, mc_lexicon, scheme)
        for cfg, model in zip(configs, models):
            assert_same_groups(model, {name: [compile_circuit(d, cfg) for d in ds]
                                       for name, ds in fresh.items()})
        assert models[0].n_params != models[1].n_params != models[2].n_params

    @staticmethod
    def capped(d):
        """``d`` with a cap whose legs are two more outputs: valid, not compilable."""
        o = d.n_outputs
        legs = (Wire(N.r, Port("cap", 0, 0), Port("out", o)),
                Wire(N, Port("cap", 0, 1), Port("out", o + 1)))
        return dataclasses.replace(d, wires=d.wires + legs, n_caps=1, n_outputs=o + 2)

    @pytest.mark.parametrize("fault", ("invalid", "cap", "width", "zero_params"))
    def test_build_raises_what_compile_circuit_raises(self, fault, mc_lexicon, monkeypatch):
        splits, scheme = pattern_splits(), RewriteScheme.RE
        ansatz = CircuitAnsatzConfig(CircuitAnsatz.IQP, 0 if fault == "zero_params" else 1,
                                     0 if fault == "zero_params" else 2)
        if fault == "width":  # the two 5-qubit sentences lay out, the third overflows
            monkeypatch.setattr(circuit, "MAX_QUBITS", 6)
        breaks = {"invalid": lambda d: dataclasses.replace(d, n_outputs=d.n_outputs + 1),
                  "cap": self.capped}.get(fault, lambda d: d)
        fresh = [breaks(d) for ds in self.fresh(splits, mc_lexicon, scheme).values()
                 for d in ds]
        monkeypatch.setattr(training, "rewrite", lambda d, s: breaks(rewrite(d, s)))
        with pytest.raises(Error) as first:  # the first sentence that fails
            for d in fresh:
                compile_circuit(d, ansatz)
        want = first.value
        for _ in range(2):  # raised afresh, not served from the memo
            with pytest.raises(Error) as got:
                CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
            assert (type(got.value), str(got.value)) == (type(want), str(want))

    def test_no_parameters_before_a_failing_layout_raises_first(self, mc_lexicon, monkeypatch):
        # the third sentence overflows; under L0/r0 the first has no parameters
        monkeypatch.setattr(circuit, "MAX_QUBITS", 6)
        splits, scheme = pattern_splits(), RewriteScheme.RE
        first = self.fresh(splits, mc_lexicon, scheme)["train"][0]
        for layers, rots, want in ((0, 0, ZeroParameterModel), (1, 1, WidthOverflow)):
            ansatz = CircuitAnsatzConfig(CircuitAnsatz.IQP, layers, rots)
            if want is ZeroParameterModel:
                with pytest.raises(ZeroParameterModel):
                    compile_circuit(first, ansatz)
            for _ in range(2):
                with pytest.raises(want):
                    CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
            assert training._front_end[2] == {}  # a plan with an error is not held


PARAMETRIC = circuit.PARAMETRIC_1Q | circuit.PARAMETRIC_2Q


@st.composite
def hosts_and_members(draw) -> list[Circuit]:
    """A random host circuit and 1-3 members that leave out some of its
    symbol-reading gates, each as two rows reading symbols of their own.

    2-3 qubits and 1-10 gates of all seven kinds between two layers of
    ``H``, so leaving a gate out changes the output.  A rotation reads a
    symbol or a constant angle; only symbol-reading gates are left out.
    Every qubit but the output may be postselected.  No batch is one row:
    NumPy rounds an in-place complex product of one element differently
    from a longer one's, so a one-row batch can differ in the last bit.
    """
    n = draw(st.integers(2, 3))
    hadamards = [(GateKind.H, (q,), None) for q in range(n)]
    gates = list(hadamards)
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(tuple(GateKind)))
        arity = 1 if kind is GateKind.H or kind in circuit.PARAMETRIC_1Q else 2
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        param = None
        if kind in PARAMETRIC:
            param = draw(st.one_of(st.just(Symbol), st.floats(-2 * np.pi, 2 * np.pi)))
        gates.append((kind, qubits, param))
    gates += hadamards
    output = draw(st.integers(0, n - 1))
    post = tuple(q for q in range(n) if q != output and draw(st.booleans()))
    optional = [i for i, (*_, param) in enumerate(gates) if param is Symbol]

    def bind(row: int, kept) -> Circuit:
        syms = [Symbol(f"m{row}", "->s", j) for j in range(len(optional))]
        bound = [Gate(kind, qubits, syms.pop(0) if param is Symbol else param)
                 for i, (kind, qubits, param) in enumerate(gates) if i in kept]
        return Circuit(n, tuple(bound), post, (output,),
                       tuple(g.param for g in bound if isinstance(g.param, Symbol)))

    everything = set(range(len(gates)))
    kept = [everything] + [everything - set(draw(st.lists(st.sampled_from(optional), unique=True)))
                           for _ in range(draw(st.integers(1, 3)) if optional else 0)]
    return [bind(r, kept[r // 2]) for r in range(2 * len(kept))]


def merged(circuits, offsets) -> list[tuple]:
    """The batches a circuit model merges from one group per circuit."""
    groups = [(c, np.array([r]), reference_gather([c], offsets)) for r, c in enumerate(circuits)]
    return training._merge_groups(groups, simulator.structure_key, training._slot_map)


class TestPaddedGroups:
    """A structure that is another with some parametric gates left out runs
    in that host's batch, its missing gates at angle 0."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(circuits=hosts_and_members(), seed=st.integers(0, 2**32 - 1))
    def test_padded_rows_equal_their_own_batch(self, circuits, seed):
        symbols = [s for c in circuits for s in c.symbols]
        offsets = {s: i for i, s in enumerate(symbols)}
        ((host, at, gather),) = merged(circuits, offsets)
        assert host is circuits[0]
        assert at.tolist() == list(range(len(circuits)))
        batch = simulator.compile_batch(host, gather)
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0, 2 * np.pi, size=len(symbols))
        with_zero = np.append(theta, 0.0)  # as _Model.evaluate stacks it
        u = simulator.batch_forward(batch, with_zero)
        upstream = rng.normal(size=u.shape)
        _, terms = simulator.batch_backward(batch, with_zero, lambda rows, _: upstream[rows])
        for r in range(0, len(circuits), 2):  # each structure's own batch of two rows
            own = simulator.compile_batch(circuits[r], reference_gather(circuits[r : r + 2], offsets))
            assert u[r : r + 2].tobytes() == simulator.batch_forward(own, theta).tobytes()
            _, want = simulator.batch_backward(own, theta, lambda rows, _: upstream[r : r + 2][rows])
            real = gather[r : r + 2] >= 0
            assert gather[r : r + 2][real].tolist() == own.gather.ravel().tolist()
            np.testing.assert_array_equal(terms[r : r + 2][real], want.ravel())

    @staticmethod
    def pair(host_gates, member_gates, member_post=(), member_out=(0,)):
        def make(gates, post, out, row):
            syms = iter(Symbol(f"w{row}", "->s", j) for j in range(len(gates)))
            bound = tuple(Gate(k, q, next(syms) if p is Symbol else p) for k, q, p in gates)
            return Circuit(2, bound, post, out,
                           tuple(g.param for g in bound if isinstance(g.param, Symbol)))
        return [make(host_gates, (), (0,), 0), make(member_gates, member_post, member_out, 1)]

    RX0 = (GateKind.RX, (0,), Symbol)

    @pytest.mark.parametrize("left_out", [(GateKind.H, (1,), None),
                                          (GateKind.CNOT, (0, 1), None),
                                          (GateKind.RX, (1,), 0.5)],
                             ids=("h", "cnot", "constant-angle"))
    def test_unmatched_constant_gate_keeps_groups_apart(self, left_out):
        circuits = self.pair([self.RX0, left_out, self.RX0], [self.RX0, self.RX0])
        keys = [simulator.structure_key(c) for c in circuits]
        assert training._slot_map(keys[1], keys[0]) is None
        offsets = {s: i for i, s in enumerate(s for c in circuits for s in c.symbols)}
        assert len(merged(circuits, offsets)) == 2

    @pytest.mark.parametrize("ends", [{"member_post": (1,)}, {"member_out": (1,)}],
                             ids=("postselect", "output"))
    def test_other_ends_keep_groups_apart(self, ends):
        circuits = self.pair([self.RX0, self.RX0], [self.RX0], **ends)
        keys = [simulator.structure_key(c) for c in circuits]
        assert training._slot_map(keys[1], keys[0]) is None
        same = self.pair([self.RX0, self.RX0], [self.RX0])
        keys = [simulator.structure_key(c) for c in same]
        assert training._slot_map(keys[1], keys[0]).tolist() == [0, -1]  # leftmost

    def test_member_gathers_pad_the_slots_they_lack(self):
        ry1 = (GateKind.RY, (1,), Symbol)
        crz = (GateKind.CRZ, (0, 1), Symbol)
        circuits = self.pair([self.RX0, ry1, crz, self.RX0], [ry1, self.RX0])
        offsets = {s: i for i, s in enumerate(s for c in circuits for s in c.symbols)}
        ((_, _, gather),) = merged(circuits, offsets)
        assert gather.tolist() == [[0, 1, 2, 3], [-1, 4, -1, 5]]

    @pytest.mark.parametrize("kind", tuple(CircuitAnsatz), ids=lambda k: k.value)
    def test_bench_grid_histories_equal_per_structure_models(self, kind, mc_lexicon):
        # the default corpus: every cell with rotations is one group, and
        # five SPSA epochs give the per-structure model's history bit for bit
        splits, scheme = generate_mc(0), RewriteScheme.RE_NORM_CUR_NORM
        diagrams = {lset.name: [rewrite(parse_sentence(list(ws), mc_lexicon), scheme)
                                for ws in lset.sentences()] for lset in splits}
        cfg = TrainConfig(epochs=5, seed=0, optimizer=SPSAConfig())
        for layers, rots in itertools.product(range(3), range(3)):
            if layers == rots == 0:
                continue
            ansatz = CircuitAnsatzConfig(kind, layers, rots)
            model = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
            per_structure = reference_circuit_model(
                {name: [compile_circuit(d, ansatz) for d in ds] for name, ds in diagrams.items()})
            assert len(model._groups) == 1
            assert len(per_structure._groups) == (1 if rots == 0 else 4)
            assert_same_history(fit(model, splits, cfg), fit(per_structure, splits, cfg))

    @pytest.mark.parametrize("cell", [(CircuitAnsatz.IQP, 1, 1), (CircuitAnsatz.SIM14, 2, 2),
                                      (CircuitAnsatz.SIM15, 1, 2),
                                      (CircuitAnsatz.STRONGLY_ENTANGLING, 2, 1)],
                             ids=lambda c: f"{c[0].value}-L{c[1]}-r{c[2]}")
    def test_adaptive_gd_matches_per_structure_model(self, cell, mc_lexicon, rng):
        # the gradient sums its terms in another order, so within 1e-12
        splits, scheme = generate_mc(0), RewriteScheme.RE_NORM_CUR_NORM
        ansatz = CircuitAnsatzConfig(*cell)
        model = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
        per_structure = reference_circuit_model(
            reference_circuits(splits, mc_lexicon, scheme, ansatz))
        theta, labels = model.init_params(rng), splits.train.labels()
        grad, probs, _ = model.grad_split("train", theta, labels)
        want, want_probs, _ = per_structure.grad_split("train", theta, labels)
        assert probs.tobytes() == want_probs.tobytes()
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)
        cfg = TrainConfig(epochs=5, seed=0, optimizer=AdaptiveGDConfig())
        h, ref = fit(model, splits, cfg), fit(per_structure, splits, cfg)
        np.testing.assert_allclose(h.train_loss, ref.train_loss, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h.val_loss, ref.val_loss, rtol=0, atol=1e-12)
        assert (h.train_acc, h.val_acc, h.test_acc) == (ref.train_acc, ref.val_acc, ref.test_acc)


class TestTracerContract:
    """The benchmark's traced run patches these names where they are looked up."""

    def test_split_methods_live_in_each_class_body(self):
        for cls in (CircuitModel, TensorModel):
            for attr in ("build", "eval_split", "grad_split"):
                assert attr in cls.__dict__, f"{cls.__name__}.{attr}"

    def test_training_exposes_traced_functions(self):
        for name in (
            "sentence_distribution",
            "distribution_gradient",
            "contract",
            "gradient_hole",
            "compile_circuit",
            "compile_network",
            "parse_sentence",
            "rewrite",
        ):
            assert callable(getattr(training, name, None)), name

    @staticmethod
    def tracing():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("optimizer", (SPSAConfig(), AdaptiveGDConfig()), ids=("spsa", "gd"))
    @pytest.mark.parametrize("make", (circuit_model, tensor_model), ids=("circuit", "tensor"))
    def test_tracer_records_a_fit(self, make, optimizer):
        cfg = TrainConfig(epochs=2, optimizer=optimizer)
        with self.tracing().Tracer() as tr:
            model = make()
            h = training.fit(model, tiny_splits(), cfg)
        assert len(tr.named("training.build")) == 1
        assert len(tr.named("training.fit")) == 1
        assert len(tr.named("training.step")) == 2
        # fit stacks its splits and points into one request per epoch, so
        # the per-split methods the tracer wraps are not called
        assert not tr.named("training.eval_split") and not tr.named("training.grad_split")
        # the reference loop reads one split per call: per epoch dev, plus
        # train and both probes under SPSA; then test
        with self.tracing().Tracer() as tr:
            ref = reference_fit(model, tiny_splits(), cfg)
        gd = isinstance(optimizer, AdaptiveGDConfig)
        assert len(tr.named("training.eval_split")) == 2 * (1 if gd else 4) + 1
        grads = tr.named("training.grad_split")
        assert len(grads) == (2 if gd else 0)
        spans = tr.named("training.eval_split") + grads
        assert all(s.info[:2] == (type(model).__name__, 4) for s in grads)
        assert sum(s.info[-1] for s in spans) == ref.degenerate_evals == h.degenerate_evals

    def test_tracer_reads_the_degenerate_count_of_grad_split(self, monkeypatch):
        # zero tensors read out every row as degenerate, and their gradient
        # is zero, so every epoch's gradient pass counts all four rows
        monkeypatch.setattr(TensorModel, "init_params", lambda self, rng: np.zeros(self.n_params))
        cfg = TrainConfig(epochs=2, optimizer=AdaptiveGDConfig())
        with self.tracing().Tracer() as tr:
            ref = reference_fit(tensor_model(), tiny_splits(), cfg)
        assert [s.info for s in tr.named("training.grad_split")] == [("TensorModel", 4, 4)] * 2
        h = training.fit(tensor_model(), tiny_splits(), cfg)
        assert h.degenerate_evals == ref.degenerate_evals == 2 * 4 + 2 * 2 + 2  # train, dev, test
