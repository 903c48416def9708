"""Loss functions, optimizers, and the fit loop on miniature corpora."""

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
    ZeroParameterModel,
)
from qnlp.corpus import CorpusSplits, LabeledSet, default_lexicon
from qnlp.errors import Error
from qnlp.rewrite import RewriteScheme
from qnlp.simulator import (
    BATCH_AMPLITUDES,
    distribution_gradient,
    sentence_distribution,
)
from qnlp.tensornet import TensorAnsatz, TensorAnsatzConfig
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

from oracles import finite_difference


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


class TestMetrics:
    def test_predict_tie_goes_to_zero(self):
        assert predict([0.5, 0.5]) == 0
        assert predict([0.4, 0.6]) == 1

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

        theta = np.zeros(4)
        after = opt.step(theta, flat)
        np.testing.assert_allclose(after, theta)
        assert len(probes) == 2
        np.testing.assert_allclose(np.abs(probes[0]), 0.15)
        np.testing.assert_allclose(probes[0], -probes[1])

        opt.step(theta, flat)
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
                theta = opt.step(theta, lambda v: float(np.sum((v - target) ** 2)))
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
        class BrokenModel:
            n_params = 2

            def init_params(self, rng):
                return np.zeros(2)

            def eval_split(self, name, theta):
                return np.full((2, 2), np.nan), 0

        with pytest.raises(NonFiniteLoss):
            fit(BrokenModel(), tiny_splits(), TrainConfig(epochs=1))

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


def reference_split(model: CircuitModel, name: str, theta, labels):
    """Per-sentence probabilities, mean-loss gradient and degenerate count."""
    pos = {s: i for i, s in enumerate(model.symbols)}
    circuits = model.circuits_by_split[name]
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
        theta = model.init_params(rng)
        for lset in splits:
            probs, degenerate = model.eval_split(lset.name, theta)
            want, want_grad, want_degenerate = reference_split(
                model, lset.name, theta, lset.labels()
            )
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
            assert degenerate == want_degenerate
            if lset.name == "train":
                grad, total, _ = model.grad_split("train", theta, lset.labels())
                np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)
                losses = [bce_loss(p, y) for p, y in zip(want, lset.labels())]
                assert total == pytest.approx(np.mean(losses), abs=1e-12)

    def test_groups_follow_sentence_patterns(self):
        ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.IQP, n_layers=1)
        model = CircuitModel.build(
            pattern_splits(), default_lexicon(), RewriteScheme.RE, ansatz
        )
        assert [len(rows) for rows, _ in model._groups["train"]] == [2, 2, 2, 2]
        assert len(model._groups["dev"]) == 2

    def test_group_wider_than_one_chunk(self, rng):
        ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.IQP, n_layers=1)
        splits = pattern_splits()
        model = CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE, ansatz)
        rows, batch = max(model._groups["train"], key=lambda g: g[1].n_qubits)
        assert batch.n_qubits == 9 and len(rows) == 2
        probes = batch.probe_shift.shape[0]
        assert len(rows) * probes * 2**batch.n_qubits > BATCH_AMPLITUDES
        theta = model.init_params(rng)
        labels = splits.train.labels()
        grad, _, _ = model.grad_split("train", theta, labels)
        _, want, _ = reference_split(model, "train", theta, labels)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)

    def test_repeated_word_takes_finite_differences(self, rng):
        # "man" twice ties both boxes to one symbol set, so each of its
        # parameters has two uses and the central-difference rule, whose
        # 1 / (2 * 1e-6) factor amplifies rounding.
        splits = pattern_splits(extra_train=[("man cooks man", 1)])
        ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.SIM14, n_layers=1)
        model = CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE, ansatz)
        shifts = np.concatenate([b.probe_shift.ravel() for _, b in model._groups["train"]])
        assert np.any(np.abs(shifts) == 1e-6)
        theta = model.init_params(rng)
        labels = splits.train.labels()
        probs, _ = model.eval_split("train", theta)
        grad, _, _ = model.grad_split("train", theta, labels)
        want_probs, want, _ = reference_split(model, "train", theta, labels)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-8)

    def test_degenerate_row(self):
        # RX(pi) on the postselected qubit annihilates the state, while
        # the shift probes of u move it off pi and survive.
        w, u, v = (Symbol(x, "->s", 0) for x in "wuv")
        dead = Circuit(
            2,
            (Gate(GateKind.RX, (0,), w), Gate(GateKind.RX, (1,), u)),
            postselect=(1,),
            outputs=(0,),
            symbols=(w, u),
        )
        alive = Circuit(1, (Gate(GateKind.RY, (0,), v),), (), (0,), (v,))
        model = CircuitModel({"train": [dead, alive, dead]})
        theta = np.array([0.4, np.pi, 1.1])
        labels = [1, 0, 0]
        probs, degenerate = model.eval_split("train", theta)
        assert degenerate == 2
        np.testing.assert_allclose(probs[[0, 2]], 0.5)
        grad, total, degenerate = model.grad_split("train", theta, labels)
        assert degenerate == 2
        assert grad[0] == grad[1] == 0.0
        want_probs, want, _ = reference_split(model, "train", theta, labels)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)
        losses = [bce_loss(p, y) for p, y in zip(want_probs, labels)]
        assert total == pytest.approx(np.mean(losses), abs=1e-12)


class TestTensorFit:
    def test_reaches_perfect_train_accuracy(self):
        cfg = TrainConfig(epochs=40, seed=0, optimizer=AdaptiveGDConfig())
        h = fit(tensor_model(), tiny_splits(), cfg)
        assert max(h.train_acc) == 1.0

    def test_grad_split_matches_finite_differences(self, rng):
        model = tensor_model()
        labels = tiny_splits().train.labels()
        theta = model.init_params(rng)
        grad, total, _ = model.grad_split("train", theta, labels)

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
