"""Loss functions, optimizers, and the fit loop on miniature corpora."""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import math
import re
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
    Symbol,
    WidthOverflow,
    ZeroParameterModel,
    compile_circuit,
    layout,
    lower,
    type_fingerprint,
)
from qnlp.corpus import CorpusSplits, LabeledSet, default_lexicon, generate_mc
from qnlp.diagram import Port, Wire, validate
from qnlp.errors import ConfigError, Error
from qnlp.pregroup import N, S, Lexicon, PregroupType, UnknownWord, parse_sentence
from qnlp.rewrite import RewriteScheme, normal_form, rewrite
from qnlp.simulator import (
    WrongOutputArity,
    distribution_gradient,
    sentence_distribution,
)
from qnlp import circuit, experiment, simulator, tensornet, training
from qnlp.tensornet import (
    ParamNode,
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
    bce_loss,
    fit,
    summarize,
)

from oracles import (
    PerStructureCircuitModel,
    WireDims,
    bce_grad,
    bend_tensor,
    curry_infos,
    enumerate_reductions,
    eval_tensor,
    finite_difference,
    hit_rate,
    named_to_params,
    reference_circuits,
    reference_fit,
    reference_init_params,
    reference_map,
    reference_networks,
    reference_tensor_groups,
    reference_tensor_model,
    random_assignment,
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
    sizes = model.contraction.sizes
    start = split_starts(sizes)
    return {name: [int(p) - start[name] for p in at if 0 <= p - start[name] < size]
            for name, size in sizes.items()}


def point_labels(splits: CorpusSplits, points) -> np.ndarray:
    """One label per row of a request at ``points``, every point's splits in turn."""
    labels = {lset.name: lset.labels() for lset in splits}
    return np.array([y for names, _ in points for name in names for y in labels[name]], np.intp)


def circuit_model(scheme=RewriteScheme.RE_NORM_CUR_NORM) -> CircuitModel:
    return CircuitModel.build(tiny_splits(), default_lexicon(), scheme, TINY_ANSATZ)


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

    def test_non_finite_weight_reads_nan_loss(self):
        # the first row's class 1 reads a finite 0 beside inf / inf, so its
        # clipped loss would be finite; the split of that row reads NaN and
        # the next split, a finite row, keeps its loss
        u = np.array([[np.inf, 1.0], [1.0, 3.0]])
        with np.errstate(invalid="ignore"):
            probs, scores = training._scores(u, np.array([1, 1]), [1, 2])
            # a stack of requests scores each one as it scores alone
            stacked, stacked_scores = training._scores(np.stack([u[::-1], u]),
                                                       np.array([1, 1]), [1, 2])
        (degenerate, loss, _), (_, finite, acc) = scores
        assert probs[0, 1] == 0.0 and np.isnan(probs[0, 0]) and degenerate == 0
        assert np.isnan(loss)
        assert finite == pytest.approx(-np.log(0.75)) and acc == 1.0
        assert stacked[1].tobytes() == probs.tobytes()
        assert [[np.asarray(part)[1].tobytes() for part in split] for split in stacked_scores] \
            == [[np.asarray(part).tobytes() for part in split] for split in scores]
        assert np.isnan(stacked_scores[1][1][0]) and not np.isnan(stacked_scores[0][1][0])

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
        assert isinstance(bce_loss(probs[0], 1), float)
        # each row is a hit or not as it is scored alone
        hits = [TestMetrics.accuracy(p[None], [y]) for p, y in zip(probs, labels)]
        assert hits == [1, 0, 1, 1, 1, 0]
        assert TestMetrics.accuracy(probs, labels) == 4 / 6 == np.mean(hits)


class TestMetrics:
    """The class rule :func:`training._scores` counts hits by: a row reads
    class 1 only if ``p1 - p0 > TIE_EPS``, so a tie reads class 0."""

    @staticmethod
    def accuracy(u, labels) -> float:
        """The accuracy ``_scores`` gives rows of weights ``u``, one split."""
        _, [(_, _, acc)] = training._scores(np.asarray(u, float), np.asarray(labels), [len(labels)])
        return float(acc)

    def test_predict_tie_goes_to_zero(self):
        assert self.accuracy([[0.5, 0.5]], [0]) == 1.0
        assert self.accuracy([[0.5, 0.5]], [1]) == 0.0
        assert self.accuracy([[0.4, 0.6]], [1]) == 1.0
        assert self.accuracy([[0.0, 0.0]], [0]) == 1.0  # a degenerate row reads uniform

    def test_rounding_tie_goes_to_zero(self):
        # |p1 - p0| of about 2e-16 and 8e-13 is a tie; 2e-9 is class 1
        assert self.accuracy([[0.5 - 1e-16, 0.5 + 1e-16]], [0]) == 1.0
        assert self.accuracy([[0.5 - 4e-13, 0.5 + 4e-13]], [0]) == 1.0
        assert self.accuracy([[0.5 - 1e-9, 0.5 + 1e-9]], [1]) == 1.0

    def test_accuracy(self):
        u = [[0.9, 0.1]] * 29 + [[0.1, 0.9]]
        assert self.accuracy(u, [0] * 30) == 29 / 30

    def test_accuracy_empty(self):
        # an empty split's loss and accuracy are NaN, beside a split with rows
        u, labels = np.array([[0.2, 0.8]]), np.array([1])
        _, [(_, loss, acc), (degenerate, empty_loss, empty_acc)] = training._scores(u, labels, [1, 1])
        assert (loss, acc) == (bce_loss(u[0], 1), 1.0)
        assert degenerate == 0 and np.isnan(empty_loss) and np.isnan(empty_acc)


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

    @pytest.mark.parametrize("n", (1, 7, 45, 129))
    def test_delta_draws_as_choice_does(self, n):
        # the perturbation keeps the draws, and the generator state after
        # them, of ``rng.choice([-1.0, 1.0], size=n)``
        opt, rng = SPSA(SPSAConfig(), n, 50, np.random.default_rng(n)), np.random.default_rng(n)
        for _ in range(50):
            opt.probes(np.zeros(n))
            assert opt.delta.tobytes() == rng.choice([-1.0, 1.0], size=n).tobytes()
            assert opt.rng.bit_generator.state == rng.bit_generator.state


class TestAdaptiveGd:
    def test_converges_on_convex_quadratic(self):
        target = np.array([0.3, -1.2, 2.0, 0.0])
        opt = AdaptiveGD(AdaptiveGDConfig(), 4)
        theta = np.zeros(4)
        for _ in range(500):
            theta = opt.step(theta, 2.0 * (theta - target))
        np.testing.assert_allclose(theta, target, atol=1e-4)

    @pytest.mark.parametrize("n", (76, 124))
    def test_in_place_step_equals_the_formula(self, n):
        # the moments updated in place give the out-of-place formula's
        # bits, step after step
        rng, c = np.random.default_rng(n), AdaptiveGDConfig()
        opt, theta = AdaptiveGD(c, n), rng.standard_normal(n)
        m, v = np.zeros(n), np.zeros(n)
        for t in range(1, 51):
            grad = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3)
            m = c.beta1 * m + (1 - c.beta1) * grad
            v = c.beta2 * v + (1 - c.beta2) * grad**2
            m_hat, v_hat = m / (1 - c.beta1**t), v / (1 - c.beta2**t)
            want = theta - c.lr * m_hat / (np.sqrt(v_hat) + c.eps)
            got = opt.step(theta, grad)
            assert (got.tobytes(), opt.m.tobytes(), opt.v.tobytes()) == (
                want.tobytes(), m.tobytes(), v.tobytes())
            theta = got


class SplitModel:
    """A stand-in model on ``tiny_splits()`` that serves ``fit``'s requests
    one split at a time from its ``eval_split`` and, for the differentiated
    split, ``grad_split``, each readout its rows' weights in the request
    (``p = u / sum(u)`` reads a distribution back as it is).  A readout's
    own degenerate count is not passed on: ``fit`` counts the rows whose
    weights sum below ``DEGENERATE_EPS``."""

    n_params = 2

    def init_params(self, rng):
        return np.zeros(2)

    def score(self, points, labels, grad=False):
        sizes = {lset.name: len(lset) for lset in tiny_splits()}
        ends = itertools.accumulate(sizes[name] for names, _ in points for name in names)
        rows, at, gradient = [], 0, None
        for k, (names, theta) in enumerate(points):
            for j, (name, end) in enumerate(zip(names, ends)):
                y, at = labels[at:end], end
                if grad and k == j == 0:
                    gradient, probs, _ = self.grad_split(name, theta, y)
                else:
                    probs, _ = self.eval_split(name, theta)
                rows.append(probs)
        return gradient, np.concatenate(rows)


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

    def test_unknown_optimizer_is_config_error(self):
        cfg = TrainConfig(epochs=1, optimizer="adam")
        with pytest.raises(ConfigError, match="unknown optimizer config: 'adam'"):
            fit(circuit_model(), tiny_splits(), cfg)

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
                return np.ones(2), np.array([[0.2, 0.8]] * 3 + [[0.0, 0.0]]), 1

        model = CountingModel()
        h = fit(model, tiny_splits(), TrainConfig(epochs=3, optimizer=AdaptiveGDConfig()))
        # dev beside train in each epoch's call (the first epoch's, at the
        # initial parameters, unrecorded), then dev and test in the closing call
        assert model.evaluated == ["dev", "dev", "dev", "dev", "test"]
        labels = tiny_splits().train.labels()
        probs = np.array([[0.2, 0.8]] * 3 + [[0.5, 0.5]])  # the degenerate row reads uniform
        assert h.train_loss == [bce_loss(probs, labels).mean()] * 3
        assert h.train_acc == [hit_rate(probs, labels)] * 3 != [hit_rate(probs[[0] * 4], labels)] * 3
        assert h.degenerate_evals == 3  # the train readout counted once per epoch

    def test_dev_is_checked_before_train(self):
        class DevBreaksModel(SplitModel):
            # the third request reads dev at theta_3 as NaN and train with
            # one row too few: dev, recorded as epoch 2's, is checked first
            def __init__(self):
                self.requests = 0

            def eval_split(self, name, theta):
                rows = len(getattr(tiny_splits(), name))
                return np.full((rows, 2), np.nan if self.requests == 3 else 0.5), 0

            def grad_split(self, name, theta, labels):
                self.requests += 1
                return np.ones(2), np.full((4 - (self.requests == 3), 2), 0.5), 0

        with pytest.raises(NonFiniteLoss, match="dev loss became non-finite at epoch 2"):
            fit(DevBreaksModel(), tiny_splits(),
                TrainConfig(epochs=5, optimizer=AdaptiveGDConfig()))

    def test_spsa_minus_probe_is_checked(self):
        class MinusBreaksModel(SplitModel):
            # train is read three times per request, the minus probe last;
            # the second request's minus probe is NaN
            def __init__(self):
                self.train_reads = 0

            def eval_split(self, name, theta):
                self.train_reads += name == "train"
                nan = name == "train" and self.train_reads == 6
                return np.full((len(getattr(tiny_splits(), name)), 2), np.nan if nan else 0.5), 0

        model = MinusBreaksModel()
        with pytest.raises(NonFiniteLoss, match="train loss became non-finite at epoch 2"):
            fit(model, tiny_splits(), TrainConfig(epochs=5))
        assert model.train_reads == 6

    def test_corpus_without_sentences_has_no_parameters(self):
        empty = CorpusSplits(*(LabeledSet(name, ()) for name in ("train", "dev", "test")))
        with pytest.raises(ZeroParameterModel, match="^no trainable parameters in any circuit$"):
            CircuitModel.build(empty, default_lexicon(), RewriteScheme.RE, TINY_ANSATZ)

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
            assert hit_rate(probs, lset.labels()) == hit_rate(want, lset.labels())

    def test_groups_follow_sentence_patterns(self):
        # the three shorter MC patterns are the widest without adjectives:
        # all four join its group
        ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.IQP, n_layers=1)
        model = CircuitModel.build(
            pattern_splits(), default_lexicon(), RewriteScheme.RE, ansatz
        )
        rows = [rows_by_split(model, group.at) for group in model.contraction.groups]
        assert [len(r["train"]) for r in rows] == [8]
        assert [len(r["dev"]) for r in rows] == [2]
        assert [len(r["test"]) for r in rows] == [2]

    def test_repeated_word_fills_a_slot_per_use(self, rng):
        # "man" twice: the sentence joins the one group, its subject and
        # object positions gather one map, and the map's cotangent sums
        # over both uses before it reaches the angles
        splits = pattern_splits(extra_train=[("man cooks man", 1)])
        ansatz = CircuitAnsatzConfig(kind=CircuitAnsatz.SIM14, n_layers=1)
        model = CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE, ansatz)
        groups = model.contraction.groups
        assert [len(rows_by_split(model, group.at)["train"]) for group in groups] == [9]
        last = len(splits.train) - 1  # train rows lead the corpus
        (group,) = [group for group in groups if last in group.at]
        batch, at, gather = group.batch, group.at, group.gather
        # the host's boxes: adjective, subject, verb, adjective, object
        _, subject, _, _, obj = (gather[list(at).index(last), cols] for cols in batch.columns)
        np.testing.assert_array_equal(subject, obj)
        theta = model.init_params(rng)
        labels = splits.train.labels()
        probs, _ = model.eval_split("train", theta)
        grad, _, _ = model.grad_split("train", theta, labels)
        circuits = reference_circuits(splits, default_lexicon(), RewriteScheme.RE, ansatz)
        want_probs, want, _ = reference_split(model, circuits["train"], theta, labels)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)

    def test_degenerate_row(self, rng):
        # "man" at |-> and every verb at angle 0: the two train sentences
        # whose subject is "man" read amplitude 0, so their pullback is zero
        # and "man", "cooks" and "runs", read by them alone, get no gradient
        model = circuit_model(RewriteScheme.RE)
        theta = dead_man(model, model.init_params(rng))
        labels = tiny_splits().train.labels()
        probs, degenerate = model.eval_split("train", theta)
        assert degenerate == 2
        np.testing.assert_allclose(probs[[0, 1]], 0.5)
        grad, grad_probs, degenerate = model.grad_split("train", theta, labels)
        total = bce_loss(grad_probs, labels).mean()
        assert degenerate == 2
        alone = [i for i, s in enumerate(model.symbols) if s.word in ("man", "cooks", "runs")]
        assert len(alone) == 6 and not grad[alone].any() and grad.any()
        circuits = reference_circuits(tiny_splits(), default_lexicon(), RewriteScheme.RE,
                                      TINY_ANSATZ)
        want_probs, want, _ = reference_split(model, circuits["train"], theta, labels)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)
        losses = [bce_loss(p, y) for p, y in zip(want_probs, labels)]
        assert total == pytest.approx(np.mean(losses), abs=1e-12)

    def test_nearly_dead_row_adds_no_gradient(self, rng):
        # "man" 1e-7 off |->: a squared norm of about 5e-16, degenerate,
        # though the amplitude's derivative there is not zero
        def lset(name, items):
            return LabeledSet(name, tuple((tuple(w.split()), y) for w, y in items))

        splits = CorpusSplits(lset("train", [("man cooks meal", 1)]),
                              lset("dev", [("woman bakes sauce", 1)]),
                              lset("test", [("woman runs program", 0)]))
        model = CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE, TINY_ANSATZ)
        theta = dead_man(model, model.init_params(rng))
        theta[model.symbols.index(Symbol("man", "->n", 0))] -= 1e-7
        grad, grad_probs, degenerate = model.grad_split("train", theta, [1])
        total = bce_loss(grad_probs, [1]).mean()
        assert degenerate == 1
        np.testing.assert_array_equal(grad, 0.0)
        assert total == pytest.approx(np.log(2), abs=1e-12)


TINY_ANSATZ = CircuitAnsatzConfig(kind=CircuitAnsatz.IQP, n_layers=1, n_single_qubit_params=2)
VERBS = ("cooks", "runs", "bakes", "debugs", "executes", "prepares")


def dead_man(model: CircuitModel, theta: np.ndarray) -> np.ndarray:
    """``theta`` with "man" at |-> up to a phase, RZ(-pi/2) RX(pi/2) |0>,
    and every verb at angle 0.  Under iqp on ``re`` a verb at angle 0 is
    the uniform state, so every sentence whose subject is "man" reads
    amplitude 0 up to rounding."""
    theta = theta.copy()
    for i, s in enumerate(model.symbols):
        if s.word == "man":
            theta[i] = (np.pi / 2, -np.pi / 2)[s.index]
        elif s.word in VERBS:
            theta[i] = 0.0
    return theta


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
    return np.array(probs), named_to_params(model, named)


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
        (group,) = [group for group in model.contraction.groups if 8 in group.at]
        r = list(group.at).index(8)
        pieces = [group.gather[r, cols] for cols in group.batch.columns]
        assert sum(np.array_equal(g, pieces[0]) for g in pieces) == 2
        theta = model.init_params(rng)
        labels = splits.train.labels()
        grad, _, _ = model.grad_split("train", theta, labels)
        nets = reference_networks(splits, default_lexicon(), RewriteScheme.RE,
                                  TensorAnsatzConfig(kind))
        _, want = tensor_reference_split(model, nets["train"], theta, labels)
        assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_one_group_serves_every_split(self, kind):
        model = TensorModel.build(generate_mc(0), default_lexicon(), RewriteScheme.RE,
                                  TensorAnsatzConfig(kind))
        assert len(model.contraction.groups) == 1  # compiled at build
        for name in ("train", "dev", "test"):
            assert all(len(rows_by_split(model, group.at)[name])
                       for group in model.contraction.groups)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_one_path_search_per_group(self, kind, monkeypatch, rng):
        splits = generate_mc(0)
        searches = []

        def counting_search(*args, **kwargs):
            searches.append(args[0])
            return np.einsum_path(*args, **kwargs)

        monkeypatch.setattr(tensornet, "np", numpy_with(einsum_path=counting_search))
        monkeypatch.setattr(training, "_front_end", None)
        model = TensorModel.build(splits, default_lexicon(), RewriteScheme.RE,
                                  TensorAnsatzConfig(kind))
        # one per group and one per word block, during build: under mps and
        # spider the verbs' 2 x 2 x 2 tensors are split, the rest read whole
        words = [block.batch for block in model._blocks if block.engine is not None]
        assert len(words) == (kind is not TensorAnsatz.TENSOR)
        assert len(model.contraction.groups) == 1 and len(searches) == 1 + len(words)
        # the contraction and each lowering's word blocks are held with the
        # corpus: a repeat build searches nothing
        again = TensorModel.build(splits, default_lexicon(), RewriteScheme.RE,
                                  TensorAnsatzConfig(kind))
        assert len(searches) == 1 + len(words)
        assert all(a.batch is b.batch
                   for a, b in zip(again.contraction.groups, model.contraction.groups))
        assert all(a.batch is b.batch for a, b in zip(again._blocks, model._blocks))

        def no_search(*args, **kwargs):
            raise AssertionError("contraction path searched after compile")

        def plain_einsum(*operands, optimize=False, out=None):
            # np.einsum given a path still rebuilds its contraction list
            assert optimize is False
            return np.einsum(*operands, optimize=False, out=out)

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
        groups, sizes = model.contraction.groups, model.contraction.sizes
        batches = [group.batch for group in groups]
        at = np.concatenate([group.at for group in groups])
        assert sorted(at) == list(range(sum(sizes.values())))  # every split's rows
        assert all((np.diff(group.at) > 0).all() for group in groups)  # ascending

        def no_compile(*args):
            raise AssertionError("a batch compiled after build")

        monkeypatch.setattr(tensornet, "compile_batch", no_compile)
        monkeypatch.setattr(simulator, "compile_batch", no_compile)
        for name in sizes:
            model.eval_split(name, model.init_params(rng))
        assert all(a is b for a, b in zip([group.batch for group in groups], batches))

    @pytest.mark.parametrize("family", ("circuit", "tensor"))
    def test_gather_needs_a_column_per_slot(self, family, toy_lexicon):
        splits = CorpusSplits(*(LabeledSet(name, ((("Alice", "likes", "Bob"), 1),
                                                  (("Bob", "likes", "Alice"), 0)))
                                for name in ("train", "dev", "test")))
        if family == "circuit":
            model = CircuitModel.build(splits, toy_lexicon, RewriteScheme.RE, TINY_ANSATZ)
        else:
            model = TensorModel.build(splits, toy_lexicon, RewriteScheme.RE,
                                      TensorAnsatzConfig(TensorAnsatz.TENSOR))
        (group,) = model.contraction.groups
        slots = 12  # two noun vectors and a verb's 2 x 2 x 2 tensor

        def rebuild(gather):
            contraction = dataclasses.replace(
                model.contraction, groups=[dataclasses.replace(group, gather=gather)])
            return type(model)(contraction, model.symbols, model.shapes, model._blocks)

        assert group.batch.n_slots == slots and group.gather.shape == (6, slots)
        probs, _ = rebuild(group.gather).eval_split("train", np.ones(model.n_params))
        assert probs.shape == (2, 2)
        for bad in ((6, slots + 1), (6, slots - 1), (6,)):
            with pytest.raises(Error, match=re.escape(f"gather of shape {bad} for {slots} slots")):
                rebuild(np.zeros(bad, dtype=np.intp))

    def test_rows_grouped_in_order_of_first_appearance(self):
        def lset(name, items):
            return LabeledSet(name, tuple((tuple(w.split()), y) for w, y in items))

        splits = CorpusSplits(
            lset("train", [("man cooks meal", 1), ("skillful man prepares sauce", 0),
                           ("woman bakes sauce", 1)]),
            lset("dev", [("woman bakes tasty dinner", 1), ("man runs program", 0)]),
            lset("test", [("man cooks meal", 1)]))
        # over all splits, in order of first use with train first; a
        # group's train rows lead its batch.  Neither four-word pattern
        # holds the other, and "man cooks meal" joins the first of them
        model = CircuitModel.build(splits, default_lexicon(), RewriteScheme.RE, TINY_ANSATZ)
        rows = [rows_by_split(model, group.at) for group in model.contraction.groups]
        assert [r["train"] for r in rows] == [[0, 1, 2], []]
        assert [r["dev"] for r in rows] == [[1], [0]]
        assert [r["test"] for r in rows] == [[0], []]
        group = model.contraction.groups[0]
        adjectives, subjects = (group.gather[:, cols] for cols in group.batch.columns[:2])
        # man, man, woman, man, man; only "skillful man prepares sauce"
        # has its adjective, the others read one pad
        assert [np.array_equal(subjects[0], row) for row in subjects] == [
            True, True, False, True, True]
        assert [np.array_equal(adjectives[0], row) for row in adjectives] == [
            True, False, True, True, True]


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
        np.testing.assert_allclose(named_to_params(model, named), theta)

    def test_spsa_also_trains_tensors(self):
        """Either optimizer can drive either model family."""
        cfg = TrainConfig(epochs=2, seed=0, optimizer=SPSAConfig())
        h = fit(tensor_model(), tiny_splits(), cfg)
        assert len(h) == 2


def value_rows(model, thetas: np.ndarray) -> np.ndarray:
    """Each point's value vector, one row each: its words' tensors as the
    model's map stage writes them, then the pads."""
    contraction = model.contraction
    values = np.zeros((len(thetas), contraction.n_values), contraction.dtype)
    values[:, contraction.n_word_values:] = contraction.pads
    model._values(thetas, values)
    return values


def host_network(nets: list, batch, at):
    """The network, compiled alone, of one of a group's host rows: a row
    whose own network has a parameter node per batch position."""
    return next(nets[p] for p in at.tolist()
                if sum(isinstance(n, ParamNode) for n in nets[p].nodes) == len(batch.shapes))


def cup_count(net) -> int:
    return sum(isinstance(node, tensornet.CupDeltaNode) for node in net.nodes)


def assert_groups_contract_rows(model, nets_by_split: dict, start: dict, cup_weight: float):
    """Every corpus row sits in one of the model's groups, whose rows are
    ascending, and each group's batch is its host rows' network
    (``nets_by_split``, every sentence compiled alone with one dense
    tensor per box) compiled, scaled by ``cup_weight`` per cup.  At
    random word tensors, ``start`` giving each ``(word, fingerprint)``'s
    first entry in the value vector, and the model's pads after them,
    every row of a batch contracts to its own network, each cup weighted
    by ``cup_weight``, within 1e-12: a row that lacks some of its host's
    modifiers reads pads there."""
    nets = [net for ns in nets_by_split.values() for net in ns]
    contraction = model.contraction
    rows = np.concatenate([group.at for group in contraction.groups]).tolist()
    assert sorted(rows) == list(range(len(nets)))
    words = np.random.default_rng(0).standard_normal(contraction.n_values - len(contraction.pads))
    values = np.concatenate([words, contraction.pads])
    for group in contraction.groups:
        batch, at, gather = group.batch, group.at, group.gather
        assert (np.diff(at) > 0).all()
        host = host_network(nets, batch, at)
        want = tensornet.compile_batch(host)
        assert (batch.shapes, batch.columns, batch.out_shape) == (
            want.shapes, want.columns, want.out_shape)
        assert batch.factor == pytest.approx(want.factor * cup_weight ** cup_count(host),
                                             rel=1e-15)
        assert [s for s, _ in batch.forward] == [s for s, _ in want.forward]
        v = tensornet.Bound(batch, values[gather]).forward()
        for row, p in zip(v, at.tolist()):
            store = {n.symbol: values[start[n.symbol.word, n.symbol.type_fingerprint]:][
                :math.prod(n.shape)].reshape(n.shape)
                for n in nets[p].nodes if isinstance(n, ParamNode)}
            np.testing.assert_allclose(
                row, contract(nets[p], store).ravel() * cup_weight ** cup_count(nets[p]),
                rtol=0, atol=1e-12)


def assert_same_tensor_model(model: TensorModel, diagrams, cfg) -> None:
    """The model's symbols and shapes equal those of every sentence of
    ``diagrams`` (each split's, rewritten) compiled alone under ``cfg``.
    Its value vector holds the words' tensors in the symbol order of the
    per-sentence model at ``cfg``'s wire dimensions with one dense tensor
    per box, then the pads, and its groups contract every sentence as that
    sentence's network alone (:func:`assert_groups_contract_rows`).  Each
    word's tensor is its pieces contracted: one tensornet block per tensor
    shape that ``cfg`` splits, the other words read straight from their
    parameters."""
    def compiled(cfg):
        return {name: [compile_network(d, cfg) for d in ds] for name, ds in diagrams.items()}

    ref = reference_tensor_model(compiled(cfg))
    assert (model.symbols, model.shapes, model.contraction.sizes) == (
        ref.symbols, ref.shapes, ref.contraction.sizes)
    nets = compiled(dataclasses.replace(cfg, kind=TensorAnsatz.TENSOR))
    dense = reference_tensor_model(nets)
    assert model.contraction.n_values == dense.n_params + len(model.contraction.pads)
    start = {(s.word, s.type_fingerprint): lo for s, _, lo, _ in dense._tables()}
    assert_groups_contract_rows(model, nets, start, 1.0)
    shapes = {shape for _, shape, _, _ in dense._tables()}
    split = {shape for shape in shapes
             if len(tensornet._lower_word(Symbol("", "", 0), shape, cfg, 0)[0]) > 1}
    assert sorted(b.batch.out_shape for b in model._blocks if b.engine) == sorted(split)
    assert sum(block.engine is None for block in model._blocks) == (split != shapes)
    theta = model.init_params(np.random.default_rng(0))
    values, store = value_rows(model, theta[None])[0], model.store(theta)
    for symbol, shape, lo, hi in dense._tables():
        nodes, edges, legs = tensornet._lower_word(symbol, shape, cfg, 0)
        want = contract(tensornet.Network(tuple(nodes), tuple(edges), tuple(legs)), store)
        np.testing.assert_allclose(values[lo:hi], want.ravel(), rtol=0, atol=1e-14)


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
            assert_same_tensor_model(model, TestFrontEndMemo.fresh(splits, mc_lexicon, scheme), cfg)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_steps_do_not_depend_on_the_row_count(self, kind, scheme, mc_lexicon, monkeypatch):
        # a batch's path is searched once, for one row; searched at the
        # group's real row count it gives the same steps.  Every lowering
        # contracts one dense tensor per box
        cfg = TensorAnsatzConfig(kind)
        dense = TensorAnsatzConfig(TensorAnsatz.TENSOR)
        searched = []

        def at_rows(n):
            def search(subscripts, *operands, **kwargs):
                searched.append(n)
                resized = (np.empty((n, *op.shape[1:])) for op in operands)
                return np.einsum_path(subscripts, *resized, **kwargs)
            return search

        def steps(batch):  # each step's einsums and the nodes they read
            return batch.forward, [entry[:4] for entry in batch.sweep]

        for seed in range(4):
            splits = generate_mc(seed)
            model = TensorModel.build(splits, mc_lexicon, scheme, cfg)
            nets = [net for ns in reference_networks(splits, mc_lexicon, scheme, dense).values()
                    for net in ns]
            assert len(model.contraction.groups) == 1  # every MC pattern in its widest one's group
            for group in model.contraction.groups:
                with monkeypatch.context() as m:
                    m.setattr(tensornet, "np", numpy_with(einsum_path=at_rows(len(group.at))))
                    want = tensornet.compile_batch(host_network(nets, group.batch, group.at))
                assert steps(group.batch) == steps(want)
        assert len(searched) == 4 and min(searched) > 1

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
        corpus = training._corpus(splits, lexicon, RewriteScheme.RE)
        assert [shape.at.tolist() for shape in corpus.shapes] == [[0, 3], [1, 2, 4]]
        (group,) = model.contraction.groups
        assert group.at.tolist() == [0, 1, 2, 3, 4]
        nets = reference_networks(splits, lexicon, RewriteScheme.RE, cfg)
        assert_same_tensor_model(model, TestFrontEndMemo.fresh(splits, lexicon, RewriteScheme.RE),
                                 cfg)
        theta = model.init_params(rng)
        labels = splits.train.labels()
        grad, probs, _ = model.grad_split("train", theta, labels)
        want_probs, want = tensor_reference_split(model, nets["train"], theta, labels)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()


def mixed_corpus(mc_lexicon) -> tuple[CorpusSplits, Lexicon]:
    """All four MC patterns, and sentences of a noun and an intransitive
    verb: every verb also lists ``n.r@s``, so "man cooks" has the pattern
    of "man cooks meal" without its object, a noun, not a modifier."""
    lexicon = Lexicon({**{w: mc_lexicon.lookup(w) for w in mc_lexicon.words()},
                       **{v: tuple(map(PregroupType.parse, ("n.r@s@n.l", "n.r@s")))
                          for v in VERBS}})

    def more(lset, items):
        return LabeledSet(lset.name, lset.items + tuple((tuple(w.split()), y) for w, y in items))

    base = pattern_splits()
    return CorpusSplits(more(base.train, [("man cooks", 1), ("woman debugs", 0)]),
                        more(base.dev, [("woman bakes", 1)]),
                        more(base.test, [("man runs", 0)])), lexicon


HOST_FAMILIES = (CircuitAnsatzConfig(CircuitAnsatz.SIM14, 1, 1),
                 CircuitAnsatzConfig(CircuitAnsatz.IQP, 1, 2), *map(TensorAnsatzConfig, KINDS))
HOST_IDS = ("sim14", "iqp", *(k.value for k in KINDS))


def build(cfg, splits, lexicon, scheme):
    family = TensorModel if isinstance(cfg, TensorAnsatzConfig) else CircuitModel
    return family.build(splits, lexicon, scheme, cfg)


class TestHostGroups:
    """A sentence shape that is a longer shape of its corpus without some
    modifiers joins that host's group, each box it lacks reading an
    identity pad that no parameter owns; a shape with no host keeps its
    own group."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("cfg", HOST_FAMILIES, ids=HOST_IDS)
    def test_mixed_corpus_matches_per_sentence_oracles(self, cfg, scheme, mc_lexicon, rng):
        splits, lexicon = mixed_corpus(mc_lexicon)
        model = build(cfg, splits, lexicon, scheme)
        # the MC patterns in the widest one's group; the intransitive
        # sentences (train 8 and 9, dev 2, test 2) in their own
        assert [group.at.tolist() for group in model.contraction.groups] == [
            [p for p in range(16) if p not in (8, 9, 12, 15)], [8, 9, 12, 15]]
        theta = model.init_params(rng)
        for lset in splits:
            labels = lset.labels()
            probs, degenerate = model.eval_split(lset.name, theta)
            grad, grad_probs, _ = model.grad_split(lset.name, theta, labels)
            np.testing.assert_array_equal(grad_probs, probs)
            if isinstance(cfg, TensorAnsatzConfig):
                nets = reference_networks(splits, lexicon, scheme, cfg)[lset.name]
                want, want_grad = tensor_reference_split(model, nets, theta, labels)
                assert degenerate == 0
                assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
            else:
                circuits = reference_circuits(splits, lexicon, scheme, cfg)[lset.name]
                want, want_grad, want_degenerate = reference_split(model, circuits, theta, labels)
                assert degenerate == want_degenerate
                np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cfg", HOST_FAMILIES, ids=HOST_IDS)
    def test_pads_own_no_parameters(self, cfg, mc_lexicon):
        # the symbols, their order and the initial draw are those of every
        # sentence compiled alone; the value vector ends in one pad, the
        # adjective's identity, scaled by sqrt(2) for the cup it brings in
        # a circuit's ``re`` contraction
        splits, lexicon = mixed_corpus(mc_lexicon)
        for scheme in SCHEMES:
            model = build(cfg, splits, lexicon, scheme)
            fresh = TestFrontEndMemo.fresh(splits, lexicon, scheme)
            if isinstance(cfg, TensorAnsatzConfig):
                ref = reference_tensor_model({name: [compile_network(d, cfg) for d in ds]
                                              for name, ds in fresh.items()})
                table = ref.symbols, ref.shapes, ref.n_params
                want, scale = ref.init_params(np.random.default_rng(7)), 1.0
            else:
                symbols = list(dict.fromkeys(s for ds in fresh.values() for d in ds
                                             for s in compile_circuit(d, cfg).symbols))
                table = symbols, [()] * len(symbols), len(symbols)
                want = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=len(symbols))
                scale = np.sqrt(2.0) if scheme is RewriteScheme.RE else 1.0
            assert (model.symbols, model.shapes, model.n_params) == table
            assert model.init_params(np.random.default_rng(7)).tobytes() == want.tobytes()
            pads = model.contraction.pads
            np.testing.assert_array_equal(pads, np.eye(2).ravel() * scale)
            values = value_rows(model, np.stack([model.init_params(np.random.default_rng(k))
                                                 for k in range(2)]))
            assert model.contraction.n_word_values == model.contraction.n_values - len(pads)
            np.testing.assert_array_equal(values[:, -4:], np.stack([pads] * 2))

    def test_candidate_failing_the_identity_check_is_refused(self, mc_lexicon, monkeypatch):
        def shape(sentence):
            return rewrite(parse_sentence(sentence.split(), mc_lexicon), RewriteScheme.RE)

        def swapped(net):
            # boxes 0 and 2 trade their wires: "meal cooks man" read with
            # the subject's tensor first, the types of "man cooks meal"
            other = {0: 2, 2: 0}

            def leg(node_leg):
                return other.get(node_leg[0], node_leg[0]), node_leg[1]

            return dataclasses.replace(net, edges=tuple((leg(a), leg(b)) for a, b in net.edges),
                                       outputs=tuple(map(leg, net.outputs)))

        host, short = shape("skillful man cooks meal"), shape("man cooks meal")
        host_net, short_net = compile_network(host, QUBITS), compile_network(short, QUBITS)
        for net, want in ((short_net, (0,)), (swapped(short_net), None)):
            assert training._embedding((host, [0], host_net, None),
                                       (short, [], None, tensornet.structure_key(net))) == want
        # a corpus whose check sees that network keeps the shape in its own
        # group, though its types fit its host's
        monkeypatch.setattr(training, "_front_end", None)
        monkeypatch.setattr(training, "compile_network", lambda d, cfg: (
            swapped if len(d.boxes) == 3 else lambda net: net)(compile_network(d, cfg)))
        model = TensorModel.build(pattern_splits(), mc_lexicon, RewriteScheme.RE,
                                  TensorAnsatzConfig(TensorAnsatz.TENSOR))
        assert [group.at.tolist() for group in model.contraction.groups] == [
            [0, 1, 8], [2, 3, 4, 5, 6, 7, 9, 10, 11]]


class TestRequestWork:
    """A gradient request runs each map block and each group forward once,
    then one scoring pass over its rows, which also gives the
    differentiated split's cotangent; the map stage's pullback reads the
    blocks' held passes and runs no forward pass of its own.  A fit scores
    each of its requests in one pass, and binds a reverse sweep only where
    it differentiates."""

    @pytest.mark.parametrize("cfg", (TINY_ANSATZ, *map(TensorAnsatzConfig, KINDS)),
                             ids=("circuit", *(k.value for k in KINDS)))
    def test_one_pass_per_stage(self, cfg, monkeypatch, rng):
        splits = pattern_splits()
        family = CircuitModel if cfg is TINY_ANSATZ else TensorModel
        model = family.build(splits, default_lexicon(), RewriteScheme.RE, cfg)
        assert len(model.contraction.groups) == 1  # every sentence pattern, with train rows
        theta = model.init_params(rng)
        points = [(("train", "dev"), theta)]
        labels = point_labels(splits, points)
        want, _ = model.score(points, labels, True)
        steps, gates, passes_of = [], [], []
        apply_rows, cotangent = simulator._apply_rows, training._cotangent

        def scoring(*args):
            passes_of.append(args[0].shape)
            return cotangent(*args)

        def einsum(subscripts, *operands, **kwargs):
            steps.append(subscripts)
            return np.einsum(subscripts, *operands, **kwargs)

        def gate(state, op, angles):
            gates.append(op)
            return apply_rows(state, op, angles)

        monkeypatch.setattr(tensornet, "np", numpy_with(einsum=einsum))
        monkeypatch.setattr(simulator, "_apply_rows", gate)
        monkeypatch.setattr(training, "_cotangent", scoring)
        grad, _ = model.score(points, labels, True)

        def passes(batch) -> int:
            # a forward pass runs its batch's first gate or contraction
            # step, which no reverse sweep runs
            if isinstance(batch, simulator.CircuitBatch):
                return sum(op is batch.ops[0] for op in gates)
            return sum(s is batch.forward[0][0] for s in steps)

        blocks = [block.batch for block in model._blocks if block.engine is not None]
        assert [passes(batch) for batch in blocks] == [1] * len(blocks)
        groups = model.contraction.groups
        assert [passes(group.batch) for group in groups] == [1] * len(groups)
        assert passes_of == [(len(splits.train), 2)]  # the differentiated split's rows
        assert grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("optimizer", (SPSAConfig(), AdaptiveGDConfig()), ids=("spsa", "gd"))
    @pytest.mark.parametrize("make", (circuit_model, tensor_model), ids=("circuit", "tensor"))
    @pytest.mark.parametrize("epochs", (1, 4))
    def test_one_scoring_pass_per_fit_request(self, make, optimizer, epochs, monkeypatch):
        # under SPSA each epoch's probe pair, which its step reads, and
        # then the history: one pass over the train and dev columns of the
        # epochs' stack and one over the closing request's
        model, passes, scores = make(), [], training._scores
        monkeypatch.setattr(training, "_scores", lambda *args: passes.append(args[0].shape)
                            or scores(*args))
        fit(model, tiny_splits(), TrainConfig(epochs=epochs, optimizer=optimizer))
        train, dev, test = (len(lset) for lset in tiny_splits())
        spsa = isinstance(optimizer, SPSAConfig)
        want = [(2, train, 2)] * epochs if spsa else []
        assert passes == want + [(epochs, train + dev, 2), (1, dev + test, 2)]

    @pytest.mark.parametrize("make", (circuit_model, lambda: tensor_model(TensorAnsatz.MPS)),
                             ids=("circuit", "mps"))
    def test_only_differentiated_requests_bind_a_reverse_sweep(self, make, monkeypatch):
        # a held pass binds its reverse sweep's arrays on its first
        # backward: none under SPSA, which differentiates nothing, and under
        # adaptive GD those of the epoch request's groups and of the map
        # stage at one point, never the closing request's
        for optimizer in (SPSAConfig(), AdaptiveGDConfig()):
            model = make()
            monkeypatch.setattr(model.contraction, "requests", {})
            fit(model, tiny_splits(), TrainConfig(epochs=2, optimizer=optimizer))
            gd = isinstance(optimizer, AdaptiveGDConfig)
            plans = model.contraction.requests
            epoch = (("train", "dev"),) if gd else (("train", "dev"), ("train",), ("train",))
            assert list(plans) == [epoch, (("dev", "test"),)]
            swept = {runs: [bound.sweep is not None for bound, *_ in plan.groups]
                     for runs, plan in plans.items()}
            assert swept == {runs: [gd and runs[0] == ("train", "dev") and len(first) > 0
                                    for _, _, first, _ in plan.groups]
                             for runs, plan in plans.items()}
            assert any(any(row) for row in swept.values()) == gd
            blocks = {points: [bound[0].sweep is not None for bound in passes if bound]
                      for points, passes in model._passes.items()}
            assert blocks and blocks == {points: [gd] * len(row) for points, row in blocks.items()}


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
        theta = named_to_params(model, named)
        probs, degenerate = model.eval_split("train", theta)
        assert degenerate == 1
        np.testing.assert_allclose(probs[0], 0.5)
        grad, grad_probs, degenerate = model.grad_split("train", theta, labels)
        total = bce_loss(grad_probs, labels).mean()
        assert degenerate == 1
        want, rest_probs, _ = rest.grad_split("train", named_to_params(rest, named), labels[1:])
        want_total = bce_loss(rest_probs, labels[1:]).mean()
        got = model.params_to_named(grad)
        for name, g in rest.params_to_named(want).items():
            np.testing.assert_allclose(got.pop(name), np.multiply(g, 3 / 4), rtol=0, atol=1e-12)
        # left: "cooks", "meal" and the words only dev and test use
        assert {"cooks", "meal"} <= {name.split("|")[0] for name in got}
        assert all(not np.any(g) for g in got.values())
        assert total == pytest.approx((3 * want_total + np.log(2)) / 4, abs=1e-12)

    @pytest.mark.parametrize("kind", tuple(TensorAnsatz), ids=lambda k: k.value)
    def test_tensor_initial_draw_is_the_per_symbol_draw(self, kind, mc_lexicon):
        # one draw of every entry at its scale: the per-symbol loop's bytes,
        # and the generator left where the loop leaves it (SPSA draws next)
        for corpus_seed in (0, 2):
            model = TensorModel.build(generate_mc(corpus_seed), mc_lexicon, RewriteScheme.RE,
                                      TensorAnsatzConfig(kind))
            for seed in (0, 1, 7, 123):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                theta, want = model.init_params(rng), reference_init_params(model.shapes, ref)
                assert theta.tobytes() == want.tobytes() and rng.random() == ref.random()

    @pytest.mark.parametrize("make", (circuit_model, tensor_model), ids=("circuit", "tensor"))
    def test_wrong_length_parameter_vectors_are_rejected(self, make, rng):
        model = make()
        theta = model.init_params(rng)
        labels = tiny_splits().train.labels()
        for bad in (theta[:-1], np.append(theta, 1.0)):
            match = re.escape(f"expected {model.n_params} parameters, got {len(bad)}")
            with pytest.raises(Error, match=match):
                model.eval_split("train", bad)
            with pytest.raises(Error, match=match):
                model.grad_split("train", bad, labels)
            for k in range(3):  # as an SPSA epoch asks: train and dev, then both probes
                points = [(("train", "dev"), theta), (("train",), theta), (("train",), theta)]
                points[k] = (points[k][0], bad)
                with pytest.raises(Error, match=match):
                    model.score(points, point_labels(tiny_splits(), points))

    @pytest.mark.parametrize("make", (circuit_model, tensor_model), ids=("circuit", "tensor"))
    def test_wrong_label_counts_are_rejected(self, make, rng):
        model = make()
        theta = model.init_params(rng)
        labels = tiny_splits().train.labels()
        for bad in (labels[:-1], (*labels, 1)):
            match = re.escape(f"expected {len(labels)} labels, got {len(bad)}")
            with pytest.raises(Error, match=match):
                model.grad_split("train", theta, bad)
        points = [(("train", "dev"), theta), (("train",), theta)]
        rows = point_labels(tiny_splits(), points)  # one per row of the request
        for bad in (rows[:-1], np.append(rows, 1)):
            match = re.escape(f"expected {len(rows)} labels, got {len(bad)}")
            for grad in (False, True):
                with pytest.raises(Error, match=match):
                    model.score(points, bad, grad)

    @pytest.mark.parametrize("make", (circuit_model, tensor_model), ids=("circuit", "tensor"))
    def test_a_run_of_splits_must_be_consecutive(self, make, rng):
        model = make()
        points = [(("train", "test"), model.init_params(rng))]
        with pytest.raises(Error, match=re.escape("splits ('train', 'test') are not consecutive")):
            model.score(points, point_labels(tiny_splits(), points))

    @pytest.mark.parametrize("make", (circuit_model, tensor_model), ids=("circuit", "tensor"))
    def test_an_unknown_split_is_an_error(self, make, rng):
        model = make()
        theta = model.init_params(rng)
        match = re.escape("no split 'val'; the corpus's splits are ['train', 'dev', 'test']")
        with pytest.raises(Error, match=match):
            model.eval_split("val", theta)
        for runs in ((("val",),), (("train", "dev"), ("dev", "val"))):
            with pytest.raises(Error, match=match):
                model.score([(names, theta) for names in runs], np.zeros(0, np.intp))

    @pytest.mark.parametrize("family, cfg", (
        (CircuitModel, TINY_ANSATZ), (TensorModel, TensorAnsatzConfig(TensorAnsatz.TENSOR))),
        ids=("circuit", "tensor"))
    def test_an_empty_split_has_no_gradient(self, family, cfg, rng):
        splits = tiny_splits()
        splits = CorpusSplits(splits.train, LabeledSet("dev", ()), splits.test)
        model = family.build(splits, default_lexicon(), RewriteScheme.RE, cfg)
        theta = model.init_params(rng)
        probs, degenerate = model.eval_split("dev", theta)
        assert probs.shape == (0, 2) and degenerate == 0
        with pytest.raises(EmptyEvalSet, match="no sentences to differentiate"):
            model.grad_split("dev", theta, ())

    def test_circuit_named_round_trip_gives_floats(self, rng):
        model = circuit_model()
        theta = model.init_params(rng)
        named = model.params_to_named(theta)
        assert list(named) == [s.name for s in model.symbols]
        assert all(type(v) is float for v in named.values())
        np.testing.assert_array_equal(named_to_params(model, named), theta)


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
        # the fit starts with every sentence whose subject is "man" at
        # amplitude 0; under adaptive GD its words get no gradient and stay
        def build():
            model = circuit_model(RewriteScheme.RE)
            draw = model.init_params
            model.init_params = lambda rng: dead_man(model, draw(rng))
            return model

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


class TestSplitNetworkOracle:
    """An mps or spider model contracts each word's pieces to its dense
    tensor before the sentence contraction.  Its oracle is a model over
    every sentence compiled alone under the lowering, each word's pieces
    contracted inside every sentence's network."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", (TensorAnsatz.MPS, TensorAnsatz.SPIDER),
                             ids=lambda k: k.value)
    def test_fit_follows_split_networks(self, kind, scheme, mc_lexicon):
        splits, cfg = generate_mc(1), TensorAnsatzConfig(kind)
        model = TensorModel.build(splits, mc_lexicon, scheme, cfg)
        oracle = reference_tensor_model(reference_networks(splits, mc_lexicon, scheme, cfg))
        train = TrainConfig(epochs=20, seed=1, optimizer=AdaptiveGDConfig())
        theta = model.init_params(np.random.default_rng(train.seed))  # fit's first draw
        for lset in splits:
            grad, probs, _ = model.grad_split(lset.name, theta, lset.labels())
            want, want_probs, _ = oracle.grad_split(lset.name, theta, lset.labels())
            np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
            assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()
        h, ref = fit(model, splits, train), reference_fit(oracle, splits, train)
        for field in ("train_loss", "val_loss"):
            np.testing.assert_allclose(getattr(h, field), getattr(ref, field), rtol=0, atol=1e-9,
                                       err_msg=field)
        assert (h.train_acc, h.val_acc, h.test_acc) == (ref.train_acc, ref.val_acc, ref.test_acc)


QUBITS = TensorAnsatzConfig(TensorAnsatz.TENSOR)  # a dense tensor per box, 2 per wire


def assert_same_circuit_model(model: CircuitModel, circuits_by_split, nets_by_split) -> None:
    """The model's symbols are those of ``circuits_by_split`` in first-use
    order, its value vector holds every word's map of the per-sentence
    networks ``nets_by_split`` (at one qubit per wire), then the pads, and
    its groups contract every sentence as that sentence's network alone,
    each cup weighted ``1 / sqrt(2)`` (:func:`assert_groups_contract_rows`).
    The model's corpus must be the one held."""
    symbols = list(dict.fromkeys(s for cs in circuits_by_split.values() for c in cs
                                 for s in c.symbols))
    assert model.symbols == symbols and model.n_params == len(symbols)
    contraction, corpus = model.contraction, training._front_end
    assert contraction.sizes == {name: len(cs) for name, cs in circuits_by_split.items()}
    start = {corpus.words[w]: cols[0] for w, *_, cols in corpus.stages[CircuitModel]}
    shapes, _ = reference_tensor_groups(nets_by_split)
    assert contraction.n_values == (sum(math.prod(shape) for shape in shapes.values())
                                    + len(contraction.pads))
    assert_groups_contract_rows(model, nets_by_split, start, 2 ** -0.5)


def held_diagrams(corpus) -> dict[str, list]:
    """Every split's diagrams rebuilt from a held corpus: each sentence's
    shape with box ``b`` named by its word ``b``, whose entry carries that
    box's type fingerprint."""
    words, rebuilt = corpus.words, {}
    for shape in corpus.shapes:
        boxes = shape.diagram.boxes
        for row, ws in zip(shape.at.tolist(), shape.ids.tolist()):
            assert [words[w][1] for w in ws] == list(map(type_fingerprint, boxes))
            rebuilt[row] = dataclasses.replace(shape.diagram, boxes=tuple(
                dataclasses.replace(box, name=words[w][0]) for box, w in zip(boxes, ws)))
    diagrams = [rebuilt[row] for row in range(len(rebuilt))]
    start = split_starts(corpus.sizes)
    return {name: diagrams[start[name]:start[name] + n] for name, n in corpus.sizes.items()}


class TestFrontEndMemo:
    """The plan of the most recent corpus, and its contractions."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(training, "_front_end", None)

    @staticmethod
    def fresh(splits, lexicon, scheme):
        return {lset.name: [rewrite(parse_sentence(list(ws), lexicon), scheme)
                            for ws in lset.sentences()] for lset in splits}

    @pytest.mark.parametrize("optimizer", (SPSAConfig(), AdaptiveGDConfig()), ids=("spsa", "gd"))
    @pytest.mark.parametrize("family", ("circuit", "tensor"))
    def test_labels_are_bound_per_fit(self, family, optimizer, mc_lexicon, monkeypatch):
        # the key holds no labels: a corpus with every label flipped shares
        # the held contraction and its plans, and each fit scores against
        # its own labels
        splits = generate_mc(0)
        flipped = CorpusSplits(*(LabeledSet(lset.name, tuple((ws, 1 - y) for ws, y in lset.items))
                                 for lset in splits))

        def build(corpus):
            if family == "circuit":
                return CircuitModel.build(corpus, mc_lexicon, RewriteScheme.RE,
                                          CircuitAnsatzConfig(CircuitAnsatz.IQP, 1))
            return TensorModel.build(corpus, mc_lexicon, RewriteScheme.RE,
                                     TensorAnsatzConfig(TensorAnsatz.TENSOR))

        cfg = TrainConfig(epochs=4, seed=1, optimizer=optimizer)
        models = [build(corpus) for corpus in (splits, flipped)]
        assert models[0].contraction is models[1].contraction
        together = [fit(model, corpus, cfg) for model, corpus in zip(models, (splits, flipped))]
        assert together[0].train_loss != together[1].train_loss
        for corpus, h in zip((splits, flipped), together):
            monkeypatch.setattr(training, "_front_end", None)
            assert_same_history(h, fit(build(corpus), corpus, cfg))

    def test_lexicon_types_are_part_of_the_key(self, toy_lexicon):
        splits = CorpusSplits(*(LabeledSet(name, ((("Alice", "likes", "Bob"), 1),))
                                for name in ("train", "dev", "test")))
        # the same words under other types: s.n^l . n.n^l . n reduces to s
        other = Lexicon.from_expressions({"Alice": "s@n.l", "likes": "n@n.l", "Bob": "n"})
        first = held_diagrams(training._corpus(splits, toy_lexicon, RewriteScheme.RE))
        second = held_diagrams(training._corpus(splits, other, RewriteScheme.RE))
        assert first == self.fresh(splits, toy_lexicon, RewriteScheme.RE)
        assert second == self.fresh(splits, other, RewriteScheme.RE)
        assert first != second

    def test_scheme_is_part_of_the_key(self, mc_lexicon):
        splits = pattern_splits()
        plain = held_diagrams(training._corpus(splits, mc_lexicon, RewriteScheme.RE))
        normal = held_diagrams(training._corpus(splits, mc_lexicon, RewriteScheme.RE_NORM_CUR_NORM))
        assert plain == self.fresh(splits, mc_lexicon, RewriteScheme.RE)
        assert normal == self.fresh(splits, mc_lexicon, RewriteScheme.RE_NORM_CUR_NORM)
        assert plain != normal

    def test_one_corpus_held(self, mc_lexicon, monkeypatch):
        # one parse per sentence shape: pattern_splits has all four MC
        # patterns, tiny_splits one
        parsed = []
        monkeypatch.setattr(training, "parse_sentence",
                            lambda words, lex: parsed.append(words) or parse_sentence(words, lex))
        a, b = pattern_splits(), tiny_splits()
        first = training._corpus(a, mc_lexicon, RewriteScheme.RE)
        assert training._corpus(a, mc_lexicon, RewriteScheme.RE) is first  # a hit
        assert len(parsed) == len(first.shapes) == 4
        assert held_diagrams(first) == self.fresh(a, mc_lexicon, RewriteScheme.RE)
        training._corpus(b, mc_lexicon, RewriteScheme.RE)
        assert held_diagrams(training._front_end) == self.fresh(b, mc_lexicon, RewriteScheme.RE)
        again = training._corpus(a, mc_lexicon, RewriteScheme.RE)  # b pushed a out
        assert again is not first and held_diagrams(again) == held_diagrams(first)
        # the word entries, split sizes and pads
        assert (again.words, again.sizes, again.pads) == (first.words, first.sizes, first.pads)
        assert len(parsed) == 4 + 1 + 4

    def test_unknown_word_is_not_cached(self, mc_lexicon):
        good = pattern_splits()
        held = training._corpus(good, mc_lexicon, RewriteScheme.RE)
        bad = CorpusSplits(LabeledSet("train", ((("man", "juggles", "meal"), 1),)),
                           good.dev, good.test)
        for _ in range(2):  # raised afresh, not served from the memo
            with pytest.raises(UnknownWord, match="juggles"):
                training._corpus(bad, mc_lexicon, RewriteScheme.RE)
            assert training._front_end is held

    def test_circuit_then_tensor_build_parse_once(self, mc_lexicon, monkeypatch):
        parsed, validated = [], []
        monkeypatch.setattr(training, "parse_sentence",
                            lambda words, lex: parsed.append(words) or parse_sentence(words, lex))
        monkeypatch.setattr(circuit, "validate", lambda d: validated.append(d) or validate(d))
        splits, scheme = generate_mc(0), RewriteScheme.RE_NORM_CUR_NORM
        CircuitModel.build(splits, mc_lexicon, scheme, CircuitAnsatzConfig(CircuitAnsatz.IQP, 1))
        TensorModel.build(splits, mc_lexicon, scheme, TensorAnsatzConfig(TensorAnsatz.MPS))
        # once per sentence shape, not per sentence (130)
        assert len(parsed) == len(validated) == 4
        assert held_diagrams(training._front_end) == self.fresh(splits, mc_lexicon, scheme)

    def test_each_family_places_every_sentence_once(self, mc_lexicon, monkeypatch):
        laid, compiled = [], []
        monkeypatch.setattr(training, "layout", lambda d: laid.append(d) or layout(d))
        monkeypatch.setattr(training, "compile_network",
                            lambda d, cfg: compiled.append(cfg) or compile_network(d, cfg))
        # every sentence shape (4 on generate_mc(0)) is laid out once and
        # compiled once for the host check, with a dense tensor per box, 2
        # per wire, and the one host once more for the contraction
        splits, scheme = generate_mc(0), RewriteScheme.RE
        for _ in range(2):  # the second round's builds place none
            for layers in (1, 2):
                CircuitModel.build(splits, mc_lexicon, scheme,
                                   CircuitAnsatzConfig(CircuitAnsatz.SIM14, layers))
            for kind in TensorAnsatz:
                TensorModel.build(splits, mc_lexicon, scheme, TensorAnsatzConfig(kind))
            # all three lowerings and the circuits share one contraction
            assert len(laid) == 4
            assert compiled == [TensorAnsatzConfig(TensorAnsatz.TENSOR)] * 5

    def test_circuit_then_tensor_build_compile_each_structure_once(self, mc_lexicon,
                                                                  monkeypatch):
        # a circuit contracts the TENSOR lowering at 2 per wire, and so do
        # mps and spider, so they share every compiled batch and gather; the
        # circuit's batches are those scaled by 1/sqrt(2) per cup.  mps and
        # spider compile only their word blocks
        compiled, compile_batch = [], tensornet.compile_batch
        monkeypatch.setattr(tensornet, "compile_batch",
                            lambda net: compiled.append(net) or compile_batch(net))
        splits, scheme = generate_mc(0), RewriteScheme.RE
        model = CircuitModel.build(splits, mc_lexicon, scheme,
                                   CircuitAnsatzConfig(CircuitAnsatz.IQP, 1))
        tensor = TensorModel.build(splits, mc_lexicon, scheme, QUBITS)
        groups, want_groups = model.contraction.groups, tensor.contraction.groups
        assert len(compiled) == len(groups) == len(want_groups) == 1
        for first, group, want in zip(compiled, groups, want_groups):
            assert (group.batch.forward is want.batch.forward
                    and group.batch.sweep is want.batch.sweep
                    and group.at is want.at and group.gather is want.gather)
            cups = sum(isinstance(node, tensornet.CupDeltaNode) for node in first.nodes)
            assert cups and group.batch.factor == want.batch.factor * 0.5 ** (cups / 2)
        for kind in (TensorAnsatz.MPS, TensorAnsatz.SPIDER):
            split = TensorModel.build(splits, mc_lexicon, scheme, TensorAnsatzConfig(kind))
            assert split.contraction is tensor.contraction
            assert len(compiled) == 1 + (kind is TensorAnsatz.SPIDER) + 1  # a verb block each
            assert compiled[-1].output_dims() == (2, 2, 2)

    def test_models_on_one_corpus_share_the_held_contraction(self, mc_lexicon):
        # every circuit ansatz's map stage reads one contraction, and a fit
        # plans each request shape once for all of them; the lowerings at
        # one wire dimension share the unscaled one
        splits, scheme = generate_mc(0), RewriteScheme.RE_NORM_CUR_NORM
        cfg = TrainConfig(epochs=2, optimizer=SPSAConfig())
        models, plans = [], []
        for kind in CircuitAnsatz:
            models.append(CircuitModel.build(splits, mc_lexicon, scheme,
                                             CircuitAnsatzConfig(kind, 1, 2)))
            fit(models[-1], splits, cfg)
            plans.append(dict(models[-1].contraction.requests))
        contraction = training._front_end.contractions[CircuitModel]
        assert all(model.contraction is contraction for model in models)
        assert len(plans[0]) == 2  # an epoch's request and the closing one
        for later in plans[1:]:
            assert later.keys() == plans[0].keys()
            assert all(later[runs] is plan for runs, plan in plans[0].items())
        tensors = [TensorModel.build(splits, mc_lexicon, scheme, TensorAnsatzConfig(kind))
                   for kind in TensorAnsatz]
        assert all(t.contraction is training._front_end.contraction(2, 2) for t in tensors)
        assert contraction is not tensors[0].contraction  # the circuits' is scaled
        assert contraction.groups[0].gather is tensors[0].contraction.groups[0].gather

    def test_one_network_compiled_per_shape_group(self, mc_lexicon, monkeypatch):
        compiled = []
        monkeypatch.setattr(training, "compile_network",
                            lambda d, cfg: compiled.append((d, cfg)) or compile_network(d, cfg))
        for kind in TensorAnsatz:  # one contraction per wire dimension, not per lowering
            TensorModel.build(generate_mc(0), mc_lexicon, RewriteScheme.RE,
                              TensorAnsatzConfig(kind))
        # one per sentence pattern for the host check, not per sentence, and
        # the host's for the contraction
        assert len(compiled) == 5 and compiled[4][0] is compiled[1][0]
        assert {cfg for _, cfg in compiled} == {TensorAnsatzConfig(TensorAnsatz.TENSOR)}
        assert all(box.name == str(b) for d, _ in compiled for b, box in enumerate(d.boxes))
        TensorModel.build(generate_mc(0), mc_lexicon, RewriteScheme.RE,
                          TensorAnsatzConfig(TensorAnsatz.MPS, d_n=3))
        assert len(compiled) == 6  # only the host at a new wire dimension
        assert compiled[-1][1] == TensorAnsatzConfig(TensorAnsatz.TENSOR, d_n=3)

    @pytest.mark.parametrize("kind", tuple(CircuitAnsatz), ids=lambda k: k.value)
    def test_compiled_circuits_identical_on_hit_and_miss(self, kind, mc_lexicon):
        # the plan's build against compile_circuit and compile_network on
        # every sentence: on a generated corpus, and on one that repeats a word
        for splits in (generate_mc(3), pattern_splits(extra_train=[("man cooks man", 1)])):
            for scheme in (RewriteScheme.RE, RewriteScheme.RE_NORM_CUR_NORM):
                training._front_end = None  # the scheme's first build is a miss
                fresh = self.fresh(splits, mc_lexicon, scheme)
                nets = {name: [compile_network(d, QUBITS) for d in ds]
                        for name, ds in fresh.items()}
                for layers, rots in itertools.product(range(3), range(3)):
                    ansatz = CircuitAnsatzConfig(kind, layers, rots)
                    if layers == rots == 0:
                        for _ in range(2):
                            with pytest.raises(ZeroParameterModel):
                                CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
                        continue
                    first = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
                    key = training._front_end.key
                    again = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
                    assert training._front_end.key is key
                    want = {name: [compile_circuit(d, ansatz) for d in ds]
                            for name, ds in fresh.items()}
                    assert_same_circuit_model(first, want, nets)
                    assert_same_circuit_model(again, want, nets)
                    assert len(first._blocks) == len(again._blocks)
                    for block, other_block in zip(first._blocks, again._blocks):
                        batch, other = block.batch, other_block.batch
                        assert (batch.ops, batch.n_dom, batch.n_slots) == (
                            other.ops, other.n_dom, other.n_slots)
                        assert batch.cols.tolist() == other.cols.tolist()
                        # each word's angles, map entries and value columns
                        for field in ("params", "reads", "cols"):
                            assert (getattr(block, field).tobytes()
                                    == getattr(other_block, field).tobytes())

    def test_layouts_made_once_and_lowered_per_config(self, mc_lexicon, monkeypatch):
        # each sentence shape is laid out once; a build lowers no sentence,
        # only one block per block width, and a later build reuses the
        # contraction
        validated, blocks = [], []
        monkeypatch.setattr(circuit, "validate", lambda d: validated.append(d) or validate(d))
        compile_block = simulator.compile_batch
        monkeypatch.setattr(simulator, "compile_batch",
                            lambda c, n_dom: blocks.append(n_dom) or compile_block(c, n_dom))

        def no_lower(*args):
            raise AssertionError("a sentence circuit lowered")

        monkeypatch.setattr(circuit, "lower", no_lower)
        splits, scheme = pattern_splits(), RewriteScheme.RE_NORM_CUR_NORM
        # the second config differs in its one-qubit blocks only, the third in all
        configs = [CircuitAnsatzConfig(CircuitAnsatz.IQP, 1, 2),
                   CircuitAnsatzConfig(CircuitAnsatz.IQP, 1, 1),
                   CircuitAnsatzConfig(CircuitAnsatz.SIM14, 2, 1)]
        models = [CircuitModel.build(splits, mc_lexicon, scheme, cfg) for cfg in configs]
        assert len(validated) == 4  # once per sentence shape, not per sentence
        corpus = training._front_end
        assert len(corpus.shapes) == 4  # one shape per sentence pattern
        contraction = corpus.contractions[CircuitModel]
        assert all(model.contraction is contraction for model in models)
        kinds = {(dom, cod) for _, dom, cod, _ in corpus.stages[CircuitModel]}
        assert kinds == {(0, 1), (1, 1), (2, 1)}  # nouns, adjectives, verbs
        # one block per width: nouns share the adjectives' one-qubit block,
        # read at input 0, and verbs have the two-qubit one
        assert blocks == [1, 2] * len(configs)
        fresh = self.fresh(splits, mc_lexicon, scheme)
        nets = {name: [compile_network(d, QUBITS) for d in ds] for name, ds in fresh.items()}
        for cfg, model in zip(configs, models):
            monkeypatch.setattr(circuit, "lower", lower)
            assert_same_circuit_model(model, {name: [compile_circuit(d, cfg) for d in ds]
                                              for name, ds in fresh.items()}, nets)
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
            # a plan with an error is not held
            assert training._front_end.contractions == training._front_end.stages == {}


def shift_rule_split(model: CircuitModel, diagrams, ansatz, theta, labels) -> np.ndarray:
    """The mean-loss gradient of the sentences ``diagrams`` assembled from
    ``distribution_gradient``'s shift rules, sentence by sentence."""
    pos = {s: i for i, s in enumerate(model.symbols)}
    grad = np.zeros(model.n_params)
    for d, y in zip(diagrams, labels):
        c = compile_circuit(d, ansatz)
        idx = [pos[s] for s in c.symbols]
        res = distribution_gradient(c, theta[idx])
        np.add.at(grad, idx, res.jacobian @ bce_grad(res.probs, y) / len(diagrams))
    return grad


def assert_matches_statevector(model: CircuitModel, diagrams, ansatz, named: dict,
                               other: np.ndarray, seen: dict | None = None, keys=None) -> None:
    """Every sentence's probabilities at the parameters ``named`` (symbol
    name to angle) against ``sentence_distribution`` on its own circuit,
    within 1e-12, from a request stacked with the point ``other``, whose
    readout must equal that of ``other`` alone.  ``seen`` holds the
    reference of the sentences checked before, under their ``keys``."""
    theta = np.array([named[s.name] for s in model.symbols])
    names = tuple(model.contraction.sizes)
    labels = np.zeros(sum(model.contraction.sizes.values()), np.intp)  # one per row
    _, both = model.score([(names, theta), (names, other)], np.tile(labels, 2))
    _, alone = model.score([(names, other)], labels)
    assert both[len(labels):].tobytes() == alone.tobytes()
    first, _ = training._scores(both[: len(labels)], labels, [len(labels)])
    seen = {} if seen is None else seen
    want = []
    for key, d in zip(range(len(diagrams)) if keys is None else keys, diagrams):
        if key not in seen:
            c = compile_circuit(d, ansatz)
            seen[key] = sentence_distribution(c, [named[s.name] for s in c.symbols]).probs
        want.append(seen[key])
    np.testing.assert_allclose(first, want, rtol=0, atol=1e-12)


def named_point(model: CircuitModel, named: dict, rng) -> dict:
    """``named`` with an angle for each of the model's symbols it lacks."""
    for s in model.symbols:
        named.setdefault(s.name, rng.uniform(0.0, 2.0 * np.pi))
    return named


class TestCircuitOracle:
    """A circuit model contracts each sentence's diagram, its boxes the
    words' block maps; the statevector simulation of the sentence's whole
    circuit is the oracle."""

    CELLS = ((1, 1), (2, 2), (0, 1), (1, 0))

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", ANSATZE, ids=lambda k: k.value)
    def test_probabilities_match_sentence_distribution(self, kind, scheme, mc_lexicon):
        # one set of angles per cell across the three corpora, so each
        # distinct sentence's circuit is simulated once
        rng = np.random.default_rng(0)
        named, seen = ({cell: {} for cell in self.CELLS} for _ in range(2))
        for seed in range(3):
            splits = generate_mc(seed)
            diagrams = [d for ds in TestFrontEndMemo.fresh(splits, mc_lexicon, scheme).values()
                        for d in ds]
            sentences = [ws for lset in splits for ws in lset.sentences()]
            for cell in self.CELLS:
                ansatz = CircuitAnsatzConfig(kind, *cell)
                model = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
                assert_matches_statevector(model, diagrams, ansatz,
                                           named_point(model, named[cell], rng),
                                           model.init_params(rng), seen[cell], sentences)
        assert all(len(diagrams) < len(seen[cell]) < 3 * len(diagrams) for cell in self.CELLS)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("kind", ANSATZE, ids=lambda k: k.value)
    def test_amplitudes_match_diagram_semantics(self, kind, scheme, mc_lexicon, rng):
        # every MC shape, the three shorter ones as padded rows of the
        # widest one's group: a sentence's amplitudes are its diagram's
        # meaning with each box its word's block map and each cup the Bell
        # effect, a 1 / sqrt(2) factor, contracted apart from tensornet
        splits, ansatz = pattern_splits(), CircuitAnsatzConfig(kind, 1, 1)
        model = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
        contraction = model.contraction
        assert len(contraction.groups) == 1
        theta = model.init_params(rng)
        values = value_rows(model, theta[None])[0]
        amps = np.empty((sum(contraction.sizes.values()), 2), dtype=complex)
        for group in contraction.groups:
            amps[group.at] = tensornet.Bound(group.batch, values[group.gather]).forward()
        pos = {s: i for i, s in enumerate(model.symbols)}
        diagrams = [d for ds in TestFrontEndMemo.fresh(splits, mc_lexicon, scheme).values()
                    for d in ds]
        assert len({len(d.boxes) for d in diagrams}) == 3  # 3, 4 and 5 words
        for amp, d in zip(amps, diagrams):
            maps = {}
            for b, box in enumerate(d.boxes):
                dom, cod = len(box.dom), len(box.cod)
                gates, symbols = circuit.word_block(box.name, type_fingerprint(box),
                                                    tuple(range(max(dom, cod))), ansatz)
                block = Circuit(max(dom, cod), tuple(gates), tuple(range(cod, max(dom, cod))),
                                tuple(range(cod)), tuple(symbols))
                angles = theta[[pos[s] for s in symbols]]
                maps[b] = reference_map(block, angles, dom).reshape((2,) * (dom + cod))
            want = eval_tensor(d, maps).ravel() * 2 ** (-d.n_cups / 2)
            np.testing.assert_allclose(amp, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    def test_probabilities_are_the_engine_rows_squared(self, scheme, mc_lexicon, rng):
        # each split's probabilities are ``v.real**2 + v.imag**2`` of the
        # engine's complex rows, normalized, bit for bit
        splits = generate_mc(0)
        model = CircuitModel.build(splits, mc_lexicon, scheme,
                                   CircuitAnsatzConfig(CircuitAnsatz.IQP, 1, 1))
        contraction = model.contraction
        theta = model.init_params(rng)
        values = value_rows(model, theta[None])[0]
        u = np.empty((sum(contraction.sizes.values()), 2))
        for group in contraction.groups:
            v = tensornet.Bound(group.batch, values[group.gather]).forward()
            assert v.dtype == complex
            u[group.at] = v.real**2 + v.imag**2
        bounds = np.cumsum([0, *contraction.sizes.values()]).tolist()
        for name, lo, hi in zip(contraction.sizes, bounds, bounds[1:]):
            probs, degenerate = model.eval_split(name, theta)
            want = u[lo:hi] / (u[lo:hi, 0] + u[lo:hi, 1])[:, None]
            assert degenerate == 0 and probs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell", [(CircuitAnsatz.IQP, 2, 2), (CircuitAnsatz.SIM14, 1, 1),
                                      (CircuitAnsatz.SIM15, 1, 2),
                                      (CircuitAnsatz.STRONGLY_ENTANGLING, 1, 1)],
                             ids=lambda c: f"{c[0].value}-L{c[1]}-r{c[2]}")
    def test_gradient_matches_shift_rules(self, cell, mc_lexicon, rng):
        splits, scheme = generate_mc(0), RewriteScheme.RE_NORM_CUR_NORM
        ansatz = CircuitAnsatzConfig(*cell)
        model = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
        theta, labels = model.init_params(rng), splits.train.labels()
        grad, _, _ = model.grad_split("train", theta, labels)
        want = shift_rule_split(model, TestFrontEndMemo.fresh(splits, mc_lexicon, scheme)["train"],
                                ansatz, theta, labels)
        assert np.abs(grad - want).max() <= max(1e-9 * np.abs(want).max(), 1e-14)

    @staticmethod
    def hand_made(lexicon, train, dev, test, scheme):
        def lset(name, items):
            return LabeledSet(name, tuple((tuple(w.split()), y) for w, y in items))

        lexicon = Lexicon.from_expressions(lexicon)
        splits = CorpusSplits(lset("train", train), lset("dev", dev), lset("test", test))
        diagrams = [d for ds in TestFrontEndMemo.fresh(splits, lexicon, scheme).values()
                    for d in ds]
        return splits, lexicon, diagrams

    def check_hand_made(self, splits, lexicon, diagrams, scheme, kinds, rng) -> None:
        """Word kinds ``{(inputs, outputs): words}``, probabilities at two
        points and the train gradient against the sentences' circuits."""
        for kind in ANSATZE:
            ansatz = CircuitAnsatzConfig(kind, 1, 2)
            model = CircuitModel.build(splits, lexicon, scheme, ansatz)
            assert {(block.batch.n_dom, len(block.batch.cols).bit_length() - 1): len(block.params)
                    for block in model._blocks} == kinds
            named = named_point(model, {}, rng)
            assert_matches_statevector(model, diagrams, ansatz, named, model.init_params(rng))
            theta, labels = named_to_params(model, named), splits.train.labels()
            grad, _, _ = model.grad_split("train", theta, labels)
            want = shift_rule_split(model, diagrams[: len(labels)], ansatz, theta, labels)
            assert np.abs(grad - want).max() <= max(1e-9 * np.abs(want).max(), 1e-14)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    def test_a_word_kind_of_one_word(self, scheme, rng):
        # "likes" is the only verb: its kind is a one-row block batch at
        # every point of a request but the stacked ones
        splits, lexicon, diagrams = self.hand_made(
            {"Alice": "n", "Bob": "n", "likes": "n.r@s@n.l"},
            [("Alice likes Bob", 1), ("Bob likes Alice", 0)], [("Alice likes Alice", 1)],
            [("Bob likes Bob", 0)], scheme)
        verb = (0, 3) if scheme is RewriteScheme.RE else (2, 1)
        self.check_hand_made(splits, lexicon, diagrams, scheme, {(0, 1): 2, verb: 1}, rng)

    def test_blocks_with_fresh_and_surplus_qubits(self, rng):
        # curried, "x" takes one input to two outputs, a fresh qubit fed
        # |0>, and "y" one input to none, a surplus qubit postselected
        splits, lexicon, diagrams = self.hand_made(
            {"A": "n", "B": "n", "X": "n.r@s@n", "Y": "n.r"},
            [("A X Y", 1), ("B X Y", 0)], [("A X Y", 1)], [("B X Y", 0)],
            RewriteScheme.RE_NORM_CUR_NORM)
        self.check_hand_made(splits, lexicon, diagrams, RewriteScheme.RE_NORM_CUR_NORM,
                             {(0, 1): 2, (1, 2): 1, (1, 0): 1}, rng)

    def test_words_of_one_block_width_share_a_pass(self, rng):
        # curried, "P" maps no input to two outputs, "X" one and "Z" two:
        # one two-qubit block read at two inputs serves all three
        scheme = RewriteScheme.RE_NORM_CUR_NORM
        splits, lexicon, diagrams = self.hand_made(
            {"A": "n", "B": "n", "P": "s@n", "X": "n.r@s@n", "Y": "n.r", "Z": "n.r@n.r@s@n"},
            [("A X Y", 1), ("P Y", 0), ("A B Z Y", 1), ("B X Y", 0)], [("P Y", 1)],
            [("B A Z Y", 0)], scheme)
        self.check_hand_made(splits, lexicon, diagrams, scheme,
                             {(0, 1): 2, (2, 2): 3, (1, 0): 1}, rng)
        # each word's map, bit for bit, is that of its block run at its own inputs
        model = CircuitModel.build(splits, lexicon, scheme,
                                   CircuitAnsatzConfig(CircuitAnsatz.SIM14, 1, 2))
        theta = model.init_params(rng)
        values, inputs = value_rows(model, theta[None])[0], set()
        for block in model._blocks:
            batch, angles, reads, cols = block.batch, block.params, block.reads, block.cols
            cod = len(batch.cols).bit_length() - 1
            counts = np.bincount(reads >> batch.n_dom + cod, minlength=len(angles))
            for a, n, end in zip(angles, counts, np.cumsum(counts)):
                own = dataclasses.replace(batch, n_dom=int(n).bit_length() - 1 - cod)
                inputs.add((batch.n_dom, own.n_dom))
                want = simulator.Bound(own, theta[a][None]).forward().ravel()
                assert values[cols[end - n:end]].tobytes() == want.tobytes()
        assert inputs == {(0, 0), (1, 1), (2, 0), (2, 1), (2, 2)}


# the type of each word class a sentence uses, and the types a word may
# list besides its own
SLOTS = {"noun": "n", "adjective": "n@n.l", "verb": "n.r@s@n.l", "intransitive": "n.r@s",
         "clause": "s", "opener": "s@s.l", "closer": "s.r@s"}
DECOYS = ("s", "n", "n.r", "s@n.l", "n@n.l", "n.r@s", "n.r@s@n.l")


@st.composite
def random_corpora(draw):
    """A random lexicon and a corpus over it.

    Each word lists one to three candidate types: the type its sentences
    use, at a random place among decoys, so the parser backtracks over
    the combinations before it.  A sentence's body is a noun phrase (up to
    two adjectives, then a noun) and an intransitive verb, two noun phrases
    around a transitive verb, or a clause, one word of type ``s``, which no
    rewrite curries.  A sentence modifier may stand before the body, after
    it or both; with both, the sentence has two reductions, each modifier's
    cup on the body's ``s`` or on the other's.  Words come from pools of
    one to three, so they repeat, and each use is in lower, upper or title
    case.
    """
    lexicon, pools = {}, {}
    for role, slot in SLOTS.items():
        pools[role] = [f"{role}{i}" for i in range(draw(st.integers(1, 3)))]
        for word in pools[role]:
            types = draw(st.lists(st.sampled_from([t for t in DECOYS if t != slot]),
                                  max_size=2, unique=True))
            types.insert(draw(st.integers(0, len(types))), slot)
            lexicon[word] = types

    def phrase():
        adjectives = draw(st.lists(st.sampled_from(pools["adjective"]), max_size=2))
        return adjectives + [draw(st.sampled_from(pools["noun"]))]

    def use(word):
        return draw(st.sampled_from((str.lower, str.upper, str.title)))(word)

    def word(role):
        return [draw(st.sampled_from(pools[role]))]

    sentences = []
    for _ in range(draw(st.integers(3, 7))):
        body = draw(st.sampled_from(("transitive", "intransitive", "clause")))
        if body == "transitive":
            words = phrase() + word("verb") + phrase()
        elif body == "intransitive":
            words = phrase() + word("intransitive")
        else:
            words = word("clause")
        opener, closer = draw(st.sampled_from(((0, 0), (1, 0), (0, 1), (1, 1))))
        words = (word("opener") if opener else []) + words + (word("closer") if closer else [])
        sentences.append((tuple(map(use, words)), draw(st.integers(0, 1))))
    cut = sorted(draw(st.lists(st.integers(1, len(sentences) - 1), min_size=2, max_size=2,
                               unique=True)))
    parts = (sentences[:cut[0]], sentences[cut[0]:cut[1]], sentences[cut[1]:])
    splits = CorpusSplits(*(LabeledSet(name, tuple(part))
                            for name, part in zip(("train", "dev", "test"), parts)))
    return splits, Lexicon.from_expressions(lexicon)


class TestShapeFrontEnd:
    """The front end parses and rewrites one sentence per shape; every
    sentence rebuilt from its shape and words is its own parse, and every
    error is the one the per-sentence front end raises."""

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(corpus=random_corpora())
    def test_random_lexicons_match_per_sentence_parses(self, corpus):
        splits, lexicon = corpus
        ansatz, rng = CircuitAnsatzConfig(CircuitAnsatz.SIM14, 1, 1), np.random.default_rng(0)
        for scheme in RewriteScheme:
            training._front_end = None
            fresh = TestFrontEndMemo.fresh(splits, lexicon, scheme)
            front = training._corpus(splits, lexicon, scheme)
            assert held_diagrams(front) == fresh
            assert len(front.shapes) == len({tuple(map(lexicon.lookup, ws))  # one per pattern
                                         for lset in splits for ws in lset.sentences()})
            model = CircuitModel.build(splits, lexicon, scheme, ansatz)
            nets = {name: [compile_network(d, QUBITS) for d in ds] for name, ds in fresh.items()}
            assert_same_circuit_model(model, {name: [compile_circuit(d, ansatz) for d in ds]
                                              for name, ds in fresh.items()}, nets)
            assert_matches_statevector(model, [d for ds in fresh.values() for d in ds], ansatz,
                                       named_point(model, {}, rng), model.init_params(rng))
            for kind in TensorAnsatz:
                cfg = TensorAnsatzConfig(kind)
                assert_same_tensor_model(TensorModel.build(splits, lexicon, scheme, cfg), fresh,
                                         cfg)

    def test_random_lexicons_parse_as_brute_force(self):
        # the parse takes the first type combination, in lexicon order, that
        # some free-order reduction takes to s, and one of its reductions;
        # at least a tenth of the sentences have two, so a parser that takes
        # a reduction of its own could fail here
        ambiguous = []

        @settings(max_examples=30, derandomize=True, database=None, deadline=None)
        @given(corpus=random_corpora())
        def check(corpus):
            splits, lexicon = corpus
            for words in dict.fromkeys(ws for lset in splits for ws in lset.sentences()):
                d = parse_sentence(list(words), lexicon)
                combos = itertools.product(*(lexicon.lookup(w.lower()) for w in words))
                combo, valid = next((combo, valid) for combo in combos if (
                    valid := enumerate_reductions([t for types in combo for t in types], [S])))
                assert tuple(box.cod for box in d.boxes) == combo
                start = np.cumsum([0, *map(len, combo)]).tolist()  # each word's first flat type
                legs = [start[w.producer.index] + w.producer.leg for w in d.wires]
                assert frozenset((legs[a], legs[b]) for a, b in d.cup_pairs()) in valid
                ambiguous.append(len(valid) > 1)

        check()
        assert sum(ambiguous) >= len(ambiguous) / 10, (sum(ambiguous), len(ambiguous))

    def test_random_lexicons_rewrite_preserving_semantics(self):
        # a curried box reads its word's tensor with the bent legs first; at
        # least a fortieth of the sentences are ones currying leaves as they are
        dims, rng, uncurried = WireDims(2, 3), np.random.default_rng(0), []

        @settings(max_examples=30, derandomize=True, database=None, deadline=None)
        @given(corpus=random_corpora())
        def check(corpus):
            splits, lexicon = corpus
            for words in dict.fromkeys(ws for lset in splits for ws in lset.sentences()):
                d = parse_sentence(list(words), lexicon)
                tensors = random_assignment(d, dims, rng)
                want = eval_tensor(d, tensors, dims)
                infos = curry_infos(normal_form(d))
                bent = {b: bend_tensor(t, infos[b]) if b in infos else t
                        for b, t in tensors.items()}
                for scheme in RewriteScheme:
                    curried = scheme in (RewriteScheme.RE_NORM_CUR, RewriteScheme.RE_NORM_CUR_NORM)
                    got = eval_tensor(rewrite(d, scheme), bent if curried else tensors, dims)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
                uncurried.append(rewrite(d, RewriteScheme.RE_NORM_CUR) == normal_form(d))

        check()
        assert sum(uncurried) >= len(uncurried) / 40, (sum(uncurried), len(uncurried))

    # a faulty sentence, the scheme it fails under, and the qubit limit
    FAULTS = {
        "unknown_word": ("man Juggles meal", RewriteScheme.RE, 20),
        "no_reduction": ("man meal", RewriteScheme.RE, 20),
        "curry": ("Loop", RewriteScheme.RE_NORM_CUR_NORM, 20),  # "loop" is cupped to itself
        "layout": ("skillful skillful man cooks tasty tasty meal", RewriteScheme.RE, 10),
    }

    @pytest.mark.parametrize("k", (0, 6, 12))
    @pytest.mark.parametrize("fault", tuple(FAULTS))
    def test_errors_match_per_sentence_front_end(self, fault, k, mc_lexicon, monkeypatch):
        # the faulty sentence is the k-th of 13, the first of its shape
        sentence, scheme, max_qubits = self.FAULTS[fault]
        monkeypatch.setattr(circuit, "MAX_QUBITS", max_qubits)
        monkeypatch.setattr(training, "_front_end", None)
        lexicon = Lexicon({**{w: mc_lexicon.lookup(w) for w in mc_lexicon.words()},
                           "loop": (PregroupType.parse("s@n@n.r"),)})
        items = [item for lset in pattern_splits() for item in lset.items]
        items.insert(k, (tuple(sentence.split()), 1))
        splits = CorpusSplits(LabeledSet("train", tuple(items[:9])),
                              LabeledSet("dev", tuple(items[9:11])),
                              LabeledSet("test", tuple(items[11:])))
        ansatz = CircuitAnsatzConfig(CircuitAnsatz.IQP, 1, 2)
        for at, (words, _) in enumerate(items):  # the per-sentence front end
            try:
                compile_circuit(rewrite(parse_sentence(list(words), lexicon), scheme), ansatz)
            except Error as exc:
                want = exc
                break
        assert at == k
        builds = [lambda: CircuitModel.build(splits, lexicon, scheme, ansatz)]
        if fault != "layout":
            builds.append(lambda: TensorModel.build(splits, lexicon, scheme,
                                                    TensorAnsatzConfig(TensorAnsatz.TENSOR)))
        for build in builds * 2:  # raised afresh, not served from the memo
            with pytest.raises(Error) as got:
                build()
            assert (type(got.value), str(got.value)) == (type(want), str(want))
            if fault == "layout":  # the corpus parses; its circuit plan is not held
                assert training._front_end.contractions == training._front_end.stages == {}
            else:
                assert training._front_end is None


def assert_close_history(h: History, ref: History) -> None:
    """Per-epoch losses within 1e-12; accuracies, test accuracy and
    degenerate count equal."""
    for field in ("train_loss", "val_loss"):
        np.testing.assert_allclose(getattr(h, field), getattr(ref, field), rtol=0, atol=1e-12,
                                   err_msg=field)
    assert (h.train_acc, h.val_acc, h.test_acc) == (ref.train_acc, ref.val_acc, ref.test_acc)
    assert h.degenerate_evals == ref.degenerate_evals


class TestPaddedGroups:
    """On the bench sweep's grid, where the structures of a corpus differ
    only in the parametric gates a cell leaves out, a circuit model against
    the per-structure model, which simulates every sentence's whole
    circuit in one batch per structure, with no word maps and no
    contraction."""

    @pytest.mark.parametrize("kind", tuple(CircuitAnsatz), ids=lambda k: k.value)
    def test_bench_grid_histories_equal_per_structure_models(self, kind, mc_lexicon):
        # the default corpus and every trainable cell up to L2/r2: five
        # SPSA epochs follow the per-structure model's history
        splits, scheme = generate_mc(0), RewriteScheme.RE_NORM_CUR_NORM
        diagrams = {lset.name: [rewrite(parse_sentence(list(ws), mc_lexicon), scheme)
                                for ws in lset.sentences()] for lset in splits}
        cfg = TrainConfig(epochs=5, seed=0, optimizer=SPSAConfig())
        for layers, rots in itertools.product(range(3), range(3)):
            if layers == rots == 0:
                continue
            ansatz = CircuitAnsatzConfig(kind, layers, rots)
            model = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
            per_structure = PerStructureCircuitModel(
                model, {name: [compile_circuit(d, ansatz) for d in ds]
                        for name, ds in diagrams.items()})
            h, ref = fit(model, splits, cfg), reference_fit(per_structure, splits, cfg)
            assert_close_history(h, ref)
            np.testing.assert_allclose(h.final_params, ref.final_params, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cell", [(CircuitAnsatz.IQP, 1, 1), (CircuitAnsatz.SIM14, 2, 2),
                                      (CircuitAnsatz.SIM15, 1, 2),
                                      (CircuitAnsatz.STRONGLY_ENTANGLING, 2, 1),
                                      # blocks of no slots: the words' of two qubits at
                                      # L0, then those of one at no rotations
                                      (CircuitAnsatz.IQP, 0, 2), (CircuitAnsatz.SIM14, 1, 0)],
                             ids=lambda c: f"{c[0].value}-L{c[1]}-r{c[2]}")
    def test_adaptive_gd_matches_per_structure_model(self, cell, mc_lexicon, rng):
        # the two sum their gradient terms in other orders, so within 1e-12
        splits, scheme = generate_mc(0), RewriteScheme.RE_NORM_CUR_NORM
        ansatz = CircuitAnsatzConfig(*cell)
        model = CircuitModel.build(splits, mc_lexicon, scheme, ansatz)
        per_structure = PerStructureCircuitModel(
            model, reference_circuits(splits, mc_lexicon, scheme, ansatz))
        theta, labels = model.init_params(rng), splits.train.labels()
        grad, probs, _ = model.grad_split("train", theta, labels)
        want, want_probs, _ = per_structure.grad_split("train", theta, labels)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)
        cfg = TrainConfig(epochs=5, seed=0, optimizer=AdaptiveGDConfig())
        assert_close_history(fit(model, splits, cfg), reference_fit(per_structure, splits, cfg))


class TestTracerContract:
    """The benchmark's traced run patches these names where they are looked up."""

    def test_split_methods_live_in_each_class_body(self):
        for cls in (CircuitModel, TensorModel):
            for attr in ("build", "eval_split", "grad_split"):
                assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
            # one map stage, the base class's, for every family
            for attr in ("__init__", "_values", "_pull"):
                assert attr not in cls.__dict__, f"{cls.__name__}.{attr}"

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

    def test_bce_loss_scores_one_distribution(self):
        # the benchmark's gradient check scores one sentence per call
        loss = training.bce_loss(np.array([0.3, 0.7]), 1)
        assert type(loss) is float
        assert loss == training.bce_loss(np.array([[0.3, 0.7]]), np.array([1]))[0]

    def test_sweep_worker_returns_one_dict_per_job(self, tmp_path):
        # the benchmark wraps the worker run_sweep maps over its jobs
        cells = experiment.sweep_cells(ansatze=("iqp",), layer_range=(0, 1), rotation_range=(0,),
                                       seeds=(0, 1), epochs=2)
        jobs = [(cfg.to_dict(), seed, str(tmp_path), None) for cfg in cells for seed in cfg.seeds]
        summaries = [experiment._sweep_worker(job) for job in jobs]
        assert all(type(s) is dict for s in summaries)
        assert [s["run_id"] for s in summaries] == [cfg.run_id(seed) for cfg in cells
                                                    for seed in cfg.seeds]
        assert [s["status"] for s in summaries] == ["zero_params"] * 2 + ["ok"] * 2

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
