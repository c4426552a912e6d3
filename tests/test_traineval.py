import numpy as np
import pytest

from charm import traineval
from charm.dataset import DataError, LabeledSegment, loso_split
from charm.model import CharmConfig, CharmModel, MlpConfig, MlpModel
from charm.neurocore import Adam, make_rng
from charm.preprocess import fit_normalizer, normalize
from charm.traineval import (EVAL_CHUNK, TRAIN_BATCH, TrainConfig, TrainedModel,
                             compute_class_weights, confusion_matrix, evaluate,
                             format_report, metrics_from_confusion, report_key_values,
                             train)

CFG = CharmConfig(r=8, q=2, z=4, low_hidden=8, low_out=8, high_hidden=8, m=2)


def toy_dataset(n_per_class=8, users=("a", "b")):
    """Linearly separable two-class set: class differs by channel offset."""
    rng = make_rng(99)
    segs = []
    for user in users:
        for cls in (0, 1):
            for _ in range(n_per_class):
                base = 2.0 if cls else -2.0
                data = base + rng.normal(scale=0.3, size=(32, 2))
                segs.append(LabeledSegment(data, cls, user))
    return segs


class TestClassWeights:
    def test_balanced_identity(self):
        np.testing.assert_allclose(compute_class_weights([10, 10, 10, 10]), [1.0] * 4)

    def test_inverse_proportional_mean_one(self):
        w = compute_class_weights([10, 30])
        np.testing.assert_allclose(w, [1.5, 0.5])
        assert w.mean() == pytest.approx(1.0)


class TestTrain:
    def test_determinism(self):
        segs = toy_dataset()
        _, h1 = train(segs, "charm", TrainConfig(epochs=2, seed=7), CFG)
        _, h2 = train(segs, "charm", TrainConfig(epochs=2, seed=7), CFG)
        assert h1.train_loss == h2.train_loss

    def test_loss_decreases_on_separable_data(self):
        segs = toy_dataset()
        _, hist = train(segs, "charm", TrainConfig(epochs=5, seed=0), CFG)
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_epochs_zero_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("value", [1e200, 1e307], ids=["std-overflows", "mean-overflows"])
    def test_unnormalizable_data_is_a_data_error(self, value):
        # the loader takes any finite value; its square or sum may not be one
        segs = toy_dataset()
        for seg in segs:
            seg.data[0, 0] = value
        with pytest.raises(DataError, match="^training data cannot be normalized: "
                                            "means and stds must be finite$"):
            train(segs, "charm", TrainConfig(), CFG)

    def test_val_history_recorded(self):
        tr, va = loso_split(toy_dataset(), "b")
        _, hist = train(tr, "charm", TrainConfig(epochs=3, seed=1), CFG,
                        val_segments=va)
        assert len(hist.val_macro_f1) == 3
        assert len(hist.train_loss) == 3

    def test_validation_never_leaks_into_stats(self):
        tr, va = loso_split(toy_dataset(), "b")
        t1, _ = train(tr, "charm", TrainConfig(epochs=1, seed=2), CFG,
                      val_segments=va)
        t2, _ = train(tr, "charm", TrainConfig(epochs=1, seed=2), CFG,
                      val_segments=list(reversed(va)))
        np.testing.assert_array_equal(t1.stats.means, t2.stats.means)
        np.testing.assert_array_equal(t1.stats.stds, t2.stats.stds)
        for a, b in zip(t1.model.param_arrays(), t2.model.param_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_val_f1_matches_evaluate(self):
        # random labels keep the score away from 1.0; more validation
        # samples than EVAL_CHUNK cover the chunked prediction
        rng = make_rng(12)
        tr = toy_dataset()
        va = [LabeledSegment(rng.normal(scale=2.0, size=(32, 2)), int(rng.integers(2)), "c")
              for _ in range(EVAL_CHUNK + 30)]
        trained, hist = train(tr, "charm", TrainConfig(epochs=2, seed=5), CFG, val_segments=va)
        assert 0.0 < hist.val_macro_f1[-1] < 1.0
        assert hist.val_macro_f1[-1] == evaluate(trained, va).macro_f1

    def test_batches_of_eight_and_per_sample_loss(self, monkeypatch):
        # 13 samples: a batch of 8 and a batch of 5 per epoch
        segs = toy_dataset()[:13]
        steps, calls = [], []
        adam_step, loss_and_grads = Adam.step, CharmModel.loss_and_grads

        def counting_step(opt, params, grads):
            steps.append(opt)
            return adam_step(opt, params, grads)

        def recording(model, batch, targets, class_weights, rng):
            out = loss_and_grads(model, batch, targets, class_weights, rng)
            calls.append((out[0], len(batch)))
            return out

        monkeypatch.setattr(Adam, "step", counting_step)
        monkeypatch.setattr(CharmModel, "loss_and_grads", recording)
        _, hist = train(segs, "charm", TrainConfig(epochs=3, seed=6), CFG)
        assert TRAIN_BATCH == 8
        assert len(steps) == 3 * 2
        assert [size for _, size in calls] == [8, 5] * 3
        for epoch, mean in enumerate(hist.train_loss):
            (a, na), (b, nb) = calls[2 * epoch:2 * epoch + 2]
            assert mean == pytest.approx((a * na + b * nb) / 13, rel=1e-12)

    @pytest.mark.parametrize("kind", ["charm", "mlp"])
    def test_batch_of_one_is_the_per_sample_loop(self, kind, monkeypatch):
        monkeypatch.setattr(traineval, "TRAIN_BATCH", 1)
        model_cfg = CFG if kind == "charm" else MlpConfig(n_target=32, q=2, m=2)
        segs = toy_dataset(n_per_class=5)
        cfg = TrainConfig(epochs=2, lr=5e-4, seed=8)
        trained, hist = train(segs, kind, cfg, model_cfg)

        # the loop train ran before mini-batches, written out by hand
        labels = [seg.high_label for seg in segs]
        weights = compute_class_weights(np.bincount(labels))
        stats = fit_normalizer([seg.data for seg in segs])
        inputs = [normalize(seg.data, stats) for seg in segs]
        rng = make_rng(cfg.seed)
        model = (CharmModel if kind == "charm" else MlpModel).init(model_cfg, rng)
        opt = Adam(model.params, lr=cfg.lr)
        train_loss = []
        for _ in range(cfg.epochs):
            losses = []
            for idx in rng.permutation(len(inputs)):
                loss, _, grad = model.loss_and_grads(inputs[idx], labels[idx], weights, rng)
                opt.step(model.params, grad)
                losses.append(loss)
            train_loss.append(float(np.mean(losses)))
        assert trained.model.params.tobytes() == model.params.tobytes()
        assert hist.train_loss == train_loss

    def test_non_finite_parameters_after_an_epoch_refused(self, monkeypatch):
        # one step an epoch, so no later forward meets the parameters first
        monkeypatch.setattr(traineval, "TRAIN_BATCH", 64)

        class Diverging(Adam):
            def step(self, p, g):
                super().step(p, g)
                p[0] = np.inf

        monkeypatch.setattr(traineval, "Adam", Diverging)
        with pytest.raises(DataError, match=r"^training diverged in epoch 1: non-finite loss "
                                            r"or parameters; try a smaller train\.lr$"):
            train(toy_dataset(), "charm", TrainConfig(epochs=2, seed=1), CFG)

    def test_loss_far_above_the_first_batch_refused(self):
        assert traineval.DIVERGED_LOSS_RATIO == 100
        with pytest.raises(DataError, match=r"^training diverged in epoch 1: mean loss \S+ is "
                                            r"over 100 times the first batch's \S+; try a "
                                            r"smaller train\.lr$"):
            train(toy_dataset(), "charm", TrainConfig(epochs=2, lr=1e10, seed=1), CFG)

    def test_mlp_kind(self):
        from charm.model import MlpConfig
        segs = toy_dataset()
        mcfg = MlpConfig(n_target=32, q=2, m=2)
        trained, hist = train(segs, "mlp", TrainConfig(epochs=2, seed=3), mcfg)
        assert trained.model.kind == "mlp"
        assert len(hist.train_loss) == 2


def untrained(kind, seed=0):
    """A randomly initialised 3-class model on CFG's input shape."""
    if kind == "charm":
        return CharmModel.init(CharmConfig(r=8, q=2, z=4, low_hidden=8, low_out=8,
                                           high_hidden=8, m=3), make_rng(seed))
    return MlpModel.init(MlpConfig(n_target=32, q=2, m=3, hidden=8), make_rng(seed))


class TestPredict:
    def test_argmax(self):
        segs = toy_dataset()
        trained, _ = train(segs, "charm", TrainConfig(epochs=5, seed=0), CFG)
        x = np.stack([normalize(s.data, trained.stats) for s in segs])
        correct = np.sum(trained.model.predict(x) == [s.high_label for s in segs])
        assert correct / len(segs) > 0.9
        assert evaluate(trained, segs).accuracy > 0.9

    @pytest.mark.parametrize("kind", ["charm", "mlp"])
    def test_evaluate_matches_per_sample_forward(self, kind):
        # a split over one chunk, each sample labelled with the argmax of its
        # own one-sample forward: evaluate must score every one of them right
        model = untrained(kind, seed=1)
        data = make_rng(2).normal(scale=3.0, size=(EVAL_CHUNK + 45, 32, 2))
        stats = fit_normalizer(list(data))
        labels = [int(np.argmax(model.forward(normalize(x, stats))[0])) for x in data]
        assert len(set(labels)) > 1
        segs = [LabeledSegment(x, lab, "a") for x, lab in zip(data, labels)]
        report = evaluate(TrainedModel(model, stats), segs)
        assert report.accuracy == 1.0
        assert report.confusion.sum() == len(segs)
        np.testing.assert_array_equal(model.predict(normalize(data, stats)), labels)

    def test_tie_breaks_to_lowest_index(self):
        x = make_rng(3).normal(size=(5, 32, 2))
        segs = [LabeledSegment(d, 0, "a") for d in x]
        for kind in ("charm", "mlp"):
            model = untrained(kind)
            model.params[...] = 0.0  # uniform probabilities everywhere
            np.testing.assert_array_equal(model.predict(x), [0] * 5)
            trained = TrainedModel(model, fit_normalizer(list(x)))
            assert evaluate(trained, segs).accuracy == 1.0

    def test_evaluation_does_not_mutate_params(self):
        segs = toy_dataset()
        trained, _ = train(segs, "charm", TrainConfig(epochs=1, seed=4), CFG)
        before = [p.copy() for p in trained.model.param_arrays()]
        evaluate(trained, segs)
        for a, b in zip(before, trained.model.param_arrays()):
            np.testing.assert_array_equal(a, b)


class TestMetrics:
    def test_diagonal_confusion_perfect(self):
        rep = metrics_from_confusion(np.diag([5, 7, 3]))
        np.testing.assert_allclose(rep.precision, 1.0)
        np.testing.assert_allclose(rep.recall, 1.0)
        np.testing.assert_allclose(rep.f1, 1.0)
        assert rep.accuracy == 1.0

    def test_hand_computed_fixture(self):
        rep = metrics_from_confusion([[9, 1], [3, 7]])
        assert rep.precision[0] == pytest.approx(0.75)
        assert rep.recall[0] == pytest.approx(0.9)
        assert rep.f1[0] == pytest.approx(0.8182, abs=1e-4)
        assert rep.accuracy == pytest.approx(0.8)

    def test_zero_over_zero_is_zero(self):
        rep = metrics_from_confusion([[4, 0], [0, 0]])  # class 1 never occurs
        assert rep.precision[1] == 0.0
        assert rep.recall[1] == 0.0
        assert rep.f1[1] == 0.0

    def test_support_weighted_recall_equals_accuracy(self):
        rng = make_rng(6)
        cm = rng.integers(0, 20, size=(4, 4))
        rep = metrics_from_confusion(cm)
        support = cm.sum(axis=1)
        weighted = (rep.recall * support).sum() / support.sum()
        assert weighted == pytest.approx(rep.accuracy)

    def test_macro_f1_permutation_invariant(self):
        rng = make_rng(8)
        cm = rng.integers(0, 20, size=(4, 4))
        perm = rng.permutation(4)
        rep = metrics_from_confusion(cm)
        rep_p = metrics_from_confusion(cm[np.ix_(perm, perm)])
        assert rep.macro_f1 == pytest.approx(rep_p.macro_f1)

    def test_confusion_counts_all_samples(self):
        cm = confusion_matrix([0, 1, 1, 0], [0, 1, 0, 0], 2)
        assert cm.sum() == 4
        np.testing.assert_array_equal(cm, [[2, 0], [1, 1]])

    def test_confusion_matches_counting_loop(self):
        rng = make_rng(9)
        truth, preds = rng.integers(0, 5, size=200), rng.integers(0, 5, size=200)
        ref = np.zeros((5, 5), dtype=int)
        for t, p in zip(truth, preds):
            ref[t, p] += 1
        cm = confusion_matrix(truth, preds, 5)
        assert cm.dtype == ref.dtype
        np.testing.assert_array_equal(cm, ref)


class TestReportSerialization:
    def test_key_values_match_report(self):
        rep = metrics_from_confusion([[9, 1], [3, 7]])
        text = report_key_values(rep, ["x", "y"])
        values = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert float(values["precision.x"]) == rep.precision[0]
        assert float(values["macro_f1"]) == rep.macro_f1
        assert values["confusion.x"] == "9,1"

    def test_text_table_has_class_rows(self):
        rep = metrics_from_confusion([[9, 1], [3, 7]])
        text = format_report(rep, ["x", "y"])
        assert "x" in text and "macro" in text and "accuracy" in text
