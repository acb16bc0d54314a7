"""Wide-and-deep topology, routing, prediction rules and serialization."""

import numpy as np
import pytest

from slidescreen import synth
from slidescreen.features import LSRL, MCC, MPH, MTR, N_FEATURES, extract_features
from slidescreen.ingest import MALIGNANT, NORMAL
from slidescreen.netcore import (
    BranchSpec,
    ModelFormatError,
    TrainConfig,
    forward,
    init_network,
    load_model,
    save_model,
    train,
)
from slidescreen.widedeep import (
    HIDDEN_WIDTH,
    WIDEDEEP_TAG,
    WideDeepClassifier,
    build_widedeep,
    features_to_inputs,
    predict_proba,
    predict_slide,
    train_widedeep,
    widedeep_spec,
)

# pinned once from the topology arithmetic:
#   mph branch (10->300->300)   10*300+300 + 300*300+300 =  93600
#   lsrl branch (2->300->300)    2*300+300 + 300*300+300 =  91200
#   mcc branch (5->300->300)     5*300+300 + 300*300+300 =  92100
#   head (901->300->300->2)    901*300+300 + 300*300+300 + 300*2+2 = 361502
EXPECTED_PARAMETERS = 638402


def random_row(rng) -> np.ndarray:
    row = np.empty(N_FEATURES)
    row[MTR] = rng.random()
    row[MPH] = rng.random(10)
    row[LSRL] = rng.normal(), rng.normal()
    row[MCC] = rng.random(5)
    return row


def zero_row() -> np.ndarray:
    return np.zeros(N_FEATURES)


@pytest.fixture(scope="module")
def synthetic_examples():
    cfg = synth.SynthConfig(n_slides_per_label=100, seed=555)
    records = synth.generate_dataset(cfg)
    X = np.array([extract_features(r.patches) for r in records])
    labels = np.array([r.label for r in records])
    return X, labels


@pytest.fixture(scope="module")
def trained_model(synthetic_examples):
    X, labels = synthetic_examples
    config = TrainConfig(epochs=500, learning_rate=1e-3, seed=99)
    return train_widedeep(X, labels, config)


class TestTopology:
    def test_parameter_count_pinned(self):
        assert build_widedeep(0).values.size == EXPECTED_PARAMETERS

    def test_concat_width(self):
        assert widedeep_spec().stacks()[-1][1][0] == 901

    def test_output_width(self):
        net = build_widedeep(1)
        assert net.head[-1].weights.shape[0] == 2

    def test_branch_input_widths(self):
        spec = widedeep_spec()
        assert [b.input_width for b in spec.branches] == [10, 2, 5, 1]
        assert spec.branches[-1] == BranchSpec("mtr", 1, ())

    def test_same_seed_same_model(self):
        a, b = build_widedeep(42), build_widedeep(42)
        for pa, pb in zip(a.parameter_arrays(), b.parameter_arrays()):
            np.testing.assert_array_equal(pa, pb)

    def test_init_order_oracle(self):
        # weight shapes (out, in) in draw order: mph, lsrl, mcc (two
        # layers each), mtr (none), then the head over the 3 * 300 + 1 concat
        h = HIDDEN_WIDTH
        shapes = [(h, 10), (h, h), (h, 2), (h, h), (h, 5), (h, h),
                  (h, 3 * h + 1), (h, h), (2, h)]
        # drawn in float64, then rounded to the network's float32
        rng = np.random.default_rng(5)
        expected = []
        for out_width, in_width in shapes:
            bound = np.sqrt(6.0 / in_width)
            expected += [rng.uniform(-bound, bound, size=(out_width, in_width)).astype(np.float32),
                         np.zeros(out_width, np.float32)]
        actual = build_widedeep(5).parameter_arrays()
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert a.dtype == e.dtype and a.tobytes() == e.tobytes()


class TestPrediction:
    def test_zero_model_ties_to_malignant(self):
        net = build_widedeep(0)
        for layer in net.layers():
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        label, p = predict_slide(net, zero_row())
        assert p == 0.5
        assert label == MALIGNANT

    def test_threshold_agrees_with_argmax_off_ties(self):
        rng = np.random.default_rng(2)
        net = build_widedeep(7)
        for _ in range(20):
            row = random_row(rng)
            label, p = predict_slide(net, row)
            probs = forward(net, features_to_inputs(row))[0]
            if p != 0.5:
                assert label == int(np.argmax(probs))

    def test_trained_model_classifies_held_out_slides(self, trained_model):
        cfg = synth.SynthConfig(n_slides_per_label=3, seed=77777)
        for record in synth.generate_dataset(cfg):
            label, p = predict_slide(trained_model, extract_features(record.patches))
            assert label == record.label, (record.slide_id, p)

    def test_zero_features_predict_normal(self):
        # the all-zero vector encodes "no malignant evidence"; train on a
        # sparser-noise dataset where some normal slides genuinely carry
        # zero false positives, so the degenerate region is in-distribution
        cfg = synth.SynthConfig(n_slides_per_label=60, noise_rate=0.002, seed=321)
        records = synth.generate_dataset(cfg)
        X = np.array([extract_features(r.patches) for r in records])
        labels = np.array([r.label for r in records])
        assert (X[labels == NORMAL, MTR] == 0.0).any()
        net = train_widedeep(X, labels,
                             TrainConfig(epochs=300, learning_rate=1e-3, seed=9))
        label, p = predict_slide(net, zero_row())
        assert label == NORMAL
        assert p < 0.5


class TestTraining:
    def test_training_accuracy_on_synthetic_dataset(self, trained_model,
                                                    synthetic_examples):
        X, labels = synthetic_examples
        preds = (predict_proba(trained_model, X) >= 0.5).astype(int)
        assert (preds == labels).mean() >= 0.99

    def test_single_class_rejected(self):
        rng = np.random.default_rng(3)
        X = np.array([random_row(rng) for _ in range(4)])
        with pytest.raises(ValueError, match="^training requires examples of both classes$"):
            train_widedeep(X, [MALIGNANT] * 4, TrainConfig(epochs=1))

    def test_deterministic_training(self):
        rng = np.random.default_rng(4)
        X = np.array([random_row(rng) for _ in range(6)])
        labels = [0, 1, 0, 1, 0, 1]
        config = TrainConfig(epochs=3, learning_rate=1e-3, seed=5)
        a = WideDeepClassifier(config).fit(X, labels, config.seed).net
        b = WideDeepClassifier(config).fit(X, labels, config.seed).net
        for pa, pb in zip(a.parameter_arrays(), b.parameter_arrays()):
            np.testing.assert_array_equal(pa, pb)

    def test_classifier_adapter(self):
        rng = np.random.default_rng(6)
        X = np.array([random_row(rng) for _ in range(8)])
        labels = np.array([0, 1] * 4)
        clf = WideDeepClassifier(TrainConfig(epochs=2))
        with pytest.raises(ValueError, match="^WideDeepClassifier queried before fit$"):
            clf.predict_proba(X)
        clf.fit(X, labels, seed=1)
        scores = clf.predict_proba(X)
        assert scores.shape == (8,)
        assert ((scores >= 0) & (scores <= 1)).all()
        # the adapter is init_network then train at the fit seed, nothing more
        net, _ = train(init_network(widedeep_spec(), 1), features_to_inputs(X),
                       labels, TrainConfig(epochs=2, seed=1))
        for got, want in zip(clf.net.parameter_arrays(), net.parameter_arrays()):
            assert got.tobytes() == want.tobytes()


class TestRouting:
    def test_wide_input_bypasses_branches(self):
        # zero the head's branch-derived columns: with zero hidden biases
        # and mtr >= 0, ReLU is positively homogeneous, so the logits
        # become an exactly affine function of mtr alone
        rng = np.random.default_rng(10)
        net = build_widedeep(11)
        concat = net.head[0].weights.shape[1]
        net.head[0].weights[:, : concat - 1] = 0.0

        def logits_for(mtr, row):
            row = row.copy()
            row[MTR] = mtr
            probs = forward(net, features_to_inputs(row))[0]
            # recover the logit difference (softmax is shift-invariant)
            return np.log(probs[1]) - np.log(probs[0])

        base_row = random_row(rng)
        other_row = random_row(rng)
        l0 = logits_for(0.0, base_row)
        l1 = logits_for(1.0, base_row)
        for t in (0.25, 0.5, 0.75):
            lt = logits_for(t, base_row)
            # the float32 probabilities near 0.5 put up to 7.5e-8 into lt
            assert lt == pytest.approx(l0 + t * (l1 - l0), abs=2 * np.finfo(np.float32).eps)
            # and independent of every deep input
            assert logits_for(t, other_row) == pytest.approx(lt, abs=1e-12)

    def test_mph_gradients_ignore_mcc_at_zero_mcc_branch(self):
        from slidescreen.netcore import loss_and_gradients

        rng = np.random.default_rng(12)
        net = build_widedeep(13)
        for layer in net.branches[2]:  # the mcc branch
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        row_a = random_row(rng)
        row_b = row_a.copy()
        row_b[MCC] = rng.random(5)
        _, grads_a = loss_and_gradients(net, features_to_inputs(row_a), [1])
        _, grads_b = loss_and_gradients(net, features_to_inputs(row_b), [1])
        # mph branch owns the first four parameter arrays (2 layers x W, b)
        for ga, gb in zip(grads_a[:4], grads_b[:4]):
            np.testing.assert_array_equal(ga, gb)


class TestSerialization:
    def test_round_trip_with_topology_tag(self, tmp_path):
        rng = np.random.default_rng(14)
        net = build_widedeep(15)
        X = np.array([random_row(rng) for _ in range(3)])
        before = predict_proba(net, X)
        path = tmp_path / "model.json"
        save_model(net, path, WIDEDEEP_TAG, meta={"seed": 15})
        loaded, meta = load_model(path, WIDEDEEP_TAG, widedeep_spec())
        assert meta == {"seed": 15}
        np.testing.assert_array_equal(before, predict_proba(loaded, X))
        with pytest.raises(ModelFormatError, match="header topology"):
            load_model(path, "ann-v1", widedeep_spec())
