"""Network engine: initialization, forward pass, gradients, training,
and model-file round-trips."""

import base64
import hashlib
import json
import math

import numpy as np
import pytest

from slidescreen.netcore import (
    BranchSpec,
    EmptyDataset,
    GraphSpec,
    InvalidTopology,
    ModelFormatError,
    ShapeMismatch,
    TrainConfig,
    TrainingDiverged,
    forward,
    init_network,
    load_model,
    loss_and_gradients,
    save_model,
    train,
)

from oracles import finite_difference_gradients, max_relative_error


def tiny_spec(hidden=(4,)):
    return GraphSpec(branches=(BranchSpec("x", 3, hidden),),
                     passthrough=(("w", 1),), head_hidden=(4,), n_outputs=2)


def small_widedeep_spec(width=8):
    return GraphSpec(
        branches=(BranchSpec("mph", 10, (width,)),
                  BranchSpec("lsrl", 2, (width,)),
                  BranchSpec("mcc", 5, (width,))),
        passthrough=(("mtr", 1),),
        head_hidden=(width,),
        n_outputs=2,
    )


def random_inputs(rng, spec, n):
    return {name: rng.normal(size=(n, width))
            for name, width in spec.input_widths().items()}


class TestInit:
    def test_same_seed_identical(self):
        a = init_network(tiny_spec(), 7)
        b = init_network(tiny_spec(), 7)
        for pa, pb in zip(a.parameter_arrays(), b.parameter_arrays()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = init_network(tiny_spec(), 7)
        b = init_network(tiny_spec(), 8)
        assert any((pa != pb).any()
                   for pa, pb in zip(a.parameter_arrays(), b.parameter_arrays()))

    def test_layer_shapes(self):
        spec = GraphSpec(branches=(BranchSpec("x", 1, (2,)),), head_hidden=())
        net = init_network(spec, 0)
        assert net.branches[0][0].weights.shape == (2, 1)
        assert net.branches[0][0].biases.shape == (2,)
        assert net.head[-1].weights.shape == (2, 2)

    def test_biases_zero_and_weights_bounded(self):
        net = init_network(tiny_spec(), 3)
        for layer in net.layers():
            assert (layer.biases == 0).all()
            bound = math.sqrt(6.0 / layer.weights.shape[1])
            assert (np.abs(layer.weights) <= bound).all()

    def test_invalid_topology(self):
        with pytest.raises(InvalidTopology):
            init_network(GraphSpec(branches=(BranchSpec("x", 0, (4,)),)), 0)
        with pytest.raises(InvalidTopology):
            init_network(GraphSpec(branches=(BranchSpec("x", 3, ()),
                                             BranchSpec("x", 2, ()))), 0)


class TestForward:
    def test_zero_weights_give_even_split(self):
        net = init_network(tiny_spec(), 0)
        for layer in net.layers():
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        probs = forward(net, {"x": np.ones((1, 3)), "w": np.ones((1, 1))})
        np.testing.assert_array_equal(probs, [[0.5, 0.5]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        spec = small_widedeep_spec()
        net = init_network(spec, 5)
        probs = forward(net, random_inputs(rng, spec, 16))
        assert probs.min() >= 0
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_hand_computed_two_by_two(self):
        # single dense softmax layer: z = W x + b, probs = softmax(z)
        spec = GraphSpec(branches=(), passthrough=(("x", 2),), head_hidden=())
        net = init_network(spec, 0)
        net.head[0].weights[:] = [[1.0, 2.0], [3.0, -1.0]]
        net.head[0].biases[:] = [0.5, -0.5]
        x = np.array([[1.0, 1.0]])
        z0, z1 = 1.0 + 2.0 + 0.5, 3.0 - 1.0 - 0.5
        expected = np.exp([z0, z1]) / np.exp([z0, z1]).sum()
        np.testing.assert_allclose(forward(net, {"x": x})[0], expected, atol=1e-15)

    def test_large_logits_stay_finite(self):
        spec = GraphSpec(branches=(), passthrough=(("x", 1),), head_hidden=())
        net = init_network(spec, 0)
        net.head[0].weights[:] = [[500.0], [-500.0]]
        probs = forward(net, {"x": np.array([[1.0]])})
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_shape_mismatch(self):
        net = init_network(tiny_spec(), 0)
        with pytest.raises(ShapeMismatch):
            forward(net, {"x": np.ones((1, 3))})  # missing "w"
        with pytest.raises(ShapeMismatch):
            forward(net, {"x": np.ones((1, 4)), "w": np.ones((1, 1))})


class TestGradients:
    def test_confident_correct_prediction_has_low_loss(self):
        spec = GraphSpec(branches=(), passthrough=(("x", 1),), head_hidden=())
        net = init_network(spec, 0)
        net.head[0].weights[:] = [[-40.0], [40.0]]
        loss, grads = loss_and_gradients(net, {"x": np.array([[1.0]])}, [1])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert all(np.isfinite(g).all() for g in grads)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        for trial in range(3):
            spec = small_widedeep_spec(width=5)
            net = init_network(spec, 100 + trial)
            inputs = random_inputs(rng, spec, 4)
            labels = rng.integers(0, 2, size=4)
            _, analytic = loss_and_gradients(net, inputs, labels)
            numeric = finite_difference_gradients(net, inputs, labels)
            assert max_relative_error(analytic, numeric) <= 1e-4

    def test_duplicated_example_leaves_mean_gradient_unchanged(self):
        rng = np.random.default_rng(9)
        spec = tiny_spec()
        net = init_network(spec, 1)
        single = random_inputs(rng, spec, 1)
        doubled = {k: np.repeat(v, 2, axis=0) for k, v in single.items()}
        loss1, grads1 = loss_and_gradients(net, single, [1])
        loss2, grads2 = loss_and_gradients(net, doubled, [1, 1])
        assert loss1 == pytest.approx(loss2, abs=1e-15)
        for g1, g2 in zip(grads1, grads2):
            np.testing.assert_allclose(g1, g2, atol=1e-15)

    def test_bad_labels_rejected(self):
        net = init_network(tiny_spec(), 0)
        inputs = {"x": np.ones((2, 3)), "w": np.ones((2, 1))}
        with pytest.raises(ShapeMismatch):
            loss_and_gradients(net, inputs, [0, 2])
        with pytest.raises(ShapeMismatch):
            loss_and_gradients(net, inputs, [0])


class TestTrain:
    def separable_data(self, n=40):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(-2.0, 0.3, size=(n // 2, 2)),
                            rng.normal(2.0, 0.3, size=(n // 2, 2))])
        labels = np.array([0] * (n // 2) + [1] * (n // 2))
        return {"x": x}, labels

    def spec2d(self):
        return GraphSpec(branches=(BranchSpec("x", 2, (8,)),), head_hidden=(8,))

    def test_separable_set_reaches_full_accuracy(self):
        inputs, labels = self.separable_data()
        net = init_network(self.spec2d(), 4)
        net, losses = train(net, inputs, labels,
                            TrainConfig(epochs=500, learning_rate=1e-2, seed=4))
        assert len(losses) == 500
        preds = forward(net, inputs).argmax(axis=1)
        assert (preds == labels).all()
        assert losses[-1] < losses[0]

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=math.inf)

    def test_empty_dataset_rejected(self):
        net = init_network(self.spec2d(), 0)
        with pytest.raises(EmptyDataset):
            train(net, {"x": np.zeros((0, 2))}, [], TrainConfig(epochs=1))

    def test_deterministic_given_seed(self):
        inputs, labels = self.separable_data(20)
        results = []
        for _ in range(2):
            net = init_network(self.spec2d(), 11)
            net, _ = train(net, inputs, labels,
                           TrainConfig(epochs=50, learning_rate=1e-3, seed=11))
            results.append([p.copy() for p in net.parameter_arrays()])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)

    def test_non_finite_loss_raises(self):
        inputs, labels = self.separable_data(20)
        net = init_network(self.spec2d(), 2)
        with pytest.raises(TrainingDiverged):
            train(net, inputs, labels, TrainConfig(epochs=5, learning_rate=1e300))


def parameter_sha256(net):
    h = hashlib.sha256()
    for p in net.parameter_arrays():
        h.update(p.tobytes())
    return h.hexdigest()


class TestModelFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        spec = small_widedeep_spec(width=6)
        net = init_network(spec, 77)
        inputs = random_inputs(rng, spec, 5)
        before = forward(net, inputs)
        path = tmp_path / "model.json"
        save_model(net, path, "widedeep-v1", meta={"seed": 77})
        loaded, topology, meta = load_model(path)
        assert topology == "widedeep-v1"
        assert meta == {"seed": 77}
        assert parameter_sha256(loaded) == parameter_sha256(net)
        for p in loaded.parameter_arrays():
            assert p.dtype == np.float64
            assert p.flags.writeable and p.flags.c_contiguous
        after = forward(loaded, inputs)
        np.testing.assert_array_equal(before, after)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.json")


class TestModelFileAgainstSpec:
    """A model file whose parameters disagree with its own spec, or that
    holds values no training run can produce, is rejected on load."""

    def saved_doc(self, tmp_path):
        net = init_network(small_widedeep_spec(width=4), 5)
        path = tmp_path / "model.json"
        save_model(net, path, "widedeep-v1")
        return path, json.loads(path.read_text(encoding="utf-8"))

    def assert_rejected(self, path, doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @staticmethod
    def plant(layer, key, index, value):
        """Overwrite one float64 of an encoded parameter array."""
        values = np.frombuffer(base64.b64decode(layer[key]), dtype="<f8").copy()
        values[index] = value
        layer[key] = base64.b64encode(values.tobytes()).decode("ascii")

    def test_layer_counts_must_match_spec(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        del doc["params"]["branches"][-1]
        self.assert_rejected(path, doc)
        path, doc = self.saved_doc(tmp_path)
        doc["params"]["branches"][0].append(doc["params"]["branches"][0][0])
        self.assert_rejected(path, doc)
        path, doc = self.saved_doc(tmp_path)
        del doc["params"]["head"][0]
        self.assert_rejected(path, doc)

    def test_activations_must_be_relu_then_softmax(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        doc["params"]["head"][-1]["activation"] = "relu"
        self.assert_rejected(path, doc)
        path, doc = self.saved_doc(tmp_path)
        doc["params"]["branches"][1][0]["activation"] = "softmax"
        self.assert_rejected(path, doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        path, doc = self.saved_doc(tmp_path)
        self.plant(doc["params"]["branches"][2][0], "weights", 0, value)
        self.assert_rejected(path, doc)
        path, doc = self.saved_doc(tmp_path)
        self.plant(doc["params"]["head"][-1], "biases", 1, value)
        self.assert_rejected(path, doc)

    @pytest.mark.parametrize("bad", ["!", "*", " ", "\n", "\u00e9"])
    def test_non_base64_characters_rejected(self, tmp_path, bad):
        # inserted, not replacing, so a decoder that skips them would
        # still find the right byte count
        path, doc = self.saved_doc(tmp_path)
        layer = doc["params"]["branches"][0][0]
        layer["weights"] = layer["weights"][:4] + bad + layer["weights"][4:]
        self.assert_rejected(path, doc)

    @pytest.mark.parametrize("extra", [-8, 7])
    def test_payload_length_must_match_spec(self, tmp_path, extra):
        path, doc = self.saved_doc(tmp_path)
        layer = doc["params"]["head"][0]
        raw = base64.b64decode(layer["weights"])
        raw = raw[:extra] if extra < 0 else raw + bytes(extra)
        layer["weights"] = base64.b64encode(raw).decode("ascii")
        self.assert_rejected(path, doc)

    def test_version_1_document_rejected(self, tmp_path):
        path, doc = self.saved_doc(tmp_path)
        doc["format_version"] = 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version 1.*slidescreen train"):
            load_model(path)
