"""Network engine: initialization, forward pass, gradients, training,
and model-file round-trips."""

import hashlib
import json
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from slidescreen import widedeep
from slidescreen.features import N_FEATURES
from slidescreen.netcore import (
    BranchSpec,
    EmptyDataset,
    GraphSpec,
    InvalidTopology,
    ModelFormatError,
    NetClassifier,
    ShapeMismatch,
    TrainConfig,
    TrainingDiverged,
    Workspace,
    forward,
    init_network,
    load_model,
    loss_and_gradients,
    save_model,
    train,
)

from model_files import split_model_file, version_3_document, write_model_file
from oracles import finite_difference_gradients, max_relative_error, reference_train


def tiny_spec(hidden=(4,)):
    return GraphSpec(branches=(BranchSpec("x", 3, hidden), BranchSpec("w", 1)),
                     head_hidden=(4,))


def small_widedeep_spec(width=8):
    return GraphSpec(
        branches=(BranchSpec("mph", 10, (width,)),
                  BranchSpec("lsrl", 2, (width,)),
                  BranchSpec("mcc", 5, (width,)),
                  BranchSpec("mtr", 1)),
        head_hidden=(width,),
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
        spec = GraphSpec(branches=(BranchSpec("x", 2),), head_hidden=())
        net = init_network(spec, 0)
        net.head[0].weights[:] = [[1.0, 2.0], [3.0, -1.0]]
        net.head[0].biases[:] = [0.5, -0.5]
        x = np.array([[1.0, 1.0]])
        z0, z1 = 1.0 + 2.0 + 0.5, 3.0 - 1.0 - 0.5
        expected = np.exp([z0, z1]) / np.exp([z0, z1]).sum()
        np.testing.assert_allclose(forward(net, {"x": x})[0], expected, atol=1e-15)

    def test_large_logits_stay_finite(self):
        spec = GraphSpec(branches=(BranchSpec("x", 1),), head_hidden=())
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
        spec = GraphSpec(branches=(BranchSpec("x", 1),), head_hidden=())
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

    def test_written_into_grad_as_into_a_new_graph(self):
        rng = np.random.default_rng(12)
        spec = small_widedeep_spec(width=5)
        net = init_network(spec, 6)
        inputs = random_inputs(rng, spec, 9)
        labels = rng.integers(0, 2, size=9)
        grad = init_network(spec, 7)  # any graph of the spec; every value is overwritten
        loss, grads = loss_and_gradients(net, inputs, labels, grad)
        fresh_loss, fresh = loss_and_gradients(net, inputs, labels)
        assert all(g is p for g, p in zip(grads, grad.parameter_arrays(), strict=True))
        assert loss == fresh_loss
        assert grad.values.tobytes() == b"".join(g.tobytes() for g in fresh)

    def test_bad_labels_rejected(self):
        net = init_network(tiny_spec(), 0)
        inputs = {"x": np.ones((2, 3)), "w": np.ones((2, 1))}
        with pytest.raises(ShapeMismatch):
            loss_and_gradients(net, inputs, [0, 2])
        with pytest.raises(ShapeMismatch):
            loss_and_gradients(net, inputs, [0])


class TestWorkspace:
    def test_row_count_mismatch_rejected_after_the_input_checks(self):
        spec = tiny_spec()
        net = init_network(spec, 0)
        inputs = {"x": np.ones((4, 3)), "w": np.ones((4, 1))}
        work = Workspace(spec, 5)
        with pytest.raises(ShapeMismatch, match="labels shape"):
            loss_and_gradients(net, inputs, [0, 1, 0], work=work)
        with pytest.raises(ShapeMismatch, match="input names"):
            loss_and_gradients(net, {"x": inputs["x"]}, [0, 1, 0, 1], work=work)
        with pytest.raises(ShapeMismatch, match=r"workspace holds 5 rows, the batch has 4"):
            loss_and_gradients(net, inputs, [0, 1, 0, 1], work=work)

    def test_reused_across_nets_of_one_spec_as_without_one(self):
        rng = np.random.default_rng(21)
        spec = GraphSpec(branches=(BranchSpec("a", 3), BranchSpec("b", 4, (9,)),
                                   BranchSpec("c", 5, (6, 11, 7))),
                         head_hidden=(8, 12, 5))
        inputs = random_inputs(rng, spec, 7)
        labels = rng.integers(0, 2, size=7)
        nets = [init_network(spec, seed) for seed in (6, 8, 6)]
        work, grad = Workspace(spec, 7), init_network(spec, 0)
        for net in nets:
            loss, _ = loss_and_gradients(net, inputs, labels, grad, work)
            fresh_loss, fresh = loss_and_gradients(net, inputs, labels)
            assert loss.hex() == fresh_loss.hex()
            assert grad.values.tobytes() == b"".join(g.tobytes() for g in fresh)

    @pytest.mark.parametrize("name", ["widedeep", "ann"])
    def test_step_in_a_workspace_allocates_no_batch_sized_array(self, name):
        # one n x 300 float64 activation is 375 KiB at n = 160
        spec = TestTrainAgainstReference.SPECS[name]
        inputs, labels = TestTrainAgainstReference().data(name, 4, n=160)
        net, grad, work = init_network(spec, 4), init_network(spec, 5), Workspace(spec, 160)
        loss_and_gradients(net, inputs, labels, grad, work)
        tracemalloc.start()
        try:
            loss_and_gradients(net, inputs, labels, grad, work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 192 * 2**10


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

    @pytest.mark.parametrize("name", ["widedeep", "ann"])
    def test_fit_holds_one_layer_gradient_beside_parameters_and_moments(self, name):
        # the parameters, Adam's two moments, one layer's gradient and the
        # workspace; 256 KiB covers the update's 128 KiB scratch block, the
        # n x 300 bool ReLU masks and numpy's 64 KiB ufunc buffer. A
        # model-sized gradient would add a fourth model-sized buffer.
        spec = TestTrainAgainstReference.SPECS[name]
        inputs, labels = TestTrainAgainstReference().data(name, 4, n=160)
        work = Workspace(spec, 160)
        largest = max(layer.weights.nbytes + layer.biases.nbytes
                      for layer in init_network(spec, 0).layers())
        bound = (3 * 8 * spec.n_parameters() + largest + work.concat.nbytes
                 + sum(a.nbytes for outs in work.outputs for a in outs) + 256 * 2**10)
        tracemalloc.start()
        try:
            train(init_network(spec, 4), inputs, labels, TrainConfig(epochs=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestTrainAgainstReference:
    """train keeps every bit of the allocating reference step in
    oracles.py: the in-place Adam applied layer by layer as backprop
    finishes each layer, the workspace buffers, the input gradients
    written over the activations with the ReLU masks taken first, and the
    skipped input gradients change no operation on any value. The mixed
    specs have branches of 0, 1 and 3 hidden layers and heads of 1 and 3
    layers."""

    MIXED = (BranchSpec("a", 3), BranchSpec("b", 4, (9,)), BranchSpec("c", 5, (6, 11, 7)))
    SPECS = {
        "widedeep": widedeep.widedeep_spec(),
        "ann": GraphSpec(branches=(BranchSpec("features", N_FEATURES),),
                         head_hidden=(300, 300)),
        "mixed-head1": GraphSpec(branches=MIXED, head_hidden=(10,)),
        "mixed-head3": GraphSpec(branches=MIXED, head_hidden=(8, 12, 5)),
    }

    def data(self, name, seed, n=48):
        rng = np.random.default_rng(seed)
        X = rng.random((n, N_FEATURES))
        labels = (X[:, 0] + 0.5 * rng.random(n) > 0.75).astype(int)
        if name == "widedeep":
            return widedeep.features_to_inputs(X), labels
        if name == "ann":
            return {"features": X}, labels
        return {"a": X[:, :3], "b": X[:, 3:7], "c": X[:, 7:12]}, labels

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("name", ["widedeep", "ann", "mixed-head1", "mixed-head3"])
    def test_parameters_and_loss_trace_identical(self, name, seed):
        inputs, labels = self.data(name, seed)
        config = TrainConfig(epochs=25, learning_rate=1e-3, seed=seed)
        net, losses = train(init_network(self.SPECS[name], seed), inputs, labels, config)
        reference = init_network(self.SPECS[name], seed)
        reference_losses = reference_train(reference, inputs, labels, 25, 1e-3)
        assert [x.hex() for x in losses] == [x.hex() for x in reference_losses]
        assert parameter_sha256(net) == parameter_sha256(reference)

    @pytest.mark.parametrize("name", ["widedeep", "ann"])
    def test_divergence_at_the_same_epoch(self, name):
        inputs, labels = self.data(name, 5)
        reference_losses = reference_train(init_network(self.SPECS[name], 5), inputs,
                                           labels, 25, 1e300)
        assert not math.isfinite(reference_losses[-1])
        with pytest.raises(TrainingDiverged, match=f" at epoch {len(reference_losses)} "):
            train(init_network(self.SPECS[name], 5), inputs, labels,
                  TrainConfig(epochs=25, learning_rate=1e300))

    @pytest.mark.parametrize("name", ["widedeep", "ann"])
    def test_diverged_epoch_changes_no_parameter(self, name):
        inputs, labels = self.data(name, 5)
        reference = init_network(self.SPECS[name], 5)
        reference_train(reference, inputs, labels, 25, 1e300)
        net = init_network(self.SPECS[name], 5)
        with pytest.raises(TrainingDiverged):
            train(net, inputs, labels, TrainConfig(epochs=25, learning_rate=1e300))
        assert parameter_sha256(net) == parameter_sha256(reference)


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
        loaded, meta = load_model(path, "widedeep-v1", spec)
        assert loaded.spec == spec
        assert meta == {"seed": 77}
        assert parameter_sha256(loaded) == parameter_sha256(net)
        for p in loaded.parameter_arrays():
            assert p.dtype == np.float64
            assert p.flags.writeable and p.flags.c_contiguous and p.flags.aligned
        after = forward(loaded, inputs)
        np.testing.assert_array_equal(before, after)

    def test_layers_are_views_of_one_buffer(self, tmp_path):
        """Initialised or loaded, every parameter array is a view of
        net.values at its payload offset."""
        path = tmp_path / "model.json"
        net = init_network(small_widedeep_spec(width=6), 2)
        save_model(net, path, "widedeep-v1")
        loaded, _ = load_model(path, "widedeep-v1", net.spec)
        for graph in (net, loaded):
            values = graph.values
            assert values.ndim == 1 and values.dtype == np.float64
            assert values.flags.c_contiguous and values.flags.writeable
            address, offset = values.__array_interface__["data"][0], 0
            for p in graph.parameter_arrays():
                assert p.base is values
                assert p.__array_interface__["data"][0] == address + 8 * offset
                offset += p.size
            assert offset == values.size == graph.spec.n_parameters()

    def test_layout_is_header_line_then_raw_float64(self, tmp_path):
        net = init_network(small_widedeep_spec(width=3), 4)
        path = tmp_path / "model.json"
        save_model(net, path, "widedeep-v1", meta={"note": "café"})
        raw = path.read_bytes()
        header_line = raw[:raw.index(b"\n") + 1]
        assert header_line.isascii()
        assert json.loads(header_line)["meta"] == {"note": "café"}
        expected = b"".join(p.astype("<f8").tobytes() for p in net.parameter_arrays())
        assert raw[len(header_line):] == expected == net.values.astype("<f8").tobytes()

    def test_branch_without_hidden_layers_saved_as_empty_stack(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_network(small_widedeep_spec(), 1), path, "widedeep-v1")
        header, _ = split_model_file(path)
        assert header["format_version"] == 4
        assert set(header["spec"]) == {"branches", "head_hidden"}
        assert header["spec"]["branches"][-1] == {"name": "mtr", "input_width": 1,
                                                  "hidden": []}
        assert header["activations"]["branches"][-1] == []
        assert header["activations"]["head"] == ["relu", "softmax"]

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path, "widedeep-v1", small_widedeep_spec())

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path, "widedeep-v1", small_widedeep_spec())

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.json", "widedeep-v1", small_widedeep_spec())


class TestAtomicSave:
    class Unwritable:
        def __array__(self, dtype=None, copy=None):
            raise RuntimeError("disk went away")

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_network(small_widedeep_spec(), 1), path, "widedeep-v1")
        before = path.read_bytes()
        net = init_network(small_widedeep_spec(), 2)
        net.values = self.Unwritable()  # raises after the header is written
        with pytest.raises(RuntimeError, match="disk went away"):
            save_model(net, path, "widedeep-v1")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


class TestModelFileAgainstSpec:
    """A model file whose header is not the one save_model writes for
    the spec it is loaded as, whose payload is not exactly what the spec
    needs, or that holds values no training run can produce, is rejected
    on load."""

    def saved_doc(self, tmp_path):
        self.net = init_network(small_widedeep_spec(width=4), 5)
        path = tmp_path / "model.json"
        save_model(self.net, path, "widedeep-v1")
        return (path, *split_model_file(path))

    def assert_rejected(self, path, header, payload, match=None):
        write_model_file(path, header, payload)
        with pytest.raises(ModelFormatError, match=match):
            load_model(path, "widedeep-v1", self.net.spec)

    def plant(self, payload, array, index, value):
        """Overwrite one float64 of a parameter array in the payload."""
        offset = 0
        for p in self.net.parameter_arrays():
            if p is array:
                break
            offset += p.size
        values = np.frombuffer(payload, dtype="<f8").copy()
        values[offset + index] = value
        return values.tobytes()

    def test_layer_counts_must_match_spec(self, tmp_path):
        path, header, payload = self.saved_doc(tmp_path)
        del header["activations"]["branches"][-1]
        self.assert_rejected(path, header, payload)
        path, header, payload = self.saved_doc(tmp_path)
        header["activations"]["branches"][0].append("relu")
        self.assert_rejected(path, header, payload)
        path, header, payload = self.saved_doc(tmp_path)
        del header["activations"]["head"][0]
        self.assert_rejected(path, header, payload)
        # one branch too many, holding what the head should
        path, header, payload = self.saved_doc(tmp_path)
        header["activations"]["branches"].append(header["activations"]["head"])
        self.assert_rejected(path, header, payload)

    def test_activations_must_be_relu_then_softmax(self, tmp_path):
        path, header, payload = self.saved_doc(tmp_path)
        header["activations"]["head"][-1] = "relu"
        self.assert_rejected(path, header, payload)
        path, header, payload = self.saved_doc(tmp_path)
        header["activations"]["branches"][1][0] = "softmax"
        self.assert_rejected(path, header, payload)

    def test_invalid_spec_rejected(self, tmp_path):
        for edit in (lambda s: s["branches"][0].update(input_width=0),
                     # the right size, so only the type check catches it
                     lambda s: s["branches"][0].update(hidden=[4.0]),
                     lambda s: s["branches"][0].update(hidden=[True]),
                     lambda s: s["branches"].append(s["branches"][0]),
                     lambda s: s.pop("head_hidden")):
            path, header, payload = self.saved_doc(tmp_path)
            edit(header["spec"])
            self.assert_rejected(path, header, payload)

    @pytest.mark.parametrize("meta", ["absent", None, [], "seed"])
    def test_header_without_meta_object_rejected(self, tmp_path, meta):
        path, header, payload = self.saved_doc(tmp_path)
        if meta == "absent":
            del header["meta"]
        else:
            header["meta"] = meta
        self.assert_rejected(path, header, payload, match="no meta object")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        path, header, payload = self.saved_doc(tmp_path)
        payload = self.plant(payload, self.net.branches[2][0].weights, 0, value)
        self.assert_rejected(path, header, payload)
        path, header, payload = self.saved_doc(tmp_path)
        payload = self.plant(payload, self.net.head[-1].biases, 1, value)
        self.assert_rejected(path, header, payload)

    @pytest.mark.parametrize("bad", [b"!", b"*", b" ", b"\n", b"\xe9"])
    def test_stray_byte_after_header_rejected(self, tmp_path, bad):
        # inserted, not replacing, so a reader that skipped it would
        # still find the right byte count
        path, header, payload = self.saved_doc(tmp_path)
        self.assert_rejected(path, header, bad + payload, match="payload holds")

    @pytest.mark.parametrize("extra", [-8, 7, 8])
    def test_payload_length_must_match_spec(self, tmp_path, extra):
        path, header, payload = self.saved_doc(tmp_path)
        payload = payload[:extra] if extra < 0 else payload + bytes(extra)
        self.assert_rejected(path, header, payload, match="payload holds")

    def test_file_shrinking_while_read_rejected(self, tmp_path, monkeypatch):
        # the size taken before allocating still says the payload is whole
        path, header, payload = self.saved_doc(tmp_path)
        write_model_file(path, header, payload[:-8])
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat",
                            lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
        with pytest.raises(ModelFormatError, match="changed while"):
            load_model(path, "widedeep-v1", self.net.spec)

    def test_huge_spec_rejected_without_allocating(self, tmp_path):
        path, header, payload = self.saved_doc(tmp_path)
        header["spec"]["head_hidden"] = [10**12]
        write_model_file(path, header, payload)
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match="header spec"):
                load_model(path, "widedeep-v1", self.net.spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_header_not_utf8_rejected(self, tmp_path):
        path, header, payload = self.saved_doc(tmp_path)
        line = json.dumps(header).encode("ascii").replace(b"widedeep-v1", b"wide\xffdeep")
        path.write_bytes(line + b"\n" + payload)
        with pytest.raises(ModelFormatError, match="UTF-8 JSON"):
            load_model(path, "widedeep-v1", self.net.spec)

    def test_header_without_newline_rejected(self, tmp_path):
        path, header, _ = self.saved_doc(tmp_path)
        path.write_bytes(json.dumps(header).encode("ascii"))
        with pytest.raises(ModelFormatError, match="no newline"):
            load_model(path, "widedeep-v1", self.net.spec)

    def test_wrong_format_tag_rejected(self, tmp_path):
        path, header, payload = self.saved_doc(tmp_path)
        header["format"] = "other-model"
        self.assert_rejected(path, header, payload, match="unknown format")

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_version_document_rejected(self, tmp_path, version):
        path, header, payload = self.saved_doc(tmp_path)
        header["format_version"] = version
        self.assert_rejected(path, header, payload,
                             match=f"version {version}.*slidescreen train")

    def test_multiline_version_3_document_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(version_3_document(init_network(small_widedeep_spec(), 3),
                                           "widedeep-v1"), encoding="utf-8")
        assert path.read_text(encoding="utf-8").startswith("{\n")
        with pytest.raises(ModelFormatError, match="not a line of UTF-8 JSON"):
            load_model(path, "widedeep-v1", small_widedeep_spec())


class TestLossSummary:
    def test_five_epoch_fit_summarizes_trace(self):
        rng = np.random.default_rng(8)
        spec = tiny_spec()
        X = rng.normal(size=(12, 4))
        labels = np.array([0, 1] * 6)

        def route(X):
            X = np.asarray(X)
            return {"x": X[:, :3], "w": X[:, 3:]}

        config = TrainConfig(epochs=5, learning_rate=0.05)
        clf = NetClassifier(config, spec, route).fit(X, labels, seed=4)
        _, losses = train(init_network(spec, 4), route(X), labels, config)
        best = int(np.argmin(losses))
        assert clf.loss_summary == {"first": losses[0], "last": losses[4],
                                    "min": losses[best], "min_epoch": best + 1}
        assert 1 <= clf.loss_summary["min_epoch"] <= 5
        assert clf.loss_summary["min"] == min(losses)
