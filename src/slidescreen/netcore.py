"""Minimal dense-network engine: forward pass, analytic gradients,
training, and NetClassifier, the one fit/predict_proba adapter that every
network classifier kind uses.

The one building block is a stack of dense layers. Each named input
feeds a branch, a stack of dense+ReLU layers; a branch with no layers
passes its input straight on. The branch outputs are concatenated in
declaration order and feed the head, a stack of dense+ReLU layers ending
in a softmax over the N_CLASSES slide classes. Everything is plain
float64 numpy; training is full-batch and bit-deterministic for a fixed
(seed, data, config) triple at a fixed BLAS thread count.

Softmax probabilities are ordered by class index: column 0 = normal,
column 1 = malignant.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

RELU = "relu"
SOFTMAX = "softmax"

MODEL_FORMAT = "slidescreen-model"
MODEL_FORMAT_VERSION = 3

N_CLASSES = 2


class InvalidTopology(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class EmptyDataset(Exception):
    pass


class SingleClassDataset(Exception):
    pass


class ModelFormatError(Exception):
    pass


class TrainingDiverged(Exception):
    pass


class NotFitted(Exception):
    pass


@dataclass(frozen=True)
class BranchSpec:
    name: str
    input_width: int
    hidden: tuple[int, ...] = ()


@dataclass(frozen=True)
class GraphSpec:
    """Topology description; the head takes the branch outputs
    concatenated in declaration order."""

    branches: tuple[BranchSpec, ...]
    head_hidden: tuple[int, ...] = ()

    def input_widths(self) -> dict[str, int]:
        return {b.name: b.input_width for b in self.branches}

    def stacks(self) -> list[tuple[str, tuple[int, ...], tuple[str, ...]]]:
        """(what, widths, activations) of every stack in canonical order,
        the branches then the head: layer i maps widths[i] to
        widths[i + 1] with activations[i], and widths[-1] is the stack's
        output width."""
        stacks = [(f"branch {b.name!r}", (b.input_width,) + b.hidden,
                   (RELU,) * len(b.hidden)) for b in self.branches]
        concat = sum(widths[-1] for _, widths, _ in stacks)
        stacks.append(("head", (concat,) + self.head_hidden + (N_CLASSES,),
                       (RELU,) * len(self.head_hidden) + (SOFTMAX,)))
        return stacks

    def validate(self) -> None:
        names = [b.name for b in self.branches]
        if len(set(names)) != len(names):
            raise InvalidTopology(f"duplicate input names in {names}")
        if not names:
            raise InvalidTopology("graph has no inputs")
        if any(w < 1 for _, widths, _ in self.stacks() for w in widths):
            raise InvalidTopology(f"non-positive layer width in {self}")


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    biases: np.ndarray  # (out_dim,)
    activation: str


@dataclass
class NetworkGraph:
    spec: GraphSpec
    branches: list[list[DenseLayer]]  # parallel to spec.branches
    head: list[DenseLayer]

    def layers(self) -> list[DenseLayer]:
        out = [layer for branch in self.branches for layer in branch]
        return out + list(self.head)

    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameters in canonical order (per layer: weights, biases)."""
        params = []
        for layer in self.layers():
            params.append(layer.weights)
            params.append(layer.biases)
        return params

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameter_arrays())


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10000
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


def _init_layer(rng: np.random.Generator, in_width: int, out_width: int,
                activation: str) -> DenseLayer:
    bound = np.sqrt(6.0 / in_width)
    weights = rng.uniform(-bound, bound, size=(out_width, in_width))
    return DenseLayer(weights, np.zeros(out_width), activation)


def init_network(spec: GraphSpec, seed: int) -> NetworkGraph:
    """He-style uniform weights (bound sqrt(6/fan_in)), zero biases.

    Layers are drawn in canonical order from one generator, so the same
    seed always yields bit-identical parameters.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    stacks = [[_init_layer(rng, widths[i], widths[i + 1], activation)
               for i, activation in enumerate(activations)]
              for _, widths, activations in spec.stacks()]
    return NetworkGraph(spec, stacks[:-1], stacks[-1])


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == RELU:
        return np.maximum(z, 0.0)
    if activation == SOFTMAX:
        return _softmax(z)
    raise InvalidTopology(f"unknown activation {activation!r}")


def _check_inputs(net: NetworkGraph, inputs: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    widths = net.spec.input_widths()
    if set(inputs) != set(widths):
        raise ShapeMismatch(
            f"input names {sorted(inputs)} != expected {sorted(widths)}"
        )
    out = {}
    n_rows = None
    for name, width in widths.items():
        arr = np.asarray(inputs[name], dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != width:
            raise ShapeMismatch(
                f"input {name!r} has shape {arr.shape}, expected (*, {width})"
            )
        if n_rows is None:
            n_rows = arr.shape[0]
        elif arr.shape[0] != n_rows:
            raise ShapeMismatch("inputs disagree on batch size")
        out[name] = arr
    return out


def _stack_forward(layers: Sequence[DenseLayer], a: np.ndarray):
    """Run one stack on its input; returns its output and the (a_prev, z)
    of every layer for backprop. An empty stack returns its input."""
    caches = []
    for layer in layers:
        z = a @ layer.weights.T + layer.biases
        caches.append((a, z))
        a = _activate(z, layer.activation)
    return a, caches


def _forward_cached(net: NetworkGraph, inputs: dict[str, np.ndarray]):
    """Run the graph; returns the class probabilities and the caches of
    every stack in canonical order (the branches, then the head)."""
    outputs, caches = [], []
    for bspec, layers in zip(net.spec.branches, net.branches):
        a, stack_caches = _stack_forward(layers, inputs[bspec.name])
        outputs.append(a)
        caches.append(stack_caches)
    # spec.validate() guarantees at least one input feeds the concat
    probs, head_caches = _stack_forward(net.head, np.concatenate(outputs, axis=1))
    return probs, caches + [head_caches]


def forward(net: NetworkGraph, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
    """Class probabilities, shape (n, N_CLASSES); rows sum to 1."""
    probs, _ = _forward_cached(net, _check_inputs(net, inputs))
    return probs


def _log_softmax_loss(z: np.ndarray, labels: np.ndarray) -> float:
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return float(np.mean(lse - z[np.arange(z.shape[0]), labels]))


def _stack_backward(layers: Sequence[DenseLayer], caches, delta: np.ndarray):
    """Backprop through one stack. delta is d(loss)/d(stack output), or
    d(loss)/d(z) where the last layer is the softmax, whose delta is
    combined with the loss. Returns the flat [dW, db, ...] of the stack's
    layers in order, and d(loss)/d(stack input)."""
    grads = []
    for layer, (a_prev, z) in zip(reversed(layers), reversed(caches)):
        if layer.activation == RELU:
            delta = delta * (z > 0)
        grads.append((delta.T @ a_prev, delta.sum(axis=0)))
        delta = delta @ layer.weights
    return [g for pair in reversed(grads) for g in pair], delta


def loss_and_gradients(net: NetworkGraph, inputs: Mapping[str, np.ndarray],
                       labels: Sequence[int]):
    """Mean cross-entropy over the batch and its exact analytic gradients.

    Gradients come back as a flat list matching parameter_arrays().
    """
    checked = _check_inputs(net, inputs)
    labels = np.asarray(labels, dtype=int)
    n = next(iter(checked.values())).shape[0]
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels shape {labels.shape} != ({n},)")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= N_CLASSES:
        raise ShapeMismatch("label outside class range")

    probs, caches = _forward_cached(net, checked)
    loss = _log_softmax_loss(caches[-1][-1][1], labels)

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    delta = (probs - onehot) / n  # d(loss)/d(z_final), mean already applied
    head_grads, delta = _stack_backward(net.head, caches[-1], delta)

    # split the concat gradient back into per-branch slices
    flat = []
    offset = 0
    for layers, stack_caches, (_, widths, _) in zip(net.branches, caches,
                                                     net.spec.stacks()):
        grads, _ = _stack_backward(layers, stack_caches,
                                   delta[:, offset:offset + widths[-1]])
        offset += widths[-1]
        flat += grads
    return loss, flat + head_grads


def train(net: NetworkGraph, inputs: Mapping[str, np.ndarray],
          labels: Sequence[int], config: TrainConfig):
    """Full-batch Adam training for config.epochs steps.

    Returns (net, loss_trace); the trace records the pre-update loss of
    every epoch. The graph is mutated in place. Raises TrainingDiverged
    as soon as the loss is not finite; the overflow that leads there is
    not also reported as a numpy warning.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise EmptyDataset("training set is empty")
    params = net.parameter_arrays()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.epochs + 1):
            loss, grads = loss_and_gradients(net, inputs, labels)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"loss is {loss} at epoch {t} (learning rate {config.learning_rate})")
            losses.append(loss)
            bc1 = 1.0 - beta1 ** t
            bc2 = 1.0 - beta2 ** t
            for p, g, mi, vi in zip(params, grads, m, v):
                mi += (1.0 - beta1) * (g - mi)
                vi += (1.0 - beta2) * (g * g - vi)
                p -= config.learning_rate * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
    return net, losses


def require_both_classes(labels: np.ndarray) -> None:
    """Raise SingleClassDataset unless every class index occurs in labels."""
    if not set(range(N_CLASSES)) <= set(labels.tolist()):
        raise SingleClassDataset("training requires examples of both classes")


class NetClassifier:
    """fit/predict_proba adapter that trains one network of the given
    spec on a feature matrix; route maps the matrix (or a sequence of
    rows) to the network's named inputs."""

    def __init__(self, config: TrainConfig, spec: GraphSpec,
                 route: Callable[[np.ndarray], Mapping[str, np.ndarray]]):
        self.config = config
        self.spec = spec
        self.route = route
        self.net: NetworkGraph | None = None

    def fit(self, X, labels: Sequence[int], seed: int = 0):
        labels = np.asarray(labels, dtype=int)
        require_both_classes(labels)
        net = init_network(self.spec, seed)
        self.net, _ = train(net, self.route(X), labels, replace(self.config, seed=seed))
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Probability of class 1 (malignant) per row."""
        if self.net is None:
            raise NotFitted(f"{type(self).__name__} queried before fit")
        return forward(self.net, self.route(X))[:, 1]


def _encode_array(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _layer_doc(layer: DenseLayer) -> dict:
    return {"activation": layer.activation,
            "weights": _encode_array(layer.weights),
            "biases": _encode_array(layer.biases)}


def save_model(net: NetworkGraph, path, topology: str,
               meta: dict | None = None) -> None:
    """Write a self-describing JSON model file.

    Each layer's weights and biases are one base64 string of the array's
    little-endian float64 bytes in row-major order, so a reloaded model
    holds bit-identical parameters and reproduces forward outputs exactly.
    """
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "topology": topology,
        "spec": {
            "branches": [asdict(b) for b in net.spec.branches],
            "head_hidden": list(net.spec.head_hidden),
        },
        "meta": meta or {},
        "params": {
            "branches": [[_layer_doc(layer) for layer in branch]
                         for branch in net.branches],
            "head": [_layer_doc(layer) for layer in net.head],
        },
    }
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _decode_array(path, what: str, text, shape: tuple[int, ...]) -> np.ndarray:
    """One base64 parameter string as a writable float64 array of the
    given shape; the byte count must be exactly what the shape needs."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ModelFormatError(f"{path}: {what} is not valid base64: {exc}") from None
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise ModelFormatError(
            f"{path}: {what} holds {len(raw)} bytes, spec shape {shape} needs {expected}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _layers_from_doc(path, what: str, docs, widths: Sequence[int],
                     activations: Sequence[str]) -> list[DenseLayer]:
    """Parse one stack of layers and check it against the spec: layer i
    maps widths[i] to widths[i + 1] with activations[i], and every
    parameter is finite."""
    if len(docs) != len(activations):
        raise ModelFormatError(
            f"{path}: {what} has {len(docs)} layers, spec says {len(activations)}")
    layers = []
    for i, doc in enumerate(docs):
        weights = _decode_array(path, f"{what} layer {i} weights", doc["weights"],
                                (widths[i + 1], widths[i]))
        biases = _decode_array(path, f"{what} layer {i} biases", doc["biases"],
                               (widths[i + 1],))
        if doc["activation"] != activations[i]:
            raise ModelFormatError(
                f"{path}: {what} layer {i} activation {doc['activation']!r}, "
                f"expected {activations[i]!r}")
        if not (np.isfinite(weights).all() and np.isfinite(biases).all()):
            raise ModelFormatError(f"{path}: {what} layer {i} has non-finite parameters")
        layers.append(DenseLayer(weights, biases, activations[i]))
    return layers


def load_model(path):
    """Load a model file; returns (net, topology_tag, meta)."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: not a valid model file: {exc}") from None
    try:
        if doc["format"] != MODEL_FORMAT:
            raise ModelFormatError(f"{path}: unknown format {doc.get('format')!r}")
        if doc["format_version"] != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"{path}: unsupported model format version {doc['format_version']!r} "
                f"(this build reads version {MODEL_FORMAT_VERSION}); "
                f"re-run `slidescreen train` to write a new model file")
        spec = GraphSpec(
            branches=tuple(
                BranchSpec(b["name"], int(b["input_width"]), tuple(b["hidden"]))
                for b in doc["spec"]["branches"]
            ),
            head_hidden=tuple(doc["spec"]["head_hidden"]),
        )
        spec.validate()
        if len(doc["params"]["branches"]) != len(spec.branches):
            raise ModelFormatError(
                f"{path}: {len(doc['params']['branches'])} branches, "
                f"spec says {len(spec.branches)}")
        stacks = [
            _layers_from_doc(path, what, layer_docs, widths, activations)
            for (what, widths, activations), layer_docs
            in zip(spec.stacks(), [*doc["params"]["branches"], doc["params"]["head"]])
        ]
        topology = doc["topology"]
        meta = doc.get("meta", {})
    except (KeyError, TypeError, ValueError, InvalidTopology) as exc:
        raise ModelFormatError(f"{path}: malformed model document: {exc}") from None
    return NetworkGraph(spec, stacks[:-1], stacks[-1]), topology, meta
