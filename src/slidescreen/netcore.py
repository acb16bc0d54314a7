"""Minimal dense-network engine: forward pass, analytic gradients, training.

Supports one graph family: named input branches (stacks of dense+ReLU
layers), a concatenation of branch outputs with pass-through inputs, and a
dense head ending in a softmax over the two slide classes. Everything is
plain float64 numpy; training is full-batch and bit-deterministic for a
fixed (seed, data, config) triple at a fixed BLAS thread count.

Softmax probabilities are ordered by class index: column 0 = normal,
column 1 = malignant.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

RELU = "relu"
SOFTMAX = "softmax"

MODEL_FORMAT = "slidescreen-model"
MODEL_FORMAT_VERSION = 1


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


@dataclass(frozen=True)
class BranchSpec:
    name: str
    input_width: int
    hidden: tuple[int, ...]


@dataclass(frozen=True)
class GraphSpec:
    """Topology description; the concatenation takes branch outputs in
    declaration order followed by pass-through inputs."""

    branches: tuple[BranchSpec, ...]
    passthrough: tuple[tuple[str, int], ...] = ()
    head_hidden: tuple[int, ...] = ()
    n_outputs: int = 2

    def input_widths(self) -> dict[str, int]:
        widths = {b.name: b.input_width for b in self.branches}
        for name, width in self.passthrough:
            widths[name] = width
        return widths

    def concat_width(self) -> int:
        branch_out = sum(b.hidden[-1] if b.hidden else b.input_width
                         for b in self.branches)
        return branch_out + sum(w for _, w in self.passthrough)

    def validate(self) -> None:
        names = [b.name for b in self.branches] + [n for n, _ in self.passthrough]
        if len(set(names)) != len(names):
            raise InvalidTopology(f"duplicate input names in {names}")
        if not names:
            raise InvalidTopology("graph has no inputs")
        widths = (
            [b.input_width for b in self.branches]
            + [w for b in self.branches for w in b.hidden]
            + [w for _, w in self.passthrough]
            + list(self.head_hidden)
            + [self.n_outputs]
        )
        if any(w < 1 for w in widths):
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
    branches = []
    for bspec in spec.branches:
        layers = []
        width = bspec.input_width
        for hidden in bspec.hidden:
            layers.append(_init_layer(rng, width, hidden, RELU))
            width = hidden
        branches.append(layers)
    head = []
    width = spec.concat_width()
    for hidden in spec.head_hidden:
        head.append(_init_layer(rng, width, hidden, RELU))
        width = hidden
    head.append(_init_layer(rng, width, spec.n_outputs, SOFTMAX))
    return NetworkGraph(spec, branches, head)


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


def _forward_cached(net: NetworkGraph, inputs: dict[str, np.ndarray]):
    """Run the graph, keeping (a_prev, z) per layer for backprop."""
    branch_caches = []
    branch_outputs = []
    for bspec, layers in zip(net.spec.branches, net.branches):
        a = inputs[bspec.name]
        caches = []
        for layer in layers:
            z = a @ layer.weights.T + layer.biases
            caches.append((a, z))
            a = _activate(z, layer.activation)
        branch_caches.append(caches)
        branch_outputs.append(a)
    # spec.validate() guarantees at least one input feeds the concat
    a = np.concatenate(
        branch_outputs + [inputs[name] for name, _ in net.spec.passthrough],
        axis=1,
    )
    head_caches = []
    for layer in net.head:
        z = a @ layer.weights.T + layer.biases
        head_caches.append((a, z))
        a = _activate(z, layer.activation)
    return a, branch_caches, head_caches


def forward(net: NetworkGraph, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
    """Class probabilities, shape (n, n_outputs); rows sum to 1."""
    checked = _check_inputs(net, inputs)
    probs, _, _ = _forward_cached(net, checked)
    return probs


def _log_softmax_loss(z: np.ndarray, labels: np.ndarray) -> float:
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return float(np.mean(lse - z[np.arange(z.shape[0]), labels]))


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
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= net.spec.n_outputs:
        raise ShapeMismatch("label outside class range")

    probs, branch_caches, head_caches = _forward_cached(net, checked)
    z_final = head_caches[-1][1]
    loss = _log_softmax_loss(z_final, labels)

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    delta = (probs - onehot) / n  # d(loss)/d(z_final), mean already applied

    head_grads = []
    for layer, (a_prev, z) in zip(reversed(net.head), reversed(head_caches)):
        if layer.activation == RELU:
            delta = delta * (z > 0)
        # the softmax delta was combined with the loss above
        head_grads.append((delta.T @ a_prev, delta.sum(axis=0)))
        delta = delta @ layer.weights
    head_grads.reverse()

    # split the concat gradient back into per-branch slices
    branch_grads = []
    offset = 0
    for bspec, layers, caches in zip(net.spec.branches, net.branches, branch_caches):
        out_width = layers[-1].weights.shape[0] if layers else bspec.input_width
        d_branch = delta[:, offset:offset + out_width]
        offset += out_width
        grads = []
        for layer, (a_prev, z) in zip(reversed(layers), reversed(caches)):
            if layer.activation == RELU:
                d_branch = d_branch * (z > 0)
            grads.append((d_branch.T @ a_prev, d_branch.sum(axis=0)))
            d_branch = d_branch @ layer.weights
        grads.reverse()
        branch_grads.append(grads)

    flat = []
    for grads in branch_grads:
        for dw, db in grads:
            flat.extend([dw, db])
    for dw, db in head_grads:
        flat.extend([dw, db])
    return loss, flat


def train(net: NetworkGraph, inputs: Mapping[str, np.ndarray],
          labels: Sequence[int], config: TrainConfig):
    """Full-batch Adam training for config.epochs steps.

    Returns (net, loss_trace); the trace records the pre-update loss of
    every epoch. The graph is mutated in place. Raises TrainingDiverged
    as soon as the loss is not finite.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise EmptyDataset("training set is empty")
    params = net.parameter_arrays()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    losses = []
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


def save_model(net: NetworkGraph, path, topology: str,
               meta: dict | None = None) -> None:
    """Write a self-describing JSON model file.

    Floats are serialized with repr (shortest round-trip form), so a
    reloaded model reproduces forward outputs bit-exactly.
    """
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "topology": topology,
        "spec": {
            "branches": [asdict(b) for b in net.spec.branches],
            "passthrough": [list(p) for p in net.spec.passthrough],
            "head_hidden": list(net.spec.head_hidden),
            "n_outputs": net.spec.n_outputs,
        },
        "meta": meta or {},
        "params": {
            "branches": [
                [
                    {
                        "activation": layer.activation,
                        "weights": layer.weights.tolist(),
                        "biases": layer.biases.tolist(),
                    }
                    for layer in branch
                ]
                for branch in net.branches
            ],
            "head": [
                {
                    "activation": layer.activation,
                    "weights": layer.weights.tolist(),
                    "biases": layer.biases.tolist(),
                }
                for layer in net.head
            ],
        },
    }
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


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
        weights = np.array(doc["weights"], dtype=float)
        biases = np.array(doc["biases"], dtype=float)
        if weights.shape != (widths[i + 1], widths[i]) or biases.shape != (widths[i + 1],):
            raise ModelFormatError(
                f"{path}: {what} layer {i} has shapes {weights.shape}, {biases.shape}, "
                f"spec says ({widths[i + 1]}, {widths[i]})")
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
                f"{path}: unsupported version {doc['format_version']!r}"
            )
        spec = GraphSpec(
            branches=tuple(
                BranchSpec(b["name"], int(b["input_width"]), tuple(b["hidden"]))
                for b in doc["spec"]["branches"]
            ),
            passthrough=tuple(
                (name, int(width)) for name, width in doc["spec"]["passthrough"]
            ),
            head_hidden=tuple(doc["spec"]["head_hidden"]),
            n_outputs=int(doc["spec"]["n_outputs"]),
        )
        spec.validate()
        if len(doc["params"]["branches"]) != len(spec.branches):
            raise ModelFormatError(
                f"{path}: {len(doc['params']['branches'])} branches, "
                f"spec says {len(spec.branches)}")
        branches = [
            _layers_from_doc(path, f"branch {bspec.name!r}", layers,
                             (bspec.input_width,) + bspec.hidden,
                             [RELU] * len(bspec.hidden))
            for bspec, layers in zip(spec.branches, doc["params"]["branches"])
        ]
        head = _layers_from_doc(
            path, "head", doc["params"]["head"],
            (spec.concat_width(),) + spec.head_hidden + (spec.n_outputs,),
            [RELU] * len(spec.head_hidden) + [SOFTMAX])
        topology = doc["topology"]
        meta = doc.get("meta", {})
    except (KeyError, TypeError, ValueError, InvalidTopology) as exc:
        raise ModelFormatError(f"{path}: malformed model document: {exc}") from None
    return NetworkGraph(spec, branches, head), topology, meta
