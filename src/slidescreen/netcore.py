"""Minimal dense-network engine: forward pass, analytic gradients,
training, and NetClassifier, the one fit/predict_proba adapter that every
network classifier kind uses.

The one building block is a stack of dense layers. Each named input
feeds a branch, a stack of dense+ReLU layers; a branch with no layers
passes its input straight on. The branch outputs are concatenated in
declaration order and feed the head, a stack of dense+ReLU layers ending
in a softmax over the N_CLASSES slide classes. The network computes in
float32 (DTYPE), its inputs cast on entry; the features stay float64.
Training is full-batch and bit-deterministic for a fixed (seed, data,
config) triple at a fixed BLAS thread count.

Softmax probabilities are ordered by class index: column 0 = normal,
column 1 = malignant.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .ingest import replace_files

RELU = "relu"
SOFTMAX = "softmax"

MODEL_FORMAT = "slidescreen-model"
MODEL_FORMAT_VERSION = 5
MAX_HEADER_BYTES = 2**16  # bytes a model file's header line may hold; a real one holds ~700

N_CLASSES = 2
DTYPE = np.dtype(np.float32)  # every network array's; model files store it little-endian


class ModelFormatError(Exception):
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
            raise ValueError(f"duplicate input names in {names}")
        if not names:
            raise ValueError("graph has no inputs")
        if any(w < 1 for _, widths, _ in self.stacks() for w in widths):
            raise ValueError(f"non-positive layer width in {self}")

    def n_parameters(self) -> int:
        return sum(n_out * (n_in + 1) for _, widths, _ in self.stacks()
                   for n_in, n_out in zip(widths, widths[1:]))


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    biases: np.ndarray  # (out_dim,)
    activation: str


@dataclass
class NetworkGraph:
    """A network of spec's topology. values holds every parameter, in
    parameter_arrays() order, in one C-contiguous DTYPE buffer; every
    layer's weights and biases are views of it, so change them in place
    (layer.weights[:] = ..., *=), never by rebinding them."""

    spec: GraphSpec
    branches: list[list[DenseLayer]]  # parallel to spec.branches
    head: list[DenseLayer]
    values: np.ndarray

    def layers(self) -> list[DenseLayer]:
        return [layer for stack in (*self.branches, self.head) for layer in stack]

    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameters in canonical order (per layer: weights, biases)."""
        return [p for layer in self.layers() for p in (layer.weights, layer.biases)]


def _graph_on(spec: GraphSpec, values: np.ndarray, shared: bool = False) -> NetworkGraph:
    """The graph of spec whose layers are views of values, a flat DTYPE
    array of spec.n_parameters() elements: per layer in canonical order, the
    weights (out, in) row-major, then the biases. With shared, values needs
    only the largest layer's size, and every layer is a view of its start."""
    stacks, offset = [], 0
    for _, widths, activations in spec.stacks():
        stacks.append([])
        for n_in, n_out, activation in zip(widths, widths[1:], activations):
            end = offset + n_out * n_in
            stacks[-1].append(DenseLayer(values[offset:end].reshape(n_out, n_in),
                                         values[end:end + n_out], activation))
            offset = 0 if shared else end + n_out
    return NetworkGraph(spec, stacks[:-1], stacks[-1], values)


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


def init_network(spec: GraphSpec, seed: int) -> NetworkGraph:
    """He-style uniform weights (bound sqrt(6/fan_in)), zero biases.

    Layers are drawn in float64 in canonical order from one generator and
    rounded to DTYPE, so the same seed always yields bit-identical parameters.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    net = _graph_on(spec, np.zeros(spec.n_parameters(), DTYPE))
    for layer in net.layers():
        bound = np.sqrt(6.0 / layer.weights.shape[1])
        layer.weights[:] = rng.uniform(-bound, bound, size=layer.weights.shape)
    return net


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    """The layer's output; ReLU overwrites z with it."""
    if activation == RELU:
        return np.maximum(z, 0.0, out=z)
    if activation == SOFTMAX:
        return _softmax(z)
    raise ValueError(f"unknown activation {activation!r}")


def _check_inputs(net: NetworkGraph, inputs: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    widths = net.spec.input_widths()
    if set(inputs) != set(widths):
        raise ValueError(f"input names {sorted(inputs)} != expected {sorted(widths)}")
    out = {}
    n_rows = None
    for name, width in widths.items():
        arr = np.asarray(inputs[name], dtype=DTYPE)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != width:
            raise ValueError(f"input {name!r} has shape {arr.shape}, expected (*, {width})")
        if n_rows is None:
            n_rows = arr.shape[0]
        elif arr.shape[0] != n_rows:
            raise ValueError("inputs disagree on batch size")
        out[name] = arr
    return out


class Workspace:
    """The arrays of one training step on n rows, for any graph of spec:
    per stack in canonical order, each layer's output (the backprop
    cache), and the concat. Backprop overwrites a layer's input activation
    (the concat, for the head's first layer) with the layer's input
    gradient, and a branch's output with its slice of the concat gradient."""

    def __init__(self, spec: GraphSpec, n: int):
        stacks = [widths for _, widths, _ in spec.stacks()]
        self.n = n
        self.outputs = [[np.empty((n, w), DTYPE) for w in widths[1:]] for widths in stacks]
        self.concat = np.empty((n, stacks[-1][0]), DTYPE)


def _stack_forward(layers: Sequence[DenseLayer], a: np.ndarray, outs: Sequence[np.ndarray]):
    """Run one stack on its input, writing each layer's output into the
    parallel array of outs; returns the stack's output (an empty stack
    returns its input)."""
    for layer, z in zip(layers, outs):
        np.matmul(a, layer.weights.T, out=z)
        z += layer.biases
        a = _activate(z, layer.activation)
    return a


def _forward(net: NetworkGraph, inputs: dict[str, np.ndarray], work: Workspace) -> np.ndarray:
    """Run the graph in work; returns the class probabilities."""
    outputs = [_stack_forward(layers, inputs[bspec.name], outs)
               for bspec, layers, outs in zip(net.spec.branches, net.branches, work.outputs)]
    # spec.validate() guarantees at least one input feeds the concat
    np.concatenate(outputs, axis=1, out=work.concat)
    return _stack_forward(net.head, work.concat, work.outputs[-1])


def forward(net: NetworkGraph, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
    """Class probabilities, shape (n, N_CLASSES); rows sum to 1."""
    checked = _check_inputs(net, inputs)
    return _forward(net, checked, Workspace(net.spec, len(next(iter(checked.values())))))


def _log_softmax_loss(z: np.ndarray, labels: np.ndarray) -> float:
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return float(np.mean(lse - z[np.arange(z.shape[0]), labels]))


def _stack_backward(layers: Sequence[DenseLayer], grads, k: int, a: np.ndarray,
                    outs: Sequence[np.ndarray], delta: np.ndarray, step, input_grad=False):
    """Backprop through one stack, layers k, k + 1, ... of the graph, whose
    input was a and whose layers wrote outs, from delta, d(loss)/d(z) of its
    top layer. Layer i writes dW and db into grads[k + i], then its input
    gradient over its input activation (layer 0: over a, only with
    input_grad), taking that ReLU output's mask first as a bool array.
    Nothing reads layer i's weights after that, so step(k + i) follows."""
    for i in reversed(range(len(layers))):
        a_in = outs[i - 1] if i else a
        np.matmul(delta.T, a_in, out=grads[k + i].weights)
        np.sum(delta, axis=0, out=grads[k + i].biases)
        if i:  # every layer below the top is ReLU
            mask = np.greater(a_in, 0.0)
            delta = np.matmul(delta, layers[i].weights, out=a_in)
            delta *= mask
        elif input_grad:
            np.matmul(delta, layers[i].weights, out=a_in)
        step(k + i)


def loss_and_gradients(net: NetworkGraph, inputs: Mapping[str, np.ndarray],
                       labels: Sequence[int], grad: NetworkGraph | _Adam | None = None,
                       work: Workspace | None = None):
    """Mean cross-entropy over the batch and its exact analytic gradients.

    The gradients are written into grad, a graph of net's spec (a new one
    when None), and come back as grad.parameter_arrays(). The step runs
    in work, a Workspace of net's spec and the batch's row count (a new
    one when None). grad may instead be the _Adam of a fit of net, which
    then updates each layer of net as soon as backprop is done with it.
    """
    checked = _check_inputs(net, inputs)
    labels = np.asarray(labels, dtype=int)
    n = next(iter(checked.values())).shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= N_CLASSES:
        raise ValueError("label outside class range")
    adam, grad = (grad, grad.grad) if isinstance(grad, _Adam) else (None, grad)
    if grad is None:
        grad = _graph_on(net.spec, np.empty_like(net.values))
    if work is None:
        work = Workspace(net.spec, n)
    elif work.n != n:
        raise ValueError(f"workspace holds {work.n} rows, the batch has {n}")

    probs = _forward(net, checked, work)
    loss = _log_softmax_loss(work.outputs[-1][-1], labels)
    if adam is not None:  # checked before any parameter changes
        if not math.isfinite(loss):
            raise ValueError(f"loss is {loss} at epoch {adam.t + 1} "
                                   f"(learning rate {adam.lr})")
        adam.t += 1

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    delta = (probs - onehot) / n  # d(loss)/d(z_final), mean already applied
    grads, step = grad.layers(), adam.step if adam else lambda k: None
    _stack_backward(net.head, grads, len(grads) - len(net.head), work.concat, work.outputs[-1],
                    delta, step, input_grad=any(net.branches))

    offset = k = 0
    for bspec, layers, outs in zip(net.spec.branches, net.branches, work.outputs):
        width = ((bspec.input_width,) + bspec.hidden)[-1]
        if layers:
            mask = np.greater(outs[-1], 0.0)
            np.copyto(outs[-1], work.concat[:, offset:offset + width])
            outs[-1] *= mask
            del mask  # not alive beside the branch's own masks and Adam's scratch
            _stack_backward(layers, grads, k, checked[bspec.name], outs, outs[-1], step)
        offset += width
        k += len(layers)
    return loss, grad.parameter_arrays()


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_ADAM_BLOCK = 16384  # elements; an update's five blocks (p, g, m, v, scratch) fit in L2


class _Adam:
    """Full-batch Adam (Kingma & Ba, ICLR 2015, Alg. 1) for one fit of net,
    run by loss_and_gradients when passed as its grad. grad is a graph of
    net's spec on one buffer of the largest layer's size, which holds each
    layer's gradient until step has applied it; layers[k] holds layer k's
    slices of net.values, that buffer and the moments m and v."""

    def __init__(self, net: NetworkGraph, learning_rate: float):
        sizes = [layer.weights.size + layer.biases.size for layer in net.layers()]
        self.grad = _graph_on(net.spec, np.empty(max(sizes), DTYPE), shared=True)
        m, v = np.zeros_like(net.values), np.zeros_like(net.values)
        self.layers = [(net.values[e - n:e], self.grad.values[:n], m[e - n:e], v[e - n:e])
                       for n, e in zip(sizes, np.cumsum(sizes).tolist())]
        self.lr, self.t = learning_rate, 0

    def step(self, k: int) -> None:
        """Update layer k at step t in place, block by block, through its
        gradient and a scratch block, both overwritten. Each element gets
        the operations of these lines, each line's in the order written,

            m += (1 - BETA1) * (g - m)
            v += (1 - BETA2) * (g * g - v)
            p -= alpha * m / (sqrt(v) + EPS)

        with the bias corrections folded into alpha (Kingma & Ba, §2), so
        every bit of the result is the same."""
        p, g, m, v = self.layers[k]
        alpha = self.lr * math.sqrt(1.0 - _BETA2 ** self.t) / (1.0 - _BETA1 ** self.t)
        scratch = np.empty(min(_ADAM_BLOCK, p.size), DTYPE)
        for start in range(0, p.size, _ADAM_BLOCK):
            end = start + _ADAM_BLOCK
            pb, gb, mb, vb = p[start:end], g[start:end], m[start:end], v[start:end]
            s = scratch[:pb.size]
            np.multiply(gb, gb, out=s)
            s -= vb
            s *= 1.0 - _BETA2
            vb += s
            gb -= mb
            gb *= 1.0 - _BETA1
            mb += gb
            np.multiply(mb, alpha, out=gb)
            np.sqrt(vb, out=s)
            s += _EPS
            gb /= s
            pb -= gb


def train(net: NetworkGraph, inputs: Mapping[str, np.ndarray],
          labels: Sequence[int], config: TrainConfig):
    """Full-batch Adam training for config.epochs steps.

    Returns (net, loss_trace); the trace records the pre-update loss of
    every epoch. The graph is mutated in place. Besides the parameters, a
    fit holds Adam's two moments, one layer's gradient and one Workspace.
    Raises ValueError at the first non-finite loss, before that epoch
    changes a parameter, and without a numpy warning for the overflow.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise ValueError("training set is empty")
    adam, work = _Adam(net, config.learning_rate), Workspace(net.spec, labels.size)
    with np.errstate(over="ignore", invalid="ignore"):
        return net, [loss_and_gradients(net, inputs, labels, adam, work)[0]
                     for _ in range(config.epochs)]


def require_both_classes(labels: np.ndarray) -> None:
    """Raise ValueError unless every class index occurs in labels."""
    if not set(range(N_CLASSES)) <= set(labels.tolist()):
        raise ValueError("training requires examples of both classes")


class NetClassifier:
    """fit/predict_proba adapter that trains one network of the given
    spec on a feature matrix; route maps the matrix (or a sequence of
    rows) to the network's named inputs. After fit, loss_summary holds
    the first, last and lowest pre-update loss of the training trace and
    the 1-based epoch of the lowest."""

    def __init__(self, config: TrainConfig, spec: GraphSpec,
                 route: Callable[[np.ndarray], Mapping[str, np.ndarray]]):
        self.config = config
        self.spec = spec
        self.route = route
        self.net: NetworkGraph | None = None
        self.loss_summary: dict | None = None

    def fit(self, X, labels: Sequence[int], seed: int = 0):
        labels = np.asarray(labels, dtype=int)
        require_both_classes(labels)
        net = init_network(self.spec, seed)
        self.net, losses = train(net, self.route(X), labels, self.config)
        best = int(np.argmin(losses))  # the first epoch on a tie
        self.loss_summary = {"first": losses[0], "last": losses[-1],
                             "min": losses[best], "min_epoch": best + 1}
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Probability of class 1 (malignant) per row."""
        if self.net is None:
            raise ValueError(f"{type(self).__name__} queried before fit")
        return forward(self.net, self.route(X))[:, 1]


def _header(spec: GraphSpec, topology: str, meta: dict | None = None) -> dict:
    """The header of a model file of spec saved under the topology tag: the
    format tag and version, topology, spec, meta and the activation of every
    layer, per stack."""
    stacks = [list(activations) for _, _, activations in spec.stacks()]
    return {"format": MODEL_FORMAT, "format_version": MODEL_FORMAT_VERSION,
            "topology": topology,
            "spec": {"branches": [asdict(b) for b in spec.branches],
                     "head_hidden": list(spec.head_hidden)},
            "meta": meta or {},
            "activations": {"branches": stacks[:-1], "head": stacks[-1]}}


def save_model(net: NetworkGraph, path, topology: str,
               meta: dict | None = None) -> None:
    """Write a model file: one line of ASCII JSON, the header (see _header),
    then the payload, net.values as little-endian float32 (per layer:
    weights (out, in) row-major, then biases).

    The spec gives every array's shape, so the file holds no offsets.
    Reloading gives bit-identical parameters, so forward outputs are
    reproduced exactly. The file is written by ingest.replace_files.
    """
    replace_files({path: [json.dumps(_header(net.spec, topology, meta)).encode("ascii") + b"\n",
                          np.ascontiguousarray(net.values, dtype="<f4")]})


def load_model(path, topology: str, spec: GraphSpec):
    """Load a model file of spec saved under the topology tag; returns
    (net, meta).

    Only the header line is read, at most MAX_HEADER_BYTES of it. Apart
    from its meta, it must be the header save_model writes for spec and
    topology, compared as canonical JSON text, so 4.0 or true is not 4.
    The payload's byte count is checked against the spec before anything
    is allocated; the payload is then read straight into net.values, of
    which every layer's weights and biases are views.
    """
    path = Path(path)
    expected = _header(spec, topology)
    with open(path, "rb") as fh:
        line = fh.readline(MAX_HEADER_BYTES)
        try:
            header = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            raise ModelFormatError(
                f"{path}: not a valid model file: header is not a line of UTF-8 JSON: {exc}"
            ) from None
        if not isinstance(header, dict):
            raise ModelFormatError(f"{path}: not a valid model file: header is not a JSON object")
        if header.get("format") != MODEL_FORMAT:
            raise ModelFormatError(f"{path}: unknown format {header.get('format')!r}")
        if header.get("format_version") != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"{path}: unsupported model format version {header.get('format_version')!r} "
                f"(this build reads version {MODEL_FORMAT_VERSION}); "
                f"re-run `slidescreen train` to write a new model file")
        if not line.endswith(b"\n"):
            raise ModelFormatError(f"{path}: header line has no newline, so no payload")
        for key in ("topology", "spec", "activations"):
            found, want = (json.dumps(h.get(key), sort_keys=True) for h in (header, expected))
            if found != want:
                raise ModelFormatError(f"{path}: header {key} {found} is not {want}")
        meta = header.get("meta")
        if not isinstance(meta, dict):
            raise ModelFormatError(f"{path}: header has no meta object")

        n_bytes = DTYPE.itemsize * spec.n_parameters()
        payload_bytes = os.fstat(fh.fileno()).st_size - len(line)
        if payload_bytes != n_bytes:
            raise ModelFormatError(
                f"{path}: payload holds {payload_bytes} bytes, spec needs {n_bytes}")
        values = np.empty(spec.n_parameters(), dtype="<f4")
        if fh.readinto(values) != payload_bytes or fh.read(1):
            raise ModelFormatError(f"{path}: file changed while it was read")
    values = values.astype(DTYPE, copy=False)  # a copy on big-endian hosts only

    net = _graph_on(spec, values)
    for (what, _, _), layers in zip(spec.stacks(), [*net.branches, net.head]):
        for i, layer in enumerate(layers):
            if not (np.isfinite(layer.weights).all() and np.isfinite(layer.biases).all()):
                raise ModelFormatError(f"{path}: {what} layer {i} has non-finite parameters")
    return net, meta
