"""Independent reference implementations used as test oracles.

Each oracle is deliberately naive (quadratic scans, exhaustive
enumeration, grid search, finite differences, one csv.writer call per
row) and shares no code with the production paths it checks.
"""

import csv
import math

import numpy as np


def naive_components(centers, d):
    """Quadratic seeded-region clustering: pop the first remaining point,
    then repeatedly sweep the remaining points, absorbing every point
    within distance d of any component member, until the component stops
    growing; repeat until no points remain."""
    centers = list(centers)
    components = []
    while centers:
        component = [centers[0]]
        centers = centers[1:]
        i = 0
        while i < len(component):
            cx, cy = component[i]
            remaining = []
            for point in centers:
                if math.dist((cx, cy), point) <= d:
                    component.append(point)
                else:
                    remaining.append(point)
            centers = remaining
            i += 1
        components.append(component)
    return components


def as_partition(components):
    return frozenset(frozenset(c) for c in components)


def labels_as_partition(points, labels):
    """as_partition of the components that a label per point names."""
    components = {}
    for point, label in zip(points, labels):
        components.setdefault(label, []).append(point)
    return as_partition(components.values())


def line_sse(ys, m, b):
    return sum((y - (m * x + b)) ** 2 for x, y in enumerate(ys))


def grid_refine_line(ys, rounds=14, span=2.0, grid=41):
    """Brute-force SSE minimizer: shrinking grid search over the line's
    slope and its height at the abscissa centroid. Searching in centered
    coordinates makes the two axes independent, so the search cannot stall
    in the correlated (slope, intercept) valley; the intercept is read off
    the found line afterwards.
    """
    xs = np.arange(len(ys), dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_center = xs.mean()
    u = xs - x_center
    best_m, best_c = 0.0, 0.0  # c = line height at x_center
    s = span
    for _ in range(rounds):
        ms = np.linspace(best_m - s, best_m + s, grid)
        cs = np.linspace(best_c - s, best_c + s, grid)
        pred = ms[:, None, None] * u[None, None, :] + cs[None, :, None]
        sse = ((ys[None, None, :] - pred) ** 2).sum(axis=2)
        i, j = np.unravel_index(np.argmin(sse), sse.shape)
        best_m, best_c = float(ms[i]), float(cs[j])
        s = 4.0 * s / (grid - 1)  # keep the optimum safely interior
    return best_m, best_c - best_m * x_center


def pairwise_auc(scores, labels, positive=1):
    """AUC by exhaustive enumeration of all positive x negative pairs,
    counting ties as half a win. Exact (integer numerator over 2)."""
    pos = [s for s, lab in zip(scores, labels) if lab == positive]
    neg = [s for s, lab in zip(scores, labels) if lab != positive]
    doubled_wins = 0
    for p in pos:
        for n in neg:
            if p > n:
                doubled_wins += 2
            elif p == n:
                doubled_wins += 1
    return doubled_wins / (2 * len(pos) * len(neg))


def float64_copy(net):
    """A NetworkGraph of net's spec whose parameters are new float64 copies
    of net's (its values buffer is None)."""
    from slidescreen.netcore import DenseLayer, NetworkGraph

    def copy(layers):
        return [DenseLayer(layer.weights.astype(np.float64), layer.biases.astype(np.float64),
                           layer.activation) for layer in layers]

    return NetworkGraph(net.spec, [copy(layers) for layers in net.branches], copy(net.head), None)


def finite_difference_gradients(net, inputs, labels, step=1e-5):
    """Central finite differences of the loss over every parameter entry,
    evaluated in float64: on a float64 copy of net's parameters and on the
    inputs as net sees them, rounded to its dtype."""
    wide = float64_copy(net)
    dtype = net.parameter_arrays()[0].dtype
    inputs = {name: np.asarray(x, dtype=dtype).astype(np.float64) for name, x in inputs.items()}
    labels = np.asarray(labels, dtype=int)

    def loss():
        return _reference_loss(_reference_forward(wide, inputs)[-1], labels)

    grads = []
    for param in wide.parameter_arrays():
        grad = np.zeros_like(param)
        flat_p = param.ravel()
        flat_g = grad.ravel()
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + step
            loss_plus = loss()
            flat_p[idx] = orig - step
            loss_minus = loss()
            flat_p[idx] = orig
            flat_g[idx] = (loss_plus - loss_minus) / (2.0 * step)
        grads.append(grad)
    return grads


def max_relative_error(analytic, numeric, floor=1e-4):
    """Worst per-entry relative disagreement; entries below the floor are
    compared absolutely (floor guards against FD roundoff noise)."""
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


def knn_proba(train_x, train_y, query, k, positive=1):
    """Brute-force k-nearest-neighbors vote; distance ties break toward
    the smaller training index."""
    d2 = [float(((x - query) ** 2).sum()) for x in train_x]
    order = sorted(range(len(train_x)), key=lambda i: (d2[i], i))[:k]
    return sum(1 for i in order if train_y[i] == positive) / k


def _naive_gini(y, positive=1):
    if y.size == 0:
        return 0.0
    p = np.count_nonzero(y == positive) / y.size
    return 2.0 * p * (1.0 - p)


def naive_grow_tree(X, y, rng, n_split_features, positive=1, negative=0):
    """Gini decision tree grown to purity by scanning every midpoint of
    every sampled feature, one boolean mask and two impurities per
    midpoint; the first strict minimum wins. A split is (feature,
    threshold.hex(), left, right) with rows x < threshold on the left; a
    leaf is ("leaf", vote), and an impure leaf votes for the majority,
    ties to positive."""
    node_gini = _naive_gini(y, positive)
    if node_gini == 0.0:
        return ("leaf", int(y[0]) if y.size else negative)
    features = rng.choice(X.shape[1], size=n_split_features, replace=False)
    best = None  # (weighted_gini, feature, threshold)
    for f in features:
        values = np.unique(X[:, f])
        if values.size < 2:
            continue
        for thr in (values[:-1] + values[1:]) / 2.0:
            left = X[:, f] < thr
            wg = (np.count_nonzero(left) * _naive_gini(y[left], positive)
                  + np.count_nonzero(~left) * _naive_gini(y[~left], positive)) / y.size
            if best is None or wg < best[0]:
                best = (wg, int(f), float(thr))
    if best is None or best[0] >= node_gini:
        n_pos = np.count_nonzero(y == positive)
        return ("leaf", positive if 2 * n_pos >= y.size else negative)
    _, f, thr = best
    left = X[:, f] < thr
    return (f, thr.hex(),
            naive_grow_tree(X[left], y[left], rng, n_split_features, positive, negative),
            naive_grow_tree(X[~left], y[~left], rng, n_split_features, positive, negative))


def _reference_stack_backward(layers, caches, delta):
    grads = []
    for layer, (a_prev, z) in zip(reversed(layers), reversed(caches)):
        if layer.activation == "relu":
            delta = delta * (z > 0)
        grads.append((delta.T @ a_prev, delta.sum(axis=0)))
        delta = delta @ layer.weights
    return [g for pair in reversed(grads) for g in pair], delta


def _reference_forward(net, inputs):
    """The forward pass in the dtype of net's parameters, inputs cast to
    it: (each branch's output, each branch's and the head's (input,
    pre-activation) per layer, the class probabilities, the final
    pre-activations)."""
    dtype = net.parameter_arrays()[0].dtype
    outputs, caches = [], []
    for bspec, layers in zip(net.spec.branches, net.branches):
        a = np.asarray(inputs[bspec.name], dtype=dtype)
        cache = []
        for layer in layers:
            z = a @ layer.weights.T + layer.biases
            cache.append((a, z))
            a = np.maximum(z, 0.0)
        outputs.append(a)
        caches.append(cache)
    a = np.concatenate(outputs, axis=1)
    head_cache = []
    for layer in net.head:
        z = a @ layer.weights.T + layer.biases
        head_cache.append((a, z))
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        else:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
    return outputs, caches, head_cache, a, z


def _reference_loss(z, labels):
    """Mean cross-entropy of the final pre-activations z."""
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return float(np.mean(lse - z[np.arange(z.shape[0]), labels]))


def reference_train(net, inputs, labels, epochs, learning_rate):
    """Full-batch Adam on a netcore NetworkGraph, in the dtype of its
    parameters, with every intermediate a new array: ReLU masks from the
    pre-activations, every layer's input gradient, and Adam written as
    three whole-array expressions with the bias corrections folded into
    the step size (Kingma & Ba, ICLR 2015, §2). Updates the net's
    parameter arrays in place and returns the pre-update loss of every
    epoch; a non-finite loss ends the trace and the training."""
    labels = np.asarray(labels, dtype=int)
    n = labels.size
    params = net.parameter_arrays()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, epochs + 1):
            outputs, caches, head_cache, a, z = _reference_forward(net, inputs)
            loss = _reference_loss(z, labels)
            losses.append(loss)
            if not math.isfinite(loss):
                break

            onehot = np.zeros_like(a)
            onehot[np.arange(n), labels] = 1.0
            head_grads, delta = _reference_stack_backward(net.head, head_cache,
                                                          (a - onehot) / n)
            grads, offset = [], 0
            for layers, cache, out in zip(net.branches, caches, outputs):
                branch_grads, _ = _reference_stack_backward(
                    layers, cache, delta[:, offset:offset + out.shape[1]])
                offset += out.shape[1]
                grads += branch_grads
            grads += head_grads

            alpha = learning_rate * math.sqrt(1.0 - beta2 ** t) / (1.0 - beta1 ** t)
            for p, g, mi, vi in zip(params, grads, m, v):
                mi += (1.0 - beta1) * (g - mi)
                vi += (1.0 - beta2) * (g * g - vi)
                p -= alpha * mi / (np.sqrt(vi) + eps)
    return losses


def csv_writer_table(path, header, rows):
    """The row writer the column writer replaced: the header and every row
    through csv.writer, which writes a float as its repr and any other cell
    as its str, quoting a cell only where CSV needs it; UTF-8, LF line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
