"""Dense feedforward classifier core: forward pass, loss, and exact
weight and bias gradients by backpropagation.

Every function here takes plain arrays: an (n_samples, n_features) input
matrix and, where a loss is involved, one integer label per row. Sample ids
belong to ``data.Dataset``, which callers unpack into ``features`` and
``labels``. Models are immutable values. A weight is (layer, i, j): source
unit i and target unit j of one layer. ``write_weights(model, layer, i, j,
values)`` returns a patched copy and leaves the original untouched. All
arithmetic is float64 so finite-difference checks have headroom.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-12


class ShapeError(ValueError):
    """Input or label dimensions do not match the model or each other."""


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer as a model file lists it."""

    input_size: int
    output_size: int
    activation: str
    kind: str = "dense"


def _frozen_array(values, dtype) -> np.ndarray:
    """`values` as a read-only array of `dtype`, shared when it already is one owning its
    data. An integer `dtype` refuses non-integer values, which a cast would truncate."""
    arr = np.asarray(values)
    if arr.size and np.issubdtype(dtype, np.integer) and arr.dtype.kind not in "iu":
        raise ValueError(f"expected integer values, got {arr.dtype}")
    owned = arr.dtype == dtype and arr.flags.owndata
    arr = arr if owned and not arr.flags.writeable else np.array(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Model:
    """Immutable stack of dense layers: layer k maps weights[k].shape[0]
    inputs to weights[k].shape[1] outputs, through relu on every hidden
    layer and softmax on the last."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        weights = tuple(_frozen_array(w, np.float64) for w in self.weights)
        biases = tuple(_frozen_array(b, np.float64) for b in self.biases)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        if not weights:
            raise ValueError("model needs at least one layer")
        if len(weights) != len(biases):
            raise ValueError("weights and biases must have equal length")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or not w.size:
                raise ValueError(f"layer {k}: weight shape {w.shape} must be 2-D and non-empty")
            if b.shape != (w.shape[1],):
                raise ValueError(f"layer {k}: bias shape {b.shape} does not match its weights")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k}: non-finite parameter values")
            if k > 0 and weights[k - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {k}: input size does not chain from layer {k - 1}")

    @property
    def layers(self) -> tuple[LayerSpec, ...]:
        """Each layer's sizes and activation, as a model file lists them."""
        last = len(self.weights) - 1
        return tuple(LayerSpec(*w.shape, "softmax" if k == last else "relu")
                     for k, w in enumerate(self.weights))

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_classes(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def build_mlp(layer_sizes, seed: int = 0) -> Model:
    """He-initialized relu MLP with the given layer widths and a softmax head."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    rng = np.random.default_rng(seed)
    ws, bs = [], []
    for k, (nin, nout) in enumerate(zip(sizes, sizes[1:])):
        scale = np.sqrt((1.0 if k == len(sizes) - 2 else 2.0) / nin)
        ws.append(rng.normal(0.0, scale, size=(nin, nout)))
        bs.append(np.zeros(nout))
    return Model(tuple(ws), tuple(bs))


def softmax(z: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of z over `axis`, a non-empty one, stabilized, written to `out`
    when given (which may be z itself)."""
    e = np.subtract(z, np.maximum.reduce(z, axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def _check_inputs(model: Model, inputs) -> np.ndarray:
    """`inputs` as a finite float64 (n_samples, model.input_size) matrix."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ShapeError("inputs must be 2-D (n_samples, n_features)")
    if inputs.shape[1] != model.input_size:
        raise ShapeError(f"inputs have {inputs.shape[1]} features, model expects {model.input_size}")
    if not np.isfinite(inputs).all():
        raise ValueError("inputs must be finite")
    return inputs


def _check_labelled(model: Model, inputs, labels) -> tuple[np.ndarray, np.ndarray]:
    """Checked inputs and int64 labels of a non-empty set, one label per row,
    each in [0, model.n_classes)."""
    inputs = _check_inputs(model, inputs)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(inputs),):
        raise ShapeError("inputs and labels must agree on sample count")
    if not len(labels):
        raise ValueError("loss and gradients of an empty set are undefined")
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise ValueError("label out of range for this model")
    return inputs, labels


def _trace(weights, biases, inputs: np.ndarray, stop: int | None = None) -> list:
    """A raw input matrix, then the output of each of the first `stop` layers
    (all by default) of a stack of layers: relu on every hidden layer, softmax
    on the last. The one forward loop."""
    acts = [inputs]
    for k, (w, b) in enumerate(zip(weights[:stop], biases[:stop])):
        z = acts[-1] @ w + b
        acts.append(softmax(z) if k == len(weights) - 1 else np.maximum(z, 0.0))
    return acts


def forward(model: Model, inputs) -> np.ndarray:
    """Class probabilities, one row per input row (rows sum to 1)."""
    return _trace(model.weights, model.biases, _check_inputs(model, inputs))[-1]


def loss_from_picked(picked: np.ndarray) -> np.ndarray:
    """Mean categorical cross-entropy over the last axis of the
    probabilities given to each sample's label, clamped at PROB_CLAMP. It is
    negated after the mean, so a set whose picks are all 1 has loss -0.0."""
    return -(np.add.reduce(np.log(np.maximum(picked, PROB_CLAMP)), axis=-1) / picked.shape[-1])


def loss_from_probs(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean categorical cross-entropy, probabilities clamped at PROB_CLAMP."""
    return float(loss_from_picked(probs[np.arange(len(labels)), labels]))


def loss(model: Model, inputs, labels) -> float:
    """Mean cross-entropy over the rows; rejects an empty set."""
    inputs, labels = _check_labelled(model, inputs, labels)
    return loss_from_probs(forward(model, inputs), labels)


def _check_layer(model: Model, layer: int) -> None:
    if not isinstance(layer, (int, np.integer)) or not 0 <= layer < model.n_layers:
        raise ValueError(f"invalid layer index {layer!r}")


def layer_inputs(model: Model, inputs, layer: int) -> np.ndarray:
    """Per-sample inputs feeding `layer`: post-activations of the layer
    before it, or a copy of the inputs when layer == 0."""
    _check_layer(model, layer)
    a = _check_inputs(model, inputs)
    if layer == 0:
        return a.copy()
    return _trace(model.weights, model.biases, a, stop=layer)[-1]


def _check_index(model: Model, layer: int, i, j) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) as int64 vectors of one length addressing weights of `layer`;
    numpy would wrap a negative index, so every index is bounds-checked."""
    _check_layer(model, layer)
    i, j = _frozen_array(i, np.int64), _frozen_array(j, np.int64)
    if i.ndim != 1 or i.shape != j.shape:
        raise ValueError("i and j must be 1-D vectors of one length")
    n_in, n_out = model.weights[layer].shape
    if len(i) and not (0 <= i.min() and i.max() < n_in and 0 <= j.min() and j.max() < n_out):
        raise ValueError(f"weight index out of bounds for layer {layer} of shape {(n_in, n_out)}")
    return i, j


def read_weights(model: Model, layer: int, i, j) -> np.ndarray:
    """Values of weights (i[k], j[k]) of `layer`, in index order."""
    i, j = _check_index(model, layer, i, j)
    return model.weights[layer][i, j]


def write_weights(model: Model, layer: int, i, j, values) -> Model:
    """New model with weights (i[k], j[k]) of `layer` set to values[k].

    Only that layer is copied; the others share storage with the original,
    so everything outside the addressed weights is bit-identical.
    """
    i, j = _check_index(model, layer, i, j)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != i.shape:
        raise ValueError(f"expected {len(i)} values, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("weight values must be finite")
    w = model.weights[layer].copy()
    w[i, j] = values
    w.setflags(write=False)
    return Model(model.weights[:layer] + (w,) + model.weights[layer + 1:], model.biases)


def full_gradients(model: Model, inputs, labels):
    """Weight and bias gradients of the mean loss for every layer, by exact
    backpropagation from the softmax/cross-entropy head."""
    inputs, labels = _check_labelled(model, inputs, labels)
    return _backprop(model.weights, _trace(model.weights, model.biases, inputs), labels)


def _backprop(weights, acts: list, labels: np.ndarray, stop: int = 0):
    """`full_gradients` of a stack of layers from `acts`, the `_trace` of checked
    inputs, for layers `stop` and up; the entries below `stop` are None."""
    delta = acts[-1].copy()  # softmax minus one-hot labels, over the sample count
    delta[np.arange(len(labels)), labels] -= 1.0
    delta /= len(labels)
    grad_w = [None] * len(weights)
    grad_b = [None] * len(weights)
    for k in range(len(weights) - 1, stop - 1, -1):
        grad_w[k] = acts[k].T @ delta
        grad_b[k] = delta.sum(axis=0)
        if k > stop:
            delta = (delta @ weights[k].T) * (acts[k] > 0.0)  # relu's gradient: z > 0 iff relu(z) > 0
    return grad_w, grad_b
