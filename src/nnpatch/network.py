"""Dense feedforward classifier core: forward pass, loss, and exact
per-weight gradients for a designated layer.

Models are immutable values. Editing weights goes through ``write_weights``,
which returns a patched copy and leaves the original untouched. All
arithmetic is float64 so finite-difference checks have headroom.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-12

_ACTIVATIONS = ("relu", "identity", "softmax")


class ShapeError(ValueError):
    """Batch dimensions do not match the model."""


@dataclass(frozen=True)
class LayerSpec:
    """Shape and activation of one dense layer."""

    input_size: int
    output_size: int
    activation: str
    kind: str = "dense"

    def __post_init__(self) -> None:
        if self.kind != "dense":
            raise ValueError(f"unsupported layer kind {self.kind!r}")
        if self.input_size < 1 or self.output_size < 1:
            raise ValueError("layer sizes must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class WeightRef:
    """Address of one weight: layer index, source neuron i, target neuron j."""

    layer: int
    i: int
    j: int

    @property
    def sort_key(self) -> tuple[int, int, int]:
        # Total order used wherever ties must break deterministically.
        return (self.layer, self.j, self.i)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Batch:
    """A fixed set of samples: inputs, integer labels, stable ids."""

    inputs: np.ndarray
    labels: np.ndarray
    sample_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        inputs = _frozen_array(self.inputs, np.float64)
        labels = _frozen_array(self.labels, np.int64)
        ids = tuple(str(s) for s in self.sample_ids)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sample_ids", ids)
        if inputs.ndim != 2:
            raise ShapeError("batch inputs must be 2-D (n_samples, n_features)")
        n = inputs.shape[0]
        if labels.shape != (n,) or len(ids) != n:
            raise ShapeError("inputs, labels and sample_ids must agree on sample count")
        if len(set(ids)) != n:
            raise ValueError("sample_ids must be unique")
        if n:
            if not np.isfinite(inputs).all():
                raise ValueError("batch inputs must be finite")
            if labels.min() < 0:
                raise ValueError("labels must be non-negative")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class Model:
    """Immutable stack of dense layers ending in a softmax head."""

    layers: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        weights = tuple(_frozen_array(w, np.float64) for w in self.weights)
        biases = tuple(_frozen_array(b, np.float64) for b in self.biases)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        if not layers:
            raise ValueError("model needs at least one layer")
        if not (len(layers) == len(weights) == len(biases)):
            raise ValueError("layers, weights and biases must have equal length")
        for k, (spec, w, b) in enumerate(zip(layers, weights, biases)):
            if w.shape != (spec.input_size, spec.output_size):
                raise ValueError(f"layer {k}: weight shape {w.shape} does not match spec")
            if b.shape != (spec.output_size,):
                raise ValueError(f"layer {k}: bias shape {b.shape} does not match spec")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k}: non-finite parameter values")
            if k > 0 and layers[k - 1].output_size != spec.input_size:
                raise ValueError(f"layer {k}: input size does not chain from layer {k - 1}")
            if spec.activation == "softmax" and k != len(layers) - 1:
                raise ValueError("softmax is only allowed on the final layer")
        if layers[-1].activation != "softmax":
            raise ValueError("the final layer must use softmax")

    @property
    def input_size(self) -> int:
        return self.layers[0].input_size

    @property
    def n_classes(self) -> int:
        return self.layers[-1].output_size

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def build_mlp(layer_sizes, seed: int = 0, hidden_activation: str = "relu") -> Model:
    """He-initialized MLP with the given layer widths and a softmax head."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    rng = np.random.default_rng(seed)
    specs, ws, bs = [], [], []
    for k, (nin, nout) in enumerate(zip(sizes, sizes[1:])):
        last = k == len(sizes) - 2
        act = "softmax" if last else hidden_activation
        scale = np.sqrt((1.0 if last else 2.0) / nin)
        specs.append(LayerSpec(nin, nout, act))
        ws.append(rng.normal(0.0, scale, size=(nin, nout)))
        bs.append(np.zeros(nout))
    return Model(tuple(specs), tuple(ws), tuple(bs))


def _activate(z: np.ndarray, activation: str, axis: int = -1, inplace: bool = False) -> np.ndarray:
    """The activation of z; with `inplace`, written over z (same values)."""
    out = z if inplace else None
    if activation == "relu":
        return np.maximum(z, 0.0, out=out)
    if activation == "identity":
        return z
    # softmax over the class axis, stabilized; an empty batch stays empty
    if not z.size:
        return np.exp(z)
    e = np.subtract(z, z.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _activation_grad(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    if activation == "identity":
        return np.ones_like(z)
    raise ValueError("no elementwise gradient for softmax")


def _check_batch(model: Model, batch: Batch) -> np.ndarray:
    if batch.inputs.shape[1] != model.input_size:
        raise ShapeError(
            f"batch has {batch.inputs.shape[1]} features, model expects {model.input_size}"
        )
    return batch.inputs


def _trace(model: Model, inputs: np.ndarray):
    """Per-layer pre-activations and post-activations for a raw input matrix."""
    pre, post = [], []
    a = inputs
    for spec, w, b in zip(model.layers, model.weights, model.biases):
        z = a @ w + b
        a = _activate(z, spec.activation)
        pre.append(z)
        post.append(a)
    return pre, post


def forward(model: Model, batch: Batch) -> np.ndarray:
    """Class probabilities, one row per sample (rows sum to 1)."""
    inputs = _check_batch(model, batch)
    if len(batch) == 0:
        return np.zeros((0, model.n_classes))
    return _trace(model, inputs)[1][-1]


def loss_from_picked(picked: np.ndarray) -> np.ndarray:
    """Mean categorical cross-entropy over the last axis of the
    probabilities given to each sample's label, clamped at PROB_CLAMP."""
    return -np.log(np.clip(picked, PROB_CLAMP, None)).mean(axis=-1)


def loss_from_probs(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean categorical cross-entropy, probabilities clamped at PROB_CLAMP."""
    return float(loss_from_picked(probs[np.arange(len(labels)), labels]))


def loss(model: Model, batch: Batch) -> float:
    """Mean cross-entropy of the batch; rejects empty batches."""
    if len(batch) == 0:
        raise ValueError("loss of an empty batch is undefined")
    if batch.labels.max() >= model.n_classes:
        raise ValueError("label out of range for this model")
    return loss_from_probs(forward(model, batch), batch.labels)


def _check_layer(model: Model, layer: int) -> None:
    if not isinstance(layer, (int, np.integer)) or not 0 <= layer < model.n_layers:
        raise ValueError(f"invalid layer index {layer!r}")


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def weight_gradient_matrix(model: Model, batch: Batch, layer: int) -> np.ndarray:
    """d(mean loss)/dW for one layer, as an (input_size, output_size) array.

    Exact backpropagation from the softmax/cross-entropy head down to the
    requested layer.
    """
    _check_layer(model, layer)
    if len(batch) == 0:
        raise ValueError("cannot take gradients over an empty batch")
    inputs = _check_batch(model, batch)
    pre, post = _trace(model, inputs)
    n = len(batch)
    delta = (post[-1] - _one_hot(batch.labels, model.n_classes)) / n
    for k in range(model.n_layers - 1, layer, -1):
        upstream = delta @ model.weights[k].T
        delta = upstream * _activation_grad(pre[k - 1], model.layers[k - 1].activation)
    layer_in = inputs if layer == 0 else post[layer - 1]
    return layer_in.T @ delta


def weight_gradients(model: Model, batch: Batch, layer: int) -> dict[WeightRef, float]:
    """Gradient of the batch-mean loss for every weight of one layer."""
    g = weight_gradient_matrix(model, batch, layer)
    n_in, n_out = g.shape
    return {
        WeightRef(layer, i, j): float(g[i, j])
        for j in range(n_out)
        for i in range(n_in)
    }


def layer_inputs(model: Model, batch: Batch, layer: int) -> np.ndarray:
    """Per-sample inputs feeding `layer`: post-activations of the layer
    before it, or the raw batch inputs when layer == 0."""
    _check_layer(model, layer)
    inputs = _check_batch(model, batch)
    if layer == 0:
        return inputs.copy()
    a = inputs
    for k in range(layer):
        z = a @ model.weights[k] + model.biases[k]
        a = _activate(z, model.layers[k].activation)
    return a


def _check_refs(model: Model, refs) -> list[WeightRef]:
    refs = list(refs)
    for r in refs:
        _check_layer(model, r.layer)
        spec = model.layers[r.layer]
        if not (0 <= r.i < spec.input_size and 0 <= r.j < spec.output_size):
            raise ValueError(f"weight reference out of bounds: {r}")
    return refs


def read_weights(model: Model, refs) -> np.ndarray:
    """Current values of the referenced weights, in reference order."""
    refs = _check_refs(model, refs)
    return np.array([model.weights[r.layer][r.i, r.j] for r in refs])


def write_weights(model: Model, refs, values) -> Model:
    """New model with the referenced weights replaced by `values`.

    Untouched layers share storage with the original, so everything outside
    the referenced weights is bit-identical.
    """
    refs = _check_refs(model, refs)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(refs),):
        raise ValueError(f"expected {len(refs)} values, got shape {values.shape}")
    if len(refs) and not np.isfinite(values).all():
        raise ValueError("weight values must be finite")
    new_weights = list(model.weights)
    touched = {r.layer for r in refs}
    for k in touched:
        new_weights[k] = new_weights[k].copy()
    for r, v in zip(refs, values):
        new_weights[r.layer][r.i, r.j] = v
    return Model(model.layers, tuple(new_weights), model.biases)


def full_gradients(model: Model, batch: Batch):
    """Weight and bias gradients for every layer (training support)."""
    if len(batch) == 0:
        raise ValueError("cannot take gradients over an empty batch")
    inputs = _check_batch(model, batch)
    pre, post = _trace(model, inputs)
    n = len(batch)
    delta = (post[-1] - _one_hot(batch.labels, model.n_classes)) / n
    grad_w = [None] * model.n_layers
    grad_b = [None] * model.n_layers
    for k in range(model.n_layers - 1, -1, -1):
        layer_in = inputs if k == 0 else post[k - 1]
        grad_w[k] = layer_in.T @ delta
        grad_b[k] = delta.sum(axis=0)
        if k:
            upstream = delta @ model.weights[k].T
            delta = upstream * _activation_grad(pre[k - 1], model.layers[k - 1].activation)
    return grad_w, grad_b
