"""Shared builders for the test suite."""
from __future__ import annotations

import numpy as np

from nnpatch import Model, build_mlp
from nnpatch.data import Dataset


def random_model(rng, max_layers=3, max_width=8, n_layers=None) -> Model:
    """Random small MLP, `n_layers` deep or 1..max_layers at random; weights
    drawn wide enough to exercise dead relus."""
    if n_layers is None:
        n_layers = int(rng.integers(1, max_layers + 1))
    sizes = [int(rng.integers(2, max_width + 1)) for _ in range(n_layers + 1)]
    model = build_mlp(sizes, seed=int(rng.integers(0, 2**31)))
    # overwrite with a spread of magnitudes so gradients are not all tiny
    weights = tuple(rng.normal(0.0, 1.0, size=w.shape) for w in model.weights)
    biases = tuple(rng.normal(0.0, 0.3, size=b.shape) for b in model.biases)
    return Model(weights, biases)


def samples(inputs, labels, ids, n_classes=None) -> Dataset:
    """A Dataset of explicit rows; n_classes defaults to one past the largest label."""
    labels = np.asarray(labels, dtype=np.int64)
    if n_classes is None:
        n_classes = int(labels.max(initial=0)) + 1
    return Dataset(inputs, labels, tuple(ids), n_classes, tuple(f"c{c}" for c in range(n_classes)))


def random_batch(rng, model: Model, max_samples=16, prefix="b") -> Dataset:
    """1..max_samples random rows labelled over the model's classes."""
    n = int(rng.integers(1, max_samples + 1))
    x = rng.normal(0.0, 1.5, size=(n, model.input_size))
    y = rng.integers(0, model.n_classes, size=n)
    return samples(x, y, (f"{prefix}{k}" for k in range(n)), model.n_classes)


def toy_dataset(n=40, n_classes=4, seed=0, prefix="t") -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = np.arange(n) % n_classes
    return Dataset(x, y, tuple(f"{prefix}{k}" for k in range(n)), n_classes,
                   tuple(f"c{c}" for c in range(n_classes)))


def single_layer_model(weights, biases=None) -> Model:
    """One dense softmax layer with explicit weights."""
    w = np.asarray(weights, dtype=np.float64)
    b = np.zeros(w.shape[1]) if biases is None else np.asarray(biases, dtype=np.float64)
    return Model((w,), (b,))


def perceptron_separable(features, labels, max_epochs=200) -> bool:
    """Direct linear-classifier fit: perceptron converges iff the two-class
    data is linearly separable (within the epoch budget)."""
    x = np.hstack([features, np.ones((len(features), 1))])
    y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    w = np.zeros(x.shape[1])
    for _ in range(max_epochs):
        mistakes = 0
        for xi, yi in zip(x, y):
            if yi * (xi @ w) <= 0:
                w = w + yi * xi
                mistakes += 1
        if mistakes == 0:
            return True
    return False
