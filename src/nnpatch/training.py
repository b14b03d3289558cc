"""Subject construction: a reproducible SGD-trained MLP over a declared
data source, with the four-way split (and optional drift) baked into the
spec so the same spec always yields the same subject."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DriftSpec, SplitSpec, load_dataset, split
from .formats import from_dict
from .network import Model, _backprop, _trace, build_mlp, loss_from_probs
from .synth import ClustersSource, make_clusters


@dataclass(frozen=True)
class SubjectSpec:
    """Everything needed to rebuild the subject model bit-for-bit. `source` is
    the dataset section as written, read and checked by `load_source`."""

    layer_sizes: tuple[int, ...]
    epochs: int
    learning_rate: float
    batch_size: int
    seed: int
    source: dict
    split: SplitSpec
    drift: DriftSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2 or min(self.layer_sizes) < 1:
            raise ValueError("layer_sizes must list at least 2 sizes, each >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("subject seed must be >= 0")


@dataclass(frozen=True)
class FileSource:
    """A `kind: file` data source: a dataset file written by `save_dataset`."""

    path: str


_SOURCES = {"clusters": ClustersSource, "file": FileSource}


def load_source(source: dict) -> Dataset:
    """Materialize a data source: its `kind` and that kind's arguments. An
    unknown kind, a key the kind does not take or lacks, and a value of
    another type or out of its range raise ValueError naming them."""
    kind = source.get("kind")
    if not isinstance(kind, str) or kind not in _SOURCES:
        raise ValueError(f"unknown data source kind {kind!r}")
    try:
        args = from_dict(_SOURCES[kind], {k: v for k, v in source.items() if k != "kind"})
    except ValueError as exc:
        raise ValueError(f"{exc} (dataset of kind {kind!r})") from exc
    return make_clusters(args) if kind == "clusters" else load_dataset(args.path)


def materialize_splits(spec: SubjectSpec):
    """(dataset, (train, validation, repair, test)) for a subject spec."""
    dataset = load_source(spec.source)
    return dataset, split(dataset, spec.split, spec.drift)


def train_subject(spec: SubjectSpec, splits) -> Model:
    """Plain minibatch SGD on the train split of `splits`; deterministic per spec.

    The data must fit the layer sizes, also at 0 epochs, which return the
    seeded initialization untouched. The weights are plain arrays until the
    end, which builds the one `Model`. After each epoch, non-finite weights
    or a non-finite training loss abort with that epoch's index.
    """
    train, sizes = splits[0], spec.layer_sizes
    if train.n_features != sizes[0]:
        raise ValueError(f"dataset n_features must equal layer_sizes[0] = {sizes[0]}, "
                         f"got {train.n_features}")
    if train.n_classes > sizes[-1]:
        raise ValueError(f"dataset n_classes must be <= layer_sizes[-1] = {sizes[-1]}, "
                         f"got {train.n_classes}")
    model = build_mlp(sizes, seed=spec.seed)
    if spec.epochs == 0:
        return model
    if len(train) == 0:
        raise ValueError("cannot train on an empty train split")

    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1)))
    n = len(train)
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = order[start : start + spec.batch_size]
            acts = _trace(weights, biases, train.features[idx])
            grad_w, grad_b = _backprop(weights, acts, train.labels[idx])
            for k in range(len(weights)):
                weights[k] -= spec.learning_rate * grad_w[k]
                biases[k] -= spec.learning_rate * grad_b[k]
        probs = _trace(weights, biases, train.features)[-1]
        finite = all(np.isfinite(p).all() for p in (*weights, *biases))
        if not (finite and np.isfinite(loss_from_probs(probs, train.labels))):
            raise RuntimeError(f"training diverged (non-finite weights or loss) at epoch {epoch}")

    return Model(tuple(weights), tuple(biases))
