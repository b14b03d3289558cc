"""Subject construction: a reproducible SGD-trained MLP over a declared
data source, with the four-way split (and optional drift) baked into the
spec so the same spec always yields the same subject."""
from __future__ import annotations

import inspect
import math
import typing
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DriftSpec, SplitSpec, apply_drift, load_dataset, split
from .formats import _converter
from .network import Model, _backprop, _trace, build_mlp, loss_from_probs
from .synth import check_clusters, make_clusters


@dataclass(frozen=True)
class SubjectSpec:
    """Everything needed to rebuild the subject model bit-for-bit."""

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
        args = _source_args(self.source)  # `source` itself is kept as written
        if self.source["kind"] == "clusters" and args["n_features"] != self.layer_sizes[0]:
            raise ValueError(f"dataset n_features must equal layer_sizes[0] = "
                             f"{self.layer_sizes[0]}, got {args['n_features']}")
        if self.n_classes > self.layer_sizes[-1]:
            raise ValueError(f"dataset n_classes must be <= layer_sizes[-1] = "
                             f"{self.layer_sizes[-1]}, got {self.n_classes}")
        if self.drift is not None and not 0 <= self.drift.target_class < self.n_classes:
            raise ValueError(f"drift target_class must lie in [0, {self.n_classes}), "
                             f"got {self.drift.target_class}")

    @property
    def n_classes(self) -> int:
        """The classes of its data: a `clusters` source's `n_classes`, else the output width."""
        return _source_args(self.source).get("n_classes", self.layer_sizes[-1])


# each data source kind's arguments, by type
_SOURCE_ARGS = {
    "clusters": {k: t for k, t in typing.get_type_hints(make_clusters).items() if k != "return"},
    "file": {"path": str},
}
_CLUSTER_DEFAULTS = {k: p.default for k, p in inspect.signature(make_clusters).parameters.items()}


def _source_args(source: dict) -> dict:
    """A data source's arguments but `kind`, each converted by its type as a
    config value is, a `clusters` source's with their defaults filled in. An
    unknown kind, a missing path, a key the kind does not take, a value of
    another type or one out of its range raises ValueError naming it."""
    kind = source.get("kind")
    if not isinstance(kind, str) or kind not in _SOURCE_ARGS:
        raise ValueError(f"unknown data source kind {kind!r}")
    args = {k: v for k, v in source.items() if k != "kind"}
    if kind == "file" and "path" not in args:
        raise ValueError("dataset of kind 'file' needs a path")
    unknown = sorted(map(repr, args.keys() - _SOURCE_ARGS[kind].keys()))
    if unknown:
        raise ValueError(f"dataset of kind {kind!r} has no key {', '.join(unknown)}")
    args = {k: _converter(_SOURCE_ARGS[kind][k], f"dataset {k}")(v) for k, v in args.items()}
    if kind == "clusters":
        args = _CLUSTER_DEFAULTS | args
        check_clusters(args)
    return args


def load_source(source: dict) -> Dataset:
    """Materialize the declared data source."""
    args = _source_args(source)
    if source["kind"] == "clusters":
        return make_clusters(**args)
    return load_dataset(args["path"])


def materialize_splits(spec: SubjectSpec):
    """(dataset, (train, validation, repair, test)) for a subject spec."""
    dataset = load_source(spec.source)
    if spec.drift is not None:
        splits = apply_drift(dataset, spec.split, spec.drift)
    else:
        splits = split(dataset, spec.split)
    return dataset, splits


def train_subject(spec: SubjectSpec, splits) -> Model:
    """Plain minibatch SGD on the train split of `splits`; deterministic per spec.

    0 epochs returns the seeded initialization untouched. The weights are
    plain arrays until the end, which builds the one `Model`. After each
    epoch, non-finite weights or a non-finite training loss abort with that
    epoch's index.
    """
    train = splits[0]
    model = build_mlp(spec.layer_sizes, seed=spec.seed)
    if spec.epochs == 0:
        return model
    if len(train) == 0:
        raise ValueError("cannot train on an empty train split")
    if train.n_features != model.input_size or int(train.labels.max()) >= model.n_classes:
        raise ValueError("train split does not fit the declared architecture")

    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1)))
    n = len(train)
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = order[start : start + spec.batch_size]
            grad_w, grad_b = _backprop(weights, biases, train.features[idx], train.labels[idx])
            for k in range(len(weights)):
                weights[k] -= spec.learning_rate * grad_w[k]
                biases[k] -= spec.learning_rate * grad_b[k]
        probs = _trace(weights, biases, train.features)[-1]
        finite = all(np.isfinite(p).all() for p in (*weights, *biases))
        if not (finite and np.isfinite(loss_from_probs(probs, train.labels))):
            raise RuntimeError(f"training diverged (non-finite weights or loss) at epoch {epoch}")

    return Model(tuple(weights), tuple(biases))
