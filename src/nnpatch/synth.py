"""Synthetic tabular classification data.

Gaussian clusters with means on a circle. Overlap is controlled by the
cluster std; a single class can be pulled toward its neighbor to
concentrate confusions on one class pair, which is how the drift and
repair scenarios are staged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class ClustersSource:
    """A `kind: clusters` data source: `make_clusters`'s arguments."""

    n_classes: int = 7
    n_per_class: int = 300
    n_features: int = 2
    radius: float = 4.0
    cluster_std: float = 0.9
    confusion_pull: float = 0.0
    target_class: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for key, ok, rule in (
            ("n_classes", self.n_classes >= 2, ">= 2"),
            ("n_per_class", self.n_per_class >= 1, ">= 1"),
            ("n_features", self.n_features >= 2, ">= 2 to place means on a circle"),
            ("radius", 0.0 <= self.radius < math.inf, "finite and >= 0"),
            ("cluster_std", 0.0 <= self.cluster_std < math.inf, "finite and >= 0"),
            ("confusion_pull", 0.0 <= self.confusion_pull < 1.0, "in [0, 1)"),
            ("target_class", 0 <= self.target_class < self.n_classes, "in [0, n_classes)"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"dataset {key} must be {rule}, got {getattr(self, key)!r}")


def make_clusters(source: ClustersSource) -> Dataset:
    """One isotropic Gaussian blob per class; sample ids are s000000, s000001, ...

    Means sit evenly on a circle of the given radius (first two feature
    dimensions; any extra dimensions center at 0). confusion_pull in [0, 1)
    moves the target class mean toward the next class around the circle, so
    misclassifications concentrate on that pair.
    """
    n_classes, n_per_class, n_features = source.n_classes, source.n_per_class, source.n_features
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = np.zeros((n_classes, n_features))
    means[:, 0] = source.radius * np.cos(angles)
    means[:, 1] = source.radius * np.sin(angles)
    if source.confusion_pull > 0.0:
        target, neighbor = source.target_class, (source.target_class + 1) % n_classes
        means[target] += source.confusion_pull * (means[neighbor] - means[target])

    rng = np.random.default_rng(source.seed)
    feats = np.concatenate(
        [rng.normal(means[c], source.cluster_std, size=(n_per_class, n_features)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    ids = tuple(f"s{k:06d}" for k in range(len(labels)))
    names = tuple(f"c{c}" for c in range(n_classes))
    return Dataset(feats, labels, ids, n_classes, names)
